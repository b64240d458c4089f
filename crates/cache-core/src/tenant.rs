//! A multi-tenant cache server.
//!
//! Memcachier assigns each application a fixed, statically reserved amount
//! of memory on every server (paper §3). [`MultiTenantCache`] models one such
//! server: a set of applications, each with its own [`SlabCache`] sized by
//! its reservation. Reservations can be changed at runtime, which is how
//! cross-application optimisation (Table 3) and the Cliffhanger controller
//! reassign memory between applications.

use crate::key::ClassId;
use crate::key::{AppId, Key};
use crate::queue::SetResult;
use crate::stats::CacheStats;
use crate::store::{SlabCache, SlabCacheConfig, SlabGetResult};
use std::collections::BTreeMap;

/// The name of the tenant a connection belongs to before any `app` command:
/// index 0 of every [`TenantDirectory`], always present, so a client that
/// never selects an application behaves exactly like a single-tenant server.
pub const DEFAULT_TENANT: &str = "default";

/// A named tenant table with stable indices.
///
/// The wire protocol selects tenants by *name* (`app <name>`), while the
/// backend indexes per-tenant engines, budgets and counters by dense
/// position; the directory is the bridge. Index 0 is always
/// [`DEFAULT_TENANT`]. Names travel on the wire inside `app` commands and
/// `tenant:<name>:…` stats lines, so they are restricted to ASCII
/// graphics without `:` (the stats separator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantDirectory {
    names: Vec<String>,
}

impl Default for TenantDirectory {
    fn default() -> Self {
        TenantDirectory {
            names: vec![DEFAULT_TENANT.to_string()],
        }
    }
}

impl TenantDirectory {
    /// A directory hosting only the default tenant.
    pub fn single() -> Self {
        TenantDirectory::default()
    }

    /// Whether `name` is usable on the wire and in stats lines: non-empty,
    /// at most 64 bytes, ASCII graphic characters, no `:`.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.bytes().all(|b| b.is_ascii_graphic() && b != b':')
    }

    /// Builds a directory from the configured application names. The default
    /// tenant is always present at index 0 whether or not it is listed;
    /// other names keep their configuration order. Duplicates collapse to
    /// their first occurrence.
    ///
    /// # Panics
    /// Panics if any name fails [`TenantDirectory::valid_name`] — tenant
    /// names are deployment configuration, and a name that cannot appear in
    /// a stats line is a misconfiguration worth failing loudly on.
    pub fn from_names<S: AsRef<str>>(configured: &[S]) -> Self {
        let mut names = vec![DEFAULT_TENANT.to_string()];
        for name in configured {
            let name = name.as_ref();
            assert!(
                Self::valid_name(name),
                "invalid tenant name {name:?}: need 1-64 ASCII graphic bytes, no ':'"
            );
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
        TenantDirectory { names }
    }

    /// Appends a tenant name, returning its dense index. Indices already
    /// handed out are never invalidated — the directory is append-only,
    /// which is what lets a live server onboard applications while
    /// sessions hold tenant indices.
    ///
    /// # Panics
    /// Panics if the name fails [`TenantDirectory::valid_name`] or is
    /// already hosted; callers (the `app_create` executor) validate first
    /// and report a `CLIENT_ERROR` instead.
    pub fn add(&mut self, name: &str) -> usize {
        assert!(
            Self::valid_name(name),
            "invalid tenant name {name:?}: need 1-64 ASCII graphic bytes, no ':'"
        );
        assert!(
            self.index_of(name).is_none(),
            "tenant {name:?} already hosted"
        );
        self.names.push(name.to_string());
        self.names.len() - 1
    }

    /// Number of tenants (always at least 1).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether only the default tenant is hosted.
    pub fn is_single(&self) -> bool {
        self.names.len() == 1
    }

    /// Never true: the default tenant is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dense index of a tenant name, if hosted.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The name at a dense index.
    pub fn name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// All tenant names, default first.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The [`AppId`] of a dense index (for the simulation-side types).
    pub fn app_id(&self, index: usize) -> AppId {
        AppId::new(index as u32)
    }
}

/// Per-application configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// The application's identifier.
    pub app: AppId,
    /// Bytes reserved for the application on this server.
    pub reserved_bytes: u64,
    /// The slab cache configuration template (its `total_bytes` is replaced
    /// by `reserved_bytes`).
    pub cache: SlabCacheConfig,
}

impl TenantConfig {
    /// Creates a tenant with the default slab cache configuration.
    pub fn new(app: AppId, reserved_bytes: u64) -> Self {
        TenantConfig {
            app,
            reserved_bytes,
            cache: SlabCacheConfig::default(),
        }
    }
}

/// A cache server shared by multiple applications.
#[derive(Debug)]
pub struct MultiTenantCache<V> {
    tenants: BTreeMap<AppId, SlabCache<V>>,
}

impl<V> Default for MultiTenantCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MultiTenantCache<V> {
    /// Creates an empty server with no tenants.
    pub fn new() -> Self {
        MultiTenantCache {
            tenants: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a tenant.
    pub fn add_tenant(&mut self, config: TenantConfig) {
        let mut cache_config = config.cache;
        cache_config.total_bytes = config.reserved_bytes;
        self.tenants
            .insert(config.app, SlabCache::new(cache_config));
    }

    /// Removes a tenant, returning whether it existed.
    pub fn remove_tenant(&mut self, app: AppId) -> bool {
        self.tenants.remove(&app).is_some()
    }

    /// Number of tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The application ids currently hosted, in ascending order.
    pub fn apps(&self) -> Vec<AppId> {
        self.tenants.keys().copied().collect()
    }

    /// Looks up `key` for application `app`.
    pub fn get(&mut self, app: AppId, key: Key, size: u64) -> Option<SlabGetResult> {
        self.tenants.get_mut(&app)?.get(key, size)
    }

    /// Looks up `key` for application `app` without a size hint.
    pub fn get_untyped(&mut self, app: AppId, key: Key) -> Option<SlabGetResult> {
        Some(self.tenants.get_mut(&app)?.get_untyped(key))
    }

    /// Stores `key` for application `app`.
    pub fn set(
        &mut self,
        app: AppId,
        key: Key,
        size: u64,
        value: V,
    ) -> Option<(ClassId, SetResult)> {
        self.tenants.get_mut(&app)?.set(key, size, value)
    }

    /// Deletes `key` for application `app`.
    pub fn delete(&mut self, app: AppId, key: Key) -> bool {
        self.tenants
            .get_mut(&app)
            .map(|t| t.delete(key))
            .unwrap_or(false)
    }

    /// Stored value for `key` of application `app`.
    pub fn value(&self, app: AppId, key: Key) -> Option<&V> {
        self.tenants.get(&app)?.value(key)
    }

    /// The tenant's cache, if hosted.
    pub fn tenant(&self, app: AppId) -> Option<&SlabCache<V>> {
        self.tenants.get(&app)
    }

    /// Mutable access to the tenant's cache (used by allocators).
    pub fn tenant_mut(&mut self, app: AppId) -> Option<&mut SlabCache<V>> {
        self.tenants.get_mut(&app)
    }

    /// Changes an application's reservation. The change takes effect lazily
    /// (on subsequent insertions), like every other resize in this crate.
    pub fn set_reservation(&mut self, app: AppId, bytes: u64) -> bool {
        match self.tenants.get_mut(&app) {
            Some(t) => {
                t.set_total_bytes(bytes);
                true
            }
            None => false,
        }
    }

    /// An application's reservation in bytes.
    pub fn reservation(&self, app: AppId) -> Option<u64> {
        self.tenants.get(&app).map(|t| t.total_bytes())
    }

    /// Sum of all reservations.
    pub fn total_reserved(&self) -> u64 {
        self.tenants.values().map(|t| t.total_bytes()).sum()
    }

    /// Per-application statistics.
    pub fn per_app_stats(&self) -> BTreeMap<AppId, CacheStats> {
        self.tenants
            .iter()
            .map(|(&app, cache)| (app, cache.stats()))
            .collect()
    }

    /// Aggregate statistics over all applications.
    pub fn stats(&self) -> CacheStats {
        self.tenants
            .values()
            .fold(CacheStats::new(), |acc, t| acc + t.stats())
    }

    /// Resets statistics for every tenant.
    pub fn reset_stats(&mut self) {
        for tenant in self.tenants.values_mut() {
            tenant.reset_stats();
        }
    }

    /// Total bytes in use across all tenants.
    pub fn used_bytes(&self) -> u64 {
        self.tenants.values().map(|t| t.used_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::AllocationMode;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    fn server() -> MultiTenantCache<()> {
        let mut s = MultiTenantCache::new();
        for app in 0..3u32 {
            s.add_tenant(TenantConfig::new(AppId::new(app), 64 << 10));
        }
        s
    }

    #[test]
    fn tenants_are_isolated() {
        let mut s = server();
        s.set(AppId::new(0), key(1), 100, ());
        assert!(s.get(AppId::new(0), key(1), 100).unwrap().result.hit);
        assert!(!s.get(AppId::new(1), key(1), 100).unwrap().result.hit);
    }

    #[test]
    fn unknown_app_is_rejected() {
        let mut s = server();
        assert!(s.get(AppId::new(9), key(1), 100).is_none());
        assert!(s.set(AppId::new(9), key(1), 100, ()).is_none());
        assert!(!s.delete(AppId::new(9), key(1)));
    }

    #[test]
    fn reservations_bound_each_tenant() {
        let mut s = MultiTenantCache::new();
        s.add_tenant(TenantConfig {
            app: AppId::new(0),
            reserved_bytes: 8 << 10,
            cache: SlabCacheConfig {
                mode: AllocationMode::FirstComeFirstServe { page_size: 1 << 10 },
                ..SlabCacheConfig::default()
            },
        });
        s.add_tenant(TenantConfig {
            app: AppId::new(1),
            reserved_bytes: 32 << 10,
            cache: SlabCacheConfig {
                mode: AllocationMode::FirstComeFirstServe { page_size: 1 << 10 },
                ..SlabCacheConfig::default()
            },
        });
        for i in 0..1_000 {
            s.set(AppId::new(0), key(i), 100, ());
            s.set(AppId::new(1), key(i), 100, ());
        }
        let used0 = s.tenant(AppId::new(0)).unwrap().used_bytes();
        let used1 = s.tenant(AppId::new(1)).unwrap().used_bytes();
        assert!(used0 <= 8 << 10);
        assert!(used1 <= 32 << 10);
        assert!(used1 > used0, "the larger reservation holds more data");
        assert_eq!(s.total_reserved(), 40 << 10);
    }

    #[test]
    fn per_app_stats_are_separate() {
        let mut s = server();
        s.set(AppId::new(0), key(1), 100, ());
        s.get(AppId::new(0), key(1), 100);
        s.get(AppId::new(1), key(1), 100);
        let stats = s.per_app_stats();
        assert_eq!(stats[&AppId::new(0)].hits, 1);
        assert_eq!(stats[&AppId::new(1)].misses, 1);
        let total = s.stats();
        assert_eq!(total.gets, 2);
        assert_eq!(total.sets, 1);
    }

    #[test]
    fn directory_defaults_and_lookup() {
        let d = TenantDirectory::single();
        assert_eq!(d.len(), 1);
        assert!(d.is_single());
        assert_eq!(d.index_of(DEFAULT_TENANT), Some(0));
        assert_eq!(d.name(0), "default");

        let d = TenantDirectory::from_names(&["alpha", "beta", "alpha"]);
        assert_eq!(d.len(), 3, "duplicates collapse");
        assert_eq!(d.index_of("default"), Some(0));
        assert_eq!(d.index_of("alpha"), Some(1));
        assert_eq!(d.index_of("beta"), Some(2));
        assert_eq!(d.index_of("gamma"), None);
        assert_eq!(d.app_id(2), AppId::new(2));
        assert!(!d.is_single());
        assert!(!d.is_empty());
    }

    #[test]
    fn directory_listing_default_explicitly_keeps_it_at_index_zero() {
        let d = TenantDirectory::from_names(&["alpha", "default", "beta"]);
        assert_eq!(d.index_of("default"), Some(0));
        assert_eq!(d.names().len(), 3);
    }

    #[test]
    fn tenant_name_validation() {
        assert!(TenantDirectory::valid_name("app-42_x.y"));
        assert!(TenantDirectory::valid_name("a"));
        assert!(!TenantDirectory::valid_name(""));
        assert!(!TenantDirectory::valid_name("has space"));
        assert!(!TenantDirectory::valid_name("has:colon"));
        assert!(!TenantDirectory::valid_name("ünïcode"));
        assert!(!TenantDirectory::valid_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "invalid tenant name")]
    fn invalid_configured_name_panics() {
        let _ = TenantDirectory::from_names(&["bad:name"]);
    }

    #[test]
    fn reservation_changes_apply() {
        let mut s = server();
        assert!(s.set_reservation(AppId::new(0), 128 << 10));
        assert_eq!(s.reservation(AppId::new(0)), Some(128 << 10));
        assert!(!s.set_reservation(AppId::new(9), 1));
        assert!(s.remove_tenant(AppId::new(2)));
        assert_eq!(s.num_tenants(), 2);
        assert_eq!(s.apps(), vec![AppId::new(0), AppId::new(1)]);
    }
}
