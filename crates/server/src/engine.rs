//! The per-(shard, tenant) cache engine, the backend configuration and the
//! key-routing arithmetic the data plane (`crate::plane`) is built from.
//!
//! The engine operations (exact-match lookup semantics, charge accounting,
//! budget grow/shrink), the routing function and the budget-split helpers
//! live in one place so a key stores the same bytes, charges the same size
//! and routes to the same shard on every path that reaches an engine.

use cache_core::key::mix64;
use cache_core::magazine::{self, Magazine};
use cache_core::prefetch::{self, Sweep};
use cache_core::store::AllocationMode;
use cache_core::{
    hash_bytes, CacheStats, Footprint, Key, PolicyKind, SlabCache, SlabCacheConfig, SlabConfig,
    TenantDirectory,
};
use cliffhanger::{Cliffhanger, CliffhangerConfig, EventSink, ShardBalanceConfig};
use std::cell::RefCell;
use std::sync::Arc;

/// Which allocation scheme the server runs (Tables 6–7 compare these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendMode {
    /// Stock Memcached behaviour: first-come-first-serve slab allocation.
    Default,
    /// Hill climbing only (Algorithm 1).
    HillClimbing,
    /// The full Cliffhanger system (both algorithms).
    Cliffhanger,
}

/// One hosted application and its reservation weight.
///
/// Budgets start proportional to the weights (a weight-2 tenant reserves
/// twice the bytes of a weight-1 tenant) and then move under arbitration
/// unless [`BackendConfig::tenant_balance`] is disabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// The application name clients select with `app <name>`. Must satisfy
    /// [`TenantDirectory::valid_name`].
    pub name: String,
    /// Relative reservation weight; must be at least 1.
    pub weight: u64,
}

impl TenantSpec {
    /// A tenant with the given name and weight.
    pub fn new(name: impl Into<String>, weight: u64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
        }
    }
}

/// Sharding below this per-engine budget hurts more than it helps (the slab
/// classes no longer fit), so auto-detection caps the shard count to keep
/// every tenant's engine on every shard at least this large (at even
/// weights).
const MIN_SHARD_BYTES: u64 = 1 << 20;

/// Upper bound on auto-detected shards; explicit configuration may exceed it.
const MAX_AUTO_SHARDS: usize = 64;

/// Returns the number of shards auto-detection would pick for this host:
/// one per available CPU (`num_cpus`-style), capped at `MAX_AUTO_SHARDS`.
pub fn detect_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_AUTO_SHARDS)
}

/// Backend configuration.
#[derive(Clone, Debug)]
pub struct BackendConfig {
    /// Total cache memory in bytes, split across tenants by weight and then
    /// evenly across the shards.
    pub total_bytes: u64,
    /// Which allocation scheme to run.
    pub mode: BackendMode,
    /// Number of independent shards; `0` auto-detects from the host's
    /// available parallelism. Both explicit and detected counts are capped
    /// so every tenant's engine keeps at least 1 MB of budget — the clamp is
    /// logged at construction and exposed as the `shards_requested` stats
    /// line; check [`crate::PlaneHandle::shard_count`] (or
    /// `resolved_shards`) for the count actually running.
    pub shards: usize,
    /// Per-tenant cross-shard budget rebalancing. Enabled by default; only
    /// effective with more than one shard and a managed (non-`Default`)
    /// allocator, since the gradient signal comes from the Cliffhanger
    /// shadow queues.
    pub rebalance: ShardBalanceConfig,
    /// Applications hosted besides the always-present `default` tenant.
    /// Empty reproduces the single-tenant server exactly.
    pub tenants: Vec<TenantSpec>,
    /// Cross-tenant budget arbitration. Enabled by default; only effective
    /// with more than one tenant and a managed allocator. Off reproduces
    /// Memcachier's static reservations. The same balancer as `rebalance`
    /// with tenants in the seats, so the same configuration type
    /// (`min_shard_bytes` is the per-tenant floor here).
    pub tenant_balance: ShardBalanceConfig,
    /// Online miss-ratio-curve sampling rate denominator: on average one in
    /// `mrc_sample` GETs is profiled (rounded up to a power of two; `0`
    /// disables profiling).
    pub mrc_sample: u64,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            total_bytes: 64 << 20,
            mode: BackendMode::Cliffhanger,
            shards: 0,
            rebalance: ShardBalanceConfig::default(),
            tenants: Vec::new(),
            tenant_balance: ShardBalanceConfig::tenant_default(),
            mrc_sample: 64,
        }
    }
}

impl BackendConfig {
    /// The tenant directory this configuration resolves to: `default` at
    /// index 0, configured tenants after it in order (duplicates collapse).
    pub fn tenant_directory(&self) -> TenantDirectory {
        let names: Vec<&str> = self.tenants.iter().map(|t| t.name.as_str()).collect();
        TenantDirectory::from_names(&names)
    }

    /// Per-tenant reservation weights aligned with
    /// [`BackendConfig::tenant_directory`] indices. The default tenant's
    /// weight is 1 unless it is listed explicitly.
    pub(crate) fn tenant_weights(&self, directory: &TenantDirectory) -> Vec<u64> {
        directory
            .names()
            .iter()
            .map(|name| {
                let weight = self
                    .tenants
                    .iter()
                    .find(|t| &t.name == name)
                    .map(|t| t.weight)
                    .unwrap_or(1);
                assert!(weight >= 1, "tenant {name:?} weight must be at least 1");
                weight
            })
            .collect()
    }

    /// The shard count this configuration asks for, before the budget cap:
    /// the explicit value, or CPU-count detection when `shards == 0`.
    pub fn requested_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            detect_shards()
        }
    }

    /// The spatial-sampling shift the configured MRC rate resolves to:
    /// `Some(s)` profiles one in `2^s` keys (`mrc_sample` rounded up to a
    /// power of two), `None` disables profiling entirely.
    pub fn mrc_shift(&self) -> Option<u32> {
        match self.mrc_sample {
            0 => None,
            n => Some(n.next_power_of_two().trailing_zeros()),
        }
    }

    /// The shard count this configuration resolves to: the explicit value,
    /// or CPU-count detection when `shards == 0`, in both cases capped so no
    /// tenant engine drops below `MIN_SHARD_BYTES` at even weights.
    pub fn resolved_shards(&self) -> usize {
        let tenants = self.tenant_directory().len() as u64;
        let budget_cap = (self.total_bytes / (MIN_SHARD_BYTES * tenants)).max(1) as usize;
        self.requested_shards().clamp(1, budget_cap.max(1))
    }
}

/// Length of an item's header: `flags` (`u32`) and the key's length (`u16`),
/// little-endian, then the pad (`u8`): how many bytes past the data fill the
/// buffer out to its [`magazine::capacity`].
const ITEM_HEADER: usize = 7;

thread_local! {
    /// The item buffers this thread freed last, by size class. Items are
    /// dropped deep inside the engines (an overwrite, an eviction, a delete)
    /// by whichever thread runs the op; only a thread that builds items
    /// (a loop, or a handle caller that stores) keeps what it frees.
    static MAGAZINE: RefCell<Magazine> = const { RefCell::new(Magazine::new()) };
}

/// An item as the server stores it: header, key, data and pad back to back
/// in one owned buffer, so a GET compares the key and copies the data out of
/// one run of cache lines. The buffer is as long as the chunk `malloc` would
/// hand out for the item ([`magazine::capacity`]): a SET takes the one its
/// loop last freed in that size class and allocates only when there is
/// none, and dropping an item gives its buffer back without reading it. The
/// engines charge `key + data` for it; header and pad are not charged.
#[derive(Debug)]
pub(crate) struct StoredValue(Box<[u8]>);

impl StoredValue {
    /// Copies `key` and `data` into a recycled or fresh buffer of their
    /// class. `None` for a key whose length the header cannot hold: the
    /// caller refuses the store.
    pub(crate) fn new(key: &[u8], flags: u32, data: &[u8]) -> Option<StoredValue> {
        let key_len = u16::try_from(key.len()).ok()?;
        let len = ITEM_HEADER + key.len() + data.len();
        let capacity = magazine::capacity(len);
        // A recycled buffer is exactly `capacity` long, and so is a fresh
        // one (`with_capacity` allocates what it is asked for), so filling
        // it to that length and boxing it reallocates nothing.
        let mut item = MAGAZINE
            .try_with(|magazine| magazine.borrow_mut().take(capacity))
            .ok()
            .flatten()
            .map_or_else(|| Vec::with_capacity(capacity), <[u8]>::into_vec);
        item.clear();
        item.extend_from_slice(&flags.to_le_bytes());
        item.extend_from_slice(&key_len.to_le_bytes());
        item.push((capacity - len) as u8);
        item.extend_from_slice(key);
        item.extend_from_slice(data);
        item.resize(capacity, 0);
        Some(StoredValue(item.into_boxed_slice()))
    }

    /// Client flags.
    pub(crate) fn flags(&self) -> u32 {
        u32::from_le_bytes([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// Where the key ends and the data starts.
    fn data_at(&self) -> usize {
        ITEM_HEADER + usize::from(u16::from_le_bytes([self.0[4], self.0[5]]))
    }

    /// Where the data ends and the pad starts.
    fn data_end(&self) -> usize {
        self.0.len() - usize::from(self.0[6])
    }

    /// The full byte-string key (for exact-match verification).
    pub(crate) fn key(&self) -> &[u8] {
        &self.0[ITEM_HEADER..self.data_at()]
    }

    /// The payload.
    pub(crate) fn data(&self) -> &[u8] {
        &self.0[self.data_at()..self.data_end()]
    }

    /// What the engines charge for the item: key and data bytes.
    fn charge(&self) -> u64 {
        (self.data_end() - ITEM_HEADER) as u64
    }
}

impl Drop for StoredValue {
    /// Gives the buffer to this thread's magazine, which reads its length
    /// from the fat pointer and no byte of the item.
    fn drop(&mut self) {
        let buffer = std::mem::take(&mut self.0);
        let _ = MAGAZINE.try_with(|magazine| magazine.borrow_mut().put(buffer));
    }
}

/// Routes a byte-string key of one tenant to its shard index and 64-bit
/// cache key.
///
/// The key is hashed eight bytes at a time ([`hash_bytes`]). The shard
/// selector re-mixes that hash so that shard membership is decorrelated
/// from the bits the per-shard engines use; non-default tenants fold a
/// per-tenant salt in (the backend-side form of key prefixing) so their key
/// populations spread independently, while the default tenant routes
/// exactly as the single-tenant server did.
pub(crate) fn route_key(tenant: usize, key: &[u8], shards: usize) -> (usize, Key) {
    let hash = hash_bytes(key);
    let salt = if tenant == 0 { 0 } else { mix64(tenant as u64) };
    let index = (mix64(hash ^ salt) % shards as u64) as usize;
    (index, Key::new(hash))
}

/// Splits `total` into weight-proportional integer shares that sum exactly
/// to `total` (the remainder lands on the first share).
pub(crate) fn weighted_split(total: u64, weights: &[u64]) -> Vec<u64> {
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut shares: Vec<u64> = weights
        .iter()
        .map(|&w| ((total as u128 * w as u128) / sum.max(1)) as u64)
        .collect();
    let assigned: u64 = shares.iter().sum();
    shares[0] += total - assigned;
    shares
}

/// Splits `total` into `parts` even integer shares summing exactly to
/// `total` (remainder on the first share).
pub(crate) fn even_split(total: u64, parts: usize) -> Vec<u64> {
    let share = total / parts as u64;
    let mut out = vec![share; parts];
    out[0] += total - share * parts as u64;
    out
}

/// One tenant's cache engine on one shard: a plain slab cache in
/// `Default` mode, a Cliffhanger-managed cache otherwise. The engine has
/// no lock of its own: its shard's lock in `crate::plane` guards it.
pub(crate) enum Engine {
    Plain(Box<SlabCache<StoredValue>>),
    Managed(Box<Cliffhanger<StoredValue>>),
}

impl Engine {
    /// Builds an engine of `config.mode` with a `engine_bytes` budget.
    pub(crate) fn build(config: &BackendConfig, engine_bytes: u64) -> Engine {
        match config.mode {
            BackendMode::Default => Engine::Plain(Box::new(SlabCache::new(SlabCacheConfig {
                slab: SlabConfig::default(),
                total_bytes: engine_bytes,
                policy: PolicyKind::Lru,
                mode: AllocationMode::FirstComeFirstServe { page_size: 1 << 20 },
                shadow_bytes: 0,
                tail_region_items: 0,
            }))),
            BackendMode::HillClimbing | BackendMode::Cliffhanger => {
                let cfg = CliffhangerConfig {
                    slab: SlabConfig::default(),
                    total_bytes: engine_bytes,
                    enable_hill_climbing: true,
                    enable_cliff_scaling: config.mode == BackendMode::Cliffhanger,
                    ..CliffhangerConfig::default()
                };
                Engine::Managed(Box::new(Cliffhanger::new(cfg)))
            }
        }
    }

    /// Installs a decision-event sink on a managed engine (the flight
    /// recorder hook); a plain slab cache makes no decisions to narrate.
    pub(crate) fn set_event_sink(&mut self, sink: Arc<dyn EventSink + Send + Sync>) {
        if let Engine::Managed(cache) = self {
            cache.set_event_sink(sink);
        }
    }

    /// Whether `key` is resident with an exact byte-string match.
    pub(crate) fn contains_exact(&self, id: Key, key: &[u8]) -> bool {
        match self {
            Engine::Plain(cache) => cache.value(id),
            Engine::Managed(cache) => cache.value(id),
        }
        .is_some_and(|stored| stored.key() == key)
    }

    /// One read-only sweep ahead of an operation on `id`: the engine's
    /// (see [`cache_core::prefetch`]) plus, on the item sweep, every line of
    /// the item up to 1 KiB — the stored key a GET compares, then the
    /// payload it copies out, or the copy a write replaces.
    pub(crate) fn prefetch(&self, id: Key, sweep: Sweep) {
        let stored = match self {
            Engine::Plain(cache) => cache.prefetch(id, sweep),
            Engine::Managed(cache) => cache.prefetch(id, sweep),
        };
        if let (Some(stored), Sweep::Item) = (stored, sweep) {
            prefetch::bytes(&stored.0);
        }
    }

    /// A wire-level GET: one probe of the engine's index records the
    /// access (feeding the shadow queues in managed mode) and lends the
    /// stored item, on an exact byte-string match. A 64-bit hash collision
    /// is a miss for the colliding key, never a wrong value.
    pub(crate) fn wire_get(&mut self, id: Key, key: &[u8]) -> Option<&StoredValue> {
        match self {
            Engine::Plain(cache) => cache.lookup(id),
            Engine::Managed(cache) => cache.lookup(id),
        }
        .filter(|stored| stored.key() == key)
    }

    /// A wire-level store: charges `key + data` bytes and admits the item,
    /// which moves into the cache as it is. Returns `false` only if the
    /// item could not be admitted (e.g. larger than the largest slab class).
    pub(crate) fn wire_set(&mut self, id: Key, stored: StoredValue) -> bool {
        let size = stored.charge();
        match self {
            Engine::Plain(cache) => cache
                .set(id, size, stored)
                .map(|(_, r)| r.admitted)
                .unwrap_or(false),
            Engine::Managed(cache) => cache
                .set(id, size, stored)
                .map(|(_, admitted)| admitted)
                .unwrap_or(false),
        }
    }

    /// Deletes `id`; returns whether it was present.
    pub(crate) fn delete(&mut self, id: Key) -> bool {
        match self {
            Engine::Plain(cache) => cache.delete(id),
            Engine::Managed(cache) => cache.delete(id),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        match self {
            Engine::Plain(cache) => cache.stats(),
            Engine::Managed(cache) => cache.stats(),
        }
    }

    /// Grows the engine's total budget (managed engines only; a plain slab
    /// cache has no dynamic-budget path and is never rebalanced).
    pub(crate) fn grow_total(&mut self, bytes: u64) {
        if let Engine::Managed(cache) = self {
            cache.grow_total(bytes);
        }
    }

    /// Releases `bytes` of the engine's budget, evicting as needed, but
    /// never all of it: a managed engine is built on a byte and keeps one.
    /// Returns whether the release happened.
    pub(crate) fn shrink_total(&mut self, bytes: u64) -> bool {
        match self {
            Engine::Plain(_) => false,
            Engine::Managed(cache) => bytes < cache.total_bytes() && cache.shrink_total(bytes),
        }
    }

    pub(crate) fn used_bytes(&self) -> u64 {
        match self {
            Engine::Plain(cache) => cache.used_bytes(),
            Engine::Managed(cache) => cache.used_bytes(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Engine::Plain(cache) => cache.len(),
            Engine::Managed(cache) => cache.len(),
        }
    }

    /// Heap bytes of the engine's index, queue arenas and shadows.
    pub(crate) fn footprint(&self) -> Footprint {
        match self {
            Engine::Plain(cache) => cache.footprint(),
            Engine::Managed(cache) => cache.footprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn item(key: &[u8], data: &[u8]) -> StoredValue {
        StoredValue::new(key, 0, data).expect("a short key")
    }

    /// Key, flags, data and charge come back exactly as they went in.
    fn gives_back(item: &StoredValue, key: &[u8], flags: u32, data: &[u8]) {
        assert_eq!(item.key(), key);
        assert_eq!(item.flags(), flags);
        assert_eq!(item.data(), data);
        assert_eq!(item.charge(), (key.len() + data.len()) as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the key (non-UTF-8 included), flags and data, the one
        /// buffer hands each back as it came and charges key plus data —
        /// in a fresh buffer, and again in one a larger item of its class
        /// left behind, whose last bytes it must not show as data.
        #[test]
        fn an_item_gives_back_its_key_flags_and_data(
            key in prop_oneof![vec(any::<u8>(), 1..40usize), vec(any::<u8>(), 1..8_193usize)],
            flags in any::<u32>(),
            data in prop_oneof![vec(any::<u8>(), 0..600usize), vec(any::<u8>(), 0..70_001usize)],
        ) {
            MAGAZINE.with(|magazine| *magazine.borrow_mut() = Magazine::new());
            let len = ITEM_HEADER + key.len() + data.len();
            let item = StoredValue::new(&key, flags, &data).expect("the header holds the length");
            gives_back(&item, &key, flags, &data);
            prop_assert_eq!(item.0.len(), magazine::capacity(len));

            // The largest item of the class, which fills the buffer, then
            // the same item again in the buffer it leaves.
            let larger = vec![0xA5; data.len() + item.0.len() - len];
            drop(item);
            let left = StoredValue::new(&key, !flags, &larger).expect("same key");
            let at = left.0.as_ptr();
            drop(left);
            let item = StoredValue::new(&key, flags, &data).expect("the header holds the length");
            if item.0.len() <= 8 << 10 {
                prop_assert_eq!(item.0.as_ptr(), at, "the larger item's buffer is reused");
            }
            gives_back(&item, &key, flags, &data);
        }
    }

    /// The item is one pointer and a length in the index entry, its buffer
    /// the chunk's usable size with the pad counted in the header; a key
    /// the header's `u16` cannot count is refused, not truncated.
    #[test]
    fn an_item_is_one_box_and_refuses_a_key_it_cannot_count() {
        assert_eq!(
            std::mem::size_of::<StoredValue>(),
            std::mem::size_of::<Box<[u8]>>()
        );
        for data_len in 0..=40 {
            let stored = item(b"k", &vec![b'v'; data_len]);
            let len = ITEM_HEADER + 1 + data_len;
            assert_eq!(stored.0.len(), magazine::capacity(len), "{data_len}");
            assert_eq!(usize::from(stored.0[6]), stored.0.len() - len, "{data_len}");
        }
        let longest = vec![b'k'; usize::from(u16::MAX)];
        assert_eq!(item(&longest, b"v").key(), &longest[..]);
        assert!(StoredValue::new(&[b'k'; 1 << 16], 0, b"v").is_none());

        // Dropped on a thread that never built an item (one that evicts
        // what others built), the buffer is freed, not kept there.
        let built = item(b"k", b"v");
        let capacity = built.0.len();
        let kept = std::thread::spawn(move || {
            drop(built);
            MAGAZINE.with(|magazine| magazine.borrow_mut().take(capacity))
        });
        assert!(kept.join().expect("the dropping thread").is_none());
    }

    /// Two byte-string keys forced onto one 64-bit [`Key`]. The engine's
    /// index is keyed by the hash, so the pair shares one slot: the later
    /// write replaces the earlier item — as an eviction would — and the
    /// displaced key reads as a miss, never as the other key's bytes.
    #[test]
    fn colliding_keys_share_one_slot_and_never_each_others_bytes() {
        for mode in [BackendMode::Default, BackendMode::Cliffhanger] {
            let config = BackendConfig {
                mode,
                ..BackendConfig::default()
            };
            let mut engine = Engine::build(&config, 8 << 20);
            let id = Key::new(0xC0111DE);
            assert!(engine.wire_set(id, item(b"first", b"one")));
            let charged = engine.used_bytes();
            assert!(engine.wire_set(id, item(b"second", b"two")));
            assert_eq!(engine.len(), 1, "{mode:?}: one slot");
            assert_eq!(engine.used_bytes(), charged + 1, "{mode:?}: charged once");
            assert!(engine.wire_get(id, b"first").is_none(), "{mode:?}");
            assert!(!engine.contains_exact(id, b"first"), "{mode:?}");
            let found = engine.wire_get(id, b"second").expect("the later write");
            assert_eq!(found.data(), b"two", "{mode:?}");
            assert!(engine.contains_exact(id, b"second"), "{mode:?}");
            // Both lookups reached the slot: the engine saw two GETs and two
            // hits, the wire one hit (the caller counts exact matches).
            assert_eq!(engine.stats().hits, 2, "{mode:?}");
            assert!(engine.delete(id));
            assert_eq!((engine.len(), engine.used_bytes()), (0, 0), "{mode:?}");
        }
    }
}
