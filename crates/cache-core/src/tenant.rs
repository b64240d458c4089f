//! The tenant name table of a multi-tenant cache server.
//!
//! Memcachier hosts many applications on every server (paper §3); the server
//! crate gives each one its own engines and byte budget, indexed by the dense
//! positions a [`TenantDirectory`] hands out.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_defaults_and_lookup() {
        let d = TenantDirectory::default();
        assert_eq!(d.len(), 1);
        assert_eq!(d.index_of(DEFAULT_TENANT), Some(0));
        assert_eq!(d.name(0), "default");

        let d = TenantDirectory::from_names(&["alpha", "beta", "alpha"]);
        assert_eq!(d.len(), 3, "duplicates collapse");
        assert_eq!(d.index_of("default"), Some(0));
        assert_eq!(d.index_of("alpha"), Some(1));
        assert_eq!(d.index_of("beta"), Some(2));
        assert_eq!(d.index_of("gamma"), None);
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
}
