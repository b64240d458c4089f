//! Compact cache keys and identifiers.
//!
//! Traces and the simulation path address items by a 64-bit [`Key`]; the TCP
//! server interns byte-string keys into [`Key`]s with [`hash_bytes`] plus an
//! exact-match side table (see the `cache-server` crate).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A cache key: an opaque 64-bit identifier.
///
/// Keys are cheap to copy and hash; equality is exact (the substrate never
/// conflates two distinct `Key` values).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Key(pub u64);

impl Key {
    /// Creates a key from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Key(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:#x})", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Key {
    fn from(raw: u64) -> Self {
        Key(raw)
    }
}

/// The hasher of the [`Key`]-keyed maps: one multiply and one xor-shift.
///
/// A `Key` is already a hash (FNV-1a of the byte-string key on the server,
/// `mix64` of a counter in the generators), so running it through SipHash
/// on every index probe buys nothing. It is not used as it is either:
/// FNV-1a's high bits are weak, and hashbrown takes its control byte from
/// the top seven bits and the bucket from the low ones, so the multiply
/// spreads every input bit upwards and the shift folds the strong half back
/// down. Unlike SipHash this is not keyed: a client that chooses its keys
/// can aim them at one bucket chain, as it can in Memcached itself.
#[derive(Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, value: u64) {
        #[cfg(any(test, debug_assertions))]
        probes::HASHED.with(|count| count.set(count.get() + 1));
        let h = (self.0 ^ value).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counts the keys this thread has hashed for a [`KeyMap`], so tests can
/// hold an operation to a number of index probes instead of timing it.
/// Compiled into test and debug builds only; a release build hashes and
/// counts nothing.
#[cfg(any(test, debug_assertions))]
#[doc(hidden)]
pub mod probes {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HASHED: Cell<u64> = const { Cell::new(0) };
    }

    /// How many keys `run` hashed on this thread.
    pub fn hashed_by<T>(run: impl FnOnce() -> T) -> (u64, T) {
        let before = HASHED.with(Cell::get);
        let out = run();
        (HASHED.with(Cell::get) - before, out)
    }
}

/// A `HashMap` keyed by [`Key`] and hashed with [`KeyHasher`]. Nothing may
/// depend on its iteration order.
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// Identifier of an application (tenant) sharing a cache server.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize, Default,
)]
pub struct AppId(pub u32);

impl AppId {
    /// Creates an application id.
    pub const fn new(raw: u32) -> Self {
        AppId(raw)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Identifier of a slab class within an application's cache.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize, Default,
)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Creates a slab-class id.
    pub const fn new(raw: u32) -> Self {
        ClassId(raw)
    }

    /// Returns the class index as a usize (for indexing per-class vectors).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab{}", self.0)
    }
}

/// Hashes an arbitrary byte string to a 64-bit key value using the FNV-1a
/// function.
///
/// This is used by the TCP server to map textual Memcached keys onto the
/// compact [`Key`] space. FNV-1a is not collision-free; callers that need
/// exact semantics (the server does) must keep the original byte key and
/// verify it on lookup.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Mixes a 64-bit value (SplitMix64 finalizer); used to derive well-spread
/// key ids from sequential counters in workload generators.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_roundtrip() {
        let k = Key::new(42);
        assert_eq!(k.raw(), 42);
        assert_eq!(Key::from(42u64), k);
        assert_eq!(format!("{k}"), "0x2a");
    }

    #[test]
    fn hash_bytes_is_deterministic() {
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
        assert_ne!(hash_bytes(b"hello"), hash_bytes(b"world"));
    }

    #[test]
    fn hash_bytes_empty_is_offset_basis() {
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn mix64_spreads_sequential_inputs() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(mix64(i));
        }
        assert_eq!(seen.len(), 10_000, "mix64 collided on sequential inputs");
    }

    #[test]
    fn key_hasher_spreads_fnv_keys_over_both_ends_of_the_hash() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let (mut top, mut low) = (HashSet::new(), HashSet::new());
        for i in 0..4096u32 {
            let hash = build.hash_one(Key::new(hash_bytes(format!("key:{i}").as_bytes())));
            top.insert(hash >> 57);
            low.insert(hash & 0xfff);
        }
        // hashbrown's control byte (top 7 bits) and bucket index (low bits).
        assert_eq!(top.len(), 128);
        assert!(low.len() > 2400, "{} of 4096 low-bit patterns", low.len());
        let mut map = KeyMap::default();
        map.insert(Key::new(7), "seven");
        assert_eq!(map.get(&Key::new(7)), Some(&"seven"));
    }

    #[test]
    fn ids_display() {
        assert_eq!(AppId::new(3).to_string(), "app3");
        assert_eq!(ClassId::new(9).to_string(), "slab9");
        assert_eq!(ClassId::new(9).index(), 9);
    }

    /// The engines' lookup cost, as a count of keys hashed for a `KeyMap`
    /// (the engine's one index plus the key-only shadow indexes): counts,
    /// so they hold on any host and fail on the first extra probe.
    mod probe_counts {
        use super::super::probes::hashed_by;
        use super::*;
        use crate::store::AllocationMode;
        use crate::{GlobalLruCache, SlabCache, SlabCacheConfig};

        /// A managed slab cache whose 64-byte class fits 4 items of 60 or
        /// 61 bytes; with `shadow_bytes` every class queue has a shadow.
        fn slab_cache(shadow_bytes: u64) -> SlabCache<u64> {
            let mut cache = SlabCache::new(SlabCacheConfig {
                mode: AllocationMode::Managed,
                shadow_bytes,
                ..SlabCacheConfig::default()
            });
            let class = cache.class_for_size(60).unwrap();
            cache.set_class_target(class, 4 * (61 + crate::ITEM_OVERHEAD));
            cache
        }

        #[test]
        fn a_resident_get_hashes_one_key() {
            for shadow_bytes in [0, 1 << 20] {
                let mut cache = slab_cache(shadow_bytes);
                cache.set(Key::new(1), 60, 10);
                assert_eq!(hashed_by(|| cache.get_untyped(Key::new(1))).0, 1);
                assert_eq!(hashed_by(|| cache.get(Key::new(1), 60)).0, 1);
                assert_eq!(
                    hashed_by(|| cache.lookup(Key::new(1)).copied()),
                    (1, Some(10))
                );
                assert_eq!(
                    hashed_by(|| cache.value(Key::new(1)).copied()),
                    (1, Some(10))
                );
            }
            let mut global: GlobalLruCache<u64> = GlobalLruCache::new(1 << 20);
            global.set(Key::new(1), 60, 10);
            assert_eq!(hashed_by(|| global.get(Key::new(1)).hit), (1, true));
        }

        #[test]
        fn a_prefetch_hashes_one_key_and_what_follows_it_what_it_did() {
            use crate::prefetch::Sweep;
            let mut cache = slab_cache(0);
            let large = cache.class_for_size(5_000).unwrap();
            cache.set_class_target(large, 1 << 20);
            cache.set(Key::new(0), 5_000, 0);
            for key in 1..5 {
                cache.set(Key::new(key), 60, 10);
            }
            // The sweeps: one probe each, resident key or not.
            let sweeps = |cache: &SlabCache<u64>, key| {
                for sweep in [Sweep::Item, Sweep::Neighbours] {
                    let (hashed, lent) =
                        hashed_by(|| cache.prefetch(Key::new(key), sweep).copied());
                    assert_eq!((hashed, lent), (1, cache.value(Key::new(key)).copied()));
                }
            };
            // A hit, an overwrite and an evicting write behind them cost
            // what the tests around this one hold them to without.
            sweeps(&cache, 1);
            assert_eq!(
                hashed_by(|| cache.lookup(Key::new(1)).copied()),
                (1, Some(10))
            );
            sweeps(&cache, 2);
            assert_eq!(hashed_by(|| cache.set(Key::new(2), 61, 11)).0, 2);
            sweeps(&cache, 9);
            let (hashed, (_, result)) = hashed_by(|| cache.set(Key::new(9), 60, 10).unwrap());
            assert_eq!((hashed, result.evicted.len()), (3, 1));
        }

        #[test]
        fn a_miss_hashes_the_index_and_the_shadow_indexes_it_consults() {
            // No shadow queues (the server's plain engine): the index only.
            let mut plain = slab_cache(0);
            plain.set(Key::new(1), 60, 10);
            assert_eq!(
                hashed_by(|| plain.get_untyped(Key::new(2)).result.hit),
                (1, false)
            );
            assert_eq!(hashed_by(|| plain.get(Key::new(2), 60)).0, 1);
            // With them: every class's shadow is asked where the key went,
            // then the chosen class's is probed — but an empty one is
            // never hashed for.
            let mut shadowed = slab_cache(1 << 20);
            shadowed.set(Key::new(1), 60, 10);
            assert_eq!(hashed_by(|| shadowed.get_untyped(Key::new(2))).0, 1);
            for key in 2..10 {
                shadowed.set(Key::new(key), 60, 10);
            }
            let (hashed, got) = hashed_by(|| shadowed.get_untyped(Key::new(1)));
            assert!(got.result.shadow_hit.is_some());
            assert_eq!(hashed, 3, "the index, one shadow's `contains`, its `probe`");
        }

        #[test]
        fn a_write_hashes_two_keys_and_one_per_eviction() {
            let mut cache = slab_cache(0);
            // (An empty table answers without hashing; keep one item in
            // another class so every count below is of a real probe.)
            let large = cache.class_for_size(5_000).unwrap();
            cache.set_class_target(large, 1 << 20);
            cache.set(Key::new(0), 5_000, 0);
            // New key: the lookup that finds nothing, the insert.
            assert_eq!(hashed_by(|| cache.set(Key::new(1), 60, 10)).0, 2);
            // Overwrite in the same class: the lookup, the replacing insert.
            assert_eq!(hashed_by(|| cache.set(Key::new(1), 61, 11)).0, 2);
            for key in 2..5 {
                cache.set(Key::new(key), 60, 10);
            }
            // A full class: each evicted key costs its removal from the
            // index and nothing else.
            let (hashed, (_, result)) = hashed_by(|| cache.set(Key::new(9), 60, 10).unwrap());
            assert_eq!(result.evicted, vec![Key::new(1)]);
            assert_eq!(hashed, 3);
            let (hashed, evicted) = hashed_by(|| {
                cache.set_class_target(cache.class_of(Key::new(9)).unwrap(), 0);
                cache.enforce_targets()
            });
            assert_eq!((hashed, evicted), (5, 4), "`class_of` and four removals");
            assert_eq!(hashed_by(|| cache.delete(Key::new(9))).0, 1);
            // With a shadow queue behind the class an overwrite adds that
            // index: the key must not linger there once it is resident.
            let mut shadowed = slab_cache(1 << 20);
            for key in 1..10 {
                shadowed.set(Key::new(key), 60, 10);
            }
            assert!(hashed_by(|| shadowed.set(Key::new(9), 61, 11)).0 <= 2 + 1);
        }
    }
}
