//! The log-structured-memory model: a single global LRU queue.
//!
//! RAMCloud-style log-structured memory (LSM) stores items contiguously in a
//! log rather than in slab classes, which lets the cache run one global LRU
//! queue at (ideally) 100% memory utilisation (paper §3.2, Table 2). The
//! paper simulates exactly that idealised model — a global LRU with no
//! fragmentation — and so do we.

use crate::key::{Key, KeyMap};
use crate::list::NodeHandle;
use crate::queue::{CacheQueue, GetResult, QueueConfig, SetResult};
use crate::stats::CacheStats;

/// A cache with a single global eviction queue over bytes: one index from
/// key to (queue handle, value) over one [`CacheQueue`].
#[derive(Debug)]
pub struct GlobalLruCache<V> {
    queue: CacheQueue,
    index: KeyMap<(NodeHandle, V)>,
}

impl<V> GlobalLruCache<V> {
    /// Creates a global-LRU cache with the given byte budget.
    pub fn new(total_bytes: u64) -> Self {
        Self::with_config(QueueConfig::lru(total_bytes))
    }

    /// Creates a global cache over a queue of any configuration.
    pub fn with_config(config: QueueConfig) -> Self {
        GlobalLruCache {
            queue: CacheQueue::new(config),
            index: KeyMap::default(),
        }
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: Key) -> GetResult {
        match self.index.get(&key) {
            Some(&(handle, _)) => self.queue.hit(handle),
            None => self.queue.miss(key),
        }
    }

    /// Stores `key` with a payload of `size` bytes.
    pub fn set(&mut self, key: Key, size: u64, value: V) -> SetResult {
        let old = self.index.get(&key).map(|&(handle, _)| handle);
        let result = self.queue.set_collecting(key, size, old);
        for evicted in &result.evicted {
            self.index.remove(evicted);
        }
        match result.handle {
            // Overwrites the old entry where it stands.
            Some(handle) => drop(self.index.insert(key, (handle, value))),
            // Turned away, or evicted by its own insertion: either way the
            // copy it replaced is gone too.
            None => drop(self.index.remove(&key)),
        }
        result
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: Key) -> bool {
        match self.index.remove(&key) {
            Some((handle, _)) => {
                self.queue.remove(handle);
                true
            }
            None => false,
        }
    }

    /// Stored value for `key`.
    pub fn value(&self, key: Key) -> Option<&V> {
        self.index.get(&key).map(|(_, value)| value)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.queue.stats()
    }

    /// Bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.queue.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    #[test]
    fn large_and_small_items_share_one_queue() {
        let mut c: GlobalLruCache<()> = GlobalLruCache::new(10_000);
        c.set(key(1), 4_000, ());
        c.set(key(2), 100, ());
        c.set(key(3), 100, ());
        assert!(c.get(key(1)).hit);
        assert!(c.get(key(2)).hit);
        // A single large insertion can push out many small ones — the
        // behaviour the paper attributes to global LRU queues (§3.2).
        c.set(key(4), 9_000, ());
        assert!(c.get(key(4)).hit);
        assert!(!c.get(key(3)).hit, "small items evicted by the large one");
        assert!(c.used_bytes() <= 10_000);
    }

    #[test]
    fn utilisation_reaches_budget() {
        let mut c: GlobalLruCache<()> = GlobalLruCache::new(100_000);
        for i in 0..10_000 {
            c.set(key(i), 52, ()); // charge = 100 bytes
        }
        assert_eq!(c.index.len(), 1_000);
        assert_eq!(c.used_bytes(), 100_000);
    }

    #[test]
    fn works_with_facebook_policy() {
        let mut c: GlobalLruCache<()> = GlobalLruCache::with_config(QueueConfig {
            policy: crate::PolicyKind::Facebook,
            ..QueueConfig::lru(5_000)
        });
        for i in 0..100 {
            c.set(key(i), 52, ());
        }
        assert!(c.used_bytes() <= 5_000);
        assert!(!c.index.is_empty());
    }

    #[test]
    fn shadow_queue_reports_near_misses() {
        let mut c: GlobalLruCache<()> = GlobalLruCache::with_config(QueueConfig {
            shadow_capacity: 64,
            ..QueueConfig::lru(1_000)
        });
        for i in 0..50 {
            c.set(key(i), 52, ());
        }
        // Early keys were evicted; they should register as shadow hits.
        let res = c.get(key(0));
        assert!(!res.hit);
        assert!(res.shadow_hit);
    }

    #[test]
    fn delete_and_value() {
        let mut c: GlobalLruCache<u32> = GlobalLruCache::new(1_000);
        c.set(key(1), 10, 99);
        assert_eq!(c.value(key(1)), Some(&99));
        assert!(c.delete(key(1)));
        assert!(c.value(key(1)).is_none());
        assert!(c.index.is_empty());
    }
}
