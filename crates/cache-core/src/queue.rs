//! A physical cache queue: an eviction policy, the stored values, a byte
//! budget and an attached shadow queue.
//!
//! [`CacheQueue`] is the unit the allocation algorithms reason about — one
//! per slab class (or one per application when optimizing across
//! applications). It charges each item `size + ITEM_OVERHEAD` bytes against
//! its `target_bytes` budget, evicts according to its policy when over
//! budget, and records evicted keys in its shadow queue so that later misses
//! can be classified as "would have hit with more memory".

use crate::key::{Key, KeyMap};
use crate::lru::HitLocation;
use crate::policy::{EvictionPolicy, PolicyKind};
use crate::shadow::{ShadowHit, ShadowQueue};
use crate::stats::CacheStats;
use crate::ITEM_OVERHEAD;

/// Configuration of a [`CacheQueue`].
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Eviction policy for the physical queue.
    pub policy: PolicyKind,
    /// Byte budget (values + per-item overhead).
    pub target_bytes: u64,
    /// Size of the tail region in items (0 disables tail classification).
    pub tail_region_items: usize,
    /// Capacity of the attached shadow queue in keys (0 disables it).
    pub shadow_capacity: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            policy: PolicyKind::Lru,
            target_bytes: 1 << 20,
            tail_region_items: 0,
            shadow_capacity: 0,
        }
    }
}

impl QueueConfig {
    /// Convenience constructor for an LRU queue with the given byte budget.
    pub fn lru(target_bytes: u64) -> Self {
        QueueConfig {
            target_bytes,
            ..QueueConfig::default()
        }
    }
}

/// Outcome of a GET against a [`CacheQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GetResult {
    /// Whether the key was resident in the physical queue.
    pub hit: bool,
    /// Where the hit landed (only for policies with tail-region support).
    pub location: Option<HitLocation>,
    /// If the request missed the physical queue, whether it hit the shadow
    /// queue and in which half.
    pub shadow_hit: Option<ShadowHit>,
}

impl GetResult {
    /// A miss that also missed the shadow queue.
    pub fn cold_miss() -> Self {
        GetResult {
            hit: false,
            location: None,
            shadow_hit: None,
        }
    }
}

/// Outcome of a SET against a [`CacheQueue`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SetResult {
    /// Whether the item was admitted (false only if it alone exceeds the
    /// queue's byte budget and `admit_oversized` is off).
    pub admitted: bool,
    /// Keys evicted from the physical queue to make room.
    pub evicted: Vec<Key>,
}

/// A physical cache queue with values, a byte budget and a shadow queue.
#[derive(Debug)]
pub struct CacheQueue<V> {
    policy: Box<dyn EvictionPolicy>,
    values: KeyMap<V>,
    shadow: ShadowQueue,
    target_bytes: u64,
    stats: CacheStats,
}

impl<V> CacheQueue<V> {
    /// Creates a queue from its configuration.
    pub fn new(config: QueueConfig) -> Self {
        let mut policy = config.policy.build();
        if config.tail_region_items > 0 {
            policy.set_tail_region(config.tail_region_items);
        }
        CacheQueue {
            policy,
            values: KeyMap::default(),
            shadow: ShadowQueue::new(config.shadow_capacity),
            target_bytes: config.target_bytes,
            stats: CacheStats::new(),
        }
    }

    /// The memory charge of an item of `size` bytes.
    pub fn charge(size: u64) -> u64 {
        size + ITEM_OVERHEAD
    }

    /// Looks up `key`, updating recency, the shadow queue and statistics.
    pub fn get(&mut self, key: Key) -> GetResult {
        let location = self.policy.access(key);
        let hit = location.is_some();
        let shadow_hit = if hit {
            None
        } else {
            self.policy.on_miss(key);
            self.shadow.probe(key)
        };
        self.stats.record_get(hit);
        if shadow_hit.is_some() {
            self.stats.shadow_hits += 1;
        }
        GetResult {
            hit,
            location,
            shadow_hit,
        }
    }

    /// Returns the stored value without affecting recency or statistics.
    pub fn value(&self, key: Key) -> Option<&V> {
        self.values.get(&key)
    }

    /// Inserts `key` with a payload of `size` bytes, evicting items as needed
    /// to stay within the byte budget.
    pub fn set(&mut self, key: Key, size: u64, value: V) -> SetResult {
        self.stats.record_set();
        let charge = Self::charge(size);
        if charge > self.target_bytes {
            // The item alone exceeds the budget; do not admit it (Memcached
            // would fail the store with SERVER_ERROR object too large).
            // Remove any stale copy so we do not serve an outdated value.
            self.policy.remove(key);
            self.values.remove(&key);
            return SetResult {
                admitted: false,
                evicted: Vec::new(),
            };
        }
        self.policy.insert(key, charge);
        self.values.insert(key, value);
        // The key is now resident; it must not linger in the shadow queue.
        self.shadow.remove(key);
        let evicted = self.evict_to_target();
        SetResult {
            admitted: true,
            evicted,
        }
    }

    /// Removes `key` from the physical queue (but not the shadow queue).
    pub fn delete(&mut self, key: Key) -> bool {
        let removed = self.policy.remove(key).is_some();
        self.values.remove(&key);
        removed
    }

    /// Evicts items until the queue fits its byte budget; returns the evicted
    /// keys (they are recorded in the shadow queue).
    pub fn evict_to_target(&mut self) -> Vec<Key> {
        let mut evicted = Vec::new();
        while self.policy.total_weight() > self.target_bytes {
            match self.policy.evict() {
                Some((key, _)) => {
                    self.values.remove(&key);
                    self.shadow.insert(key);
                    evicted.push(key);
                }
                None => break,
            }
        }
        self.stats.record_evictions(evicted.len() as u64);
        evicted
    }

    /// Current byte budget.
    pub fn target_bytes(&self) -> u64 {
        self.target_bytes
    }

    /// Changes the byte budget. Shrinking does **not** evict immediately —
    /// eviction happens lazily on the next insertion (the paper resizes
    /// queues only on misses to avoid thrashing, §5.1). Call
    /// [`CacheQueue::evict_to_target`] to enforce the new budget eagerly.
    pub fn set_target_bytes(&mut self, bytes: u64) {
        self.target_bytes = bytes;
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> u64 {
        self.policy.total_weight()
    }

    /// Number of resident items.
    pub fn len(&self) -> usize {
        self.policy.len()
    }

    /// Whether the queue has no resident items.
    pub fn is_empty(&self) -> bool {
        self.policy.is_empty()
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: Key) -> bool {
        self.policy.contains(key)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// The attached shadow queue.
    pub fn shadow(&self) -> &ShadowQueue {
        &self.shadow
    }

    /// Mutable access to the attached shadow queue (used by allocators that
    /// resize shadow queues together with their physical queues).
    pub fn shadow_mut(&mut self) -> &mut ShadowQueue {
        &mut self.shadow
    }

    /// Reconfigures the tail region of the physical queue.
    pub fn set_tail_region(&mut self, items: usize) {
        self.policy.set_tail_region(items);
    }

    /// Whether the underlying policy supports tail-region classification.
    pub fn supports_tail_region(&self) -> bool {
        self.policy.supports_tail_region()
    }

    /// The policy kind backing this queue.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    fn queue(target_bytes: u64, shadow: usize) -> CacheQueue<()> {
        CacheQueue::new(QueueConfig {
            policy: PolicyKind::Lru,
            target_bytes,
            tail_region_items: 0,
            shadow_capacity: shadow,
        })
    }

    #[test]
    fn get_miss_then_set_then_hit() {
        let mut q = queue(10_000, 0);
        assert_eq!(q.get(key(1)), GetResult::cold_miss());
        let set = q.set(key(1), 100, ());
        assert!(set.admitted);
        assert!(set.evicted.is_empty());
        let got = q.get(key(1));
        assert!(got.hit);
        assert_eq!(q.stats().gets, 2);
        assert_eq!(q.stats().hits, 1);
        assert_eq!(q.stats().misses, 1);
        assert_eq!(q.stats().sets, 1);
    }

    #[test]
    fn byte_budget_is_enforced() {
        // Each item charges 100 + 48 = 148 bytes; budget fits 4 items.
        let mut q = queue(600, 0);
        for i in 0..10 {
            q.set(key(i), 100, ());
        }
        assert!(q.used_bytes() <= 600);
        assert_eq!(q.len(), 4);
        // The oldest items were evicted.
        assert!(!q.contains(key(0)));
        assert!(q.contains(key(9)));
        assert_eq!(q.stats().evictions, 6);
    }

    #[test]
    fn evicted_keys_land_in_shadow_queue() {
        let mut q = queue(600, 100);
        for i in 0..10 {
            q.set(key(i), 100, ());
        }
        // Key 0 was evicted; a GET on it must report a shadow hit.
        let result = q.get(key(0));
        assert!(!result.hit);
        assert!(result.shadow_hit.is_some());
        assert_eq!(q.stats().shadow_hits, 1);
        // A completely cold key misses both.
        assert_eq!(q.get(key(77)), GetResult::cold_miss());
    }

    #[test]
    fn oversized_items_are_rejected() {
        let mut q = queue(100, 0);
        let res = q.set(key(1), 1_000, ());
        assert!(!res.admitted);
        assert!(!q.contains(key(1)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn oversized_overwrite_drops_stale_value() {
        let mut q = queue(1_000, 0);
        q.set(key(1), 100, ());
        assert!(q.contains(key(1)));
        // An update that no longer fits must not leave the old value behind.
        let res = q.set(key(1), 5_000, ());
        assert!(!res.admitted);
        assert!(!q.contains(key(1)));
        assert!(q.value(key(1)).is_none());
    }

    #[test]
    fn shrinking_budget_is_lazy_then_enforced() {
        let mut q = queue(10_000, 0);
        for i in 0..10 {
            q.set(key(i), 100, ());
        }
        let before = q.len();
        q.set_target_bytes(500);
        assert_eq!(q.len(), before, "shrinking must not evict immediately");
        let evicted = q.evict_to_target();
        assert!(!evicted.is_empty());
        assert!(q.used_bytes() <= 500);
    }

    #[test]
    fn values_are_stored_and_deleted() {
        let mut q: CacheQueue<String> = CacheQueue::new(QueueConfig::lru(10_000));
        q.set(key(1), 10, "hello".to_string());
        assert_eq!(q.value(key(1)).map(String::as_str), Some("hello"));
        assert!(q.delete(key(1)));
        assert!(!q.delete(key(1)));
        assert!(q.value(key(1)).is_none());
    }

    #[test]
    fn set_removes_key_from_shadow_queue() {
        let mut q = queue(600, 100);
        for i in 0..10 {
            q.set(key(i), 100, ());
        }
        assert!(q.shadow().contains(key(0)));
        q.set(key(0), 100, ());
        assert!(
            !q.shadow().contains(key(0)),
            "a resident key must not also be in the shadow queue"
        );
    }

    #[test]
    fn updating_an_item_does_not_double_charge() {
        let mut q = queue(10_000, 0);
        q.set(key(1), 100, ());
        let used = q.used_bytes();
        q.set(key(1), 100, ());
        assert_eq!(q.used_bytes(), used);
        q.set(key(1), 200, ());
        assert_eq!(q.used_bytes(), used + 100);
    }

    #[test]
    fn tail_region_classification_flows_through() {
        let mut q: CacheQueue<()> = CacheQueue::new(QueueConfig {
            policy: PolicyKind::Lru,
            target_bytes: 1 << 20,
            tail_region_items: 2,
            shadow_capacity: 0,
        });
        for i in 0..6 {
            q.set(key(i), 100, ());
        }
        assert_eq!(q.get(key(0)).location, Some(HitLocation::TailRegion));
        assert_eq!(q.get(key(5)).location, Some(HitLocation::Main));
        assert!(q.supports_tail_region());
    }

    #[test]
    fn works_with_every_policy_kind() {
        for kind in [PolicyKind::Lru, PolicyKind::Facebook, PolicyKind::Arc] {
            let mut q: CacheQueue<()> = CacheQueue::new(QueueConfig {
                policy: kind,
                target_bytes: 2_000,
                tail_region_items: 0,
                shadow_capacity: 16,
            });
            for i in 0..50 {
                q.get(key(i % 20));
                q.set(key(i % 20), 64, ());
            }
            assert!(q.used_bytes() <= 2_000, "budget violated for {kind:?}");
            assert!(!q.is_empty());
            assert_eq!(q.policy_kind(), kind);
        }
    }
}
