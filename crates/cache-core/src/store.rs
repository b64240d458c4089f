//! A slab-structured cache for a single application.
//!
//! [`SlabCache`] reproduces Memcached's memory organisation: items are
//! grouped into slab classes by size and each class has its own eviction
//! queue (paper §2). Two allocation modes are supported:
//!
//! * [`AllocationMode::FirstComeFirstServe`] — Memcached's default. Slab
//!   classes claim memory pages greedily as requests arrive; once the
//!   application's reservation is exhausted, a class that needs room evicts
//!   from *its own* queue. This is the baseline the paper improves on.
//! * [`AllocationMode::Managed`] — per-class byte targets are set externally
//!   (by the Dynacache solver, by Cliffhanger's hill climbing, or by a static
//!   plan); the cache only enforces them.

use crate::key::{ClassId, Key, KeyMap};
use crate::policy::PolicyKind;
use crate::queue::{CacheQueue, GetResult, QueueConfig, SetResult};
use crate::slab::SlabConfig;
use crate::stats::CacheStats;

/// How the application's memory is divided among its slab classes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AllocationMode {
    /// Memcached's default: classes greedily claim pages of `page_size`
    /// bytes until the reservation is exhausted, then evict from their own
    /// queue.
    FirstComeFirstServe {
        /// Page granularity of slab growth (Memcached uses 1 MB pages).
        page_size: u64,
    },
    /// Per-class targets are maintained by an external allocator through
    /// [`SlabCache::set_class_target`].
    Managed,
}

impl Default for AllocationMode {
    fn default() -> Self {
        AllocationMode::FirstComeFirstServe { page_size: 1 << 20 }
    }
}

/// Configuration of a [`SlabCache`].
#[derive(Clone, Debug)]
pub struct SlabCacheConfig {
    /// Slab-class geometry.
    pub slab: SlabConfig,
    /// Total memory reserved by the application, in bytes.
    pub total_bytes: u64,
    /// Eviction policy used by every class queue.
    pub policy: PolicyKind,
    /// Allocation mode.
    pub mode: AllocationMode,
    /// Per-class shadow-queue capacity expressed in bytes of simulated
    /// requests; the per-class entry count is `shadow_bytes / chunk_size`
    /// (the paper's 1 MB shadow queues, §5.3). 0 disables shadow queues.
    pub shadow_bytes: u64,
    /// Tail region in items for policies that support it (0 disables).
    pub tail_region_items: usize,
}

impl Default for SlabCacheConfig {
    fn default() -> Self {
        SlabCacheConfig {
            slab: SlabConfig::default(),
            total_bytes: 64 << 20,
            policy: PolicyKind::Lru,
            mode: AllocationMode::default(),
            shadow_bytes: 0,
            tail_region_items: 0,
        }
    }
}

/// Outcome of a GET against a [`SlabCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabGetResult {
    /// The slab class the request was routed to.
    pub class: ClassId,
    /// The per-queue outcome.
    pub result: GetResult,
}

/// A slab-structured single-application cache.
#[derive(Debug)]
pub struct SlabCache<V> {
    config: SlabCacheConfig,
    queues: Vec<CacheQueue<V>>,
    /// Bytes of the reservation granted to each class (FCFS mode only).
    granted: Vec<u64>,
    /// Class of each resident key (needed to serve GETs without a size hint).
    resident_class: KeyMap<ClassId>,
    stats: CacheStats,
}

impl<V> SlabCache<V> {
    /// Creates a cache from its configuration.
    pub fn new(config: SlabCacheConfig) -> Self {
        let num_classes = config.slab.num_classes();
        let mut queues = Vec::with_capacity(num_classes);
        for class in 0..num_classes as u32 {
            let chunk = config.slab.chunk_size(ClassId::new(class));
            let shadow_capacity = if config.shadow_bytes == 0 {
                0
            } else {
                (config.shadow_bytes / chunk).max(1) as usize
            };
            let target = match config.mode {
                // In FCFS mode targets start at zero and grow as pages are
                // granted; in managed mode an external allocator sets them.
                AllocationMode::FirstComeFirstServe { .. } => 0,
                AllocationMode::Managed => 0,
            };
            queues.push(CacheQueue::new(QueueConfig {
                policy: config.policy,
                target_bytes: target,
                tail_region_items: config.tail_region_items,
                shadow_capacity,
            }));
        }
        SlabCache {
            granted: vec![0; num_classes],
            queues,
            resident_class: KeyMap::default(),
            config,
            stats: CacheStats::new(),
        }
    }

    /// The slab class an item of `size` bytes maps to.
    pub fn class_for_size(&self, size: u64) -> Option<ClassId> {
        self.config.slab.class_for_size(size)
    }

    /// Number of slab classes.
    pub fn num_classes(&self) -> usize {
        self.queues.len()
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &SlabCacheConfig {
        &self.config
    }

    /// Looks up `key`; `size` routes the request to its slab class (traces
    /// carry the item size on every request).
    pub fn get(&mut self, key: Key, size: u64) -> Option<SlabGetResult> {
        let class = self.class_for_size(size)?;
        Some(self.get_in_class(key, class))
    }

    /// Looks up `key` without a size hint: resident keys are routed by the
    /// recorded class; unknown keys are routed to the class whose shadow
    /// queue remembers them, if any, and otherwise reported as a cold miss
    /// in class 0.
    pub fn get_untyped(&mut self, key: Key) -> SlabGetResult {
        if let Some(&class) = self.resident_class.get(&key) {
            return self.get_in_class(key, class);
        }
        // Only consult the shadow queues when they exist at all.
        if self.config.shadow_bytes > 0 {
            for (idx, queue) in self.queues.iter().enumerate() {
                if queue.shadow().contains(key) {
                    return self.get_in_class(key, ClassId::new(idx as u32));
                }
            }
        }
        self.get_in_class(key, ClassId::new(0))
    }

    fn get_in_class(&mut self, key: Key, class: ClassId) -> SlabGetResult {
        let result = self.queues[class.index()].get(key);
        self.stats.record_get(result.hit);
        if result.shadow_hit.is_some() {
            self.stats.shadow_hits += 1;
        }
        if result.hit {
            self.resident_class.insert(key, class);
        } else {
            // A miss in this class supersedes any stale residency record
            // (e.g. the item changed size class).
            if self.resident_class.get(&key) == Some(&class) {
                self.resident_class.remove(&key);
            }
        }
        SlabGetResult { class, result }
    }

    /// Stores `key` with a payload of `size` bytes.
    pub fn set(&mut self, key: Key, size: u64, value: V) -> Option<(ClassId, SetResult)> {
        let class = self.class_for_size(size)?;
        self.stats.record_set();
        // If the key currently lives in a different class, remove it there.
        if let Some(&old_class) = self.resident_class.get(&key) {
            if old_class != class {
                self.queues[old_class.index()].delete(key);
                self.resident_class.remove(&key);
            }
        }
        let charge = CacheQueue::<V>::charge(size);
        if let AllocationMode::FirstComeFirstServe { page_size } = self.config.mode {
            self.grow_class_fcfs(class, charge, page_size);
        }
        let result = self.queues[class.index()].set(key, size, value);
        if result.admitted {
            self.resident_class.insert(key, class);
        }
        for evicted in &result.evicted {
            self.resident_class.remove(evicted);
        }
        self.stats.record_evictions(result.evicted.len() as u64);
        Some((class, result))
    }

    /// Deletes `key` if resident.
    pub fn delete(&mut self, key: Key) -> bool {
        if let Some(class) = self.resident_class.remove(&key) {
            self.queues[class.index()].delete(key)
        } else {
            false
        }
    }

    fn grow_class_fcfs(&mut self, class: ClassId, needed: u64, page_size: u64) {
        let idx = class.index();
        let queue_used = self.queues[idx].used_bytes();
        while queue_used + needed > self.granted[idx] {
            let total_granted: u64 = self.granted.iter().sum();
            let remaining = self.config.total_bytes.saturating_sub(total_granted);
            if remaining == 0 {
                // Reservation exhausted: the class has to live within its
                // grant and will evict from its own queue.
                break;
            }
            let page = page_size.min(remaining).max(needed.min(remaining));
            self.granted[idx] += page;
        }
        self.queues[idx].set_target_bytes(self.granted[idx]);
    }

    /// Sets the byte target of one class (managed mode). The new target is
    /// enforced lazily; call [`SlabCache::enforce_targets`] for an eager
    /// shrink.
    pub fn set_class_target(&mut self, class: ClassId, bytes: u64) {
        self.queues[class.index()].set_target_bytes(bytes);
    }

    /// Byte target of one class.
    pub fn class_target(&self, class: ClassId) -> u64 {
        self.queues[class.index()].target_bytes()
    }

    /// Bytes used by one class.
    pub fn class_used(&self, class: ClassId) -> u64 {
        self.queues[class.index()].used_bytes()
    }

    /// Evicts every class down to its target; returns the number of items
    /// evicted.
    pub fn enforce_targets(&mut self) -> usize {
        let mut evicted = 0;
        for (idx, queue) in self.queues.iter_mut().enumerate() {
            let keys = queue.evict_to_target();
            for key in &keys {
                self.resident_class.remove(key);
            }
            evicted += keys.len();
            let _ = idx;
        }
        self.stats.record_evictions(evicted as u64);
        evicted
    }

    /// Per-class statistics, indexed by class.
    pub fn class_stats(&self) -> Vec<CacheStats> {
        self.queues.iter().map(|q| q.stats()).collect()
    }

    /// Aggregate statistics across all classes.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets aggregate and per-class statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
        for q in &mut self.queues {
            q.reset_stats();
        }
    }

    /// Total bytes used across all classes.
    pub fn used_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.used_bytes()).sum()
    }

    /// Total resident items across all classes.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The application's total reservation in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.config.total_bytes
    }

    /// Changes the application's total reservation (FCFS mode grants no new
    /// pages beyond it; managed mode treats it as informational).
    pub fn set_total_bytes(&mut self, bytes: u64) {
        self.config.total_bytes = bytes;
    }

    /// Direct access to a class queue (used by allocators and tests).
    pub fn queue(&self, class: ClassId) -> &CacheQueue<V> {
        &self.queues[class.index()]
    }

    /// Mutable access to a class queue (used by allocators).
    pub fn queue_mut(&mut self, class: ClassId) -> &mut CacheQueue<V> {
        &mut self.queues[class.index()]
    }

    /// Stored value for `key`, if resident.
    pub fn value(&self, key: Key) -> Option<&V> {
        let class = self.resident_class.get(&key)?;
        self.queues[class.index()].value(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    fn fcfs_cache(total: u64) -> SlabCache<()> {
        SlabCache::new(SlabCacheConfig {
            total_bytes: total,
            mode: AllocationMode::FirstComeFirstServe { page_size: 1 << 12 },
            ..SlabCacheConfig::default()
        })
    }

    #[test]
    fn routes_items_to_slab_classes_by_size() {
        let mut c = fcfs_cache(1 << 20);
        let (class_small, _) = c.set(key(1), 50, ()).unwrap();
        let (class_large, _) = c.set(key(2), 5_000, ()).unwrap();
        assert_ne!(class_small, class_large);
        assert_eq!(c.get(key(1), 50).unwrap().class, class_small);
        assert!(c.get(key(1), 50).unwrap().result.hit);
        assert!(c.get(key(2), 5_000).unwrap().result.hit);
    }

    #[test]
    fn rejects_items_larger_than_max() {
        let mut c = fcfs_cache(1 << 20);
        assert!(c.set(key(1), 2 << 20, ()).is_none());
        assert!(c.get(key(1), 2 << 20).is_none());
    }

    #[test]
    fn fcfs_exhausts_reservation_then_evicts_within_class() {
        // Small reservation: 16 KB. Fill it with large items first, then
        // insert small items; the small class only gets what is left.
        let mut c = fcfs_cache(16 << 10);
        for i in 0..100 {
            c.set(key(i), 1_000, ());
        }
        let used_large = c.used_bytes();
        assert!(used_large <= 16 << 10);
        // Now the small class arrives late and gets almost nothing: its
        // grant is bounded by what remains of the reservation.
        for i in 1_000..1_100 {
            c.set(key(i), 40, ());
        }
        let small_class = c.class_for_size(40).unwrap();
        let large_class = c.class_for_size(1_000).unwrap();
        assert!(
            c.class_target(small_class) < c.class_target(large_class),
            "late-arriving small class must not displace the large class under FCFS"
        );
        assert!(c.used_bytes() <= 16 << 10);
    }

    #[test]
    fn fcfs_total_budget_is_respected() {
        let total = 64 << 10;
        let mut c = fcfs_cache(total);
        for i in 0..2_000u64 {
            let size = if i % 3 == 0 { 100 } else { 900 };
            c.set(key(i), size, ());
        }
        assert!(c.used_bytes() <= total);
        let granted: u64 = (0..c.num_classes() as u32)
            .map(|cl| c.class_target(ClassId::new(cl)))
            .sum();
        assert!(granted <= total);
    }

    #[test]
    fn managed_mode_respects_external_targets() {
        let mut c: SlabCache<()> = SlabCache::new(SlabCacheConfig {
            total_bytes: 1 << 20,
            mode: AllocationMode::Managed,
            ..SlabCacheConfig::default()
        });
        let class = c.class_for_size(100).unwrap();
        c.set_class_target(class, 2_000);
        for i in 0..100 {
            c.set(key(i), 100, ());
        }
        assert!(c.class_used(class) <= 2_000);
        // Shrink and enforce.
        c.set_class_target(class, 500);
        c.enforce_targets();
        assert!(c.class_used(class) <= 500);
    }

    #[test]
    fn managed_mode_with_zero_target_admits_nothing_after_eviction() {
        let mut c: SlabCache<()> = SlabCache::new(SlabCacheConfig {
            total_bytes: 1 << 20,
            mode: AllocationMode::Managed,
            ..SlabCacheConfig::default()
        });
        let class = c.class_for_size(100).unwrap();
        c.set_class_target(class, 0);
        let (_, result) = c.set(key(1), 100, ()).unwrap();
        assert!(!result.admitted);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn get_untyped_uses_resident_class() {
        let mut c = fcfs_cache(1 << 20);
        c.set(key(1), 5_000, ());
        let res = c.get_untyped(key(1));
        assert!(res.result.hit);
        assert_eq!(res.class, c.class_for_size(5_000).unwrap());
        // Unknown key: cold miss.
        let res = c.get_untyped(key(42));
        assert!(!res.result.hit);
    }

    #[test]
    fn item_changing_size_class_moves() {
        let mut c = fcfs_cache(1 << 20);
        c.set(key(1), 50, ());
        let small = c.class_for_size(50).unwrap();
        c.set(key(1), 5_000, ());
        let large = c.class_for_size(5_000).unwrap();
        assert!(!c.queue(small).contains(key(1)));
        assert!(c.queue(large).contains(key(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shadow_queues_sized_by_chunk() {
        let c: SlabCache<()> = SlabCache::new(SlabCacheConfig {
            shadow_bytes: 1 << 20,
            ..SlabCacheConfig::default()
        });
        let small = c.class_for_size(64).unwrap();
        let large = c.class_for_size(1 << 19).unwrap();
        assert!(
            c.queue(small).shadow().capacity() > c.queue(large).shadow().capacity(),
            "smaller slab classes hold more shadow keys per byte"
        );
        assert_eq!(c.queue(small).shadow().capacity(), (1 << 20) / 64);
    }

    #[test]
    fn stats_aggregate_across_classes() {
        let mut c = fcfs_cache(1 << 20);
        c.set(key(1), 100, ());
        c.set(key(2), 5_000, ());
        c.get(key(1), 100);
        c.get(key(2), 5_000);
        c.get(key(3), 100);
        let stats = c.stats();
        assert_eq!(stats.sets, 2);
        assert_eq!(stats.gets, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        let per_class = c.class_stats();
        let total_gets: u64 = per_class.iter().map(|s| s.gets).sum();
        assert_eq!(total_gets, 3);
    }

    #[test]
    fn delete_removes_resident_items() {
        let mut c = fcfs_cache(1 << 20);
        c.set(key(1), 100, ());
        assert!(c.delete(key(1)));
        assert!(!c.delete(key(1)));
        assert!(!c.get(key(1), 100).unwrap().result.hit);
    }

    #[test]
    fn values_accessible_by_key() {
        let mut c: SlabCache<String> = SlabCache::new(SlabCacheConfig::default());
        c.set(key(7), 100, "payload".to_string());
        assert_eq!(c.value(key(7)).map(String::as_str), Some("payload"));
        c.delete(key(7));
        assert!(c.value(key(7)).is_none());
    }
}
