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
use crate::list::NodeHandle;
use crate::policy::PolicyKind;
use crate::prefetch::Sweep;
use crate::queue::{CacheQueue, GetResult, QueueConfig, SetResult};
use crate::slab::SlabConfig;
use crate::stats::{CacheStats, Footprint};

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

/// What the cache's one index holds per resident key: where the item is
/// (its class queue and the handle that queue issued) and the value itself.
#[derive(Debug)]
struct Resident<V> {
    class: ClassId,
    handle: NodeHandle,
    value: V,
}

/// A slab-structured single-application cache.
///
/// One hash table — Memcached's — maps every resident key to its
/// `Resident` entry; the per-class queues below it keep eviction order and
/// bytes and are addressed by handle, so a GET hit is one probe.
#[derive(Debug)]
pub struct SlabCache<V> {
    config: SlabCacheConfig,
    queues: Vec<CacheQueue>,
    /// Bytes of the reservation granted to each class (FCFS mode only).
    granted: Vec<u64>,
    index: KeyMap<Resident<V>>,
    stats: CacheStats,
}

impl<V> SlabCache<V> {
    /// Creates a cache from its configuration.
    pub fn new(config: SlabCacheConfig) -> Self {
        let num_classes = config.slab.num_classes();
        let queues = (0..num_classes as u32)
            .map(|class| {
                let chunk = config.slab.chunk_size(ClassId::new(class));
                let shadow_capacity = if config.shadow_bytes == 0 {
                    0
                } else {
                    (config.shadow_bytes / chunk).max(1) as usize
                };
                // Targets start at zero: FCFS grows them as pages are
                // granted, managed mode has an external allocator set them.
                CacheQueue::new(QueueConfig {
                    policy: config.policy,
                    target_bytes: 0,
                    tail_region_items: config.tail_region_items,
                    shadow_capacity,
                })
            })
            .collect();
        SlabCache {
            granted: vec![0; num_classes],
            queues,
            index: KeyMap::default(),
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

    /// Looks up `key`; `size` routes the request to its slab class (traces
    /// carry the item size on every request). A key resident in another
    /// class is a miss in this one.
    pub fn get(&mut self, key: Key, size: u64) -> Option<SlabGetResult> {
        let class = self.class_for_size(size)?;
        let (queues, stats) = (&mut self.queues, &mut self.stats);
        Some(match self.index.get(&key) {
            Some(item) if item.class == class => Self::hit(queues, stats, item),
            _ => Self::miss(queues, stats, key, class),
        })
    }

    /// Looks up `key` without a size hint: resident keys are routed by the
    /// index; unknown keys are routed to the class whose shadow queue
    /// remembers them, if any, and otherwise reported as a cold miss in
    /// class 0.
    pub fn get_untyped(&mut self, key: Key) -> SlabGetResult {
        self.touch(key).0
    }

    /// [`SlabCache::get_untyped`] that lends the value on a hit: the GET of
    /// a server, one index probe for the access and the value together.
    pub fn lookup(&mut self, key: Key) -> Option<&V> {
        self.touch(key).1
    }

    fn touch(&mut self, key: Key) -> (SlabGetResult, Option<&V>) {
        let (queues, stats) = (&mut self.queues, &mut self.stats);
        match self.index.get(&key) {
            Some(item) => (Self::hit(queues, stats, item), Some(&item.value)),
            None => {
                // Only consult the shadow queues when they exist at all.
                let remembered = (self.config.shadow_bytes > 0)
                    .then(|| queues.iter().position(|q| q.shadow().contains(key)))
                    .flatten();
                let class = ClassId::new(remembered.unwrap_or(0) as u32);
                (Self::miss(queues, stats, key, class), None)
            }
        }
    }

    fn hit(queues: &mut [CacheQueue], stats: &mut CacheStats, item: &Resident<V>) -> SlabGetResult {
        stats.record_get(true);
        SlabGetResult {
            class: item.class,
            result: queues[item.class.index()].hit(item.handle),
        }
    }

    fn miss(
        queues: &mut [CacheQueue],
        stats: &mut CacheStats,
        key: Key,
        class: ClassId,
    ) -> SlabGetResult {
        let result = queues[class.index()].miss(key);
        stats.record_get(false);
        if result.shadow_hit {
            stats.shadow_hits += 1;
        }
        SlabGetResult { class, result }
    }

    /// Drops the index entries of keys a queue evicted.
    fn unindex(&mut self, evicted: &[Key]) {
        for key in evicted {
            self.index.remove(key);
        }
        self.stats.record_evictions(evicted.len() as u64);
    }

    /// Stores `key` with a payload of `size` bytes.
    pub fn set(&mut self, key: Key, size: u64, value: V) -> Option<(ClassId, SetResult)> {
        let class = self.class_for_size(size)?;
        self.stats.record_set();
        // The write replaces whatever copy there is: one in another class
        // leaves its queue now — its index entry stays, for the write to
        // overwrite or remove below — one in this class with its queue's set.
        let mut old = self.index.get(&key).map(|item| (item.class, item.handle));
        if let Some((old_class, handle)) = old.filter(|&(old_class, _)| old_class != class) {
            self.queues[old_class.index()].remove(handle);
            old = None;
        }
        let charge = CacheQueue::charge(size);
        if let AllocationMode::FirstComeFirstServe { page_size } = self.config.mode {
            self.grow_class_fcfs(class, charge, page_size);
        }
        let old = old.map(|(_, handle)| handle);
        let result = self.queues[class.index()].set_collecting(key, size, old);
        self.unindex(&result.evicted);
        match result.handle {
            // Overwrites the old entry where it stands.
            Some(handle) => {
                let item = Resident {
                    class,
                    handle,
                    value,
                };
                self.index.insert(key, item);
            }
            // Turned away, or evicted by its own insertion: either way the
            // copy it replaced is gone too.
            None => drop(self.index.remove(&key)),
        }
        Some((class, result))
    }

    /// Deletes `key` if resident.
    pub fn delete(&mut self, key: Key) -> bool {
        match self.index.remove(&key) {
            Some(item) => {
                self.queues[item.class.index()].remove(item.handle);
                true
            }
            None => false,
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
        let mut evicted = Vec::new();
        for queue in &mut self.queues {
            queue.evict_to_target(&mut evicted);
        }
        self.unindex(&evicted);
        evicted.len()
    }

    /// Per-class statistics, indexed by class.
    pub fn class_stats(&self) -> Vec<CacheStats> {
        self.queues.iter().map(|q| q.stats()).collect()
    }

    /// Aggregate statistics across all classes.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Total bytes used across all classes.
    pub fn used_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.used_bytes()).sum()
    }

    /// Total resident items across all classes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Stored value for `key`, if resident (no effect on recency).
    pub fn value(&self, key: Key) -> Option<&V> {
        self.index.get(&key).map(|item| &item.value)
    }

    /// The class `key` is resident in, if it is resident.
    pub fn class_of(&self, key: Key) -> Option<ClassId> {
        self.index.get(&key).map(|item| item.class)
    }

    /// One read-only sweep ahead of an operation on `key` (see
    /// [`crate::prefetch`]): no statistics, no recency. After the slot
    /// sweep, which reads nothing, lends a resident item's value, so the
    /// caller can ask for the bytes behind it.
    pub fn prefetch(&self, key: Key, sweep: Sweep) -> Option<&V> {
        if sweep == Sweep::Slot {
            self.index.prefetch(key);
            return None;
        }
        let item = self.index.get(&key)?;
        self.queues[item.class.index()].prefetch(item.handle, sweep);
        Some(&item.value)
    }

    /// Heap bytes of the index and of every class's queue and shadow.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        for queue in &self.queues {
            footprint += queue.footprint();
        }
        footprint.index = self.index.heap_bytes();
        footprint
    }

    /// Checks the index against the queues (see [`crate::queue::check_index`]).
    #[doc(hidden)]
    pub fn check_index(&self) -> Result<(), String> {
        let named = self.index.iter().map(|(&key, item)| {
            let queue = &self.queues[item.class.index()];
            (key, queue.peek(item.handle))
        });
        let queued = self.queues.iter().map(|q| q.len()).sum();
        crate::queue::check_index(named, (queued, self.used_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// What the server's plain engine pays per resident key in the one
    /// index: key 8 + class 4 + handle 4 + the item, one boxed slice (key,
    /// flags and data in one buffer) of 16 — and the slot holding the entry
    /// is no larger.
    #[test]
    fn an_index_entry_holding_one_boxed_item_is_32_bytes() {
        assert_eq!(
            std::mem::size_of::<Option<(Key, Resident<Box<[u8]>>)>>(),
            32
        );
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
    fn get_untyped_finds_the_class_through_the_index() {
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
        assert!(c.queues[small.index()].is_empty());
        assert_eq!(c.queues[large.index()].len(), 1);
        assert_eq!(c.class_of(key(1)), Some(large));
        assert_eq!(c.len(), 1);
        c.check_index().unwrap();
    }

    #[test]
    fn shadow_queues_sized_by_chunk() {
        let c: SlabCache<()> = SlabCache::new(SlabCacheConfig {
            shadow_bytes: 1 << 20,
            ..SlabCacheConfig::default()
        });
        let small = c.class_for_size(64).unwrap();
        let large = c.class_for_size(1 << 19).unwrap();
        let shadow_keys = |class: ClassId| c.queues[class.index()].shadow().capacity();
        assert!(
            shadow_keys(small) > shadow_keys(large),
            "smaller slab classes hold more shadow keys per byte"
        );
        assert_eq!(shadow_keys(small), (1 << 20) / 64);
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
