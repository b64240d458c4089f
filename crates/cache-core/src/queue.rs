//! A physical cache queue: an eviction policy, a byte budget and an attached
//! shadow queue.
//!
//! [`CacheQueue`] is the unit the allocation algorithms reason about — one
//! per slab class (or one per application when optimizing across
//! applications). It charges each item `size + ITEM_OVERHEAD` bytes against
//! its `target_bytes` budget, evicts according to its policy when over
//! budget, and records evicted keys in its shadow queue so that later misses
//! can be classified as "would have hit with more memory".
//!
//! A queue keeps order and bytes; it holds no values and cannot look a key
//! up. The engine above it ([`crate::SlabCache`], [`crate::GlobalLruCache`],
//! `cliffhanger::Cliffhanger`) owns the one index from key to value and
//! [`NodeHandle`]: it tells the queue whether a GET was a [`CacheQueue::hit`]
//! (and on which handle) or a [`CacheQueue::miss`], passes the handle of the
//! copy a SET replaces, and drops its entries for the keys a SET or a shrink
//! appends to the buffer of evicted keys it passes in (an engine keeps one,
//! so an evicting SET allocates nothing for them).

use crate::key::Key;
use crate::list::NodeHandle;
use crate::lru::HitLocation;
use crate::policy::{Policy, PolicyKind};
use crate::prefetch::Sweep;
use crate::shadow::ShadowQueue;
use crate::stats::{CacheStats, Footprint};
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
    /// Whether the request missed the physical queue and hit the shadow
    /// queue.
    pub shadow_hit: bool,
}

/// What a [`CacheQueue::set`] did with the item.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Admission {
    /// Whether the item was admitted (false only if it alone exceeds the
    /// queue's byte budget).
    pub admitted: bool,
    /// Where the item now sits: `None` if it was not admitted, or if making
    /// room evicted the item itself (a mid-queue insertion into a queue
    /// that fits almost nothing).
    pub handle: Option<NodeHandle>,
}

/// Outcome of a SET against an engine of one queue per class or of one
/// queue ([`crate::SlabCache`], [`crate::GlobalLruCache`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SetResult {
    /// Whether the item was admitted.
    pub admitted: bool,
    /// Keys evicted to make room.
    pub evicted: Vec<Key>,
    /// Where the item now sits (see [`Admission::handle`]).
    pub handle: Option<NodeHandle>,
}

/// A physical cache queue: an order of weighted keys under a byte budget,
/// with a shadow queue behind it.
#[derive(Debug)]
pub struct CacheQueue {
    policy: Policy,
    shadow: ShadowQueue,
    target_bytes: u64,
    stats: CacheStats,
}

impl CacheQueue {
    /// Creates a queue from its configuration.
    pub fn new(config: QueueConfig) -> Self {
        CacheQueue {
            policy: Policy::new(config.policy, config.tail_region_items),
            shadow: ShadowQueue::new(config.shadow_capacity),
            target_bytes: config.target_bytes,
            stats: CacheStats::new(),
        }
    }

    /// The memory charge of an item of `size` bytes.
    pub fn charge(size: u64) -> u64 {
        size + ITEM_OVERHEAD
    }

    /// Records a GET of the resident item `handle` names, updating recency
    /// and statistics.
    pub fn hit(&mut self, handle: NodeHandle) -> GetResult {
        let location = self.policy.access(handle);
        self.stats.record_get(true);
        GetResult {
            hit: true,
            location: Some(location),
            shadow_hit: false,
        }
    }

    /// Records a GET of `key`, which the engine's index does not hold for
    /// this queue: the policy's ghost lists, the shadow queue and the
    /// statistics see the miss.
    pub fn miss(&mut self, key: Key) -> GetResult {
        self.policy.on_miss(key);
        let shadow_hit = self.shadow.probe(key).is_some();
        self.stats.record_get(false);
        self.stats.shadow_hits += u64::from(shadow_hit);
        GetResult {
            hit: false,
            location: None,
            shadow_hit,
        }
    }

    /// Inserts `key` with a payload of `size` bytes, evicting items as needed
    /// to stay within the byte budget and appending their keys to
    /// `evicted`. `old` names the copy of `key` this queue already holds, if
    /// it holds one; it is gone afterwards whether or not the new item was
    /// admitted.
    pub fn set(
        &mut self,
        key: Key,
        size: u64,
        old: Option<NodeHandle>,
        evicted: &mut Vec<Key>,
    ) -> Admission {
        self.stats.record_set();
        if let Some(handle) = old {
            self.policy.remove(handle);
        }
        let charge = Self::charge(size);
        if charge > self.target_bytes {
            // The item alone exceeds the budget; do not admit it (Memcached
            // would fail the store with SERVER_ERROR object too large).
            self.policy.forget(key);
            return Admission::default();
        }
        let handle = self.policy.insert(key, charge);
        // The key is now resident; it must not linger in the shadow queue.
        self.shadow.remove(key);
        let from = evicted.len();
        self.evict_to_target(evicted);
        Admission {
            admitted: true,
            handle: (!evicted[from..].contains(&key)).then_some(handle),
        }
    }

    /// [`CacheQueue::set`] for an engine that hands its caller the evicted
    /// keys: the same write, its keys collected in a result of their own.
    pub fn set_collecting(&mut self, key: Key, size: u64, old: Option<NodeHandle>) -> SetResult {
        let mut evicted = Vec::new();
        let Admission { admitted, handle } = self.set(key, size, old, &mut evicted);
        SetResult {
            admitted,
            evicted,
            handle,
        }
    }

    /// Removes the item `handle` names from the physical queue (its key does
    /// not enter the shadow queue), returning its key.
    pub fn remove(&mut self, handle: NodeHandle) -> Key {
        let (key, _) = self.policy.remove(handle);
        self.policy.forget(key);
        key
    }

    /// `key` was written to, or deleted from, another queue: drops what this
    /// queue's policy remembered about its next admission here.
    pub fn forget(&mut self, key: Key) {
        self.policy.forget(key);
    }

    /// Evicts items until the queue fits its byte budget, appending their
    /// keys to `evicted` (they are recorded in the shadow queue).
    pub fn evict_to_target(&mut self, evicted: &mut Vec<Key>) {
        let from = evicted.len();
        while self.policy.total_weight() > self.target_bytes {
            match self.policy.evict() {
                Some((key, _)) => {
                    self.shadow.insert(key);
                    evicted.push(key);
                }
                None => break,
            }
        }
        self.stats.record_evictions((evicted.len() - from) as u64);
    }

    /// Asks for what the queue's next eviction touches and names its victim
    /// (see [`crate::lru::LruList::prefetch_next_victim`]).
    pub fn prefetch_next_victim(&self) -> Option<Key> {
        self.policy.prefetch_next_victim()
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

    /// The key and charge of the item `handle` names, if it names one.
    pub fn peek(&self, handle: NodeHandle) -> Option<(Key, u64)> {
        self.policy.peek(handle)
    }

    /// One read-only sweep ahead of a [`CacheQueue::hit`] or a removal of
    /// `handle` (see [`crate::prefetch`]).
    pub fn prefetch(&self, handle: NodeHandle, sweep: Sweep) {
        self.policy.prefetch(handle, sweep);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The attached shadow queue.
    pub fn shadow(&self) -> &ShadowQueue {
        &self.shadow
    }

    /// Heap bytes of the policy's structures and the shadow queue.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = self.policy.footprint();
        footprint.shadows += self.shadow.heap_bytes();
        footprint
    }
}

/// The invariant between an engine's index and its queues, for the engines'
/// `check_index`: every entry's handle must name a queued node holding that
/// entry's key (`entries` pairs each indexed key with what its handle names),
/// and the index must account for exactly the `queued` (items, bytes).
#[doc(hidden)]
pub fn check_index(
    entries: impl Iterator<Item = (Key, Option<(Key, u64)>)>,
    queued: (usize, u64),
) -> Result<(), String> {
    let mut indexed = (0, 0);
    for (key, named) in entries {
        match named {
            Some((held, weight)) if held == key => indexed = (indexed.0 + 1, indexed.1 + weight),
            other => return Err(format!("{key:?}: its handle names {other:?}")),
        }
    }
    if indexed != queued {
        return Err(format!(
            "(items, bytes) indexed {indexed:?}, queued {queued:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyMap;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// The smallest engine there is: a queue and the index it relies on.
    struct Keyed {
        queue: CacheQueue,
        index: KeyMap<NodeHandle>,
    }

    impl Keyed {
        fn new(config: QueueConfig) -> Keyed {
            Keyed {
                queue: CacheQueue::new(config),
                index: KeyMap::default(),
            }
        }

        fn get(&mut self, key: Key) -> GetResult {
            match self.index.get(&key) {
                Some(&handle) => self.queue.hit(handle),
                None => self.queue.miss(key),
            }
        }

        fn set(&mut self, key: Key, size: u64) -> SetResult {
            let old = self.index.remove(&key);
            let result = self.queue.set_collecting(key, size, old);
            for evicted in &result.evicted {
                self.index.remove(evicted);
            }
            if let Some(handle) = result.handle {
                self.index.insert(key, handle);
            }
            result
        }

        fn contains(&self, key: Key) -> bool {
            self.index.contains_key(&key)
        }
    }

    fn queue(target_bytes: u64, shadow: usize) -> Keyed {
        Keyed::new(QueueConfig {
            policy: PolicyKind::Lru,
            target_bytes,
            tail_region_items: 0,
            shadow_capacity: shadow,
        })
    }

    #[test]
    fn get_miss_then_set_then_hit() {
        let mut q = queue(10_000, 0);
        assert!(!q.get(key(1)).hit);
        let set = q.set(key(1), 100);
        assert!(set.admitted);
        assert!(set.evicted.is_empty());
        let got = q.get(key(1));
        assert!(got.hit);
        let stats = q.queue.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.sets, 1);
    }

    #[test]
    fn byte_budget_is_enforced() {
        // Each item charges 100 + 48 = 148 bytes; budget fits 4 items.
        let mut q = queue(600, 0);
        for i in 0..10 {
            q.set(key(i), 100);
        }
        assert!(q.queue.used_bytes() <= 600);
        assert_eq!(q.queue.len(), 4);
        // The oldest items were evicted.
        assert!(!q.contains(key(0)));
        assert!(q.contains(key(9)));
        assert_eq!(q.queue.stats().evictions, 6);
    }

    #[test]
    fn evicted_keys_land_in_shadow_queue() {
        let mut q = queue(600, 100);
        for i in 0..10 {
            q.set(key(i), 100);
        }
        // Key 0 was evicted; a GET on it must report a shadow hit.
        let result = q.get(key(0));
        assert!(!result.hit);
        assert!(result.shadow_hit);
        assert_eq!(q.queue.stats().shadow_hits, 1);
        // A completely cold key misses both.
        let cold = q.get(key(77));
        assert!(!cold.hit && !cold.shadow_hit);
    }

    #[test]
    fn oversized_items_are_rejected() {
        let mut q = queue(100, 0);
        let res = q.set(key(1), 1_000);
        assert!(!res.admitted);
        assert_eq!(res.handle, None);
        assert_eq!(q.queue.len(), 0);
    }

    #[test]
    fn oversized_overwrite_drops_stale_value() {
        let mut q = queue(1_000, 0);
        q.set(key(1), 100);
        assert!(q.contains(key(1)));
        // An update that no longer fits must not leave the old copy behind.
        let res = q.set(key(1), 5_000);
        assert!(!res.admitted);
        assert!(!q.contains(key(1)));
        assert!(q.queue.is_empty());
    }

    #[test]
    fn an_item_evicted_by_its_own_insertion_gets_no_handle() {
        // A mid-queue insertion behind one promoted item, into a budget of
        // one item: making room evicts the newcomer itself.
        let mut q = Keyed::new(QueueConfig {
            policy: PolicyKind::Facebook,
            target_bytes: 148,
            ..QueueConfig::default()
        });
        q.set(key(1), 100);
        assert!(q.get(key(1)).hit);
        let res = q.set(key(2), 100);
        assert!(res.admitted);
        assert_eq!(res.evicted, vec![key(2)]);
        assert_eq!(res.handle, None);
        assert!(q.contains(key(1)) && !q.contains(key(2)));
    }

    #[test]
    fn shrinking_budget_is_lazy_then_enforced() {
        let mut q = queue(10_000, 0);
        for i in 0..10 {
            q.set(key(i), 100);
        }
        let before = q.queue.len();
        q.queue.set_target_bytes(500);
        assert_eq!(
            q.queue.len(),
            before,
            "shrinking must not evict immediately"
        );
        let mut evicted = Vec::new();
        q.queue.evict_to_target(&mut evicted);
        assert!(!evicted.is_empty());
        assert!(q.queue.used_bytes() <= 500);
    }

    #[test]
    fn remove_takes_the_item_out_without_a_shadow_entry() {
        let mut q = queue(10_000, 16);
        q.set(key(1), 10);
        let handle = q.index.remove(&key(1)).unwrap();
        assert_eq!(q.queue.peek(handle), Some((key(1), 58)));
        assert_eq!(q.queue.remove(handle), key(1));
        assert!(q.queue.is_empty());
        let gone = q.get(key(1));
        assert!(!gone.hit && !gone.shadow_hit);
    }

    #[test]
    fn set_removes_key_from_shadow_queue() {
        let mut q = queue(600, 100);
        for i in 0..10 {
            q.set(key(i), 100);
        }
        assert!(q.queue.shadow().contains(key(0)));
        q.set(key(0), 100);
        assert!(
            !q.queue.shadow().contains(key(0)),
            "a resident key must not also be in the shadow queue"
        );
    }

    #[test]
    fn updating_an_item_does_not_double_charge() {
        let mut q = queue(10_000, 0);
        q.set(key(1), 100);
        let used = q.queue.used_bytes();
        q.set(key(1), 100);
        assert_eq!(q.queue.used_bytes(), used);
        q.set(key(1), 200);
        assert_eq!(q.queue.used_bytes(), used + 100);
        assert_eq!(q.queue.len(), 1);
    }

    #[test]
    fn tail_region_classification_flows_through() {
        let mut q = Keyed::new(QueueConfig {
            policy: PolicyKind::Lru,
            target_bytes: 1 << 20,
            tail_region_items: 2,
            shadow_capacity: 0,
        });
        for i in 0..6 {
            q.set(key(i), 100);
        }
        assert_eq!(q.get(key(0)).location, Some(HitLocation::TailRegion));
        assert_eq!(q.get(key(5)).location, Some(HitLocation::Main));
    }

    #[test]
    fn works_with_every_policy_kind() {
        for kind in [PolicyKind::Lru, PolicyKind::Facebook, PolicyKind::Arc] {
            let mut q = Keyed::new(QueueConfig {
                policy: kind,
                target_bytes: 2_000,
                tail_region_items: 0,
                shadow_capacity: 16,
            });
            for i in 0..50 {
                q.get(key(i % 20));
                q.set(key(i % 20), 64);
            }
            assert!(
                q.queue.used_bytes() <= 2_000,
                "budget violated for {kind:?}"
            );
            assert!(!q.queue.is_empty());
            assert_eq!(q.queue.len(), q.index.len());
        }
    }
}
