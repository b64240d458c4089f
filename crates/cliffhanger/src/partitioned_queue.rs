//! The per-queue structure of Figure 5.
//!
//! Every queue Cliffhanger manages (one per slab class, or one per
//! application) is physically split into a **left** and a **right**
//! sub-queue. Each sub-queue is followed by one [`ShadowQueue`] read at two
//! depths: its near segment is the 128-item cliff-scaling shadow queue, and
//! the sub-queue treats the last 128 items of its physical queue as the
//! "left half" of that shadow structure (no extra memory needed, §5.1); its
//! far segment is this side's share of the longer hill-climbing shadow queue
//! (1 MB of simulated requests), which is split across the two partitions in
//! proportion to their sizes.
//!
//! Like the [`CacheQueue`]s it is made of, a partitioned queue keeps order
//! and bytes and no index: the [`crate::Cliffhanger`] above it looks a key
//! up once, and tells the queue either "the item on this side, under this
//! handle, was hit" ([`PartitionedQueue::hit`]) or "this key is not here"
//! ([`PartitionedQueue::miss`]). Only the two shadow queues, which hold keys
//! of items that are gone, are searched by key: a miss or a SET probes at
//! most two key indexes, and an eviction inserts into one.
//!
//! Requests are routed between the two partitions by key hash with the
//! Talus ratio from [`CliffScaler`]; evictions cascade physical queue →
//! near segment → far segment, so a miss can be classified as "just beyond
//! the physical queue" (a cliff signal) or "would have hit with one shadow
//! queue's worth of extra memory" (a hill-climbing signal). Physical resizes
//! are applied only on the insertion that follows a miss, which is the
//! paper's anti-thrashing rule (§5.1).

use crate::cliff_scale::{CliffScaler, PointerEvent};
use cache_core::key::mix64;
use cache_core::lru::HitLocation;
use cache_core::prefetch::Sweep;
use cache_core::{
    CacheQueue, CacheStats, Footprint, Key, NodeHandle, PolicyKind, QueueConfig, Segment,
    ShadowQueue,
};

/// Which physical sub-queue a request was routed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Partition {
    /// The left sub-queue (simulates the smaller Talus anchor).
    Left,
    /// The right sub-queue (simulates the larger Talus anchor).
    Right,
}

/// What happened to one request inside a [`PartitionedQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueEvent {
    /// Whether the request hit a physical sub-queue.
    pub hit: bool,
    /// The partition the request was routed to.
    pub partition: Partition,
    /// The hit landed in the last `cliff_shadow_items` items of the physical
    /// queue (the "left of the pointer" signal).
    pub tail_hit: bool,
    /// The miss hit the 128-item cliff shadow queue (the "right of the
    /// pointer" signal).
    pub cliff_shadow_hit: bool,
    /// The miss hit the long hill-climbing shadow queue (the gradient
    /// signal of Algorithm 1).
    pub hill_shadow_hit: bool,
}

/// Outcome of a SET against a [`PartitionedQueue`] (the keys it evicted
/// went to the caller's buffer).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetOutcome {
    /// Whether the item was admitted.
    pub admitted: bool,
    /// The stored key was found in a cliff shadow queue before insertion —
    /// the deferred "right of the pointer" signal for callers that could not
    /// classify the preceding GET (e.g. the wire-protocol path, where the
    /// item size is only known at SET time).
    pub cliff_shadow_hit: bool,
    /// The stored key was found in the hill-climbing shadow queue before
    /// insertion (the deferred Algorithm 1 signal).
    pub hill_shadow_hit: bool,
    /// Where the item now sits, for the caller's index: `None` if it was
    /// not admitted or did not survive its own insertion.
    pub slot: Option<(Partition, NodeHandle)>,
    /// After a write that evicted: the key the same side evicts next, whose
    /// line in the caller's index the caller may ask for now.
    pub next_victim: Option<Key>,
}

/// Static parameters of a partitioned queue (derived per slab class by the
/// controller from [`crate::CliffhangerConfig`]).
#[derive(Clone, Debug)]
pub struct PartitionedQueueConfig {
    /// Eviction policy of both physical sub-queues.
    pub policy: PolicyKind,
    /// Initial byte budget of the whole queue.
    pub target_bytes: u64,
    /// Bytes charged per item (slab chunk size + item overhead); converts
    /// the byte budget into the item counts Algorithms 2–3 reason about.
    pub charge_per_item: u64,
    /// Cliff shadow queue size and physical tail region, in items (128).
    pub cliff_shadow_items: usize,
    /// Hill-climbing shadow capacity, in entries, across both partitions.
    pub hill_shadow_entries: usize,
    /// Pointer movement per cliff event, in items.
    pub credit_items: u64,
    /// Cliff scaling only runs when the queue holds at least this many items.
    pub cliff_min_items: u64,
    /// Whether cliff scaling (pointer updates + uneven splits) is enabled.
    pub enable_cliff_scaling: bool,
}

impl Default for PartitionedQueueConfig {
    fn default() -> Self {
        PartitionedQueueConfig {
            policy: PolicyKind::Lru,
            target_bytes: 1 << 20,
            charge_per_item: 112,
            cliff_shadow_items: 128,
            hill_shadow_entries: 1 << 14,
            credit_items: 32,
            cliff_min_items: 1_000,
            enable_cliff_scaling: true,
        }
    }
}

/// One Cliffhanger-managed queue: two physical sub-queues plus their shadow
/// structure (Figure 5).
#[derive(Debug)]
pub struct PartitionedQueue {
    config: PartitionedQueueConfig,
    left: CacheQueue,
    right: CacheQueue,
    /// Each side's shadow: near = cliff shadow, far = its hill share.
    left_shadow: ShadowQueue,
    right_shadow: ShadowQueue,
    scaler: CliffScaler,
    target_bytes: u64,
    /// `target_bytes` in items, and whether that many make cliff scaling
    /// active: every request asks, so both are set where the target is.
    target_items: u64,
    scaling_active: bool,
    resize_pending: bool,
    stats: CacheStats,
}

impl PartitionedQueue {
    /// Creates a partitioned queue from its configuration.
    pub fn new(config: PartitionedQueueConfig) -> Self {
        let charge = config.charge_per_item.max(1);
        let make_queue = |bytes: u64| {
            CacheQueue::new(QueueConfig {
                policy: config.policy,
                target_bytes: bytes,
                tail_region_items: config.cliff_shadow_items,
                shadow_capacity: 0,
            })
        };
        let half = config.target_bytes / 2;
        let mut queue = PartitionedQueue {
            left: make_queue(half),
            right: make_queue(config.target_bytes - half),
            // `apply_sizes` below gives each its far segment.
            left_shadow: ShadowQueue::new(config.cliff_shadow_items),
            right_shadow: ShadowQueue::new(config.cliff_shadow_items),
            scaler: CliffScaler::new(config.target_bytes / charge, config.credit_items),
            target_bytes: 0,
            target_items: 0,
            scaling_active: false,
            resize_pending: false,
            stats: CacheStats::new(),
            config: PartitionedQueueConfig {
                charge_per_item: charge,
                ..config
            },
        };
        queue.set_target_bytes(queue.config.target_bytes);
        queue.enforce_target(&mut Vec::new());
        queue
    }

    /// Whether cliff scaling is currently active (enabled and the queue is
    /// large enough, §5.1).
    pub fn cliff_scaling_active(&self) -> bool {
        self.scaling_active
    }

    /// The queue's byte budget.
    pub fn target_bytes(&self) -> u64 {
        self.target_bytes
    }

    /// The byte budget converted to items.
    pub fn target_items(&self) -> u64 {
        self.target_items
    }

    /// Bytes currently in use across both partitions.
    pub fn used_bytes(&self) -> u64 {
        self.left.used_bytes() + self.right.used_bytes()
    }

    /// Resident items across both partitions.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Whether no items are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key and charge of the item `handle` names on `side`, if any.
    pub fn peek(&self, side: Partition, handle: NodeHandle) -> Option<(Key, u64)> {
        match side {
            Partition::Left => self.left.peek(handle),
            Partition::Right => self.right.peek(handle),
        }
    }

    /// One read-only sweep ahead of a hit on, or a removal of, `handle` on
    /// `side` (see [`cache_core::prefetch`]).
    pub fn prefetch(&self, side: Partition, handle: NodeHandle, sweep: Sweep) {
        match side {
            Partition::Left => self.left.prefetch(handle, sweep),
            Partition::Right => self.right.prefetch(handle, sweep),
        }
    }

    fn side_mut(&mut self, side: Partition) -> &mut CacheQueue {
        match side {
            Partition::Left => &mut self.left,
            Partition::Right => &mut self.right,
        }
    }

    /// Heap bytes of both sub-queues and their shadow queues.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = self.left.footprint();
        footprint += self.right.footprint();
        footprint.shadows += self.left_shadow.heap_bytes() + self.right_shadow.heap_bytes();
        footprint
    }

    /// Cumulative statistics for this queue.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The current Talus request ratio (fraction of requests routed left).
    pub fn ratio(&self) -> f64 {
        if self.cliff_scaling_active() {
            self.scaler.ratio()
        } else {
            0.5
        }
    }

    /// The cliff-scaling pointers `(left, right)` in items.
    pub fn pointers(&self) -> (u64, u64) {
        self.scaler.pointers()
    }

    /// Whether the pointers currently straddle a detected cliff.
    pub fn is_scaling_a_cliff(&self) -> bool {
        self.cliff_scaling_active() && self.scaler.is_scaling_a_cliff()
    }

    /// Sizes `(left_bytes, right_bytes)` the two partitions are currently
    /// targeting.
    pub fn partition_targets(&self) -> (u64, u64) {
        (self.left.target_bytes(), self.right.target_bytes())
    }

    /// Changes the queue's byte budget (called by the hill-climbing layer).
    /// The resize is applied on the next insertion, per the paper's
    /// resize-on-miss rule.
    pub fn set_target_bytes(&mut self, bytes: u64) {
        self.target_bytes = bytes;
        self.target_items = bytes / self.config.charge_per_item;
        self.scaling_active =
            self.config.enable_cliff_scaling && self.target_items >= self.config.cliff_min_items;
        self.scaler.set_queue_size(self.target_items);
        self.resize_pending = true;
    }

    /// Routes a key to a partition using the current ratio. The mapping is
    /// deterministic per key for a fixed ratio, so resident keys keep
    /// hitting the partition that stores them.
    ///
    /// While cliff scaling is inactive (disabled, or the queue is below the
    /// 1000-item threshold of §5.1) the queue is not meaningfully
    /// partitioned: everything is routed to the right sub-queue, which then
    /// behaves exactly like a single queue with the full budget.
    fn route(&self, key: Key) -> Partition {
        if !self.cliff_scaling_active() {
            return Partition::Right;
        }
        let ratio = self.ratio();
        // Map the key to a uniform fraction in [0, 1).
        let fraction = (mix64(key.raw()) >> 11) as f64 / (1u64 << 53) as f64;
        if fraction < ratio {
            Partition::Left
        } else {
            Partition::Right
        }
    }

    /// Records a GET of the resident item `handle` names on `side`. Lookups
    /// behave like Memcached's hash table: the caller's index finds a
    /// resident item no matter which partition stores it (the partitioning
    /// only steers insertions and evictions), and the partition holding the
    /// item is the one whose tail region produces the signal.
    pub fn hit(&mut self, side: Partition, handle: NodeHandle) -> QueueEvent {
        let result = self.side_mut(side).hit(handle);
        self.classify(QueueEvent {
            hit: true,
            partition: side,
            tail_hit: result.location == Some(HitLocation::TailRegion),
            cliff_shadow_hit: false,
            hill_shadow_hit: false,
        })
    }

    /// Records a GET of `key`, which is in neither partition, classifying
    /// the miss for both algorithms. The partition reported is the one
    /// whose shadow queue remembered the key, falling back to the
    /// hash-routed partition for cold misses.
    pub fn miss(&mut self, key: Key) -> QueueEvent {
        let routed = self.route(key);
        // Record the miss against the routed partition's physical queue
        // (for per-queue statistics and policies with ghost lists).
        self.side_mut(routed).miss(key);
        let order = match routed {
            Partition::Left => [Partition::Left, Partition::Right],
            Partition::Right => [Partition::Right, Partition::Left],
        };
        let shadow = self.probe_shadows(key, order);
        self.classify(QueueEvent {
            hit: false,
            partition: shadow.map_or(routed, |(partition, _)| partition),
            tail_hit: false,
            cliff_shadow_hit: matches!(shadow, Some((_, true))),
            hill_shadow_hit: matches!(shadow, Some((_, false))),
        })
    }

    /// Takes `key` out of the first of the two sides' shadows, in `order`,
    /// that holds it. Returns that side and whether the key was in its
    /// cliff (near) segment.
    fn probe_shadows(&mut self, key: Key, order: [Partition; 2]) -> Option<(Partition, bool)> {
        order.into_iter().find_map(|p| {
            let shadow = match p {
                Partition::Left => &mut self.left_shadow,
                Partition::Right => &mut self.right_shadow,
            };
            shadow
                .probe(key)
                .map(|segment| (p, segment == Segment::Near))
        })
    }

    /// Counts the event and feeds the cliff scaler's pointers.
    fn classify(&mut self, event: QueueEvent) -> QueueEvent {
        self.stats.record_get(event.hit);
        if event.hill_shadow_hit {
            self.stats.shadow_hits += 1;
        }
        if event.cliff_shadow_hit {
            self.stats.cliff_shadow_hits += 1;
        }
        if self.cliff_scaling_active() {
            let pointer_event = match (event.partition, event.tail_hit, event.cliff_shadow_hit) {
                (Partition::Right, true, _) => Some(PointerEvent::RightQueueTailHit),
                (Partition::Right, _, true) => Some(PointerEvent::RightQueueShadowHit),
                (Partition::Left, true, _) => Some(PointerEvent::LeftQueueTailHit),
                (Partition::Left, _, true) => Some(PointerEvent::LeftQueueShadowHit),
                _ => None,
            };
            if let Some(pe) = pointer_event {
                self.scaler.on_event(pe);
                self.resize_pending = true;
            }
        }
        event
    }

    /// Stores `key` with a payload of `size` bytes. Pending resizes are
    /// applied first (this is the insertion that follows a miss), then the
    /// item is admitted to its routed partition; evicted keys cascade into
    /// the shadow queues and are appended to `evicted`, the resize's first.
    /// `old` is where the caller's index holds the copy
    /// of `key` this write replaces, if it holds one: that copy is gone
    /// afterwards, whichever side it was on and whether or not the new item
    /// was admitted.
    ///
    /// If the key is still sitting in one of the shadow structures (because
    /// the preceding GET could not be classified — the wire-protocol path
    /// does not know the item size until the SET arrives), the insertion
    /// classifies it now: the cliff scaler is updated and the outcome
    /// reports the hill-climbing signal. A GET that already probed the
    /// shadow queues removed the key, so the signal is never counted twice.
    pub fn set(
        &mut self,
        key: Key,
        size: u64,
        mut old: Option<(Partition, NodeHandle)>,
        evicted: &mut Vec<Key>,
    ) -> SetOutcome {
        self.stats.record_set();
        // Deferred shadow classification.
        let shadow = self.probe_shadows(key, [Partition::Left, Partition::Right]);
        let mut outcome = SetOutcome {
            cliff_shadow_hit: matches!(shadow, Some((_, true))),
            hill_shadow_hit: matches!(shadow, Some((_, false))),
            ..SetOutcome::default()
        };
        self.stats.cliff_shadow_hits += u64::from(outcome.cliff_shadow_hit);
        self.stats.shadow_hits += u64::from(outcome.hill_shadow_hit);
        if let (true, Some((partition, true))) = (self.cliff_scaling_active(), shadow) {
            self.scaler.on_event(match partition {
                Partition::Right => PointerEvent::RightQueueShadowHit,
                Partition::Left => PointerEvent::LeftQueueShadowHit,
            });
            self.resize_pending = true;
        }

        if self.resize_pending {
            let from = evicted.len();
            self.apply_sizes(evicted);
            self.resize_pending = false;
            // The resize may have evicted the very copy being replaced.
            if old.is_some() && evicted[from..].contains(&key) {
                old = None;
            }
        }
        let partition = self.route(key);
        let (queue, other, shadow) = match partition {
            Partition::Left => (&mut self.left, &mut self.right, &mut self.left_shadow),
            Partition::Right => (&mut self.right, &mut self.left, &mut self.right_shadow),
        };
        // Neither a copy on the other side nor what that side's policy
        // remembers about the key must outlive the write.
        let replaced = match old {
            Some((side, handle)) if side != partition => {
                other.remove(handle);
                None
            }
            same_side => same_side.map(|(_, handle)| handle),
        };
        other.forget(key);
        let from = evicted.len();
        let admission = queue.set(key, size, replaced, evicted);
        for &key in &evicted[from..] {
            shadow.insert(key);
        }
        if evicted.len() > from {
            // A side that evicted evicts again soon: its next victim's lines
            // are asked for now and have arrived by then.
            outcome.next_victim = queue.prefetch_next_victim();
            if let Some(next) = outcome.next_victim {
                shadow.prefetch_insert(next);
            }
        }
        self.stats.record_evictions((evicted.len() - from) as u64);
        outcome.admitted = admission.admitted;
        outcome.slot = admission.handle.map(|handle| (partition, handle));
        outcome
    }

    /// Removes the item `handle` names on `side` (a DELETE, or a copy a
    /// write elsewhere supersedes); its key does not enter the shadow queues.
    pub fn remove(&mut self, side: Partition, handle: NodeHandle) {
        let key = self.side_mut(side).remove(handle);
        // Either side's policy may have marked the key on an earlier miss.
        self.left.forget(key);
        self.right.forget(key);
    }

    /// Applies the current pointer-derived sizes to the two partitions and
    /// their shadow queues, evicting eagerly so the split takes effect.
    /// Appends the keys evicted by the resize to `evicted` so callers can
    /// keep any external residency index in sync.
    fn apply_sizes(&mut self, evicted: &mut Vec<Key>) {
        let charge = self.config.charge_per_item;
        let total_items = self.target_items();
        let left_items = if self.cliff_scaling_active() {
            self.scaler.physical_sizes().0
        } else {
            // Unpartitioned operation: the right sub-queue is the queue.
            0
        };
        self.left.set_target_bytes(left_items * charge);
        // Hand the byte remainder (sub-item rounding) to the right queue so
        // the full budget stays usable.
        self.right
            .set_target_bytes(self.target_bytes - left_items * charge);
        let start = evicted.len();
        for (queue, shadow) in [
            (&mut self.left, &mut self.left_shadow),
            (&mut self.right, &mut self.right_shadow),
        ] {
            let from = evicted.len();
            queue.evict_to_target(evicted);
            for &key in &evicted[from..] {
                shadow.insert(key);
            }
        }
        self.stats.record_evictions((evicted.len() - start) as u64);
        // Split the hill-climbing shadow entries in proportion to the
        // partition sizes (§5.1).
        let entries = self.config.hill_shadow_entries;
        let left_entries = if total_items == 0 {
            entries / 2
        } else {
            ((entries as u64 * left_items) / total_items.max(1)) as usize
        };
        self.left_shadow.set_far_capacity(left_entries.min(entries));
        self.right_shadow
            .set_far_capacity(entries - left_entries.min(entries));
    }

    /// Applies the current byte budget immediately, evicting as needed, and
    /// appends the evicted keys to `evicted`. Used when memory is taken away
    /// from this queue by the hill-climbing layer: reassigning a slab page
    /// in Memcached evicts that page's items right away, so the donated
    /// memory becomes available to the winner without over-committing the
    /// total.
    pub fn enforce_target(&mut self, evicted: &mut Vec<Key>) {
        self.apply_sizes(evicted);
        self.resize_pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_core::key::KeyMap;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// A partitioned queue with the index its owner keeps for it.
    struct Keyed {
        queue: PartitionedQueue,
        index: KeyMap<(Partition, NodeHandle)>,
    }

    impl Keyed {
        fn new(config: PartitionedQueueConfig) -> Keyed {
            Keyed {
                queue: PartitionedQueue::new(config),
                index: KeyMap::default(),
            }
        }

        fn get(&mut self, key: Key) -> QueueEvent {
            match self.index.get(&key) {
                Some(&(side, handle)) => self.queue.hit(side, handle),
                None => self.queue.miss(key),
            }
        }

        /// The outcome and the keys the write evicted.
        fn set(&mut self, key: Key, size: u64) -> (SetOutcome, Vec<Key>) {
            let (old, mut evicted) = (self.index.remove(&key), Vec::new());
            let outcome = self.queue.set(key, size, old, &mut evicted);
            for evicted in &evicted {
                self.index.remove(evicted);
            }
            if let Some(slot) = outcome.slot {
                self.index.insert(key, slot);
            }
            assert_eq!(self.index.len(), self.queue.len());
            (outcome, evicted)
        }
    }

    impl std::ops::Deref for Keyed {
        type Target = PartitionedQueue;
        fn deref(&self) -> &PartitionedQueue {
            &self.queue
        }
    }

    impl std::ops::DerefMut for Keyed {
        fn deref_mut(&mut self) -> &mut PartitionedQueue {
            &mut self.queue
        }
    }

    fn small_queue(target_bytes: u64) -> Keyed {
        Keyed::new(PartitionedQueueConfig {
            target_bytes,
            charge_per_item: 100,
            cliff_shadow_items: 8,
            hill_shadow_entries: 64,
            credit_items: 4,
            cliff_min_items: 10_000_000, // effectively disabled
            enable_cliff_scaling: true,
            ..PartitionedQueueConfig::default()
        })
    }

    #[test]
    fn behaves_like_a_cache_when_split_evenly() {
        let mut q = small_queue(100 * 100); // 100 items
        for i in 0..50 {
            q.set(key(i), 52); // charge 100
        }
        let mut hits = 0;
        for i in 0..50 {
            if q.get(key(i)).hit {
                hits += 1;
            }
        }
        assert_eq!(hits, 50, "everything fits, everything hits");
        assert!(q.used_bytes() <= 100 * 100);
        assert_eq!(q.stats().gets, 50);
        assert_eq!(q.stats().hits, 50);
    }

    #[test]
    fn evictions_cascade_into_shadow_queues() {
        // Cliff scaling off: the right side takes every key and all 8 hill
        // entries, behind its 4-item cliff shadow.
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 20 * 100,
            charge_per_item: 100,
            cliff_shadow_items: 4,
            hill_shadow_entries: 8,
            enable_cliff_scaling: false,
            ..PartitionedQueueConfig::default()
        });
        for i in 0..60 {
            q.set(key(i), 52);
        }
        assert_eq!(q.len(), 20);
        // Keys 0..40 were evicted in that order: newest first, 4 are in the
        // cliff shadow, the next 8 in the hill shadow, the rest nowhere.
        let signals: Vec<(bool, bool)> = (0..40)
            .rev()
            .map(|i| {
                let e = q.get(key(i));
                (e.cliff_shadow_hit, e.hill_shadow_hit)
            })
            .collect();
        let expected: Vec<(bool, bool)> = (0..40)
            .map(|rank| (rank < 4, (4..12).contains(&rank)))
            .collect();
        assert_eq!(signals, expected);
        assert_eq!((q.stats().cliff_shadow_hits, q.stats().shadow_hits), (4, 8));
    }

    /// A resize on an overwrite can evict the very copy being replaced: its
    /// key enters the shadow and is admitted again, resident and shadowed at
    /// once. Evicted again after that ghost has moved past the cliff shadow,
    /// the key is still remembered once, so one later miss is a shadow hit.
    #[test]
    fn a_key_evicted_twice_is_remembered_once() {
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 10 * 100,
            charge_per_item: 100,
            cliff_shadow_items: 2,
            hill_shadow_entries: 16,
            enable_cliff_scaling: false,
            ..PartitionedQueueConfig::default()
        });
        for i in 0..10 {
            q.set(key(i), 52);
        }
        // Shrink by one item and overwrite the oldest key: the resize
        // evicts the copy being replaced, then the write admits it again
        // (and evicts the next oldest).
        q.set_target_bytes(9 * 100);
        let (outcome, evicted) = q.set(key(0), 52);
        assert_eq!(evicted, vec![key(0), key(1)]);
        assert!(outcome.slot.is_some());
        // Nine new keys evict 2..=9, which push the ghost of 0 past the
        // cliff shadow, and then 0 itself.
        for i in 100..109 {
            q.set(key(i), 52);
        }
        assert!(!q.index.contains_key(&key(0)));
        let first = q.get(key(0));
        let second = q.get(key(0));
        assert!(first.cliff_shadow_hit);
        assert!(!second.cliff_shadow_hit && !second.hill_shadow_hit);
        assert_eq!(q.stats().cliff_shadow_hits + q.stats().shadow_hits, 1);
    }

    /// The key a write names as its side's next victim is the first key
    /// that side's next evicting write evicts. Named wrongly, the prefetch
    /// would look just as correct and save nothing. Left out are the writes
    /// that resize first (a resize pending, or a cliff-shadow hit moving the
    /// pointers) and the write of the named key itself, whose old copy
    /// leaves before anything is evicted; the script only writes, so no hit
    /// moves a named key in between.
    #[test]
    fn the_named_next_victim_is_the_next_key_evicted() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 2_000 * 100,
            charge_per_item: 100,
            cliff_shadow_items: 128,
            hill_shadow_entries: 4_096,
            credit_items: 16,
            cliff_min_items: 1_000,
            ..PartitionedQueueConfig::default()
        });
        assert!(q.cliff_scaling_active());
        let mut rng = StdRng::seed_from_u64(5);
        let (mut named, mut checked) = ([None; 2], 0);
        for _ in 0..60_000 {
            let k = key(rng.gen_range(0..3_000));
            let before = (q.resize_pending, q.stats().cliff_shadow_hits);
            let (outcome, evicted) = q.set(k, 52);
            let resized = before.0 || q.stats().cliff_shadow_hits > before.1;
            let Some((side, _)) = outcome.slot else {
                continue;
            };
            let side = usize::from(side == Partition::Right);
            if let (Some(&first), Some(expected), false) = (
                evicted.first(),
                named[side],
                resized || named[side] == Some(k),
            ) {
                assert_eq!(first, expected);
                checked += 1;
            }
            if resized {
                named = [None; 2];
            }
            named = named.map(|n| n.filter(|&n| n != k));
            if !evicted.is_empty() {
                named[side] = outcome.next_victim;
            }
        }
        assert!(checked > 20_000, "{checked} evicting writes checked");
    }

    #[test]
    fn tail_hits_are_reported() {
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 40 * 100,
            charge_per_item: 100,
            cliff_shadow_items: 4,
            hill_shadow_entries: 16,
            credit_items: 1,
            cliff_min_items: 10_000_000,
            enable_cliff_scaling: true,
            ..PartitionedQueueConfig::default()
        });
        for i in 0..40 {
            q.set(key(i), 52);
        }
        // The coldest resident keys sit in the tail regions of their
        // partitions; at least one probe of an early key must be a tail hit.
        let mut tail_hits = 0;
        for i in 0..8 {
            let e = q.get(key(i));
            if e.hit && e.tail_hit {
                tail_hits += 1;
            }
        }
        assert!(tail_hits > 0, "cold resident keys should produce tail hits");
    }

    #[test]
    fn resize_is_applied_on_the_next_insertion() {
        let mut q = small_queue(100 * 100);
        for i in 0..100 {
            q.set(key(i), 52);
        }
        let before = q.len();
        q.set_target_bytes(20 * 100);
        assert_eq!(q.len(), before, "shrink must wait for the next insertion");
        q.set(key(1_000), 52);
        assert!(
            q.used_bytes() <= 20 * 100,
            "the insertion after the resize must enforce the new budget"
        );
    }

    #[test]
    fn growing_budget_admits_more_items() {
        let mut q = small_queue(10 * 100);
        for i in 0..50 {
            q.set(key(i), 52);
        }
        assert!(q.len() <= 10);
        q.set_target_bytes(200 * 100);
        for i in 100..250 {
            q.set(key(i), 52);
        }
        assert!(q.len() > 100, "queue should grow into the new budget");
        assert!(q.used_bytes() <= 200 * 100);
    }

    #[test]
    fn cliff_scaling_lifts_a_cyclic_scan_off_the_cliff_floor() {
        // A cyclic scan 10% larger than the queue is the canonical
        // performance cliff: a plain LRU queue of the same size hits (almost)
        // nothing, because every item is evicted just before its reuse.
        // Cliff scaling splits the queue unevenly so that one partition fits
        // its share of the scan, recovering a large fraction of the hits.
        let universe = 2_200u64;
        let rounds = 12;
        let make = |enable_cliff_scaling: bool| {
            Keyed::new(PartitionedQueueConfig {
                target_bytes: 2_000 * 100,
                charge_per_item: 100,
                cliff_shadow_items: 128,
                hill_shadow_entries: 4_096,
                credit_items: 16,
                cliff_min_items: 1_000,
                enable_cliff_scaling,
                ..PartitionedQueueConfig::default()
            })
        };
        let run = |q: &mut Keyed| {
            for _ in 0..rounds {
                for i in 0..universe {
                    let e = q.get(key(i));
                    if !e.hit {
                        q.set(key(i), 52);
                    }
                }
            }
            q.stats()
        };
        let mut managed = make(true);
        assert!(managed.cliff_scaling_active());
        let managed_stats = run(&mut managed);

        let mut baseline = make(false);
        assert!(!baseline.cliff_scaling_active());
        let baseline_stats = run(&mut baseline);

        // The scan produced cliff-shadow signals and an uneven split.
        assert!(managed_stats.cliff_shadow_hits > 0);
        let (lt, rt) = managed.partition_targets();
        assert_ne!(lt, rt, "cliff scaling should produce an uneven split");
        // The baseline even split behaves like plain LRU on a too-large scan:
        // almost no hits. Cliff scaling must recover a substantial fraction.
        assert!(
            baseline_stats.hit_ratio().value() < 0.05,
            "baseline should sit at the cliff floor, got {:.3}",
            baseline_stats.hit_ratio().value()
        );
        assert!(
            managed_stats.hit_ratio().value() > 0.25,
            "cliff scaling should lift the hit rate well off the floor, got {:.3}",
            managed_stats.hit_ratio().value()
        );
    }

    #[test]
    fn disabled_cliff_scaling_behaves_as_a_single_queue() {
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 2_000 * 100,
            charge_per_item: 100,
            enable_cliff_scaling: false,
            ..PartitionedQueueConfig::default()
        });
        assert!(!q.cliff_scaling_active());
        for i in 0..5_000u64 {
            let e = q.get(key(i % 2_600));
            if !e.hit {
                q.set(key(i % 2_600), 52);
            }
        }
        assert!((q.ratio() - 0.5).abs() < f64::EPSILON);
        // Without cliff scaling the whole budget backs one (the right)
        // sub-queue, i.e. the structure degenerates to a single LRU queue.
        let (lt, rt) = q.partition_targets();
        assert_eq!(lt, 0, "left partition unused when cliff scaling is off");
        assert_eq!(rt, 2_000 * 100);
        assert!(q.used_bytes() <= 2_000 * 100);
    }

    #[test]
    fn a_deleted_item_is_gone_from_its_partition() {
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 50 * 100,
            charge_per_item: 100,
            ..PartitionedQueueConfig::default()
        });
        for i in 0..20 {
            q.set(key(i), 10);
        }
        let (side, handle) = q.index.remove(&key(3)).unwrap();
        assert_eq!(q.peek(side, handle), Some((key(3), 58)));
        q.remove(side, handle);
        assert_eq!(q.len(), 19);
        assert!(!q.get(key(3)).hit);
    }

    #[test]
    fn an_overwrite_replaces_the_copy_on_either_side() {
        // Cliff scaling active: keys are hash-routed, and the ratio (hence
        // a key's side) moves as the scan walks the pointers.
        let mut q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 2_000 * 100,
            charge_per_item: 100,
            cliff_shadow_items: 128,
            hill_shadow_entries: 4_096,
            credit_items: 16,
            cliff_min_items: 1_000,
            ..PartitionedQueueConfig::default()
        });
        for round in 0..6 {
            for i in 0..2_200 {
                if !q.get(key(i)).hit || round % 2 == 1 {
                    q.set(key(i), 52);
                }
            }
        }
        assert!(q.used_bytes() <= 2_000 * 100);
        for (&k, &(side, handle)) in q.index.iter() {
            assert_eq!(q.peek(side, handle), Some((k, 100)));
        }
    }

    #[test]
    fn routing_is_deterministic_for_a_fixed_ratio() {
        // A queue large enough for cliff scaling to be active, so requests
        // are hash-partitioned by the Talus ratio.
        let q = Keyed::new(PartitionedQueueConfig {
            target_bytes: 5_000 * 100,
            charge_per_item: 100,
            cliff_shadow_items: 128,
            hill_shadow_entries: 1_024,
            credit_items: 16,
            cliff_min_items: 1_000,
            enable_cliff_scaling: true,
            ..PartitionedQueueConfig::default()
        });
        assert!(q.cliff_scaling_active());
        for i in 0..100 {
            assert_eq!(q.route(key(i)), q.route(key(i)));
        }
        // Roughly half the keys go to each side under an even ratio.
        let left = (0..1_000)
            .filter(|&i| q.route(key(i)) == Partition::Left)
            .count();
        assert!((350..=650).contains(&left), "left share = {left}");

        // Below the threshold everything is routed to the right sub-queue.
        let small = small_queue(100 * 100);
        assert!(!small.cliff_scaling_active());
        assert!((0..100).all(|i| small.route(key(i)) == Partition::Right));
    }
}
