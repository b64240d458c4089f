//! The combined Cliffhanger controller for one application (§4.3).
//!
//! [`Cliffhanger`] is a drop-in, slab-structured cache like
//! [`cache_core::SlabCache`], except that memory is *managed*: every slab
//! class is a [`PartitionedQueue`] (cliff scaling within the class) and a
//! [`HillClimber`] moves credits between classes whenever a request hits a
//! class's long shadow queue (hill climbing across classes). Both algorithms
//! run purely on local signals, per request, with no profiling phase.
//!
//! The cache has one hash table, as Memcached has: every resident key maps
//! to its class, the partition holding it, the handle that partition's queue
//! issued, and the value. The queues below hold order and bytes only, so a
//! GET hit is one probe of that table plus a relink in one queue, and the
//! table is changed in one place per path: a SET writes the slot the queue
//! reports and drops the keys it reports evicted.

use crate::config::CliffhangerConfig;
use crate::events::{EventSink, SinkSlot};
use crate::hill_climb::HillClimber;
use crate::partitioned_queue::{Partition, PartitionedQueue, PartitionedQueueConfig, QueueEvent};
use cache_core::key::KeyMap;
use cache_core::prefetch::Sweep;
use cache_core::{CacheStats, ClassId, Footprint, Key, NodeHandle};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// A point-in-time view of one managed slab class (used by experiments that
/// plot allocations over time, e.g. Figure 8).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSnapshot {
    /// The slab class.
    pub class: u32,
    /// Chunk size of the class in bytes.
    pub chunk_size: u64,
    /// Byte budget currently assigned by hill climbing.
    pub target_bytes: u64,
    /// Bytes in use.
    pub used_bytes: u64,
    /// Resident items.
    pub items: usize,
    /// The Talus request ratio of the class's partitioned queue.
    pub ratio: f64,
    /// The cliff-scaling pointers (left, right) in items.
    pub pointers: (u64, u64),
    /// Whether the class is currently scaling a detected cliff.
    pub scaling_cliff: bool,
    /// Per-class statistics.
    pub stats: CacheStats,
}

/// What the index holds per resident key: where the item is queued and the
/// value itself. The class is kept in 16 bits, beside the side's byte
/// ([`cache_core::SlabConfig::new`] refuses a ladder that needs more), so
/// the two fill what would otherwise be padding.
#[derive(Debug)]
struct Resident<V> {
    class: u16,
    side: Partition,
    handle: NodeHandle,
    value: V,
}

impl<V> Resident<V> {
    fn class(&self) -> ClassId {
        ClassId::new(self.class.into())
    }
}

/// The Cliffhanger-managed cache for a single application.
#[derive(Debug)]
pub struct Cliffhanger<V> {
    config: CliffhangerConfig,
    /// Each class's chunk size, smallest first: the ladder every request
    /// looks its size up in, computed once (`SlabConfig::class_for_size`
    /// walks it in floating point per call).
    chunk_sizes: Vec<u64>,
    queues: Vec<PartitionedQueue>,
    climber: HillClimber,
    /// Memory not yet granted to any class (drained first-come-first-serve
    /// while the cache warms up, exactly like Memcached's free pages).
    free_bytes: u64,
    /// Every resident key — the equivalent of Memcached's global hash
    /// table, and the only place a key is looked up.
    index: KeyMap<Resident<V>>,
    /// Aggregate counters, evictions included (counted as the queues hand
    /// evicted keys back, so reading them walks nothing).
    stats: CacheStats,
    /// The keys the last evicting operation's queues handed back, in the
    /// order they went: one buffer, cleared by each operation that may
    /// evict, so an eviction allocates nothing for its key.
    evicted: Vec<Key>,
    /// Optional host sink narrating allocation decisions (free-pool grants,
    /// cliff-scaler ratio steps). `None` keeps every hook zero-cost.
    sink: SinkSlot,
    /// Last 5%-step bucket of each class's Talus ratio reported to the
    /// sink, so per-twitch pointer moves do not flood the host's recorder.
    ratio_buckets: Vec<i16>,
}

impl<V> Cliffhanger<V> {
    /// Creates a managed cache from its configuration.
    ///
    /// Initialisation mirrors the paper's prototype, which runs on top of
    /// Memcached's own slab allocation: every class starts with a small
    /// floor and the rest of the reservation sits in a free pool that is
    /// granted first-come-first-serve as classes need room (exactly what
    /// stock Memcached does while it still has free pages). Once the pool is
    /// exhausted, the only way a class grows is by hill-climbing credits
    /// taken from another class.
    pub fn new(config: CliffhangerConfig) -> Self {
        config.validate();
        let num_classes = config.slab.num_classes();
        // The per-class floor must stay below the even-split share, otherwise
        // no queue could ever afford to give up a credit and hill climbing
        // would be frozen on small reservations. Under two bytes a class
        // there is no floor, so the engine holds exactly its budget.
        let even_share = config.total_bytes / num_classes.max(1) as u64;
        let floor = config.min_class_bytes.min(even_share / 2);
        let initial_targets = vec![floor; num_classes];
        let free_bytes = config
            .total_bytes
            .saturating_sub(floor * num_classes as u64);
        let mut climber =
            HillClimber::new(initial_targets, config.credit_bytes, floor, config.seed);
        // Per-class credit floor: every class wins at least one chunk's worth
        // of bytes per shadow hit, and once grown it never donates below one
        // resident item. With the global 1–4 KB credit a 16–64 KB class
        // needed dozens of wins before a single item fit again, so random
        // loser picks drained giant classes far faster than hill climbing
        // could refill them (the slow-convergence case of the shard
        // experiments); chunk-granular credits are the same medicine as
        // Memcached's page-granular slab rebalancer.
        for c in 0..num_classes {
            let charge = config.charge_per_item(ClassId::new(c as u32));
            climber.set_queue_credit(c, config.credit_bytes.max(charge));
            climber.set_queue_floor(c, floor.max(charge));
        }
        let queues = (0..num_classes as u32)
            .map(|c| {
                let class = ClassId::new(c);
                PartitionedQueue::new(PartitionedQueueConfig {
                    policy: config.policy,
                    target_bytes: climber.target(c as usize),
                    charge_per_item: config.charge_per_item(class),
                    cliff_shadow_items: config.cliff_shadow_items,
                    hill_shadow_entries: config.hill_shadow_entries(class),
                    credit_items: config.credit_items(class),
                    cliff_min_items: config.cliff_min_items,
                    enable_cliff_scaling: config.enable_cliff_scaling,
                })
            })
            .collect();
        Cliffhanger {
            chunk_sizes: config.slab.chunk_sizes(),
            config,
            queues,
            climber,
            free_bytes,
            index: KeyMap::default(),
            stats: CacheStats::new(),
            evicted: Vec::new(),
            sink: SinkSlot::default(),
            // Fresh partitioned queues start with an even 0.5 split.
            ratio_buckets: vec![10; num_classes],
        }
    }

    /// Installs a host sink for allocation decisions (free-pool grants and
    /// cliff-scaler ratio steps). The sink is called inline from the data
    /// path, so implementations must be cheap and non-blocking — the
    /// intended host sink appends to a bounded ring journal.
    pub fn set_event_sink(&mut self, sink: Arc<dyn EventSink + Send + Sync>) {
        self.sink = SinkSlot(Some(sink));
    }

    /// Reports the class's Talus ratio to the sink when it crossed into a
    /// new 5% step since the last report.
    fn note_ratio(&mut self, idx: usize) {
        Self::note_ratio_of(
            &self.sink,
            &self.queues[idx],
            &mut self.ratio_buckets[idx],
            idx,
        );
    }

    fn note_ratio_of(sink: &SinkSlot, queue: &PartitionedQueue, last: &mut i16, idx: usize) {
        let Some(sink) = &sink.0 else { return };
        let ratio = queue.ratio();
        let bucket = (ratio * 20.0).round() as i16;
        if bucket != *last {
            *last = bucket;
            sink.scaler_ratio(idx as u32, ratio);
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CliffhangerConfig {
        &self.config
    }

    /// The slab class an item of `size` bytes maps to.
    pub fn class_for_size(&self, size: u64) -> Option<ClassId> {
        // The first class whose chunk holds `size`; the last chunk is the
        // largest item size, so a larger one has none.
        let class = self.chunk_sizes.partition_point(|&chunk| chunk < size);
        (class < self.chunk_sizes.len()).then(|| ClassId::new(class as u32))
    }

    /// Number of slab classes.
    pub fn num_classes(&self) -> usize {
        self.queues.len()
    }

    /// Looks up `key`; `size` routes the request to its slab class. A key
    /// resident in another class is a miss in this one.
    pub fn get(&mut self, key: Key, size: u64) -> Option<(ClassId, QueueEvent)> {
        let class = self.class_for_size(size)?;
        let event = match self.touch(key, Some(class)) {
            Some((_, event, _)) => event,
            None => self.miss_in_class(key, class),
        };
        Some((class, event))
    }

    /// Looks up `key` without a size hint, as the wire-protocol GET path
    /// must (the item size is unknown until a value is found). Resident keys
    /// are found by the index in one probe; misses are recorded but their
    /// shadow classification is deferred to the demand-fill SET, which
    /// knows the size (see [`PartitionedQueue::set`]).
    pub fn get_untyped(&mut self, key: Key) -> (ClassId, QueueEvent) {
        match self.touch(key, None) {
            Some((class, event, _)) => (class, event),
            None => {
                let event = QueueEvent {
                    hit: false,
                    partition: Partition::Left,
                    tail_hit: false,
                    cliff_shadow_hit: false,
                    hill_shadow_hit: false,
                };
                (ClassId::new(0), event)
            }
        }
    }

    /// [`Cliffhanger::get_untyped`] that lends the value on a hit: the GET
    /// of a server, one index probe for the access and the value together.
    pub fn lookup(&mut self, key: Key) -> Option<&V> {
        self.touch(key, None).map(|(_, _, value)| value)
    }

    /// The hit half of every GET. Finds `key` (in `only`, when the caller
    /// knows the class), records the access on its queue and lends the
    /// value. A miss without a class is counted here, since nothing else
    /// will see it; a miss in a known class is the caller's to classify.
    fn touch(&mut self, key: Key, only: Option<ClassId>) -> Option<(ClassId, QueueEvent, &V)> {
        let found = self.index.get(&key);
        let Some(item) = found.filter(|item| only.map_or(true, |c| c == item.class())) else {
            if only.is_none() {
                self.stats.record_get(false);
            }
            return None;
        };
        let idx = item.class().index();
        let event = self.queues[idx].hit(item.side, item.handle);
        self.stats.record_get(true);
        if event.tail_hit {
            // Only pointer events (tail / cliff-shadow hits) can move the
            // Talus ratio, so this is the one place a hit can step it.
            Self::note_ratio_of(
                &self.sink,
                &self.queues[idx],
                &mut self.ratio_buckets[idx],
                idx,
            );
        }
        Some((item.class(), event, &item.value))
    }

    fn miss_in_class(&mut self, key: Key, class: ClassId) -> QueueEvent {
        let idx = class.index();
        let event = self.queues[idx].miss(key);
        self.stats.record_get(false);
        if event.hill_shadow_hit {
            self.stats.shadow_hits += 1;
            self.evicted.clear();
            self.hill_climb(idx);
        }
        if event.cliff_shadow_hit {
            self.stats.cliff_shadow_hits += 1;
            self.note_ratio(idx);
        }
        event
    }

    /// Drops the index entries of the evicted keys at `keys` in the buffer.
    fn unindex(&mut self, keys: Range<usize>) {
        self.stats.record_evictions(keys.len() as u64);
        for key in &self.evicted[keys] {
            self.index.remove(key);
        }
    }

    /// While the free pool is non-empty, classes grow into it on demand
    /// (Memcached's first-come-first-serve page grants); afterwards memory
    /// only moves through hill climbing.
    fn grant_from_free_pool(&mut self, class: ClassId, size: u64) {
        if self.free_bytes == 0 {
            return;
        }
        let idx = class.index();
        let charge = self.config.charge_per_item(class).max(size);
        // Headroom covers the queue's worst-case slack when it is actually
        // full: with cliff scaling active the queue runs two partitions,
        // each of which can be item-full while still `item cost - 1` bytes
        // under its own split of the target, so `target - used` can exceed
        // one charge without a single byte being admittable (a one-charge
        // threshold deadlocked there, stranding the free pool). Partition
        // skew beyond that is caught by [`Cliffhanger::grant_on_eviction`].
        let headroom = 2 * (charge + cache_core::ITEM_OVERHEAD);
        let needed = self.queues[idx].used_bytes() + headroom;
        let target = self.climber.target(idx);
        if needed <= target {
            return;
        }
        let grant = (needed - target)
            .max(self.config.credit_bytes)
            .min(self.free_bytes);
        let new_target = target + grant;
        self.climber.set_target(idx, new_target);
        self.queues[idx].set_target_bytes(new_target);
        self.free_bytes -= grant;
        if let Some(sink) = &self.sink.0 {
            sink.free_pool_grant(idx as u32, grant);
        }
    }

    /// The demand-driven half of free-pool granting: a class that just
    /// *evicted* while free memory exists is starved no matter what its
    /// used-vs-target arithmetic says (the cliff scaler can pin one
    /// partition at a size routing underfills, leaving permanent paper
    /// slack), so the eviction itself is the fullness signal — exactly
    /// Memcached's rule of granting a free page to whichever class evicts
    /// while pages remain.
    fn grant_on_eviction(&mut self, class: ClassId) {
        if self.free_bytes == 0 {
            return;
        }
        let idx = class.index();
        let grant = self
            .config
            .credit_bytes
            .max(self.config.charge_per_item(class))
            .min(self.free_bytes);
        let new_target = self.climber.target(idx) + grant;
        self.climber.set_target(idx, new_target);
        self.queues[idx].set_target_bytes(new_target);
        self.free_bytes -= grant;
        if let Some(sink) = &self.sink.0 {
            sink.free_pool_grant(idx as u32, grant);
        }
    }

    fn hill_climb(&mut self, winner: usize) {
        if !self.config.enable_hill_climbing {
            return;
        }
        if let Some(transfer) = self.climber.on_shadow_hit(winner) {
            let winner_target = self.climber.target(transfer.winner);
            let loser_target = self.climber.target(transfer.loser);
            self.queues[transfer.winner].set_target_bytes(winner_target);
            self.queues[transfer.loser].set_target_bytes(loser_target);
            // The donated memory is reclaimed immediately (reassigning a slab
            // page evicts its items), so the sum of resident bytes can never
            // exceed the reservation just because the loser happens to be
            // idle.
            let from = self.evicted.len();
            self.queues[transfer.loser].enforce_target(&mut self.evicted);
            self.unindex(from..self.evicted.len());
        }
    }

    /// Stores `key` with a payload of `size` bytes. Returns the class and
    /// whether the item was admitted, or `None` if the item is too large for
    /// any slab class.
    pub fn set(&mut self, key: Key, size: u64, value: V) -> Option<(ClassId, bool)> {
        let class = self.class_for_size(size)?;
        self.stats.record_set();
        // The write replaces whatever copy there is: one in another class
        // (the item changed size class) leaves its queue now — its index
        // entry stays, for the write to overwrite or remove below — one in
        // this class with its queue's set.
        let mut old = self
            .index
            .get(&key)
            .map(|item| (item.class(), item.side, item.handle));
        if let Some((old_class, side, handle)) = old.filter(|&(old_class, ..)| old_class != class) {
            self.queues[old_class.index()].remove(side, handle);
            old = None;
        }
        self.grant_from_free_pool(class, size);
        let replaced = old.map(|(_, side, handle)| (side, handle));
        self.evicted.clear();
        let outcome = self.queues[class.index()].set(key, size, replaced, &mut self.evicted);
        let evicted = self.evicted.len();
        if outcome.hill_shadow_hit {
            self.stats.shadow_hits += 1;
            self.hill_climb(class.index());
        }
        if outcome.cliff_shadow_hit {
            self.stats.cliff_shadow_hits += 1;
            self.note_ratio(class.index());
        }
        self.unindex(0..evicted);
        if let Some(next) = outcome.next_victim {
            self.index.prefetch(next);
        }
        if evicted > 0 {
            self.grant_on_eviction(class);
        }
        match outcome.slot {
            // Overwrites the old entry where it stands.
            Some((side, handle)) => {
                let item = Resident {
                    class: u16::try_from(class.0).expect("class ids fit in 16 bits"),
                    side,
                    handle,
                    value,
                };
                self.index.insert(key, item);
            }
            // Turned away, or evicted by its own insertion: either way the
            // copy it replaced is gone too.
            None => drop(self.index.remove(&key)),
        }
        Some((class, outcome.admitted))
    }

    /// Deletes `key` from whichever class holds it.
    pub fn delete(&mut self, key: Key) -> bool {
        match self.index.remove(&key) {
            Some(item) => {
                self.queues[item.class().index()].remove(item.side, item.handle);
                true
            }
            None => false,
        }
    }

    /// The stored value for `key`, if resident (no effect on recency).
    pub fn value(&self, key: Key) -> Option<&V> {
        self.index.get(&key).map(|item| &item.value)
    }

    /// One read-only sweep ahead of an operation on `key` (see
    /// [`cache_core::prefetch`]): no statistics, recency or shadow queue.
    /// After the slot sweep, which reads nothing, lends a resident item's
    /// value, so the caller can ask for its bytes.
    pub fn prefetch(&self, key: Key, sweep: Sweep) -> Option<&V> {
        if sweep == Sweep::Slot {
            self.index.prefetch(key);
            return None;
        }
        let item = self.index.get(&key)?;
        self.queues[item.class().index()].prefetch(item.side, item.handle, sweep);
        Some(&item.value)
    }

    /// Whether `key` is resident in any class.
    pub fn contains(&self, key: Key) -> bool {
        self.index.contains_key(&key)
    }

    /// The class `key` is resident in, if it is resident.
    pub fn class_of(&self, key: Key) -> Option<ClassId> {
        self.index.get(&key).map(|item| item.class())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Per-class statistics, indexed by class.
    pub fn class_stats(&self) -> Vec<CacheStats> {
        self.queues.iter().map(|q| q.stats()).collect()
    }

    /// Total bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.used_bytes()).sum()
    }

    /// Total resident items.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The total memory budget: the sum of class targets plus whatever is
    /// still in the free pool. Conserved by hill climbing and by free-pool
    /// grants alike.
    pub fn total_bytes(&self) -> u64 {
        self.climber.total() + self.free_bytes
    }

    /// Memory not yet granted to any slab class.
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Current byte target of one class.
    pub fn class_target(&self, class: ClassId) -> u64 {
        self.climber.target(class.index())
    }

    /// The hill-climbing credit one class wins per shadow hit (at least one
    /// chunk; see the per-class credit floor in [`Cliffhanger::new`]).
    pub fn class_credit(&self, class: ClassId) -> u64 {
        self.climber.queue_credit(class.index())
    }

    /// The floor below which hill climbing never shrinks one class.
    pub fn class_floor(&self, class: ClassId) -> u64 {
        self.climber.queue_floor(class.index())
    }

    /// Snapshots of every class (allocation, pointers, ratios, stats).
    pub fn class_snapshots(&self) -> Vec<ClassSnapshot> {
        self.queues
            .iter()
            .enumerate()
            .map(|(idx, q)| ClassSnapshot {
                class: idx as u32,
                chunk_size: self.config.slab.chunk_size(ClassId::new(idx as u32)),
                target_bytes: q.target_bytes(),
                used_bytes: q.used_bytes(),
                items: q.len(),
                ratio: q.ratio(),
                pointers: q.pointers(),
                scaling_cliff: q.is_scaling_a_cliff(),
                stats: q.stats(),
            })
            .collect()
    }

    /// Number of hill-climbing credit transfers performed so far.
    pub fn transfers(&self) -> u64 {
        self.climber.transfers()
    }

    /// Direct access to one class's partitioned queue (diagnostics, tests).
    pub fn queue(&self, class: ClassId) -> &PartitionedQueue {
        &self.queues[class.index()]
    }

    /// Grows the cache's total budget by `bytes` from outside (the
    /// cross-shard rebalancer). The new memory lands in the free pool, where
    /// classes grow into it on demand exactly like Memcached's free pages —
    /// and from there the within-cache hill climber takes over, so an outer
    /// transfer needs no opinion about *which* class deserves the memory.
    pub fn grow_total(&mut self, bytes: u64) {
        self.free_bytes += bytes;
    }

    /// Shrinks the cache's total budget by `bytes`, returning `true` if the
    /// memory could be released. The free pool is drained first; the rest is
    /// taken from the largest classes (largest first), never below each
    /// class's own floor (at least one chunk — the same floor hill climbing
    /// honours, so an outer transfer cannot re-create the drained-giant-
    /// class starvation the per-class floors exist to prevent), with the
    /// displaced items evicted immediately so the released bytes are real.
    /// Returns `false` — and changes nothing — when the floors make the
    /// release impossible.
    pub fn shrink_total(&mut self, bytes: u64) -> bool {
        let from_free = self.free_bytes.min(bytes);
        let mut needed = bytes - from_free;
        let spare_of = |climber: &HillClimber, i: usize| {
            climber.target(i).saturating_sub(climber.queue_floor(i))
        };
        let spare: u64 = (0..self.queues.len())
            .map(|i| spare_of(&self.climber, i))
            .sum();
        if needed > spare {
            return false;
        }
        self.free_bytes -= from_free;
        self.evicted.clear();
        while needed > 0 {
            let idx = (0..self.queues.len())
                .max_by_key(|&i| spare_of(&self.climber, i))
                .expect("needed > 0 implies at least one class");
            let take = spare_of(&self.climber, idx).min(needed);
            debug_assert!(take > 0, "spare check guarantees progress");
            let new_target = self.climber.target(idx) - take;
            self.climber.set_target(idx, new_target);
            self.queues[idx].set_target_bytes(new_target);
            let from = self.evicted.len();
            self.queues[idx].enforce_target(&mut self.evicted);
            self.unindex(from..self.evicted.len());
            needed -= take;
        }
        true
    }

    /// Heap bytes of the index and of every class's queues and shadows.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        for queue in &self.queues {
            footprint += queue.footprint();
        }
        footprint.index = self.index.heap_bytes();
        footprint
    }

    /// Checks the index against the queues: every entry's handle names a
    /// node holding that key on that class and side, there are as many
    /// entries as queued items, and the bytes in use are those nodes'.
    #[doc(hidden)]
    pub fn check_index(&self) -> Result<(), String> {
        let named = self.index.iter().map(|(&key, item)| {
            let queue = &self.queues[item.class().index()];
            (key, queue.peek(item.side, item.handle))
        });
        let queued = self.queues.iter().map(|q| q.len()).sum();
        cache_core::queue::check_index(named, (queued, self.used_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_core::SlabConfig;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// What the server's managed engine pays per resident key in the one
    /// index: key 8 + class 2 + partition side 1 + handle 4 + the item, one
    /// boxed slice (key, flags and data in one buffer) of 16, padded to the
    /// item's 8-byte alignment: 32, as `SlabCache`'s entry. The slot holding
    /// the entry is no larger.
    #[test]
    fn an_index_entry_holding_one_boxed_item_is_32_bytes() {
        assert_eq!(
            std::mem::size_of::<Option<(Key, Resident<Box<[u8]>>)>>(),
            32
        );
    }

    fn config(total: u64) -> CliffhangerConfig {
        CliffhangerConfig {
            slab: SlabConfig::new(64, 2.0, 8192),
            total_bytes: total,
            credit_bytes: 1 << 10,
            hill_shadow_bytes: 64 << 10,
            cliff_shadow_items: 16,
            cliff_min_items: 1_000,
            min_class_bytes: 4 << 10,
            seed: 7,
            ..CliffhangerConfig::default()
        }
    }

    #[test]
    fn basic_get_set_roundtrip() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        assert!(!c.get(key(1), 100).unwrap().1.hit);
        let (class, admitted) = c.set(key(1), 100, ()).unwrap();
        assert!(admitted);
        let (class2, event) = c.get(key(1), 100).unwrap();
        assert_eq!(class, class2);
        assert!(event.hit);
        assert_eq!(c.stats().gets, 2);
        assert_eq!(c.stats().hits, 1);
        assert!(c.contains(key(1)));
    }

    /// The ladder lookup is `SlabConfig::class_for_size`, at every boundary
    /// of a power-of-two ladder and of Memcached's 1.25 one.
    #[test]
    fn the_class_ladder_matches_the_slab_geometry() {
        for slab in [
            SlabConfig::new(64, 2.0, 8192),
            SlabConfig::memcached_default(),
        ] {
            let c: Cliffhanger<()> = Cliffhanger::new(CliffhangerConfig {
                slab: slab.clone(),
                ..config(1 << 20)
            });
            let edges = slab
                .chunk_sizes()
                .into_iter()
                .flat_map(|chunk| [chunk, chunk + 1]);
            for size in [0, 1].into_iter().chain(edges) {
                assert_eq!(c.class_for_size(size), slab.class_for_size(size), "{size}");
            }
        }
    }

    #[test]
    fn oversized_items_are_rejected() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        assert!(c.set(key(1), 1 << 20, ()).is_none());
        assert!(c.get(key(1), 1 << 20).is_none());
    }

    #[test]
    fn total_memory_is_conserved_under_hill_climbing() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let total = c.total_bytes();
        // Drive a skewed workload: small items dominate.
        for round in 0..30u64 {
            for i in 0..3_000u64 {
                let size = if i % 10 == 0 { 2_000 } else { 60 };
                let k = key(i);
                let hit = c.get(k, size).unwrap().1.hit;
                if !hit {
                    c.set(k, size, ());
                }
            }
            let _ = round;
        }
        assert_eq!(c.total_bytes(), total, "hill climbing must conserve memory");
        assert!(c.used_bytes() <= total + (64 << 10));
    }

    #[test]
    fn memory_shifts_towards_the_busy_class() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let small_class = c.class_for_size(60).unwrap();
        let large_class = c.class_for_size(4_000).unwrap();
        let initial_small = c.class_target(small_class);
        // Both classes want far more memory than the 2 MB reservation, but
        // the small class receives ten times the requests: hill climbing
        // should give it the larger share.
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..30 {
            for _ in 0..5_000u64 {
                let k = key(rng.gen_range(0..30_000));
                if !c.get(k, 60).unwrap().1.hit {
                    c.set(k, 60, ());
                }
            }
            for _ in 0..500u64 {
                let k = key(1_000_000 + rng.gen_range(0..2_000u64));
                if !c.get(k, 4_000).unwrap().1.hit {
                    c.set(k, 4_000, ());
                }
            }
            let _ = round;
        }
        assert!(
            c.class_target(small_class) > initial_small,
            "the busy small class should have gained memory: {} -> {}",
            initial_small,
            c.class_target(small_class)
        );
        assert!(
            c.class_target(small_class) > c.class_target(large_class),
            "small {} vs large {}",
            c.class_target(small_class),
            c.class_target(large_class)
        );
        assert!(c.transfers() > 0);
        assert_eq!(c.free_bytes(), 0, "the free pool should be exhausted");
    }

    #[test]
    fn hill_climbing_disabled_moves_no_credits() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20).cliff_scaling_only());
        let total = c.total_bytes();
        for i in 0..20_000u64 {
            let k = key(i % 15_000);
            if !c.get(k, 60).unwrap().1.hit {
                c.set(k, 60, ());
            }
        }
        // Classes may still grow into the free pool (stock Memcached
        // behaviour), but no hill-climbing credit is ever transferred.
        assert_eq!(c.transfers(), 0);
        assert_eq!(c.total_bytes(), total);
    }

    #[test]
    fn untyped_get_finds_resident_items() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        c.set(key(5), 3_000, ());
        let (class, event) = c.get_untyped(key(5));
        assert!(event.hit);
        assert_eq!(class, c.class_for_size(3_000).unwrap());
        let (_, miss) = c.get_untyped(key(99));
        assert!(!miss.hit);
    }

    #[test]
    fn item_changing_class_does_not_duplicate() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        c.set(key(1), 60, ());
        c.set(key(1), 4_000, ());
        let queued: usize = (0..c.num_classes())
            .map(|i| c.queue(ClassId::new(i as u32)).len())
            .sum();
        assert_eq!(queued, 1);
        assert_eq!(c.class_of(key(1)), c.class_for_size(4_000));
        c.check_index().unwrap();
        assert!(c.delete(key(1)));
        assert!(!c.contains(key(1)));
    }

    #[test]
    fn class_snapshots_report_allocation_state() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        for i in 0..200 {
            c.set(key(i), 60, ());
        }
        let snaps = c.class_snapshots();
        assert_eq!(snaps.len(), c.num_classes());
        let total_target: u64 = snaps.iter().map(|s| s.target_bytes).sum();
        assert_eq!(total_target + c.free_bytes(), c.total_bytes());
        let small = &snaps[c.class_for_size(60).unwrap().index()];
        assert!(small.items > 0);
        assert!(small.used_bytes > 0);
        assert_eq!(small.chunk_size, 64);
    }

    #[test]
    fn grow_total_lands_in_the_free_pool_and_is_grantable() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        let before_total = c.total_bytes();
        let before_free = c.free_bytes();
        c.grow_total(512 << 10);
        assert_eq!(c.total_bytes(), before_total + (512 << 10));
        assert_eq!(c.free_bytes(), before_free + (512 << 10));
        // The grown memory is demand-grantable: fills can use it.
        for i in 0..2_000 {
            c.set(key(i), 60, ());
        }
        assert!(c.free_bytes() < before_free + (512 << 10));
        assert_eq!(c.total_bytes(), before_total + (512 << 10));
    }

    #[test]
    fn shrink_total_releases_real_memory_and_respects_floors() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        // Fill well past the shrink amount so eviction must do real work.
        for i in 0..20_000u64 {
            let k = key(i);
            if !c.get(k, 60).unwrap().1.hit {
                c.set(k, 60, ());
            }
        }
        let total = c.total_bytes();
        assert!(c.shrink_total(1 << 20));
        assert_eq!(c.total_bytes(), total - (1 << 20));
        assert!(
            c.used_bytes() <= c.total_bytes(),
            "shrink must evict down to the new budget: used {} vs total {}",
            c.used_bytes(),
            c.total_bytes()
        );
        // Evicted keys left the index with their items.
        let resident_everywhere = (0..20_000u64).filter(|&i| c.contains(key(i))).count();
        assert_eq!(resident_everywhere, c.len());
        // Shrinking below the per-class floors fails atomically.
        let before = c.total_bytes();
        assert!(!c.shrink_total(1 << 30));
        assert_eq!(c.total_bytes(), before);
    }

    #[test]
    fn shrink_total_prefers_the_free_pool() {
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let free = c.free_bytes();
        assert!(free > 256 << 10, "fresh cache starts with a free pool");
        assert!(c.shrink_total(256 << 10));
        assert_eq!(c.free_bytes(), free - (256 << 10));
        assert_eq!(c.stats().evictions, 0, "free-pool release evicts nothing");
    }

    #[test]
    fn churn_claims_the_whole_budget_and_grow_total_becomes_resident() {
        // Regression for the stranded-free-pool spiral: a single hot class
        // churning past its allocation must claim the entire free pool (the
        // eviction-driven grant), and budget added later via `grow_total`
        // must become resident items — not sit in the pool while the class
        // evicts (the one-sided cliff-scaler ratio pinned a partition at a
        // fraction of the budget and the old grant threshold never fired).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let mut rng = StdRng::seed_from_u64(11);
        let n = 12_000u64;
        let size = 330u64;
        let drive = |c: &mut Cliffhanger<()>, requests: u64, rng: &mut StdRng| {
            for _ in 0..requests {
                let k = key(rng.gen_range(0..n));
                if !c.get(k, size).unwrap().1.hit {
                    c.set(k, size, ());
                }
            }
        };
        drive(&mut c, 300_000, &mut rng);
        assert!(
            c.used_bytes() > (c.total_bytes() * 9) / 10,
            "sustained churn must claim ~the whole budget: used {} of {} ({} free)",
            c.used_bytes(),
            c.total_bytes(),
            c.free_bytes()
        );
        let used_small = c.used_bytes();
        c.grow_total(2 << 20);
        drive(&mut c, 300_000, &mut rng);
        assert!(
            c.used_bytes() > used_small + (1 << 20),
            "grown budget must become resident items: {} -> {}",
            used_small,
            c.used_bytes()
        );
    }

    #[test]
    fn giant_class_credit_is_floored_at_one_chunk() {
        // Regression for the slow-convergence open item: with the global
        // 1 KB credit, the 8 KB class would need ~8 wins per re-admitted
        // item; the per-class credit floor makes one shadow win move one
        // whole chunk, and the per-class floor keeps a grown class able to
        // hold at least one item.
        let c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let small = c.class_for_size(60).unwrap();
        let giant = c.class_for_size(8_000).unwrap();
        let giant_charge = c.config().charge_per_item(giant);
        assert!(giant_charge > 8 << 10);
        assert_eq!(c.class_credit(small), 1 << 10, "small classes keep 1 KB");
        assert_eq!(
            c.class_credit(giant),
            giant_charge,
            "giant classes win a full chunk per shadow hit"
        );
        assert_eq!(c.class_floor(giant), giant_charge);
    }

    #[test]
    fn giant_class_is_not_starved_by_random_loser_picks() {
        // Sustained demand on an 8 KB class while a small class hammers its
        // own shadow queue: the giant class's target must converge to (and
        // never again drop below) at least one chunk, so its items are
        // re-admittable after every random-loser drain.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let giant = c.class_for_size(8_000).unwrap();
        let giant_charge = c.config().charge_per_item(giant);
        let mut rng = StdRng::seed_from_u64(23);
        let mut grown = false;
        for _ in 0..40 {
            // Small-item churn far beyond the budget: constant shadow wins
            // for the small class (the starvation pressure).
            for _ in 0..4_000u64 {
                let k = key(rng.gen_range(0..40_000));
                if !c.get(k, 60).unwrap().1.hit {
                    c.set(k, 60, ());
                }
            }
            // A handful of giant keys cycle through; each miss lands in the
            // giant class's shadow queue eventually.
            for g in 0..4u64 {
                let k = key(2_000_000 + g);
                if !c.get(k, 8_000).unwrap().1.hit {
                    c.set(k, 8_000, ());
                }
            }
            if c.class_target(giant) >= giant_charge {
                grown = true;
            }
            if grown {
                assert!(
                    c.class_target(giant) >= giant_charge,
                    "once grown to a chunk, the floor must hold: target {} < charge {}",
                    c.class_target(giant),
                    giant_charge
                );
            }
        }
        assert!(
            grown,
            "sustained demand must grow the giant class to at least one chunk \
             (target {}, charge {giant_charge})",
            c.class_target(giant)
        );
        assert_eq!(c.total_bytes(), 2 << 20, "credits always conserve memory");
    }

    #[test]
    fn outer_shrink_respects_per_class_chunk_floors() {
        // Regression: shrink_total (the path every cross-shard / cross-
        // tenant transfer takes) used the global min_class_bytes floor,
        // bypassing the per-class one-chunk floors — repeated donor-side
        // transfers could drain a giant class below a single resident item.
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(2 << 20));
        let giant = c.class_for_size(8_000).unwrap();
        let charge = c.config().charge_per_item(giant);
        // Demand-fill the giant class so it owns more than one chunk.
        for g in 0..60u64 {
            let k = key(g);
            if !c.get(k, 8_000).unwrap().1.hit {
                c.set(k, 8_000, ());
            }
        }
        assert!(
            c.class_target(giant) > charge,
            "giant class must have grown"
        );
        // Drain the cache as far as the floors allow.
        while c.shrink_total(64 << 10) {}
        assert!(
            c.class_target(giant) >= c.class_floor(giant),
            "outer shrinking must never take a class below its floor: {} < {}",
            c.class_target(giant),
            c.class_floor(giant)
        );
        assert!(c.class_floor(giant) >= charge, "the floor is one chunk");
    }

    #[test]
    fn installed_sink_hears_grants_and_ratio_steps() {
        use crate::events::test_support::RecordingSink;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut c: Cliffhanger<()> = Cliffhanger::new(config(1 << 20));
        let sink = Arc::new(RecordingSink::default());
        c.set_event_sink(sink.clone());
        let free_before = c.free_bytes();
        // Churn one class far past the budget: the warmup drains the free
        // pool through grants, and the sustained evictions walk the cliff
        // scaler's pointers until the ratio leaves its initial 0.5 step.
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..150_000u64 {
            let k = key(rng.gen_range(0..12_000));
            if !c.get(k, 60).unwrap().1.hit {
                c.set(k, 60, ());
            }
        }
        let grants = sink.grants.lock().unwrap();
        let granted: u64 = grants.iter().map(|&(_, bytes)| bytes).sum();
        assert!(!grants.is_empty(), "warmup must grant from the free pool");
        assert_eq!(
            granted,
            free_before - c.free_bytes(),
            "narrated grants account for every byte that left the pool"
        );
        let ratios = sink.ratios.lock().unwrap();
        assert!(
            !ratios.is_empty(),
            "sustained cliff-shadow traffic must step the ratio"
        );
        assert!(ratios.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
    }

    /// A million writes of `write_churn`'s kind — 160,000 keys into a 32 MB
    /// engine, every write's size redrawn, so overwrites change class and new
    /// keys evict — never leave the index more slots than the smallest power
    /// of two that holds its peak at 7/8: 131,072 for some 108,000 entries.
    /// (std's `HashMap` went to 262,144 under this script, on tombstones.)
    #[test]
    fn churn_never_grows_the_index() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut c: Cliffhanger<()> =
            Cliffhanger::new(CliffhangerConfig::with_total_bytes(32 << 20));
        let mut rng = StdRng::seed_from_u64(25);
        let (mut peak, mut slots_for_peak) = (0, 4);
        for write in 0..1_000_000u32 {
            let size = rng.gen_range(16..=64u64) << rng.gen_range(0..6);
            c.set(key(rng.gen_range(0..160_000)), size, ());
            peak = peak.max(c.len());
            while slots_for_peak / 8 * 7 < peak {
                slots_for_peak *= 2;
            }
            assert!(
                c.index.slots() <= slots_for_peak,
                "write {write}: peak {peak}"
            );
        }
        assert!(c.stats().evictions > 100_000 && peak > 100_000, "{peak}");
    }

    /// Index probes per operation, counted (cache-core counts the keys a
    /// `KeyMap` hashes in debug builds; a release build of it carries no
    /// counter, so this test only exists where `debug_assertions` do).
    #[cfg(debug_assertions)]
    #[test]
    fn a_resident_get_is_one_probe_and_a_write_two_plus_its_shadows() {
        use cache_core::key::probes::hashed_by;
        let mut c: Cliffhanger<u64> = Cliffhanger::new(config(64 << 10));
        for i in 0..2_000 {
            c.set(key(i), 60, i);
        }
        let resident = (0..2_000).rev().find(|&i| c.contains(key(i))).unwrap();
        let evicted = (0..2_000).find(|&i| !c.contains(key(i))).unwrap();
        // A hit, any way it is asked for: the engine's index and nothing
        // else — no second table below it, no re-hash on rebalance.
        assert_eq!(hashed_by(|| c.get_untyped(key(resident)).1.hit), (1, true));
        assert_eq!(
            hashed_by(|| c.get(key(resident), 60).unwrap().1.hit),
            (1, true)
        );
        assert_eq!(
            hashed_by(|| c.lookup(key(resident)).copied()),
            (1, Some(resident))
        );
        assert_eq!(
            hashed_by(|| c.value(key(resident)).copied()),
            (1, Some(resident))
        );
        // A sweep ahead of it is one probe more, and saves the hit none.
        for sweep in [Sweep::Item, Sweep::Neighbours] {
            let lent = hashed_by(|| c.prefetch(key(resident), sweep).copied());
            assert_eq!(lent, (1, Some(resident)));
            assert_eq!(hashed_by(|| c.prefetch(key(evicted), sweep)), (1, None));
        }
        assert_eq!(hashed_by(|| c.get_untyped(key(resident)).1.hit), (1, true));
        // A miss without a size consults no shadow queue; with one, the
        // class's one non-empty shadow (cliff scaling is off at this size,
        // so the left side's is empty and costs no hash).
        assert_eq!(hashed_by(|| c.get_untyped(key(evicted)).1.hit), (1, false));
        let (hashed, (_, event)) = hashed_by(|| c.get(key(evicted + 1), 60).unwrap());
        assert!(!event.hit && !event.cliff_shadow_hit && !event.hill_shadow_hit);
        assert_eq!(hashed, 2);
        // An overwrite in the same class: the lookup, the shadow the key
        // might still sit in, the replacing insert.
        let (hashed, stored) = hashed_by(|| c.set(key(resident), 61, 7));
        assert!(stored.is_some_and(|(_, admitted)| admitted));
        assert_eq!(hashed, 3);
        // A write that evicts one adds the evicted key's removal from the
        // index, its insertion into the shadow and the removal of the key
        // that falls off the shadow's far end. (Asking for the next
        // victim's slots after it hashes, but probes nothing.)
        let before = c.stats().evictions;
        let (hashed, _) = hashed_by(|| c.set(key(5_000), 60, 7));
        assert_eq!(c.stats().evictions - before, 1);
        assert_eq!(hashed, 6);
        assert_eq!(hashed_by(|| c.delete(key(5_000))), (1, true));
    }
}
