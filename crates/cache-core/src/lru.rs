//! A weighted LRU list with an exactly-maintained *tail region*.
//!
//! [`LruList`] is the recency-ordered queue underlying the physical eviction
//! queues in this crate. It keeps order and nothing else: there is no key
//! index here. [`LruList::insert`] hands back a [`NodeHandle`] that stays
//! valid until the item is removed or evicted, `access` / `remove` take
//! that handle, and eviction hands back the key so the owner of the one
//! index (the engine, see [`crate::store`]) can drop its entry. Every
//! resident item has a node here, so the node is kept to 24 bytes: the key,
//! the item's charge in 32 bits, a segment tag and the arena's two links.
//! Besides the usual O(1) `access` / `insert` / `pop_lru`, it offers two
//! features the Cliffhanger algorithms rely on:
//!
//! * **Tail region** — the cliff-scaling algorithm (paper §5.1) needs to know
//!   whether a hit landed "in the last part of the queue (the last 128
//!   items)". `LruList` maintains the boundary of the last `k` items exactly,
//!   in O(1) amortised time per operation: the list is one arena whose nodes
//!   are tagged upper, lower or tail, the three runs sit in that order, and
//!   rebalancing moves a *boundary* — it retags the node next to it and
//!   never relinks or looks anybody up.
//! * **Middle insertion** — the Facebook eviction scheme (paper §5.5) inserts
//!   an item in the middle of the queue on first use and promotes it to the
//!   top on its second hit. [`InsertPosition::Middle`] lands the new item at
//!   the upper/lower segment boundary, which is maintained at half of the
//!   non-tail population from the list's first middle insertion on. A list
//!   that only ever inserts at the top (plain LRU, every server queue) keeps
//!   no midpoint: its lower segment stays empty, and an access, insertion or
//!   eviction retags at most the node at the tail region's boundary.

use crate::key::Key;
use crate::list::{LinkedArena, NodeHandle};
use crate::prefetch::Sweep;

/// Where a hit was found inside the physical queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitLocation {
    /// The hit was above the tail region (the common case).
    Main,
    /// The hit fell within the last `tail_items` items of the queue — the
    /// region the cliff-scaling algorithm interprets as "left of the pointer".
    TailRegion,
}

/// Where to insert a new item.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InsertPosition {
    /// Most-recently-used end (plain LRU behaviour).
    #[default]
    Top,
    /// Middle of the queue (the Facebook insertion scheme for first-time
    /// items).
    Middle,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Segment {
    Upper = 0,
    Lower = 1,
    Tail = 2,
}

/// What a list node holds, an [`LruList`]'s or ARC's: the key, the item's
/// charge in 32 bits and a one-byte tag (the node's segment, or ARC's list)
/// — 16 bytes, 24 with the arena's links. The tag's niche makes the freed
/// slot's `None` free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry<Tag> {
    key: Key,
    weight: u32,
    pub(crate) tag: Tag,
}

impl<Tag> Entry<Tag> {
    /// Panics if `weight` exceeds `u32::MAX` (see [`LruList::insert`]).
    pub(crate) fn new(key: Key, weight: u64, tag: Tag) -> Self {
        let weight = u32::try_from(weight).expect("an item's charge fits in 32 bits");
        Entry { key, weight, tag }
    }

    /// The key and the charge.
    pub(crate) fn item(&self) -> (Key, u64) {
        (self.key, self.weight.into())
    }
}

/// A weighted LRU list with tail-region tracking and middle insertion.
///
/// The logical order, from most- to least-recently used, is always
/// `upper ++ lower ++ tail`; rebalancing only ever moves the boundaries
/// between the segments, so the list behaves exactly like a single LRU
/// queue.
#[derive(Debug, Default)]
pub struct LruList {
    nodes: LinkedArena<Entry<Segment>>,
    /// First node of each segment, `None` while it is empty (the upper
    /// segment's is the list's front and is not tracked).
    heads: [Option<NodeHandle>; 3],
    lens: [usize; 3],
    tail_items: usize,
    total_weight: u64,
    /// Whether the upper/lower midpoint is kept: set by the first middle
    /// insertion, until which every non-tail node is upper.
    midpoint: bool,
}

impl LruList {
    /// Creates an empty list with no tail region.
    pub fn new() -> Self {
        Self::with_tail_region(0)
    }

    /// Creates an empty list whose last `tail_items` items are reported as
    /// [`HitLocation::TailRegion`] on access.
    pub fn with_tail_region(tail_items: usize) -> Self {
        LruList {
            tail_items,
            ..LruList::default()
        }
    }

    /// Number of items in the list.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sum of the weights of all items.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Heap bytes of the list's arena (see [`LinkedArena::heap_bytes`]).
    pub fn heap_bytes(&self) -> u64 {
        self.nodes.heap_bytes()
    }

    /// Reconfigures the tail region to the last `items` items.
    pub fn set_tail_region(&mut self, items: usize) {
        self.tail_items = items;
        self.rebalance();
    }

    /// The key and weight stored at `handle` (`None` for a freed slot),
    /// without affecting recency.
    pub fn get(&self, handle: NodeHandle) -> Option<(Key, u64)> {
        self.nodes.get(handle).map(Entry::item)
    }

    /// One read-only sweep ahead of an `access` or `remove` of `handle`.
    pub fn prefetch(&self, handle: NodeHandle, sweep: Sweep) {
        match sweep {
            // The engine's index, not the list, has the slot.
            Sweep::Slot => {}
            Sweep::Item => self.nodes.prefetch(handle),
            Sweep::Neighbours => self.nodes.prefetch_neighbours(handle),
        }
    }

    /// Asks for what the next [`LruList::pop_lru`] touches beyond the back
    /// node, which the last unlink left cached: the node in front of it,
    /// which its unlink writes, and the one the tail region's boundary moves
    /// onto. Returns the back node's key, the next victim, so the owner can
    /// ask for what dropping it touches (see [`crate::prefetch`]).
    pub fn prefetch_next_victim(&self) -> Option<Key> {
        let back = self.nodes.back()?;
        self.nodes.prefetch_neighbours(back);
        if let Some(first) = self.first(Segment::Tail) {
            self.nodes.prefetch_neighbours(first);
        }
        self.nodes.get(back).map(|entry| entry.key)
    }

    /// Records an access to the item at `handle`, promoting it to the
    /// most-recently-used position. Returns where the item was found.
    ///
    /// # Panics
    /// Panics if the handle does not refer to a live item.
    pub fn access(&mut self, handle: NodeHandle) -> HitLocation {
        let found = self.segment_of(handle);
        self.leave(handle, found);
        self.nodes.move_to_front(handle);
        self.enter(handle, Segment::Upper, true);
        self.rebalance();
        match found {
            Segment::Tail => HitLocation::TailRegion,
            _ => HitLocation::Main,
        }
    }

    /// Inserts `key` with the given weight at `position` and returns the
    /// handle that names it until it is removed. The list does not know
    /// which keys it holds: a caller replacing an item removes the old
    /// handle first.
    ///
    /// # Panics
    /// Panics if `weight` exceeds `u32::MAX`. The node keeps a charge in 32
    /// bits; a slab engine's never needs more, since
    /// [`crate::SlabConfig::new`] bounds its largest item's charge.
    pub fn insert(&mut self, key: Key, weight: u64, position: InsertPosition) -> NodeHandle {
        let segment = match position {
            InsertPosition::Top => Segment::Upper,
            InsertPosition::Middle => Segment::Lower,
        };
        let entry = Entry::new(key, weight, segment);
        if position == InsertPosition::Middle && !self.midpoint {
            self.midpoint = true;
            self.rebalance();
        }
        // The front of the lower segment is wherever the upper one ends.
        let handle = match (
            position,
            self.first(Segment::Lower).or(self.first(Segment::Tail)),
        ) {
            (InsertPosition::Top, _) => self.nodes.push_front(entry),
            (InsertPosition::Middle, Some(first)) => self.nodes.insert_before(first, entry),
            (InsertPosition::Middle, None) => self.nodes.push_back(entry),
        };
        self.enter(handle, segment, true);
        self.total_weight += weight;
        self.rebalance();
        handle
    }

    /// Removes the item at `handle`, returning its key and weight.
    ///
    /// # Panics
    /// Panics if the handle does not refer to a live item.
    pub fn remove(&mut self, handle: NodeHandle) -> (Key, u64) {
        self.leave(handle, self.segment_of(handle));
        let (key, weight) = self.nodes.remove(handle).item();
        self.total_weight -= weight;
        self.rebalance();
        (key, weight)
    }

    /// Removes and returns the least-recently-used item.
    pub fn pop_lru(&mut self) -> Option<(Key, u64)> {
        self.nodes.back().map(|handle| self.remove(handle))
    }

    /// Iterates over keys from most- to least-recently used.
    pub fn iter(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.nodes.iter().map(Entry::item)
    }

    /// The first node of `segment` (untracked, hence `None`, for the upper).
    fn first(&self, segment: Segment) -> Option<NodeHandle> {
        self.heads[segment as usize]
    }

    fn segment_of(&self, handle: NodeHandle) -> Segment {
        self.nodes
            .get(handle)
            .expect("LruList handle must name a live item")
            .tag
    }

    /// Takes the node at `handle` out of `segment`'s books (it stays linked
    /// where it is).
    fn leave(&mut self, handle: NodeHandle, segment: Segment) {
        let s = segment as usize;
        self.lens[s] -= 1;
        if self.heads[s] == Some(handle) {
            // Segments are contiguous: the next node, if the segment still
            // has one, is its new first.
            self.heads[s] = match self.lens[s] {
                0 => None,
                _ => self.nodes.next(handle),
            };
        }
    }

    /// Books the node at `handle` into `segment`, as its first node
    /// (`at_front`) or its last.
    fn enter(&mut self, handle: NodeHandle, segment: Segment, at_front: bool) {
        let s = segment as usize;
        if let Some(entry) = self.nodes.get_mut(handle) {
            entry.tag = segment;
        }
        self.lens[s] += 1;
        if segment != Segment::Upper && (at_front || self.heads[s].is_none()) {
            self.heads[s] = Some(handle);
        }
    }

    /// The node just before `boundary`, or the list's last when there is no
    /// boundary behind it.
    fn last_before(&self, boundary: Option<NodeHandle>) -> NodeHandle {
        match boundary {
            Some(first) => self.nodes.prev(first),
            None => self.nodes.back(),
        }
        .expect("a non-empty segment precedes the boundary")
    }

    /// Target sizes: the tail region holds `min(tail_items, len)` items and,
    /// once a midpoint is kept, the remainder is split evenly between upper
    /// and lower (upper holding the extra item when odd) so that
    /// [`InsertPosition::Middle`] lands in the middle of the non-tail
    /// population; until then the upper segment holds all of it.
    fn targets(&self) -> (usize, usize) {
        let len = self.nodes.len();
        let tail_target = self.tail_items.min(len);
        let rest = len - tail_target;
        let upper_target = if self.midpoint {
            rest.div_ceil(2)
        } else {
            rest
        };
        (upper_target, tail_target)
    }

    /// Moves the two boundaries until the segments have their target sizes.
    /// A node changes segment by being retagged where it stands, so handles
    /// held outside stay valid and nothing is hashed.
    fn rebalance(&mut self) {
        use Segment::{Lower, Tail, Upper};
        let (upper_target, tail_target) = self.targets();
        loop {
            let [upper_len, lower_len, tail_len] = self.lens;
            if tail_len < tail_target && lower_len > 0 {
                let node = self.last_before(self.first(Tail));
                self.leave(node, Lower);
                self.enter(node, Tail, true);
            } else if tail_len < tail_target && upper_len > 0 {
                let node = self.last_before(self.first(Tail));
                self.leave(node, Upper);
                self.enter(node, Tail, true);
            } else if tail_len > tail_target {
                let node = self.first(Tail).expect("tail non-empty");
                self.leave(node, Tail);
                self.enter(node, Lower, false);
            } else if upper_len > upper_target {
                let node = self.last_before(self.first(Lower).or(self.first(Tail)));
                self.leave(node, Upper);
                self.enter(node, Lower, true);
            } else if upper_len < upper_target && lower_len > 0 {
                let node = self.first(Lower).expect("lower non-empty");
                self.leave(node, Lower);
                self.enter(node, Upper, false);
            } else {
                break;
            }
        }
    }

    #[cfg(test)]
    fn segment_lens(&self) -> (usize, usize, usize) {
        (self.lens[0], self.lens[1], self.lens[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// A list of keys `0..n`, each of weight `weight`, inserted at the top
    /// in that order; `handles[i]` names key `i`.
    fn filled(tail_items: usize, n: u64, weight: u64) -> (LruList, Vec<NodeHandle>) {
        let mut list = LruList::with_tail_region(tail_items);
        let handles = (0..n)
            .map(|i| list.insert(key(i), weight, InsertPosition::Top))
            .collect();
        (list, handles)
    }

    fn order(list: &LruList) -> Vec<u64> {
        list.iter().map(|(k, _)| k.raw()).collect()
    }

    #[test]
    fn access_promotes_to_mru() {
        let (mut l, h) = filled(0, 4, 1);
        assert_eq!(order(&l), vec![3, 2, 1, 0]);
        assert_eq!(l.access(h[0]), HitLocation::Main);
        assert_eq!(order(&l), vec![0, 3, 2, 1]);
    }

    #[test]
    fn pop_lru_is_least_recent() {
        let (mut l, h) = filled(0, 3, 10);
        l.access(h[0]);
        assert_eq!(l.pop_lru(), Some((key(1), 10)));
        assert_eq!(l.pop_lru(), Some((key(2), 10)));
        assert_eq!(l.pop_lru(), Some((key(0), 10)));
        assert_eq!(l.pop_lru(), None);
    }

    /// Every resident item pays for one node: key 8, charge 4, segment tag 1
    /// (its niche holds the freed slot's `None`), padding 3, links 8. Freed
    /// nodes cost nothing beside their slots.
    #[test]
    fn a_node_is_24_bytes_and_the_arena_is_its_nodes() {
        let (mut l, h) = filled(4, 64, 1);
        assert_eq!(l.heap_bytes(), 64 * 24);
        for &handle in &h[..40] {
            l.remove(handle);
        }
        assert_eq!(l.heap_bytes(), 64 * 24);
        for i in 0..40 {
            l.insert(key(100 + i), 1, InsertPosition::Middle);
        }
        assert_eq!(l.heap_bytes(), 64 * 24);
    }

    /// A list that only inserts at the top keeps no midpoint: accesses,
    /// insertions and evictions leave its lower segment empty, so none of
    /// them retags a node in the middle of the list. Its first middle
    /// insertion puts the midpoint where a list keeping it all along has it.
    #[test]
    fn a_top_only_list_keeps_no_midpoint_until_a_middle_insert() {
        let (mut l, h) = filled(3, 20, 1);
        for &handle in h.iter().step_by(3) {
            l.access(handle);
        }
        l.pop_lru();
        l.insert(key(50), 1, InsertPosition::Top);
        assert_eq!(l.segment_lens(), (17, 0, 3));
        // 17 items above the tail region: the newcomer lands behind 9.
        l.insert(key(99), 1, InsertPosition::Middle);
        assert_eq!(order(&l).iter().position(|&k| k == 99), Some(9));
        assert_eq!(l.segment_lens(), (9, 9, 3));
    }

    #[test]
    fn weights_are_tracked() {
        let mut l = LruList::new();
        let one = l.insert(key(1), 100, InsertPosition::Top);
        let two = l.insert(key(2), 50, InsertPosition::Top);
        assert_eq!(l.total_weight(), 150);
        // Replacing an item is remove-then-insert; nothing double counts.
        assert_eq!(l.remove(one), (key(1), 100));
        let one = l.insert(key(1), 70, InsertPosition::Top);
        assert_eq!(l.total_weight(), 120);
        assert_eq!(l.get(one), Some((key(1), 70)));
        l.remove(two);
        assert_eq!(l.total_weight(), 70);
    }

    #[test]
    fn handles_survive_every_rebalance() {
        // Every insert, access and removal shifts the segment boundaries;
        // a handle must keep naming its own key throughout.
        let (mut l, h) = filled(3, 40, 1);
        for round in 0..40usize {
            l.access(h[(round * 7) % 40]);
            for (i, &handle) in h.iter().enumerate() {
                assert_eq!(l.get(handle), Some((key(i as u64), 1)));
            }
        }
        l.set_tail_region(17);
        let extra = l.insert(key(99), 5, InsertPosition::Middle);
        for (i, &handle) in h.iter().enumerate() {
            assert_eq!(l.get(handle), Some((key(i as u64), 1)));
        }
        assert_eq!(l.remove(extra), (key(99), 5));
        assert_eq!(l.get(extra), None, "a removed handle names nothing");
    }

    #[test]
    fn tail_region_hits_are_classified() {
        let (mut l, h) = filled(2, 6, 1);
        // Order is [5,4,3,2,1,0]; tail region holds {1, 0}.
        assert_eq!(l.access(h[0]), HitLocation::TailRegion);
        // 0 promoted: order [0,5,4,3,2,1]; tail region now {2, 1}.
        assert_eq!(l.access(h[1]), HitLocation::TailRegion);
        assert_eq!(l.access(h[5]), HitLocation::Main);
        assert_eq!(l.access(h[0]), HitLocation::Main);
    }

    #[test]
    fn tail_region_tracks_exact_boundary() {
        // LRU order from MRU: 9..0. The last 3 items are 2, 1, 0.
        for probe in [2usize, 1, 0] {
            let (mut fresh, h) = filled(3, 10, 1);
            assert_eq!(
                fresh.access(h[probe]),
                HitLocation::TailRegion,
                "key {probe} should be in the tail region"
            );
        }
        for probe in [3usize, 5, 9] {
            let (mut fresh, h) = filled(3, 10, 1);
            assert_eq!(
                fresh.access(h[probe]),
                HitLocation::Main,
                "key {probe} should be above the tail region"
            );
        }
    }

    #[test]
    fn tail_region_smaller_than_list() {
        let (mut l, h) = filled(10, 2, 1);
        // Every item is within the last 10, so every hit is a tail hit.
        assert_eq!(l.access(h[0]), HitLocation::TailRegion);
        assert_eq!(l.access(h[1]), HitLocation::TailRegion);
    }

    #[test]
    fn middle_insertion_lands_between_halves() {
        let (mut l, _) = filled(0, 6, 1);
        // Order: [5,4,3,2,1,0]. A middle insert lands after the upper half
        // (3 items) and before the rest.
        l.insert(key(100), 1, InsertPosition::Middle);
        assert_eq!(order(&l), vec![5, 4, 3, 100, 2, 1, 0]);
        // Eviction order must still end with the coldest original items.
        let mut evictions = Vec::new();
        while let Some((k, _)) = l.pop_lru() {
            evictions.push(k.raw());
        }
        assert_eq!(evictions.last(), Some(&5));
        assert_eq!(evictions.first(), Some(&0));
    }

    #[test]
    fn middle_insertion_with_empty_segments() {
        // Into an empty list, and into one whose every item is tail.
        let mut l = LruList::with_tail_region(4);
        l.insert(key(1), 1, InsertPosition::Middle);
        l.insert(key(2), 1, InsertPosition::Middle);
        l.insert(key(3), 1, InsertPosition::Top);
        assert_eq!(order(&l), vec![3, 2, 1]);
        assert_eq!(l.segment_lens(), (0, 0, 3));
    }

    #[test]
    fn ordering_preserved_across_segments() {
        // Regardless of tail-region bookkeeping, the global eviction order
        // must be exactly insertion order when there are no hits.
        let (mut l, _) = filled(4, 32, 1);
        let mut evicted = Vec::new();
        while let Some((k, _)) = l.pop_lru() {
            evicted.push(k.raw());
        }
        assert_eq!(evicted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn set_tail_region_rebalances() {
        let (mut l, h) = filled(0, 8, 1);
        assert_eq!(l.access(h[0]), HitLocation::Main);
        l.set_tail_region(4);
        // After reconfiguration the 4 coldest items are 1,2,3,4 (0 was just
        // promoted).
        assert_eq!(l.access(h[1]), HitLocation::TailRegion);
        assert_eq!(l.access(h[7]), HitLocation::Main);
    }

    #[test]
    fn segments_respect_targets() {
        let (mut l, _) = filled(2, 9, 1);
        assert_eq!(l.segment_lens(), (7, 0, 2));
        l.insert(key(9), 1, InsertPosition::Middle);
        let (u, lo, t) = l.segment_lens();
        assert_eq!(t, 2);
        assert_eq!(u + lo + t, 10);
        assert_eq!(u, 4); // ceil((10-2)/2)
    }
}
