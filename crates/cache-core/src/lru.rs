//! A weighted LRU list with an exactly-maintained *tail region*.
//!
//! [`LruList`] is the recency-ordered queue underlying the physical eviction
//! queues in this crate. Besides the usual O(1) `access` / `insert` /
//! `pop_lru`, it offers two features the Cliffhanger algorithms rely on:
//!
//! * **Tail region** — the cliff-scaling algorithm (paper §5.1) needs to know
//!   whether a hit landed "in the last part of the queue (the last 128
//!   items)". `LruList` maintains the boundary of the last `k` items exactly,
//!   in O(1) amortised time per operation, by keeping the list in three
//!   internally-ordered segments (upper, lower, tail) whose concatenation is
//!   the LRU order.
//! * **Middle insertion** — the Facebook eviction scheme (paper §5.5) inserts
//!   an item in the middle of the queue on first use and promotes it to the
//!   top on its second hit. [`InsertPosition::Middle`] lands the new item at
//!   the upper/lower segment boundary, which is maintained at half of the
//!   non-tail population.

use crate::key::{Key, KeyMap};
use crate::list::{LinkedArena, NodeHandle};

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
    Upper,
    Lower,
    Tail,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    segment: Segment,
    handle: NodeHandle,
    weight: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: Key,
    weight: u64,
}

/// A weighted LRU list with tail-region tracking and middle insertion.
///
/// The logical order, from most- to least-recently used, is always
/// `upper ++ lower ++ tail`; rebalancing only ever moves items across the
/// segment boundaries in a way that preserves that order, so the list behaves
/// exactly like a single LRU queue.
#[derive(Debug, Default)]
pub struct LruList {
    upper: LinkedArena<Entry>,
    lower: LinkedArena<Entry>,
    tail: LinkedArena<Entry>,
    index: KeyMap<Slot>,
    tail_items: usize,
    total_weight: u64,
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
            upper: LinkedArena::new(),
            lower: LinkedArena::new(),
            tail: LinkedArena::new(),
            index: KeyMap::default(),
            tail_items,
            total_weight: 0,
        }
    }

    /// Number of items in the list.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sum of the weights of all items.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Size of the configured tail region in items.
    pub fn tail_region(&self) -> usize {
        self.tail_items
    }

    /// Reconfigures the tail region to the last `items` items.
    pub fn set_tail_region(&mut self, items: usize) {
        self.tail_items = items;
        self.rebalance();
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: Key) -> bool {
        self.index.contains_key(&key)
    }

    /// Returns the stored weight of `key` without affecting recency.
    pub fn weight_of(&self, key: Key) -> Option<u64> {
        self.index.get(&key).map(|s| s.weight)
    }

    /// Records an access to `key`, promoting it to the most-recently-used
    /// position. Returns where the item was found, or `None` on a miss.
    pub fn access(&mut self, key: Key) -> Option<HitLocation> {
        let slot = *self.index.get(&key)?;
        let entry = match slot.segment {
            Segment::Upper => self.upper.remove(slot.handle),
            Segment::Lower => self.lower.remove(slot.handle),
            Segment::Tail => self.tail.remove(slot.handle),
        };
        let handle = self.upper.push_front(entry);
        self.index.insert(
            key,
            Slot {
                segment: Segment::Upper,
                handle,
                weight: slot.weight,
            },
        );
        self.rebalance();
        Some(match slot.segment {
            Segment::Tail => HitLocation::TailRegion,
            _ => HitLocation::Main,
        })
    }

    /// Inserts `key` with the given weight at `position`.
    ///
    /// If the key is already present its weight is updated and it is moved to
    /// the requested position; the previous weight is returned.
    pub fn insert(&mut self, key: Key, weight: u64, position: InsertPosition) -> Option<u64> {
        let previous = self.remove(key);
        let entry = Entry { key, weight };
        let (segment, handle) = match position {
            InsertPosition::Top => (Segment::Upper, self.upper.push_front(entry)),
            InsertPosition::Middle => (Segment::Lower, self.lower.push_front(entry)),
        };
        self.index.insert(
            key,
            Slot {
                segment,
                handle,
                weight,
            },
        );
        self.total_weight += weight;
        self.rebalance();
        previous
    }

    /// Removes `key`, returning its weight if it was present.
    pub fn remove(&mut self, key: Key) -> Option<u64> {
        let slot = self.index.remove(&key)?;
        match slot.segment {
            Segment::Upper => self.upper.remove(slot.handle),
            Segment::Lower => self.lower.remove(slot.handle),
            Segment::Tail => self.tail.remove(slot.handle),
        };
        self.total_weight -= slot.weight;
        self.rebalance();
        Some(slot.weight)
    }

    /// Removes and returns the least-recently-used item.
    pub fn pop_lru(&mut self) -> Option<(Key, u64)> {
        let entry = self
            .tail
            .pop_back()
            .or_else(|| self.lower.pop_back())
            .or_else(|| self.upper.pop_back())?;
        self.index.remove(&entry.key);
        self.total_weight -= entry.weight;
        self.rebalance();
        Some((entry.key, entry.weight))
    }

    /// Returns the least-recently-used item without removing it.
    pub fn peek_lru(&self) -> Option<(Key, u64)> {
        let entry = self
            .tail
            .back()
            .and_then(|h| self.tail.get(h))
            .or_else(|| self.lower.back().and_then(|h| self.lower.get(h)))
            .or_else(|| self.upper.back().and_then(|h| self.upper.get(h)))?;
        Some((entry.key, entry.weight))
    }

    /// Iterates over keys from most- to least-recently used.
    pub fn iter(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.upper
            .iter()
            .chain(self.lower.iter())
            .chain(self.tail.iter())
            .map(|e| (e.key, e.weight))
    }

    /// Removes every item.
    pub fn clear(&mut self) {
        self.upper.clear();
        self.lower.clear();
        self.tail.clear();
        self.index.clear();
        self.total_weight = 0;
    }

    /// Target sizes: the tail region holds `min(tail_items, len)` items and
    /// the remainder is split evenly between upper and lower (upper holding
    /// the extra item when odd) so that [`InsertPosition::Middle`] lands in
    /// the middle of the non-tail population.
    fn targets(&self) -> (usize, usize) {
        let len = self.index.len();
        let tail_target = self.tail_items.min(len);
        let rest = len - tail_target;
        let upper_target = rest.div_ceil(2);
        (upper_target, tail_target)
    }

    fn rebalance(&mut self) {
        let (upper_target, tail_target) = self.targets();
        // Fill the tail from the lower segment (and the lower from the upper)
        // or drain it back, preserving order across boundaries.
        loop {
            let upper_len = self.upper.len();
            let lower_len = self.lower.len();
            let tail_len = self.tail.len();

            if tail_len < tail_target && lower_len > 0 {
                let entry = self.lower.pop_back().expect("lower non-empty");
                let handle = self.tail.push_front(entry);
                self.reindex(entry.key, Segment::Tail, handle);
            } else if tail_len < tail_target && upper_len > 0 {
                let entry = self.upper.pop_back().expect("upper non-empty");
                let handle = self.tail.push_front(entry);
                self.reindex(entry.key, Segment::Tail, handle);
            } else if tail_len > tail_target {
                let entry = self.tail.pop_front().expect("tail non-empty");
                let handle = self.lower.push_back(entry);
                self.reindex(entry.key, Segment::Lower, handle);
            } else if upper_len > upper_target {
                let entry = self.upper.pop_back().expect("upper non-empty");
                let handle = self.lower.push_front(entry);
                self.reindex(entry.key, Segment::Lower, handle);
            } else if upper_len < upper_target && lower_len > 0 {
                let entry = self.lower.pop_front().expect("lower non-empty");
                let handle = self.upper.push_back(entry);
                self.reindex(entry.key, Segment::Upper, handle);
            } else {
                break;
            }
        }
    }

    fn reindex(&mut self, key: Key, segment: Segment, handle: NodeHandle) {
        if let Some(slot) = self.index.get_mut(&key) {
            slot.segment = segment;
            slot.handle = handle;
        }
    }

    #[cfg(test)]
    fn segment_lens(&self) -> (usize, usize, usize) {
        (self.upper.len(), self.lower.len(), self.tail.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    fn order(list: &LruList) -> Vec<u64> {
        list.iter().map(|(k, _)| k.raw()).collect()
    }

    #[test]
    fn access_promotes_to_mru() {
        let mut l = LruList::new();
        for i in 0..4 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        assert_eq!(order(&l), vec![3, 2, 1, 0]);
        assert_eq!(l.access(key(0)), Some(HitLocation::Main));
        assert_eq!(order(&l), vec![0, 3, 2, 1]);
        assert_eq!(l.access(key(9)), None);
    }

    #[test]
    fn pop_lru_is_least_recent() {
        let mut l = LruList::new();
        for i in 0..3 {
            l.insert(key(i), 10, InsertPosition::Top);
        }
        l.access(key(0));
        assert_eq!(l.pop_lru(), Some((key(1), 10)));
        assert_eq!(l.pop_lru(), Some((key(2), 10)));
        assert_eq!(l.pop_lru(), Some((key(0), 10)));
        assert_eq!(l.pop_lru(), None);
    }

    #[test]
    fn weights_are_tracked() {
        let mut l = LruList::new();
        l.insert(key(1), 100, InsertPosition::Top);
        l.insert(key(2), 50, InsertPosition::Top);
        assert_eq!(l.total_weight(), 150);
        // Re-inserting updates the weight rather than double counting.
        assert_eq!(l.insert(key(1), 70, InsertPosition::Top), Some(100));
        assert_eq!(l.total_weight(), 120);
        assert_eq!(l.weight_of(key(1)), Some(70));
        l.remove(key(2));
        assert_eq!(l.total_weight(), 70);
    }

    #[test]
    fn tail_region_hits_are_classified() {
        let mut l = LruList::with_tail_region(2);
        for i in 0..6 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        // Order is [5,4,3,2,1,0]; tail region holds {1, 0}.
        assert_eq!(l.access(key(0)), Some(HitLocation::TailRegion));
        // 0 promoted: order [0,5,4,3,2,1]; tail region now {2, 1}.
        assert_eq!(l.access(key(1)), Some(HitLocation::TailRegion));
        assert_eq!(l.access(key(5)), Some(HitLocation::Main));
        assert_eq!(l.access(key(0)), Some(HitLocation::Main));
    }

    #[test]
    fn tail_region_tracks_exact_boundary() {
        let mut l = LruList::with_tail_region(3);
        for i in 0..10 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        // LRU order from MRU: 9..0. The last 3 items are 2, 1, 0.
        for probe in [2u64, 1, 0] {
            let mut fresh = LruList::with_tail_region(3);
            for i in 0..10 {
                fresh.insert(key(i), 1, InsertPosition::Top);
            }
            assert_eq!(
                fresh.access(key(probe)),
                Some(HitLocation::TailRegion),
                "key {probe} should be in the tail region"
            );
        }
        for probe in [3u64, 5, 9] {
            let mut fresh = LruList::with_tail_region(3);
            for i in 0..10 {
                fresh.insert(key(i), 1, InsertPosition::Top);
            }
            assert_eq!(
                fresh.access(key(probe)),
                Some(HitLocation::Main),
                "key {probe} should be above the tail region"
            );
        }
    }

    #[test]
    fn tail_region_smaller_than_list() {
        let mut l = LruList::with_tail_region(10);
        l.insert(key(1), 1, InsertPosition::Top);
        l.insert(key(2), 1, InsertPosition::Top);
        // Every item is within the last 10, so every hit is a tail hit.
        assert_eq!(l.access(key(1)), Some(HitLocation::TailRegion));
        assert_eq!(l.access(key(2)), Some(HitLocation::TailRegion));
    }

    #[test]
    fn middle_insertion_lands_between_halves() {
        let mut l = LruList::new();
        for i in 0..6 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        // Order: [5,4,3,2,1,0]. A middle insert should appear after the upper
        // half (3 items) and before the rest.
        l.insert(key(100), 1, InsertPosition::Middle);
        let ord = order(&l);
        let pos = ord.iter().position(|&k| k == 100).unwrap();
        assert!(
            (2..=4).contains(&pos),
            "middle insert landed at position {pos} of {ord:?}"
        );
        // Eviction order must still end with the coldest original items.
        let mut evictions = Vec::new();
        while let Some((k, _)) = l.pop_lru() {
            evictions.push(k.raw());
        }
        assert_eq!(evictions.last(), Some(&5));
        assert_eq!(evictions.first(), Some(&0));
    }

    #[test]
    fn ordering_preserved_across_segments() {
        // Regardless of tail-region bookkeeping, the global eviction order
        // must be exactly reverse insertion order when there are no hits.
        let mut l = LruList::with_tail_region(4);
        for i in 0..32 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        let mut expected: Vec<u64> = (0..32).collect();
        let mut got = Vec::new();
        while let Some((k, _)) = l.pop_lru() {
            got.push(k.raw());
        }
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);

        let mut l = LruList::with_tail_region(4);
        for i in 0..32 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        let mut evicted = Vec::new();
        for _ in 0..10 {
            evicted.push(l.pop_lru().unwrap().0.raw());
        }
        assert_eq!(evicted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn set_tail_region_rebalances() {
        let mut l = LruList::new();
        for i in 0..8 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        assert_eq!(l.access(key(0)), Some(HitLocation::Main));
        l.set_tail_region(4);
        // After reconfiguration the 4 coldest items are 1,2,3,4 (0 was just
        // promoted).
        assert_eq!(l.access(key(1)), Some(HitLocation::TailRegion));
        assert_eq!(l.access(key(7)), Some(HitLocation::Main));
    }

    #[test]
    fn segments_respect_targets() {
        let mut l = LruList::with_tail_region(2);
        for i in 0..9 {
            l.insert(key(i), 1, InsertPosition::Top);
        }
        let (u, lo, t) = l.segment_lens();
        assert_eq!(t, 2);
        assert_eq!(u + lo + t, 9);
        assert_eq!(u, 4); // ceil((9-2)/2)
    }

    #[test]
    fn peek_does_not_modify() {
        let mut l = LruList::new();
        l.insert(key(1), 5, InsertPosition::Top);
        l.insert(key(2), 5, InsertPosition::Top);
        assert_eq!(l.peek_lru(), Some((key(1), 5)));
        assert_eq!(l.len(), 2);
        assert_eq!(l.peek_lru(), Some((key(1), 5)));
    }

    #[test]
    fn clear_resets() {
        let mut l = LruList::with_tail_region(2);
        for i in 0..5 {
            l.insert(key(i), 3, InsertPosition::Top);
        }
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.total_weight(), 0);
        assert_eq!(l.pop_lru(), None);
    }
}
