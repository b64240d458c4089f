//! Key-only shadow queues.
//!
//! A shadow queue is an extension of an eviction queue that stores only keys,
//! not values (paper §3.4). Keys evicted from the physical queue are pushed
//! onto the front of the shadow queue; a request that misses the physical
//! queue but hits the shadow queue would have been a hit if the physical
//! queue had been larger by (roughly) the shadow queue's length. The *rate*
//! of shadow hits therefore approximates the local gradient of the hit-rate
//! curve, which is all the hill-climbing algorithm needs.
//!
//! For the cliff-scaling algorithm the shadow queue is additionally split
//! into a *left half* (the more recent evictions, adjacent to the physical
//! queue) and a *right half* (older evictions, farther along the hit-rate
//! curve); which half a hit lands in approximates the sign of the second
//! derivative (paper §4.2, Algorithm 2).

use crate::key::{Key, KeyMap};
use crate::list::{LinkedArena, NodeHandle};

/// Which half of a shadow queue a hit landed in.
///
/// `Left` is the half adjacent to the physical queue (most recent evictions);
/// `Right` is the farther half. These names follow Algorithm 2 in the paper,
/// where a hit in the *right* half of the right shadow queue pushes the right
/// pointer further right (towards larger simulated queues).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShadowHalf {
    /// The more recent (nearer) half.
    Left,
    /// The older (farther) half.
    Right,
}

/// Outcome of probing a shadow queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShadowHit {
    /// Which half of the queue the key was found in.
    pub half: ShadowHalf,
    /// Approximate distance (in entries, counted from the physical queue)
    /// at which the key was found: 0-based index of the half boundary the
    /// key fell into. `0` for the left half, `capacity / 2` for the right.
    pub depth_hint: usize,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    half: ShadowHalf,
    handle: NodeHandle,
}

/// A fixed-capacity, key-only LRU queue with exact half classification.
///
/// Internally the queue keeps two segments (left = newer, right = older) whose
/// concatenation is the full recency order; the boundary is maintained at
/// `ceil(len / 2)` so half membership is exact at all times.
#[derive(Debug)]
pub struct ShadowQueue {
    left: LinkedArena<Key>,
    right: LinkedArena<Key>,
    index: KeyMap<Slot>,
    capacity: usize,
}

impl ShadowQueue {
    /// Creates a shadow queue holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        ShadowQueue {
            left: LinkedArena::new(),
            right: LinkedArena::new(),
            index: KeyMap::default(),
            capacity,
        }
    }

    /// Maximum number of keys retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the queue holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is currently in the shadow queue (no side effects).
    pub fn contains(&self, key: Key) -> bool {
        self.index.contains_key(&key)
    }

    /// Changes the capacity, evicting the oldest keys if necessary.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.enforce_capacity();
        self.rebalance();
    }

    /// Inserts a key evicted from the physical queue at the front (most
    /// recent end). If the key is already present it is refreshed. Returns
    /// the key that fell off the far end, if any.
    pub fn insert(&mut self, key: Key) -> Option<Key> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(slot) = self.index.remove(&key) {
            match slot.half {
                ShadowHalf::Left => self.left.remove(slot.handle),
                ShadowHalf::Right => self.right.remove(slot.handle),
            };
        }
        let handle = self.left.push_front(key);
        self.index.insert(
            key,
            Slot {
                half: ShadowHalf::Left,
                handle,
            },
        );
        let evicted = self.enforce_capacity();
        self.rebalance();
        evicted
    }

    /// Probes the shadow queue for `key`. On a hit the key is removed (it is
    /// about to be re-admitted to the physical queue by the caller) and the
    /// half it was found in is reported.
    pub fn probe(&mut self, key: Key) -> Option<ShadowHit> {
        let slot = self.index.remove(&key)?;
        match slot.half {
            ShadowHalf::Left => self.left.remove(slot.handle),
            ShadowHalf::Right => self.right.remove(slot.handle),
        };
        self.rebalance();
        Some(ShadowHit {
            half: slot.half,
            depth_hint: match slot.half {
                ShadowHalf::Left => 0,
                ShadowHalf::Right => self.capacity / 2,
            },
        })
    }

    /// Looks up `key` without removing it.
    pub fn peek(&self, key: Key) -> Option<ShadowHalf> {
        self.index.get(&key).map(|s| s.half)
    }

    /// Removes `key` if present (used when the physical queue re-admits a key
    /// through a path that did not call [`ShadowQueue::probe`]).
    pub fn remove(&mut self, key: Key) -> bool {
        match self.index.remove(&key) {
            Some(slot) => {
                match slot.half {
                    ShadowHalf::Left => self.left.remove(slot.handle),
                    ShadowHalf::Right => self.right.remove(slot.handle),
                };
                self.rebalance();
                true
            }
            None => false,
        }
    }

    /// Drops every key.
    pub fn clear(&mut self) {
        self.left.clear();
        self.right.clear();
        self.index.clear();
    }

    /// Iterates over keys from most to least recently evicted.
    pub fn iter(&self) -> impl Iterator<Item = Key> + '_ {
        self.left.iter().copied().chain(self.right.iter().copied())
    }

    fn enforce_capacity(&mut self) -> Option<Key> {
        let mut last_evicted = None;
        while self.index.len() > self.capacity {
            let key = self
                .right
                .pop_back()
                .or_else(|| self.left.pop_back())
                .expect("index non-empty implies a segment is non-empty");
            self.index.remove(&key);
            last_evicted = Some(key);
        }
        last_evicted
    }

    fn rebalance(&mut self) {
        let left_target = self.index.len().div_ceil(2);
        while self.left.len() > left_target {
            let key = self.left.pop_back().expect("left non-empty");
            let handle = self.right.push_front(key);
            self.reindex(key, ShadowHalf::Right, handle);
        }
        while self.left.len() < left_target {
            let key = self.right.pop_front().expect("right non-empty");
            let handle = self.left.push_back(key);
            self.reindex(key, ShadowHalf::Left, handle);
        }
    }

    fn reindex(&mut self, key: Key, half: ShadowHalf, handle: NodeHandle) {
        if let Some(slot) = self.index.get_mut(&key) {
            slot.half = half;
            slot.handle = handle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    #[test]
    fn insert_and_probe() {
        let mut q = ShadowQueue::new(4);
        q.insert(key(1));
        q.insert(key(2));
        assert!(q.contains(key(1)));
        // Halves are relative to the current contents: key 2 is the newer
        // half, key 1 the older half.
        let hit = q.probe(key(1)).unwrap();
        assert_eq!(hit.half, ShadowHalf::Right);
        let hit = q.probe(key(2)).unwrap();
        assert_eq!(hit.half, ShadowHalf::Left);
        // Probe removes the key.
        assert!(!q.contains(key(1)));
        assert!(q.probe(key(1)).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut q = ShadowQueue::new(3);
        q.insert(key(1));
        q.insert(key(2));
        q.insert(key(3));
        let evicted = q.insert(key(4));
        assert_eq!(evicted, Some(key(1)));
        assert_eq!(q.len(), 3);
        assert!(!q.contains(key(1)));
        assert!(q.contains(key(2)));
    }

    #[test]
    fn halves_are_exact() {
        let mut q = ShadowQueue::new(8);
        for i in 0..8 {
            q.insert(key(i));
        }
        // Recency order (newest first): 7,6,5,4 | 3,2,1,0
        assert_eq!(q.peek(key(7)), Some(ShadowHalf::Left));
        assert_eq!(q.peek(key(4)), Some(ShadowHalf::Left));
        assert_eq!(q.peek(key(3)), Some(ShadowHalf::Right));
        assert_eq!(q.peek(key(0)), Some(ShadowHalf::Right));
    }

    #[test]
    fn odd_lengths_put_extra_in_left() {
        let mut q = ShadowQueue::new(10);
        for i in 0..5 {
            q.insert(key(i));
        }
        // Order: 4,3,2 | 1,0 (left holds ceil(5/2) = 3).
        assert_eq!(q.peek(key(2)), Some(ShadowHalf::Left));
        assert_eq!(q.peek(key(1)), Some(ShadowHalf::Right));
    }

    #[test]
    fn probe_reports_right_half() {
        let mut q = ShadowQueue::new(4);
        for i in 0..4 {
            q.insert(key(i));
        }
        let hit = q.probe(key(0)).unwrap();
        assert_eq!(hit.half, ShadowHalf::Right);
        assert_eq!(hit.depth_hint, 2);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut q = ShadowQueue::new(3);
        q.insert(key(1));
        q.insert(key(2));
        q.insert(key(3));
        q.insert(key(1)); // refresh
        let evicted = q.insert(key(4));
        assert_eq!(evicted, Some(key(2)), "key 1 was refreshed, 2 is oldest");
        assert!(q.contains(key(1)));
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut q = ShadowQueue::new(0);
        assert_eq!(q.insert(key(1)), None);
        assert!(q.is_empty());
        assert!(q.probe(key(1)).is_none());
    }

    #[test]
    fn shrink_capacity_drops_oldest() {
        let mut q = ShadowQueue::new(6);
        for i in 0..6 {
            q.insert(key(i));
        }
        q.set_capacity(2);
        assert_eq!(q.len(), 2);
        assert!(q.contains(key(5)));
        assert!(q.contains(key(4)));
        assert!(!q.contains(key(3)));
    }

    #[test]
    fn remove_then_iterate() {
        let mut q = ShadowQueue::new(5);
        for i in 0..5 {
            q.insert(key(i));
        }
        assert!(q.remove(key(2)));
        assert!(!q.remove(key(2)));
        let keys: Vec<u64> = q.iter().map(Key::raw).collect();
        assert_eq!(keys, vec![4, 3, 1, 0]);
    }

    #[test]
    fn clear_empties() {
        let mut q = ShadowQueue::new(5);
        q.insert(key(1));
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(key(1)));
    }
}
