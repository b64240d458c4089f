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
struct Ghost {
    key: Key,
    half: ShadowHalf,
}

/// A fixed-capacity, key-only LRU queue with exact half classification.
///
/// The queue is one list, newest first, whose nodes are tagged left (newer)
/// or right (older); the boundary is kept at `ceil(len / 2)` by retagging
/// the node next to it, so half membership is exact at all times and the
/// key index (a shadow queue is looked up by key: its keys are resident
/// nowhere else) is touched only for the key an operation names.
#[derive(Debug)]
pub struct ShadowQueue {
    nodes: LinkedArena<Ghost>,
    /// First node of the right half (`None` while it is empty).
    right_head: Option<NodeHandle>,
    left_len: usize,
    index: KeyMap<NodeHandle>,
    capacity: usize,
}

impl ShadowQueue {
    /// Creates a shadow queue holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        ShadowQueue {
            nodes: LinkedArena::new(),
            right_head: None,
            left_len: 0,
            index: KeyMap::default(),
            capacity,
        }
    }

    /// Maximum number of keys retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes of the queue's arena and key index.
    pub fn heap_bytes(&self) -> u64 {
        self.nodes.heap_bytes() + self.index.heap_bytes()
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
        let half = ShadowHalf::Left;
        let handle = self.nodes.push_front(Ghost { key, half });
        self.left_len += 1;
        if let Some(stale) = self.index.insert(key, handle) {
            self.unlink(stale);
        }
        let evicted = self.enforce_capacity();
        self.rebalance();
        evicted
    }

    /// Probes the shadow queue for `key`. On a hit the key is removed (it is
    /// about to be re-admitted to the physical queue by the caller) and the
    /// half it was found in is reported.
    pub fn probe(&mut self, key: Key) -> Option<ShadowHit> {
        // An empty queue (every capacity-0 one) costs a lookup no hash.
        if self.index.is_empty() {
            return None;
        }
        let handle = self.index.remove(&key)?;
        let half = self.unlink(handle);
        self.rebalance();
        Some(ShadowHit {
            half,
            depth_hint: match half {
                ShadowHalf::Left => 0,
                ShadowHalf::Right => self.capacity / 2,
            },
        })
    }

    /// Looks up `key` without removing it.
    pub fn peek(&self, key: Key) -> Option<ShadowHalf> {
        let handle = self.index.get(&key)?;
        self.nodes.get(*handle).map(|ghost| ghost.half)
    }

    /// Removes `key` if present (used when the physical queue re-admits a key
    /// through a path that did not call [`ShadowQueue::probe`]).
    pub fn remove(&mut self, key: Key) -> bool {
        self.probe(key).is_some()
    }

    /// Iterates over keys from most to least recently evicted.
    pub fn iter(&self) -> impl Iterator<Item = Key> + '_ {
        self.nodes.iter().map(|ghost| ghost.key)
    }

    /// Takes the node at `handle` off the list and out of its half's books.
    fn unlink(&mut self, handle: NodeHandle) -> ShadowHalf {
        if self.right_head == Some(handle) {
            self.right_head = self.nodes.next(handle);
        }
        let ghost = self.nodes.remove(handle);
        if ghost.half == ShadowHalf::Left {
            self.left_len -= 1;
        }
        ghost.half
    }

    fn enforce_capacity(&mut self) -> Option<Key> {
        let mut last_evicted = None;
        while self.index.len() > self.capacity {
            let oldest = self.nodes.back().expect("over capacity implies non-empty");
            let key = self.nodes.get(oldest).expect("back is live").key;
            self.unlink(oldest);
            self.index.remove(&key);
            last_evicted = Some(key);
        }
        last_evicted
    }

    /// Moves the boundary until the left half holds `ceil(len / 2)` keys.
    fn rebalance(&mut self) {
        let left_target = self.index.len().div_ceil(2);
        while self.left_len > left_target {
            // The left half's last node becomes the right half's first.
            let node = match self.right_head {
                Some(first) => self.nodes.prev(first),
                None => self.nodes.back(),
            }
            .expect("left half non-empty");
            self.retag(node, ShadowHalf::Right);
            self.right_head = Some(node);
            self.left_len -= 1;
        }
        while self.left_len < left_target {
            let node = self.right_head.expect("right half non-empty");
            self.retag(node, ShadowHalf::Left);
            self.right_head = self.nodes.next(node);
            self.left_len += 1;
        }
    }

    fn retag(&mut self, node: NodeHandle, half: ShadowHalf) {
        if let Some(ghost) = self.nodes.get_mut(node) {
            ghost.half = half;
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
}
