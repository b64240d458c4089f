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
//! Cliffhanger reads one shadow queue at two depths (paper §5.1, Figure 5):
//! a short **near** segment right behind the physical queue (the cliff
//! shadow: a hit there is hit mass just beyond the queue, Algorithm 2) and,
//! appended to it, a long **far** segment (the hill-climbing shadow,
//! Algorithm 1). A key enters at the front of the near segment, moves to the
//! front of the far segment once the near one overflows, and falls off the
//! far end; it never moves back. A queue with no far segment is a plain
//! shadow queue (a physical queue's own, ARC's ghost lists).

use crate::key::{Key, KeyMap};
use crate::list::{LinkedArena, NodeHandle};

/// Which segment of a shadow queue held a key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment {
    /// The fixed-capacity segment right behind the physical queue.
    Near,
    /// The segment the near one overflows into.
    Far,
}

#[derive(Clone, Copy, Debug)]
struct Ghost {
    key: Key,
    segment: Segment,
}

/// A key-only LRU queue: a near segment in front of a far segment.
///
/// The queue is one list, newest first, whose nodes are tagged with their
/// segment; every near node precedes every far node, so overflowing the near
/// segment retags one node at the boundary, and the key index (a shadow
/// queue is looked up by key: its keys are resident nowhere else) is touched
/// only for the key an operation names and the key falling off the end.
#[derive(Debug)]
pub struct ShadowQueue {
    nodes: LinkedArena<Ghost>,
    /// First node of the far segment (`None` while it is empty).
    far_head: Option<NodeHandle>,
    near_len: usize,
    near_capacity: usize,
    far_capacity: usize,
    index: KeyMap<NodeHandle>,
}

impl ShadowQueue {
    /// Creates a shadow queue whose near segment holds at most `capacity`
    /// keys, with no far segment.
    pub fn new(capacity: usize) -> Self {
        ShadowQueue {
            nodes: LinkedArena::new(),
            far_head: None,
            near_len: 0,
            near_capacity: capacity,
            far_capacity: 0,
            index: KeyMap::default(),
        }
    }

    /// Maximum number of keys retained, both segments together.
    pub fn capacity(&self) -> usize {
        self.near_capacity + self.far_capacity
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

    /// Changes the near segment's capacity; what no longer fits moves to
    /// the far segment.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.near_capacity = capacity;
        self.enforce_capacity();
    }

    /// Changes the far segment's capacity, dropping its oldest keys if
    /// necessary.
    pub fn set_far_capacity(&mut self, capacity: usize) {
        self.far_capacity = capacity;
        self.enforce_capacity();
    }

    /// Inserts a key evicted from the physical queue at the front of the
    /// near segment, taking it out of wherever the queue held it before.
    pub fn insert(&mut self, key: Key) {
        if self.capacity() == 0 {
            return;
        }
        let segment = Segment::Near;
        let handle = self.nodes.push_front(Ghost { key, segment });
        self.near_len += 1;
        if let Some(stale) = self.index.insert(key, handle) {
            self.unlink(stale);
        }
        self.enforce_capacity();
    }

    /// Probes the shadow queue for `key`. On a hit the key is removed (it is
    /// about to be re-admitted to the physical queue by the caller) and the
    /// segment it was found in is reported.
    pub fn probe(&mut self, key: Key) -> Option<Segment> {
        // An empty queue (every capacity-0 one) costs a lookup no hash.
        if self.index.is_empty() {
            return None;
        }
        let handle = self.index.remove(&key)?;
        Some(self.unlink(handle).segment)
    }

    /// Asks for what inserting `next` — the key the physical queue evicts
    /// next — will touch: its slot in the index, the node in front of the
    /// far segment's first (the near segment's overflow retags it), and the
    /// last node's key slot and front neighbour (a full queue drops it). In
    /// a full queue the insert before this one wrote both nodes, so reading
    /// them costs no miss (see [`crate::prefetch`]).
    pub fn prefetch_insert(&self, next: Key) {
        if self.capacity() == 0 {
            return;
        }
        self.index.prefetch(next);
        if let Some(first) = self.far_head {
            self.nodes.prefetch_neighbours(first);
        }
        if let Some(last) = self.nodes.back() {
            self.nodes.prefetch_neighbours(last);
            if let Some(ghost) = self.nodes.get(last) {
                self.index.prefetch(ghost.key);
            }
        }
    }

    /// Removes `key` if present (used when the physical queue re-admits a key
    /// through a path that did not call [`ShadowQueue::probe`]).
    pub fn remove(&mut self, key: Key) -> bool {
        self.probe(key).is_some()
    }

    /// Iterates over keys and their segments from most to least recently
    /// evicted.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Segment)> + '_ {
        self.nodes.iter().map(|ghost| (ghost.key, ghost.segment))
    }

    /// Takes the node at `handle` off the list and out of its segment's
    /// books.
    fn unlink(&mut self, handle: NodeHandle) -> Ghost {
        if self.far_head == Some(handle) {
            self.far_head = self.nodes.next(handle);
        }
        let ghost = self.nodes.remove(handle);
        if ghost.segment == Segment::Near {
            self.near_len -= 1;
        }
        ghost
    }

    /// Moves the near segment's overflow to the front of the far segment,
    /// then drops the far segment's overflow off the end.
    fn enforce_capacity(&mut self) {
        while self.near_len > self.near_capacity {
            // The near segment's last node becomes the far segment's first.
            let last = match self.far_head {
                Some(first) => self.nodes.prev(first),
                None => self.nodes.back(),
            }
            .expect("near segment non-empty");
            if let Some(ghost) = self.nodes.get_mut(last) {
                ghost.segment = Segment::Far;
            }
            self.far_head = Some(last);
            self.near_len -= 1;
        }
        while self.index.len() - self.near_len > self.far_capacity {
            let oldest = self.nodes.back().expect("far segment non-empty");
            let ghost = self.unlink(oldest);
            self.index.remove(&ghost.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// A queue of `near` + `far` keys.
    fn segmented(near: usize, far: usize) -> ShadowQueue {
        let mut q = ShadowQueue::new(near);
        q.set_far_capacity(far);
        q
    }

    /// The queue's keys, newest first, with `N` or `F` for their segment.
    fn contents(q: &ShadowQueue) -> Vec<(u64, char)> {
        q.iter()
            .map(|(k, segment)| (k.raw(), if segment == Segment::Near { 'N' } else { 'F' }))
            .collect()
    }

    #[test]
    fn insert_and_probe() {
        let mut q = ShadowQueue::new(4);
        q.insert(key(1));
        q.insert(key(2));
        assert!(q.contains(key(1)));
        assert_eq!(q.probe(key(1)), Some(Segment::Near));
        // Probe removes the key.
        assert!(!q.contains(key(1)));
        assert!(q.probe(key(1)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn the_near_segment_overflows_into_the_far_one() {
        let mut q = segmented(2, 3);
        for i in 0..7 {
            q.insert(key(i));
        }
        // 6 and 5 are near; 4, 3, 2 far; 1 and 0 fell off the end.
        let expected = [(6, 'N'), (5, 'N'), (4, 'F'), (3, 'F'), (2, 'F')];
        assert_eq!(contents(&q), expected);
        assert_eq!(q.probe(key(5)), Some(Segment::Near));
        assert_eq!(q.probe(key(3)), Some(Segment::Far));
        assert_eq!(q.probe(key(1)), None);
    }

    #[test]
    fn a_far_key_never_moves_back() {
        let mut q = segmented(2, 4);
        for i in 0..4 {
            q.insert(key(i));
        }
        // Emptying the near segment leaves the far one as it was.
        q.probe(key(3));
        q.probe(key(2));
        assert_eq!(contents(&q), [(1, 'F'), (0, 'F')]);
        // A far key inserted again is near, and held once.
        q.insert(key(0));
        assert_eq!(contents(&q), [(0, 'N'), (1, 'F')]);
    }

    #[test]
    fn probing_the_far_head_keeps_the_boundary() {
        let mut q = segmented(1, 3);
        for i in 0..4 {
            q.insert(key(i));
        }
        assert_eq!(q.probe(key(2)), Some(Segment::Far));
        q.insert(key(4));
        assert_eq!(contents(&q), [(4, 'N'), (3, 'F'), (1, 'F'), (0, 'F')]);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut q = ShadowQueue::new(3);
        q.insert(key(1));
        q.insert(key(2));
        q.insert(key(3));
        q.insert(key(1)); // refresh
        q.insert(key(4));
        assert!(!q.contains(key(2)), "key 1 was refreshed, 2 is oldest");
        assert!(q.contains(key(1)) && q.contains(key(3)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut q = ShadowQueue::new(0);
        q.insert(key(1));
        assert!(q.is_empty());
        assert!(q.probe(key(1)).is_none());
    }

    #[test]
    fn shrinking_moves_near_keys_far_and_drops_the_oldest() {
        let mut q = segmented(4, 2);
        for i in 0..6 {
            q.insert(key(i));
        }
        q.set_capacity(2);
        assert_eq!(contents(&q), [(5, 'N'), (4, 'N'), (3, 'F'), (2, 'F')]);
        q.set_far_capacity(1);
        assert_eq!(contents(&q), [(5, 'N'), (4, 'N'), (3, 'F')]);
        assert_eq!(q.capacity(), 3);
    }

    #[test]
    fn remove_then_iterate() {
        let mut q = ShadowQueue::new(5);
        for i in 0..5 {
            q.insert(key(i));
        }
        assert!(q.remove(key(2)));
        assert!(!q.remove(key(2)));
        let keys: Vec<u64> = q.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, vec![4, 3, 1, 0]);
    }
}
