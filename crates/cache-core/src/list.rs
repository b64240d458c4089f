//! An index-based intrusive doubly-linked list arena.
//!
//! Every recency-ordered queue in this crate (LRU lists, shadow queues,
//! ARC's T1 and T2) is built on [`LinkedArena`]: a `Vec` of nodes linked by
//! `u32` indices. A freed slot is chained to the previously freed one through
//! its own `next` link and is the first reused, so a queue's memory is its
//! nodes and nothing beside them: a value plus 8 bytes of links. Compared
//! to `std::collections::LinkedList` this gives O(1) removal of arbitrary
//! elements by handle without unsafe code or per-node allocations. A node
//! never moves between slots, so a handle stays good while the list is
//! relinked around it: that is what lets the queues keep their segments as
//! boundaries in one list and lets an engine's index hold handles.

use std::num::NonZeroU32;

/// Handle to a node inside a [`LinkedArena`].
///
/// Handles are only meaningful for the arena that issued them and become
/// invalid after the node is removed (slots are recycled; a stale handle may
/// alias a newer node, so whoever holds a handle drops it on removal — the
/// engines do, with the index entry that holds it). It stores the slot plus
/// one, so an `Option` of it, or of a [`crate::key::KeyMap`] entry holding
/// it, costs no tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeHandle(NonZeroU32);

impl NodeHandle {
    const NONE: u32 = u32::MAX;

    fn some(idx: usize) -> Self {
        debug_assert!(idx < u32::MAX as usize);
        NodeHandle(NonZeroU32::MIN.saturating_add(idx as u32))
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A slot: a live node (`value` set, linked both ways) or a free one
/// (`value` empty, `next` naming the slot freed before it).
#[derive(Debug)]
struct Node<T> {
    value: Option<T>,
    prev: u32,
    next: u32,
}

/// A doubly-linked list stored in a growable arena.
///
/// The list maintains front ("most recent") and back ("least recent") ends.
/// All operations are O(1) except iteration.
#[derive(Debug)]
pub struct LinkedArena<T> {
    nodes: Vec<Node<T>>,
    /// The slot freed last, the first the next node takes.
    free: u32,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> Default for LinkedArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LinkedArena<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        LinkedArena {
            nodes: Vec::new(),
            free: NodeHandle::NONE,
            head: NodeHandle::NONE,
            tail: NodeHandle::NONE,
            len: 0,
        }
    }

    /// Number of elements in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, value: T) -> u32 {
        if self.free != NodeHandle::NONE {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.value = Some(value);
            node.prev = NodeHandle::NONE;
            node.next = NodeHandle::NONE;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                value: Some(value),
                prev: NodeHandle::NONE,
                next: NodeHandle::NONE,
            });
            idx
        }
    }

    /// Pushes a value at the front (most-recent end) and returns its handle.
    pub fn push_front(&mut self, value: T) -> NodeHandle {
        let idx = self.alloc(value);
        self.nodes[idx as usize].next = self.head;
        self.nodes[idx as usize].prev = NodeHandle::NONE;
        if self.head != NodeHandle::NONE {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
        self.len += 1;
        NodeHandle::some(idx as usize)
    }

    /// Pushes a value at the back (least-recent end) and returns its handle.
    pub fn push_back(&mut self, value: T) -> NodeHandle {
        let idx = self.alloc(value);
        self.nodes[idx as usize].prev = self.tail;
        self.nodes[idx as usize].next = NodeHandle::NONE;
        if self.tail != NodeHandle::NONE {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        self.len += 1;
        NodeHandle::some(idx as usize)
    }

    /// Inserts a value immediately before the node identified by `before`.
    pub fn insert_before(&mut self, before: NodeHandle, value: T) -> NodeHandle {
        let b = before.index() as u32;
        let prev = self.nodes[b as usize].prev;
        if prev == NodeHandle::NONE {
            return self.push_front(value);
        }
        let idx = self.alloc(value);
        self.nodes[idx as usize].prev = prev;
        self.nodes[idx as usize].next = b;
        self.nodes[prev as usize].next = idx;
        self.nodes[b as usize].prev = idx;
        self.len += 1;
        NodeHandle::some(idx as usize)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let node = &self.nodes[idx as usize];
            (node.prev, node.next)
        };
        if prev != NodeHandle::NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NodeHandle::NONE {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Removes the node identified by `handle`, returning its value.
    ///
    /// # Panics
    /// Panics if the handle does not refer to a live node.
    pub fn remove(&mut self, handle: NodeHandle) -> T {
        let idx = handle.index() as u32;
        self.unlink(idx);
        let node = &mut self.nodes[idx as usize];
        let value = node
            .value
            .take()
            .expect("LinkedArena::remove called with a stale handle");
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        value
    }

    /// Moves an existing node to the front (most-recent end).
    pub fn move_to_front(&mut self, handle: NodeHandle) {
        let idx = handle.index() as u32;
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.nodes[idx as usize].next = self.head;
        self.nodes[idx as usize].prev = NodeHandle::NONE;
        if self.head != NodeHandle::NONE {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Returns a reference to the value stored at `handle`.
    pub fn get(&self, handle: NodeHandle) -> Option<&T> {
        self.nodes
            .get(handle.index())
            .and_then(|n| n.value.as_ref())
    }

    /// Returns a mutable reference to the value stored at `handle`.
    pub fn get_mut(&mut self, handle: NodeHandle) -> Option<&mut T> {
        self.nodes
            .get_mut(handle.index())
            .and_then(|n| n.value.as_mut())
    }

    /// Asks the cache for the node at `handle` (see [`crate::prefetch`]).
    pub fn prefetch(&self, handle: NodeHandle) {
        if let Some(node) = self.nodes.get(handle.index()) {
            crate::prefetch::line(node);
        }
    }

    /// Asks the cache for the two nodes linked to the one at `handle`, which
    /// unlinking it writes. Reads the node: [`LinkedArena::prefetch`] it first.
    pub fn prefetch_neighbours(&self, handle: NodeHandle) {
        let linked = self.nodes.get(handle.index()).map(|n| [n.prev, n.next]);
        // `NONE` is past the end of any arena.
        for neighbour in linked.iter().flatten() {
            if let Some(node) = self.nodes.get(*neighbour as usize) {
                crate::prefetch::line(node);
            }
        }
    }

    /// Handle of the back (least-recent) node.
    pub fn back(&self) -> Option<NodeHandle> {
        (self.tail != NodeHandle::NONE).then(|| NodeHandle::some(self.tail as usize))
    }

    /// Handle of the node preceding `handle` (towards the front).
    pub fn prev(&self, handle: NodeHandle) -> Option<NodeHandle> {
        let prev = self.nodes[handle.index()].prev;
        (prev != NodeHandle::NONE).then(|| NodeHandle::some(prev as usize))
    }

    /// Handle of the node following `handle` (towards the back).
    pub fn next(&self, handle: NodeHandle) -> Option<NodeHandle> {
        let next = self.nodes[handle.index()].next;
        (next != NodeHandle::NONE).then(|| NodeHandle::some(next as usize))
    }

    /// Heap bytes the arena holds: its node slots, live or free. They do not
    /// shrink: a slot freed is kept for the next node.
    pub fn heap_bytes(&self) -> u64 {
        (self.nodes.capacity() * std::mem::size_of::<Node<T>>()) as u64
    }

    /// Iterates over values from front (most recent) to back (least recent).
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            arena: self,
            cursor: self.head,
        }
    }
}

/// Iterator over a [`LinkedArena`] from front to back.
pub struct Iter<'a, T> {
    arena: &'a LinkedArena<T>,
    cursor: u32,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NodeHandle::NONE {
            return None;
        }
        let node = &self.arena.nodes[self.cursor as usize];
        self.cursor = node.next;
        node.value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(arena: &LinkedArena<u32>) -> Vec<u32> {
        arena.iter().copied().collect()
    }

    #[test]
    fn push_front_orders_most_recent_first() {
        let mut a = LinkedArena::new();
        a.push_front(1);
        a.push_front(2);
        a.push_front(3);
        assert_eq!(collect(&a), vec![3, 2, 1]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn push_back_appends() {
        let mut a = LinkedArena::new();
        a.push_back(1);
        a.push_back(2);
        a.push_front(0);
        assert_eq!(collect(&a), vec![0, 1, 2]);
    }

    #[test]
    fn remove_relinks_and_empties() {
        let mut a = LinkedArena::new();
        let h1 = a.push_front(1);
        let h2 = a.push_front(2);
        let h3 = a.push_front(3);
        assert_eq!(a.remove(h2), 2);
        assert_eq!(collect(&a), vec![3, 1]);
        assert_eq!(a.back(), Some(h1));
        assert_eq!(a.remove(h1), 1);
        assert_eq!(a.remove(h3), 3);
        assert!(a.is_empty());
        assert_eq!(a.back(), None);
        assert_eq!(a.get(h3), None, "a removed handle names nothing");
    }

    #[test]
    fn move_to_front_promotes_in_place() {
        let mut a = LinkedArena::new();
        let h1 = a.push_front(1);
        a.push_front(2);
        a.push_front(3);
        a.move_to_front(h1);
        assert_eq!(collect(&a), vec![1, 3, 2]);
        assert_eq!(a.get(h1), Some(&1), "the handle still names the node");
    }

    #[test]
    fn insert_before_keeps_order() {
        let mut a = LinkedArena::new();
        let h1 = a.push_front(1);
        let h3 = a.push_front(3);
        a.insert_before(h1, 2);
        assert_eq!(collect(&a), vec![3, 2, 1]);
        // Inserting before the head is equivalent to push_front.
        a.insert_before(h3, 4);
        assert_eq!(collect(&a), vec![4, 3, 2, 1]);
    }

    #[test]
    fn slots_are_recycled_last_freed_first() {
        let mut a = LinkedArena::new();
        let h: Vec<NodeHandle> = (0..4).map(|i| a.push_front(i)).collect();
        let bytes = a.heap_bytes();
        a.remove(h[1]);
        a.remove(h[3]);
        a.remove(h[0]);
        // Freeing a slot and taking it again allocate nothing.
        assert_eq!(a.heap_bytes(), bytes);
        assert_eq!(a.push_back(10), h[0]);
        assert_eq!(a.push_back(11), h[3]);
        assert_eq!(a.push_front(12), h[1]);
        assert_eq!(a.push_front(13), NodeHandle::some(4));
        assert_eq!(a.nodes.len(), 5);
        assert_eq!(collect(&a), vec![13, 12, 2, 10, 11]);
    }

    #[test]
    fn prev_next_navigation() {
        let mut a = LinkedArena::new();
        let h1 = a.push_front(1);
        let h2 = a.push_front(2);
        assert_eq!(a.prev(h1), Some(h2));
        assert_eq!(a.next(h2), Some(h1));
        assert_eq!(a.prev(h2), None);
        assert_eq!(a.next(h1), None);
        assert_eq!(a.back(), Some(h1));
    }
}
