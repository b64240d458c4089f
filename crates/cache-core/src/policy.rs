//! Eviction policies.
//!
//! Cliffhanger "supports any eviction policy, including LRU, LFU or hybrid
//! policies such as ARC" (paper §1). The paper measures three, and a
//! [`Policy`] is one of them:
//!
//! * plain LRU (Memcached's default) and Facebook's hybrid scheme — first-time
//!   items are inserted at the middle of the queue, promoted to the top on a
//!   second hit (§5.5, §6.2) — are one [`LruList`] each, and differ only in
//!   the [`InsertPosition`] of a new item;
//! * [`ArcPolicy`] — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//!
//! Eviction is driven externally: the owning queue calls [`Policy::evict`]
//! until it is back under its byte budget, so policies order items but do not
//! themselves enforce a capacity (except for ARC's ghost lists).
//!
//! A policy is an order keeper, not a dictionary. It cannot tell whether a
//! key is resident: [`Policy::insert`] returns a [`NodeHandle`] that names
//! the item until it is removed or evicted, the engine that owns the queue
//! keeps that handle in its one index entry for the key, and
//! [`Policy::access`] / [`Policy::remove`] take it back. [`Policy::evict`]
//! returns the victim's key so the engine can drop the entry. Only ARC's
//! ghost lists are looked up by key, and they keep a key-only index of their
//! own, as every [`crate::ShadowQueue`] does.

use crate::key::{Key, KeyMap};
use crate::list::{LinkedArena, NodeHandle};
use crate::lru::{Entry, HitLocation, InsertPosition, LruList};
use crate::prefetch::Sweep;
use crate::shadow::ShadowQueue;
use crate::stats::Footprint;
use serde::{Deserialize, Serialize};

/// Which eviction policy to instantiate for a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PolicyKind {
    /// Least recently used (Memcached default).
    #[default]
    Lru,
    /// Facebook's mid-queue insertion scheme on top of LRU.
    Facebook,
    /// Adaptive Replacement Cache.
    Arc,
}

/// The eviction order of one queue, under the policy a [`PolicyKind`] names.
///
/// Weights (bytes) are carried through so the owning queue can do byte-based
/// accounting, but — as in Memcached — they do not influence the eviction
/// order within a queue (size-awareness comes from slab classes and from the
/// allocation algorithm above).
#[derive(Debug)]
pub enum Policy {
    /// LRU or Facebook: one recency list, a new item entering it at the
    /// given position. A hit promotes the item to the top wherever it was.
    List(LruList, InsertPosition),
    /// Adaptive Replacement Cache.
    Arc(Box<ArcPolicy>),
}

impl Policy {
    /// An empty policy of `kind`. A list reports hits on its last
    /// `tail_items` items as [`HitLocation::TailRegion`]; ARC keeps no
    /// strict recency order and reports every hit as [`HitLocation::Main`].
    pub fn new(kind: PolicyKind, tail_items: usize) -> Policy {
        let list = |insert| Policy::List(LruList::with_tail_region(tail_items), insert);
        match kind {
            PolicyKind::Lru => list(InsertPosition::Top),
            PolicyKind::Facebook => list(InsertPosition::Middle),
            PolicyKind::Arc => Policy::Arc(Box::default()),
        }
    }

    /// Records a hit on the item `handle` names and returns where it was
    /// found. The handle keeps naming the item (ARC moves it to T2 in
    /// place).
    pub fn access(&mut self, handle: NodeHandle) -> HitLocation {
        match self {
            Policy::List(list, _) => list.access(handle),
            Policy::Arc(arc) => {
                arc.access(handle);
                HitLocation::Main
            }
        }
    }

    /// Notifies the policy of a GET that missed the physical queue: ARC
    /// adapts to its ghost lists.
    pub fn on_miss(&mut self, key: Key) {
        if let Policy::Arc(arc) = self {
            arc.on_miss(key);
        }
    }

    /// Makes `key` resident with the given weight. The caller has removed
    /// any previous copy: a policy cannot look a key up.
    ///
    /// # Panics
    /// Panics if `weight` exceeds `u32::MAX`, as [`LruList::insert`] does.
    pub fn insert(&mut self, key: Key, weight: u64) -> NodeHandle {
        match self {
            Policy::List(list, position) => list.insert(key, weight, *position),
            Policy::Arc(arc) => arc.insert(key, weight),
        }
    }

    /// Removes and returns the next eviction victim.
    pub fn evict(&mut self) -> Option<(Key, u64)> {
        match self {
            Policy::List(list, _) => list.pop_lru(),
            Policy::Arc(arc) => arc.evict(),
        }
    }

    /// Removes the item `handle` names, returning its key and weight. ARC's
    /// ghost-hit mark for the key stays: the queue calls
    /// [`Policy::forget`] where the key is going away rather than being
    /// replaced.
    pub fn remove(&mut self, handle: NodeHandle) -> (Key, u64) {
        match self {
            Policy::List(list, _) => list.remove(handle),
            Policy::Arc(arc) => arc.remove(handle),
        }
    }

    /// Drops what the policy remembered about the next admission of `key`
    /// (ARC's ghost-hit mark). The owning queue calls it when the admission
    /// a miss announced will not happen here: the write was turned away as
    /// oversized, the key was deleted, or the write landed in another queue.
    pub fn forget(&mut self, key: Key) {
        if let Policy::Arc(arc) = self {
            arc.pending_frequent.remove(&key);
        }
    }

    /// The key and weight `handle` names, if it names a live item.
    pub fn peek(&self, handle: NodeHandle) -> Option<(Key, u64)> {
        match self {
            Policy::List(list, _) => list.get(handle),
            Policy::Arc(arc) => arc.nodes.get(handle).map(Entry::item),
        }
    }

    /// One read-only sweep ahead of an `access` or `remove` of `handle`
    /// (see [`crate::prefetch`]). Only the server's window sweeps, and the
    /// server runs LRU: ARC ignores it.
    pub(crate) fn prefetch(&self, handle: NodeHandle, sweep: Sweep) {
        if let Policy::List(list, _) = self {
            list.prefetch(handle, sweep);
        }
    }

    /// Asks for what the next [`Policy::evict`] touches and names its
    /// victim ([`LruList::prefetch_next_victim`]); ARC, which the server does
    /// not run, asks for nothing.
    pub(crate) fn prefetch_next_victim(&self) -> Option<Key> {
        match self {
            Policy::List(list, _) => list.prefetch_next_victim(),
            Policy::Arc(_) => None,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        match self {
            Policy::List(list, _) => list.len(),
            Policy::Arc(arc) => arc.nodes.len(),
        }
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of resident keys.
    pub fn total_weight(&self) -> u64 {
        match self {
            Policy::List(list, _) => list.total_weight(),
            Policy::Arc(arc) => arc.total_weight,
        }
    }

    /// Heap bytes of the policy's lists (`queues`) and of ARC's ghosts and
    /// their marks (`shadows`).
    pub(crate) fn footprint(&self) -> Footprint {
        let (queues, shadows) = match self {
            Policy::List(list, _) => (list.heap_bytes(), 0),
            Policy::Arc(arc) => (
                arc.nodes.heap_bytes(),
                arc.b1.heap_bytes() + arc.b2.heap_bytes() + arc.pending_frequent.heap_bytes(),
            ),
        };
        Footprint {
            index: 0,
            queues,
            shadows,
        }
    }
}

/// Which of ARC's two resident lists an item is in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArcList {
    /// Seen exactly once since admission (the recency side).
    T1,
    /// Seen at least twice (the frequency side).
    T2,
}

/// Adaptive Replacement Cache.
///
/// ARC (Megiddo & Modha, FAST 2003) splits the resident population into a
/// recency list T1 and a frequency list T2 and keeps two ghost lists (B1,
/// B2) of recently evicted keys. Ghost hits adapt the target size `p` of T1,
/// shifting capacity between recency and frequency. The paper's §5.5
/// compares Cliffhanger against ARC and finds ARC yields no improvement on
/// the Memcachier workloads; this implementation reproduces that comparison.
///
/// T1 and T2 are one [`LinkedArena`]: T2's run sits in front, T1's behind a
/// boundary (T1's first node), and each node is tagged with its list, as
/// [`LruList`] tags its segments. A hit on a T1 item retags its node and
/// relinks it at the front, so the handle an insertion returns names the
/// item for its whole life.
///
/// Eviction is driven externally by byte budgets, so ARC does not know its
/// capacity in items up front. It estimates `c` as the largest resident
/// population it has seen, which converges to the steady-state queue size
/// after the first round of evictions.
#[derive(Debug)]
pub struct ArcPolicy {
    /// T2's items, most recent first, then T1's.
    nodes: LinkedArena<Entry<ArcList>>,
    /// First node of T1, `None` while it is empty.
    t1_head: Option<NodeHandle>,
    t1_len: usize,
    total_weight: u64,
    /// Ghosts of keys evicted from T1.
    b1: ShadowQueue,
    /// Ghosts of keys evicted from T2.
    b2: ShadowQueue,
    /// Target size of T1, in items.
    p: usize,
    /// Estimated cache capacity in items.
    c: usize,
    /// Keys whose next insertion should go to T2 (they hit a ghost list).
    pending_frequent: KeyMap<()>,
}

impl Default for ArcPolicy {
    fn default() -> Self {
        ArcPolicy {
            nodes: LinkedArena::new(),
            t1_head: None,
            t1_len: 0,
            total_weight: 0,
            b1: ShadowQueue::new(0),
            b2: ShadowQueue::new(0),
            p: 0,
            c: 0,
            pending_frequent: KeyMap::default(),
        }
    }
}

impl ArcPolicy {
    /// The list the item `handle` names is in, if it names a live item.
    pub fn list(&self, handle: NodeHandle) -> Option<ArcList> {
        self.nodes.get(handle).map(|e| e.tag)
    }

    /// A second reference moves a T1 item to the front of T2, a later one to
    /// the front again. Panics on a handle that names no live item.
    fn access(&mut self, handle: NodeHandle) {
        let entry = self
            .nodes
            .get_mut(handle)
            .expect("ArcPolicy handle must name a live item");
        if entry.tag == ArcList::T1 {
            entry.tag = ArcList::T2;
            self.leave_t1(handle);
        }
        self.nodes.move_to_front(handle);
    }

    /// A miss on a key in a ghost list moves `p` and marks the key for
    /// admission to T2.
    fn on_miss(&mut self, key: Key) {
        let b1_len = self.b1.len().max(1);
        let b2_len = self.b2.len().max(1);
        if self.b1.remove(key) {
            // A larger T1 would have kept this key: grow the recency target.
            let delta = (b2_len / b1_len).max(1);
            self.p = (self.p + delta).min(self.c);
            self.pending_frequent.insert(key, ());
        } else if self.b2.remove(key) {
            // A larger T2 would have kept this key: shrink the recency target.
            let delta = (b1_len / b2_len).max(1);
            self.p = self.p.saturating_sub(delta);
            self.pending_frequent.insert(key, ());
        }
    }

    /// Admits `key` at the front of T2 if a ghost hit marked it, of T1
    /// otherwise.
    fn insert(&mut self, key: Key, weight: u64) -> NodeHandle {
        let frequent = self.pending_frequent.remove(&key).is_some();
        let list = if frequent { ArcList::T2 } else { ArcList::T1 };
        let entry = Entry::new(key, weight, list);
        let handle = match (list, self.t1_head) {
            (ArcList::T2, _) => self.nodes.push_front(entry),
            (ArcList::T1, Some(first)) => self.nodes.insert_before(first, entry),
            (ArcList::T1, None) => self.nodes.push_back(entry),
        };
        if list == ArcList::T1 {
            self.t1_head = Some(handle);
            self.t1_len += 1;
        }
        self.total_weight += weight;
        self.b1.remove(key);
        self.b2.remove(key);
        self.update_capacity_estimate();
        handle
    }

    /// Evicts T1's least recent item while T1 is over its target `p` (or
    /// T2 is empty), T2's otherwise, and remembers its key in that list's
    /// ghosts.
    fn evict(&mut self) -> Option<(Key, u64)> {
        let t2_len = self.nodes.len() - self.t1_len;
        let from_t1 = self.t1_len > 0 && (t2_len == 0 || self.t1_len > self.p);
        let victim = match self.t1_head {
            Some(first) if !from_t1 => self.nodes.prev(first),
            _ => self.nodes.back(),
        }?;
        let (key, weight) = self.remove(victim);
        let ghosts = if from_t1 { &mut self.b1 } else { &mut self.b2 };
        ghosts.insert(key);
        Some((key, weight))
    }

    fn remove(&mut self, handle: NodeHandle) -> (Key, u64) {
        if self.list(handle) == Some(ArcList::T1) {
            self.leave_t1(handle);
        }
        let (key, weight) = self.nodes.remove(handle).item();
        self.total_weight -= weight;
        (key, weight)
    }

    /// Takes the T1 node at `handle` out of T1's books (it stays linked
    /// where it is). T1 is the arena's last run, so the node after its first
    /// is T1's next first, or nothing.
    fn leave_t1(&mut self, handle: NodeHandle) {
        self.t1_len -= 1;
        if self.t1_head == Some(handle) {
            self.t1_head = self.nodes.next(handle);
        }
    }

    fn update_capacity_estimate(&mut self) {
        let resident = self.nodes.len();
        if resident > self.c {
            self.c = resident;
            self.b1.set_capacity(self.c);
            self.b2.set_capacity(self.c);
            self.p = self.p.min(self.c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// What every policy owes its queue: weights accounted through inserts,
    /// removals and evictions, a handle that keeps naming its item across
    /// hits, and evictions that drain every resident key exactly once and
    /// no removed one.
    #[test]
    fn every_kind_keeps_the_policy_contract() {
        for kind in [PolicyKind::Lru, PolicyKind::Facebook, PolicyKind::Arc] {
            let mut policy = Policy::new(kind, 0);
            assert_eq!((policy.evict(), policy.is_empty()), (None, true));
            let mut handles: Vec<NodeHandle> = (0..64).map(|i| policy.insert(key(i), 10)).collect();
            assert_eq!((policy.len(), policy.total_weight()), (64, 640));
            for i in (0..64).step_by(3) {
                policy.access(handles[i]);
                assert_eq!(policy.peek(handles[i]), Some((key(i as u64), 10)));
            }
            for i in (0..64).step_by(7) {
                assert_eq!(policy.remove(handles[i]), (key(i as u64), 10));
            }
            // Replacing an item is remove-then-insert and must not double count.
            policy.remove(handles[1]);
            handles[1] = policy.insert(key(1), 20);
            assert_eq!((policy.len(), policy.total_weight()), (54, 550));
            let (mut seen, mut drained) = (HashSet::new(), 0);
            while let Some((k, w)) = policy.evict() {
                assert!(seen.insert(k), "{kind:?} evicted {k:?} twice");
                assert_ne!(k.raw() % 7, 0, "{kind:?}: removed {k:?} came back");
                drained += w;
            }
            assert_eq!((seen.len(), drained), (54, 550), "{kind:?}");
            assert_eq!((policy.is_empty(), policy.total_weight()), (true, 0));
        }
    }

    /// ARC's T1 and T2 nodes are an LRU list's size: key 8, charge 4, list
    /// tag 1, padding 3, links 8. Freed nodes cost nothing beside their
    /// slots.
    #[test]
    fn an_arc_node_is_24_bytes_and_the_arena_is_its_nodes() {
        let mut p = Policy::new(PolicyKind::Arc, 0);
        let handles: Vec<NodeHandle> = (0..64).map(|i| p.insert(key(i), 10)).collect();
        p.access(handles[7]);
        assert_eq!(p.footprint().queues, 64 * 24);
        for _ in 0..40 {
            p.evict();
        }
        assert_eq!(p.footprint().queues, 64 * 24);
    }

    #[test]
    fn scan_does_not_flush_frequent_items() {
        // The headline ARC property: a long scan of one-time keys must not
        // evict the frequently reused working set.
        let mut p = Policy::new(PolicyKind::Arc, 0);
        let working: Vec<NodeHandle> = (0..32).map(|i| p.insert(key(i), 1)).collect();
        for &handle in &working {
            p.access(handle); // promote the working set to T2
        }
        // Scan 10_000 one-time keys through a cache held at 64 items by an
        // external byte budget (we emulate the budget by evicting whenever
        // the resident population exceeds 64).
        for i in 0..10_000u64 {
            let k = key(1_000 + i);
            p.on_miss(k);
            p.insert(k, 1);
            while p.len() > 64 {
                p.evict();
            }
        }
        // A freed slot may hold a scan key now, so a working-set handle
        // names its own key exactly when the key survived.
        let survivors = (0..32u64)
            .filter(|&i| p.peek(working[i as usize]) == Some((key(i), 1)))
            .count();
        assert!(
            survivors > 16,
            "ARC should protect the reused working set from a scan, \
             only {survivors}/32 survived"
        );
    }
}
