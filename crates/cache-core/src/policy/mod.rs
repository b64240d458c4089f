//! Eviction policies.
//!
//! Cliffhanger "supports any eviction policy, including LRU, LFU or hybrid
//! policies such as ARC" (paper §1). This module provides the policies the
//! paper discusses behind a single object-safe trait so that queues, stores
//! and the Cliffhanger controller are policy-agnostic:
//!
//! * [`lru::LruPolicy`] — plain LRU (Memcached's default).
//! * [`facebook::FacebookPolicy`] — Facebook's hybrid scheme: first-time items
//!   are inserted at the middle of the queue, promoted to the top on a second
//!   hit (§5.5, §6.2).
//! * [`arc::ArcPolicy`] — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//!
//! Eviction is driven externally: the owning queue calls [`EvictionPolicy::evict`]
//! until it is back under its byte budget, so policies order items but do not
//! themselves enforce a capacity (except for their internal ghost lists).
//!
//! A policy is an order keeper, not a dictionary. It cannot tell whether a
//! key is resident: [`EvictionPolicy::insert`] returns a [`Token`], the
//! engine that owns the queue keeps that token in its one index entry for
//! the key, and [`EvictionPolicy::access`] / [`EvictionPolicy::remove`]
//! take it back. [`EvictionPolicy::evict`] returns the victim's key so the
//! engine can drop the entry. Only ARC's ghost lists are looked up by key,
//! and they keep a key-only index of their own, as every
//! [`crate::ShadowQueue`] does.

pub mod arc;
pub mod facebook;
pub mod lru;

use crate::key::Key;
use crate::list::NodeHandle;
use crate::lru::HitLocation;
use crate::prefetch::Sweep;
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

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(lru::LruPolicy::new()),
            PolicyKind::Facebook => Box::new(facebook::FacebookPolicy::new()),
            PolicyKind::Arc => Box::new(arc::ArcPolicy::new()),
        }
    }
}

/// Names one resident item inside the policy that issued it, from
/// [`EvictionPolicy::insert`] until the item is removed or evicted. Opaque:
/// the engine stores it beside the value and hands it back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    node: NodeHandle,
    /// ARC only: the node is in T2 (the frequency list), not T1.
    frequent: bool,
}

impl Token {
    pub(crate) fn new(node: NodeHandle) -> Token {
        Token {
            node,
            frequent: false,
        }
    }
}

/// An eviction policy over weighted keys.
///
/// A policy orders the resident keys of one queue and selects eviction
/// victims. Weights (bytes) are carried through so the owning queue can do
/// byte-based accounting, but — as in Memcached — they do not influence the
/// eviction order within a queue (size-awareness comes from slab classes and
/// from the allocation algorithm above).
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Records a hit on the item `token` names, reorganising internal
    /// structures (ARC moves the item between its lists and rewrites the
    /// token). Returns where the hit was found.
    fn access(&mut self, token: &mut Token) -> HitLocation;

    /// Notifies the policy of a GET that missed the physical queue. Policies
    /// with ghost lists (ARC) use this to adapt; others ignore it.
    fn on_miss(&mut self, _key: Key) {}

    /// Makes `key` resident with the given weight. The caller has removed
    /// any previous copy: a policy cannot look a key up.
    fn insert(&mut self, key: Key, weight: u64) -> Token;

    /// Removes and returns the next eviction victim.
    fn evict(&mut self) -> Option<(Key, u64)>;

    /// Removes the item `token` names, returning its key and weight.
    fn remove(&mut self, token: Token) -> (Key, u64);

    /// Drops what the policy remembered about the next admission of `key`
    /// (ARC's ghost-hit mark). The owning queue calls it when the admission
    /// a miss announced will not happen here: the write was turned away as
    /// oversized, the key was deleted, or the write landed in another queue.
    fn forget(&mut self, _key: Key) {}

    /// The key and weight `token` names, if it names a live item.
    fn peek(&self, token: Token) -> Option<(Key, u64)>;

    /// One read-only sweep ahead of an `access` or `remove` of `token`
    /// (see [`crate::prefetch`]): advisory, so a policy may ignore it.
    fn prefetch(&self, _token: Token, _sweep: Sweep) {}

    /// Number of resident keys.
    fn len(&self) -> usize;

    /// Whether no keys are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of resident keys.
    fn total_weight(&self) -> u64;

    /// Heap bytes of the policy's lists (`queues`) and ghosts (`shadows`).
    fn footprint(&self) -> Footprint;

    /// Configures the tail region (last `items` items) for policies that
    /// keep a strict recency order and can therefore report tail-region
    /// hits (LRU, Facebook); a no-op otherwise.
    fn set_tail_region(&mut self, items: usize);
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance checks run against every policy implementation.
    use super::*;

    pub(crate) fn key(i: u64) -> Key {
        Key::new(i)
    }

    /// Basic invariants every policy must satisfy.
    pub(crate) fn basic_contract(mut policy: Box<dyn EvictionPolicy>) {
        assert!(policy.is_empty());
        assert_eq!(policy.evict(), None);

        let mut tokens: Vec<Token> = (0..16).map(|i| policy.insert(key(i), 10)).collect();
        assert_eq!(policy.len(), 16);
        assert_eq!(policy.total_weight(), 160);
        assert_eq!(policy.peek(tokens[3]), Some((key(3), 10)));

        // A hit may move the item between lists but the (possibly
        // rewritten) token keeps naming it.
        policy.access(&mut tokens[3]);
        assert_eq!(policy.peek(tokens[3]), Some((key(3), 10)));

        // Removing hands the key and weight back.
        assert_eq!(policy.remove(tokens[5]), (key(5), 10));
        assert_eq!(policy.len(), 15);
        assert_eq!(policy.total_weight(), 150);

        // Replacing an item is remove-then-insert and must not double count.
        policy.remove(tokens[3]);
        tokens[3] = policy.insert(key(3), 20);
        assert_eq!(policy.len(), 15);
        assert_eq!(policy.total_weight(), 160);

        // Evicting everything drains the policy and the weights.
        let mut drained = 0u64;
        let mut count = 0usize;
        while let Some((_, w)) = policy.evict() {
            drained += w;
            count += 1;
        }
        assert_eq!(count, 15);
        assert_eq!(drained, 160);
        assert!(policy.is_empty());
        assert_eq!(policy.total_weight(), 0);
    }

    /// Evictions must never return a key that was explicitly removed and must
    /// never return the same key twice.
    pub(crate) fn no_duplicate_evictions(mut policy: Box<dyn EvictionPolicy>) {
        use std::collections::HashSet;
        let mut tokens: Vec<Token> = (0..64).map(|i| policy.insert(key(i), 1)).collect();
        for i in (0..64).step_by(3) {
            policy.access(&mut tokens[i]);
        }
        for i in (0..64).step_by(7) {
            policy.remove(tokens[i]);
        }
        let mut seen = HashSet::new();
        while let Some((k, _)) = policy.evict() {
            assert!(seen.insert(k), "key {k:?} evicted twice");
            assert_ne!(k.raw() % 7, 0, "removed key {k:?} came back from evict");
        }
    }
}
