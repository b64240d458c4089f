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

pub mod arc;
pub mod facebook;
pub mod lru;

use crate::key::Key;
use crate::lru::HitLocation;
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

    /// Whether the policy keeps a strict recency order and can therefore
    /// report tail-region hits (required by the cliff-scaling algorithm).
    pub fn supports_tail_region(self) -> bool {
        matches!(self, PolicyKind::Lru | PolicyKind::Facebook)
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
    /// Records a hit on `key`, reorganising internal structures. Returns
    /// where the hit was found, or `None` if the key is not resident.
    fn access(&mut self, key: Key) -> Option<HitLocation>;

    /// Notifies the policy of a GET that missed the physical queue. Policies
    /// with ghost lists (ARC) use this to adapt; others ignore it.
    fn on_miss(&mut self, _key: Key) {}

    /// Makes `key` resident with the given weight (replacing any previous
    /// entry for the same key).
    fn insert(&mut self, key: Key, weight: u64);

    /// Removes and returns the next eviction victim.
    fn evict(&mut self) -> Option<(Key, u64)>;

    /// Removes a specific key, returning its weight if it was resident.
    fn remove(&mut self, key: Key) -> Option<u64>;

    /// Whether `key` is resident.
    fn contains(&self, key: Key) -> bool;

    /// Number of resident keys.
    fn len(&self) -> usize;

    /// Whether no keys are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of resident keys.
    fn total_weight(&self) -> u64;

    /// Configures the tail region (last `items` items) for policies that
    /// support it; a no-op otherwise.
    fn set_tail_region(&mut self, items: usize);

    /// Whether [`EvictionPolicy::set_tail_region`] has any effect.
    fn supports_tail_region(&self) -> bool {
        false
    }

    /// The policy's kind tag.
    fn kind(&self) -> PolicyKind;
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

        for i in 0..16 {
            policy.insert(key(i), 10);
        }
        assert_eq!(policy.len(), 16);
        assert_eq!(policy.total_weight(), 160);
        assert!(policy.contains(key(3)));
        assert!(!policy.contains(key(99)));

        assert!(policy.access(key(3)).is_some());
        assert!(policy.access(key(99)).is_none());

        // Removing returns the weight exactly once.
        assert_eq!(policy.remove(key(5)), Some(10));
        assert_eq!(policy.remove(key(5)), None);
        assert_eq!(policy.len(), 15);
        assert_eq!(policy.total_weight(), 150);

        // Re-inserting an existing key must not double count.
        policy.insert(key(3), 20);
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
        for i in 0..64 {
            policy.insert(key(i), 1);
        }
        for i in (0..64).step_by(3) {
            policy.access(key(i));
        }
        for i in (0..64).step_by(7) {
            policy.remove(key(i));
        }
        let mut seen = HashSet::new();
        while let Some((k, _)) = policy.evict() {
            assert!(seen.insert(k), "key {k:?} evicted twice");
            assert_ne!(k.raw() % 7, 0, "removed key {k:?} came back from evict");
        }
    }
}
