//! The Facebook mid-queue insertion scheme.
//!
//! "Facebook has implemented a hybrid scheme, where the first time a request
//! is inserted into the eviction queue, it is not inserted at the top of the
//! queue but in the middle" (paper §6.2); on its second hit it is promoted to
//! the top (§5.5). Single-use items therefore reach the eviction end roughly
//! twice as fast as under LRU, which protects the working set from one-hit
//! wonders.

use crate::key::Key;
use crate::lru::{HitLocation, InsertPosition, LruList};
use crate::policy::{EvictionPolicy, Token};
use crate::prefetch::Sweep;
use crate::stats::Footprint;

/// Facebook's hybrid insertion policy on top of a recency list.
#[derive(Debug, Default)]
pub struct FacebookPolicy {
    list: LruList,
}

impl FacebookPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        FacebookPolicy {
            list: LruList::new(),
        }
    }
}

impl EvictionPolicy for FacebookPolicy {
    fn access(&mut self, token: &mut Token) -> HitLocation {
        // A hit promotes the item to the top of the queue, wherever it was.
        self.list.access(token.node)
    }

    fn insert(&mut self, key: Key, weight: u64) -> Token {
        // First-time (and re-admitted) items land in the middle of the queue.
        Token::new(self.list.insert(key, weight, InsertPosition::Middle))
    }

    fn evict(&mut self) -> Option<(Key, u64)> {
        self.list.pop_lru()
    }

    fn remove(&mut self, token: Token) -> (Key, u64) {
        self.list.remove(token.node)
    }

    fn peek(&self, token: Token) -> Option<(Key, u64)> {
        self.list.get(token.node)
    }

    fn prefetch(&self, token: Token, sweep: Sweep) {
        self.list.prefetch(token.node, sweep);
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn total_weight(&self) -> u64 {
        self.list.total_weight()
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            queues: self.list.heap_bytes(),
            ..Footprint::default()
        }
    }

    fn set_tail_region(&mut self, items: usize) {
        self.list.set_tail_region(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance::{basic_contract, key, no_duplicate_evictions};

    #[test]
    fn conforms_to_policy_contract() {
        basic_contract(Box::new(FacebookPolicy::new()));
        no_duplicate_evictions(Box::new(FacebookPolicy::new()));
    }

    #[test]
    fn one_hit_wonders_die_before_recently_promoted_items() {
        let mut p = FacebookPolicy::new();
        // Build a resident population that gets promoted (a hit each), so the
        // most recently promoted half sits above the queue middle.
        let mut tokens: Vec<Token> = (0..8).map(|i| p.insert(key(i), 1)).collect();
        for token in &mut tokens {
            p.access(token);
        }
        // A one-hit wonder enters at the middle of the queue.
        p.insert(key(100), 1);
        // Under plain LRU the wonder (most recent insertion) would outlive
        // every promoted item. Under the Facebook scheme it must be evicted
        // before the recently promoted upper half (keys 4..8).
        loop {
            let (victim, _) = p.evict().expect("wonder must eventually be evicted");
            if victim == key(100) {
                break;
            }
            assert!(
                victim.raw() < 4,
                "only items below the queue middle may be evicted before the \
                 one-hit wonder, got {victim:?}"
            );
        }
        for survivor in 4..8 {
            assert_eq!(
                p.peek(tokens[survivor]),
                Some((key(survivor as u64), 1)),
                "recently promoted key {survivor} must outlive the one-hit wonder"
            );
        }
    }

    #[test]
    fn second_hit_promotes_to_top() {
        let mut p = FacebookPolicy::new();
        let mut tokens: Vec<Token> = (0..6).map(|i| p.insert(key(i), 1)).collect();
        // key 1 sits at the very bottom of the queue after middle insertions;
        // a hit must promote it to the top.
        p.access(&mut tokens[1]);
        let mut order = Vec::new();
        while let Some((k, _)) = p.evict() {
            order.push(k.raw());
        }
        assert_eq!(
            *order.last().unwrap(),
            1,
            "promoted key must be evicted last"
        );
    }
}
