//! Plain LRU eviction (Memcached's default policy).

use crate::key::Key;
use crate::lru::{HitLocation, InsertPosition, LruList};
use crate::policy::{EvictionPolicy, Token};
use crate::prefetch::Sweep;
use crate::stats::Footprint;

/// Least-recently-used eviction over a [`LruList`].
#[derive(Debug, Default)]
pub struct LruPolicy {
    list: LruList,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        LruPolicy {
            list: LruList::new(),
        }
    }
}

impl EvictionPolicy for LruPolicy {
    fn access(&mut self, token: &mut Token) -> HitLocation {
        self.list.access(token.node)
    }

    fn insert(&mut self, key: Key, weight: u64) -> Token {
        Token::new(self.list.insert(key, weight, InsertPosition::Top))
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
        basic_contract(Box::new(LruPolicy::new()));
        no_duplicate_evictions(Box::new(LruPolicy::new()));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPolicy::new();
        let mut t: Vec<Token> = (0..4).map(|i| p.insert(key(i), 1)).collect();
        p.access(&mut t[0]);
        p.access(&mut t[1]);
        assert_eq!(p.evict().unwrap().0, key(2));
        assert_eq!(p.evict().unwrap().0, key(3));
        assert_eq!(p.evict().unwrap().0, key(0));
        assert_eq!(p.evict().unwrap().0, key(1));
    }

    #[test]
    fn tail_region_hits_are_reported() {
        let mut p = LruPolicy::new();
        p.set_tail_region(2);
        let mut t: Vec<Token> = (0..5).map(|i| p.insert(key(i), 1)).collect();
        assert_eq!(p.access(&mut t[0]), HitLocation::TailRegion);
        assert_eq!(p.access(&mut t[4]), HitLocation::Main);
    }
}
