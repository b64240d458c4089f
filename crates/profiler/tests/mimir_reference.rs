//! The bucket estimator against the one it replaced, call for call.
//!
//! [`MimirEstimator`] keeps a count per bucket and, per key, the id of the
//! bucket it entered; aging folds counts and moves no key. [`Reference`]
//! below is the estimator as it was before: a set of keys per bucket, every
//! key of the oldest bucket re-inserted into the next one when two merge,
//! the oldest set drained when the tracked population passes its bound.
//! Over random traces with few buckets and a small bound, so that buckets
//! age, merge and prune many times, both must return the same estimate for
//! every access, track the same keys in the same number of buckets, and
//! build the same histogram.

use cache_core::Key;
use profiler::{MimirEstimator, StackDistanceHistogram};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// The estimator with a set of keys per bucket.
struct Reference {
    buckets: VecDeque<HashSet<Key>>,
    key_bucket: HashMap<Key, u64>,
    newest_id: u64,
    num_buckets: usize,
    max_tracked: usize,
    histogram: StackDistanceHistogram,
}

impl Reference {
    fn new(num_buckets: usize, max_tracked: usize) -> Self {
        let mut buckets = VecDeque::with_capacity(num_buckets);
        buckets.push_front(HashSet::new());
        Reference {
            buckets,
            key_bucket: HashMap::new(),
            newest_id: 0,
            num_buckets,
            max_tracked: max_tracked.max(num_buckets),
            histogram: StackDistanceHistogram::new(),
        }
    }

    fn record(&mut self, key: Key) -> Option<usize> {
        let estimate = match self.key_bucket.get(&key).copied() {
            Some(bucket_id) => {
                let index = (self.newest_id - bucket_id) as usize;
                let rank: usize = self.buckets.iter().take(index).map(HashSet::len).sum();
                let own = self.buckets[index].len();
                self.buckets[index].remove(&key);
                Some((rank + own.div_ceil(2)).max(1))
            }
            None => None,
        };
        match estimate {
            Some(d) => self.histogram.record(d),
            None => self.histogram.record_cold(),
        }
        self.buckets[0].insert(key);
        self.key_bucket.insert(key, self.newest_id);
        self.maybe_age();
        self.maybe_prune();
        estimate
    }

    fn maybe_age(&mut self) {
        let per_bucket = (self.key_bucket.len() / self.num_buckets).max(16);
        if self.buckets[0].len() <= per_bucket {
            return;
        }
        self.newest_id += 1;
        self.buckets.push_front(HashSet::new());
        if self.buckets.len() > self.num_buckets {
            let oldest = self.buckets.pop_back().unwrap();
            let merged_into = self.buckets.len() - 1;
            let merged_id = self.newest_id - merged_into as u64;
            for key in oldest {
                self.buckets[merged_into].insert(key);
                self.key_bucket.insert(key, merged_id);
            }
        }
    }

    fn maybe_prune(&mut self) {
        while self.key_bucket.len() > self.max_tracked {
            let Some(oldest) = self.buckets.back_mut() else {
                return;
            };
            if oldest.is_empty() {
                if self.buckets.len() == 1 {
                    return;
                }
                self.buckets.pop_back();
                continue;
            }
            let keys: Vec<Key> = oldest.drain().collect();
            for key in keys {
                self.key_bucket.remove(&key);
            }
        }
    }
}

/// Cases: 300 per push, `PROPTEST_CASES` overrides.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A trace over `keys` distinct keys, the accesses marked hot going to
    /// the first eighth of them, so that some keys recur soon and others
    /// age out.
    #[test]
    fn the_counting_estimator_answers_as_the_set_per_bucket_one(
        buckets in 2usize..7,
        bound in 0usize..120,
        keys in 8u64..400,
        accesses in prop::collection::vec((any::<bool>(), any::<u64>()), 1..3000),
    ) {
        let mut ours = MimirEstimator::new(buckets, bound);
        let mut theirs = Reference::new(buckets, bound);
        for (i, &(hot, k)) in accesses.iter().enumerate() {
            let key = Key::new(if hot { k % (keys / 8) } else { k % keys });
            prop_assert_eq!(ours.record(key), theirs.record(key), "access {}", i);
            prop_assert_eq!(ours.tracked_keys(), theirs.key_bucket.len(), "access {}", i);
            prop_assert_eq!(ours.active_buckets(), theirs.buckets.len(), "access {}", i);
        }
        prop_assert_eq!(ours.histogram(), &theirs.histogram);
    }
}

/// A fixed trace that prunes: a scan over twice the bound, then a loop
/// over the bound and a bit more, both estimators in step throughout.
#[test]
fn a_scan_past_the_bound_prunes_as_the_set_per_bucket_one_did() {
    let (mut ours, mut theirs) = (MimirEstimator::new(4, 100), Reference::new(4, 100));
    let mut pruned = false;
    for k in (0..200).chain((0..5).flat_map(|_| 0..120)) {
        let key = Key::new(k);
        assert_eq!(ours.record(key), theirs.record(key), "key {k}");
        assert_eq!(ours.tracked_keys(), theirs.key_bucket.len());
        assert_eq!(ours.active_buckets(), theirs.buckets.len());
        pruned |= ours.tracked_keys() < 100;
    }
    assert!(pruned, "the trace never pruned");
    assert_eq!(ours.histogram(), &theirs.histogram);
}
