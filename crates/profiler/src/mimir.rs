//! The Mimir bucket approximation of stack distances.
//!
//! Mimir (Saemundsson et al., SoCC 2014) estimates stack distances without
//! a per-key recency order by keeping B buckets of keys ordered by recency
//! *of bucket*, not of key: an access to a key in bucket `i` is assigned the
//! average rank of that bucket (the sum of the sizes of all newer buckets
//! plus half its own), the key moves to the newest bucket, and buckets age
//! wholesale when the newest one fills up. Dynacache uses this estimator
//! because exact Mattson profiling is too expensive on a cache server (paper
//! §2.1); the paper also notes it loses accuracy for curves spanning tens of
//! thousands of items — a property the tests below exhibit rather than hide.
//!
//! A record costs one table probe and a sum over at most B bucket counts.
//! Aging costs O(1): a bucket is a count, each key remembers only the id of
//! the bucket it entered, and a key whose id is older than the oldest
//! bucket's is in the oldest bucket, so folding the oldest bucket into the
//! next moves no key. Pruning, which runs only once more than `max_tracked`
//! keys are tracked, is one pass over the key table. Once that table has
//! grown, a record allocates nothing.

use crate::curve::HitRateCurve;
use crate::stack_distance::StackDistanceHistogram;
use cache_core::key::KeyMap;
use cache_core::Key;
use std::collections::VecDeque;

/// Approximate stack-distance estimator with a fixed number of buckets.
#[derive(Debug)]
pub struct MimirEstimator {
    /// Keys per bucket, from newest (front) to oldest (back).
    counts: VecDeque<usize>,
    /// The id of the bucket each tracked key entered: the key is in that
    /// bucket, or in the oldest one if its id is older still.
    key_bucket: KeyMap<u64>,
    /// Stable id of the newest bucket; older buckets have smaller ids.
    newest_id: u64,
    /// Number of buckets (the paper's B; Dynacache used 100).
    num_buckets: usize,
    /// Maximum keys tracked overall; beyond this the oldest bucket is pruned.
    max_tracked: usize,
    histogram: StackDistanceHistogram,
}

impl MimirEstimator {
    /// Creates an estimator with `num_buckets` buckets (the paper used 100)
    /// tracking at most `max_tracked` distinct keys.
    pub fn new(num_buckets: usize, max_tracked: usize) -> Self {
        assert!(num_buckets >= 2, "at least two buckets are required");
        // One more than the bound: aging opens a bucket before it folds two.
        let mut counts = VecDeque::with_capacity(num_buckets + 1);
        counts.push_front(0);
        MimirEstimator {
            counts,
            key_bucket: KeyMap::default(),
            newest_id: 0,
            num_buckets,
            max_tracked: max_tracked.max(num_buckets),
            histogram: StackDistanceHistogram::new(),
        }
    }

    /// Records an access and returns the estimated stack distance
    /// (`None` for keys not currently tracked, i.e. cold or pruned).
    pub fn record(&mut self, key: Key) -> Option<usize> {
        let oldest_id = self.oldest_id();
        // Move (or admit) the key into the newest bucket.
        let estimate = self.key_bucket.insert(key, self.newest_id).map(|id| {
            let index = (self.newest_id - id.max(oldest_id)) as usize;
            let rank: usize = self.counts.iter().take(index).sum();
            let own = self.counts[index];
            self.counts[index] -= 1;
            (rank + own.div_ceil(2)).max(1)
        });
        match estimate {
            Some(d) => self.histogram.record(d),
            None => self.histogram.record_cold(),
        }
        self.counts[0] += 1;
        self.maybe_age();
        self.maybe_prune();
        estimate
    }

    /// The id of the oldest bucket: the newest's, less the buckets behind it.
    fn oldest_id(&self) -> u64 {
        self.newest_id - (self.counts.len() - 1) as u64
    }

    /// Ages buckets when the newest one grows past its share of the tracked
    /// population: a fresh bucket is opened and, if the bucket count exceeds
    /// B, the oldest bucket's count folds into the next one, whose id its
    /// keys' ids are now older than.
    fn maybe_age(&mut self) {
        let per_bucket = (self.key_bucket.len() / self.num_buckets).max(16);
        if self.counts[0] <= per_bucket {
            return;
        }
        self.newest_id += 1;
        self.counts.push_front(0);
        if self.counts.len() > self.num_buckets {
            let oldest = self.counts.pop_back().expect("len > num_buckets >= 2");
            *self.counts.back_mut().expect("len >= num_buckets >= 2") += oldest;
        }
    }

    /// Drops the oldest bucket's keys — those whose id is at or below its
    /// id — when the tracked population exceeds the configured bound.
    fn maybe_prune(&mut self) {
        while self.key_bucket.len() > self.max_tracked {
            let oldest_id = self.oldest_id();
            let Some(oldest) = self.counts.back_mut() else {
                return;
            };
            if *oldest == 0 {
                if self.counts.len() == 1 {
                    return;
                }
                self.counts.pop_back();
                continue;
            }
            *oldest = 0;
            self.key_bucket.retain(|_, &id| id > oldest_id);
        }
    }

    /// Number of distinct keys currently tracked.
    pub fn tracked_keys(&self) -> usize {
        self.key_bucket.len()
    }

    /// Number of buckets currently in use.
    pub fn active_buckets(&self) -> usize {
        self.counts.len()
    }

    /// The accumulated (approximate) stack-distance histogram.
    pub fn histogram(&self) -> &StackDistanceHistogram {
        &self.histogram
    }

    /// The approximate hit-rate curve implied by the accesses seen so far.
    pub fn to_curve(&self) -> HitRateCurve {
        self.histogram.to_curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack_distance::StackDistanceTracker;
    use rand::distributions::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    #[test]
    fn immediate_reuse_estimates_small_distances() {
        let mut m = MimirEstimator::new(10, 10_000);
        m.record(key(1));
        let d = m.record(key(1)).unwrap();
        assert!(
            d <= 2,
            "immediate reuse must estimate a tiny distance, got {d}"
        );
    }

    #[test]
    fn cold_keys_are_reported_as_cold() {
        let mut m = MimirEstimator::new(10, 10_000);
        assert_eq!(m.record(key(1)), None);
        assert_eq!(m.record(key(2)), None);
        assert_eq!(m.histogram().cold(), 2);
    }

    #[test]
    fn distant_reuse_estimates_larger_distances() {
        let mut m = MimirEstimator::new(20, 100_000);
        m.record(key(0));
        for i in 1..2_000u64 {
            m.record(key(i));
        }
        let near = {
            let mut m2 = MimirEstimator::new(20, 100_000);
            m2.record(key(0));
            m2.record(key(1));
            m2.record(key(0)).unwrap()
        };
        let far = m.record(key(0)).unwrap();
        assert!(
            far > near * 10,
            "reuse across 2000 keys ({far}) must estimate far larger than \
             immediate reuse ({near})"
        );
        assert!(
            far >= 1_000,
            "estimate should be in the right ballpark, got {far}"
        );
    }

    #[test]
    fn curve_tracks_exact_curve_on_zipf_trace() {
        let mut rng = StdRng::seed_from_u64(42);
        let zipf = rand::distributions::WeightedIndex::new(
            (1..=500u64).map(|r| 1.0 / r as f64).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut exact = StackDistanceTracker::new();
        let mut approx = MimirEstimator::new(50, 100_000);
        for _ in 0..30_000 {
            let k = key(zipf.sample(&mut rng) as u64);
            exact.record(k);
            approx.record(k);
        }
        let exact_curve = exact.to_curve();
        let approx_curve = approx.to_curve();
        // Compare hit rates at several cache sizes; the bucket estimator is
        // allowed a modest absolute error.
        for probe in [25u64, 50, 100, 250, 500] {
            let e = exact_curve.hit_rate_at(probe);
            let a = approx_curve.hit_rate_at(probe);
            assert!(
                (e - a).abs() < 0.15,
                "at {probe} items exact={e:.3} approx={a:.3}"
            );
        }
    }

    #[test]
    fn bucket_count_is_bounded() {
        let mut m = MimirEstimator::new(8, 100_000);
        for i in 0..10_000u64 {
            m.record(key(i % 3_000));
        }
        assert!(m.active_buckets() <= 8);
    }

    #[test]
    fn tracked_population_is_bounded() {
        let mut m = MimirEstimator::new(8, 1_000);
        for i in 0..50_000u64 {
            m.record(key(i));
        }
        assert!(
            m.tracked_keys() <= 1_100,
            "tracked {} keys",
            m.tracked_keys()
        );
    }

    #[test]
    #[should_panic(expected = "at least two buckets")]
    fn one_bucket_rejected() {
        let _ = MimirEstimator::new(1, 100);
    }
}
