//! The Mimir bucket approximation of stack distances.
//!
//! Mimir (Saemundsson et al., SoCC 2014) estimates stack distances in
//! O(N / B) by keeping B buckets of keys ordered by recency *of bucket*, not
//! of key: an access to a key in bucket `i` is assigned the average rank of
//! that bucket (the sum of the sizes of all newer buckets plus half its own),
//! the key moves to the newest bucket, and buckets age wholesale when the
//! newest one fills up. Dynacache uses this estimator because exact Mattson
//! profiling is too expensive on a cache server (paper §2.1); the paper also
//! notes it loses accuracy for curves spanning tens of thousands of items —
//! a property the tests below exhibit rather than hide.

use crate::curve::HitRateCurve;
use crate::stack_distance::StackDistanceHistogram;
use cache_core::Key;
use std::collections::{HashMap, HashSet, VecDeque};

/// Approximate stack-distance estimator with a fixed number of buckets.
#[derive(Debug)]
pub struct MimirEstimator {
    /// Buckets from newest (front) to oldest (back); each holds distinct keys.
    buckets: VecDeque<HashSet<Key>>,
    /// Which bucket (by stable id) each tracked key lives in.
    key_bucket: HashMap<Key, u64>,
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
        let mut buckets = VecDeque::with_capacity(num_buckets);
        buckets.push_front(HashSet::new());
        MimirEstimator {
            buckets,
            key_bucket: HashMap::new(),
            newest_id: 0,
            num_buckets,
            max_tracked: max_tracked.max(num_buckets),
            histogram: StackDistanceHistogram::new(),
        }
    }

    /// Records an access and returns the estimated stack distance
    /// (`None` for keys not currently tracked, i.e. cold or pruned).
    pub fn record(&mut self, key: Key) -> Option<usize> {
        let estimate = match self.key_bucket.get(&key).copied() {
            Some(bucket_id) => {
                let index = self.index_of(bucket_id);
                let mut rank = 0usize;
                for b in self.buckets.iter().take(index) {
                    rank += b.len();
                }
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
        // Move (or admit) the key into the newest bucket.
        self.buckets[0].insert(key);
        self.key_bucket.insert(key, self.newest_id);
        self.maybe_age();
        self.maybe_prune();
        estimate
    }

    fn index_of(&self, bucket_id: u64) -> usize {
        // newest_id corresponds to index 0; ids decrease towards the back.
        (self.newest_id - bucket_id) as usize
    }

    /// Ages buckets when the newest one grows past its share of the tracked
    /// population: a fresh bucket is opened and, if the bucket count exceeds
    /// B, the two oldest buckets are merged.
    fn maybe_age(&mut self) {
        let per_bucket = (self.key_bucket.len() / self.num_buckets).max(16);
        if self.buckets[0].len() <= per_bucket {
            return;
        }
        self.newest_id += 1;
        self.buckets.push_front(HashSet::new());
        if self.buckets.len() > self.num_buckets {
            let oldest = self.buckets.pop_back().expect("len > num_buckets >= 2");
            let merged_into = self.buckets.len() - 1;
            let merged_id = self.newest_id - merged_into as u64;
            for key in oldest {
                self.buckets[merged_into].insert(key);
                self.key_bucket.insert(key, merged_id);
            }
        }
    }

    /// Drops keys from the oldest bucket when the tracked population exceeds
    /// the configured bound.
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
            // Drain the oldest bucket.
            let keys: Vec<Key> = oldest.drain().collect();
            for key in keys {
                self.key_bucket.remove(&key);
            }
        }
    }

    /// Number of distinct keys currently tracked.
    pub fn tracked_keys(&self) -> usize {
        self.key_bucket.len()
    }

    /// Number of buckets currently in use.
    pub fn active_buckets(&self) -> usize {
        self.buckets.len()
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
