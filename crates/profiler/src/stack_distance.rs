//! Exact Mattson stack distances.
//!
//! The stack distance of a request is the number of *distinct* keys accessed
//! since the previous access to the same key, counting the key itself — i.e.
//! its rank from the top of an (unbounded) LRU stack (paper §2.1, citing
//! Mattson et al. 1970). A key never seen before has infinite stack distance.
//!
//! The classic result is that an LRU cache of capacity `c` items hits exactly
//! the requests whose stack distance is `≤ c`, so the histogram of stack
//! distances *is* the hit-rate curve.
//!
//! [`StackDistanceTracker`] computes exact distances in O(log N) amortised
//! time per request using a Fenwick (binary indexed) tree over access
//! timestamps, with periodic compaction so memory stays proportional to the
//! number of distinct keys.

use crate::curve::HitRateCurve;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use cache_core::Key;

/// A histogram of stack distances.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StackDistanceHistogram {
    /// `counts[d]` is the number of requests whose stack distance was `d + 1`
    /// (index 0 holds distance 1, the top of the stack).
    counts: Vec<u64>,
    /// Requests to keys never seen before (infinite distance).
    cold: u64,
    /// Total requests recorded.
    total: u64,
}

impl StackDistanceHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StackDistanceHistogram::default()
    }

    /// Records a request with finite stack distance `distance` (1-based).
    pub fn record(&mut self, distance: usize) {
        self.add(distance, 1);
    }

    /// Records `count` requests at finite stack distance `distance`
    /// (1-based) at once. A zero `count` changes nothing.
    pub fn add(&mut self, distance: usize, count: u64) {
        assert!(distance >= 1, "stack distances are 1-based");
        if count == 0 {
            return;
        }
        if self.counts.len() < distance {
            self.counts.resize(distance, 0);
        }
        self.counts[distance - 1] += count;
        self.total += count;
    }

    /// Records a cold (first-ever) access.
    pub fn record_cold(&mut self) {
        self.add_cold(1);
    }

    /// Records `count` cold accesses at once.
    pub fn add_cold(&mut self, count: u64) {
        self.cold += count;
        self.total += count;
    }

    /// Total number of requests recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of cold (infinite-distance) requests.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Number of requests with stack distance exactly `distance`.
    pub fn count_at(&self, distance: usize) -> u64 {
        if distance == 0 || distance > self.counts.len() {
            0
        } else {
            self.counts[distance - 1]
        }
    }

    /// The largest finite stack distance observed.
    pub fn max_distance(&self) -> usize {
        self.counts.len()
    }

    /// The hit-rate curve implied by this histogram.
    pub fn to_curve(&self) -> HitRateCurve {
        HitRateCurve::from_histogram(self, |d| d as u64)
    }

    /// Shifts `delta` requests into (positive) or out of (negative) the
    /// smallest populated distance bucket, keeping `total` consistent.
    ///
    /// This is the SHARDS_adj correction (Waldspurger et al., FAST 2015,
    /// §3.2): under spatial key sampling at rate `R`, the sampled reference
    /// count has expectation `offered × R`, and any shortfall is known to
    /// come from *unsampled hot keys* — whose references would have had the
    /// smallest stack distances. Adding the shortfall to the first bucket
    /// (or draining an excess from it) removes the resulting bias in the
    /// hit-rate curve. Negative deltas drain successive buckets when the
    /// first is smaller than the excess.
    pub fn adjust_first_bucket(&mut self, delta: i64) {
        if delta > 0 {
            let first = self.counts.iter().position(|&c| c > 0).map(|i| i + 1);
            let distance = first.unwrap_or(1);
            if self.counts.len() < distance {
                self.counts.resize(distance, 0);
            }
            self.counts[distance - 1] += delta as u64;
            self.total += delta as u64;
        } else {
            let mut excess = delta.unsigned_abs();
            for c in self.counts.iter_mut() {
                if excess == 0 {
                    break;
                }
                let take = (*c).min(excess);
                *c -= take;
                self.total -= take;
                excess -= take;
            }
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &StackDistanceHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.cold += other.cold;
        self.total += other.total;
    }
}

/// Fenwick tree over access timestamps: supports point updates and suffix
/// sums, which is exactly what counting "distinct keys accessed more recently
/// than t" requires.
#[derive(Debug, Default)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn with_len(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 1-based position `pos`.
    fn add(&mut self, pos: usize, delta: i64) {
        let mut i = pos;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=pos`.
    fn prefix_sum(&self, pos: usize) -> u64 {
        let mut i = pos.min(self.len());
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Exact stack-distance tracker.
#[derive(Debug)]
pub struct StackDistanceTracker {
    /// Fenwick tree: position `t` is 1 if the key last accessed at time `t`
    /// has not been accessed since.
    fenwick: Fenwick,
    /// Last access time (1-based position in the Fenwick tree) per key.
    last_access: HashMap<Key, usize>,
    /// Next free timestamp.
    clock: usize,
    histogram: StackDistanceHistogram,
}

impl Default for StackDistanceTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl StackDistanceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        StackDistanceTracker {
            fenwick: Fenwick::with_len(1024),
            last_access: HashMap::new(),
            clock: 0,
            histogram: StackDistanceHistogram::new(),
        }
    }

    /// Records an access to `key` and returns its stack distance
    /// (`None` for a cold access).
    pub fn record(&mut self, key: Key) -> Option<usize> {
        self.maybe_grow_or_compact();
        self.clock += 1;
        let now = self.clock;
        let distance = match self.last_access.get(&key).copied() {
            Some(prev) => {
                // Distinct keys accessed strictly after `prev`, plus the key
                // itself.
                let newer = self.total_marked() - self.fenwick.prefix_sum(prev);
                self.fenwick.add(prev, -1);
                Some(newer as usize + 1)
            }
            None => None,
        };
        self.fenwick.add(now, 1);
        self.last_access.insert(key, now);
        match distance {
            Some(d) => self.histogram.record(d),
            None => self.histogram.record_cold(),
        }
        distance
    }

    fn total_marked(&self) -> u64 {
        self.fenwick.prefix_sum(self.fenwick.len())
    }

    /// Number of distinct keys seen.
    pub fn distinct_keys(&self) -> usize {
        self.last_access.len()
    }

    /// The histogram accumulated so far.
    pub fn histogram(&self) -> &StackDistanceHistogram {
        &self.histogram
    }

    /// The hit-rate curve implied by the requests seen so far.
    pub fn to_curve(&self) -> HitRateCurve {
        self.histogram.to_curve()
    }

    /// Grows the Fenwick tree when the clock outruns it, and compacts the
    /// timestamp space once it is much larger than the number of live keys
    /// (so long traces do not grow memory without bound).
    fn maybe_grow_or_compact(&mut self) {
        if self.clock + 1 < self.fenwick.len() {
            return;
        }
        let live = self.last_access.len();
        if self.clock > 4 * live.max(1024) {
            // Compact: renumber live keys by their access order.
            let mut by_time: Vec<(usize, Key)> =
                self.last_access.iter().map(|(&k, &t)| (t, k)).collect();
            by_time.sort_unstable();
            let new_len = (live * 2).max(1024);
            let mut fenwick = Fenwick::with_len(new_len);
            let mut last_access = HashMap::with_capacity(live);
            for (rank, &(_, key)) in by_time.iter().enumerate() {
                let pos = rank + 1;
                fenwick.add(pos, 1);
                last_access.insert(key, pos);
            }
            self.fenwick = fenwick;
            self.last_access = last_access;
            self.clock = live;
        } else {
            let new_len = (self.fenwick.len() * 2).max(1024);
            let mut fenwick = Fenwick::with_len(new_len);
            for (_, &t) in self.last_access.iter() {
                fenwick.add(t, 1);
            }
            self.fenwick = fenwick;
        }
    }
}

/// A naive O(N) per-request reference implementation (a literal LRU stack),
/// used to validate [`StackDistanceTracker`] in tests and available for
/// small-scale debugging.
#[derive(Debug, Default)]
pub struct NaiveStackDistance {
    stack: Vec<Key>,
    histogram: StackDistanceHistogram,
}

impl NaiveStackDistance {
    /// Creates an empty reference tracker.
    pub fn new() -> Self {
        NaiveStackDistance::default()
    }

    /// Records an access and returns the stack distance (None when cold).
    pub fn record(&mut self, key: Key) -> Option<usize> {
        let pos = self.stack.iter().position(|&k| k == key);
        match pos {
            Some(p) => {
                self.stack.remove(p);
                self.stack.insert(0, key);
                let d = p + 1;
                self.histogram.record(d);
                Some(d)
            }
            None => {
                self.stack.insert(0, key);
                self.histogram.record_cold();
                None
            }
        }
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &StackDistanceHistogram {
        &self.histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn key(i: u64) -> Key {
        Key::new(i)
    }

    #[test]
    fn repeated_access_has_distance_one() {
        let mut t = StackDistanceTracker::new();
        assert_eq!(t.record(key(1)), None);
        assert_eq!(t.record(key(1)), Some(1));
        assert_eq!(t.record(key(1)), Some(1));
    }

    #[test]
    fn distance_counts_distinct_keys_only() {
        let mut t = StackDistanceTracker::new();
        t.record(key(1));
        t.record(key(2));
        t.record(key(2));
        t.record(key(2));
        // Only one distinct key (2) was accessed since key 1's last access.
        assert_eq!(t.record(key(1)), Some(2));
    }

    #[test]
    fn sequential_scan_has_distance_equal_to_scan_length() {
        let mut t = StackDistanceTracker::new();
        let n = 100;
        for i in 0..n {
            assert_eq!(t.record(key(i)), None);
        }
        for i in 0..n {
            assert_eq!(t.record(key(i)), Some(n as usize));
        }
        assert_eq!(t.histogram().cold(), n);
        assert_eq!(t.histogram().count_at(n as usize), n);
    }

    #[test]
    fn matches_naive_reference_on_random_trace() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut exact = StackDistanceTracker::new();
        let mut naive = NaiveStackDistance::new();
        for _ in 0..5_000 {
            let k = key(rng.gen_range(0..200));
            assert_eq!(exact.record(k), naive.record(k));
        }
        assert_eq!(exact.histogram(), naive.histogram());
    }

    #[test]
    fn compaction_preserves_distances() {
        // Keep the live key count tiny while the clock runs far ahead so the
        // compaction path is exercised.
        let mut exact = StackDistanceTracker::new();
        let mut naive = NaiveStackDistance::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20_000 {
            let k = key(rng.gen_range(0..16));
            assert_eq!(exact.record(k), naive.record(k));
        }
        assert_eq!(exact.distinct_keys(), 16);
        assert_eq!(exact.histogram(), naive.histogram());
    }

    #[test]
    fn histogram_of_a_cycle_has_one_distance() {
        let mut t = StackDistanceTracker::new();
        // Cyclic access to 3 keys: every non-cold access has distance 3.
        for _ in 0..10 {
            for i in 0..3 {
                t.record(key(i));
            }
        }
        let h = t.histogram();
        assert_eq!(h.count_at(2), 0, "no access of a 3-key cycle is nearer");
        assert_eq!(h.count_at(3), 27, "every access after warm-up is at 3");
        assert_eq!(h.total(), 30);
        assert_eq!(h.cold(), 3);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = StackDistanceHistogram::new();
        a.record(1);
        a.record(5);
        a.record_cold();
        let mut b = StackDistanceHistogram::new();
        b.record(5);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count_at(5), 2);
        assert_eq!(a.count_at(1), 1);
        assert_eq!(a.cold(), 1);
        assert_eq!(a.max_distance(), 5);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_distance_rejected() {
        StackDistanceHistogram::new().record(0);
    }

    #[test]
    fn adjust_first_bucket_adds_and_drains() {
        let mut h = StackDistanceHistogram::new();
        h.record(3);
        h.record(3);
        h.record(7);
        h.adjust_first_bucket(4);
        assert_eq!(h.count_at(3), 6, "shortfall lands in the first bucket");
        assert_eq!(h.total(), 7);
        h.adjust_first_bucket(-7);
        assert_eq!(h.count_at(3), 0);
        assert_eq!(h.count_at(7), 0, "excess drains successive buckets");
        assert_eq!(h.total(), 0);
        // An empty histogram places the adjustment at distance 1.
        let mut empty = StackDistanceHistogram::new();
        empty.adjust_first_bucket(2);
        assert_eq!(empty.count_at(1), 2);
        assert_eq!(empty.total(), 2);
    }
}
