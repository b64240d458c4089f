//! HDR-style log-linear latency histograms.
//!
//! The recording scheme is the one HdrHistogram popularised: values are
//! bucketed by their highest set bit (the octave) and each octave is split
//! into 32 linear sub-buckets, so the relative quantisation error is bounded
//! by 1/32 ≈ 3% at every magnitude. Values below 32 ns are exact.
//!
//! Concurrency model: **no shared state**. Every recorder — a
//! load-generator worker on the client side, a server event loop on the
//! server side — owns a private `Histogram` and records into it with plain
//! (unsynchronised) increments — recording is lock-free and wait-free by
//! construction — and the per-recorder histograms are merged once, on
//! report (the loadgen report, or the control thread's stats snapshot).
//! This is the same "stripe then merge" design memtier and wrk2 use, and it
//! keeps the hot path to a handful of arithmetic instructions.

use serde::{Deserialize, Serialize};

/// Number of linear sub-buckets per power-of-two octave (as log2).
const SUB_BUCKET_BITS: u32 = 5;
/// Number of linear sub-buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Number of octave groups: group 0 covers `[0, 32)` exactly, group `g`
/// covers `[32 << (g-1), 64 << (g-1))`. 37 groups reach past 2^40 ns
/// (~18 minutes), far beyond any request latency worth resolving.
const GROUPS: usize = 37;
/// Total bucket count (8 KB of counters per histogram).
const BUCKETS: usize = GROUPS * SUB_BUCKETS;

/// A log-linear histogram of `u64` values (nanoseconds, by convention).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value falls into.
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
        let group = (msb - SUB_BUCKET_BITS + 1) as usize;
        let sub = ((value >> (msb - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        let index = group * SUB_BUCKETS + sub;
        index.min(BUCKETS - 1)
    }

    /// The representative (midpoint) value of a bucket.
    fn bucket_value(index: usize) -> u64 {
        let group = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if group == 0 {
            return sub;
        }
        let shift = group as u32 - 1;
        let low = (SUB_BUCKETS as u64 + sub) << shift;
        let width = 1u64 << shift;
        low + width / 2
    }

    /// Records one value. Plain increments — the histogram must be owned by
    /// a single worker (merge across workers on report).
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded value, tracked exactly.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at the given percentile (e.g. `99.9`), within the bucket
    /// quantisation error (~3%). Returns 0 when empty.
    pub fn value_at_percentile(&self, percentile: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = percentile.clamp(0.0, 100.0);
        // Rank of the target observation, 1-based; p = 0 means the minimum.
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp the bucket midpoint to the observed extremes so tiny
                // samples report exact values.
                return Self::bucket_value(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// A percentile summary in microseconds, ready for the JSON report.
    pub fn summarize_us(&self) -> LatencySummary {
        const NS_PER_US: f64 = 1_000.0;
        LatencySummary {
            count: self.count,
            mean_us: self.mean() / NS_PER_US,
            p50_us: self.value_at_percentile(50.0) as f64 / NS_PER_US,
            p90_us: self.value_at_percentile(90.0) as f64 / NS_PER_US,
            p99_us: self.value_at_percentile(99.0) as f64 / NS_PER_US,
            p999_us: self.value_at_percentile(99.9) as f64 / NS_PER_US,
            max_us: self.max() as f64 / NS_PER_US,
        }
    }
}

/// Percentile summary of one latency distribution, in microseconds.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples behind the summary.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Exact maximum.
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min, 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.value_at_percentile(0.0), 0);
        assert_eq!(h.value_at_percentile(100.0), 31);
    }

    #[test]
    fn quantisation_error_is_bounded() {
        let mut h = Histogram::new();
        // A deterministic pseudo-random spread over six orders of magnitude.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = 100 + (x >> 20) % 1_000_000_000;
            h.record(v);
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.04, "value {v} -> bucket rep {rep}, err {err}");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_ordered() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(i * 10);
        }
        let p50 = h.value_at_percentile(50.0);
        let p90 = h.value_at_percentile(90.0);
        let p99 = h.value_at_percentile(99.0);
        let p999 = h.value_at_percentile(99.9);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        // Within quantisation error of the true quantiles.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.04, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.04, "{p99}");
        assert_eq!(h.value_at_percentile(100.0), 1_000_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..5_000u64 {
            let v = (i * 7919) % 1_000_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max(), whole.max());
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.value_at_percentile(p), whole.value_at_percentile(p));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_percentile(99.0), 0);
        let s = h.summarize_us();
        assert_eq!(s.count, 0);
        assert_eq!(s.p999_us, 0.0);
    }

    #[test]
    fn huge_values_clamp_to_the_last_bucket_but_keep_exact_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 1);
    }
}

/// Property: striping a sample multiset over any number of single-owner
/// recorders and merging them back reports exactly what one recorder
/// holding every sample reports — the guarantee the server's per-loop
/// histograms rely on when the control thread merges loop snapshots.
#[cfg(test)]
mod merge_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merged_quantiles_equal_a_single_recorder_over_the_same_multiset(
            samples in prop::collection::vec(1u64..2_000_000_000, 1..400),
            stripes in 1usize..8,
        ) {
            let mut parts = vec![Histogram::new(); stripes];
            let mut whole = Histogram::new();
            for (i, &v) in samples.iter().enumerate() {
                parts[i % stripes].record(v);
                whole.record(v);
            }
            let mut merged = Histogram::new();
            for part in &parts {
                merged.merge(part);
            }
            prop_assert_eq!(merged.count(), whole.count());
            prop_assert_eq!(merged.min, whole.min);
            prop_assert_eq!(merged.max(), whole.max());
            for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                prop_assert_eq!(
                    merged.value_at_percentile(p),
                    whole.value_at_percentile(p),
                    "p{} diverged after merge", p
                );
            }
            prop_assert_eq!(merged.summarize_us(), whole.summarize_us());
        }
    }
}
