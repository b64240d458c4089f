//! Online sampled miss-ratio-curve estimation for a *live* cache server.
//!
//! The simulator-side estimators in this crate ([`crate::stack_distance`],
//! [`crate::mimir`]) assume they see every request. A cache server cannot
//! afford that: tracking every key costs memory proportional to the working
//! set and CPU on the hottest path it has. [`OnlineMrc`] combines two ideas
//! so the estimate stays cheap and bounded:
//!
//! * **Spatial hash sampling** (SHARDS, Waldspurger et al., FAST 2015): a
//!   key is profiled iff a hash of its id falls under a threshold, giving a
//!   fixed sampling rate `R = 2^-shift` over the *key population*. Stack
//!   distances measured inside the sampled subset scale to the full
//!   population by `1/R` — a request stream over `1/R` fewer distinct keys
//!   re-references a sampled key after `1/R` fewer distinct intervening
//!   keys, in expectation. The non-sampled path is one multiply-shift hash
//!   and one compare: near-zero cost for the ~`1 - R` majority of GETs.
//! * **Mimir buckets** ([`MimirEstimator`]) under the sample: a sampled GET
//!   costs one probe of the estimator's key table and a sum over its B
//!   bucket counts; aging moves no key, and once the table has grown a
//!   record allocates nothing. A hard cap on tracked keys keeps memory
//!   bounded no matter how long the server runs or how large the tenant's
//!   working set grows; past it, pruning is one pass over the key table.
//!
//! The estimator is deliberately shared-nothing: each event loop owns one
//! per tenant, records only the GETs it serves, and exports a serializable
//! [`MrcSnapshot`] whose [`MrcSnapshot::merge`] is exact concatenation of
//! the underlying scaled-distance samples — valid across loops because the
//! loops own *disjoint* key populations (shards), which is just more spatial
//! sampling. A loop owning `owned` of `total` shards passes
//! `owned as f64 / total as f64` as its population share and the recorded
//! distances absorb the extra `total/owned` scale.

use crate::curve::HitRateCurve;
use crate::mimir::MimirEstimator;
use crate::stack_distance::StackDistanceHistogram;
use cache_core::key::mix64;
use cache_core::Key;
use serde::{Deserialize, Serialize};

/// Salt decorrelating the sampling hash from the shard-routing hash (both
/// are finalized from the same key id).
const SAMPLE_SALT: u64 = 0x9e6c_63d0_876a_3f00;

/// Mimir bucket count under the sample. More buckets shrink the
/// within-bucket distance quantisation error (the dominant error term at
/// R = 1, where sampling itself is exact) at the cost of a longer sum of
/// bucket counts per sampled GET; 128 keeps full-sampling error under ~2pp
/// on Zipf-skewed traces.
const MIMIR_BUCKETS: usize = 128;

/// Hard cap on sampled keys tracked per estimator. At the default R = 1/64
/// this bounds each per-loop per-tenant estimator to roughly
/// `64 * 32768 = 2M` distinct keys of coverage before the oldest sampled
/// keys are pruned. The cap bounds the estimator's memory too: the bucket
/// estimator's key table holds at most this many keys, and
/// its in-sample histogram at most this many counters (256 KiB), since no
/// in-sample distance exceeds the keys tracked.
const MAX_TRACKED: usize = 32_768;

/// A SHARDS-sampled, Mimir-bucketed, online miss-ratio-curve estimator.
///
/// It keeps only the in-sample distances the bucket estimator records;
/// the population-scaled histogram is built from them when it is read.
/// Scaled, a histogram indexed by distance would be `2^shift / share`
/// times longer and all but one entry in `2^shift / share` empty.
#[derive(Debug)]
pub struct OnlineMrc {
    shift: u32,
    /// Sample iff `mix64(key ^ salt) <= threshold` (`u64::MAX >> shift`).
    threshold: u64,
    /// Multiplier taking a measured in-sample distance to a full-population
    /// distance: `2^shift / population_share`.
    scale: f64,
    mimir: MimirEstimator,
    offered: u64,
    sampled: u64,
}

impl OnlineMrc {
    /// An estimator sampling at rate `R = 2^-shift` over the whole key
    /// population (`shift = 0` profiles every key — the exact degenerate
    /// case, for tests and offline replays).
    pub fn new(shift: u32) -> OnlineMrc {
        OnlineMrc::with_population_share(shift, 1.0)
    }

    /// An estimator that additionally only ever *sees* `share` of the key
    /// population (`0 < share <= 1`) — an event loop owning `owned` of
    /// `total` shards passes `owned / total`, and recorded distances are
    /// scaled by the combined `2^shift / share` factor.
    pub fn with_population_share(shift: u32, share: f64) -> OnlineMrc {
        assert!(shift < 63, "sampling shift must leave a nonzero rate");
        assert!(
            share > 0.0 && share <= 1.0,
            "population share must be in (0, 1], got {share}"
        );
        OnlineMrc {
            shift,
            threshold: u64::MAX >> shift,
            scale: (1u64 << shift) as f64 / share,
            mimir: MimirEstimator::new(MIMIR_BUCKETS, MAX_TRACKED),
            offered: 0,
            sampled: 0,
        }
    }

    /// Records one GET. For the `1 - R` majority of keys this is one hash,
    /// one counter increment and one branch; sampled keys pay the Mimir
    /// bucket update (one key-table probe and a sum over the bucket counts),
    /// which allocates nothing once the key table has grown.
    #[inline]
    pub fn record(&mut self, key: Key) {
        self.offered += 1;
        if mix64(key.raw() ^ SAMPLE_SALT) > self.threshold {
            return;
        }
        self.sampled += 1;
        // Mimir records the in-sample distance (or a cold access) in its
        // own histogram; `histogram` scales it to the population.
        self.mimir.record(key);
    }

    /// GETs offered to the estimator (sampled or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// GETs that passed the sampling gate.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Distinct sampled keys currently tracked by the bucket estimator.
    pub fn tracked_keys(&self) -> usize {
        self.mimir.tracked_keys()
    }

    /// The accumulated population-scaled stack-distance histogram, built
    /// in one pass over the bucket estimator's populated in-sample
    /// distances: each count lands at its distance times the scale,
    /// rounded, at least 1; cold accesses carry over as they are.
    pub fn histogram(&self) -> StackDistanceHistogram {
        let sampled = self.mimir.histogram();
        let mut scaled = StackDistanceHistogram::new();
        for d in 1..=sampled.max_distance() {
            let at = ((d as f64 * self.scale).round() as usize).max(1);
            scaled.add(at, sampled.count_at(d));
        }
        scaled.add_cold(sampled.cold());
        scaled
    }

    /// The estimated full-population hit-rate curve (SHARDS_adj-corrected,
    /// see [`MrcSnapshot::to_curve`]).
    pub fn to_curve(&self) -> HitRateCurve {
        self.snapshot().to_curve()
    }

    /// Exports the estimator's accumulated samples for the snapshot/merge
    /// path. Cheap relative to a stats round-trip; the estimator keeps
    /// accumulating afterwards.
    pub fn snapshot(&self) -> MrcSnapshot {
        MrcSnapshot {
            shift: self.shift,
            offered: self.offered,
            sampled: self.sampled,
            tracked_keys: self.mimir.tracked_keys() as u64,
            histogram: self.histogram(),
        }
    }
}

/// A serializable export of one [`OnlineMrc`]'s accumulated samples.
///
/// Merging snapshots is *exactly* concatenation of their scaled-distance
/// sample multisets (see [`MrcSnapshot::merge`]), so per-loop estimators
/// over disjoint key populations combine into one unbiased population
/// estimate with no coordination while running.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MrcSnapshot {
    /// The sampling shift the samples were taken at (`R = 2^-shift`).
    pub shift: u32,
    /// GETs offered to the estimator (sampled or not).
    pub offered: u64,
    /// GETs that passed the sampling gate.
    pub sampled: u64,
    /// Distinct sampled keys tracked at snapshot time (summed on merge).
    pub tracked_keys: u64,
    /// Population-scaled stack-distance histogram of the sampled GETs.
    pub histogram: StackDistanceHistogram,
}

impl MrcSnapshot {
    /// Merges another snapshot in: histogram counts add per distance,
    /// offered/sampled/tracked counters add. Exact — no re-estimation
    /// happens.
    pub fn merge(&mut self, other: &MrcSnapshot) {
        self.shift = self.shift.max(other.shift);
        self.offered += other.offered;
        self.sampled += other.sampled;
        self.tracked_keys += other.tracked_keys;
        self.histogram.merge(&other.histogram);
    }

    /// The estimated full-population hit-rate curve of the merged samples,
    /// with the SHARDS_adj correction applied: spatial sampling at rate `R`
    /// expects `offered × R` sampled references, and any shortfall is mass
    /// from unsampled *hot* keys, so it is restored into the smallest
    /// distance bucket before building the curve (an excess is drained the
    /// same way). At `shift = 0` the correction is identically zero.
    pub fn to_curve(&self) -> HitRateCurve {
        let expected = (self.offered >> self.shift) as i64;
        let diff = expected - self.histogram.total() as i64;
        if diff == 0 {
            return self.histogram.to_curve();
        }
        let mut adjusted = self.histogram.clone();
        adjusted.adjust_first_bucket(diff);
        adjusted.to_curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack_distance::StackDistanceTracker;
    use proptest::prelude::*;
    use rand::distributions::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(i: u64) -> Key {
        Key::new(mix64(i.wrapping_add(1)))
    }

    fn zipf_trace(distinct: u64, requests: usize, seed: u64) -> Vec<Key> {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = rand::distributions::WeightedIndex::new(
            (1..=distinct).map(|r| 1.0 / r as f64).collect::<Vec<_>>(),
        )
        .unwrap();
        (0..requests)
            .map(|_| key(zipf.sample(&mut rng) as u64))
            .collect()
    }

    /// R = 1 (shift 0) degenerates to plain Mimir estimation: the curve
    /// must track the exact Mattson curve within the Mimir error bound.
    #[test]
    fn exact_sampling_tracks_exact_curve_on_zipf() {
        let trace = zipf_trace(500, 30_000, 42);
        let mut exact = StackDistanceTracker::new();
        let mut online = OnlineMrc::new(0);
        for &k in &trace {
            exact.record(k);
            online.record(k);
        }
        assert_eq!(online.sampled(), trace.len() as u64);
        let exact_curve = exact.to_curve();
        let online_curve = online.to_curve();
        for probe in [25u64, 50, 100, 250, 500] {
            let e = exact_curve.hit_rate_at(probe);
            let o = online_curve.hit_rate_at(probe);
            assert!(
                (e - o).abs() < 0.15,
                "at {probe} items exact={e:.3} online={o:.3}"
            );
        }
    }

    /// R = 1/64 sampling on a bigger Zipf trace: the scaled curve must land
    /// within a bounded error of the exact curve at every probed scale.
    #[test]
    fn sampled_curve_is_within_bounded_error_of_exact() {
        let trace = zipf_trace(10_000, 120_000, 7);
        let mut exact = StackDistanceTracker::new();
        let mut online = OnlineMrc::new(6);
        for &k in &trace {
            exact.record(k);
            online.record(k);
        }
        let rate = online.sampled() as f64 / trace.len() as f64;
        assert!(
            (rate - 1.0 / 64.0).abs() < 0.01,
            "sampled fraction {rate:.4} should be near 1/64"
        );
        assert!(online.tracked_keys() < 1_000, "memory must stay bounded");
        let exact_curve = exact.to_curve();
        let online_curve = online.to_curve();
        // SHARDS resolves cache sizes above 1/R distinct keys (an in-sample
        // distance of 1 already scales to 64 items), so the probed scales
        // start at ~8x the sampling granularity.
        for probe in [500u64, 1_000, 2_500, 5_000, 10_000] {
            let e = exact_curve.hit_rate_at(probe);
            let o = online_curve.hit_rate_at(probe);
            assert!(
                (e - o).abs() < 0.15,
                "at {probe} items exact={e:.3} sampled={o:.3}"
            );
        }
    }

    /// A loop that owns half the shards sees half the population; with the
    /// share folded into the scale, its curve still estimates the *full*
    /// population within tolerance.
    #[test]
    fn population_share_rescales_partition_views() {
        let trace = zipf_trace(2_000, 60_000, 11);
        let mut exact = StackDistanceTracker::new();
        let mut half = OnlineMrc::with_population_share(0, 0.5);
        for &k in &trace {
            exact.record(k);
            // The "loop" owns the even half of the key population.
            if mix64(k.raw()) % 2 == 0 {
                half.record(k);
            }
        }
        let exact_curve = exact.to_curve();
        let half_curve = half.to_curve();
        for probe in [100u64, 400, 1_000, 2_000] {
            let e = exact_curve.hit_rate_at(probe);
            let h = half_curve.hit_rate_at(probe);
            assert!(
                (e - h).abs() < 0.15,
                "at {probe} items exact={e:.3} half-view={h:.3}"
            );
        }
    }

    /// Two per-loop estimators over disjoint key halves, merged, agree with
    /// the exact full-population curve — the server's snapshot/merge path
    /// in miniature.
    #[test]
    fn merged_disjoint_views_estimate_the_full_population() {
        let trace = zipf_trace(2_000, 60_000, 13);
        let mut exact = StackDistanceTracker::new();
        let mut loops = [
            OnlineMrc::with_population_share(0, 0.5),
            OnlineMrc::with_population_share(0, 0.5),
        ];
        for &k in &trace {
            exact.record(k);
            loops[(mix64(k.raw()) % 2) as usize].record(k);
        }
        let mut merged = loops[0].snapshot();
        merged.merge(&loops[1].snapshot());
        assert_eq!(
            merged.sampled,
            trace.len() as u64,
            "disjoint halves must cover every request"
        );
        let exact_curve = exact.to_curve();
        let merged_curve = merged.to_curve();
        for probe in [100u64, 400, 1_000, 2_000] {
            let e = exact_curve.hit_rate_at(probe);
            let m = merged_curve.hit_rate_at(probe);
            assert!(
                (e - m).abs() < 0.15,
                "at {probe} items exact={e:.3} merged={m:.3}"
            );
        }
    }

    proptest! {
        /// Mirrors the histogram merge==concatenation property: merging two
        /// snapshots yields exactly the histogram/counters of the combined
        /// sample multiset, at every distance, in either merge order.
        #[test]
        fn merge_equals_concatenation(
            left in proptest::collection::vec(0u64..500, 0..400),
            right in proptest::collection::vec(0u64..500, 0..400),
        ) {
            let mut a = OnlineMrc::new(0);
            for &i in &left { a.record(key(i)); }
            let mut b = OnlineMrc::new(0);
            for &i in &right { b.record(key(i)); }

            let mut ab = a.snapshot();
            ab.merge(&b.snapshot());
            let mut ba = b.snapshot();
            ba.merge(&a.snapshot());

            prop_assert_eq!(ab.sampled, (left.len() + right.len()) as u64);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(
                ab.histogram.total(),
                a.snapshot().histogram.total() + b.snapshot().histogram.total()
            );
            prop_assert_eq!(
                ab.histogram.cold(),
                a.histogram().cold() + b.histogram().cold()
            );
            let max = ab.histogram.max_distance();
            for d in 1..=max {
                prop_assert_eq!(
                    ab.histogram.count_at(d),
                    a.histogram().count_at(d) + b.histogram().count_at(d),
                    "distance {}", d
                );
            }
        }
    }

    proptest! {
        /// The scaled histogram built at snapshot time from the bucket
        /// estimator's in-sample one is the histogram of scaling each
        /// distance as it is measured, at every sampling shift and
        /// population share: the snapshot carries the same counts at the
        /// same distances, the same cold count and the same total.
        #[test]
        fn snapshot_scales_the_in_sample_histogram_exactly(
            shift in 0u32..=8,
            share in 0usize..4,
            trace in proptest::collection::vec((any::<bool>(), 0u64..256), 0..800),
        ) {
            // Keys that pass the gate at shift 8 pass it at every smaller
            // shift; the rest of the trace is mostly gated out.
            let sampled_pool: Vec<Key> = (0..)
                .map(key)
                .filter(|k| mix64(k.raw() ^ SAMPLE_SALT) <= u64::MAX >> 8)
                .take(256)
                .collect();
            let share = [1.0, 0.5, 2.0 / 3.0, 1.0 / 3.0][share];
            let mut online = OnlineMrc::with_population_share(shift, share);
            let mut mimir = MimirEstimator::new(MIMIR_BUCKETS, MAX_TRACKED);
            let mut reference = StackDistanceHistogram::new();
            let scale = (1u64 << shift) as f64 / share;
            for &(pooled, i) in &trace {
                let k = if pooled { sampled_pool[i as usize] } else { key(i) };
                online.record(k);
                if mix64(k.raw() ^ SAMPLE_SALT) > online.threshold {
                    continue;
                }
                match mimir.record(k) {
                    Some(d) => reference.record(((d as f64 * scale).round() as usize).max(1)),
                    None => reference.record_cold(),
                }
            }
            prop_assert_eq!(online.snapshot().histogram, reference);
        }
    }

    /// The non-sampled path must not touch the estimator's state: with a
    /// high shift and keys crafted to miss the gate, nothing accumulates.
    #[test]
    fn unsampled_keys_leave_no_trace() {
        let mut m = OnlineMrc::new(20);
        let mut recorded = 0u64;
        for i in 0..10_000u64 {
            let k = key(i);
            if mix64(k.raw() ^ SAMPLE_SALT) <= m.threshold {
                recorded += 1;
            }
            m.record(k);
        }
        assert_eq!(m.sampled(), recorded);
        assert!(
            m.sampled() < 100,
            "shift 20 should gate out almost everything, sampled {}",
            m.sampled()
        );
        assert_eq!(m.histogram().total(), recorded);
    }
}
