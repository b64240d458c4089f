//! Hit-rate curves.
//!
//! A hit-rate curve `h(c)` gives the fraction of requests an LRU queue of
//! `c` items would hit (paper Figure 1). Curves are constructed from
//! stack-distance histograms ([`crate::stack_distance`]) or from arbitrary
//! measured points, and support the operations the allocation baselines
//! need: evaluation, gradients, concavity checks and cliff detection.

use crate::hull::ConcaveHull;
use crate::stack_distance::StackDistanceHistogram;
use serde::{Deserialize, Serialize};

/// A non-decreasing hit-rate curve over queue sizes measured in items.
///
/// Internally the curve is a set of sample points `(items, hit_rate)` with
/// linear interpolation between them, `h(0) = 0`, and a flat extrapolation
/// beyond the last point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct HitRateCurve {
    /// Sample points, strictly increasing in items.
    points: Vec<(u64, f64)>,
}

impl HitRateCurve {
    /// Builds a curve from explicit `(items, hit_rate)` samples.
    ///
    /// Points are sorted by items; duplicate item counts keep the last value;
    /// hit rates are clamped to `[0, 1]` and made non-decreasing (a hit-rate
    /// curve is monotone by construction).
    pub fn from_points(mut points: Vec<(u64, f64)>) -> Self {
        points.sort_by_key(|&(x, _)| x);
        points.dedup_by_key(|&mut (x, _)| x);
        let mut running_max: f64 = 0.0;
        for p in &mut points {
            p.1 = p.1.clamp(0.0, 1.0).max(running_max);
            running_max = p.1;
        }
        HitRateCurve { points }
    }

    /// Builds the curve implied by a stack-distance histogram whose distance
    /// `d` stands for `items(d)` items, `items` strictly increasing over the
    /// populated distances: the hit rate at `items(d)` is the fraction of
    /// requests with distance `≤ d`, one point per populated distance.
    pub fn from_histogram(
        histogram: &StackDistanceHistogram,
        items: impl Fn(usize) -> u64,
    ) -> Self {
        let total = histogram.total();
        if total == 0 {
            return HitRateCurve::default();
        }
        let mut points = Vec::with_capacity(histogram.max_distance());
        let mut cumulative = 0u64;
        for d in 1..=histogram.max_distance() {
            let count = histogram.count_at(d);
            if count == 0 {
                continue;
            }
            cumulative += count;
            points.push((items(d), cumulative as f64 / total as f64));
        }
        if points.is_empty() {
            points.push((0, 0.0));
        }
        HitRateCurve { points }
    }

    /// The sample points of the curve.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The largest sampled queue size.
    pub fn max_items(&self) -> u64 {
        self.points.last().map(|&(x, _)| x).unwrap_or(0)
    }

    /// The hit rate at the largest sampled size (the curve's plateau).
    pub fn max_hit_rate(&self) -> f64 {
        self.points.last().map(|&(_, y)| y).unwrap_or(0.0)
    }

    /// Evaluates the curve at `items` (linear interpolation; flat beyond the
    /// last sample; 0 at 0 items).
    pub fn hit_rate_at(&self, items: u64) -> f64 {
        if self.points.is_empty() || items == 0 {
            return 0.0;
        }
        let mut prev = (0u64, 0.0f64);
        for &(x, y) in &self.points {
            if items == x {
                return y;
            }
            if items < x {
                let span = (x - prev.0) as f64;
                if span == 0.0 {
                    return y;
                }
                let t = (items - prev.0) as f64 / span;
                return prev.1 + t * (y - prev.1);
            }
            prev = (x, y);
        }
        prev.1
    }

    /// Whether the curve is concave everywhere (within `tolerance` of hit
    /// rate), checked across its sample points.
    pub fn is_concave(&self, tolerance: f64) -> bool {
        let hull = self.concave_hull();
        self.points
            .iter()
            .all(|&(x, y)| hull.value_at(x) - y <= tolerance)
    }

    /// Whether the curve has a performance cliff: a region where it falls
    /// below its concave hull by more than `threshold` of hit rate.
    pub fn has_cliff(&self, threshold: f64) -> bool {
        !self.is_concave(threshold)
    }

    /// The concave (upper) hull of the curve.
    pub fn concave_hull(&self) -> ConcaveHull {
        ConcaveHull::of_curve(self)
    }

    /// Downsamples the curve to at most `max_points` samples (keeping the
    /// first and last), which bounds the cost of solver sweeps on very long
    /// traces.
    pub fn downsample(&self, max_points: usize) -> HitRateCurve {
        if self.points.len() <= max_points || max_points < 2 {
            return self.clone();
        }
        let stride = (self.points.len() - 1) as f64 / (max_points - 1) as f64;
        let mut points = Vec::with_capacity(max_points);
        for i in 0..max_points {
            let idx = ((i as f64 * stride).round() as usize).min(self.points.len() - 1);
            points.push(self.points[idx]);
        }
        points.dedup_by_key(|&mut (x, _)| x);
        HitRateCurve { points }
    }
}

/// Builds the canonical cliff-shaped curve used in examples and tests: close
/// to zero hit rate until `cliff_at` items, then a jump to `top` (the
/// sequential-scan pattern of paper §3.5).
pub fn cliff_curve(cliff_at: u64, top: f64) -> HitRateCurve {
    HitRateCurve::from_points(vec![
        (1, 0.005),
        (cliff_at.saturating_sub(1).max(2), 0.02),
        (cliff_at.max(3), top * 0.98),
        (cliff_at.max(3) * 2, top),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concave_points() -> Vec<(u64, f64)> {
        vec![
            (100, 0.4),
            (200, 0.6),
            (400, 0.75),
            (800, 0.8),
            (1600, 0.82),
        ]
    }

    #[test]
    fn interpolation_and_extrapolation() {
        let c = HitRateCurve::from_points(concave_points());
        assert_eq!(c.hit_rate_at(0), 0.0);
        assert!((c.hit_rate_at(100) - 0.4).abs() < 1e-12);
        assert!((c.hit_rate_at(150) - 0.5).abs() < 1e-12);
        assert!((c.hit_rate_at(1_000_000) - 0.82).abs() < 1e-12);
        // Between 0 and the first point the curve rises linearly from 0.
        assert!((c.hit_rate_at(50) - 0.2).abs() < 1e-12);
        assert_eq!(c.max_items(), 1600);
        assert!((c.max_hit_rate() - 0.82).abs() < 1e-12);
    }

    #[test]
    fn from_histogram_matches_cumulative_fractions() {
        let mut h = StackDistanceHistogram::new();
        for _ in 0..5 {
            h.record(1);
        }
        for _ in 0..3 {
            h.record(10);
        }
        for _ in 0..2 {
            h.record_cold();
        }
        let c = h.to_curve();
        assert!((c.hit_rate_at(1) - 0.5).abs() < 1e-12);
        assert!((c.hit_rate_at(9) - 0.5).abs() > 0.0); // interpolated region
        assert!((c.hit_rate_at(10) - 0.8).abs() < 1e-12);
        assert!((c.hit_rate_at(100) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_gives_empty_curve() {
        let h = StackDistanceHistogram::new();
        let c = h.to_curve();
        assert_eq!(c.hit_rate_at(100), 0.0);
        assert_eq!(c.max_items(), 0);
    }

    #[test]
    fn points_are_normalised() {
        let c = HitRateCurve::from_points(vec![(200, 0.3), (100, 0.9), (300, 1.7), (200, 0.5)]);
        // Sorted, deduped, clamped and made monotone.
        let points = c.points();
        assert_eq!(points[0].0, 100);
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(points.iter().all(|&(_, y)| (0.0..=1.0).contains(&y)));
    }

    #[test]
    fn concavity_and_cliff_detection() {
        let concave = HitRateCurve::from_points(concave_points());
        assert!(concave.is_concave(1e-9));
        assert!(!concave.has_cliff(0.01));

        let cliff = cliff_curve(10_000, 0.8);
        assert!(cliff.has_cliff(0.05));
        assert!(!cliff.is_concave(0.05));
    }

    #[test]
    fn downsample_keeps_endpoints_and_shape() {
        let points: Vec<(u64, f64)> = (1..=1000)
            .map(|i| (i, (i as f64 / 1000.0).sqrt()))
            .collect();
        let c = HitRateCurve::from_points(points);
        let d = c.downsample(50);
        assert!(d.points().len() <= 50);
        assert_eq!(d.points().first().unwrap().0, 1);
        assert_eq!(d.points().last().unwrap().0, 1000);
        for probe in [10u64, 100, 500, 900] {
            assert!((d.hit_rate_at(probe) - c.hit_rate_at(probe)).abs() < 0.05);
        }
    }
}
