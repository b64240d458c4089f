//! Talus partitioning of a single queue (Beckmann & Sanchez, HPCA 2015).
//!
//! Given a queue of `N` items whose hit-rate curve has a performance cliff at
//! the current operating point, Talus splits the queue into two sub-queues
//! and divides the request stream between them so that each sub-queue
//! *simulates* a larger (or smaller) queue sitting on the concave hull. The
//! combined hit rate is the linear interpolation between the two hull anchor
//! points — i.e. the concave hull itself (paper §4.2, Figure 4).
//!
//! The arithmetic: with anchors `a < N < b` on the hull, route a fraction
//! `ρ = (b − N) / (b − a)` of requests to the left sub-queue and give it
//! `ρ·a` items; the remaining `1 − ρ` of requests go to the right sub-queue
//! of `(1 − ρ)·b` items. The paper's example (application 19, slab 0 with
//! `N = 8000`, `a = 2000`, `b = 13500`) yields ρ ≈ 0.48, sizes 957 and 7043 —
//! reproduced in the tests below.

use crate::curve::HitRateCurve;
use crate::hull::ConcaveHull;
use serde::{Deserialize, Serialize};

/// A Talus split of one queue.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TalusPartition {
    /// Items assigned to the left (smaller-simulation) sub-queue.
    pub left_items: u64,
    /// Items assigned to the right (larger-simulation) sub-queue.
    pub right_items: u64,
    /// Fraction of requests routed to the left sub-queue.
    pub left_request_ratio: f64,
    /// Queue size the left sub-queue simulates (hull anchor `a`).
    pub simulated_left: u64,
    /// Queue size the right sub-queue simulates (hull anchor `b`).
    pub simulated_right: u64,
    /// Hit rate the partition is expected to achieve (the hull's value).
    pub expected_hit_rate: f64,
    /// Hit rate of the unpartitioned queue at the same size (for comparison).
    pub baseline_hit_rate: f64,
}

impl TalusPartition {
    /// Computes the Talus partition of a queue of `items` items with the
    /// given hit-rate curve.
    ///
    /// If the operating point is not inside a cliff (the curve already sits
    /// on its hull within `tolerance`), the queue is split evenly and both
    /// halves simulate the original size — which behaves identically to the
    /// unpartitioned queue.
    pub fn compute(curve: &HitRateCurve, items: u64, tolerance: f64) -> TalusPartition {
        let hull = curve.concave_hull();
        Self::compute_with_hull(curve, &hull, items, tolerance)
    }

    /// Same as [`TalusPartition::compute`] with a precomputed hull.
    pub fn compute_with_hull(
        curve: &HitRateCurve,
        hull: &ConcaveHull,
        items: u64,
        tolerance: f64,
    ) -> TalusPartition {
        let baseline = curve.hit_rate_at(items);
        let even = TalusPartition {
            left_items: items / 2,
            right_items: items - items / 2,
            left_request_ratio: 0.5,
            simulated_left: items,
            simulated_right: items,
            expected_hit_rate: baseline,
            baseline_hit_rate: baseline,
        };
        if items == 0 || !hull.in_cliff_region(curve, items, tolerance) {
            return even;
        }
        let Some(((a, _ha), (b, hb_))) = hull.bracketing_segment(items) else {
            return even;
        };
        if b <= a || items <= a || items >= b {
            return even;
        }
        let rho = (b - items) as f64 / (b - a) as f64;
        let left_items = (rho * a as f64).round() as u64;
        let right_items = items.saturating_sub(left_items);
        TalusPartition {
            left_items,
            right_items,
            left_request_ratio: rho,
            simulated_left: a,
            simulated_right: b,
            expected_hit_rate: hull.value_at(items),
            baseline_hit_rate: baseline,
        }
        .sanity_clamped(hb_)
    }

    fn sanity_clamped(mut self, right_anchor_rate: f64) -> Self {
        self.left_request_ratio = self.left_request_ratio.clamp(0.0, 1.0);
        if self.expected_hit_rate < self.baseline_hit_rate {
            self.expected_hit_rate = self.baseline_hit_rate;
        }
        if self.expected_hit_rate > right_anchor_rate.max(self.baseline_hit_rate) {
            self.expected_hit_rate = right_anchor_rate.max(self.baseline_hit_rate);
        }
        self
    }

    /// The hit-rate improvement over the unpartitioned queue.
    pub fn improvement(&self) -> f64 {
        self.expected_hit_rate - self.baseline_hit_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hit-rate curve of the paper's running example: application 19,
    /// slab class 0 — near zero until a steep cliff, flattening around
    /// 13 500 items (Figure 4).
    fn app19_like_curve() -> HitRateCurve {
        HitRateCurve::from_points(vec![
            (1, 0.001),
            (500, 0.15),
            (2_000, 0.30),
            (6_000, 0.33),
            (9_000, 0.36),
            (10_500, 0.60),
            (12_000, 0.80),
            (13_500, 0.92),
            (18_000, 0.96),
        ])
    }

    #[test]
    fn reproduces_the_papers_figure_4_arithmetic() {
        // The paper's worked example: anchors 2000 and 13500, queue of 8000
        // items => 48%/52% request split, 957 and 7043 items.
        let items = 8_000u64;
        let (a, b) = (2_000u64, 13_500u64);
        let rho = (b - items) as f64 / (b - a) as f64;
        assert!((rho - 0.478).abs() < 0.01);
        let left = (rho * a as f64).round() as u64;
        let right = items - left;
        assert_eq!(left, 957);
        assert_eq!(right, 7_043);
    }

    #[test]
    fn partition_rides_the_hull_inside_a_cliff() {
        let curve = app19_like_curve();
        let p = TalusPartition::compute(&curve, 8_000, 0.02);
        assert_ne!(p.simulated_left, p.simulated_right);
        assert!(p.simulated_left < 8_000);
        assert!(p.simulated_right > 8_000);
        assert_eq!(p.left_items + p.right_items, 8_000);
        assert!(
            p.improvement() > 0.2,
            "partitioning should lift the hit rate well above the cliff floor \
             (got {:.3} over {:.3})",
            p.expected_hit_rate,
            p.baseline_hit_rate
        );
        // The request split interpolates the anchors: simulated sizes must be
        // consistent with the physical sizes and ratios.
        let sim_left = p.left_items as f64 / p.left_request_ratio;
        let sim_right = p.right_items as f64 / (1.0 - p.left_request_ratio);
        assert!((sim_left - p.simulated_left as f64).abs() / (p.simulated_left as f64) < 0.05);
        assert!((sim_right - p.simulated_right as f64).abs() / (p.simulated_right as f64) < 0.05);
    }

    #[test]
    fn concave_operating_point_splits_evenly() {
        let curve =
            HitRateCurve::from_points(vec![(100, 0.3), (200, 0.5), (400, 0.65), (800, 0.72)]);
        let p = TalusPartition::compute(&curve, 400, 0.01);
        assert_eq!(p.simulated_left, p.simulated_right);
        assert_eq!(p.left_request_ratio, 0.5);
        assert_eq!(p.left_items + p.right_items, 400);
        assert!((p.expected_hit_rate - 0.65).abs() < 1e-9);
        assert_eq!(p.improvement(), 0.0);
    }

    #[test]
    fn beyond_the_curve_splits_evenly() {
        let curve = app19_like_curve();
        let p = TalusPartition::compute(&curve, 50_000, 0.02);
        assert_eq!(p.simulated_left, p.simulated_right);
        let z = TalusPartition::compute(&curve, 0, 0.02);
        assert_eq!(z.left_items, 0);
        assert_eq!(z.right_items, 0);
    }

    #[test]
    fn expected_rate_never_below_baseline() {
        let curve = app19_like_curve();
        for items in (500..18_000).step_by(375) {
            let p = TalusPartition::compute(&curve, items, 0.02);
            assert!(
                p.expected_hit_rate + 1e-9 >= p.baseline_hit_rate,
                "partition at {items} regressed"
            );
        }
    }
}
