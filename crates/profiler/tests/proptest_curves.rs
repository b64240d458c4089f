//! Property-based tests of the profiling machinery: exact stack distances
//! against the naive reference, hull domination and concavity, curve
//! monotonicity and allocation conservation.

use cache_core::Key;
use profiler::curve::HitRateCurve;
use profiler::stack_distance::{NaiveStackDistance, StackDistanceTracker};
use profiler::{DynacacheSolver, QueueProfile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Fenwick-tree stack-distance tracker agrees with the naive LRU
    /// stack on every request of every trace.
    #[test]
    fn exact_tracker_matches_naive(keys in prop::collection::vec(0u16..64, 1..400)) {
        let mut exact = StackDistanceTracker::new();
        let mut naive = NaiveStackDistance::new();
        for k in keys {
            let key = Key::new(k as u64);
            prop_assert_eq!(exact.record(key), naive.record(key));
        }
        prop_assert_eq!(exact.histogram(), naive.histogram());
    }

    /// Curves built from arbitrary points are monotone, bounded and
    /// dominated by their concave hulls; the hull itself is concave.
    #[test]
    fn hull_dominates_and_is_concave(
        raw_points in prop::collection::vec((1u64..100_000, 0.0f64..1.5), 2..60),
    ) {
        let curve = HitRateCurve::from_points(raw_points);
        let hull = curve.concave_hull();
        // Monotone and within [0, 1].
        for w in curve.points().windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        for &(x, y) in curve.points() {
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(hull.value_at(x) + 1e-9 >= y, "hull below curve at {}", x);
        }
        // Hull slopes are non-increasing (concavity).
        let vertices = hull.vertices();
        for w in vertices.windows(3) {
            let s1 = (w[1].1 - w[0].1) / (w[1].0.saturating_sub(w[0].0)).max(1) as f64;
            let s2 = (w[2].1 - w[1].1) / (w[2].0.saturating_sub(w[1].0)).max(1) as f64;
            prop_assert!(s1 >= s2 - 1e-9);
        }
    }

    /// The solver hands out exactly the memory it was given and never
    /// produces a negative or NaN prediction.
    #[test]
    fn the_solver_conserves_memory(
        knees in prop::collection::vec(100u64..20_000, 1..8),
        total_mb in 1u64..32,
    ) {
        let profiles: Vec<QueueProfile> = knees
            .iter()
            .map(|&knee| {
                let points = (1..=100u64)
                    .map(|i| {
                        let x = i * 200;
                        (x, 0.95 * x as f64 / (x as f64 + knee as f64))
                    })
                    .collect();
                QueueProfile::new(HitRateCurve::from_points(points), 1.0 / knees.len() as f64, 128)
            })
            .collect();
        let total = total_mb << 20;
        let dynacache = DynacacheSolver::new(64 << 10).allocate(&profiles, total);
        prop_assert_eq!(dynacache.total_bytes(), total);
        prop_assert!(dynacache.predicted_hit_rate.is_finite());
        prop_assert!(dynacache.predicted_hit_rate >= 0.0);
    }

    /// Hit rates evaluated anywhere on a curve are within [0, 1] and
    /// non-decreasing in the queue size.
    #[test]
    fn curve_evaluation_is_monotone(
        raw_points in prop::collection::vec((1u64..10_000, 0.0f64..1.0), 2..40),
        probes in prop::collection::vec(0u64..12_000, 1..40),
    ) {
        let curve = HitRateCurve::from_points(raw_points);
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut last = 0.0;
        for p in sorted {
            let v = curve.hit_rate_at(p);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v + 1e-12 >= last);
            last = v;
        }
    }
}
