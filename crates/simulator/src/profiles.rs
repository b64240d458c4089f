//! Building solver inputs (per-queue hit-rate curves and frequencies) from
//! traces.
//!
//! The Dynacache solver needs, for every queue, the hit-rate
//! curve and the fraction of GETs it receives (paper Equation 1). This module
//! derives them from a trace by running per-slab-class stack-distance
//! trackers over the GET stream — exactly what the paper did with the
//! week-long Memcachier trace.

use cache_core::{CacheQueue, ClassId, SlabConfig};
use profiler::{DynacacheSolver, QueueProfile, StackDistanceTracker};
use workloads::{Op, Trace};

/// Per-class profile of a single application's trace.
#[derive(Debug)]
pub struct ClassProfiles {
    /// One profile per slab class (classes with no GETs have frequency 0).
    pub profiles: Vec<QueueProfile>,
    /// Raw GET counts per class.
    pub gets_per_class: Vec<u64>,
}

impl ClassProfiles {
    /// Classes that actually received requests.
    pub fn active_classes(&self) -> Vec<ClassId> {
        self.gets_per_class
            .iter()
            .enumerate()
            .filter(|(_, &g)| g > 0)
            .map(|(i, _)| ClassId::new(i as u32))
            .collect()
    }
}

/// Profiles a single-application trace per slab class.
///
/// `max_curve_points` bounds the size of each hit-rate curve (the curves are
/// downsampled, mirroring the bucketing the paper uses to keep profiling
/// affordable).
pub fn profile_app_classes(
    trace: &Trace,
    slab: &SlabConfig,
    max_curve_points: usize,
) -> ClassProfiles {
    let num_classes = slab.num_classes();
    let mut trackers: Vec<StackDistanceTracker> = (0..num_classes)
        .map(|_| StackDistanceTracker::new())
        .collect();
    let mut gets = vec![0u64; num_classes];
    for request in trace.iter() {
        if request.op != Op::Get {
            continue;
        }
        let Some(class) = slab.class_for_size(request.size as u64) else {
            continue;
        };
        gets[class.index()] += 1;
        trackers[class.index()].record(request.key);
    }
    let total_gets: u64 = gets.iter().sum();
    let profiles = trackers
        .iter()
        .enumerate()
        .map(|(idx, tracker)| {
            let class = ClassId::new(idx as u32);
            let curve = tracker.to_curve().downsample(max_curve_points);
            let frequency = if total_gets == 0 {
                0.0
            } else {
                gets[idx] as f64 / total_gets as f64
            };
            let bytes_per_item = CacheQueue::charge(slab.chunk_size(class));
            QueueProfile::new(curve, frequency, bytes_per_item)
        })
        .collect();
    ClassProfiles {
        profiles,
        gets_per_class: gets,
    }
}

/// Runs the Dynacache solver on a trace's per-class profiles and returns the
/// per-class byte targets for the given reservation.
pub fn dynacache_plan(
    trace: &Trace,
    slab: &SlabConfig,
    reserved_bytes: u64,
    step_bytes: u64,
) -> Vec<u64> {
    let profiles = profile_app_classes(trace, slab, 512);
    let solver = DynacacheSolver::new(step_bytes);
    solver.allocate(&profiles.profiles, reserved_bytes).bytes
}

/// Builds an application-level profile (one queue per application) for
/// cross-application optimisation (Table 3). The curve is the application's
/// global-LRU hit-rate curve over items; `bytes_per_item` is the mean charge
/// of the application's items, which converts the byte budget into items.
pub fn profile_whole_app(trace: &Trace, max_curve_points: usize) -> QueueProfile {
    let mut tracker = StackDistanceTracker::new();
    let mut gets = 0u64;
    let mut total_size: u128 = 0;
    for request in trace.iter() {
        if request.op != Op::Get {
            continue;
        }
        gets += 1;
        total_size += CacheQueue::charge(request.size as u64) as u128;
        tracker.record(request.key);
    }
    let mean_charge = if gets == 0 {
        1
    } else {
        (total_size / gets as u128).max(1) as u64
    };
    QueueProfile::new(
        tracker.to_curve().downsample(max_curve_points),
        gets as f64,
        mean_charge,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AppProfile, Phase, SizeDistribution};

    fn two_class_trace() -> Trace {
        // 70% of requests are small items over a large universe (needs
        // memory), 30% are large items over a tiny universe (does not).
        let profile = AppProfile::simple(
            1,
            "profiling",
            1.0,
            4 << 20,
            Phase {
                fraction: 1.0,
                popularity: workloads::KeyPopularity::Zipf {
                    num_keys: 20_000,
                    exponent: 0.9,
                },
                sizes: SizeDistribution::Mixture(vec![
                    (0.7, SizeDistribution::Fixed(100)),
                    (0.3, SizeDistribution::Fixed(4_000)),
                ]),
                scan_fraction: 0.0,
                scan_length: 0,
                key_offset: 0,
            },
        )
        .with_get_fraction(1.0);
        Trace::from_requests(profile.generate(60_000, 3_600, 3))
    }

    #[test]
    fn frequencies_sum_to_one_over_active_classes() {
        let trace = two_class_trace();
        let slab = SlabConfig::default();
        let profiles = profile_app_classes(&trace, &slab, 256);
        let total_freq: f64 = profiles.profiles.iter().map(|p| p.frequency).sum();
        assert!((total_freq - 1.0).abs() < 1e-9);
        let active = profiles.active_classes();
        assert_eq!(active.len(), 2, "two size groups -> two active classes");
        let gets_total: u64 = profiles.gets_per_class.iter().sum();
        assert_eq!(gets_total, trace.summary().gets);
    }

    #[test]
    fn curves_are_monotone_and_bounded() {
        let trace = two_class_trace();
        let slab = SlabConfig::default();
        let profiles = profile_app_classes(&trace, &slab, 128);
        for p in &profiles.profiles {
            let points = p.curve.points();
            assert!(points.len() <= 128);
            for w in points.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-12);
            }
            assert!(p.curve.max_hit_rate() <= 1.0);
        }
    }

    #[test]
    fn dynacache_plan_prefers_the_popular_small_class() {
        let trace = two_class_trace();
        let slab = SlabConfig::default();
        let plan = dynacache_plan(&trace, &slab, 2 << 20, 64 << 10);
        let small_class = slab.class_for_size(100).unwrap().index();
        let large_class = slab.class_for_size(4_000).unwrap().index();
        assert_eq!(plan.iter().sum::<u64>(), 2 << 20);
        assert!(plan[small_class] > plan[large_class], "plan = {plan:?}");
    }

    #[test]
    fn whole_app_profile_reflects_request_volume() {
        let trace = two_class_trace();
        let profile = profile_whole_app(&trace, 256);
        assert!((profile.frequency - trace.summary().gets as f64).abs() < 1e-9);
        assert!(profile.bytes_per_item > 100);
        assert!(profile.curve.max_hit_rate() > 0.3);
    }

    #[test]
    fn empty_trace_profiles_are_harmless() {
        let trace = Trace::new();
        let slab = SlabConfig::default();
        let profiles = profile_app_classes(&trace, &slab, 64);
        assert!(profiles.active_classes().is_empty());
        assert!(profiles.profiles.iter().all(|p| p.frequency == 0.0));
        let whole = profile_whole_app(&trace, 64);
        assert_eq!(whole.frequency, 0.0);
    }
}
