//! The synthetic Memcachier-like trace (the paper's evaluation substrate).
//!
//! The real week-long Memcachier trace of the top 20 applications is not
//! public, so this module builds a synthetic stand-in. This is where the
//! substitution is argued; the rest of the workspace points here.
//!
//! Every allocator the paper compares sees a trace only through hit-rate
//! curves: hill climbing samples a curve's gradient with its shadow queues,
//! cliff scaling its convexity with the tail and cliff shadows, and the
//! Dynacache and Talus baselines solve over whole curves. What decides the
//! comparisons is the shape of each slab class's and each application's
//! curve and how requests and memory divide among them, not which keys a
//! request names. A trace with the same shapes, divisions and changes over
//! time therefore reproduces the comparisons, and this one is built with
//! the properties the paper's analysis depends on:
//!
//! * twenty applications with very different request shares, key-universe
//!   sizes, item-size mixes and reservations, so that some are
//!   over-provisioned (hit rates in the high 90s) and some are starved;
//! * six applications (1, 7, 10, 11, 18, 19 — the asterisked ones in
//!   Figure 2) with sequential-scan components that put performance cliffs
//!   into their hit-rate curves;
//! * applications 4 and 6 with a strongly size-imbalanced mix, the situation
//!   Table 1 examines;
//! * application 5 with a phase change that moves its traffic between slab
//!   classes over the week (the behaviour Figure 8 visualises);
//! * application 19 with steep cliffs in both of its slab classes (Table 4,
//!   Figures 4 and 9).
//!
//! Absolute hit rates differ from the proprietary trace; orderings and
//! qualitative behaviour (who benefits from what) are what the experiments
//! reproduce. The micro-benchmarks substitute the same way: the paper's
//! Mutilate runs replay the Facebook ETC distributions, which
//! [`crate::facebook_etc`] samples from their published fits.

use crate::app_profile::{AppProfile, Phase};
use crate::sizes::SizeDistribution;
use crate::trace::Trace;
use crate::zipf::KeyPopularity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic Memcachier-like trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemcachierConfig {
    /// Total number of requests across all applications.
    pub total_requests: u64,
    /// Trace duration in (simulated) seconds; the paper's trace covers a
    /// week.
    pub duration_secs: u64,
    /// Seed for all request generation.
    pub seed: u64,
    /// Scale factor applied to every application's key universe and memory
    /// reservation (1.0 = the defaults below; smaller values make quick
    /// tests cheap).
    pub scale: f64,
}

impl Default for MemcachierConfig {
    fn default() -> Self {
        MemcachierConfig {
            total_requests: 2_000_000,
            duration_secs: 7 * 24 * 3_600,
            seed: 0x4d43_4143, // "MCAC"
            scale: 1.0,
        }
    }
}

impl MemcachierConfig {
    /// A configuration sized for fast unit tests.
    pub fn small(total_requests: u64) -> Self {
        MemcachierConfig {
            total_requests,
            duration_secs: 24 * 3_600,
            scale: 0.25,
            ..MemcachierConfig::default()
        }
    }
}

fn scaled(value: u64, scale: f64) -> u64 {
    ((value as f64 * scale).round() as u64).max(1)
}

/// The twenty application profiles, in paper order (application ids 1–20).
// One `push` per application keeps each profile next to the prose
// describing it; a single `vec![...]` literal would lose that structure.
#[allow(clippy::vec_init_then_push)]
pub fn memcachier_apps(scale: f64) -> Vec<AppProfile> {
    let s = scale;
    // Size mixes reused by several applications.
    let small_values = SizeDistribution::LogNormal {
        mu: 5.3,
        sigma: 0.6,
        cap: 2_048,
    };
    let mixed_values = SizeDistribution::Mixture(vec![
        (0.6, SizeDistribution::Uniform { min: 48, max: 300 }),
        (
            0.3,
            SizeDistribution::Uniform {
                min: 301,
                max: 2_048,
            },
        ),
        (
            0.1,
            SizeDistribution::Uniform {
                min: 2_049,
                max: 16_384,
            },
        ),
    ]);

    let mut apps = Vec::new();

    // Application 1*: the giant tenant. Huge key universe, mild skew, a scan
    // component, and a reservation that cannot hold the working set.
    apps.push(
        AppProfile::simple(
            1,
            "app01-giant",
            0.30,
            scaled(8 << 20, s),
            Phase::zipf(scaled(150_000, s), 0.70, mixed_values.clone())
                .with_scan(0.15, scaled(40_000, s)),
        )
        .with_cliff(),
    );
    // Application 2: heavily under-provisioned, low skew -> low hit rate.
    apps.push(AppProfile::simple(
        2,
        "app02-starved",
        0.08,
        scaled(1 << 20, s),
        Phase::zipf(scaled(90_000, s), 0.55, small_values.clone()),
    ));
    // Application 3: comfortably provisioned, high skew -> ~98% hit rate.
    apps.push(AppProfile::simple(
        3,
        "app03-comfy",
        0.06,
        scaled(4 << 20, s),
        Phase::zipf(scaled(9_000, s), 1.05, mixed_values.clone()),
    ));
    // Application 4: size-imbalanced (Table 1): 9% of GETs are small and
    // always hit; 91% are large and carry all the misses.
    apps.push(AppProfile::simple(
        4,
        "app04-large-heavy",
        0.06,
        scaled(6 << 20, s),
        Phase {
            fraction: 1.0,
            popularity: KeyPopularity::HotSet {
                num_keys: scaled(40_000, s),
                hot_keys: scaled(1_500, s),
                hot_fraction: 0.60,
            },
            sizes: SizeDistribution::Mixture(vec![
                (0.20, SizeDistribution::Fixed(96)),
                (
                    0.80,
                    SizeDistribution::Uniform {
                        min: 2_048,
                        max: 8_192,
                    },
                ),
            ]),
            scan_fraction: 0.0,
            scan_length: 0,
            key_offset: 0,
        },
    ));
    // Application 5: well provisioned but with a mid-week phase change that
    // moves traffic from small slab classes to larger ones (Figure 8).
    apps.push(AppProfile {
        app: cache_core::AppId::new(5),
        name: "app05-phased".into(),
        request_share: 0.07,
        get_fraction: 0.97,
        reserved_bytes: scaled(4 << 20, s),
        has_cliff: false,
        phases: vec![
            Phase::zipf(
                scaled(12_000, s),
                1.0,
                SizeDistribution::Uniform { min: 64, max: 512 },
            )
            .with_fraction(0.45),
            Phase::zipf(
                scaled(9_000, s),
                1.0,
                SizeDistribution::Uniform {
                    min: 1_024,
                    max: 4_096,
                },
            )
            .with_fraction(0.35)
            .with_key_offset(1 << 24),
            Phase::zipf(
                scaled(6_000, s),
                1.0,
                SizeDistribution::Uniform {
                    min: 4_096,
                    max: 16_384,
                },
            )
            .with_fraction(0.20)
            .with_key_offset(1 << 25),
        ],
    });
    // Application 6: the slab-misallocation case of Table 1 — the dominant
    // (by GETs) middle class is starved under first-come-first-serve because
    // large items grab the memory first.
    apps.push(AppProfile::simple(
        6,
        "app06-misallocated",
        0.05,
        scaled(3 << 20, s),
        Phase {
            fraction: 1.0,
            popularity: KeyPopularity::Zipf {
                num_keys: scaled(30_000, s),
                exponent: 0.85,
            },
            sizes: SizeDistribution::Mixture(vec![
                (0.01, SizeDistribution::Fixed(80)),
                (0.70, SizeDistribution::Fixed(400)),
                (
                    0.29,
                    SizeDistribution::Uniform {
                        min: 8_192,
                        max: 32_768,
                    },
                ),
            ]),
            scan_fraction: 0.0,
            scan_length: 0,
            key_offset: 0,
        },
    ));
    // Application 7*: scan dominated.
    apps.push(
        AppProfile::simple(
            7,
            "app07-scanner",
            0.04,
            scaled(2 << 20, s),
            Phase::zipf(scaled(15_000, s), 0.9, small_values.clone())
                .with_scan(0.55, scaled(22_000, s)),
        )
        .with_cliff(),
    );
    // Application 8: medium, well provisioned.
    apps.push(AppProfile::simple(
        8,
        "app08-medium",
        0.04,
        scaled(2 << 20, s),
        Phase::zipf(scaled(18_000, s), 1.05, small_values.clone()),
    ));
    // Application 9: modest skew, slightly starved — the incremental
    // algorithm tracks it better than a week-long solver profile.
    apps.push(AppProfile::simple(
        9,
        "app09-drifting",
        0.04,
        scaled(1_500 << 10, s),
        Phase::zipf(scaled(35_000, s), 0.80, small_values.clone()),
    ));
    // Application 10*: scan component over a mid-sized database.
    apps.push(
        AppProfile::simple(
            10,
            "app10-batchjob",
            0.03,
            scaled(1_500 << 10, s),
            Phase::zipf(scaled(12_000, s), 0.95, mixed_values.clone())
                .with_scan(0.40, scaled(14_000, s)),
        )
        .with_cliff(),
    );
    // Application 11*: the Figure 3 cliff — scan dominated, small reservation.
    apps.push(
        AppProfile::simple(
            11,
            "app11-cliff",
            0.03,
            scaled(1 << 20, s),
            Phase::zipf(scaled(6_000, s), 0.9, SizeDistribution::Fixed(96))
                .with_scan(0.70, scaled(12_000, s)),
        )
        .with_cliff(),
    );
    // Applications 12–13: healthy mid-sized tenants.
    apps.push(AppProfile::simple(
        12,
        "app12-healthy",
        0.03,
        scaled(2 << 20, s),
        Phase::zipf(scaled(10_000, s), 1.0, small_values.clone()),
    ));
    apps.push(AppProfile::simple(
        13,
        "app13-healthy",
        0.03,
        scaled(2 << 20, s),
        Phase::zipf(scaled(22_000, s), 0.95, small_values.clone()),
    ));
    // Application 14: size-imbalanced, benefits strongly from reallocation.
    apps.push(AppProfile::simple(
        14,
        "app14-imbalanced",
        0.02,
        scaled(2 << 20, s),
        Phase {
            fraction: 1.0,
            popularity: KeyPopularity::Zipf {
                num_keys: scaled(20_000, s),
                exponent: 0.9,
            },
            sizes: SizeDistribution::Mixture(vec![
                (0.75, SizeDistribution::Fixed(128)),
                (
                    0.25,
                    SizeDistribution::Uniform {
                        min: 4_096,
                        max: 16_384,
                    },
                ),
            ]),
            scan_fraction: 0.0,
            scan_length: 0,
            key_offset: 0,
        },
    ));
    // Application 15: starved long-tail tenant.
    apps.push(AppProfile::simple(
        15,
        "app15-longtail",
        0.02,
        scaled(1 << 20, s),
        Phase::zipf(scaled(28_000, s), 0.70, small_values.clone()),
    ));
    // Applications 16–17: size-imbalanced, mid-sized.
    apps.push(AppProfile::simple(
        16,
        "app16-imbalanced",
        0.02,
        scaled(2 << 20, s),
        Phase {
            fraction: 1.0,
            popularity: KeyPopularity::Zipf {
                num_keys: scaled(16_000, s),
                exponent: 0.9,
            },
            sizes: SizeDistribution::Mixture(vec![
                (0.65, SizeDistribution::Fixed(192)),
                (
                    0.35,
                    SizeDistribution::Uniform {
                        min: 2_048,
                        max: 12_288,
                    },
                ),
            ]),
            scan_fraction: 0.0,
            scan_length: 0,
            key_offset: 0,
        },
    ));
    apps.push(AppProfile::simple(
        17,
        "app17-imbalanced",
        0.02,
        scaled(2 << 20, s),
        Phase {
            fraction: 1.0,
            popularity: KeyPopularity::Zipf {
                num_keys: scaled(14_000, s),
                exponent: 0.95,
            },
            sizes: SizeDistribution::Mixture(vec![
                (0.55, SizeDistribution::Fixed(256)),
                (
                    0.45,
                    SizeDistribution::Uniform {
                        min: 1_024,
                        max: 8_192,
                    },
                ),
            ]),
            scan_fraction: 0.0,
            scan_length: 0,
            key_offset: 0,
        },
    ));
    // Application 18*: scanning tenant where a concavity-assuming solver
    // misjudges the curve.
    apps.push(
        AppProfile::simple(
            18,
            "app18-mixed-scan",
            0.02,
            scaled(1 << 20, s),
            Phase::zipf(scaled(8_000, s), 1.0, small_values.clone())
                .with_scan(0.45, scaled(9_000, s)),
        )
        .with_cliff(),
    );
    // Application 19*: steep cliffs in both of its slab classes (Table 4,
    // Figures 4 and 9): two scanned databases of different item sizes.
    apps.push(AppProfile {
        app: cache_core::AppId::new(19),
        name: "app19-double-cliff".into(),
        request_share: 0.02,
        get_fraction: 0.98,
        reserved_bytes: scaled(1_500 << 10, s),
        has_cliff: true,
        phases: vec![
            // Slab class 0: small items, scanned.
            Phase::zipf(scaled(2_000, s), 0.8, SizeDistribution::Fixed(80))
                .with_fraction(0.6)
                .with_scan(0.85, scaled(11_000, s)),
            // Slab class 1: larger items, also scanned.
            Phase::zipf(scaled(1_500, s), 0.8, SizeDistribution::Fixed(700))
                .with_fraction(0.4)
                .with_key_offset(1 << 26)
                .with_scan(0.80, scaled(2_500, s)),
        ],
    });
    // Application 20: small, comfortable tenant.
    apps.push(AppProfile::simple(
        20,
        "app20-small",
        0.02,
        scaled(1 << 20, s),
        Phase::zipf(scaled(4_000, s), 1.1, small_values),
    ));

    apps
}

/// Builds the interleaved multi-application trace.
pub fn memcachier_trace(config: &MemcachierConfig) -> Trace {
    let apps = memcachier_apps(config.scale);
    trace_for_apps(&apps, config)
}

/// Builds an interleaved trace for an arbitrary set of application profiles.
pub fn trace_for_apps(apps: &[AppProfile], config: &MemcachierConfig) -> Trace {
    let total_share: f64 = apps.iter().map(|a| a.request_share.max(0.0)).sum();
    let total_share = if total_share <= 0.0 { 1.0 } else { total_share };
    let per_app_requests: Vec<u64> = apps
        .iter()
        .map(|a| {
            ((a.request_share.max(0.0) / total_share) * config.total_requests as f64).round() as u64
        })
        .collect();
    let mut generators: Vec<_> = apps
        .iter()
        .zip(&per_app_requests)
        .map(|(a, &n)| a.generator(config.seed).with_expected_total(n.max(1)))
        .collect();
    let mut remaining = per_app_requests.clone();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1e7e_aced);
    let total: u64 = remaining.iter().sum();
    let mut trace = Trace::new();
    let mut issued = 0u64;
    while issued < total {
        // Weighted pick proportional to the remaining budget of each app, so
        // applications stay interleaved at their request shares all the way
        // through the trace.
        let left: u64 = remaining.iter().sum();
        if left == 0 {
            break;
        }
        let mut pick = rng.gen_range(0..left);
        let mut chosen = 0usize;
        for (i, &r) in remaining.iter().enumerate() {
            if pick < r {
                chosen = i;
                break;
            }
            pick -= r;
        }
        let time = issued * config.duration_secs / total.max(1);
        trace.push(generators[chosen].next_request(time));
        remaining[chosen] -= 1;
        issued += 1;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_core::AppId;

    #[test]
    fn twenty_apps_with_paper_properties() {
        let apps = memcachier_apps(1.0);
        assert_eq!(apps.len(), 20);
        // Six asterisked applications.
        let cliffy: Vec<u32> = apps
            .iter()
            .filter(|a| a.has_cliff)
            .map(|a| a.app.0)
            .collect();
        assert_eq!(cliffy, vec![1, 7, 10, 11, 18, 19]);
        // Application ids are 1..=20 in order.
        let ids: Vec<u32> = apps.iter().map(|a| a.app.0).collect();
        assert_eq!(ids, (1..=20).collect::<Vec<_>>());
        // Application 1 dominates the request share.
        let max_share = apps
            .iter()
            .max_by(|a, b| a.request_share.partial_cmp(&b.request_share).unwrap())
            .unwrap();
        assert_eq!(max_share.app.0, 1);
        // Application 5 has multiple phases, application 19 has two.
        assert!(apps[4].phases.len() >= 3);
        assert_eq!(apps[18].phases.len(), 2);
    }

    #[test]
    fn scale_shrinks_universes_and_reservations() {
        let full = memcachier_apps(1.0);
        let tiny = memcachier_apps(0.1);
        for (f, t) in full.iter().zip(&tiny) {
            assert!(t.reserved_bytes <= f.reserved_bytes);
            for (fp, tp) in f.phases.iter().zip(&t.phases) {
                assert!(tp.popularity.num_keys() <= fp.popularity.num_keys());
            }
        }
    }

    #[test]
    fn trace_respects_request_shares() {
        let config = MemcachierConfig {
            total_requests: 100_000,
            scale: 0.1,
            ..MemcachierConfig::default()
        };
        let trace = memcachier_trace(&config);
        assert!((trace.len() as i64 - 100_000i64).abs() < 100);
        let summary = trace.summary();
        let app1 = summary.requests_per_app[&AppId::new(1)] as f64 / trace.len() as f64;
        // App 1's normalised share is 0.30 / 1.10 ~= 0.273.
        assert!((app1 - 0.273).abs() < 0.03, "app1 share = {app1}");
        let app20 = summary.requests_per_app[&AppId::new(20)] as f64 / trace.len() as f64;
        assert!(app20 < 0.03);
        assert_eq!(summary.requests_per_app.len(), 20);
    }

    #[test]
    fn trace_is_deterministic_and_time_ordered() {
        let config = MemcachierConfig::small(20_000);
        let a = memcachier_trace(&config);
        let b = memcachier_trace(&config);
        assert_eq!(a, b);
        assert!(a.requests.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn apps_are_interleaved_throughout_the_trace() {
        let config = MemcachierConfig::small(50_000);
        let trace = memcachier_trace(&config);
        // Split the trace in quarters; the dominant app must appear in all.
        let quarter = trace.len() / 4;
        for q in 0..4 {
            let slice = &trace.requests[q * quarter..(q + 1) * quarter];
            assert!(
                slice.iter().any(|r| r.app == AppId::new(1)),
                "app 1 missing from quarter {q}"
            );
            assert!(
                slice.iter().any(|r| r.app != AppId::new(1)),
                "quarter {q} contains only app 1"
            );
        }
    }

    #[test]
    fn sizes_spread_across_slab_classes() {
        let config = MemcachierConfig::small(30_000);
        let trace = memcachier_trace(&config);
        let slab = cache_core::SlabConfig::default();
        let mut classes = std::collections::HashSet::new();
        for r in trace.iter() {
            if let Some(c) = slab.class_for_size(r.size as u64) {
                classes.insert(c);
            }
        }
        assert!(
            classes.len() >= 6,
            "the mix should span many slab classes, got {}",
            classes.len()
        );
    }
}
