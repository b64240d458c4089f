//! Static per-tenant reservations vs live cross-tenant arbitration
//! (beyond-paper experiment; the setting of the paper's §3 analysis).
//!
//! Memcachier divides one cache between applications with *static*
//! reservations, and Table 3 of the paper shows how much hit rate that
//! leaves on the table when the applications' marginal utilities of memory
//! differ. The server backend's arbiter (a [`cliffhanger::ShardRebalancer`]
//! with tenants in its seats) replaces the static split with the paper's
//! shadow-queue gradient machinery run at whole-application granularity
//! (§4.1's "queue of an entire application"),
//! and this experiment quantifies the win: several tenant mixes — from
//! perfectly balanced to heavily skewed — are each replayed twice at a fixed
//! total budget, once with static even reservations and once with the
//! arbiter moving budget between the tenants, and the table reports total
//! and per-tenant hit rates per scenario. The CI `tenant-smoke` job runs the
//! down-scaled [`TenantOptions::smoke`] variant and asserts the arbiter
//! never loses to the static split (and clearly beats it on the skewed mix).

use super::sharding::{replay_seats, SeatReplay};
use crate::report::Table;
use cliffhanger::ShardBalanceConfig;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use workloads::{KeyPopularity, SizeDistribution};

/// One tenant of a scenario: its share of the traffic and the shape of its
/// own key universe.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantProfile {
    /// Tenant name (for the report only).
    pub name: String,
    /// Relative share of the request stream.
    pub traffic_weight: u64,
    /// Size of the tenant's key universe.
    pub num_keys: u64,
    /// Zipf exponent of the tenant's key popularity (<= 0 = uniform).
    pub zipf_exponent: f64,
}

/// One mix of tenants sharing the fixed total budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantScenario {
    /// Scenario name (for the report only).
    pub name: String,
    /// The tenants of this mix.
    pub tenants: Vec<TenantProfile>,
}

/// Knobs of the tenant-arbitration experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantOptions {
    /// Fixed total memory, reserved evenly across each scenario's tenants.
    pub total_bytes: u64,
    /// Measured requests per run (after warm-up).
    pub requests: u64,
    /// Untimed warm-up requests per run.
    pub warmup_requests: u64,
    /// Requests between arbitration rounds.
    pub interval_requests: u64,
    /// Generalized-Pareto scale of the value sizes, in bytes.
    pub value_scale: f64,
    /// Cap on the value sizes, in bytes.
    pub value_cap: u64,
    /// Base RNG seed (the request stream is identical across modes).
    pub seed: u64,
    /// The tenant mixes to measure.
    pub scenarios: Vec<TenantScenario>,
}

fn profile(name: &str, traffic_weight: u64, num_keys: u64, zipf_exponent: f64) -> TenantProfile {
    TenantProfile {
        name: name.to_string(),
        traffic_weight,
        num_keys,
        zipf_exponent,
    }
}

impl TenantOptions {
    /// The scale README's figures are quoted at: working sets well past the
    /// static shares, long enough for the arbiter's walk to converge.
    pub fn standard() -> Self {
        TenantOptions {
            total_bytes: 32 << 20,
            requests: 1_200_000,
            warmup_requests: 600_000,
            interval_requests: 4_096,
            value_scale: 214.476,
            value_cap: 2 << 10,
            seed: 0x7E4A_27B1,
            scenarios: vec![
                // Identical twins: arbitration has nothing to win and must
                // not lose anything either.
                TenantScenario {
                    name: "balanced".to_string(),
                    tenants: vec![
                        profile("even-a", 1, 60_000, 0.9),
                        profile("even-b", 1, 60_000, 0.9),
                    ],
                },
                // The acceptance mix: one tenant's working set dwarfs its
                // static half while the other idles on a tiny key set — the
                // Memcachier situation of §3 / Table 3.
                TenantScenario {
                    name: "skewed".to_string(),
                    tenants: vec![
                        profile("heavy", 3, 200_000, 0.9),
                        profile("light", 1, 2_000, 0.9),
                    ],
                },
                // Three ways of needing memory: a big Zipf tenant, a medium
                // uniform scanner, and a nearly idle one.
                TenantScenario {
                    name: "three-way".to_string(),
                    tenants: vec![
                        profile("big", 3, 150_000, 0.9),
                        profile("scan", 2, 40_000, 0.0),
                        profile("idle", 1, 1_000, 0.9),
                    ],
                },
            ],
        }
    }

    /// A down-scaled variant for CI smoke runs and unit tests.
    pub fn smoke() -> Self {
        TenantOptions {
            total_bytes: 8 << 20,
            requests: 300_000,
            warmup_requests: 150_000,
            scenarios: vec![
                TenantScenario {
                    name: "balanced".to_string(),
                    tenants: vec![
                        profile("even-a", 1, 15_000, 0.9),
                        profile("even-b", 1, 15_000, 0.9),
                    ],
                },
                TenantScenario {
                    name: "skewed".to_string(),
                    tenants: vec![
                        profile("heavy", 3, 60_000, 0.9),
                        profile("light", 1, 600, 0.9),
                    ],
                },
            ],
            ..TenantOptions::standard()
        }
    }
}

/// One tenant's measured outcome within a scenario run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// GETs measured for this tenant.
    pub gets: u64,
    /// Hit rate with static reservations.
    pub static_hit_rate: f64,
    /// Hit rate with the arbiter on.
    pub arbitrated_hit_rate: f64,
    /// Final byte budget under arbitration (static budget is the even
    /// share).
    pub arbitrated_budget_bytes: u64,
}

/// One measured scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantPoint {
    /// Scenario name.
    pub scenario: String,
    /// Total hit rate with static even reservations (arbiter off).
    pub static_hit_rate: f64,
    /// Total hit rate with the cross-tenant arbiter on.
    pub arbitrated_hit_rate: f64,
    /// Budget transfers the arbiter applied.
    pub transfers: u64,
    /// Bytes the arbiter moved.
    pub bytes_moved: u64,
    /// Per-tenant breakdowns.
    pub tenants: Vec<TenantOutcome>,
}

/// The full experiment result (schema `cliffhanger-tenant-experiment/v1`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantResult {
    /// Schema tag.
    pub schema: String,
    /// The options the experiment ran with.
    pub options: TenantOptions,
    /// One point per scenario.
    pub points: Vec<TenantPoint>,
}

/// Schema tag for [`TenantResult`].
pub const TENANT_SCHEMA: &str = "cliffhanger-tenant-experiment/v1";

/// Replays one scenario at fixed total budget, with or without the arbiter.
///
/// Every tenant is one Cliffhanger engine holding its reservation (the
/// backend runs one engine per tenant per shard; a single engine per tenant
/// is the same allocation problem without the wire layer). The request
/// stream interleaves the tenants by traffic weight, deterministically.
fn run_scenario(opts: &TenantOptions, scenario: &TenantScenario, arbitrate: bool) -> SeatReplay {
    let n = scenario.tenants.len();
    let balance = arbitrate.then(|| ShardBalanceConfig {
        interval_requests: opts.interval_requests,
        ..ShardBalanceConfig::scaled_for_tenants(opts.total_bytes, n)
    });
    let samplers: Vec<_> = scenario
        .tenants
        .iter()
        .map(|t| {
            if t.zipf_exponent <= 0.0 {
                KeyPopularity::Uniform {
                    num_keys: t.num_keys,
                }
            } else {
                KeyPopularity::Zipf {
                    num_keys: t.num_keys,
                    exponent: t.zipf_exponent,
                }
            }
            .sampler()
        })
        .collect();
    let sizes = SizeDistribution::GeneralizedPareto {
        location: 0.0,
        scale: opts.value_scale,
        shape: 0.348_468,
        cap: opts.value_cap,
    };
    // Weighted tenant pick per request via cumulative weights.
    let cumulative: Vec<u64> = scenario
        .tenants
        .iter()
        .scan(0u64, |acc, t| {
            *acc += t.traffic_weight.max(1);
            Some(*acc)
        })
        .collect();
    let total_weight = cumulative.last().copied().unwrap_or(0);
    let draw = |rng: &mut StdRng| {
        let pick = rng.gen_range(0..total_weight);
        let t = cumulative.partition_point(|&c| c <= pick);
        let rank = samplers[t].sample(rng);
        // Per-tenant seed salt keeps the size assignment independent across
        // tenants sharing ranks.
        let size = sizes
            .size_for_key(rank, opts.seed ^ (t as u64).wrapping_mul(0x9E37_79B9))
            .max(1);
        (t, rank, size)
    };
    let requests = (opts.warmup_requests, opts.requests);
    replay_seats(n, opts.total_bytes, opts.seed, requests, balance, draw)
}

/// Runs the full experiment: every scenario, arbiter off and on.
pub fn tenant_experiment(opts: &TenantOptions) -> TenantResult {
    let points = opts
        .scenarios
        .iter()
        .map(|scenario| {
            let fixed = run_scenario(opts, scenario, false);
            let live = run_scenario(opts, scenario, true);
            let tenants = scenario
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| TenantOutcome {
                    name: t.name.clone(),
                    gets: live.gets[i],
                    static_hit_rate: fixed.hits[i] as f64 / fixed.gets[i].max(1) as f64,
                    arbitrated_hit_rate: live.hits[i] as f64 / live.gets[i].max(1) as f64,
                    arbitrated_budget_bytes: live.budgets[i],
                })
                .collect();
            TenantPoint {
                scenario: scenario.name.clone(),
                static_hit_rate: fixed.hit_rate(),
                arbitrated_hit_rate: live.hit_rate(),
                transfers: live.transfers,
                bytes_moved: live.bytes_moved,
                tenants,
            }
        })
        .collect();
    TenantResult {
        schema: TENANT_SCHEMA.to_string(),
        options: opts.clone(),
        points,
    }
}

impl TenantResult {
    /// The point of a named scenario, if measured.
    pub fn point(&self, scenario: &str) -> Option<&TenantPoint> {
        self.points.iter().find(|p| p.scenario == scenario)
    }

    /// Renders the result as a report table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Static reservations vs cross-tenant arbitration (fixed total memory)",
            &[
                "Scenario",
                "Tenant",
                "Static",
                "Arbitrated",
                "Won",
                "Final budget MB",
            ],
        );
        for p in &self.points {
            table.push_row(vec![
                p.scenario.clone(),
                "(total)".to_string(),
                Table::pct(p.static_hit_rate),
                Table::pct(p.arbitrated_hit_rate),
                format!(
                    "{:+.2}pp",
                    (p.arbitrated_hit_rate - p.static_hit_rate) * 100.0
                ),
                format!("{:.1}", self.options.total_bytes as f64 / (1 << 20) as f64),
            ]);
            for t in &p.tenants {
                table.push_row(vec![
                    String::new(),
                    t.name.clone(),
                    Table::pct(t.static_hit_rate),
                    Table::pct(t.arbitrated_hit_rate),
                    format!(
                        "{:+.2}pp",
                        (t.arbitrated_hit_rate - t.static_hit_rate) * 100.0
                    ),
                    format!("{:.1}", t.arbitrated_budget_bytes as f64 / (1 << 20) as f64),
                ]);
            }
        }
        table
    }

    /// Serialises to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("result serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbiter_beats_static_reservations_on_a_skewed_mix() {
        // A deliberately tiny run — the CI smoke job runs the real
        // assertion at TenantOptions::smoke() scale.
        let opts = TenantOptions {
            total_bytes: 4 << 20,
            requests: 120_000,
            warmup_requests: 60_000,
            scenarios: vec![TenantScenario {
                name: "skewed".to_string(),
                tenants: vec![
                    profile("heavy", 3, 30_000, 0.9),
                    profile("light", 1, 300, 0.9),
                ],
            }],
            ..TenantOptions::standard()
        };
        let result = tenant_experiment(&opts);
        let p = result.point("skewed").expect("scenario measured");
        assert!(p.transfers > 0, "skew must trigger tenant transfers");
        assert!(
            p.arbitrated_hit_rate > p.static_hit_rate,
            "the arbiter must beat static reservations on a skewed mix: \
             {:.4} vs {:.4}",
            p.arbitrated_hit_rate,
            p.static_hit_rate
        );
        // The heavy tenant ends with more than its even share.
        let heavy = &p.tenants[0];
        assert!(
            heavy.arbitrated_budget_bytes > (4 << 20) / 2,
            "budget should follow demand: {} bytes",
            heavy.arbitrated_budget_bytes
        );
        // The light tenant's tiny working set still fits after donating.
        let light = &p.tenants[1];
        assert!(
            light.arbitrated_hit_rate > 0.5,
            "the donor keeps serving its small working set: {:.4}",
            light.arbitrated_hit_rate
        );
    }

    #[test]
    fn balanced_mix_is_not_hurt_by_arbitration() {
        let opts = TenantOptions {
            total_bytes: 4 << 20,
            requests: 100_000,
            warmup_requests: 50_000,
            scenarios: vec![TenantScenario {
                name: "balanced".to_string(),
                tenants: vec![
                    profile("even-a", 1, 8_000, 0.9),
                    profile("even-b", 1, 8_000, 0.9),
                ],
            }],
            ..TenantOptions::standard()
        };
        let result = tenant_experiment(&opts);
        let p = result.point("balanced").unwrap();
        assert!(
            p.arbitrated_hit_rate >= p.static_hit_rate - 0.01,
            "balanced tenants must not lose to arbitration: {:.4} vs {:.4}",
            p.arbitrated_hit_rate,
            p.static_hit_rate
        );
    }

    #[test]
    fn table_and_json_round_trip() {
        let result = TenantResult {
            schema: TENANT_SCHEMA.to_string(),
            options: TenantOptions::smoke(),
            points: vec![TenantPoint {
                scenario: "skewed".to_string(),
                static_hit_rate: 0.61,
                arbitrated_hit_rate: 0.78,
                transfers: 40,
                bytes_moved: 9 << 20,
                tenants: vec![TenantOutcome {
                    name: "heavy".to_string(),
                    gets: 100_000,
                    static_hit_rate: 0.5,
                    arbitrated_hit_rate: 0.75,
                    arbitrated_budget_bytes: 24 << 20,
                }],
            }],
        };
        let table = result.table();
        assert_eq!(table.rows.len(), 2, "one total row + one tenant row");
        assert!(table.to_string().contains("78.0%"));
        let back: TenantResult = serde_json::from_str(&result.to_json()).unwrap();
        assert_eq!(back.points[0].transfers, 40);
        assert_eq!(back.schema, TENANT_SCHEMA);
        assert_eq!(back.points[0].tenants[0].name, "heavy");
    }
}
