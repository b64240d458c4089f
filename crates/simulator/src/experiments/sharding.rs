//! Hit rate vs shard count at fixed total memory (beyond-paper experiment).
//!
//! The server backend splits its memory across N independent Cliffhanger
//! shards. Each shard hill-climbs *within* its slice, but a static split
//! between slices re-creates the rigid-partition problem the paper exists
//! to fix: key-hash routing spreads *keys* evenly, yet the byte demand and
//! request pressure behind those keys is anything but even (Zipf popularity
//! concentrates traffic on a few ranks, heavy-tailed value sizes concentrate
//! bytes on a few keys), so some shards starve while others idle and the
//! total hit rate decays as N grows.
//!
//! This experiment quantifies that decay and what the cross-shard
//! rebalancer ([`cliffhanger::shard_balance`]) wins back: the same trace is
//! replayed against 1, 2, 4, 8 and 16 shards at a *fixed total budget*,
//! once with static per-shard budgets and once with periodic shadow-gradient
//! rebalancing, and the table reports total hit rate per point. The CI
//! `hit-rate-smoke` job runs the down-scaled [`ShardingOptions::smoke`]
//! variant and asserts the rebalancer never loses to the static split.

use crate::report::Table;
use cache_core::key::mix64;
use cache_core::Key;
use cliffhanger::{
    Cliffhanger, CliffhangerConfig, ShardBalanceConfig, ShardRebalancer, ShardSample,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use workloads::{KeyPopularity, SizeDistribution};

/// Knobs of the shard-count experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardingOptions {
    /// Fixed total memory, split across the shards of every point.
    pub total_bytes: u64,
    /// Shard counts to measure.
    pub shard_counts: Vec<usize>,
    /// Measured requests per point (after warm-up).
    pub requests: u64,
    /// Untimed warm-up requests per point.
    pub warmup_requests: u64,
    /// Key-universe size.
    pub num_keys: u64,
    /// Zipf exponent of the key popularity.
    pub zipf_exponent: f64,
    /// The hottest `hot_keys` ranks carry large values (think rendered
    /// fragments next to small session objects). Key-hash routing spreads
    /// the *count* of keys evenly, but these few heavy keys land unevenly,
    /// so the bytes they pin differ per shard — each shard's small-item
    /// tail then runs at a different point of the same concave hit-rate
    /// curve, which is exactly the imbalance gradient rebalancing can see
    /// and repair.
    pub hot_keys: u64,
    /// Smallest hot-value size in bytes.
    pub hot_min_bytes: u64,
    /// Largest hot-value size in bytes.
    pub hot_max_bytes: u64,
    /// Generalized-Pareto scale of the small tail-value sizes, in bytes.
    pub tail_scale: f64,
    /// Cap on the tail-value sizes, in bytes.
    pub tail_cap: u64,
    /// Requests between rebalancing rounds.
    pub interval_requests: u64,
    /// Base RNG seed (the trace is identical across points and modes).
    pub seed: u64,
}

impl ShardingOptions {
    /// The scale the committed experiment artifacts use: large enough for
    /// the decay and the recovery to be well clear of noise, small enough to
    /// run in tens of seconds.
    pub fn standard() -> Self {
        ShardingOptions {
            total_bytes: 32 << 20,
            shard_counts: vec![1, 2, 4, 8, 16],
            requests: 1_600_000,
            warmup_requests: 800_000,
            num_keys: 120_000,
            zipf_exponent: 0.9,
            hot_keys: 192,
            hot_min_bytes: 16 << 10,
            hot_max_bytes: 64 << 10,
            tail_scale: 214.476,
            tail_cap: 2 << 10,
            interval_requests: 4_096,
            seed: 0x5AAD_CAFE,
        }
    }

    /// A down-scaled variant for CI smoke runs and unit tests.
    pub fn smoke() -> Self {
        ShardingOptions {
            total_bytes: 8 << 20,
            shard_counts: vec![1, 4, 8],
            requests: 400_000,
            warmup_requests: 200_000,
            num_keys: 30_000,
            hot_keys: 48,
            ..ShardingOptions::standard()
        }
    }
}

/// One measured shard count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardingPoint {
    /// Number of shards.
    pub shards: usize,
    /// Total hit rate with static per-shard budgets (rebalancer off).
    pub static_hit_rate: f64,
    /// Total hit rate with the cross-shard rebalancer on.
    pub rebalanced_hit_rate: f64,
    /// Budget transfers the rebalancer applied.
    pub transfers: u64,
    /// Bytes the rebalancer moved.
    pub bytes_moved: u64,
}

/// The full experiment result (schema `cliffhanger-shard-experiment/v1`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardingResult {
    /// Schema tag.
    pub schema: String,
    /// The options the experiment ran with.
    pub options: ShardingOptions,
    /// One point per shard count.
    pub points: Vec<ShardingPoint>,
}

/// Schema tag for [`ShardingResult`].
pub const SHARDING_SCHEMA: &str = "cliffhanger-shard-experiment/v1";

/// What one [`replay_seats`] run measured.
pub(crate) struct SeatReplay {
    /// GETs per seat after warm-up.
    pub(crate) gets: Vec<u64>,
    /// Hits per seat after warm-up.
    pub(crate) hits: Vec<u64>,
    /// Final byte budget per seat.
    pub(crate) budgets: Vec<u64>,
    /// Budget transfers the balancer applied.
    pub(crate) transfers: u64,
    /// Bytes the balancer moved.
    pub(crate) bytes_moved: u64,
}

impl SeatReplay {
    /// Hit rate over every seat's measured GETs.
    pub(crate) fn hit_rate(&self) -> f64 {
        let gets: u64 = self.gets.iter().sum();
        self.hits.iter().sum::<u64>() as f64 / gets.max(1) as f64
    }
}

/// Replays `warmup + requests` requests against `seats` Cliffhanger engines
/// splitting `total_bytes` evenly — the shards of one cache, or its tenants.
/// `draw` picks each request's `(seat, rank, size)` from the one RNG seeded
/// with `seed`; a missed GET is filled. With a `balance` config (and more
/// than one seat) a [`ShardRebalancer`] round runs every
/// `interval_requests`, and each transfer is applied shrink-first and
/// counted only if applied.
pub(crate) fn replay_seats(
    seats: usize,
    total_bytes: u64,
    seed: u64,
    (warmup, requests): (u64, u64),
    balance: Option<ShardBalanceConfig>,
    mut draw: impl FnMut(&mut StdRng) -> (usize, u64, u64),
) -> SeatReplay {
    let share = (total_bytes / seats as u64).max(1);
    let mut caches: Vec<Cliffhanger<()>> = (0..seats)
        .map(|i| {
            let mut cfg = CliffhangerConfig::scaled_for(share);
            cfg.seed = seed.wrapping_add(i as u64);
            // The paper's 2% shadow:budget ratio leaves large-chunk classes
            // with one-entry shadow queues at sub-megabyte slices; widen it
            // so every class still produces a usable gradient (shadow queues
            // store keys only, so this stays cheap).
            cfg.hill_shadow_bytes = (share / 8).clamp(64 << 10, 1 << 20);
            Cliffhanger::new(cfg)
        })
        .collect();
    let mut balancer = balance
        .filter(|_| seats > 1)
        .map(|cfg| (cfg.interval_requests, ShardRebalancer::new(seats, cfg)));
    let mut out = SeatReplay {
        gets: vec![0; seats],
        hits: vec![0; seats],
        budgets: Vec::new(),
        transfers: 0,
        bytes_moved: 0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for r in 0..warmup + requests {
        let (seat, rank, size) = draw(&mut rng);
        let key = Key::new(rank);
        let hit = caches[seat]
            .get(key, size)
            .map(|(_, event)| event.hit)
            .unwrap_or(false);
        if !hit {
            caches[seat].set(key, size, ());
        }
        if r >= warmup {
            out.gets[seat] += 1;
            out.hits[seat] += hit as u64;
        }
        let Some((interval, balancer)) = balancer.as_mut() else {
            continue;
        };
        if (r + 1) % *interval == 0 {
            let samples: Vec<ShardSample> = caches
                .iter()
                .map(|c| ShardSample {
                    shadow_hits: c.stats().shadow_hits,
                    budget_bytes: c.total_bytes(),
                })
                .collect();
            for t in balancer.rebalance(&samples) {
                if caches[t.from].shrink_total(t.bytes) {
                    caches[t.to].grow_total(t.bytes);
                    out.transfers += 1;
                    out.bytes_moved += t.bytes;
                }
            }
        }
    }
    out.budgets = caches.iter().map(|c| c.total_bytes()).collect();
    debug_assert_eq!(
        out.budgets.iter().sum::<u64>(),
        share * seats as u64,
        "balancing must conserve the fixed total budget"
    );
    out
}

/// Replays the trace against `shards` Cliffhanger instances sharing
/// `opts.total_bytes`, with or without cross-shard rebalancing: a Zipf rank,
/// routed by a second mix of the key id, with a hot or tail value size.
fn run_point(opts: &ShardingOptions, shards: usize, rebalance: bool) -> SeatReplay {
    let balance = rebalance.then(|| ShardBalanceConfig {
        interval_requests: opts.interval_requests,
        ..ShardBalanceConfig::scaled_for(opts.total_bytes, shards)
    });
    let sampler = KeyPopularity::Zipf {
        num_keys: opts.num_keys,
        exponent: opts.zipf_exponent,
    }
    .sampler();
    // The hottest ranks carry large values; everything else is a small
    // ETC-like object. Both assignments are deterministic per key.
    let hot_sizes = SizeDistribution::Uniform {
        min: opts.hot_min_bytes,
        max: opts.hot_max_bytes,
    };
    let tail_sizes = SizeDistribution::GeneralizedPareto {
        location: 0.0,
        scale: opts.tail_scale,
        shape: 0.348_468,
        cap: opts.tail_cap,
    };
    let draw = |rng: &mut StdRng| {
        let rank = sampler.sample(rng);
        let sizes = if rank < opts.hot_keys {
            &hot_sizes
        } else {
            &tail_sizes
        };
        // Same routing as the server backend: a second mix of the key id,
        // decorrelated from the bits the engines hash internally.
        let shard = (mix64(rank) % shards as u64) as usize;
        (shard, rank, sizes.size_for_key(rank, opts.seed).max(1))
    };
    let requests = (opts.warmup_requests, opts.requests);
    replay_seats(shards, opts.total_bytes, opts.seed, requests, balance, draw)
}

/// Runs the full experiment: every shard count, rebalancer off and on.
pub fn shard_count_experiment(opts: &ShardingOptions) -> ShardingResult {
    let points = opts
        .shard_counts
        .iter()
        .map(|&shards| {
            let fixed = run_point(opts, shards, false);
            let live = run_point(opts, shards, true);
            ShardingPoint {
                shards,
                static_hit_rate: fixed.hit_rate(),
                rebalanced_hit_rate: live.hit_rate(),
                transfers: live.transfers,
                bytes_moved: live.bytes_moved,
            }
        })
        .collect();
    ShardingResult {
        schema: SHARDING_SCHEMA.to_string(),
        options: opts.clone(),
        points,
    }
}

impl ShardingResult {
    /// The hit rate of the 1-shard point (the unsharded controller), if the
    /// experiment measured one. Rebalancing is a no-op at one shard, so
    /// either column works; the static one is used.
    pub fn unsharded_hit_rate(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.shards == 1)
            .map(|p| p.static_hit_rate)
    }

    /// Renders the result as a report table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Hit rate vs shard count (fixed total memory)",
            &[
                "Shards",
                "Static split",
                "Rebalanced",
                "Recovered",
                "Transfers",
                "MB moved",
            ],
        );
        let baseline = self.unsharded_hit_rate();
        for p in &self.points {
            let recovered = match baseline {
                // How much of the sharding-induced loss the rebalancer won
                // back, as points of hit rate.
                Some(_) => format!(
                    "{:+.2}pp",
                    (p.rebalanced_hit_rate - p.static_hit_rate) * 100.0
                ),
                None => "-".to_string(),
            };
            table.push_row(vec![
                p.shards.to_string(),
                Table::pct(p.static_hit_rate),
                Table::pct(p.rebalanced_hit_rate),
                recovered,
                p.transfers.to_string(),
                format!("{:.1}", p.bytes_moved as f64 / (1 << 20) as f64),
            ]);
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
    fn rebalancer_recovers_hit_rate_lost_to_sharding() {
        // A deliberately tiny run — the CI smoke job runs the real assertion
        // at ShardingOptions::smoke() scale.
        let opts = ShardingOptions {
            total_bytes: 4 << 20,
            shard_counts: vec![1, 4],
            requests: 80_000,
            warmup_requests: 40_000,
            num_keys: 8_000,
            ..ShardingOptions::standard()
        };
        let result = shard_count_experiment(&opts);
        assert_eq!(result.points.len(), 2);
        let one = &result.points[0];
        assert_eq!(one.shards, 1);
        assert!(one.static_hit_rate > 0.2, "sane baseline hit rate");
        assert_eq!(one.transfers, 0, "single shard cannot rebalance");
        let four = &result.points[1];
        assert!(four.transfers > 0, "imbalance must trigger transfers");
        assert!(
            four.rebalanced_hit_rate + 1e-9 >= four.static_hit_rate,
            "rebalancing must not lose to the static split: {:.4} vs {:.4}",
            four.rebalanced_hit_rate,
            four.static_hit_rate
        );
        assert_eq!(result.unsharded_hit_rate(), Some(one.static_hit_rate));
    }

    #[test]
    fn table_and_json_round_trip() {
        let result = ShardingResult {
            schema: SHARDING_SCHEMA.to_string(),
            options: ShardingOptions::smoke(),
            points: vec![ShardingPoint {
                shards: 4,
                static_hit_rate: 0.71,
                rebalanced_hit_rate: 0.74,
                transfers: 12,
                bytes_moved: 3 << 20,
            }],
        };
        let table = result.table();
        assert_eq!(table.rows.len(), 1);
        assert!(table.to_string().contains("74.0%"));
        let back: ShardingResult = serde_json::from_str(&result.to_json()).unwrap();
        assert_eq!(back.points[0].transfers, 12);
        assert_eq!(back.schema, SHARDING_SCHEMA);
    }
}
