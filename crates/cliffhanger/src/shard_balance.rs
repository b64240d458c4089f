//! Cross-shard hill climbing (extension).
//!
//! Sharding a Cliffhanger server into N independent instances, each with
//! 1/N of the memory, quietly reintroduces the static-partition problem the
//! paper exists to fix: every shard hill-climbs *within* its slice, but no
//! memory ever moves *between* slices, so a shard whose keys happen to be
//! hot (or large) is starved while an idle shard hoards budget. The same
//! observation drives the paper's §4.1 remark that the "queues" Cliffhanger
//! optimises can be slab classes *or entire applications* — and, here,
//! entire shards. The same holds one level further up: applications sharing
//! a server behind static reservations (the paper's §3 Memcachier analysis)
//! are one more set of queues, so the server seats its *tenants* in a second
//! [`ShardRebalancer`] — with the coarser
//! [`ShardBalanceConfig::tenant_default`] knobs — and calls it the arbiter.
//!
//! [`ShardRebalancer`] closes the loop with the identical gradient signal:
//! every shard's long shadow queues already count the requests that *would*
//! have hit with a little more memory ([`cache_core::CacheStats::shadow_hits`]),
//! and the per-interval delta of that counter is exactly the
//! frequency-weighted marginal utility `f_i · h_i'(m_i)` of Algorithm 1.
//! Periodically the rebalancer compares those deltas and proposes moving a
//! fixed credit of budget from the shard with the flattest gradient to the
//! shard with the steepest one, so the sharded server's total hit rate
//! converges toward the unsharded controller instead of degrading with N.
//!
//! The rebalancer is pure decision logic: it never touches a cache. The
//! host (the server backend or the simulator) feeds it cumulative counter
//! [`ShardSample`]s and applies the returned [`ShardTransfer`]s via
//! [`crate::Cliffhanger::shrink_total`] / [`crate::Cliffhanger::grow_total`],
//! which keeps it trivially testable and lock-free.

use crate::config::ShardBalanceConfig;
use serde::{Deserialize, Serialize};

/// Exponential smoothing factor applied to the per-interval shadow-hit
/// deltas. One interval's delta is a noisy gradient estimate; transfers
/// that chase it evict real items on the donor, so the rebalancer follows
/// the smoothed demand instead.
const SMOOTHING: f64 = 0.25;

/// One seat's (shard's, or tenant's) cumulative counters and current
/// budget, as observed by the host at the start of a rebalancing round.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ShardSample {
    /// Cumulative hill-climbing shadow-queue hits of the seat's engines.
    pub shadow_hits: u64,
    /// The seat's current byte budget.
    pub budget_bytes: u64,
}

/// A proposed budget move between two seats, with the evidence for it:
/// the gradients exist only here, at proposal time, and a flight recorder
/// wants them alongside the transfer it goes on to apply.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardTransfer {
    /// Index giving up budget.
    pub from: usize,
    /// Index receiving budget.
    pub to: usize,
    /// Bytes to move.
    pub bytes: u64,
    /// The donor's bias-corrected smoothed shadow-hit gradient.
    pub from_gradient: f64,
    /// The receiver's bias-corrected smoothed shadow-hit gradient.
    pub to_gradient: f64,
}

/// The cross-shard hill climber.
///
/// Stateful only in the cheapest possible way: it remembers the previous
/// cumulative counters so each round works on per-interval deltas, plus a
/// few diagnostic counters.
#[derive(Debug, Clone)]
pub struct ShardRebalancer {
    config: ShardBalanceConfig,
    /// Cumulative shadow-hit counters at the previous round, per shard.
    last: Option<Vec<u64>>,
    /// Exponentially smoothed per-interval shadow-hit deltas, per shard.
    smoothed: Vec<f64>,
    /// Rounds folded into `smoothed` since the last baseline (for EWMA
    /// start-up bias correction).
    observations: u64,
    rounds: u64,
}

impl ShardRebalancer {
    /// Creates a rebalancer for `shards` shards.
    ///
    /// The shard count is only advisory (samples carry the authoritative
    /// length); it seeds the delta baseline so the very first round after a
    /// cold start is a clean observation, not a huge spurious delta.
    pub fn new(shards: usize, config: ShardBalanceConfig) -> Self {
        config.validate();
        ShardRebalancer {
            config,
            last: None,
            smoothed: vec![0.0; shards],
            observations: 0,
            rounds: 0,
        }
    }

    /// The configuration this rebalancer runs with.
    pub fn config(&self) -> &ShardBalanceConfig {
        &self.config
    }

    /// Forgets the counter baseline and smoothed gradients (after a
    /// `flush_all` the cumulative counters restart from zero, which would
    /// otherwise read as a huge negative delta).
    pub fn reset(&mut self) {
        self.last = None;
        self.smoothed.iter_mut().for_each(|g| *g = 0.0);
        self.observations = 0;
    }

    /// Number of rebalancing rounds observed (including no-op rounds).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Runs one rebalancing round over the shards' cumulative samples and
    /// returns the proposed budget moves.
    ///
    /// Invariants, by construction:
    /// * every transfer moves the same number of bytes out of `from` as into
    ///   `to`, so the summed budget is conserved no matter how many of the
    ///   proposals the host ends up applying;
    /// * no proposal takes a donor below
    ///   [`ShardBalanceConfig::min_shard_bytes`];
    /// * a round with uniform gradients (all deltas within
    ///   [`ShardBalanceConfig::min_gradient_gap`] and the relative
    ///   [`ShardBalanceConfig::hysteresis`] band) proposes nothing.
    ///
    /// The first round (or the first after [`ShardRebalancer::reset`], or a
    /// shard-count change) only records the baseline and proposes nothing.
    pub fn rebalance(&mut self, samples: &[ShardSample]) -> Vec<ShardTransfer> {
        self.rounds += 1;
        let current: Vec<u64> = samples.iter().map(|s| s.shadow_hits).collect();
        let Some(last) = self.last.replace(current) else {
            self.smoothed = vec![0.0; samples.len()];
            self.observations = 0;
            return Vec::new();
        };
        if last.len() != samples.len() || samples.len() < 2 {
            self.smoothed = vec![0.0; samples.len()];
            self.observations = 0;
            return Vec::new();
        }
        // A cumulative counter running backwards means the engines were
        // rebuilt (flush) without [`ShardRebalancer::reset`]; re-baseline
        // instead of acting on fabricated deltas.
        if samples
            .iter()
            .zip(&last)
            .any(|(s, &prev_shadow)| s.shadow_hits < prev_shadow)
        {
            self.smoothed = vec![0.0; samples.len()];
            self.observations = 0;
            return Vec::new();
        }
        // Per-interval shadow-hit deltas — the frequency-weighted gradient —
        // folded into an exponential moving average so one noisy interval
        // cannot trigger churny transfers. The `1 - (1-α)^k` divisor is the
        // standard start-up bias correction: without it the first rounds
        // after a baseline compare artificially damped gradients against
        // full-scale thresholds and sit on their hands.
        let alpha = SMOOTHING;
        for (g, (s, &prev_shadow)) in self.smoothed.iter_mut().zip(samples.iter().zip(&last)) {
            let delta = (s.shadow_hits - prev_shadow) as f64;
            *g = alpha * delta + (1.0 - alpha) * *g;
        }
        self.observations += 1;
        let correction = 1.0 - (1.0 - alpha).powi(self.observations.min(1_000) as i32);
        let gradients: Vec<f64> = self.smoothed.iter().map(|g| g / correction).collect();

        // Rank shards by gradient and pair the steepest with the flattest,
        // the second-steepest with the second-flattest, and so on — at most
        // `max_transfers_per_round` pairs, and only while the pair's gap
        // clears both the absolute and the relative (hysteresis) bars.
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.sort_by(|&a, &b| {
            gradients[b]
                .partial_cmp(&gradients[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut transfers = Vec::new();
        let mut budgets: Vec<u64> = samples.iter().map(|s| s.budget_bytes).collect();
        let pairs = self
            .config
            .max_transfers_per_round
            .min(samples.len() / 2)
            .max(1);
        for k in 0..pairs {
            let winner = order[k];
            let loser = order[samples.len() - 1 - k];
            if winner == loser {
                break;
            }
            let (hot, cold) = (gradients[winner], gradients[loser]);
            if hot - cold < self.config.min_gradient_gap.max(1) as f64 {
                break;
            }
            if hot < cold * (1.0 + self.config.hysteresis) {
                break;
            }
            let bytes = self.config.credit_bytes;
            let affordable =
                budgets[loser] >= bytes && budgets[loser] - bytes >= self.config.min_shard_bytes;
            if !affordable {
                continue;
            }
            budgets[loser] -= bytes;
            budgets[winner] += bytes;
            transfers.push(ShardTransfer {
                from: loser,
                to: winner,
                bytes,
                from_gradient: gradients[loser],
                to_gradient: gradients[winner],
            });
        }
        transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ShardBalanceConfig {
        ShardBalanceConfig {
            credit_bytes: 1 << 20,
            min_shard_bytes: 4 << 20,
            min_gradient_gap: 8,
            hysteresis: 0.2,
            max_transfers_per_round: 2,
            ..ShardBalanceConfig::default()
        }
    }

    fn samples(shadow: &[u64], budget: u64) -> Vec<ShardSample> {
        shadow
            .iter()
            .map(|&shadow_hits| ShardSample {
                shadow_hits,
                budget_bytes: budget,
            })
            .collect()
    }

    /// Runs a baseline round (which must propose nothing) so the next round
    /// observes real deltas.
    fn warmed(config: ShardBalanceConfig, shards: usize) -> ShardRebalancer {
        let mut r = ShardRebalancer::new(shards, config);
        assert!(r.rebalance(&samples(&vec![0; shards], 16 << 20)).is_empty());
        r
    }

    #[test]
    fn first_round_records_baseline_only() {
        let mut r = ShardRebalancer::new(4, config());
        let t = r.rebalance(&samples(&[1_000, 0, 0, 0], 16 << 20));
        assert!(t.is_empty(), "no deltas on the first observation");
        assert_eq!(r.rounds(), 1);
    }

    #[test]
    fn budget_moves_toward_the_steepest_gradient_and_conserves_total() {
        let mut r = warmed(config(), 4);
        let s = samples(&[900, 10, 15, 5], 16 << 20);
        let total_before: u64 = s.iter().map(|x| x.budget_bytes).sum();
        let transfers = r.rebalance(&s);
        assert!(!transfers.is_empty());
        assert_eq!(transfers[0].to, 0, "shard 0 has the steep gradient");
        assert_eq!(transfers[0].from, 3, "shard 3 has the flattest gradient");
        // Conservation: apply every transfer to a budget vector and compare.
        let mut budgets: Vec<u64> = s.iter().map(|x| x.budget_bytes).collect();
        for t in &transfers {
            budgets[t.from] -= t.bytes;
            budgets[t.to] += t.bytes;
        }
        assert_eq!(budgets.iter().sum::<u64>(), total_before);
    }

    #[test]
    fn uniform_gradients_are_a_noop() {
        let mut r = warmed(config(), 4);
        let t = r.rebalance(&samples(&[500, 500, 500, 500], 16 << 20));
        assert!(t.is_empty(), "uniform demand must move nothing: {t:?}");
        // Near-uniform inside the hysteresis band is also a no-op.
        let t = r.rebalance(&samples(&[1_050, 1_000, 1_020, 1_010], 16 << 20));
        assert!(t.is_empty(), "gradients within hysteresis: {t:?}");
    }

    #[test]
    fn donors_are_never_taken_below_the_floor() {
        let cfg = config();
        let mut r = warmed(cfg.clone(), 2);
        // The cold shard sits exactly at floor + one credit: it can afford
        // one transfer and then never again.
        let mut budgets = [16u64 << 20, cfg.min_shard_bytes + cfg.credit_bytes];
        let mut shadow = [0u64, 0];
        for round in 1..=5u64 {
            shadow[0] += 1_000 * round;
            let s: Vec<ShardSample> = (0..2)
                .map(|i| ShardSample {
                    shadow_hits: shadow[i],
                    budget_bytes: budgets[i],
                })
                .collect();
            for t in r.rebalance(&s) {
                budgets[t.from] -= t.bytes;
                budgets[t.to] += t.bytes;
            }
        }
        assert_eq!(budgets[1], cfg.min_shard_bytes, "donor pinned at floor");
        assert_eq!(
            budgets[0] + budgets[1],
            (16 << 20) + cfg.min_shard_bytes + cfg.credit_bytes
        );
    }

    #[test]
    fn multiple_pairs_transfer_in_one_round() {
        let mut r = warmed(config(), 4);
        let t = r.rebalance(&samples(&[2_000, 1_500, 20, 10], 32 << 20));
        assert_eq!(t.len(), 2, "two hot / two cold shards pair off: {t:?}");
        assert_eq!((t[0].to, t[0].from), (0, 3));
        assert_eq!((t[1].to, t[1].from), (1, 2));
    }

    #[test]
    fn counter_reset_is_tolerated() {
        let mut r = warmed(config(), 2);
        let t = r.rebalance(&samples(&[5_000, 10], 16 << 20));
        assert!(!t.is_empty());
        // flush_all: cumulative counters restart below the remembered values.
        let t = r.rebalance(&samples(&[10, 5], 16 << 20));
        assert!(t.is_empty(), "a backwards counter re-baselines the round");
    }

    #[test]
    fn reset_reestablishes_the_baseline() {
        let mut r = warmed(config(), 2);
        r.reset();
        let t = r.rebalance(&samples(&[9_000, 0], 16 << 20));
        assert!(t.is_empty(), "first round after reset only observes");
        let t = r.rebalance(&samples(&[18_000, 0], 16 << 20));
        assert!(!t.is_empty());
    }

    #[test]
    fn shard_count_change_rebaselines() {
        let mut r = warmed(config(), 2);
        let t = r.rebalance(&samples(&[4_000, 0, 0, 0], 16 << 20));
        assert!(t.is_empty(), "length change must not fabricate deltas");
        let t = r.rebalance(&samples(&[9_000, 0, 0, 0], 16 << 20));
        assert!(!t.is_empty(), "second round at the new width works");
    }

    #[test]
    fn single_shard_is_inert() {
        let mut r = warmed(config(), 1);
        assert!(r.rebalance(&samples(&[10_000], 16 << 20)).is_empty());
    }

    #[test]
    fn each_transfer_carries_the_gradients_that_justified_it() {
        let mut r = warmed(config(), 4);
        let transfers = r.rebalance(&samples(&[2_000, 1_500, 20, 10], 32 << 20));
        assert_eq!(transfers.len(), 2);
        for t in &transfers {
            assert!(
                t.to_gradient > t.from_gradient,
                "budget must move up-gradient: {t:?}"
            );
        }
    }
}
