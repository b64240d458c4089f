//! Cliffhanger configuration.
//!
//! Defaults follow the paper's §5.1 and §5.3: 1 MB hill-climbing shadow
//! queues, 128-item cliff-scaling shadow queues, 1–4 KB credits, and cliff
//! scaling only on queues larger than 1000 items.

use cache_core::{PolicyKind, SlabConfig};
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::Cliffhanger`] cache.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CliffhangerConfig {
    /// Slab-class geometry shared with the rest of the system.
    pub slab: SlabConfig,
    /// Total memory available to the application on this server, in bytes.
    pub total_bytes: u64,
    /// Eviction policy of the physical queues (LRU by default; the Facebook
    /// scheme and others compose with Cliffhanger, §5.5).
    pub policy: PolicyKind,
    /// Credit granted/removed per shadow-queue hit, in bytes (1–4 KB, §5.3).
    pub credit_bytes: u64,
    /// Size of the hill-climbing shadow queue per class, expressed in bytes
    /// of simulated requests (1 MB, §5.3); entry counts are derived from the
    /// class chunk size.
    pub hill_shadow_bytes: u64,
    /// Size of each cliff-scaling shadow queue / physical tail region, in
    /// items (128, §5.1).
    pub cliff_shadow_items: usize,
    /// Cliff scaling only runs on queues with at least this many items
    /// (1000, §5.1).
    pub cliff_min_items: u64,
    /// Whether Algorithm 1 (hill climbing across queues) runs.
    pub enable_hill_climbing: bool,
    /// Whether Algorithms 2–3 (cliff scaling within a queue) run.
    pub enable_cliff_scaling: bool,
    /// Floor below which hill climbing will not shrink a class, in bytes.
    pub min_class_bytes: u64,
    /// Seed for the random "loser" selection in Algorithm 1 (deterministic
    /// runs for experiments).
    pub seed: u64,
}

impl Default for CliffhangerConfig {
    fn default() -> Self {
        CliffhangerConfig {
            slab: SlabConfig::default(),
            total_bytes: 64 << 20,
            policy: PolicyKind::Lru,
            credit_bytes: 4 << 10,
            hill_shadow_bytes: 1 << 20,
            cliff_shadow_items: 128,
            cliff_min_items: 1_000,
            enable_hill_climbing: true,
            enable_cliff_scaling: true,
            min_class_bytes: 64 << 10,
            seed: 0xC11F_F00D,
        }
    }
}

impl CliffhangerConfig {
    /// A configuration with the given memory budget and defaults elsewhere.
    pub fn with_total_bytes(total_bytes: u64) -> Self {
        CliffhangerConfig {
            total_bytes,
            ..CliffhangerConfig::default()
        }
    }

    /// A configuration whose shadow-queue and credit sizes are scaled to the
    /// memory budget, preserving the paper's *ratios* (1 MB shadow queues
    /// and 1–4 KB credits against 50 MB-plus applications) when the budget
    /// is much smaller than a production reservation. Simulation at reduced
    /// scale uses this constructor; at 50 MB and above it coincides with the
    /// paper's constants.
    pub fn scaled_for(total_bytes: u64) -> Self {
        let defaults = CliffhangerConfig::default();
        // 1 MB per 50 MB of reservation, never below 16 KB or above 1 MB.
        let hill_shadow_bytes = (total_bytes / 50).clamp(16 << 10, 1 << 20);
        // 4 KB per 50 MB of reservation, never below 256 B or above 4 KB.
        let credit_bytes = (total_bytes / 12_800).clamp(256, 4 << 10);
        // Keep the floor proportional too so small reservations stay mobile.
        let min_class_bytes = (total_bytes / 1_024).clamp(1 << 10, 64 << 10);
        // The cliff shadows bound how *deep* a cliff the pointers can see:
        // a cyclically-scanned key is only observed if it is re-referenced
        // within `cliff_shadow_items` evictions, so a fixed 128 caps
        // detection at a ~2% overshoot on multi-thousand-item queues. Scale
        // the window with the reservation (~1 entry per 8 KB) so the
        // detectable overshoot stays a constant fraction of the queue.
        let cliff_shadow_items = (total_bytes / (8 << 10)).clamp(128, 2_048) as usize;
        CliffhangerConfig {
            total_bytes,
            hill_shadow_bytes,
            credit_bytes,
            min_class_bytes,
            cliff_shadow_items,
            ..defaults
        }
    }

    /// Disables hill climbing (the cliff-scaling-only ablation of Table 4).
    pub fn cliff_scaling_only(mut self) -> Self {
        self.enable_cliff_scaling = true;
        self.enable_hill_climbing = false;
        self
    }

    /// Charge per item in a class: chunk size plus fixed item overhead.
    pub fn charge_per_item(&self, class: cache_core::ClassId) -> u64 {
        self.slab.chunk_size(class) + cache_core::ITEM_OVERHEAD
    }

    /// Hill-climbing shadow-queue capacity, in entries, for a class.
    pub fn hill_shadow_entries(&self, class: cache_core::ClassId) -> usize {
        if self.hill_shadow_bytes == 0 {
            return 0;
        }
        (self.hill_shadow_bytes / self.slab.chunk_size(class)).max(1) as usize
    }

    /// Credit size in items for a class (at least one item).
    pub fn credit_items(&self, class: cache_core::ClassId) -> u64 {
        (self.credit_bytes / self.charge_per_item(class)).max(1)
    }

    /// Validates the configuration, panicking on nonsensical values.
    pub fn validate(&self) {
        assert!(self.total_bytes > 0, "total_bytes must be positive");
        assert!(self.credit_bytes > 0, "credit_bytes must be positive");
        assert!(
            self.cliff_shadow_items > 0,
            "cliff_shadow_items must be positive"
        );
    }
}

/// Configuration of the gradient balancer
/// ([`crate::shard_balance::ShardRebalancer`]), whichever queues sit in its
/// seats: a server's shards ([`ShardBalanceConfig::default`],
/// [`ShardBalanceConfig::scaled_for`]) or the applications sharing it
/// ([`ShardBalanceConfig::tenant_default`],
/// [`ShardBalanceConfig::scaled_for_tenants`]).
///
/// The defaults follow the same shape as Algorithm 1's knobs, one level up:
/// a small fixed credit moved per decision, a floor that keeps every shard's
/// shadow queues alive, and an observation interval long enough for the
/// shadow-hit deltas to dominate sampling noise.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardBalanceConfig {
    /// Whether cross-shard rebalancing runs at all.
    pub enabled: bool,
    /// How many wire requests between rebalancing rounds (the host counts).
    pub interval_requests: u64,
    /// Budget moved per transfer, in bytes. Like the per-class credit, small
    /// relative to a shard's budget so the walk stays incremental.
    pub credit_bytes: u64,
    /// Floor below which no shard's (or tenant's) budget is shrunk. A seat
    /// at the floor can still climb back: its shadow queues keep observing
    /// demand.
    pub min_shard_bytes: u64,
    /// Minimum absolute shadow-hit-delta gap between a winner and a donor
    /// before a transfer happens (absorbs counting noise near uniformity).
    pub min_gradient_gap: u64,
    /// Relative band on top of `min_gradient_gap`: the winner's delta must
    /// exceed the donor's by this fraction (0.2 = 20%) before budget moves.
    pub hysteresis: f64,
    /// At most this many winner/donor pairs transfer per round.
    pub max_transfers_per_round: usize,
}

impl Default for ShardBalanceConfig {
    fn default() -> Self {
        ShardBalanceConfig {
            enabled: true,
            interval_requests: 4_096,
            credit_bytes: 256 << 10,
            min_shard_bytes: 1 << 20,
            min_gradient_gap: 4,
            hysteresis: 0.05,
            max_transfers_per_round: 4,
        }
    }
}

impl ShardBalanceConfig {
    /// A disabled configuration: static per-shard budgets, or — in the
    /// tenant seat — Memcachier's static reservations.
    pub fn disabled() -> Self {
        ShardBalanceConfig {
            enabled: false,
            ..ShardBalanceConfig::default()
        }
    }

    /// A configuration whose credit and floor are scaled to the per-shard
    /// budget, mirroring [`CliffhangerConfig::scaled_for`]: experiments at
    /// reduced scale keep the paper's *ratios* instead of its absolute
    /// constants.
    pub fn scaled_for(total_bytes: u64, shards: usize) -> Self {
        let shard_bytes = total_bytes / shards.max(1) as u64;
        // Move ~1/64 of a shard's budget per decision, never below 16 KB or
        // above the 256 KB default.
        let credit_bytes = (shard_bytes / 64).clamp(16 << 10, 256 << 10);
        // Keep every shard at least an eighth of its even share.
        let min_shard_bytes = (shard_bytes / 8).max(64 << 10);
        ShardBalanceConfig {
            credit_bytes,
            min_shard_bytes,
            ..ShardBalanceConfig::default()
        }
    }

    /// The defaults with whole applications in the seats (the paper's §4.1
    /// "queue of an entire application" reading). Tenant moves are rarer
    /// and chunkier than shard moves — an application's demand shifts on
    /// minutes, not thousands of requests — so the interval is longer and
    /// the credit larger; and the gap and band are deliberately wider:
    /// identically-loaded tenants produce shadow-hit deltas that differ
    /// only by sampling noise, and every transfer evicts real items from
    /// the donor, so balanced tenants must not trade budget back and forth
    /// on that noise, while a genuinely starved tenant clears both within a
    /// few intervals.
    pub fn tenant_default() -> Self {
        ShardBalanceConfig {
            interval_requests: 8_192,
            credit_bytes: 512 << 10,
            min_gradient_gap: 32,
            hysteresis: 0.2,
            max_transfers_per_round: 2,
            ..ShardBalanceConfig::default()
        }
    }

    /// [`ShardBalanceConfig::tenant_default`] with credit and floor scaled
    /// to the per-tenant share, as [`ShardBalanceConfig::scaled_for`] does
    /// per shard.
    pub fn scaled_for_tenants(total_bytes: u64, tenants: usize) -> Self {
        let tenant_bytes = total_bytes / tenants.max(1) as u64;
        // Move ~1/32 of a tenant's share per decision; tenant-level demand
        // shifts are coarse, so the walk can take bigger steps than the
        // per-shard one without churning.
        let credit_bytes = (tenant_bytes / 32).clamp(16 << 10, 512 << 10);
        // Keep every tenant at least an eighth of its even share.
        let min_shard_bytes = (tenant_bytes / 8).max(64 << 10);
        ShardBalanceConfig {
            credit_bytes,
            min_shard_bytes,
            ..ShardBalanceConfig::tenant_default()
        }
    }

    /// Validates the configuration, panicking on nonsensical values.
    pub fn validate(&self) {
        assert!(self.credit_bytes > 0, "credit_bytes must be positive");
        assert!(
            self.interval_requests > 0,
            "interval_requests must be positive"
        );
        assert!(self.hysteresis >= 0.0, "hysteresis must be non-negative");
        assert!(
            self.max_transfers_per_round > 0,
            "max_transfers_per_round must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_core::ClassId;

    #[test]
    fn defaults_match_the_paper() {
        let c = CliffhangerConfig::default();
        assert_eq!(c.credit_bytes, 4 << 10);
        assert_eq!(c.hill_shadow_bytes, 1 << 20);
        assert_eq!(c.cliff_shadow_items, 128);
        assert_eq!(c.cliff_min_items, 1_000);
        assert!(c.enable_hill_climbing && c.enable_cliff_scaling);
        c.validate();
    }

    #[test]
    fn shadow_entries_follow_the_papers_example() {
        // §5.7: with a 64-byte slab class the 1 MB shadow queue stores 16384
        // keys; with a 1 KB class it stores 1024.
        let c = CliffhangerConfig::default();
        let class64 = c.slab.class_for_size(64).unwrap();
        assert_eq!(c.hill_shadow_entries(class64), 16_384);
        let class1k = c.slab.class_for_size(1_024).unwrap();
        assert_eq!(c.hill_shadow_entries(class1k), 1_024);
    }

    #[test]
    fn credit_items_at_least_one() {
        let c = CliffhangerConfig::default();
        // 4 KB credits on a 1 MB chunk class still move at least one item.
        let big = ClassId::new((c.slab.num_classes() - 1) as u32);
        assert_eq!(c.credit_items(big), 1);
        // On a 64-byte class a 4 KB credit is dozens of items.
        let small = c.slab.class_for_size(64).unwrap();
        assert!(c.credit_items(small) > 30);
    }

    #[test]
    fn ablation_helpers_toggle_flags() {
        let cs = CliffhangerConfig::default().cliff_scaling_only();
        assert!(!cs.enable_hill_climbing && cs.enable_cliff_scaling);
    }

    #[test]
    #[should_panic(expected = "credit_bytes")]
    fn zero_credit_rejected() {
        let c = CliffhangerConfig {
            credit_bytes: 0,
            ..CliffhangerConfig::default()
        };
        c.validate();
    }

    #[test]
    fn shard_balance_defaults_and_scaling() {
        let c = ShardBalanceConfig::default();
        assert!(c.enabled);
        c.validate();
        assert!(!ShardBalanceConfig::disabled().enabled);
        // 64 MB over 8 shards: 8 MB/shard => 128 KB credits, 1 MB floor.
        let scaled = ShardBalanceConfig::scaled_for(64 << 20, 8);
        assert_eq!(scaled.credit_bytes, 128 << 10);
        assert_eq!(scaled.min_shard_bytes, 1 << 20);
        scaled.validate();
        // Tiny budgets stay above the clamps and below the shard share.
        let tiny = ShardBalanceConfig::scaled_for(4 << 20, 16);
        assert_eq!(tiny.credit_bytes, 16 << 10);
        assert!(tiny.min_shard_bytes <= (4 << 20) / 16);
    }

    #[test]
    #[should_panic(expected = "interval_requests")]
    fn zero_interval_rejected() {
        let c = ShardBalanceConfig {
            interval_requests: 0,
            ..ShardBalanceConfig::default()
        };
        c.validate();
    }

    #[test]
    fn tenant_defaults_and_scaling() {
        let c = ShardBalanceConfig::tenant_default();
        assert!(c.enabled);
        c.validate();
        assert_eq!((c.interval_requests, c.credit_bytes), (8_192, 512 << 10));
        assert_eq!(c.min_shard_bytes, 1 << 20);
        // 64 MB over 2 tenants: 32 MB/tenant => 512 KB credits (cap), 4 MB floor.
        let scaled = ShardBalanceConfig::scaled_for_tenants(64 << 20, 2);
        assert_eq!(scaled.credit_bytes, 512 << 10);
        assert_eq!(scaled.min_shard_bytes, 4 << 20);
        assert_eq!(scaled.min_gradient_gap, c.min_gradient_gap);
        scaled.validate();
        let tiny = ShardBalanceConfig::scaled_for_tenants(2 << 20, 4);
        assert_eq!(tiny.credit_bytes, 16 << 10);
        assert!(tiny.min_shard_bytes <= (2 << 20) / 4);
    }

    #[test]
    #[should_panic(expected = "credit_bytes")]
    fn zero_balance_credit_rejected() {
        let c = ShardBalanceConfig {
            credit_bytes: 0,
            ..ShardBalanceConfig::tenant_default()
        };
        c.validate();
    }
}
