//! One module per table / figure of the paper's evaluation.
//!
//! Every experiment consumes an [`ExperimentContext`] (the generated
//! Memcachier-like trace split per application) and produces a
//! [`crate::report::Table`] or [`crate::report::FigureSeries`]. The
//! `paper_tables` / `paper_figures` binaries in the `bench` crate print them.
//!
//! | Paper artefact | Module | Function |
//! |---|---|---|
//! | Figure 1, Figure 3 | [`curves`] | [`curves::hit_rate_curve_figure`] |
//! | Figure 4 | [`curves`] | [`curves::talus_partition_figure`] |
//! | Table 1 | [`allocation`] | [`allocation::table1_slab_misses`] |
//! | Table 2 | [`allocation`] | [`allocation::table2_global_lru`] |
//! | Table 3 | [`allocation`] | [`allocation::table3_cross_app`] |
//! | Figure 2 | [`comparison`] | [`comparison::figure2_dynacache`] |
//! | Figure 6 | [`comparison`] | [`comparison::figure6_hit_rates`] |
//! | Figure 7 | [`comparison`] | [`comparison::figure7_savings`] |
//! | Headline numbers (§1, §5.2) | [`comparison`] | [`comparison::headline_summary`] |
//! | Figure 8 | [`dynamics`] | [`dynamics::figure8_memory_over_time`] |
//! | Figure 9 | [`dynamics`] | [`dynamics::figure9_convergence`] |
//! | Table 4 | [`dynamics`] | [`dynamics::table4_ablation`] |
//! | Table 5 | [`policies`] | [`policies::table5_eviction_schemes`] |
//! | Tables 6–7 | `bench` crate | `paper_tables --table 6|7` (wall-clock) |
//!
//! [`sharding`] and [`tenants`] go beyond the paper: hit rate vs shard
//! count at fixed total memory, with and without the cross-shard rebalancer
//! (the `shard_experiment` binary prints it; CI's `hit-rate-smoke` job
//! gates on it), and static per-tenant reservations vs live cross-tenant
//! arbitration (the `tenant_experiment` binary; CI's `tenant-smoke` job).

pub mod allocation;
pub mod comparison;
pub mod curves;
pub mod dynamics;
pub mod policies;
pub mod sharding;
pub mod tenants;

use crate::engine::ReplayOptions;
use cache_core::AppId;
use std::collections::BTreeMap;
use workloads::{memcachier_apps, trace_for_apps, AppProfile, MemcachierConfig, Trace};

/// The shared input of every experiment: the application profiles, their
/// traces, and the replay options derived from their reservations.
#[derive(Debug)]
pub struct ExperimentContext {
    /// The trace-generation configuration used.
    pub config: MemcachierConfig,
    /// The twenty application profiles.
    pub apps: Vec<AppProfile>,
    /// Per-application traces (same order of requests as the combined trace).
    pub traces: BTreeMap<AppId, Trace>,
    /// Fraction of each application's trace treated as warm-up when
    /// replaying (0.0 counts everything, like the paper).
    pub warmup_fraction: f64,
}

impl ExperimentContext {
    /// Generates the context from a trace configuration.
    pub fn new(config: MemcachierConfig) -> Self {
        let apps = memcachier_apps(config.scale);
        let combined = trace_for_apps(&apps, &config);
        let mut traces: BTreeMap<AppId, Trace> = BTreeMap::new();
        for app in &apps {
            traces.insert(app.app, Trace::new());
        }
        for request in combined.iter() {
            traces.entry(request.app).or_default().push(*request);
        }
        ExperimentContext {
            config,
            apps,
            traces,
            warmup_fraction: 0.0,
        }
    }

    /// The default experiment scale used by the harness binaries: large
    /// enough for the shapes to be visible, small enough to run in minutes.
    pub fn standard() -> Self {
        Self::new(MemcachierConfig {
            total_requests: 1_200_000,
            scale: 0.35,
            ..MemcachierConfig::default()
        })
    }

    /// A deliberately tiny context for unit and integration tests.
    pub fn quick() -> Self {
        Self::new(MemcachierConfig {
            total_requests: 120_000,
            scale: 0.08,
            duration_secs: 24 * 3_600,
            ..MemcachierConfig::default()
        })
    }

    /// The profile of an application by its paper number (1-based).
    pub fn app(&self, number: u32) -> &AppProfile {
        self.apps
            .iter()
            .find(|a| a.app.0 == number)
            .expect("application number out of range")
    }

    /// The trace of an application by its paper number.
    pub fn trace(&self, number: u32) -> &Trace {
        &self.traces[&AppId::new(number)]
    }

    /// Replay options for an application (reservation, slab geometry,
    /// warm-up).
    pub fn options(&self, number: u32) -> ReplayOptions {
        let app = self.app(number);
        ReplayOptions::new(app.reserved_bytes).with_warmup(self.warmup_fraction)
    }

    /// Application numbers in paper order.
    pub fn app_numbers(&self) -> Vec<u32> {
        self.apps.iter().map(|a| a.app.0).collect()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::OnceLock;

    /// A shared quick context so the experiment tests generate the trace
    /// only once.
    pub(crate) fn shared_quick_context() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(ExperimentContext::quick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_splits_traces_per_app() {
        let ctx = test_support::shared_quick_context();
        assert_eq!(ctx.apps.len(), 20);
        assert_eq!(ctx.traces.len(), 20);
        let total: usize = ctx.traces.values().map(|t| t.len()).sum();
        assert!(total > 100_000);
        // App 1 dominates; app 20 is small but present.
        assert!(ctx.trace(1).len() > ctx.trace(20).len());
        assert!(!ctx.trace(20).is_empty());
        // Options carry the reservation.
        assert_eq!(ctx.options(3).reserved_bytes, ctx.app(3).reserved_bytes);
        assert_eq!(ctx.app_numbers(), (1..=20).collect::<Vec<_>>());
    }
}
