//! The paper's headline comparisons across all twenty applications:
//! Figure 2 (default vs the Dynacache solver), Figure 6 (default vs the
//! solver vs Cliffhanger), Figure 7 (miss reduction and memory savings of
//! Cliffhanger) and the headline summary of §1 / §5.2.

use crate::engine::{replay_app, CacheSystem};
use crate::experiments::allocation::default_vs_dynacache;
use crate::experiments::ExperimentContext;
use crate::report::{FigureSeries, Table};
use crate::sweep::{memory_to_match, MemoryMatch};
use cache_core::stats::miss_reduction;
use serde::{Deserialize, Serialize};

/// Hit rates of one application under the three systems the paper compares.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppComparisonRow {
    /// Application number (1–20).
    pub app: u32,
    /// Whether the application is cliff-prone (asterisked in the paper).
    pub has_cliff: bool,
    /// Hit ratio under Memcached's default scheme.
    pub default_rate: f64,
    /// Hit ratio under the Dynacache solver's static plan.
    pub dynacache_rate: f64,
    /// Hit ratio under Cliffhanger.
    pub cliffhanger_rate: f64,
    /// Miss counts (default, dynacache, cliffhanger) for miss-reduction math.
    pub misses: (u64, u64, u64),
    /// GET counts (default, dynacache, cliffhanger).
    pub gets: (u64, u64, u64),
}

impl AppComparisonRow {
    /// Miss reduction of the Dynacache solver relative to the default.
    pub fn dynacache_miss_reduction(&self) -> f64 {
        miss_reduction(
            cache_core::HitRatio::new(self.gets.0 - self.misses.0, self.gets.0),
            cache_core::HitRatio::new(self.gets.1 - self.misses.1, self.gets.1),
        )
    }

    /// Miss reduction of Cliffhanger relative to the default.
    pub fn cliffhanger_miss_reduction(&self) -> f64 {
        miss_reduction(
            cache_core::HitRatio::new(self.gets.0 - self.misses.0, self.gets.0),
            cache_core::HitRatio::new(self.gets.2 - self.misses.2, self.gets.2),
        )
    }
}

/// Replays every application under the default scheme, the Dynacache solver
/// and Cliffhanger. This is the expensive, shared computation behind
/// Figures 2, 6 and 7; run it once and feed the result to the figure
/// builders.
pub fn compare_apps(ctx: &ExperimentContext) -> Vec<AppComparisonRow> {
    ctx.app_numbers()
        .into_iter()
        .map(|app_number| {
            let trace = ctx.trace(app_number);
            let options = ctx.options(app_number);
            let (default, dynacache) = default_vs_dynacache(ctx, app_number);
            let cliffhanger = replay_app(trace, &CacheSystem::cliffhanger(), &options);
            AppComparisonRow {
                app: app_number,
                has_cliff: ctx.app(app_number).has_cliff,
                default_rate: default.hit_rate(),
                dynacache_rate: dynacache.hit_rate(),
                cliffhanger_rate: cliffhanger.hit_rate(),
                misses: (
                    default.stats.misses,
                    dynacache.stats.misses,
                    cliffhanger.stats.misses,
                ),
                gets: (
                    default.stats.gets,
                    dynacache.stats.gets,
                    cliffhanger.stats.gets,
                ),
            }
        })
        .collect()
}

fn app_label(row: &AppComparisonRow) -> f64 {
    row.app as f64
}

/// Figure 2: hit rates and miss reduction of the Dynacache solver vs the
/// default scheme, per application.
pub fn figure2_dynacache(rows: &[AppComparisonRow]) -> FigureSeries {
    let mut fig = FigureSeries::new(
        "Figure 2: default vs Dynacache solver (per application)",
        "application",
        &["default hit rate", "Dynacache hit rate", "miss reduction"],
    );
    for row in rows {
        fig.push(
            app_label(row),
            vec![
                row.default_rate,
                row.dynacache_rate,
                row.dynacache_miss_reduction(),
            ],
        );
    }
    fig
}

/// Figure 6: hit rates of the default scheme, the Dynacache solver and
/// Cliffhanger, per application.
pub fn figure6_hit_rates(rows: &[AppComparisonRow]) -> FigureSeries {
    let mut fig = FigureSeries::new(
        "Figure 6: default vs Dynacache solver vs Cliffhanger (per application)",
        "application",
        &[
            "default hit rate",
            "Dynacache hit rate",
            "Cliffhanger hit rate",
        ],
    );
    for row in rows {
        fig.push(
            app_label(row),
            vec![row.default_rate, row.dynacache_rate, row.cliffhanger_rate],
        );
    }
    fig
}

/// Figure 7: Cliffhanger's miss reduction per application plus the fraction
/// of memory Cliffhanger needs to match the default scheme's hit rate
/// (`sweep_iterations` bisection steps per application — each step replays
/// the application's whole trace).
pub fn figure7_savings(
    ctx: &ExperimentContext,
    rows: &[AppComparisonRow],
    sweep_iterations: usize,
) -> (FigureSeries, Vec<MemoryMatch>) {
    let mut fig = FigureSeries::new(
        "Figure 7: Cliffhanger miss reduction and memory savings (per application)",
        "application",
        &["miss reduction", "memory saved"],
    );
    let mut matches = Vec::new();
    for row in rows {
        let trace = ctx.trace(row.app);
        let options = ctx.options(row.app);
        let sweep = memory_to_match(
            trace,
            &CacheSystem::cliffhanger(),
            &options,
            row.default_rate,
            sweep_iterations,
            0.002,
        );
        fig.push(
            app_label(row),
            vec![row.cliffhanger_miss_reduction(), sweep.savings()],
        );
        matches.push(sweep);
    }
    (fig, matches)
}

/// The headline summary of §1 / §5.2: average hit-rate increase, overall
/// miss reduction and average memory needed to match the default hit rate.
pub fn headline_summary(rows: &[AppComparisonRow], matches: &[MemoryMatch]) -> Table {
    let n = rows.len().max(1) as f64;
    let avg_increase: f64 = rows
        .iter()
        .map(|r| r.cliffhanger_rate - r.default_rate)
        .sum::<f64>()
        / n;
    let total_default_misses: u64 = rows.iter().map(|r| r.misses.0).sum();
    let total_cliffhanger_misses: u64 = rows.iter().map(|r| r.misses.2).sum();
    let overall_miss_reduction = if total_default_misses == 0 {
        0.0
    } else {
        (total_default_misses as f64 - total_cliffhanger_misses as f64)
            / total_default_misses as f64
    };
    let avg_memory_fraction = if matches.is_empty() {
        1.0
    } else {
        matches.iter().map(|m| m.fraction_needed).sum::<f64>() / matches.len() as f64
    };

    let mut table = Table::new(
        "Headline: Cliffhanger vs the default scheme (paper: +1.2% hit rate, \
         -36.7% misses, 55% of the memory)",
        &["metric", "paper", "measured"],
    );
    table.push_row(vec![
        "average hit-rate increase".into(),
        "+1.2%".into(),
        format!("{:+.1}%", avg_increase * 100.0),
    ]);
    table.push_row(vec![
        "overall miss reduction".into(),
        "36.7%".into(),
        Table::pct(overall_miss_reduction),
    ]);
    table.push_row(vec![
        "memory needed for default hit rate".into(),
        "55%".into(),
        Table::pct(avg_memory_fraction),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::shared_quick_context;
    use std::sync::OnceLock;

    fn shared_rows() -> &'static Vec<AppComparisonRow> {
        static ROWS: OnceLock<Vec<AppComparisonRow>> = OnceLock::new();
        ROWS.get_or_init(|| compare_apps(shared_quick_context()))
    }

    #[test]
    fn comparison_covers_all_twenty_apps() {
        let rows = shared_rows();
        assert_eq!(rows.len(), 20);
        for row in rows.iter() {
            assert!((0.0..=1.0).contains(&row.default_rate));
            assert!((0.0..=1.0).contains(&row.dynacache_rate));
            assert!((0.0..=1.0).contains(&row.cliffhanger_rate));
            assert!(row.gets.0 > 0);
        }
        // The asterisked applications are flagged.
        let cliffy: Vec<u32> = rows.iter().filter(|r| r.has_cliff).map(|r| r.app).collect();
        assert_eq!(cliffy, vec![1, 7, 10, 11, 18, 19]);
    }

    #[test]
    fn cliffhanger_helps_on_average() {
        let rows = shared_rows();
        let avg_default: f64 = rows.iter().map(|r| r.default_rate).sum::<f64>() / rows.len() as f64;
        let avg_cliff: f64 =
            rows.iter().map(|r| r.cliffhanger_rate).sum::<f64>() / rows.len() as f64;
        // Even on the tiny test trace the managed allocation should not lose
        // to first-come-first-serve on average.
        assert!(
            avg_cliff + 0.02 >= avg_default,
            "avg default {avg_default:.3} vs cliffhanger {avg_cliff:.3}"
        );
    }

    #[test]
    fn figures_have_one_point_per_app() {
        let rows = shared_rows();
        let fig2 = figure2_dynacache(rows);
        let fig6 = figure6_hit_rates(rows);
        assert_eq!(fig2.points.len(), 20);
        assert_eq!(fig6.points.len(), 20);
        assert_eq!(fig6.series_labels.len(), 3);
        assert!(fig2.to_csv().lines().count() > 20);
    }

    #[test]
    fn headline_summary_reports_three_metrics() {
        let rows = shared_rows();
        let table = headline_summary(rows, &[]);
        assert_eq!(table.rows.len(), 3);
        assert!(table.to_string().contains("miss reduction"));
    }
}
