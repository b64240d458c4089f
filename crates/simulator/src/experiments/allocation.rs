//! Allocation-baseline tables: Table 1 (per-slab misses under the default
//! scheme vs the Dynacache solver), Table 2 (slab classes vs a global LRU vs
//! the solver) and Table 3 (cross-application optimisation of the top five
//! applications).

use crate::engine::{replay_app, CacheSystem, ReplayOptions};
use crate::experiments::ExperimentContext;
use crate::profiles::{dynacache_plan, profile_app_classes, profile_whole_app};
use crate::report::Table;
use cache_core::{PolicyKind, SlabConfig};
use profiler::DynacacheSolver;

/// The solver step used throughout (1 MB, Memcached's page size, scaled down
/// for small test contexts).
fn solver_step(options: &ReplayOptions) -> u64 {
    (options.reserved_bytes / 64).clamp(16 << 10, 1 << 20)
}

/// Replays one application under the default scheme and under the Dynacache
/// solver's static plan; returns (default, dynacache) results.
pub fn default_vs_dynacache(
    ctx: &ExperimentContext,
    app_number: u32,
) -> (crate::engine::AppRunResult, crate::engine::AppRunResult) {
    let trace = ctx.trace(app_number);
    let options = ctx.options(app_number);
    let default = replay_app(trace, &CacheSystem::default_lru(), &options);
    let plan = dynacache_plan(
        trace,
        &SlabConfig::default(),
        options.reserved_bytes,
        solver_step(&options),
    );
    let solved = replay_app(
        trace,
        &CacheSystem::StaticPlan {
            class_targets: plan,
            policy: PolicyKind::Lru,
        },
        &options,
    );
    (default, solved)
}

/// Table 1: per-slab-class GET share and share of misses for applications 4
/// and 6, under the default scheme and under the Dynacache solver.
pub fn table1_slab_misses(ctx: &ExperimentContext) -> Table {
    let mut table = Table::new(
        "Table 1: misses by slab class (default vs Dynacache solver)",
        &[
            "app",
            "slab class",
            "% GETs",
            "default % of misses",
            "Dynacache % of misses",
        ],
    );
    for app_number in [4u32, 6] {
        let profiles = profile_app_classes(ctx.trace(app_number), &SlabConfig::default(), 256);
        let (default, solved) = default_vs_dynacache(ctx, app_number);
        let total_gets: u64 = profiles.gets_per_class.iter().sum();
        let default_misses: u64 = default.class_stats.iter().map(|s| s.misses).sum();
        let solved_misses: u64 = solved.class_stats.iter().map(|s| s.misses).sum();
        for class in profiles.active_classes() {
            let idx = class.index();
            let get_share = profiles.gets_per_class[idx] as f64 / total_gets.max(1) as f64;
            if get_share < 0.005 {
                continue; // the paper only lists classes with visible traffic
            }
            let default_share = if default_misses == 0 {
                0.0
            } else {
                default.class_stats[idx].misses as f64 / default_misses as f64
            };
            let solved_share = if solved_misses == 0 {
                0.0
            } else {
                solved.class_stats[idx].misses as f64 / solved_misses as f64
            };
            table.push_row(vec![
                app_number.to_string(),
                idx.to_string(),
                Table::pct(get_share),
                Table::pct(default_share),
                Table::pct(solved_share),
            ]);
        }
        // A summary row per application: overall miss change.
        table.push_row(vec![
            app_number.to_string(),
            "total misses".to_string(),
            Table::pct(1.0),
            default_misses.to_string(),
            solved_misses.to_string(),
        ]);
    }
    table
}

/// Table 2: hit rates of applications 3–5 under the default slab scheme, a
/// global LRU (the log-structured-memory model) and the Dynacache solver.
pub fn table2_global_lru(ctx: &ExperimentContext) -> Table {
    let mut table = Table::new(
        "Table 2: slab classes vs log-structured (global LRU) vs Dynacache",
        &[
            "app",
            "default hit rate",
            "global LRU hit rate",
            "Dynacache hit rate",
        ],
    );
    for app_number in [3u32, 4, 5] {
        let trace = ctx.trace(app_number);
        let options = ctx.options(app_number);
        let (default, solved) = default_vs_dynacache(ctx, app_number);
        let global = replay_app(trace, &CacheSystem::GlobalLru, &options);
        table.push_row(vec![
            app_number.to_string(),
            Table::pct(default.hit_rate()),
            Table::pct(global.hit_rate()),
            Table::pct(solved.hit_rate()),
        ]);
    }
    table
}

/// Table 3: cross-application optimisation of the top five applications —
/// the Dynacache solver reassigns the five reservations to maximise the
/// overall hit rate; each application is then replayed under the default
/// scheme at its new reservation.
pub fn table3_cross_app(ctx: &ExperimentContext) -> Table {
    let apps = [1u32, 2, 3, 4, 5];
    let total_memory: u64 = apps.iter().map(|&a| ctx.app(a).reserved_bytes).sum();

    // Application-level profiles (one queue per application).
    let profiles: Vec<_> = apps
        .iter()
        .map(|&a| profile_whole_app(ctx.trace(a), 512))
        .collect();
    let step = (total_memory / 128).clamp(16 << 10, 1 << 20);
    let allocation = DynacacheSolver::new(step).allocate(&profiles, total_memory);

    let mut table = Table::new(
        "Table 3: cross-application optimisation of the top 5 applications",
        &[
            "app",
            "original memory %",
            "solver memory %",
            "original hit rate",
            "solver hit rate",
        ],
    );
    for (i, &app_number) in apps.iter().enumerate() {
        let trace = ctx.trace(app_number);
        let original_bytes = ctx.app(app_number).reserved_bytes;
        let solver_bytes = allocation.bytes_for(i).max(1);
        let original = replay_app(trace, &CacheSystem::default_lru(), &ctx.options(app_number));
        let mut new_options = ctx.options(app_number);
        new_options.reserved_bytes = solver_bytes;
        let optimised = replay_app(trace, &CacheSystem::default_lru(), &new_options);
        table.push_row(vec![
            app_number.to_string(),
            Table::pct(original_bytes as f64 / total_memory as f64),
            Table::pct(solver_bytes as f64 / total_memory as f64),
            Table::pct(original.hit_rate()),
            Table::pct(optimised.hit_rate()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::shared_quick_context;

    #[test]
    fn table1_reports_the_size_imbalanced_apps() {
        let ctx = shared_quick_context();
        let table = table1_slab_misses(ctx);
        assert!(table.rows.len() >= 4, "{table}");
        // Every app contributes at least one class row plus a summary row.
        assert!(table.rows.iter().any(|r| r[0] == "4"));
        assert!(table.rows.iter().any(|r| r[0] == "6"));
        // GET shares of the listed classes are percentages.
        for row in table.rows.iter().filter(|r| r[1] != "total misses") {
            assert!(row[2].ends_with('%'));
        }
    }

    #[test]
    fn table2_covers_three_apps_and_three_systems() {
        let ctx = shared_quick_context();
        let table = table2_global_lru(ctx);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.headers.len(), 4);
        for row in &table.rows {
            for cell in &row[1..] {
                let value: f64 = cell.trim_end_matches('%').parse().unwrap();
                assert!((0.0..=100.0).contains(&value));
            }
        }
    }

    #[test]
    fn table3_conserves_memory_share() {
        let ctx = shared_quick_context();
        let table = table3_cross_app(ctx);
        assert_eq!(table.rows.len(), 5);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let original: f64 = table.rows.iter().map(|r| parse(&r[1])).sum();
        let solved: f64 = table.rows.iter().map(|r| parse(&r[2])).sum();
        assert!(
            (original - 100.0).abs() < 1.0,
            "original sums to {original}"
        );
        assert!((solved - 100.0).abs() < 2.0, "solved sums to {solved}");
    }
}
