//! Time-dynamics experiments: Figure 8 (memory allocated per slab class over
//! time under hill climbing), Figure 9 (hit rate converging while a cliff is
//! scaled) and Table 4 (the ablation of the two algorithms on application
//! 19).

use crate::engine::{replay_app, CacheSystem, CliffhangerMode};
use crate::experiments::ExperimentContext;
use crate::report::{FigureSeries, Table};
use cache_core::{PolicyKind, SlabConfig};

/// Figure 8: memory allocated to each active slab class over time for
/// application 5 (the application whose traffic shifts between size classes
/// mid-trace), under Cliffhanger's hill climbing.
pub fn figure8_memory_over_time(ctx: &ExperimentContext, samples: usize) -> FigureSeries {
    let app_number = 5;
    let trace = ctx.trace(app_number);
    let options = ctx.options(app_number).with_timeline(samples.max(2));
    let result = replay_app(
        trace,
        &CacheSystem::Cliffhanger {
            mode: CliffhangerMode::HillClimbingOnly,
            policy: PolicyKind::Lru,
        },
        &options,
    );

    // Report only classes that ever hold a meaningful share of memory, so the
    // figure matches the paper's "slabs 4–9" style of presentation.
    let num_classes = SlabConfig::default().num_classes();
    let mut active = vec![false; num_classes];
    for point in &result.timeline {
        for (idx, &used) in point.class_used.iter().enumerate() {
            if used > options.reserved_bytes / 100 {
                active[idx] = true;
            }
        }
    }
    let active_classes: Vec<usize> = (0..num_classes).filter(|&i| active[i]).collect();
    let labels: Vec<String> = active_classes
        .iter()
        .map(|&i| format!("slab {i} (MB)"))
        .collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut fig = FigureSeries::new(
        "Figure 8: memory allocated to slab classes over time (application 5, hill climbing)",
        "seconds",
        &label_refs,
    );
    for point in &result.timeline {
        let ys: Vec<f64> = active_classes
            .iter()
            .map(|&i| point.class_targets.get(i).copied().unwrap_or(0) as f64 / (1 << 20) as f64)
            .collect();
        fig.push(point.time as f64, ys);
    }
    fig
}

/// Figure 9: the hit rate of application 19 over time under the combined
/// algorithms, sampled in intervals (the paper shows the queue starting
/// around 70% and converging upward as the cliff is scaled).
pub fn figure9_convergence(ctx: &ExperimentContext, samples: usize) -> FigureSeries {
    let app_number = 19;
    let trace = ctx.trace(app_number);
    let options = ctx.options(app_number).with_timeline(samples.max(2));
    let managed = replay_app(trace, &CacheSystem::cliffhanger(), &options);
    let baseline = replay_app(trace, &CacheSystem::default_lru(), &options);

    let mut fig = FigureSeries::new(
        "Figure 9: application 19 hit rate over time (Cliffhanger vs default)",
        "seconds",
        &["Cliffhanger interval hit rate", "default interval hit rate"],
    );
    for (m, d) in managed.timeline.iter().zip(baseline.timeline.iter()) {
        fig.push(
            m.time as f64,
            vec![m.interval_hit_rate, d.interval_hit_rate],
        );
    }
    fig
}

/// Table 4: application 19 under the default scheme, cliff scaling only,
/// hill climbing only, and the combined algorithms — per dominant slab class
/// and in total.
pub fn table4_ablation(ctx: &ExperimentContext) -> Table {
    let app_number = 19;
    let trace = ctx.trace(app_number);
    let options = ctx.options(app_number);

    let systems = [
        ("default", CacheSystem::default_lru()),
        (
            "cliff scaling",
            CacheSystem::Cliffhanger {
                mode: CliffhangerMode::CliffScalingOnly,
                policy: PolicyKind::Lru,
            },
        ),
        (
            "hill climbing",
            CacheSystem::Cliffhanger {
                mode: CliffhangerMode::HillClimbingOnly,
                policy: PolicyKind::Lru,
            },
        ),
        ("combined", CacheSystem::cliffhanger()),
    ];
    let results: Vec<_> = systems
        .iter()
        .map(|(_, system)| replay_app(trace, system, &options))
        .collect();

    // The two slab classes with the most GETs under the default run.
    let mut by_gets: Vec<(usize, u64)> = results[0]
        .class_stats
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.gets))
        .collect();
    by_gets.sort_by_key(|&(_, g)| std::cmp::Reverse(g));
    let top_classes: Vec<usize> = by_gets.iter().take(2).map(|&(i, _)| i).collect();

    let mut headers: Vec<String> = vec!["slab class".to_string()];
    headers.extend(systems.iter().map(|(name, _)| format!("{name} hit rate")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table 4: application 19 — default vs cliff scaling vs hill climbing vs combined",
        &header_refs,
    );
    for &class in &top_classes {
        let mut row = vec![class.to_string()];
        for result in &results {
            let rate = result
                .class_stats
                .get(class)
                .map(|s| s.hit_ratio().value())
                .unwrap_or(0.0);
            row.push(Table::pct(rate));
        }
        table.push_row(row);
    }
    let mut total_row = vec!["total".to_string()];
    for result in &results {
        total_row.push(Table::pct(result.hit_rate()));
    }
    table.push_row(total_row);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::shared_quick_context;

    #[test]
    fn figure8_reports_multiple_classes_over_time() {
        let ctx = shared_quick_context();
        let fig = figure8_memory_over_time(ctx, 20);
        assert!(fig.points.len() >= 15);
        assert!(
            fig.series_labels.len() >= 2,
            "application 5 spans several slab classes: {:?}",
            fig.series_labels
        );
        // Time is non-decreasing.
        assert!(fig.points.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn figure9_tracks_two_systems() {
        let ctx = shared_quick_context();
        let fig = figure9_convergence(ctx, 15);
        assert!(fig.points.len() >= 10);
        for (_, ys) in &fig.points {
            assert_eq!(ys.len(), 2);
            assert!(ys.iter().all(|y| (0.0..=1.0).contains(y)));
        }
    }

    #[test]
    fn table4_has_two_classes_and_a_total() {
        let ctx = shared_quick_context();
        let table = table4_ablation(ctx);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.headers.len(), 5);
        assert_eq!(table.rows.last().unwrap()[0], "total");
    }
}
