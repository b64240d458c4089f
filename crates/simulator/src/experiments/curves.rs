//! Hit-rate-curve figures: Figure 1 (a concave curve), Figure 3 (a cliff)
//! and Figure 4 (the concave hull and Talus partition of application 19's
//! dominant slab class).

use crate::experiments::ExperimentContext;
use crate::profiles::profile_app_classes;
use crate::report::{FigureSeries, Table};
use cache_core::{CacheQueue, ClassId};
use profiler::TalusPartition;

/// The slab class of an application that receives the most GETs.
pub fn dominant_class(ctx: &ExperimentContext, app_number: u32) -> ClassId {
    let profiles = profile_app_classes(ctx.trace(app_number), &ctx.options(app_number).slab, 256);
    profiles
        .gets_per_class
        .iter()
        .enumerate()
        .max_by_key(|(_, &g)| g)
        .map(|(i, _)| ClassId::new(i as u32))
        .unwrap_or(ClassId::new(0))
}

/// The measured hit-rate curve of one application's slab class
/// (Figure 1 uses application 3, Figure 3 uses application 11).
pub fn hit_rate_curve_figure(
    ctx: &ExperimentContext,
    app_number: u32,
    class: Option<ClassId>,
    title: &str,
) -> FigureSeries {
    let options = ctx.options(app_number);
    let profiles = profile_app_classes(ctx.trace(app_number), &options.slab, 512);
    let class = class.unwrap_or_else(|| dominant_class(ctx, app_number));
    let curve = &profiles.profiles[class.index()].curve;
    let mut figure = FigureSeries::new(title, "items in LRU queue", &["hit rate"]);
    for &(items, rate) in curve.points() {
        figure.push(items as f64, vec![rate]);
    }
    figure
}

/// Figure 4: the hit-rate curve of application 19's dominant class, its
/// concave hull, and the Talus partition at the class's default allocation.
/// Returns the figure (curve and hull series) and a table with the partition
/// parameters (the paper's 957 / 7043-item example).
pub fn talus_partition_figure(ctx: &ExperimentContext, app_number: u32) -> (FigureSeries, Table) {
    let options = ctx.options(app_number);
    let profiles = profile_app_classes(ctx.trace(app_number), &options.slab, 512);
    let class = dominant_class(ctx, app_number);
    let profile = &profiles.profiles[class.index()];
    let curve = &profile.curve;
    let hull = curve.concave_hull();

    let mut figure = FigureSeries::new(
        &format!("Figure 4: application {app_number}, {class} — curve and concave hull"),
        "items in LRU queue",
        &["hit rate", "concave hull"],
    );
    for &(items, rate) in curve.points() {
        figure.push(items as f64, vec![rate, hull.value_at(items)]);
    }

    // Operating point: the class's share of the default allocation, i.e.
    // what first-come-first-serve gives it; approximated as the class's GET
    // share of the reservation, converted to items.
    let charge = CacheQueue::charge(options.slab.chunk_size(class));
    let share = profile.frequency.max(0.01);
    let operating_items =
        (((options.reserved_bytes as f64) * share) / charge as f64).round() as u64;
    let operating_items = operating_items.clamp(1, curve.max_items().max(2) - 1);
    let partition = TalusPartition::compute(curve, operating_items, 0.02);

    let mut table = Table::new(
        &format!("Figure 4 (parameters): Talus partition of application {app_number}, {class}"),
        &[
            "queue items",
            "left anchor",
            "right anchor",
            "left ratio",
            "left items",
            "right items",
            "baseline hit rate",
            "partitioned hit rate",
        ],
    );
    table.push_row(vec![
        operating_items.to_string(),
        partition.simulated_left.to_string(),
        partition.simulated_right.to_string(),
        Table::ratio(partition.left_request_ratio),
        partition.left_items.to_string(),
        partition.right_items.to_string(),
        Table::pct(partition.baseline_hit_rate),
        Table::pct(partition.expected_hit_rate),
    ]);
    (figure, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::shared_quick_context;

    #[test]
    fn figure1_curve_is_concave_ish_and_monotone() {
        let ctx = shared_quick_context();
        let fig = hit_rate_curve_figure(ctx, 3, None, "Figure 1: application 3");
        assert!(fig.points.len() > 10);
        assert!(fig
            .points
            .windows(2)
            .all(|w| w[0].1[0] <= w[1].1[0] + 1e-12));
        let max = fig.points.last().unwrap().1[0];
        assert!(max > 0.5, "app 3 should be cacheable, max hit rate {max}");
    }

    #[test]
    fn figure3_curve_has_a_cliff() {
        let ctx = shared_quick_context();
        let options = ctx.options(11);
        let profiles = profile_app_classes(ctx.trace(11), &options.slab, 512);
        let class = dominant_class(ctx, 11);
        let curve = &profiles.profiles[class.index()].curve;
        assert!(
            curve.has_cliff(0.08),
            "application 11's dominant class should exhibit a performance cliff"
        );
        let fig = hit_rate_curve_figure(ctx, 11, Some(class), "Figure 3: application 11");
        assert!(fig.points.len() > 10);
    }

    #[test]
    fn figure4_partition_improves_on_the_cliff() {
        let ctx = shared_quick_context();
        let (fig, table) = talus_partition_figure(ctx, 19);
        assert_eq!(fig.series_labels.len(), 2);
        // The hull never falls below the curve.
        for (_, ys) in &fig.points {
            assert!(ys[1] + 1e-9 >= ys[0]);
        }
        assert_eq!(table.rows.len(), 1);
    }
}
