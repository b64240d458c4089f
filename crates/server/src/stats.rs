//! The `stats` renderer, in three expositions.
//!
//! The data plane's control thread assembles a [`StatsSnapshot`] from the
//! loops' snapshot messages and renders it through [`render_stats`] — the
//! committed benchmark baselines and the CI smoke validators parse these
//! keys by name.
//!
//! The same state is also rendered machine-readably:
//! [`build_document`] assembles one versioned [`StatsDocument`]
//! (`cliffhanger-stats/v1`) carrying per-loop service-time quantiles and
//! the flight-recorder journal, and [`render_json`] / [`render_prom`]
//! serialise it as JSON or Prometheus text exposition. Both formats come
//! from the *same* document, so they cannot disagree.

use crate::engine::BackendMode;
use crate::reactor::ConnTelemetry;
use cache_core::CacheStats;
use profiler::MrcSnapshot;
use serde::Serialize;
use telemetry::{
    EventKind, Histogram, Journal, JournalEvent, LatencySummary, SeriesRates, TimeSeries,
};

/// The version tag of the machine-readable stats document.
pub(crate) const STATS_SCHEMA: &str = "cliffhanger-stats/v1";

/// A snapshot of wire-level counters for one engine (or an aggregate).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WireCounts {
    pub(crate) gets: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) sets: u64,
    pub(crate) deletes: u64,
}

impl WireCounts {
    pub(crate) fn accumulate(&mut self, other: WireCounts) {
        self.gets += other.gets;
        self.hits += other.hits;
        self.misses += other.misses;
        self.sets += other.sets;
        self.deletes += other.deletes;
    }
}

/// Everything `stats` reports about one (shard, tenant) engine.
#[derive(Clone, Default)]
pub(crate) struct EngineStat {
    pub(crate) wire: WireCounts,
    pub(crate) core: CacheStats,
    pub(crate) used: u64,
    pub(crate) items: usize,
}

/// Round counters of the two balancing levels.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BalanceCounters {
    pub(crate) rebalance_enabled: bool,
    pub(crate) rebalance_runs: u64,
    pub(crate) rebalance_transfers: u64,
    pub(crate) rebalance_bytes: u64,
    pub(crate) arbiter_enabled: bool,
    pub(crate) arbiter_runs: u64,
    pub(crate) arbiter_transfers: u64,
    pub(crate) arbiter_bytes: u64,
}

/// The backend-independent inputs of one `stats` report.
pub(crate) struct StatsSnapshot {
    pub(crate) total_bytes: u64,
    pub(crate) mode: BackendMode,
    pub(crate) requested_shards: usize,
    /// Seconds since the backend was constructed.
    pub(crate) uptime_s: u64,
    /// Engine stats indexed `[shard][tenant]`.
    pub(crate) cells: Vec<Vec<EngineStat>>,
    pub(crate) tenant_names: Vec<String>,
    pub(crate) tenant_budgets: Vec<u64>,
    pub(crate) shard_budgets: Vec<u64>,
    pub(crate) balance: BalanceCounters,
}

/// Per-event-loop counters of the shared-nothing data plane.
pub(crate) struct PlaneStats {
    /// Owning event loop per shard index.
    pub(crate) owner_of: Vec<usize>,
    /// Per loop: (data ops executed for its own connections, data ops
    /// executed on behalf of another loop, data ops it forwarded away).
    pub(crate) per_loop: Vec<(u64, u64, u64)>,
    /// Admin commands forwarded to the control thread.
    pub(crate) admin_msgs: u64,
    /// The configured idle reaping timeout in milliseconds (0 = disabled).
    pub(crate) idle_timeout_ms: u64,
    /// Ops over the slow-op threshold, summed across loops.
    pub(crate) slow_ops: u64,
}

/// One event loop's service-time telemetry, as merged by the control
/// thread from the loop's snapshot.
#[derive(Clone, Default)]
pub(crate) struct LoopTelemetry {
    /// Service times of ops the loop ran for its own connections (ns).
    pub(crate) local: Histogram,
    /// Queue + service times of ops forwarded to the loop (ns).
    pub(crate) remote: Histogram,
    /// Ops over the slow-op threshold on this loop.
    pub(crate) slow_ops: u64,
}

/// Sums a snapshot's `[shard][tenant]` engine cells into server-wide,
/// per-tenant and per-shard aggregates — the one accumulation every
/// exposition format renders from.
struct Rollup {
    totals: WireCounts,
    core_total: CacheStats,
    used: u64,
    items: usize,
    tenant_wire: Vec<WireCounts>,
    tenant_core: Vec<CacheStats>,
    tenant_used: Vec<u64>,
    tenant_items: Vec<usize>,
    shard_wire: Vec<WireCounts>,
    shard_core: Vec<CacheStats>,
    shard_used: Vec<u64>,
    shard_items: Vec<usize>,
}

fn rollup(snap: &StatsSnapshot) -> Rollup {
    let ns = snap.cells.len();
    let nt = snap.tenant_names.len();
    let mut r = Rollup {
        totals: WireCounts::default(),
        core_total: CacheStats::default(),
        used: 0,
        items: 0,
        tenant_wire: vec![WireCounts::default(); nt],
        tenant_core: vec![CacheStats::default(); nt],
        tenant_used: vec![0u64; nt],
        tenant_items: vec![0usize; nt],
        shard_wire: vec![WireCounts::default(); ns],
        shard_core: vec![CacheStats::default(); ns],
        shard_used: vec![0u64; ns],
        shard_items: vec![0usize; ns],
    };
    for (s, cells) in snap.cells.iter().enumerate() {
        for (t, cell) in cells.iter().enumerate().take(nt) {
            r.totals.accumulate(cell.wire);
            r.core_total += cell.core;
            r.used += cell.used;
            r.items += cell.items;
            r.tenant_wire[t].accumulate(cell.wire);
            r.tenant_core[t] += cell.core;
            r.tenant_used[t] += cell.used;
            r.tenant_items[t] += cell.items;
            r.shard_wire[s].accumulate(cell.wire);
            r.shard_core[s] += cell.core;
            r.shard_used[s] += cell.used;
            r.shard_items[s] += cell.items;
        }
    }
    r
}

/// Renders a snapshot as the `STAT` key/value list: aggregated counters,
/// allocation-hierarchy counters, the connection section, then per-tenant
/// and per-shard breakdowns, then the data-plane section.
pub(crate) fn render_stats(
    snap: &StatsSnapshot,
    conns: &ConnTelemetry,
    plane: &PlaneStats,
) -> Vec<(String, String)> {
    let ns = snap.cells.len();
    let nt = snap.tenant_names.len();
    let Rollup {
        totals,
        core_total,
        used,
        items,
        tenant_wire,
        tenant_core,
        tenant_used,
        tenant_items,
        shard_wire,
        shard_core,
        shard_used,
        shard_items,
    } = rollup(snap);

    let mut out = vec![
        ("cmd_get".into(), totals.gets.to_string()),
        ("cmd_set".into(), totals.sets.to_string()),
        ("get_hits".into(), totals.hits.to_string()),
        ("get_misses".into(), totals.misses.to_string()),
        ("cmd_delete".into(), totals.deletes.to_string()),
        ("bytes".into(), used.to_string()),
        ("curr_items".into(), items.to_string()),
        ("evictions".into(), core_total.evictions.to_string()),
        ("uptime".into(), snap.uptime_s.to_string()),
        ("limit_maxbytes".into(), snap.total_bytes.to_string()),
        (
            "allocator".into(),
            format!("{:?}", snap.mode).to_lowercase(),
        ),
        ("shard_count".into(), ns.to_string()),
        ("shards_requested".into(), snap.requested_shards.to_string()),
        (
            "shard_bytes".into(),
            (snap.total_bytes / ns.max(1) as u64).to_string(),
        ),
        ("tenant_count".into(), nt.to_string()),
        (
            "rebalance:enabled".into(),
            (snap.balance.rebalance_enabled as u8).to_string(),
        ),
        (
            "rebalance:runs".into(),
            snap.balance.rebalance_runs.to_string(),
        ),
        (
            "rebalance:transfers".into(),
            snap.balance.rebalance_transfers.to_string(),
        ),
        (
            "rebalance:bytes_moved".into(),
            snap.balance.rebalance_bytes.to_string(),
        ),
        (
            "arbiter:enabled".into(),
            (snap.balance.arbiter_enabled as u8).to_string(),
        ),
        ("arbiter:runs".into(), snap.balance.arbiter_runs.to_string()),
        (
            "arbiter:transfers".into(),
            snap.balance.arbiter_transfers.to_string(),
        ),
        (
            "arbiter:bytes_moved".into(),
            snap.balance.arbiter_bytes.to_string(),
        ),
    ];
    out.push(("curr_connections".into(), conns.curr().to_string()));
    out.push(("total_connections".into(), conns.total().to_string()));
    out.push(("rejected_connections".into(), conns.rejected().to_string()));
    out.push((
        "max_connections".into(),
        conns.max_connections().to_string(),
    ));
    for i in 0..conns.loops() {
        out.push((format!("conns:loop:{i}"), conns.loop_curr(i).to_string()));
    }
    out.push((
        "idle_closed_connections".into(),
        conns.idle_closed().to_string(),
    ));
    for t in 0..nt {
        let name = &snap.tenant_names[t];
        let wire = tenant_wire[t];
        out.push((format!("tenant:{name}:cmd_get"), wire.gets.to_string()));
        out.push((format!("tenant:{name}:cmd_set"), wire.sets.to_string()));
        out.push((format!("tenant:{name}:get_hits"), wire.hits.to_string()));
        out.push((format!("tenant:{name}:get_misses"), wire.misses.to_string()));
        out.push((
            format!("tenant:{name}:cmd_delete"),
            wire.deletes.to_string(),
        ));
        out.push((format!("tenant:{name}:bytes"), tenant_used[t].to_string()));
        out.push((
            format!("tenant:{name}:curr_items"),
            tenant_items[t].to_string(),
        ));
        out.push((
            format!("tenant:{name}:evictions"),
            tenant_core[t].evictions.to_string(),
        ));
        out.push((
            format!("tenant:{name}:budget"),
            snap.tenant_budgets[t].to_string(),
        ));
        out.push((
            format!("tenant:{name}:shadow_hits"),
            tenant_core[t].shadow_hits.to_string(),
        ));
    }
    for s in 0..ns {
        let wire = shard_wire[s];
        out.push((format!("shard:{s}:cmd_get"), wire.gets.to_string()));
        out.push((format!("shard:{s}:cmd_set"), wire.sets.to_string()));
        out.push((format!("shard:{s}:get_hits"), wire.hits.to_string()));
        out.push((format!("shard:{s}:get_misses"), wire.misses.to_string()));
        out.push((format!("shard:{s}:cmd_delete"), wire.deletes.to_string()));
        out.push((format!("shard:{s}:bytes"), shard_used[s].to_string()));
        out.push((format!("shard:{s}:curr_items"), shard_items[s].to_string()));
        out.push((
            format!("shard:{s}:evictions"),
            shard_core[s].evictions.to_string(),
        ));
        out.push((
            format!("shard:{s}:budget"),
            snap.shard_budgets[s].to_string(),
        ));
        out.push((
            format!("shard:{s}:shadow_hits"),
            shard_core[s].shadow_hits.to_string(),
        ));
    }
    let local: u64 = plane.per_loop.iter().map(|l| l.0).sum();
    let remote: u64 = plane.per_loop.iter().map(|l| l.1).sum();
    out.push(("plane:event_loops".into(), plane.per_loop.len().to_string()));
    out.push(("plane:local_ops".into(), local.to_string()));
    out.push(("plane:remote_ops".into(), remote.to_string()));
    out.push(("plane:admin_msgs".into(), plane.admin_msgs.to_string()));
    out.push((
        "plane:idle_timeout_ms".into(),
        plane.idle_timeout_ms.to_string(),
    ));
    out.push(("plane:slow_ops".into(), plane.slow_ops.to_string()));
    for (i, (local_ops, remote_in, remote_out)) in plane.per_loop.iter().enumerate() {
        out.push((format!("loop:{i}:local_ops"), local_ops.to_string()));
        out.push((format!("loop:{i}:remote_in"), remote_in.to_string()));
        out.push((format!("loop:{i}:remote_out"), remote_out.to_string()));
    }
    for (s, owner) in plane.owner_of.iter().enumerate() {
        out.push((format!("shard:{s}:owner_loop"), owner.to_string()));
    }
    out
}

// ---------------------------------------------------------------------------
// The machine-readable exposition: one versioned document, two renderings.
// ---------------------------------------------------------------------------

/// Server-wide wire counters.
#[derive(Serialize)]
pub(crate) struct CountersDoc {
    pub(crate) cmd_get: u64,
    pub(crate) cmd_set: u64,
    pub(crate) get_hits: u64,
    pub(crate) get_misses: u64,
    pub(crate) cmd_delete: u64,
    pub(crate) bytes: u64,
    pub(crate) curr_items: u64,
    pub(crate) evictions: u64,
    pub(crate) slow_ops: u64,
}

/// Static capacity and topology facts.
#[derive(Serialize)]
pub(crate) struct CapacityDoc {
    pub(crate) limit_maxbytes: u64,
    pub(crate) allocator: String,
    pub(crate) shard_count: usize,
    pub(crate) shards_requested: usize,
    pub(crate) tenant_count: usize,
    pub(crate) event_loops: usize,
}

/// Round counters of the two balancing levels.
#[derive(Serialize)]
pub(crate) struct BalanceDoc {
    pub(crate) rebalance_enabled: bool,
    pub(crate) rebalance_runs: u64,
    pub(crate) rebalance_transfers: u64,
    pub(crate) rebalance_bytes_moved: u64,
    pub(crate) arbiter_enabled: bool,
    pub(crate) arbiter_runs: u64,
    pub(crate) arbiter_transfers: u64,
    pub(crate) arbiter_bytes_moved: u64,
}

/// The accept gate's connection counters.
#[derive(Serialize)]
pub(crate) struct ConnectionsDoc {
    pub(crate) curr: u64,
    pub(crate) total: u64,
    pub(crate) rejected: u64,
    pub(crate) idle_closed: u64,
    pub(crate) max: u64,
    pub(crate) per_loop: Vec<u64>,
}

/// One event loop's ops and service-time quantiles.
#[derive(Serialize)]
pub(crate) struct LoopDoc {
    pub(crate) index: usize,
    pub(crate) local_ops: u64,
    pub(crate) remote_in: u64,
    pub(crate) remote_out: u64,
    pub(crate) slow_ops: u64,
    pub(crate) local_latency: LatencySummary,
    pub(crate) remote_latency: LatencySummary,
}

/// One tenant's aggregated counters.
#[derive(Serialize)]
pub(crate) struct TenantDoc {
    pub(crate) name: String,
    pub(crate) cmd_get: u64,
    pub(crate) cmd_set: u64,
    pub(crate) get_hits: u64,
    pub(crate) get_misses: u64,
    pub(crate) cmd_delete: u64,
    pub(crate) bytes: u64,
    pub(crate) curr_items: u64,
    pub(crate) evictions: u64,
    pub(crate) budget: u64,
    pub(crate) shadow_hits: u64,
}

/// One shard's aggregated counters and ownership.
#[derive(Serialize)]
pub(crate) struct ShardDoc {
    pub(crate) index: usize,
    pub(crate) owner_loop: usize,
    pub(crate) cmd_get: u64,
    pub(crate) get_hits: u64,
    pub(crate) bytes: u64,
    pub(crate) curr_items: u64,
    pub(crate) evictions: u64,
    pub(crate) budget: u64,
    pub(crate) shadow_hits: u64,
}

/// Data-plane totals and the control thread's own service times.
#[derive(Serialize)]
pub(crate) struct PlaneDoc {
    pub(crate) local_ops: u64,
    pub(crate) remote_ops: u64,
    pub(crate) admin_msgs: u64,
    pub(crate) idle_timeout_ms: u64,
    pub(crate) admin_latency: LatencySummary,
}

/// Server-wide service-time quantiles merged across every loop.
#[derive(Serialize)]
pub(crate) struct ServiceLatencyDoc {
    pub(crate) local: LatencySummary,
    pub(crate) remote: LatencySummary,
}

/// The flight recorder: ring facts plus the retained events, oldest first.
#[derive(Serialize)]
pub(crate) struct JournalDoc {
    pub(crate) capacity: usize,
    pub(crate) next_seq: u64,
    pub(crate) dropped: u64,
    pub(crate) events: Vec<JournalEvent>,
}

/// One probed point of a tenant's live miss-ratio curve.
#[derive(Serialize)]
pub(crate) struct MrcPointDoc {
    /// The probe as a multiple of the tenant's current budget.
    pub(crate) scale: f64,
    /// The probe in items (`scale × budget_items`).
    pub(crate) items: u64,
    /// The estimated hit rate an LRU allocation of `items` would achieve.
    pub(crate) hit_rate: f64,
}

/// One tenant's live sampled miss-ratio curve.
#[derive(Serialize)]
pub(crate) struct MrcTenantDoc {
    pub(crate) name: String,
    /// GETs offered to the estimator since boot (sampled or not).
    pub(crate) offered: u64,
    /// GETs that passed the spatial sampling gate.
    pub(crate) sampled: u64,
    /// Distinct sampled keys currently tracked, summed across loops.
    pub(crate) tracked_keys: u64,
    /// The tenant's current budget expressed in items (budget bytes over
    /// the tenant's mean live item footprint); 0 while the tenant is empty.
    pub(crate) budget_items: u64,
    /// Curve points at 0.25×/0.5×/1×/2×/4× the current budget (empty while
    /// `budget_items` is 0).
    pub(crate) points: Vec<MrcPointDoc>,
}

/// The live MRC observability section: per-tenant sampled hit-rate curves.
#[derive(Serialize)]
pub(crate) struct MrcDoc {
    /// Spatial sampling shift: each estimator profiles keys at rate
    /// `R = 2^-sample_shift`.
    pub(crate) sample_shift: u32,
    /// `R` as a fraction.
    pub(crate) sample_rate: f64,
    pub(crate) tenants: Vec<MrcTenantDoc>,
}

/// One hot-key tally: a key and its sampled windowed op count.
#[derive(Serialize, Clone)]
pub(crate) struct HotKeyEntryDoc {
    pub(crate) app: String,
    pub(crate) key: String,
    pub(crate) ops: u64,
}

/// The hot-key subsystem section: the merged sampled tracker window, the
/// currently promoted set and the mitigation counters. Present only when
/// hot-key detection is enabled, like `mrc`.
#[derive(Serialize, Clone)]
pub(crate) struct HotKeysDoc {
    /// The hottest sampled keys, merged across loops, hottest first.
    pub(crate) tracked: Vec<HotKeyEntryDoc>,
    /// Keys currently promoted into per-loop replica caches (`ops` is the
    /// merged count at the last promotion round).
    pub(crate) promoted: Vec<HotKeyEntryDoc>,
    pub(crate) promotions: u64,
    pub(crate) demotions: u64,
    /// Promotion rounds the control thread has run.
    pub(crate) rounds: u64,
    /// GETs served from a replica cache (never crossed a loop).
    pub(crate) replica_hits: u64,
    /// Replica fills accepted by non-owning loops.
    pub(crate) replica_fills: u64,
    /// Invalidation broadcasts received by non-owning loops.
    pub(crate) invalidations: u64,
}

/// One tenant's windowed rates inside one history window.
#[derive(Serialize)]
pub(crate) struct HistoryTenantDoc {
    pub(crate) name: String,
    pub(crate) ops_per_sec: f64,
    /// `null` when the window saw no GETs for the tenant.
    pub(crate) hit_rate: Option<f64>,
    pub(crate) evictions_per_sec: f64,
}

/// One differenced interval of the stats time series.
#[derive(Serialize)]
pub(crate) struct HistoryWindowDoc {
    /// Wall-clock end of the window in unix microseconds.
    pub(crate) unix_us: u64,
    /// Window length in seconds (> interval when intervals were skipped).
    pub(crate) seconds: f64,
    pub(crate) tenants: Vec<HistoryTenantDoc>,
}

/// The stats time series: the last N intervals as per-tenant rates.
#[derive(Serialize)]
pub(crate) struct HistoryDoc {
    pub(crate) interval_us: u64,
    /// Oldest window first.
    pub(crate) windows: Vec<HistoryWindowDoc>,
}

/// One budget transfer joined against the realized hit-rate trajectory.
#[derive(Serialize)]
pub(crate) struct AllocatorTransferDoc {
    pub(crate) seq: u64,
    pub(crate) at_unix_us: u64,
    /// `"shard"` (cross-shard rebalance) or `"tenant"` (arbiter).
    pub(crate) kind: String,
    /// The tenant whose hit rate the transfer was meant to raise.
    pub(crate) tenant: String,
    /// The donor tenant (tenant transfers only).
    pub(crate) donor: Option<String>,
    pub(crate) bytes: u64,
    /// The smoothed shadow-hit gradients that justified the transfer.
    pub(crate) from_gradient: f64,
    pub(crate) to_gradient: f64,
    /// The beneficiary's hit rate over the history window containing the
    /// transfer (`null` when the window is gone or saw no GETs).
    pub(crate) hit_rate_before: Option<f64>,
    /// The beneficiary's hit rate over the following window.
    pub(crate) hit_rate_after: Option<f64>,
    /// `hit_rate_after - hit_rate_before` when both exist: the *realized*
    /// effect to hold against the gradients' prediction.
    pub(crate) realized_delta: Option<f64>,
}

/// Allocator introspection: predicted-vs-realized for every journalled
/// budget transfer still inside the history horizon.
#[derive(Serialize)]
pub(crate) struct AllocatorDoc {
    /// The hit-rate comparison window (one history interval).
    pub(crate) window_us: u64,
    pub(crate) transfers: Vec<AllocatorTransferDoc>,
}

/// What the control thread observed beyond the point-in-time snapshot:
/// wall-clock anchoring, the merged per-tenant MRC estimators and the
/// merged stats time series.
pub(crate) struct ObservedPlane {
    /// Unix microseconds at plane boot (anchors journal event times).
    pub(crate) server_start_unix_us: u64,
    /// Unix microseconds when this snapshot was taken.
    pub(crate) snapshot_unix_us: u64,
    /// The configured sampling shift; `None` when live MRC is disabled.
    pub(crate) mrc_shift: Option<u32>,
    /// Merged per-tenant MRC snapshots, aligned with the tenant table.
    pub(crate) mrc: Vec<MrcSnapshot>,
    /// The merged per-loop stats time series.
    pub(crate) history: TimeSeries,
    /// The assembled hot-key section (`None` when the feature is off).
    pub(crate) hot_keys: Option<HotKeysDoc>,
}

/// The versioned `cliffhanger-stats/v1` document behind `stats json` and
/// `stats prom`. Additive evolution only: consumers pin `schema` and
/// ignore fields they do not know.
#[derive(Serialize)]
pub(crate) struct StatsDocument {
    pub(crate) schema: String,
    /// Unix microseconds at server boot.
    pub(crate) server_start: u64,
    /// Unix microseconds when this snapshot was taken.
    pub(crate) snapshot_unix_us: u64,
    /// Seconds since boot.
    pub(crate) uptime_s: u64,
    pub(crate) counters: CountersDoc,
    pub(crate) capacity: CapacityDoc,
    pub(crate) balance: BalanceDoc,
    pub(crate) connections: ConnectionsDoc,
    pub(crate) service_latency: ServiceLatencyDoc,
    pub(crate) loops: Vec<LoopDoc>,
    pub(crate) tenants: Vec<TenantDoc>,
    pub(crate) shards: Vec<ShardDoc>,
    pub(crate) plane: PlaneDoc,
    pub(crate) journal: JournalDoc,
    /// Live sampled miss-ratio curves (absent when profiling is disabled).
    pub(crate) mrc: Option<MrcDoc>,
    /// Hot-key detection and mitigation (absent when the feature is off).
    pub(crate) hot_keys: Option<HotKeysDoc>,
    /// Windowed per-tenant rate history.
    pub(crate) history: HistoryDoc,
    /// Predicted-vs-realized join of journalled budget transfers.
    pub(crate) allocator: AllocatorDoc,
}

/// The budget-multiple scales every tenant's live MRC is probed at.
const MRC_SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Builds the `mrc` section from the merged per-tenant estimator snapshots.
fn build_mrc(snap: &StatsSnapshot, r: &Rollup, observed: &ObservedPlane) -> Option<MrcDoc> {
    let shift = observed.mrc_shift?;
    let tenants = snap
        .tenant_names
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let merged = observed.mrc.get(t).cloned().unwrap_or_default();
            // The tenant's budget in items: budget bytes over the mean live
            // item footprint. No items yet means no meaningful probe sizes.
            let budget_items = if r.tenant_items[t] > 0 {
                let item_bytes = (r.tenant_used[t] / r.tenant_items[t] as u64).max(1);
                snap.tenant_budgets[t] / item_bytes
            } else {
                0
            };
            let curve = merged.to_curve();
            let points = if budget_items > 0 {
                MRC_SCALES
                    .iter()
                    .map(|&scale| {
                        let items = ((budget_items as f64 * scale).round() as u64).max(1);
                        MrcPointDoc {
                            scale,
                            items,
                            hit_rate: curve.hit_rate_at(items),
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            MrcTenantDoc {
                name: name.clone(),
                offered: merged.offered,
                sampled: merged.sampled,
                tracked_keys: merged.tracked_keys,
                budget_items,
                points,
            }
        })
        .collect();
    Some(MrcDoc {
        sample_shift: shift,
        sample_rate: 1.0 / (1u64 << shift) as f64,
        tenants,
    })
}

/// Builds the `history` section by differencing the merged time series.
fn build_history(snap: &StatsSnapshot, observed: &ObservedPlane) -> HistoryDoc {
    let interval_us = observed.history.interval_us();
    let windows = observed
        .history
        .rates()
        .iter()
        .map(|window| HistoryWindowDoc {
            unix_us: observed.server_start_unix_us + (window.index + 1) * interval_us,
            seconds: window.seconds,
            tenants: window
                .columns
                .iter()
                .enumerate()
                .filter_map(|(t, col)| {
                    snap.tenant_names.get(t).map(|name| HistoryTenantDoc {
                        name: name.clone(),
                        ops_per_sec: col.ops_per_sec,
                        hit_rate: col.hit_rate,
                        evictions_per_sec: col.evictions_per_sec,
                    })
                })
                .collect(),
        })
        .collect();
    HistoryDoc {
        interval_us,
        windows,
    }
}

/// A tenant's hit rate over the newest history window whose index satisfies
/// `pick` (used to read "the window containing t" and "the window after t").
fn tenant_hit_rate_where(
    rates: &[SeriesRates],
    tenant: usize,
    pick: impl Fn(u64) -> bool,
) -> Option<f64> {
    rates
        .iter()
        .rev()
        .find(|w| pick(w.index))
        .and_then(|w| w.columns.get(tenant))
        .and_then(|col| col.hit_rate)
}

/// Builds the `allocator` section: every journalled budget transfer joined
/// against the beneficiary tenant's realized hit rate before and after.
fn build_allocator(
    snap: &StatsSnapshot,
    observed: &ObservedPlane,
    journal: &Journal,
) -> AllocatorDoc {
    let interval_us = observed.history.interval_us();
    let rates = observed.history.rates();
    let tenant_index = |name: &str| snap.tenant_names.iter().position(|n| n == name);
    let transfers = journal
        .snapshot()
        .into_iter()
        .filter_map(|event| {
            let (kind, tenant, donor, bytes, from_gradient, to_gradient) = match &event.kind {
                EventKind::ShardTransfer {
                    tenant,
                    bytes,
                    from_gradient,
                    to_gradient,
                    ..
                } => (
                    "shard",
                    tenant.clone(),
                    None,
                    *bytes,
                    *from_gradient,
                    *to_gradient,
                ),
                EventKind::TenantTransfer {
                    from_tenant,
                    to_tenant,
                    bytes,
                    from_gradient,
                    to_gradient,
                } => (
                    "tenant",
                    to_tenant.clone(),
                    Some(from_tenant.clone()),
                    *bytes,
                    *from_gradient,
                    *to_gradient,
                ),
                _ => return None,
            };
            // Journal timestamps are monotonic micros since boot — the same
            // time base as the history bucket indices.
            let bucket = event.at_micros / interval_us;
            let (before, after) = match tenant_index(&tenant) {
                Some(t) => (
                    tenant_hit_rate_where(&rates, t, |i| i <= bucket),
                    // Oldest window strictly after the transfer: rates are
                    // sorted, so re-scan forward for the minimum match.
                    rates
                        .iter()
                        .find(|w| w.index > bucket)
                        .and_then(|w| w.columns.get(t))
                        .and_then(|col| col.hit_rate),
                ),
                None => (None, None),
            };
            Some(AllocatorTransferDoc {
                seq: event.seq,
                at_unix_us: observed.server_start_unix_us + event.at_micros,
                kind: kind.to_string(),
                tenant,
                donor,
                bytes,
                from_gradient,
                to_gradient,
                hit_rate_before: before,
                hit_rate_after: after,
                realized_delta: match (before, after) {
                    (Some(b), Some(a)) => Some(a - b),
                    _ => None,
                },
            })
        })
        .collect();
    AllocatorDoc {
        window_us: interval_us,
        transfers,
    }
}

/// Assembles the machine-readable stats document from the same inputs the
/// text renderer uses, plus the per-loop latency telemetry, the journal and
/// the observability plane (wall clock, MRC estimators, time series).
pub(crate) fn build_document(
    snap: &StatsSnapshot,
    conns: &ConnTelemetry,
    plane: &PlaneStats,
    loops: &[LoopTelemetry],
    admin_latency: &Histogram,
    journal: &Journal,
    observed: &ObservedPlane,
) -> StatsDocument {
    let r = rollup(snap);
    let nt = snap.tenant_names.len();
    let ns = snap.cells.len();
    let mut local_merged = Histogram::new();
    let mut remote_merged = Histogram::new();
    for tel in loops {
        local_merged.merge(&tel.local);
        remote_merged.merge(&tel.remote);
    }
    let mrc = build_mrc(snap, &r, observed);
    let history = build_history(snap, observed);
    let allocator = build_allocator(snap, observed, journal);
    StatsDocument {
        schema: STATS_SCHEMA.to_string(),
        server_start: observed.server_start_unix_us,
        snapshot_unix_us: observed.snapshot_unix_us,
        uptime_s: snap.uptime_s,
        counters: CountersDoc {
            cmd_get: r.totals.gets,
            cmd_set: r.totals.sets,
            get_hits: r.totals.hits,
            get_misses: r.totals.misses,
            cmd_delete: r.totals.deletes,
            bytes: r.used,
            curr_items: r.items as u64,
            evictions: r.core_total.evictions,
            slow_ops: plane.slow_ops,
        },
        capacity: CapacityDoc {
            limit_maxbytes: snap.total_bytes,
            allocator: format!("{:?}", snap.mode).to_lowercase(),
            shard_count: ns,
            shards_requested: snap.requested_shards,
            tenant_count: nt,
            event_loops: plane.per_loop.len(),
        },
        balance: BalanceDoc {
            rebalance_enabled: snap.balance.rebalance_enabled,
            rebalance_runs: snap.balance.rebalance_runs,
            rebalance_transfers: snap.balance.rebalance_transfers,
            rebalance_bytes_moved: snap.balance.rebalance_bytes,
            arbiter_enabled: snap.balance.arbiter_enabled,
            arbiter_runs: snap.balance.arbiter_runs,
            arbiter_transfers: snap.balance.arbiter_transfers,
            arbiter_bytes_moved: snap.balance.arbiter_bytes,
        },
        connections: ConnectionsDoc {
            curr: conns.curr(),
            total: conns.total(),
            rejected: conns.rejected(),
            idle_closed: conns.idle_closed(),
            max: conns.max_connections(),
            per_loop: (0..conns.loops()).map(|i| conns.loop_curr(i)).collect(),
        },
        service_latency: ServiceLatencyDoc {
            local: local_merged.summarize_us(),
            remote: remote_merged.summarize_us(),
        },
        loops: loops
            .iter()
            .enumerate()
            .map(|(i, tel)| {
                let (local_ops, remote_in, remote_out) =
                    plane.per_loop.get(i).copied().unwrap_or((0, 0, 0));
                LoopDoc {
                    index: i,
                    local_ops,
                    remote_in,
                    remote_out,
                    slow_ops: tel.slow_ops,
                    local_latency: tel.local.summarize_us(),
                    remote_latency: tel.remote.summarize_us(),
                }
            })
            .collect(),
        tenants: (0..nt)
            .map(|t| TenantDoc {
                name: snap.tenant_names[t].clone(),
                cmd_get: r.tenant_wire[t].gets,
                cmd_set: r.tenant_wire[t].sets,
                get_hits: r.tenant_wire[t].hits,
                get_misses: r.tenant_wire[t].misses,
                cmd_delete: r.tenant_wire[t].deletes,
                bytes: r.tenant_used[t],
                curr_items: r.tenant_items[t] as u64,
                evictions: r.tenant_core[t].evictions,
                budget: snap.tenant_budgets[t],
                shadow_hits: r.tenant_core[t].shadow_hits,
            })
            .collect(),
        shards: (0..ns)
            .map(|s| ShardDoc {
                index: s,
                owner_loop: plane.owner_of.get(s).copied().unwrap_or(0),
                cmd_get: r.shard_wire[s].gets,
                get_hits: r.shard_wire[s].hits,
                bytes: r.shard_used[s],
                curr_items: r.shard_items[s] as u64,
                evictions: r.shard_core[s].evictions,
                budget: snap.shard_budgets[s],
                shadow_hits: r.shard_core[s].shadow_hits,
            })
            .collect(),
        plane: PlaneDoc {
            local_ops: plane.per_loop.iter().map(|l| l.0).sum(),
            remote_ops: plane.per_loop.iter().map(|l| l.1).sum(),
            admin_msgs: plane.admin_msgs,
            idle_timeout_ms: plane.idle_timeout_ms,
            admin_latency: admin_latency.summarize_us(),
        },
        journal: JournalDoc {
            capacity: journal.capacity(),
            next_seq: journal.next_seq(),
            dropped: journal.dropped(),
            events: journal.snapshot(),
        },
        mrc,
        hot_keys: observed.hot_keys.clone(),
        history,
        allocator,
    }
}

/// Renders the document as one line of JSON (the `stats json` payload).
pub(crate) fn render_json(doc: &StatsDocument) -> String {
    serde_json::to_string(doc).expect("stats document serialisation cannot fail")
}

/// Escapes a Prometheus label value: backslash, double quote and newline
/// must be backslash-escaped per the text exposition format. Tenant names
/// are operator-chosen ASCII-graphic strings, so `"` and `\` are legal in
/// them and *must* round-trip.
fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Appends one Prometheus metric with `# TYPE` metadata.
fn prom_metric(out: &mut String, name: &str, kind: &str, lines: &[(String, String)]) {
    out.push_str(&format!("# TYPE {name} {kind}\n"));
    for (labels, value) in lines {
        if labels.is_empty() {
            out.push_str(&format!("{name} {value}\n"));
        } else {
            out.push_str(&format!("{name}{{{labels}}} {value}\n"));
        }
    }
}

/// Quantile label/value pairs for one latency summary, in microseconds.
fn prom_quantiles(class: &str, latency: &LatencySummary) -> Vec<(String, String)> {
    [
        ("0.5", latency.p50_us),
        ("0.9", latency.p90_us),
        ("0.99", latency.p99_us),
        ("0.999", latency.p999_us),
    ]
    .iter()
    .map(|(q, v)| (format!("class=\"{class}\",quantile=\"{q}\""), v.to_string()))
    .collect()
}

/// Renders the document in Prometheus text exposition format (the
/// `stats prom` payload). Same source document as the JSON rendering.
pub(crate) fn render_prom(doc: &StatsDocument) -> String {
    let mut out = String::new();
    let c = &doc.counters;
    for (name, value) in [
        ("cliffhanger_cmd_get_total", c.cmd_get),
        ("cliffhanger_cmd_set_total", c.cmd_set),
        ("cliffhanger_get_hits_total", c.get_hits),
        ("cliffhanger_get_misses_total", c.get_misses),
        ("cliffhanger_cmd_delete_total", c.cmd_delete),
        ("cliffhanger_evictions_total", c.evictions),
        ("cliffhanger_slow_ops_total", c.slow_ops),
    ] {
        prom_metric(
            &mut out,
            name,
            "counter",
            &[(String::new(), value.to_string())],
        );
    }
    for (name, value) in [
        ("cliffhanger_bytes_used", c.bytes),
        ("cliffhanger_curr_items", c.curr_items),
        ("cliffhanger_limit_maxbytes", doc.capacity.limit_maxbytes),
        ("cliffhanger_shard_count", doc.capacity.shard_count as u64),
        ("cliffhanger_tenant_count", doc.capacity.tenant_count as u64),
        ("cliffhanger_event_loops", doc.capacity.event_loops as u64),
        ("cliffhanger_uptime_seconds", doc.uptime_s),
    ] {
        prom_metric(
            &mut out,
            name,
            "gauge",
            &[(String::new(), value.to_string())],
        );
    }
    for (name, value) in [
        (
            "cliffhanger_rebalance_transfers_total",
            doc.balance.rebalance_transfers,
        ),
        (
            "cliffhanger_rebalance_bytes_moved_total",
            doc.balance.rebalance_bytes_moved,
        ),
        (
            "cliffhanger_arbiter_transfers_total",
            doc.balance.arbiter_transfers,
        ),
        (
            "cliffhanger_arbiter_bytes_moved_total",
            doc.balance.arbiter_bytes_moved,
        ),
    ] {
        prom_metric(
            &mut out,
            name,
            "counter",
            &[(String::new(), value.to_string())],
        );
    }
    let conns = &doc.connections;
    prom_metric(
        &mut out,
        "cliffhanger_connections",
        "gauge",
        &[(String::new(), conns.curr.to_string())],
    );
    prom_metric(
        &mut out,
        "cliffhanger_connections_total",
        "counter",
        &[(String::new(), conns.total.to_string())],
    );
    prom_metric(
        &mut out,
        "cliffhanger_connections_rejected_total",
        "counter",
        &[(String::new(), conns.rejected.to_string())],
    );
    prom_metric(
        &mut out,
        "cliffhanger_connections_idle_closed_total",
        "counter",
        &[(String::new(), conns.idle_closed.to_string())],
    );
    let mut latency_lines = prom_quantiles("local", &doc.service_latency.local);
    latency_lines.extend(prom_quantiles("remote", &doc.service_latency.remote));
    latency_lines.extend(prom_quantiles("admin", &doc.plane.admin_latency));
    prom_metric(
        &mut out,
        "cliffhanger_service_time_microseconds",
        "summary",
        &latency_lines,
    );
    let loop_ops: Vec<(String, String)> = doc
        .loops
        .iter()
        .flat_map(|l| {
            [
                (
                    format!("loop=\"{}\",kind=\"local\"", l.index),
                    l.local_ops.to_string(),
                ),
                (
                    format!("loop=\"{}\",kind=\"remote_in\"", l.index),
                    l.remote_in.to_string(),
                ),
                (
                    format!("loop=\"{}\",kind=\"remote_out\"", l.index),
                    l.remote_out.to_string(),
                ),
            ]
        })
        .collect();
    prom_metric(&mut out, "cliffhanger_loop_ops_total", "counter", &loop_ops);
    let tenant_bytes: Vec<(String, String)> = doc
        .tenants
        .iter()
        .map(|t| {
            (
                format!("tenant=\"{}\"", prom_escape_label(&t.name)),
                t.bytes.to_string(),
            )
        })
        .collect();
    prom_metric(
        &mut out,
        "cliffhanger_tenant_bytes_used",
        "gauge",
        &tenant_bytes,
    );
    let tenant_budget: Vec<(String, String)> = doc
        .tenants
        .iter()
        .map(|t| {
            (
                format!("tenant=\"{}\"", prom_escape_label(&t.name)),
                t.budget.to_string(),
            )
        })
        .collect();
    prom_metric(
        &mut out,
        "cliffhanger_tenant_budget_bytes",
        "gauge",
        &tenant_budget,
    );
    // Per-tenant wire series under an `app` label (the `app <name>` command
    // namespace), so one Grafana variable covers every hosted application.
    let app_lines = |value: fn(&TenantDoc) -> u64| -> Vec<(String, String)> {
        doc.tenants
            .iter()
            .map(|t| {
                (
                    format!("app=\"{}\"", prom_escape_label(&t.name)),
                    value(t).to_string(),
                )
            })
            .collect()
    };
    prom_metric(
        &mut out,
        "cliffhanger_tenant_cmd_get",
        "counter",
        &app_lines(|t| t.cmd_get),
    );
    prom_metric(
        &mut out,
        "cliffhanger_tenant_get_hits",
        "counter",
        &app_lines(|t| t.get_hits),
    );
    prom_metric(
        &mut out,
        "cliffhanger_tenant_bytes",
        "gauge",
        &app_lines(|t| t.bytes),
    );
    prom_metric(
        &mut out,
        "cliffhanger_tenant_budget",
        "gauge",
        &app_lines(|t| t.budget),
    );
    if let Some(mrc) = &doc.mrc {
        let lines: Vec<(String, String)> = mrc
            .tenants
            .iter()
            .flat_map(|t| {
                let app = prom_escape_label(&t.name);
                t.points
                    .iter()
                    .map(|p| {
                        (
                            format!("app=\"{app}\",scale=\"{}\"", p.scale),
                            format!("{:.6}", p.hit_rate),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        if !lines.is_empty() {
            prom_metric(&mut out, "cliffhanger_tenant_mrc_hit_rate", "gauge", &lines);
        }
    }
    if let Some(hot) = &doc.hot_keys {
        let lines: Vec<(String, String)> = hot
            .tracked
            .iter()
            .map(|e| {
                (
                    format!(
                        "app=\"{}\",key=\"{}\"",
                        prom_escape_label(&e.app),
                        prom_escape_label(&e.key)
                    ),
                    e.ops.to_string(),
                )
            })
            .collect();
        if !lines.is_empty() {
            prom_metric(&mut out, "cliffhanger_hot_key_ops", "gauge", &lines);
        }
        prom_metric(
            &mut out,
            "cliffhanger_hot_keys_promoted",
            "gauge",
            &[(String::new(), hot.promoted.len().to_string())],
        );
        for (name, value) in [
            ("cliffhanger_hot_key_promotions_total", hot.promotions),
            ("cliffhanger_hot_key_demotions_total", hot.demotions),
            ("cliffhanger_hot_key_replica_hits_total", hot.replica_hits),
            ("cliffhanger_hot_key_replica_fills_total", hot.replica_fills),
            ("cliffhanger_hot_key_invalidations_total", hot.invalidations),
        ] {
            prom_metric(
                &mut out,
                name,
                "counter",
                &[(String::new(), value.to_string())],
            );
        }
    }
    prom_metric(
        &mut out,
        "cliffhanger_journal_events_total",
        "counter",
        &[(String::new(), doc.journal.next_seq.to_string())],
    );
    out
}
