//! The `stats` model: one document, three expositions.
//!
//! The holder of the data plane's control lock copies the shards' cells;
//! [`build_document`] assembles from them, the loops' ledgers, the plane's
//! configuration, the tenants' names and the rate history the one versioned
//! [`StatsDocument`] (`cliffhanger-stats/v1`) —
//! counters, per-loop service-time quantiles, the flight-recorder journal,
//! live MRCs — and the control state adds its own counters. Every
//! `stats` command builds it once, and the three renderers are pure
//! functions of it: [`render_stats`] (the memcached `STAT` list, whose key
//! names and order `tests/stats_keys.rs` pins), [`render_json`] and
//! [`render_prom`]. They cannot disagree, and a new fact is added once.

use crate::plane::PlaneShared;
use cache_core::{CacheStats, Footprint, ITEM_OVERHEAD};
use parking_lot::Mutex;
use profiler::MrcSnapshot;
use serde::Serialize;
use std::sync::atomic::Ordering;
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
    pub(crate) budget: u64,
    pub(crate) used: u64,
    pub(crate) items: usize,
    pub(crate) footprint: Footprint,
}

/// The `(shard, tenant)` engine cells summed server-wide, per tenant and
/// per shard — the one accumulation the document is built from.
struct Rollup {
    total: EngineStat,
    tenants: Vec<EngineStat>,
    shards: Vec<EngineStat>,
}

fn rollup(nt: usize, ns: usize, engines: &[Vec<EngineStat>]) -> Rollup {
    let mut r = Rollup {
        total: EngineStat::default(),
        tenants: vec![EngineStat::default(); nt],
        shards: vec![EngineStat::default(); ns],
    };
    for (s, cells) in engines.iter().enumerate().take(ns) {
        for (t, cell) in cells.iter().enumerate().take(nt) {
            for sum in [&mut r.total, &mut r.tenants[t], &mut r.shards[s]] {
                sum.wire.accumulate(cell.wire);
                sum.core += cell.core;
                sum.budget += cell.budget;
                sum.used += cell.used;
                sum.items += cell.items;
                sum.footprint += cell.footprint;
            }
        }
    }
    r
}

// ---------------------------------------------------------------------------
// The document.
// ---------------------------------------------------------------------------

/// Server-wide wire counters.
#[derive(Default, Serialize)]
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

/// Real bytes beside the accounted ones (`counters.bytes`): what the
/// process holds resident, for how many items of how many key and data
/// bytes — so bytes per resident item are a subtraction away.
#[derive(Default, Serialize)]
pub(crate) struct ProcessDoc {
    /// `VmRSS` of `/proc/self/status`; 0 where there is no such file.
    pub(crate) rss_bytes: u64,
    pub(crate) items: u64,
    /// Key and data bytes of the resident items: `counters.bytes` less the
    /// per-item overhead the queues charge on top.
    pub(crate) item_payload_bytes: u64,
    /// Capacity times element size, summed over every engine: the key
    /// indexes, the physical queues' arenas, the shadow structures.
    pub(crate) index_bytes: u64,
    pub(crate) queue_bytes: u64,
    pub(crate) shadow_bytes: u64,
}

/// The process's resident set in bytes, as `benchmark/` reads its `rss_mb`.
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|line| line.strip_prefix("VmRSS:"));
    let kb = line.and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok());
    kb.unwrap_or(0) << 10
}

/// Static capacity and topology facts.
#[derive(Default, Serialize)]
pub(crate) struct CapacityDoc {
    pub(crate) limit_maxbytes: u64,
    pub(crate) allocator: String,
    pub(crate) shard_count: usize,
    pub(crate) shards_requested: usize,
    pub(crate) tenant_count: usize,
    pub(crate) event_loops: usize,
}

/// Round counters of the two balancing levels.
#[derive(Clone, Copy, Default, Serialize)]
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
#[derive(Default, Serialize)]
pub(crate) struct ConnectionsDoc {
    pub(crate) curr: u64,
    pub(crate) total: u64,
    pub(crate) rejected: u64,
    pub(crate) idle_closed: u64,
    pub(crate) max: u64,
    pub(crate) per_loop: Vec<u64>,
}

/// One event loop's ops and service-time quantiles: `local_*` for the ops
/// it ran on shards homed on it, `remote_*` for those on shards homed on
/// another loop.
#[derive(Serialize)]
pub(crate) struct LoopDoc {
    pub(crate) index: usize,
    pub(crate) local_ops: u64,
    /// Always 0: no loop runs ops for another since every loop serves every
    /// shard; kept so the `cliffhanger-stats/v1` key set does not change.
    pub(crate) remote_in: u64,
    pub(crate) remote_out: u64,
    pub(crate) slow_ops: u64,
    pub(crate) local_latency: LatencySummary,
    pub(crate) remote_latency: LatencySummary,
}

/// The ten per-engine counters a tenant's and a shard's section share.
#[derive(Default, Serialize)]
pub(crate) struct EngineDoc {
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

impl EngineDoc {
    fn new(sum: &EngineStat) -> EngineDoc {
        EngineDoc {
            cmd_get: sum.wire.gets,
            cmd_set: sum.wire.sets,
            get_hits: sum.wire.hits,
            get_misses: sum.wire.misses,
            cmd_delete: sum.wire.deletes,
            bytes: sum.used,
            curr_items: sum.items as u64,
            evictions: sum.core.evictions,
            budget: sum.budget,
            shadow_hits: sum.core.shadow_hits,
        }
    }
}

/// One tenant's aggregated counters.
#[derive(Default, Serialize)]
pub(crate) struct TenantDoc {
    pub(crate) name: String,
    #[serde(flatten)]
    pub(crate) engine: EngineDoc,
}

/// One shard's aggregated counters and home loop.
#[derive(Serialize)]
pub(crate) struct ShardDoc {
    pub(crate) index: usize,
    /// The shard's home loop (`shard % loops`).
    pub(crate) owner_loop: usize,
    #[serde(flatten)]
    pub(crate) engine: EngineDoc,
}

/// Data-plane totals and the admin commands' own service times.
#[derive(Default, Serialize)]
pub(crate) struct PlaneDoc {
    pub(crate) local_ops: u64,
    pub(crate) remote_ops: u64,
    pub(crate) admin_msgs: u64,
    pub(crate) idle_timeout_ms: u64,
    pub(crate) admin_latency: LatencySummary,
}

/// Server-wide service-time quantiles merged across every loop.
#[derive(Default, Serialize)]
pub(crate) struct ServiceLatencyDoc {
    pub(crate) local: LatencySummary,
    pub(crate) remote: LatencySummary,
}

/// The flight recorder: ring facts plus the retained events, oldest first.
#[derive(Default, Serialize)]
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
#[derive(Default, Serialize)]
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
#[derive(Default, Serialize)]
pub(crate) struct AllocatorDoc {
    /// The hit-rate comparison window (one history interval).
    pub(crate) window_us: u64,
    pub(crate) transfers: Vec<AllocatorTransferDoc>,
}

/// The versioned `cliffhanger-stats/v1` document behind `stats json` and
/// `stats prom`. Additive evolution only: consumers pin `schema` and
/// ignore fields they do not know.
#[derive(Default, Serialize)]
pub(crate) struct StatsDocument {
    pub(crate) schema: String,
    /// Unix microseconds at server boot.
    pub(crate) server_start: u64,
    /// Unix microseconds when this snapshot was taken.
    pub(crate) snapshot_unix_us: u64,
    /// Seconds since boot.
    pub(crate) uptime_s: u64,
    pub(crate) counters: CountersDoc,
    pub(crate) process: ProcessDoc,
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
    /// Always `null`: kept so the `cliffhanger-stats/v1` key set consumers
    /// pin does not change.
    pub(crate) hot_keys: Option<serde::Value>,
    /// Windowed per-tenant rate history.
    pub(crate) history: HistoryDoc,
    /// Predicted-vs-realized join of journalled budget transfers.
    pub(crate) allocator: AllocatorDoc,
}

/// The budget-multiple scales every tenant's live MRC is probed at.
const MRC_SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Builds the `mrc` section from each tenant's estimator snapshots merged
/// across the shards; `None` when live MRC sampling (`shift`) is off.
fn build_mrc(
    shift: Option<u32>,
    names: &[String],
    r: &Rollup,
    mrc: &[MrcSnapshot],
) -> Option<MrcDoc> {
    let shift = shift?;
    let tenants = names
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let merged = mrc.get(t).cloned().unwrap_or_default();
            // The tenant's budget in items: budget bytes over the mean live
            // item footprint. No items yet means no meaningful probe sizes.
            let budget_items = if r.tenants[t].items > 0 {
                let item_bytes = (r.tenants[t].used / r.tenants[t].items as u64).max(1);
                r.tenants[t].budget / item_bytes
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
fn build_history(start_unix_us: u64, names: &[String], history: &TimeSeries) -> HistoryDoc {
    let interval_us = history.interval_us();
    let windows = history
        .rates()
        .iter()
        .map(|window| HistoryWindowDoc {
            unix_us: start_unix_us + (window.index + 1) * interval_us,
            seconds: window.seconds,
            tenants: window
                .columns
                .iter()
                .enumerate()
                .filter_map(|(t, col)| {
                    names.get(t).map(|name| HistoryTenantDoc {
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
    start_unix_us: u64,
    names: &[String],
    history: &TimeSeries,
    journal: &Journal,
) -> AllocatorDoc {
    let interval_us = history.interval_us();
    let rates = history.rates();
    let tenant_index = |name: &str| names.iter().position(|n| n == name);
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
                at_unix_us: start_unix_us + event.at_micros,
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

/// Assembles the stats document from the plane's configuration, journal
/// and loop ledgers, the tenants' names, the cells (`[shard][tenant]`
/// engine stats, budgets included, and per tenant the merged MRC
/// estimators) and the rate history. The balancing and admin counters are
/// left at their defaults: they are the control state's, and it sets them.
pub(crate) fn build_document(
    shared: &PlaneShared,
    names: &[String],
    (engines, mrc): (&[Vec<EngineStat>], &[MrcSnapshot]),
    history: &TimeSeries,
    start_unix_us: u64,
) -> StatsDocument {
    let (nt, ns) = (names.len(), shared.shards);
    let r = rollup(nt, ns, engines);
    let (config, journal, conns) = (&shared.config, &shared.journal, &shared.telemetry);
    let mut local_merged = Histogram::new();
    let mut remote_merged = Histogram::new();
    // Each histogram's latch is taken alone, with no shard lock held.
    let summarize = |latency: &Mutex<Histogram>, merged: &mut Histogram| {
        let latency = latency.lock();
        merged.merge(&latency);
        latency.summarize_us()
    };
    let loops: Vec<LoopDoc> = (0..conns.loops())
        .map(|index| {
            let ledger = conns.ledger(index);
            LoopDoc {
                index,
                local_ops: ledger.local_ops.load(Ordering::Relaxed),
                remote_in: 0,
                remote_out: ledger.remote_out.load(Ordering::Relaxed),
                slow_ops: ledger.slow_ops.load(Ordering::Relaxed),
                local_latency: summarize(&ledger.local_latency, &mut local_merged),
                remote_latency: summarize(&ledger.remote_latency, &mut remote_merged),
            }
        })
        .collect();
    let mrc = build_mrc(config.mrc_shift(), names, &r, mrc);
    let allocator = build_allocator(start_unix_us, names, history, journal);
    let history = build_history(start_unix_us, names, history);
    let elapsed = shared.started.elapsed();
    StatsDocument {
        schema: STATS_SCHEMA.to_string(),
        server_start: start_unix_us,
        snapshot_unix_us: start_unix_us + elapsed.as_micros() as u64,
        uptime_s: elapsed.as_secs(),
        counters: CountersDoc {
            cmd_get: r.total.wire.gets,
            cmd_set: r.total.wire.sets,
            get_hits: r.total.wire.hits,
            get_misses: r.total.wire.misses,
            cmd_delete: r.total.wire.deletes,
            bytes: r.total.used,
            curr_items: r.total.items as u64,
            evictions: r.total.core.evictions,
            slow_ops: loops.iter().map(|l| l.slow_ops).sum(),
        },
        process: ProcessDoc {
            rss_bytes: resident_bytes(),
            items: r.total.items as u64,
            item_payload_bytes: r.total.used - r.total.items as u64 * ITEM_OVERHEAD,
            index_bytes: r.total.footprint.index,
            queue_bytes: r.total.footprint.queues,
            shadow_bytes: r.total.footprint.shadows,
        },
        capacity: CapacityDoc {
            limit_maxbytes: config.total_bytes,
            allocator: format!("{:?}", config.mode).to_lowercase(),
            shard_count: ns,
            shards_requested: config.requested_shards(),
            tenant_count: nt,
            event_loops: loops.len(),
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
        plane: PlaneDoc {
            local_ops: loops.iter().map(|l| l.local_ops).sum(),
            remote_ops: loops.iter().map(|l| l.remote_out).sum(),
            ..PlaneDoc::default()
        },
        loops,
        tenants: (0..nt)
            .map(|t| TenantDoc {
                name: names[t].clone(),
                engine: EngineDoc::new(&r.tenants[t]),
            })
            .collect(),
        shards: (0..ns)
            .map(|s| ShardDoc {
                index: s,
                owner_loop: shared.home_of(s),
                engine: EngineDoc::new(&r.shards[s]),
            })
            .collect(),
        journal: JournalDoc {
            capacity: journal.capacity(),
            next_seq: journal.next_seq(),
            dropped: journal.dropped(),
            events: journal.snapshot(),
        },
        mrc,
        history,
        allocator,
        ..StatsDocument::default()
    }
}

fn stat(out: &mut Vec<(String, String)>, key: impl Into<String>, value: impl ToString) {
    out.push((key.into(), value.to_string()));
}

/// The ten per-engine keys a `tenant:<name>` and a `shard:<n>` section share.
fn engine_stats(out: &mut Vec<(String, String)>, prefix: &str, e: &EngineDoc) {
    let values = [
        ("cmd_get", e.cmd_get),
        ("cmd_set", e.cmd_set),
        ("get_hits", e.get_hits),
        ("get_misses", e.get_misses),
        ("cmd_delete", e.cmd_delete),
        ("bytes", e.bytes),
        ("curr_items", e.curr_items),
        ("evictions", e.evictions),
        ("budget", e.budget),
        ("shadow_hits", e.shadow_hits),
    ];
    for (key, value) in values {
        stat(out, format!("{prefix}:{key}"), value);
    }
}

/// Renders the document as the memcached `STAT` key/value list (the text
/// `stats` payload): aggregated counters, allocation-hierarchy counters,
/// the connection section, then per-tenant and per-shard breakdowns, the
/// data-plane section, then the process section.
pub(crate) fn render_stats(doc: &StatsDocument) -> Vec<(String, String)> {
    let (c, cap, b) = (&doc.counters, &doc.capacity, &doc.balance);
    let (conns, plane) = (&doc.connections, &doc.plane);
    let mut out = Vec::new();
    for (key, value) in [
        ("cmd_get", c.cmd_get),
        ("cmd_set", c.cmd_set),
        ("get_hits", c.get_hits),
        ("get_misses", c.get_misses),
        ("cmd_delete", c.cmd_delete),
        ("bytes", c.bytes),
        ("curr_items", c.curr_items),
        ("evictions", c.evictions),
        ("uptime", doc.uptime_s),
        ("limit_maxbytes", cap.limit_maxbytes),
    ] {
        stat(&mut out, key, value);
    }
    stat(&mut out, "allocator", &cap.allocator);
    for (key, value) in [
        ("shard_count", cap.shard_count as u64),
        ("shards_requested", cap.shards_requested as u64),
        (
            "shard_bytes",
            cap.limit_maxbytes / cap.shard_count.max(1) as u64,
        ),
        ("tenant_count", cap.tenant_count as u64),
        ("rebalance:enabled", b.rebalance_enabled as u64),
        ("rebalance:runs", b.rebalance_runs),
        ("rebalance:transfers", b.rebalance_transfers),
        ("rebalance:bytes_moved", b.rebalance_bytes_moved),
        ("arbiter:enabled", b.arbiter_enabled as u64),
        ("arbiter:runs", b.arbiter_runs),
        ("arbiter:transfers", b.arbiter_transfers),
        ("arbiter:bytes_moved", b.arbiter_bytes_moved),
        ("curr_connections", conns.curr),
        ("total_connections", conns.total),
        ("rejected_connections", conns.rejected),
        ("max_connections", conns.max),
    ] {
        stat(&mut out, key, value);
    }
    for (i, curr) in conns.per_loop.iter().enumerate() {
        stat(&mut out, format!("conns:loop:{i}"), curr);
    }
    stat(&mut out, "idle_closed_connections", conns.idle_closed);
    for t in &doc.tenants {
        engine_stats(&mut out, &format!("tenant:{}", t.name), &t.engine);
    }
    for s in &doc.shards {
        engine_stats(&mut out, &format!("shard:{}", s.index), &s.engine);
    }
    for (key, value) in [
        ("plane:event_loops", cap.event_loops as u64),
        ("plane:local_ops", plane.local_ops),
        ("plane:remote_ops", plane.remote_ops),
        ("plane:admin_msgs", plane.admin_msgs),
        ("plane:idle_timeout_ms", plane.idle_timeout_ms),
        ("plane:slow_ops", c.slow_ops),
    ] {
        stat(&mut out, key, value);
    }
    for l in &doc.loops {
        stat(&mut out, format!("loop:{}:local_ops", l.index), l.local_ops);
        stat(&mut out, format!("loop:{}:remote_in", l.index), l.remote_in);
        stat(
            &mut out,
            format!("loop:{}:remote_out", l.index),
            l.remote_out,
        );
    }
    for s in &doc.shards {
        stat(
            &mut out,
            format!("shard:{}:owner_loop", s.index),
            s.owner_loop,
        );
    }
    for (key, value) in [
        ("process:rss_bytes", doc.process.rss_bytes),
        ("process:items", doc.process.items),
        ("process:item_payload_bytes", doc.process.item_payload_bytes),
        ("process:index_bytes", doc.process.index_bytes),
        ("process:queue_bytes", doc.process.queue_bytes),
        ("process:shadow_bytes", doc.process.shadow_bytes),
    ] {
        stat(&mut out, key, value);
    }
    out
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

/// Appends one metric that is a single unlabelled sample.
fn prom_scalar(out: &mut String, name: &str, kind: &str, value: impl ToString) {
    prom_metric(out, name, kind, &[(String::new(), value.to_string())]);
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
        prom_scalar(&mut out, name, "counter", value);
    }
    for (name, value) in [
        ("cliffhanger_bytes_used", c.bytes),
        ("cliffhanger_curr_items", c.curr_items),
        ("cliffhanger_limit_maxbytes", doc.capacity.limit_maxbytes),
        ("cliffhanger_shard_count", doc.capacity.shard_count as u64),
        ("cliffhanger_tenant_count", doc.capacity.tenant_count as u64),
        ("cliffhanger_event_loops", doc.capacity.event_loops as u64),
        ("cliffhanger_uptime_seconds", doc.uptime_s),
        ("cliffhanger_process_rss_bytes", doc.process.rss_bytes),
        ("cliffhanger_items", doc.process.items),
        (
            "cliffhanger_item_payload_bytes",
            doc.process.item_payload_bytes,
        ),
        ("cliffhanger_process_index_bytes", doc.process.index_bytes),
        ("cliffhanger_process_queue_bytes", doc.process.queue_bytes),
        ("cliffhanger_process_shadow_bytes", doc.process.shadow_bytes),
    ] {
        prom_scalar(&mut out, name, "gauge", value);
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
        prom_scalar(&mut out, name, "counter", value);
    }
    let conns = &doc.connections;
    for (name, kind, value) in [
        ("cliffhanger_connections", "gauge", conns.curr),
        ("cliffhanger_connections_total", "counter", conns.total),
        (
            "cliffhanger_connections_rejected_total",
            "counter",
            conns.rejected,
        ),
        (
            "cliffhanger_connections_idle_closed_total",
            "counter",
            conns.idle_closed,
        ),
    ] {
        prom_scalar(&mut out, name, kind, value);
    }
    let mut latency_lines = prom_quantiles("local", &doc.service_latency.local);
    latency_lines.extend(prom_quantiles("remote", &doc.service_latency.remote));
    latency_lines.extend(prom_quantiles("admin", &doc.plane.admin_latency));
    prom_metric(
        &mut out,
        "cliffhanger_service_time_microseconds",
        "summary",
        &latency_lines,
    );
    let loop_ops = |l: &LoopDoc| {
        let kinds = [
            ("local", l.local_ops),
            ("remote_in", l.remote_in),
            ("remote_out", l.remote_out),
        ];
        kinds.map(|(kind, ops)| {
            (
                format!("loop=\"{}\",kind=\"{kind}\"", l.index),
                ops.to_string(),
            )
        })
    };
    let loop_ops: Vec<(String, String)> = doc.loops.iter().flat_map(loop_ops).collect();
    prom_metric(&mut out, "cliffhanger_loop_ops_total", "counter", &loop_ops);
    // Per-tenant series: memory under a `tenant` label, and the wire series
    // under an `app` label (the `app <name>` command namespace), so one
    // Grafana variable covers every hosted application.
    let mut per_tenant = |name: &str, kind: &str, label: &str, value: fn(&TenantDoc) -> u64| {
        let line = |t: &TenantDoc| {
            let labels = format!("{label}=\"{}\"", prom_escape_label(&t.name));
            (labels, value(t).to_string())
        };
        let lines: Vec<(String, String)> = doc.tenants.iter().map(line).collect();
        prom_metric(&mut out, name, kind, &lines);
    };
    per_tenant("cliffhanger_tenant_bytes_used", "gauge", "tenant", |t| {
        t.engine.bytes
    });
    per_tenant("cliffhanger_tenant_budget_bytes", "gauge", "tenant", |t| {
        t.engine.budget
    });
    per_tenant("cliffhanger_tenant_cmd_get", "counter", "app", |t| {
        t.engine.cmd_get
    });
    per_tenant("cliffhanger_tenant_get_hits", "counter", "app", |t| {
        t.engine.get_hits
    });
    per_tenant("cliffhanger_tenant_bytes", "gauge", "app", |t| {
        t.engine.bytes
    });
    per_tenant("cliffhanger_tenant_budget", "gauge", "app", |t| {
        t.engine.budget
    });
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
    prom_scalar(
        &mut out,
        "cliffhanger_journal_events_total",
        "counter",
        doc.journal.next_seq,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Tenant names are operator-chosen ASCII-graphic strings, so `"` and
    /// `\` are legal in them: each renderer must carry one through, in its
    /// own quoting.
    #[test]
    fn a_quote_and_backslash_in_a_tenant_name_survive_every_renderer() {
        let name = r#"a"b\c"#;
        let doc = StatsDocument {
            schema: STATS_SCHEMA.to_string(),
            tenants: vec![TenantDoc {
                name: name.to_string(),
                engine: EngineDoc {
                    cmd_get: 7,
                    budget: 9,
                    ..EngineDoc::default()
                },
            }],
            ..StatsDocument::default()
        };
        let text = render_stats(&doc);
        assert!(text.contains(&(format!("tenant:{name}:cmd_get"), "7".to_string())));
        let json: Value = serde_json::from_str(&render_json(&doc)).unwrap();
        let tenants = json.get("tenants").and_then(Value::as_array).unwrap();
        assert_eq!(tenants[0].get("name").and_then(Value::as_str), Some(name));
        let prom = render_prom(&doc);
        assert!(prom.contains(r#"cliffhanger_tenant_cmd_get{app="a\"b\\c"} 7"#));
        assert!(prom.contains(r#"cliffhanger_tenant_budget_bytes{tenant="a\"b\\c"} 9"#));
    }
}
