//! Named, phased chaos/replay scenarios with pass/fail invariants.
//!
//! A stationary benchmark never sees Cliffhanger's cliffs: the paper's
//! Figure-4 shape appears under *sequential scans*, and the interesting
//! multi-tenant behaviour appears under working-set drift, diurnal rate
//! swings and tenant churn. This module turns those shapes into named,
//! repeatable **scenarios**: an ordered list of phases (each with its own
//! request budget, arrival mode, GET fraction, time-varying Zipf exponent,
//! working-set drift and optional key-range scan), a set of **chaos
//! actors** that harass the server while the measured phases run
//! (connection churn, slow-loris clients, mid-value disconnects,
//! `app_create` storms), and a set of **invariants** checked when the run
//! ends — zero protocol errors, budget conservation in the scraped
//! `stats json` document, bounded p99 per phase, and `curr_connections`
//! returning to baseline once the chaos stops.
//!
//! Every run self-hosts a server, drives it, scrapes its
//! `cliffhanger-stats/v1` telemetry and emits one versioned
//! `cliffhanger-scenario/v1` report with per-phase latency summaries and
//! one named verdict per invariant. `run_scenario` is the engine;
//! [`named_scenario`] is the registry behind `loadgen --scenario <name>`
//! and the `scenario_matrix` bench binary.

use crate::runner::{
    run_closed, run_open, select_app, warmup, Conn, OpSource, Pacer, WorkerStats,
    PAYLOAD_POOL_BYTES,
};
use crate::workload::{GenOp, RequestGen};
use cache_server::{
    BackendConfig, CacheClient, CacheServer, HotKeyConfig, ServerConfig, TenantSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use telemetry::LatencySummary;
use workloads::KeyPopularity;

/// Schema tag of a single scenario report.
pub const SCENARIO_SCHEMA: &str = "cliffhanger-scenario/v1";
/// Schema tag of the matrix wrapper emitted by `scenario_matrix`.
pub const SCENARIO_MATRIX_SCHEMA: &str = "cliffhanger-scenario-matrix/v1";

/// How many times per phase the (expensive, O(keys)) Zipf sampler is
/// rebuilt while the exponent interpolates from `zipf_start` to
/// `zipf_end`.
const ZIPF_STEPS: usize = 8;

/// Phase request budgets never scale below this, so even extreme smoke
/// factors produce a statistically non-degenerate phase.
const MIN_PHASE_REQUESTS: u64 = 300;

/// An optional sequential scan mixed into a phase — the traffic shape that
/// produces the paper's Figure-4 performance cliff under LRU.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// First rank of the scanned key range.
    pub start_rank: u64,
    /// Number of keys in the scanned range (the scan wraps).
    pub length: u64,
    /// Fraction of the phase's requests that are scan GETs (the rest
    /// follow the phase's popularity model).
    pub fraction: f64,
}

/// An optional single-key flash crowd mixed into a phase: a fraction of
/// the phase's requests are GETs of one fixed key. Under the
/// shared-nothing plane that key's owner loop becomes the bottleneck —
/// the traffic shape the hot-key replication path exists to absorb.
///
/// The spike key should sit *outside* the phase's popularity universe
/// (and drift range), so the versioned probe stays the key's only writer
/// and the `no_stale_reads` invariant has teeth.
#[derive(Clone, Debug)]
pub struct SpikeSpec {
    /// Rank of the spiked key (see `RequestGen::key_for_rank`).
    pub key_rank: u64,
    /// Fraction of the phase's requests that are spike GETs.
    pub fraction: f64,
}

/// One phase of a scenario: a request budget driven in one arrival mode
/// with one (possibly time-varying) traffic mix.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name, used in the report and in `p99_bounded[<name>]`.
    pub name: String,
    /// Requests generated in this phase (before demand fills).
    pub requests: u64,
    /// Open-loop target arrival rate across all connections; `None` drives
    /// the phase closed-loop (pipelined, fixed concurrency).
    pub rate: Option<f64>,
    /// Fraction of generated requests that are GETs.
    pub get_fraction: f64,
    /// Number of keys in the phase's popularity model.
    pub num_keys: u64,
    /// Zipf exponent at the start of the phase (≤ 0 means uniform).
    pub zipf_start: f64,
    /// Zipf exponent at the end of the phase; interpolated linearly over
    /// the phase's progress, quantized into a few sampler rebuilds.
    pub zipf_end: f64,
    /// Working-set offset (in ranks) at the start of the phase: the
    /// popularity model's rank 0 maps to this key rank.
    pub offset_start: u64,
    /// Working-set offset at the end of the phase; interpolating between
    /// the two slides the working set across the key space (drift).
    pub offset_end: u64,
    /// Optional sequential scan mixed into the phase.
    pub scan: Option<ScanSpec>,
    /// Optional single-key flash crowd mixed into the phase.
    pub spike: Option<SpikeSpec>,
    /// Fixed value payload size in bytes.
    pub value_bytes: usize,
}

impl Phase {
    /// A closed-loop phase with a stationary Zipf mix — the baseline shape
    /// most scenarios start from.
    pub fn steady(name: &str, requests: u64, num_keys: u64, exponent: f64) -> Phase {
        Phase {
            name: name.to_string(),
            requests,
            rate: None,
            get_fraction: 0.9,
            num_keys,
            zipf_start: exponent,
            zipf_end: exponent,
            offset_start: 0,
            offset_end: 0,
            scan: None,
            spike: None,
            value_bytes: 256,
        }
    }
}

/// The Zipf exponent of `phase` at `progress` ∈ [0, 1], interpolated
/// linearly (and monotonically) between `zipf_start` and `zipf_end`.
pub fn zipf_exponent_at(phase: &Phase, progress: f64) -> f64 {
    let p = progress.clamp(0.0, 1.0);
    phase.zipf_start + (phase.zipf_end - phase.zipf_start) * p
}

/// The working-set offset of `phase` at `progress` ∈ [0, 1], interpolated
/// linearly (and monotonically) between `offset_start` and `offset_end`.
pub fn drift_offset_at(phase: &Phase, progress: f64) -> u64 {
    let p = progress.clamp(0.0, 1.0);
    let (s, e) = (phase.offset_start as f64, phase.offset_end as f64);
    (s + (e - s) * p).round() as u64
}

/// A chaos actor harassing the server while the measured phases run.
#[derive(Clone, Debug)]
pub enum Chaos {
    /// Short-lived connections opened (and dropped) at a target rate;
    /// alternating polite (one GET, read the reply) and abrupt (drop
    /// without reading) closes.
    ConnChurn {
        /// Connections opened per second.
        per_sec: f64,
    },
    /// Clients that hold half-written commands on open connections,
    /// completing each held command only after a dwell — the classic
    /// slow-loris shape a per-connection-thread server cannot survive.
    SlowLoris {
        /// Concurrent slow connections.
        clients: usize,
        /// How long each half-written command is held, in milliseconds.
        hold_ms: u64,
    },
    /// Connections that send a SET header plus part of the value and then
    /// disconnect, leaving the server holding a half-received payload.
    MidValueDisconnect {
        /// Disconnects per second.
        per_sec: f64,
    },
    /// An `app_create` storm: new tenants registered under fire, forcing
    /// budget re-carving while the data plane is busy.
    TenantStorm {
        /// Total tenants created over the run (pacing permitting).
        tenants: u64,
        /// Creations per second.
        per_sec: f64,
    },
}

/// A pass/fail condition evaluated over the finished run.
#[derive(Clone, Debug)]
pub enum Invariant {
    /// No protocol errors or refused stores anywhere in the run
    /// (scenarios size `max_connections` so shedding never hits the
    /// measured drivers).
    ZeroErrors,
    /// The scraped `stats json` document conserves the byte budget: the
    /// per-tenant budgets sum exactly to `capacity.limit_maxbytes`, even
    /// after drift, arbitration and tenant-churn storms.
    BudgetConservation,
    /// The named phase's client-observed p99 stays at or below a bound
    /// (microseconds). Verdict name: `p99_bounded[<phase>]`.
    PhaseP99Below {
        /// The phase the bound applies to.
        phase: String,
        /// The bound in microseconds.
        max_us: f64,
    },
    /// After the drivers and every chaos actor disconnect,
    /// `connections.curr` drains back to the single stats probe —
    /// churned and half-dead connections must not leak.
    ConnectionsReturnToBaseline,
    /// The versioned probe (active whenever a phase carries a
    /// [`SpikeSpec`]) observed no stale read: every GET of the spike key
    /// returned a version at or past the last write that was acknowledged
    /// before the GET began, while hot-key promotion churned the key in
    /// and out of the replica caches. Vacuous probes fail — the probe must
    /// have read real versions for the verdict to mean anything.
    NoStaleReads,
}

impl Invariant {
    /// The verdict name this invariant reports under.
    pub fn name(&self) -> String {
        match self {
            Invariant::ZeroErrors => "zero_errors".to_string(),
            Invariant::BudgetConservation => "budget_conservation".to_string(),
            Invariant::PhaseP99Below { phase, .. } => format!("p99_bounded[{phase}]"),
            Invariant::ConnectionsReturnToBaseline => "connections_baseline".to_string(),
            Invariant::NoStaleReads => "no_stale_reads".to_string(),
        }
    }
}

/// A named, phased scenario: what to host, how to drive it, what chaos to
/// inject, and what must hold at the end.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (the registry key).
    pub name: String,
    /// One-line description, echoed in the report.
    pub description: String,
    /// Self-hosted cache budget in bytes.
    pub total_bytes: u64,
    /// Self-hosted shard count (0 lets the backend pick).
    pub shards: usize,
    /// Server event loops (0 auto-detects).
    pub workers: usize,
    /// Driver connections (one worker thread each).
    pub connections: usize,
    /// Closed-loop pipeline depth.
    pub pipeline: usize,
    /// Keys SET before the measured window opens (striped across the
    /// drivers of each tenant).
    pub warmup_keys: u64,
    /// Demand-fill every GET miss, cache-aside style.
    pub fill_on_miss: bool,
    /// Enable hot-key detection and per-loop replication on the
    /// self-hosted server (the aggressive test profile: sample every GET,
    /// promote fast, round often).
    pub hot_key_promote: bool,
    /// Tenants to host besides `default`; drivers round-robin across them
    /// (all drivers use `default` when empty).
    pub tenants: Vec<(String, u64)>,
    /// The measured phases, run in order by every driver.
    pub phases: Vec<Phase>,
    /// Chaos actors active for the whole measured window.
    pub chaos: Vec<Chaos>,
    /// Invariants evaluated over the finished run.
    pub invariants: Vec<Invariant>,
    /// Scale factor already applied by [`Scenario::scaled`] (1.0 = the
    /// standard, nightly-sized definition).
    pub scale: f64,
}

impl Scenario {
    /// Scales the scenario's request volume by `factor` (phase budgets,
    /// warm-up, tenant-storm size), flooring each phase so smoke runs stay
    /// statistically meaningful. Key universes, cache size and chaos
    /// *rates* are untouched — a smoke run is a shorter window over the
    /// same traffic shape, not a different experiment.
    pub fn scaled(mut self, factor: f64) -> Scenario {
        if (factor - 1.0).abs() < f64::EPSILON {
            return self;
        }
        for phase in &mut self.phases {
            phase.requests = ((phase.requests as f64 * factor) as u64).max(MIN_PHASE_REQUESTS);
        }
        self.warmup_keys = ((self.warmup_keys as f64 * factor) as u64).max(200);
        for chaos in &mut self.chaos {
            if let Chaos::TenantStorm { tenants, .. } = chaos {
                *tenants = ((*tenants as f64 * factor) as u64).max(6);
            }
        }
        self.scale *= factor;
        self
    }

    /// Replaces every phase-p99 bound with `max_us`, adding one per phase
    /// if the scenario had none — the lever behind `scenario_matrix
    /// --p99-us`, used by CI to prove a deliberately-broken invariant
    /// fails the run with a named verdict.
    pub fn override_p99(&mut self, max_us: f64) {
        self.invariants
            .retain(|i| !matches!(i, Invariant::PhaseP99Below { .. }));
        for phase in &self.phases {
            self.invariants.push(Invariant::PhaseP99Below {
                phase: phase.name.clone(),
                max_us,
            });
        }
    }

    /// Total generated requests across all phases (fills excluded).
    pub fn total_requests(&self) -> u64 {
        self.phases.iter().map(|p| p.requests).sum()
    }
}

// ---------------------------------------------------------------------------
// Report types.
// ---------------------------------------------------------------------------

/// One phase's measured slice of a scenario run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// `closed` or `open`.
    pub mode: String,
    /// Open-loop target rate (0 for closed phases).
    pub target_rps: f64,
    /// Requests completed in the phase (demand fills included).
    pub requests: u64,
    /// GETs completed.
    pub gets: u64,
    /// GETs answered with a value.
    pub get_hits: u64,
    /// GET hit rate (0 when no GETs were issued).
    pub hit_rate: f64,
    /// SETs completed (fills included).
    pub sets: u64,
    /// Demand-fill SETs among `sets`.
    pub fills: u64,
    /// Refused stores plus protocol surprises.
    pub errors: u64,
    /// Wall-clock seconds of the phase.
    pub elapsed_secs: f64,
    /// Completed requests per second over the phase.
    pub throughput_rps: f64,
    /// Latency over every request in the phase (schedule-anchored in open
    /// phases, batch-anchored in closed phases).
    pub latency: LatencySummary,
}

/// What the versioned spike-key probe observed, for the `no_stale_reads`
/// invariant: a writer SETs monotonically versioned payloads and
/// publishes each version only after the server acknowledged it; readers
/// on separate connections snapshot that frontier before every GET and
/// count a stale read whenever the observed version falls behind it.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProbeReport {
    /// Acknowledged probe writes (the final published version).
    pub writes: u64,
    /// Probe GETs that returned a parseable versioned value.
    pub reads: u64,
    /// Probe GETs that missed (the key was evicted; not a staleness
    /// signal — the next acknowledged write repopulates it).
    pub misses: u64,
    /// Reads whose observed version fell behind the acknowledged
    /// frontier snapshotted before the GET — must be zero.
    pub stale_reads: u64,
}

/// What the chaos actors actually did, for report forensics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Short-lived churn connections successfully opened.
    pub churn_conns_opened: u64,
    /// Churn connection attempts the OS or the accept gate refused.
    pub churn_conns_failed: u64,
    /// Half-written commands held and later completed by slow-loris
    /// clients.
    pub slow_loris_holds: u64,
    /// Connections dropped mid-value.
    pub mid_value_disconnects: u64,
    /// Tenants created by the `app_create` storm.
    pub tenants_created: u64,
}

/// One invariant's named verdict.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InvariantVerdict {
    /// The invariant's name (e.g. `p99_bounded[scan]`).
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence (observed vs required).
    pub detail: String,
}

/// The versioned `cliffhanger-scenario/v1` document one scenario run
/// emits. Additive evolution only, like every other report schema.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Schema tag: `cliffhanger-scenario/v1`.
    pub schema: String,
    /// Scenario name.
    pub scenario: String,
    /// Scenario description, echoed.
    pub description: String,
    /// Scale factor the run used (1.0 = standard size).
    pub scale: f64,
    /// Driver connections.
    pub connections: u64,
    /// Requests completed across all phases (fills included).
    pub requests: u64,
    /// Wall-clock seconds of the whole measured window.
    pub elapsed_secs: f64,
    /// Total errors across all phases.
    pub errors: u64,
    /// Per-phase measurements, in phase order.
    pub phases: Vec<PhaseReport>,
    /// What the chaos actors did.
    pub chaos: ChaosReport,
    /// `connections.curr` right after the drivers connected (drivers plus
    /// the stats probe), before any chaos started.
    pub conn_baseline: u64,
    /// `connections.curr` after drivers and chaos disconnected (the stats
    /// probe alone when nothing leaked).
    pub conn_final: u64,
    /// Named invariant verdicts.
    pub invariants: Vec<InvariantVerdict>,
    /// Whether every invariant held.
    pub passed: bool,
    /// The server's scraped `cliffhanger-stats/v1` document.
    pub server_stats: Option<Value>,
    /// What the versioned spike-key probe observed; absent when no phase
    /// carried a [`SpikeSpec`].
    pub probe: Option<ProbeReport>,
}

impl ScenarioReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

/// The matrix wrapper `scenario_matrix` emits: one scenario report per
/// named scenario it ran.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScenarioMatrixReport {
    /// Schema tag: `cliffhanger-scenario-matrix/v1`.
    pub schema: String,
    /// Scale factor applied to every scenario in the matrix.
    pub scale: f64,
    /// The individual scenario reports, in run order.
    pub scenarios: Vec<ScenarioReport>,
}

impl ScenarioMatrixReport {
    /// Serializes the matrix as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

// ---------------------------------------------------------------------------
// Invariant evaluation (pure over the collected report, so canned reports
// can exercise both verdict polarities without a live server).
// ---------------------------------------------------------------------------

/// Evaluates `invariants` over a collected report (ignoring whatever
/// verdicts it already carries) and returns one named verdict each.
pub fn evaluate_invariants(
    invariants: &[Invariant],
    report: &ScenarioReport,
) -> Vec<InvariantVerdict> {
    invariants
        .iter()
        .map(|inv| {
            let (pass, detail) = match inv {
                Invariant::ZeroErrors => (
                    report.errors == 0,
                    format!("{} errors across all phases", report.errors),
                ),
                Invariant::BudgetConservation => budget_conservation(report),
                Invariant::PhaseP99Below { phase, max_us } => {
                    match report.phases.iter().find(|p| &p.name == phase) {
                        None => (false, format!("phase {phase} missing from the report")),
                        Some(p) if p.latency.count == 0 => {
                            (false, format!("phase {phase} recorded no latencies"))
                        }
                        Some(p) => (
                            p.latency.p99_us <= *max_us,
                            format!(
                                "phase {phase} p99 {:.0}µs vs bound {max_us:.0}µs",
                                p.latency.p99_us
                            ),
                        ),
                    }
                }
                Invariant::ConnectionsReturnToBaseline => (
                    report.conn_final <= 1,
                    format!(
                        "curr_connections drained to {} (baseline {}, probe-only floor 1)",
                        report.conn_final, report.conn_baseline
                    ),
                ),
                Invariant::NoStaleReads => match &report.probe {
                    None => (false, "no versioned probe ran".to_string()),
                    Some(p) => (
                        p.stale_reads == 0 && p.reads > 0,
                        format!(
                            "{} stale of {} versioned probe reads ({} misses, {} writes)",
                            p.stale_reads, p.reads, p.misses, p.writes
                        ),
                    ),
                },
            };
            InvariantVerdict {
                name: inv.name(),
                pass,
                detail,
            }
        })
        .collect()
}

/// Budget conservation over the scraped stats document: per-tenant budgets
/// sum exactly to `capacity.limit_maxbytes`.
fn budget_conservation(report: &ScenarioReport) -> (bool, String) {
    let Some(stats) = &report.server_stats else {
        return (false, "no scraped stats document to check".to_string());
    };
    let Some(limit) = stats
        .get("capacity")
        .and_then(|c| c.get("limit_maxbytes"))
        .and_then(Value::as_u64)
    else {
        return (
            false,
            "stats document lacks capacity.limit_maxbytes".to_string(),
        );
    };
    let Some(tenants) = stats.get("tenants").and_then(Value::as_array) else {
        return (false, "stats document lacks a tenants array".to_string());
    };
    let tenant_sum: u64 = tenants
        .iter()
        .filter_map(|t| t.get("budget").and_then(Value::as_u64))
        .sum();
    (
        tenant_sum == limit,
        format!(
            "{} tenant budgets sum to {tenant_sum} vs limit_maxbytes {limit}",
            tenants.len()
        ),
    )
}

// ---------------------------------------------------------------------------
// The phase-aware request generator.
// ---------------------------------------------------------------------------

/// A per-worker, per-phase generator: a quantized time-varying Zipf
/// sampler, linear working-set drift, and an optional interleaved scan
/// striped across the workers.
pub(crate) struct PhaseGen {
    phase: Phase,
    sampler: workloads::zipf::PopularitySampler,
    step: usize,
    progress: f64,
    rng: StdRng,
    scan_cursor: u64,
    scan_stride: u64,
}

fn sampler_for(num_keys: u64, exponent: f64) -> workloads::zipf::PopularitySampler {
    let keys = if exponent > 0.0 {
        KeyPopularity::Zipf { num_keys, exponent }
    } else {
        KeyPopularity::Uniform { num_keys }
    };
    keys.sampler()
}

impl PhaseGen {
    pub(crate) fn new(phase: &Phase, worker: u64, workers: u64, seed: u64) -> PhaseGen {
        PhaseGen {
            sampler: sampler_for(
                phase.num_keys,
                zipf_exponent_at(phase, 0.5 / ZIPF_STEPS as f64),
            ),
            phase: phase.clone(),
            step: 0,
            progress: 0.0,
            rng: StdRng::seed_from_u64(seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            scan_cursor: worker,
            scan_stride: workers.max(1),
        }
    }
}

impl OpSource for PhaseGen {
    /// Advances the phase clock: `progress` ∈ [0, 1] is the fraction of
    /// the phase budget already claimed. The Zipf sampler is rebuilt at
    /// most [`ZIPF_STEPS`] times per phase (the CDF build is O(keys)).
    fn advance(&mut self, progress: f64) {
        self.progress = progress.clamp(0.0, 1.0);
        if (self.phase.zipf_end - self.phase.zipf_start).abs() > f64::EPSILON {
            let step = ((self.progress * ZIPF_STEPS as f64) as usize).min(ZIPF_STEPS - 1);
            if step != self.step {
                self.step = step;
                let mid = (step as f64 + 0.5) / ZIPF_STEPS as f64;
                self.sampler = sampler_for(self.phase.num_keys, zipf_exponent_at(&self.phase, mid));
            }
        }
    }

    fn next_op(&mut self) -> GenOp {
        if let Some(spike) = &self.phase.spike {
            if self.rng.gen_bool(spike.fraction.clamp(0.0, 1.0)) {
                // The flash crowd: everyone GETs the same key. Never a SET
                // — the versioned probe is the spike key's only writer.
                return GenOp::Get {
                    key: RequestGen::key_for_rank(spike.key_rank),
                };
            }
        }
        if let Some(scan) = &self.phase.scan {
            if self.rng.gen_bool(scan.fraction.clamp(0.0, 1.0)) {
                let rank = scan.start_rank + (self.scan_cursor % scan.length.max(1));
                self.scan_cursor += self.scan_stride;
                return GenOp::Get {
                    key: RequestGen::key_for_rank(rank),
                };
            }
        }
        let rank = self.sampler.sample(&mut self.rng) + drift_offset_at(&self.phase, self.progress);
        let key = RequestGen::key_for_rank(rank);
        if self.rng.gen_bool(self.phase.get_fraction.clamp(0.0, 1.0)) {
            GenOp::Get { key }
        } else {
            GenOp::Set {
                key,
                size: self.phase.value_bytes,
            }
        }
    }

    fn fill_for(&self, rank: u64) -> GenOp {
        GenOp::Set {
            key: RequestGen::key_for_rank(rank),
            size: self.phase.value_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// The driver workers.
// ---------------------------------------------------------------------------

/// Everything one scenario worker thread needs.
struct WorkerCtx {
    addr: String,
    tenant: String,
    stripe: usize,
    siblings: usize,
    worker: u64,
    workers: u64,
    phases: Arc<Vec<Phase>>,
    budgets: Arc<Vec<Arc<AtomicU64>>>,
    gate: Arc<Barrier>,
    pool: Arc<Vec<u8>>,
    pipeline: u64,
    fill_on_miss: bool,
    warmup_keys: u64,
    connections: usize,
    seed: u64,
}

/// The worker thread: connect, pin the tenant, warm up, then run every
/// phase between the coordinator's barriers. A worker that fails keeps
/// participating in the barriers (doing nothing) so the coordinator and
/// its siblings never deadlock; the first error fails the run at join.
fn scenario_worker(ctx: WorkerCtx) -> std::io::Result<Vec<WorkerStats>> {
    let setup = (|| -> std::io::Result<Conn> {
        let mut conn = Conn::connect(&ctx.addr)?;
        select_app(&mut conn, &ctx.tenant)?;
        // Untimed warm-up of the first phase's working set: the worker SETs
        // its stripe of ranks `offset_start .. offset_start + warmup_keys`
        // (capped at the phase's key universe) so the window opens over a
        // populated cache.
        if let Some(first) = ctx.phases.first() {
            let gen = PhaseGen::new(first, ctx.worker, ctx.workers, ctx.seed);
            let stripe = (ctx.stripe as u64..ctx.warmup_keys.min(first.num_keys))
                .step_by(ctx.siblings.max(1))
                .map(|rank| first.offset_start + rank);
            warmup(&mut conn, &gen, stripe, &ctx.pool)?;
        }
        Ok(conn)
    })();
    ctx.gate.wait();
    let mut conn = match setup {
        Ok(conn) => conn,
        Err(err) => {
            for _ in ctx.phases.iter() {
                ctx.gate.wait();
                ctx.gate.wait();
            }
            return Err(err);
        }
    };
    let mut err: Option<std::io::Error> = None;
    let mut out: Vec<WorkerStats> = Vec::with_capacity(ctx.phases.len());
    // One pacer per worker, shared across consecutive open phases: the
    // arrival chain continues through rate changes (the diurnal scenario's
    // whole point). A closed phase breaks the chain — its arrivals are
    // self-clocked — so the next open phase re-anchors at the wall clock.
    let mut pacer: Option<Pacer> = None;
    for (index, phase) in ctx.phases.iter().enumerate() {
        ctx.gate.wait();
        if err.is_none() {
            let budget = (&*ctx.budgets[index], phase.requests);
            let mut gen = PhaseGen::new(phase, ctx.worker, ctx.workers, ctx.seed);
            let result = match phase.rate {
                None => {
                    pacer = None;
                    run_closed(
                        &mut conn,
                        &mut gen,
                        budget,
                        ctx.pipeline,
                        &ctx.pool,
                        ctx.fill_on_miss,
                    )
                }
                Some(rate) => {
                    let per_conn = (rate / ctx.connections as f64).max(1.0);
                    let p = match pacer.as_mut() {
                        Some(p) => {
                            p.set_rate(per_conn);
                            p
                        }
                        None => pacer.insert(Pacer::new(Instant::now(), per_conn)),
                    };
                    run_open(&mut conn, &mut gen, budget, p, &ctx.pool, ctx.fill_on_miss)
                }
            };
            match result {
                Ok(stats) => out.push(stats),
                Err(e) => {
                    err = Some(e);
                    out.push(WorkerStats::default());
                }
            }
        } else {
            out.push(WorkerStats::default());
        }
        ctx.gate.wait();
    }
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

// ---------------------------------------------------------------------------
// Chaos actors.
// ---------------------------------------------------------------------------

/// Shared chaos tallies, scraped into the report's [`ChaosReport`].
#[derive(Default)]
struct ChaosCounters {
    churn_opened: AtomicU64,
    churn_failed: AtomicU64,
    loris_holds: AtomicU64,
    mid_value: AtomicU64,
    tenants_created: AtomicU64,
}

/// Reads one response line (up to `\n`) byte-by-byte — chaos connections
/// are rare and short-lived, so unbuffered reads keep them trivially
/// droppable at any point.
fn read_response_line(stream: &mut TcpStream) -> std::io::Result<()> {
    use std::io::Read;
    let mut byte = [0u8; 1];
    loop {
        if stream.read(&mut byte)? == 0 || byte[0] == b'\n' {
            return Ok(());
        }
    }
}

fn chaos_conn_churn(
    addr: String,
    per_sec: f64,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
) {
    let interval = Duration::from_secs_f64(1.0 / per_sec.max(1.0));
    let mut next = Instant::now() + interval;
    let mut polite = true;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if next > now {
            std::thread::sleep((next - now).min(Duration::from_millis(50)));
            continue;
        }
        next += interval;
        match TcpStream::connect(&addr) {
            Ok(mut stream) => {
                counters.churn_opened.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
                if polite {
                    // Polite churn: one GET, read the reply, then close.
                    if stream.write_all(b"get chaoschurn\r\n").is_ok() {
                        let _ = read_response_line(&mut stream);
                    }
                }
                // Abrupt churn (every other connection): drop without
                // reading, so the server sees an unannounced hangup.
            }
            Err(_) => {
                counters.churn_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        polite = !polite;
    }
}

fn chaos_slow_loris(
    addr: String,
    clients: usize,
    hold_ms: u64,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
) {
    // Each slot holds a connection with a half-written `get` parked on it.
    let mut conns: Vec<Option<TcpStream>> = (0..clients.max(1)).map(|_| None).collect();
    while !stop.load(Ordering::Relaxed) {
        for slot in conns.iter_mut() {
            match slot.take() {
                None => {
                    if let Ok(mut stream) = TcpStream::connect(&addr) {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
                        // Half a command: the server must hold the partial
                        // line without blocking its event loop.
                        if stream.write_all(b"get kslowlor").is_ok() {
                            *slot = Some(stream);
                        }
                    }
                }
                Some(mut stream) => {
                    // The dwell is over: complete the held command, read
                    // the (miss) reply, park the next half-written one.
                    let done = stream.write_all(b"is\r\n").is_ok()
                        && read_response_line(&mut stream).is_ok();
                    if done {
                        counters.loris_holds.fetch_add(1, Ordering::Relaxed);
                        if stream.write_all(b"get kslowlor").is_ok() {
                            *slot = Some(stream);
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(hold_ms.clamp(10, 1_000)));
    }
}

fn chaos_mid_value(
    addr: String,
    per_sec: f64,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
) {
    let interval = Duration::from_secs_f64(1.0 / per_sec.max(1.0));
    let mut next = Instant::now() + interval;
    let garbage = vec![b'x'; 512];
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if next > now {
            std::thread::sleep((next - now).min(Duration::from_millis(50)));
            continue;
        }
        next += interval;
        if let Ok(mut stream) = TcpStream::connect(&addr) {
            let _ = stream.set_nodelay(true);
            // A 4096-byte value announced, 512 bytes delivered, then gone:
            // the server is left holding a half-received payload.
            if stream.write_all(b"set chaosmid 0 0 4096\r\n").is_ok()
                && stream.write_all(&garbage).is_ok()
            {
                counters.mid_value.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn chaos_tenant_storm(
    addr: String,
    tenants: u64,
    per_sec: f64,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
) {
    let interval = Duration::from_secs_f64(1.0 / per_sec.max(1.0));
    let mut next = Instant::now() + interval;
    let mut client: Option<CacheClient> = None;
    let mut created = 0u64;
    while !stop.load(Ordering::Relaxed) && created < tenants {
        let now = Instant::now();
        if next > now {
            std::thread::sleep((next - now).min(Duration::from_millis(50)));
            continue;
        }
        next += interval;
        if client.is_none() {
            client = CacheClient::connect(&addr).ok();
        }
        let Some(c) = client.as_mut() else { continue };
        match c.app_create(&format!("storm{created}"), 1) {
            Ok(_) => {
                counters.tenants_created.fetch_add(1, Ordering::Relaxed);
                created += 1;
            }
            Err(_) => client = None,
        }
    }
}

fn spawn_chaos(
    chaos: &Chaos,
    addr: &str,
    stop: &Arc<AtomicBool>,
    counters: &Arc<ChaosCounters>,
) -> std::thread::JoinHandle<()> {
    let addr = addr.to_string();
    let stop = Arc::clone(stop);
    let counters = Arc::clone(counters);
    let chaos = chaos.clone();
    std::thread::Builder::new()
        .name("scenario-chaos".to_string())
        .spawn(move || match chaos {
            Chaos::ConnChurn { per_sec } => chaos_conn_churn(addr, per_sec, stop, counters),
            Chaos::SlowLoris { clients, hold_ms } => {
                chaos_slow_loris(addr, clients, hold_ms, stop, counters)
            }
            Chaos::MidValueDisconnect { per_sec } => chaos_mid_value(addr, per_sec, stop, counters),
            Chaos::TenantStorm { tenants, per_sec } => {
                chaos_tenant_storm(addr, tenants, per_sec, stop, counters)
            }
        })
        .expect("failed to spawn chaos actor")
}

// ---------------------------------------------------------------------------
// The versioned spike-key probe.
// ---------------------------------------------------------------------------

/// Shared probe tallies plus the acknowledged-version frontier.
#[derive(Default)]
struct ProbeCounters {
    writes: AtomicU64,
    reads: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    /// The highest version the server has acknowledged storing. Published
    /// with `Release` *after* the STORED reply, so a reader that loads it
    /// with `Acquire` before a GET holds a true lower bound on what that
    /// GET must observe.
    last_acked: AtomicU64,
}

fn probe_payload(version: u64) -> Vec<u8> {
    // Padding keeps the value comparable to the scenario's ordinary
    // payloads so the replica byte budget is exercised realistically.
    format!("v:{version}:{}", "x".repeat(128)).into_bytes()
}

fn parse_probe_version(data: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(data).ok()?;
    let mut parts = text.splitn(3, ':');
    if parts.next() != Some("v") {
        return None;
    }
    parts.next()?.parse().ok()
}

/// The probe writer: the spike key's *only* writer in the whole scenario.
/// Acknowledge-then-publish, throttled so it stresses invalidation without
/// drowning the measured traffic.
fn probe_writer(addr: String, key: String, stop: Arc<AtomicBool>, counters: Arc<ProbeCounters>) {
    let mut client: Option<CacheClient> = None;
    let mut version = 0u64;
    while !stop.load(Ordering::Relaxed) {
        if client.is_none() {
            client = CacheClient::connect(&addr).ok();
        }
        let Some(c) = client.as_mut() else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let next = version + 1;
        match c.set(key.as_bytes(), 0, &probe_payload(next)) {
            Ok(true) => {
                version = next;
                counters.last_acked.store(version, Ordering::Release);
                counters.writes.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {} // refused store; retry the same version
            Err(_) => client = None,
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A probe reader: snapshot the acknowledged frontier, GET, and require
/// the observed version to be at or past the snapshot. Several readers on
/// distinct connections land on distinct event loops, so promoted-replica
/// serving is actually on the path under test.
fn probe_reader(addr: String, key: String, stop: Arc<AtomicBool>, counters: Arc<ProbeCounters>) {
    let mut client: Option<CacheClient> = None;
    while !stop.load(Ordering::Relaxed) {
        if client.is_none() {
            client = CacheClient::connect(&addr).ok();
        }
        let Some(c) = client.as_mut() else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let floor = counters.last_acked.load(Ordering::Acquire);
        match c.get(key.as_bytes()) {
            Ok(Some((_, data))) => match parse_probe_version(&data) {
                Some(seen) => {
                    counters.reads.fetch_add(1, Ordering::Relaxed);
                    if seen < floor {
                        counters.stale.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // A foreign payload on the probe key means some other
                // writer clobbered it — as damning as a stale version.
                None => {
                    counters.reads.fetch_add(1, Ordering::Relaxed);
                    counters.stale.fetch_add(1, Ordering::Relaxed);
                }
            },
            Ok(None) => {
                counters.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => client = None,
        }
        std::thread::sleep(Duration::from_micros(250));
    }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// `connections.curr` from a live `stats json` scrape.
fn curr_connections(probe: &mut CacheClient) -> std::io::Result<u64> {
    let doc: Value = serde_json::from_str(&probe.stats_json()?)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    Ok(doc
        .get("connections")
        .and_then(|c| c.get("curr"))
        .and_then(Value::as_u64)
        .unwrap_or(0))
}

/// Runs one scenario end to end: self-host a server, drive every phase
/// with chaos active, scrape the server's telemetry, and evaluate the
/// invariants. Driver-connection failures (refused `app`, mid-run EOF)
/// fail the run itself; per-request rejections are counted and judged by
/// the `zero_errors` invariant instead.
pub fn run_scenario(scenario: &Scenario) -> std::io::Result<ScenarioReport> {
    if scenario.connections == 0 || scenario.phases.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a scenario needs at least one connection and one phase",
        ));
    }
    let workers = if scenario.workers > 0 {
        scenario.workers
    } else {
        cache_server::default_event_loops()
    };
    let mut server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        // Headroom over drivers + probe + chaos churn: the accept gate is
        // the server tests' concern, not the scenario drivers'.
        max_connections: (scenario.connections * 4).max(4096),
        backend: BackendConfig {
            total_bytes: scenario.total_bytes,
            shards: scenario.shards,
            tenants: scenario
                .tenants
                .iter()
                .map(|(name, weight)| TenantSpec::new(name.clone(), (*weight).max(1)))
                .collect(),
            hot_key: if scenario.hot_key_promote {
                HotKeyConfig::aggressive()
            } else {
                HotKeyConfig::default()
            },
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr().to_string();

    let phases = Arc::new(scenario.phases.clone());
    let budgets: Arc<Vec<Arc<AtomicU64>>> = Arc::new(
        phases
            .iter()
            .map(|p| Arc::new(AtomicU64::new(p.requests)))
            .collect(),
    );
    let gate = Arc::new(Barrier::new(scenario.connections + 1));
    let pool: Arc<Vec<u8>> = Arc::new(
        (0..PAYLOAD_POOL_BYTES)
            .map(|i| b'a' + (i % 26) as u8)
            .collect(),
    );
    // Drivers round-robin the hosted tenants ("default" when none); the
    // stripe/siblings pair makes warm-up cover each tenant's namespace.
    let tenant_names: Vec<String> = if scenario.tenants.is_empty() {
        vec!["default".to_string()]
    } else {
        scenario.tenants.iter().map(|(n, _)| n.clone()).collect()
    };
    let handles: Vec<_> = (0..scenario.connections)
        .map(|w| {
            let ctx = WorkerCtx {
                addr: addr.clone(),
                tenant: tenant_names[w % tenant_names.len()].clone(),
                stripe: w / tenant_names.len(),
                siblings: (scenario.connections - (w % tenant_names.len()))
                    .div_ceil(tenant_names.len()),
                worker: w as u64,
                workers: scenario.connections as u64,
                phases: Arc::clone(&phases),
                budgets: Arc::clone(&budgets),
                gate: Arc::clone(&gate),
                pool: Arc::clone(&pool),
                pipeline: scenario.pipeline.max(1) as u64,
                fill_on_miss: scenario.fill_on_miss,
                warmup_keys: scenario.warmup_keys,
                connections: scenario.connections,
                seed: 0x5CE7_A810,
            };
            std::thread::Builder::new()
                .name(format!("scenario-{w}"))
                .spawn(move || scenario_worker(ctx))
                .expect("failed to spawn scenario worker")
        })
        .collect();

    // Setup barrier: every driver is connected and warmed.
    gate.wait();
    let mut probe = CacheClient::connect(&addr)?;
    let conn_baseline = curr_connections(&mut probe)?;

    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(ChaosCounters::default());
    let chaos_handles: Vec<_> = scenario
        .chaos
        .iter()
        .map(|c| spawn_chaos(c, &addr, &stop, &counters))
        .collect();

    // The versioned probe runs whenever any phase spikes a key: one
    // writer (the spike key's sole writer) plus two readers on their own
    // connections, active for the whole measured window so promotion and
    // demotion both happen under its watch.
    let spike_rank = phases
        .iter()
        .find_map(|p| p.spike.as_ref().map(|s| s.key_rank));
    let probe_counters = Arc::new(ProbeCounters::default());
    let probe_handles: Vec<_> = spike_rank
        .map(|rank| {
            let key = RequestGen::key_for_rank(rank);
            let mut handles = vec![{
                let (addr, key) = (addr.clone(), key.clone());
                let (stop, counters) = (Arc::clone(&stop), Arc::clone(&probe_counters));
                std::thread::Builder::new()
                    .name("scenario-probe-writer".to_string())
                    .spawn(move || probe_writer(addr, key, stop, counters))
                    .expect("failed to spawn probe writer")
            }];
            for i in 0..2 {
                let (addr, key) = (addr.clone(), key.clone());
                let (stop, counters) = (Arc::clone(&stop), Arc::clone(&probe_counters));
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("scenario-probe-reader-{i}"))
                        .spawn(move || probe_reader(addr, key, stop, counters))
                        .expect("failed to spawn probe reader"),
                );
            }
            handles
        })
        .unwrap_or_default();

    let window_start = Instant::now();
    let mut phase_elapsed: Vec<f64> = Vec::with_capacity(phases.len());
    for _ in phases.iter() {
        gate.wait();
        let phase_start = Instant::now();
        gate.wait();
        phase_elapsed.push(phase_start.elapsed().as_secs_f64().max(f64::EPSILON));
    }
    let elapsed = window_start.elapsed().as_secs_f64().max(f64::EPSILON);

    stop.store(true, Ordering::Relaxed);
    for handle in chaos_handles {
        let _ = handle.join();
    }
    for handle in probe_handles {
        let _ = handle.join();
    }
    let mut per_phase: Vec<WorkerStats> =
        (0..phases.len()).map(|_| WorkerStats::default()).collect();
    let mut first_error: Option<std::io::Error> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(stats)) => {
                for (merged, stats) in per_phase.iter_mut().zip(&stats) {
                    merged.merge(stats);
                }
            }
            Ok(Err(err)) => first_error = first_error.or(Some(err)),
            Err(_) => {
                first_error = first_error
                    .or_else(|| Some(std::io::Error::other("a scenario worker panicked")))
            }
        }
    }
    if let Some(err) = first_error {
        server.shutdown();
        return Err(err);
    }

    // Everything but the probe has disconnected; give the reactor a
    // bounded moment to notice hangups, then record where `curr` settled.
    let mut conn_final = conn_baseline;
    for _ in 0..50 {
        conn_final = curr_connections(&mut probe)?;
        if conn_final <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let server_stats: Option<Value> = probe
        .stats_json()
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok());
    drop(probe);
    server.shutdown();

    let phase_reports: Vec<PhaseReport> = phases
        .iter()
        .zip(&per_phase)
        .zip(&phase_elapsed)
        .map(|((phase, stats), &elapsed)| PhaseReport {
            name: phase.name.clone(),
            mode: if phase.rate.is_some() {
                "open".to_string()
            } else {
                "closed".to_string()
            },
            target_rps: phase.rate.unwrap_or(0.0),
            requests: stats.gets + stats.sets,
            gets: stats.gets,
            get_hits: stats.hits,
            hit_rate: if stats.gets > 0 {
                stats.hits as f64 / stats.gets as f64
            } else {
                0.0
            },
            sets: stats.sets,
            fills: stats.fills,
            errors: stats.errors,
            elapsed_secs: elapsed,
            throughput_rps: (stats.gets + stats.sets) as f64 / elapsed,
            latency: stats.all.summarize_us(),
        })
        .collect();

    let mut report = ScenarioReport {
        schema: SCENARIO_SCHEMA.to_string(),
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        scale: scenario.scale,
        connections: scenario.connections as u64,
        requests: phase_reports.iter().map(|p| p.requests).sum(),
        elapsed_secs: elapsed,
        errors: phase_reports.iter().map(|p| p.errors).sum(),
        phases: phase_reports,
        chaos: ChaosReport {
            churn_conns_opened: counters.churn_opened.load(Ordering::Relaxed),
            churn_conns_failed: counters.churn_failed.load(Ordering::Relaxed),
            slow_loris_holds: counters.loris_holds.load(Ordering::Relaxed),
            mid_value_disconnects: counters.mid_value.load(Ordering::Relaxed),
            tenants_created: counters.tenants_created.load(Ordering::Relaxed),
        },
        conn_baseline,
        conn_final,
        invariants: Vec::new(),
        passed: false,
        server_stats,
        probe: spike_rank.map(|_| ProbeReport {
            writes: probe_counters.writes.load(Ordering::Relaxed),
            reads: probe_counters.reads.load(Ordering::Relaxed),
            misses: probe_counters.misses.load(Ordering::Relaxed),
            stale_reads: probe_counters.stale.load(Ordering::Relaxed),
        }),
    };
    report.invariants = evaluate_invariants(&scenario.invariants, &report);
    report.passed = report.invariants.iter().all(|v| v.pass);
    Ok(report)
}

// ---------------------------------------------------------------------------
// The named-scenario registry.
// ---------------------------------------------------------------------------

/// The names `named_scenario` resolves, in matrix run order.
pub fn scenario_names() -> &'static [&'static str] {
    &[
        "scan_storm",
        "diurnal",
        "drift",
        "conn_churn",
        "slow_loris",
        "tenant_storm",
        "flash_crowd",
    ]
}

fn base_scenario(name: &str, description: &str) -> Scenario {
    Scenario {
        name: name.to_string(),
        description: description.to_string(),
        total_bytes: 32 << 20,
        shards: 0,
        workers: 0,
        connections: 6,
        pipeline: 8,
        warmup_keys: 20_000,
        fill_on_miss: false,
        hot_key_promote: false,
        tenants: Vec::new(),
        phases: Vec::new(),
        chaos: Vec::new(),
        invariants: vec![
            Invariant::ZeroErrors,
            Invariant::BudgetConservation,
            Invariant::ConnectionsReturnToBaseline,
        ],
        scale: 1.0,
    }
}

/// Generous client-observed p99 bound for closed phases on shared CI
/// hardware: pipelined batches queue behind each other, so this is a
/// sanity rail against pathological stalls, not a performance SLO (the
/// perf gate owns regressions).
const CLOSED_P99_US: f64 = 250_000.0;
/// Bound for open phases: schedule-anchored latencies absorb any backlog
/// the server builds, so the rail is looser.
const OPEN_P99_US: f64 = 400_000.0;

fn p99(phase: &str, max_us: f64) -> Invariant {
    Invariant::PhaseP99Below {
        phase: phase.to_string(),
        max_us,
    }
}

fn scan_storm() -> Scenario {
    // The paper's Figure-4 shape: a warmed Zipf mix, then a sequential
    // scan over a key range larger than the cache floods the LRU lists,
    // then the original mix returns and must recover its hit rate.
    let mut s = base_scenario(
        "scan_storm",
        "steady Zipf, a sequential scan storm over a cold key range, then recovery",
    );
    s.total_bytes = 16 << 20;
    s.fill_on_miss = true;
    let keys = 30_000;
    s.phases = vec![
        Phase::steady("steady", 80_000, keys, 1.0),
        Phase {
            scan: Some(ScanSpec {
                start_rank: 1_000_000,
                length: 50_000,
                fraction: 0.5,
            }),
            ..Phase::steady("scan", 60_000, keys, 1.0)
        },
        Phase::steady("recover", 80_000, keys, 1.0),
    ];
    s.invariants.push(p99("steady", CLOSED_P99_US));
    s.invariants.push(p99("recover", CLOSED_P99_US));
    s
}

fn diurnal() -> Scenario {
    // Open-loop day cycle: the arrival rate steps night → morning → peak
    // → evening. Every boundary is a mid-run rate change, exercising the
    // pacer's chain-preserving re-anchor (the coordinated-omission fix).
    let mut s = base_scenario(
        "diurnal",
        "open-loop rate steps through a day cycle; pacing must stay CO-correct across boundaries",
    );
    let keys = 30_000;
    let open = |name: &str, requests: u64, rate: f64| Phase {
        rate: Some(rate),
        ..Phase::steady(name, requests, keys, 0.99)
    };
    s.phases = vec![
        open("night", 30_000, 2_000.0),
        open("morning", 50_000, 5_000.0),
        open("peak", 80_000, 8_000.0),
        open("evening", 40_000, 3_000.0),
    ];
    for phase in ["night", "morning", "peak", "evening"] {
        s.invariants.push(p99(phase, OPEN_P99_US));
    }
    s
}

fn drift() -> Scenario {
    // Working-set drift: the popularity window slides across the key
    // space mid-phase, so yesterday's hot set turns cold under fire and
    // demand fills repopulate the new one.
    let mut s = base_scenario(
        "drift",
        "the working set slides across the key space; demand fills chase it",
    );
    s.total_bytes = 16 << 20;
    s.fill_on_miss = true;
    let keys = 20_000;
    let phase = |name: &str, requests: u64, from: u64, to: u64| Phase {
        get_fraction: 0.95,
        offset_start: from,
        offset_end: to,
        ..Phase::steady(name, requests, keys, 0.99)
    };
    s.phases = vec![
        phase("settled", 60_000, 0, 0),
        phase("sliding", 90_000, 0, 60_000),
        phase("resettled", 60_000, 60_000, 60_000),
    ];
    s.invariants.push(p99("settled", CLOSED_P99_US));
    s.invariants.push(p99("resettled", CLOSED_P99_US));
    s
}

fn conn_churn() -> Scenario {
    // Hundreds of short-lived connections per second against the reactor
    // while the measured drivers run: accepts, hangups and half-closed
    // sockets must not perturb the data plane or leak connections. The
    // measured load is open-loop paced so the chaos window has real
    // duration at any scale (a closed loop would drain the smoke budget in
    // milliseconds, before a single churn connection landed).
    let mut s = base_scenario(
        "conn_churn",
        "paced load while short-lived connections churn against the reactor",
    );
    s.phases = vec![Phase {
        rate: Some(6_000.0),
        ..Phase::steady("churn", 150_000, 30_000, 1.0)
    }];
    s.chaos = vec![Chaos::ConnChurn { per_sec: 300.0 }];
    s.invariants.push(p99("churn", OPEN_P99_US));
    s
}

fn slow_loris() -> Scenario {
    // Slow-loris clients park half-written commands while other
    // connections abort mid-value; an event-driven server must keep
    // serving the well-behaved drivers at full speed.
    let mut s = base_scenario(
        "slow_loris",
        "half-written commands held open and mid-value disconnects under paced load",
    );
    s.phases = vec![Phase {
        rate: Some(5_000.0),
        ..Phase::steady("loris", 120_000, 30_000, 1.0)
    }];
    s.chaos = vec![
        Chaos::SlowLoris {
            clients: 12,
            hold_ms: 150,
        },
        Chaos::MidValueDisconnect { per_sec: 30.0 },
    ];
    s.invariants.push(p99("loris", OPEN_P99_US));
    s
}

fn tenant_storm() -> Scenario {
    // Multi-tenant traffic while an `app_create` storm registers dozens
    // of new tenants: every creation re-carves the budget, and the sum
    // must still conserve the total at the end.
    let mut s = base_scenario(
        "tenant_storm",
        "multi-tenant load while an app_create storm re-carves budgets under fire",
    );
    s.total_bytes = 48 << 20;
    s.fill_on_miss = true;
    s.tenants = vec![("anchor".to_string(), 3), ("b_tenant".to_string(), 1)];
    s.phases = vec![Phase {
        rate: Some(5_000.0),
        ..Phase::steady("storm", 150_000, 20_000, 1.0)
    }];
    s.chaos = vec![Chaos::TenantStorm {
        tenants: 48,
        per_sec: 30.0,
    }];
    s.invariants.push(p99("storm", OPEN_P99_US));
    s
}

/// Rank of the flash-crowd spike key: far outside every phase's key
/// universe and drift range, so the versioned probe is its only writer.
const SPIKE_KEY_RANK: u64 = 5_000_000;

fn flash_crowd() -> Scenario {
    // The single-core flash crowd: one viral key spikes to half of all
    // traffic while the background mix sharpens (a crowd arriving is also
    // a skew change). With `hot_key_promote` the control thread promotes
    // the key into per-loop replicas mid-spike; the versioned probe writes
    // through the whole window, so promotion, invalidation and demotion
    // all happen under the `no_stale_reads` microscope.
    let mut s = base_scenario(
        "flash_crowd",
        "a single viral key spikes to half of all traffic; replication must absorb it with no stale reads",
    );
    s.hot_key_promote = true;
    // The bottleneck under test is *one loop* pinned by one key: force a
    // multi-loop plane even where CPU auto-detection would pick a single
    // loop, or there are no non-owning loops to replicate onto.
    s.workers = 4;
    s.shards = 8;
    let keys = 30_000;
    s.phases = vec![
        Phase::steady("steady", 100_000, keys, 0.9),
        Phase {
            spike: Some(SpikeSpec {
                key_rank: SPIKE_KEY_RANK,
                fraction: 0.5,
            }),
            zipf_end: 1.2,
            ..Phase::steady("spike", 120_000, keys, 0.9)
        },
        Phase::steady("recover", 80_000, keys, 0.9),
    ];
    s.invariants.push(p99("spike", CLOSED_P99_US));
    s.invariants.push(Invariant::NoStaleReads);
    s
}

/// Resolves a named scenario at standard (nightly) scale; `None` for an
/// unknown name. The standard matrix totals well over a million generated
/// requests across the seven scenarios.
pub fn named_scenario(name: &str) -> Option<Scenario> {
    match name {
        "scan_storm" => Some(scan_storm()),
        "diurnal" => Some(diurnal()),
        "drift" => Some(drift()),
        "conn_churn" => Some(conn_churn()),
        "slow_loris" => Some(slow_loris()),
        "tenant_storm" => Some(tenant_storm()),
        "flash_crowd" => Some(flash_crowd()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_with(zipf: (f64, f64), offsets: (u64, u64)) -> Phase {
        Phase {
            zipf_start: zipf.0,
            zipf_end: zipf.1,
            offset_start: offsets.0,
            offset_end: offsets.1,
            ..Phase::steady("p", 1_000, 1_000, 1.0)
        }
    }

    #[test]
    fn interpolations_are_monotone_and_clamped() {
        let rising = phase_with((0.6, 1.2), (100, 5_000));
        let falling = phase_with((1.2, 0.6), (5_000, 100));
        let mut last_exp = f64::MIN;
        let mut last_off = 0u64;
        for step in 0..=100 {
            let p = step as f64 / 100.0;
            let exp = zipf_exponent_at(&rising, p);
            let off = drift_offset_at(&rising, p);
            assert!(exp >= last_exp, "exponent must rise monotonically");
            assert!(off >= last_off, "offset must rise monotonically");
            last_exp = exp;
            last_off = off;
        }
        let mut last_exp = f64::MAX;
        let mut last_off = u64::MAX;
        for step in 0..=100 {
            let p = step as f64 / 100.0;
            let exp = zipf_exponent_at(&falling, p);
            let off = drift_offset_at(&falling, p);
            assert!(exp <= last_exp, "exponent must fall monotonically");
            assert!(off <= last_off, "offset must fall monotonically");
            last_exp = exp;
            last_off = off;
        }
        // Endpoints are exact and out-of-range progress clamps.
        assert_eq!(zipf_exponent_at(&rising, 0.0), 0.6);
        assert_eq!(zipf_exponent_at(&rising, 1.0), 1.2);
        assert_eq!(zipf_exponent_at(&rising, 7.0), 1.2);
        assert_eq!(drift_offset_at(&rising, -1.0), 100);
        assert_eq!(drift_offset_at(&rising, 1.0), 5_000);
    }

    fn canned_report() -> ScenarioReport {
        let stats: Value = serde_json::from_str(
            r#"{
                "capacity": {"limit_maxbytes": 1000},
                "connections": {"curr": 1},
                "tenants": [
                    {"name": "default", "budget": 600},
                    {"name": "a", "budget": 400}
                ]
            }"#,
        )
        .unwrap();
        ScenarioReport {
            schema: SCENARIO_SCHEMA.to_string(),
            scenario: "canned".to_string(),
            errors: 0,
            conn_baseline: 7,
            conn_final: 1,
            phases: vec![PhaseReport {
                name: "steady".to_string(),
                latency: LatencySummary {
                    count: 100,
                    p99_us: 900.0,
                    ..Default::default()
                },
                ..PhaseReport::default()
            }],
            server_stats: Some(stats),
            ..ScenarioReport::default()
        }
    }

    #[test]
    fn invariants_pass_on_a_healthy_canned_report() {
        let report = canned_report();
        let invariants = vec![
            Invariant::ZeroErrors,
            Invariant::BudgetConservation,
            Invariant::PhaseP99Below {
                phase: "steady".to_string(),
                max_us: 1_000.0,
            },
            Invariant::ConnectionsReturnToBaseline,
        ];
        let verdicts = evaluate_invariants(&invariants, &report);
        assert_eq!(verdicts.len(), 4);
        for v in &verdicts {
            assert!(v.pass, "{} should pass: {}", v.name, v.detail);
        }
        assert_eq!(verdicts[2].name, "p99_bounded[steady]");
    }

    #[test]
    fn each_invariant_fails_on_its_own_evidence() {
        // Errors.
        let mut report = canned_report();
        report.errors = 3;
        let v = evaluate_invariants(&[Invariant::ZeroErrors], &report);
        assert!(!v[0].pass);
        assert_eq!(v[0].name, "zero_errors");

        // Budget leak: tenants sum short of the limit.
        let mut report = canned_report();
        report.server_stats = Some(
            serde_json::from_str(
                r#"{
                    "capacity": {"limit_maxbytes": 1000},
                    "tenants": [
                        {"name": "default", "budget": 600},
                        {"name": "a", "budget": 399}
                    ]
                }"#,
            )
            .unwrap(),
        );
        let v = evaluate_invariants(&[Invariant::BudgetConservation], &report);
        assert!(!v[0].pass, "{}", v[0].detail);
        assert!(v[0].detail.contains("999"));

        // A zero p99 bound (the CI negative test's lever).
        let report = canned_report();
        let v = evaluate_invariants(
            &[Invariant::PhaseP99Below {
                phase: "steady".to_string(),
                max_us: 0.0,
            }],
            &report,
        );
        assert!(!v[0].pass);
        assert_eq!(v[0].name, "p99_bounded[steady]");

        // A missing phase is a failure, not a silent skip.
        let v = evaluate_invariants(
            &[Invariant::PhaseP99Below {
                phase: "nope".to_string(),
                max_us: 1e9,
            }],
            &report,
        );
        assert!(!v[0].pass);

        // Leaked connections.
        let mut report = canned_report();
        report.conn_final = 4;
        let v = evaluate_invariants(&[Invariant::ConnectionsReturnToBaseline], &report);
        assert!(!v[0].pass);
        assert_eq!(v[0].name, "connections_baseline");

        // No scraped stats at all: conservation cannot be verified.
        let mut report = canned_report();
        report.server_stats = None;
        let v = evaluate_invariants(&[Invariant::BudgetConservation], &report);
        assert!(!v[0].pass);
    }

    #[test]
    fn no_stale_reads_judges_the_probe_in_both_polarities() {
        // A clean, busy probe passes.
        let mut report = canned_report();
        report.probe = Some(ProbeReport {
            writes: 500,
            reads: 2_000,
            misses: 3,
            stale_reads: 0,
        });
        let v = evaluate_invariants(&[Invariant::NoStaleReads], &report);
        assert!(v[0].pass, "{}", v[0].detail);
        assert_eq!(v[0].name, "no_stale_reads");

        // A single stale read fails.
        report.probe.as_mut().unwrap().stale_reads = 1;
        let v = evaluate_invariants(&[Invariant::NoStaleReads], &report);
        assert!(!v[0].pass);
        assert!(v[0].detail.contains("1 stale"), "{}", v[0].detail);

        // A vacuous probe (no versioned reads) fails — zero staleness
        // must be evidence, not absence.
        report.probe = Some(ProbeReport::default());
        let v = evaluate_invariants(&[Invariant::NoStaleReads], &report);
        assert!(!v[0].pass);

        // A run that never spawned the probe fails too.
        report.probe = None;
        let v = evaluate_invariants(&[Invariant::NoStaleReads], &report);
        assert!(!v[0].pass);
        assert!(v[0].detail.contains("no versioned probe"));
    }

    #[test]
    fn flash_crowd_spikes_one_key_outside_its_universe() {
        let s = named_scenario("flash_crowd").expect("registered scenario");
        assert!(s.hot_key_promote, "the mitigation must be on by default");
        let spike = s
            .phases
            .iter()
            .find_map(|p| p.spike.as_ref())
            .expect("a spike phase");
        assert!((0.0..=1.0).contains(&spike.fraction) && spike.fraction > 0.0);
        for phase in &s.phases {
            assert!(
                spike.key_rank > phase.num_keys + phase.offset_start.max(phase.offset_end),
                "the spike key must sit outside every phase's reachable ranks"
            );
        }
        assert!(s
            .invariants
            .iter()
            .any(|i| matches!(i, Invariant::NoStaleReads)));
        assert!(s
            .invariants
            .iter()
            .any(|i| matches!(i, Invariant::PhaseP99Below { phase, .. } if phase == "spike")));
    }

    #[test]
    fn scaling_floors_phases_and_storm_sizes() {
        let scaled = tenant_storm().scaled(0.001);
        for phase in &scaled.phases {
            assert_eq!(phase.requests, MIN_PHASE_REQUESTS);
        }
        assert!(scaled.warmup_keys >= 200);
        match &scaled.chaos[0] {
            Chaos::TenantStorm { tenants, .. } => assert_eq!(*tenants, 6),
            other => panic!("unexpected chaos: {other:?}"),
        }
        assert!((scaled.scale - 0.001).abs() < 1e-12);
    }

    #[test]
    fn override_p99_replaces_bounds_per_phase() {
        let mut s = scan_storm();
        s.override_p99(0.0);
        let bounds: Vec<_> = s
            .invariants
            .iter()
            .filter(|i| matches!(i, Invariant::PhaseP99Below { .. }))
            .collect();
        assert_eq!(bounds.len(), s.phases.len());
        for b in bounds {
            match b {
                Invariant::PhaseP99Below { max_us, .. } => assert_eq!(*max_us, 0.0),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn registry_resolves_every_name_and_totals_a_million() {
        let mut total = 0u64;
        for name in scenario_names() {
            let s = named_scenario(name).expect("registered scenario");
            assert_eq!(&s.name, name);
            assert!(!s.phases.is_empty());
            assert!(!s.invariants.is_empty());
            total += s.total_requests();
        }
        assert!(named_scenario("nope").is_none());
        assert!(
            total >= 1_000_000,
            "the standard matrix must generate ≥1M requests, got {total}"
        );
    }

    #[test]
    fn phase_boundaries_honor_exact_request_budgets() {
        // Three closed phases with distinct budgets and no demand fills:
        // every phase's report must account for exactly its budget — the
        // scheduler transitions on the right request boundaries.
        let scenario = Scenario {
            name: "boundaries".to_string(),
            description: "test".to_string(),
            total_bytes: 8 << 20,
            shards: 1,
            workers: 1,
            connections: 2,
            pipeline: 8,
            warmup_keys: 500,
            fill_on_miss: false,
            hot_key_promote: false,
            tenants: Vec::new(),
            phases: vec![
                Phase::steady("a", 700, 1_000, 1.0),
                Phase::steady("b", 400, 1_000, 0.0),
                Phase::steady("c", 900, 1_000, 1.0),
            ],
            chaos: Vec::new(),
            invariants: vec![Invariant::ZeroErrors],
            scale: 1.0,
        };
        let report = run_scenario(&scenario).unwrap();
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].requests, 700);
        assert_eq!(report.phases[1].requests, 400);
        assert_eq!(report.phases[2].requests, 900);
        assert_eq!(report.requests, 2_000);
        assert!(report.passed, "{:?}", report.invariants);
        assert_eq!(report.schema, SCENARIO_SCHEMA);
    }

    #[test]
    fn open_phase_rate_changes_keep_the_schedule() {
        // Two open phases at different rates: the total wall clock must
        // cover at least the sum of each phase's schedule — a pacer that
        // recomputed its chain from the run start at the new rate would
        // finish the second phase in a burst and break this.
        let scenario = Scenario {
            name: "rate_change".to_string(),
            description: "test".to_string(),
            total_bytes: 8 << 20,
            shards: 1,
            workers: 1,
            connections: 2,
            pipeline: 1,
            warmup_keys: 500,
            fill_on_miss: false,
            hot_key_promote: false,
            tenants: Vec::new(),
            phases: vec![
                Phase {
                    rate: Some(2_000.0),
                    ..Phase::steady("slow", 600, 1_000, 0.99)
                },
                Phase {
                    rate: Some(6_000.0),
                    ..Phase::steady("fast", 900, 1_000, 0.99)
                },
            ],
            chaos: Vec::new(),
            invariants: vec![Invariant::ZeroErrors],
            scale: 1.0,
        };
        let report = run_scenario(&scenario).unwrap();
        assert!(report.passed, "{:?}", report.invariants);
        let min_schedule = 600.0 / 2_000.0 + 900.0 / 6_000.0;
        assert!(
            report.elapsed_secs >= min_schedule * 0.9,
            "schedule must stretch across both phases: {} < {min_schedule}",
            report.elapsed_secs
        );
        assert_eq!(report.phases[0].mode, "open");
        assert_eq!(report.phases[0].target_rps, 2_000.0);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = canned_report();
        let matrix = ScenarioMatrixReport {
            schema: SCENARIO_MATRIX_SCHEMA.to_string(),
            scale: 0.05,
            scenarios: vec![report],
        };
        let parsed: ScenarioMatrixReport = serde_json::from_str(&matrix.to_json()).unwrap();
        assert_eq!(parsed.schema, SCENARIO_MATRIX_SCHEMA);
        assert_eq!(parsed.scenarios.len(), 1);
        assert_eq!(parsed.scenarios[0].scenario, "canned");
        assert_eq!(parsed.scenarios[0].phases[0].latency.count, 100);
    }
}
