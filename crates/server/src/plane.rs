//! The shared-nothing data plane: shards fused to event loops.
//!
//! Every cache shard is *owned* by exactly one reactor event loop
//! (`owner(shard) = shard % loops`); the owning loop holds the shard's
//! per-tenant [`Engine`]s by value — no mutex, no `RwLock`, no `Arc`
//! refcount on the request path. A connection routes each key by hash in
//! [`crate::conn`] before touching any engine:
//!
//! * keys owned by the connection's own loop execute immediately on the
//!   loop thread (the fast path — zero shared locks);
//! * keys owned by another loop join that loop's [`OpBatch`] of the
//!   readiness pass — one message over the owner's mailbox however many
//!   ops it holds; the connection keeps parsing, and its in-order
//!   completion ring holds every later response until the owner sends the
//!   same batch back with the outcomes filled in, so a pipelined batch
//!   crosses the mailbox in one piece and still answers in program order.
//!
//! Cross-cutting operations never touch the loops' owned state directly.
//! A single *control thread* — the only blocking coordinator in the server
//! — serialises them: `stats` fan-out, tenant `flush_all`, `app_create`
//! carve-outs, and every [`ShardRebalancer`] budget transfer (across
//! shards, or across tenants) become [`ControlMsg`]s answered by the
//! owning loops, so admin commands no longer head-of-line-block the loop
//! that received them.
//!
//! # Invariants
//!
//! * **Budget conservation** — the control thread is the *sole* budget
//!   mutator. Every transfer is shrink-then-grow: the winner is granted
//!   only bytes the donor engine actually released (a donor pinned at its
//!   slab-class floors contributes nothing), so the summed live budgets
//!   never exceed `total_bytes`.
//! * **No blocking loops** — event loops never wait on a lock or a reply;
//!   only a connection's completion ring does. The control thread blocks
//!   on loop replies, and loops answer control messages from their
//!   mailboxes, so the wait graph is acyclic (control → loops, never loops
//!   → control).
//! * **Tenant-table generation** — the name table used by the `app`
//!   command is a per-loop copy refreshed when the shared generation
//!   counter moves. The control thread bumps the generation only *after*
//!   every owning loop has built the new tenant's engines, so a session
//!   can never resolve a tenant whose cells do not exist yet.

use crate::conn::WINDOW;
use crate::engine::{
    even_split, route_key, weighted_split, BackendConfig, BackendMode, Engine, StoredValue,
};
use crate::hotkey::{plan_round, HotKeyCount, HotLoopState, HotShared, PromotedEntry};
use crate::protocol::{StatsFormat, StoreVerb};
use crate::reactor::{ConnTelemetry, Mailbox};
use crate::stats::{
    build_document, render_json, render_prom, render_stats, BalanceDoc, EngineStat, HotKeyEntryDoc,
    HotKeysDoc, StatsDocument, StatsSnapshot, WireCounts,
};
use bytes::Bytes;
use cache_core::prefetch::Sweep;
use cache_core::{Key, TenantDirectory};
use cliffhanger::{EventSink, ShardRebalancer, ShardSample, ShardTransfer};
use parking_lot::Mutex;
use profiler::{MrcSnapshot, OnlineMrc};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};
use telemetry::{EventKind, Histogram, Journal, SeriesSample, TimeSeries};

/// Ring capacity of the control-plane flight recorder: enough to hold a
/// long tail of balancing history at a few hundred bytes per event.
const JOURNAL_CAPACITY: usize = 1024;

/// Width of one stats-history bucket: per-loop cumulative counters are
/// sampled into 1-second intervals and differenced into rates at snapshot.
const HISTORY_INTERVAL_US: u64 = 1_000_000;

/// Retained history buckets per loop (and in the merged exposition): about
/// a minute of trajectory per scrape.
const HISTORY_WINDOWS: usize = 64;

/// Slow-op journal sampling: record the first slow op and every 64th after
/// it (per loop), so a pathological threshold cannot flood the ring.
const SLOW_OP_SAMPLE: u64 = 64;

/// One local op in this many is timed for the local-latency histogram.
const LOCAL_TIMED_EVERY: u64 = 16;

/// Hottest tracked keys exposed in the stats document; the tail of a wide
/// tracker window is sampling noise.
const HOT_KEYS_EXPOSED: usize = 32;

/// Everything an event loop can find in its mailbox.
pub(crate) enum LoopMsg {
    /// A freshly accepted connection from the acceptor.
    Conn(TcpStream),
    /// Data operations for shards one loop owns, on their way there — or,
    /// in the mailbox of the loop that issued them, on their way back with
    /// the outcomes filled in.
    Ops(OpBatch),
    /// The control thread finished an admin command a connection forwarded.
    AdminDone {
        /// The origin connection's token on this loop.
        token: u64,
        /// The connection's op sequence number the reply answers.
        seq: u64,
        /// The rendered result.
        result: AdminResult,
    },
    /// A request from the control thread against this loop's owned state.
    Control(ControlMsg),
}

/// Capacity a kept batch may retain (op records; key and hit bytes, a full
/// batch's worth at 256 bytes an op); what a deeper one-off burst grew beyond
/// it goes back to the allocator.
const BATCH_RETAIN_OPS: usize = 256;
const BATCH_RETAIN_BYTES: usize = 64 * 1024;
/// Cleared batches a loop keeps for its next passes.
const SPARE_BATCHES: usize = 8;

/// One key's worth of work for the loop that owns `shard`.
pub(crate) struct Op {
    /// The issuing connection's token on the origin loop, and the sequence
    /// number of the ring entry the op resolves there.
    pub(crate) token: u64,
    pub(crate) seq: u64,
    pub(crate) tenant: usize,
    pub(crate) shard: usize,
    pub(crate) id: Key,
    /// A GET hit's version slot, read by the owner with the value when hot
    /// keys are on: the origin fills its replica from the reply with it.
    pub(crate) version: u64,
    /// Where a GET's or DELETE's key sits in the batch's bytes (set by
    /// [`OpBatch::push`]); a store's key travels in its item.
    pub(crate) key: std::ops::Range<usize>,
    pub(crate) state: OpState,
}

/// What an [`Op`] asks for on the way out — `Get`, `Delete`, `Store` — and
/// what came of it on the way back: the owner overwrites the request with
/// its outcome in place.
pub(crate) enum OpState {
    Get,
    Delete,
    Store {
        verb: StoreVerb,
        item: StoredValue,
    },
    /// A GET's outcome: on an exact hit, the flags and where the owner
    /// copied the data in the batch's bytes ([`OpBatch::bytes`]).
    Value(Option<(u32, std::ops::Range<usize>)>),
    /// A store's or delete's outcome.
    Flag(bool),
}

impl OpState {
    /// Hands the request out and leaves the outcome of one nobody served: a
    /// miss for a GET, `false` for a write.
    fn fail(&mut self) -> OpState {
        let failed = match self {
            OpState::Get => OpState::Value(None),
            _ => OpState::Flag(false),
        };
        std::mem::replace(self, failed)
    }
}

/// The unit that crosses a mailbox: the ops one loop forwarded to one owner
/// in a run of one readiness pass. The origin loop allocates its two buffers
/// (or takes a cleared batch it kept), the owner executes the ops in order,
/// overwrites each request with its outcome — a hit's data copied out of the
/// owner's item behind the keys, so no reference into one thread's cache is
/// ever held by another — and sends the batch back; the origin completes its
/// connections' ring entries from it, clears it and keeps it. In the steady
/// state a remote op allocates nothing and either side reads the clock once
/// per batch.
pub(crate) struct OpBatch {
    /// The loop that issued the ops and gets the batch back; `None` for a
    /// [`PlaneHandle`] caller, which is answered over `caller`.
    pub(crate) origin: Option<usize>,
    caller: Option<Sender<OpBatch>>,
    /// When the issuing side opened the batch. The owning loop's
    /// remote-latency histogram measures from here, so forwarded ops are
    /// charged their mailbox queueing delay, not just engine time.
    enqueued: Instant,
    pub(crate) ops: Vec<Op>,
    /// GET and DELETE keys, then the data of the GETs that hit, back to back.
    bytes: Vec<u8>,
}

impl OpBatch {
    pub(crate) fn new(origin: Option<usize>, enqueued: Instant) -> OpBatch {
        OpBatch {
            origin,
            caller: None,
            enqueued,
            ops: Vec::new(),
            bytes: Vec::new(),
        }
    }

    /// Appends `op`; `key` is copied behind the bytes already held.
    pub(crate) fn push(&mut self, mut op: Op, key: &[u8]) {
        op.key = append(&mut self.bytes, key);
        self.ops.push(op);
    }

    /// The bytes at `range`: an op's key, or the data of a GET that hit.
    pub(crate) fn bytes(&self, range: &std::ops::Range<usize>) -> &[u8] {
        &self.bytes[range.clone()]
    }

    /// Empties the batch for its next trip — no op, key or value byte of
    /// this one survives — trimmed to the retained capacity.
    fn clear(&mut self) {
        self.ops.clear();
        self.ops.shrink_to(BATCH_RETAIN_OPS);
        self.bytes.clear();
        self.bytes.shrink_to(BATCH_RETAIN_BYTES);
    }
}

/// Copies `data` behind what `bytes` holds; returns where it sits.
fn append(bytes: &mut Vec<u8>, data: &[u8]) -> std::ops::Range<usize> {
    let start = bytes.len();
    bytes.extend_from_slice(data);
    start..bytes.len()
}

/// Control-thread requests against one loop's owned engines. Replies go
/// over plain `mpsc` senders — the control thread is the only receiver and
/// the only thread that ever blocks on them.
pub(crate) enum ControlMsg {
    /// Snapshot every owned engine's stats and the loop's counters: the
    /// `stats` document's fan-out, and nothing else.
    Snapshot { reply: Sender<LoopSnapshot> },
    /// Report `(global shard, per-tenant shadow hits)` for every owned
    /// shard: all a balancing round reads.
    ShadowHits {
        reply: Sender<Vec<(usize, Vec<u64>)>>,
    },
    /// Report the hot-key tracker's window tallies (empty when the feature
    /// is off): all a hot-key round reads.
    HotKeys { reply: Sender<Vec<HotKeyCount>> },
    /// Release budget from one engine (evicting as needed); reply whether
    /// the bytes were actually released.
    Shrink {
        shard: usize,
        tenant: usize,
        bytes: u64,
        reply: Sender<bool>,
    },
    /// Grant budget to one engine (always succeeds on managed engines).
    Grow {
        shard: usize,
        tenant: usize,
        bytes: u64,
    },
    /// Replace one engine with a fresh build at the given budget (tenant
    /// `flush_all`). Wire counters survive.
    Rebuild {
        shard: usize,
        tenant: usize,
        budget: u64,
        reply: Sender<()>,
    },
    /// `app_create` carve-out: shrink the asked (shard, tenant) engines,
    /// then bring up the new tenant's engine on every owned shard with the
    /// bytes actually carved there. Replies the granted asks.
    CarveAdd {
        /// The new tenant's name (not yet in the loops' tables — the
        /// generation bump that publishes it happens after every carve).
        name: String,
        asks: Vec<(usize, usize, u64)>,
        reply: Sender<Vec<(usize, usize, u64)>>,
    },
}

/// What one loop reports to the control thread for the `stats` document.
pub(crate) struct LoopSnapshot {
    pub(crate) loop_index: usize,
    /// `(global shard index, per-tenant engine stats)` for owned shards.
    pub(crate) engines: Vec<(usize, Vec<EngineStat>)>,
    pub(crate) local_ops: u64,
    pub(crate) remote_in: u64,
    pub(crate) remote_out: u64,
    pub(crate) admin_forwards: u64,
    /// Service times of ops this loop ran for its own connections.
    pub(crate) local_latency: Histogram,
    /// Queue + service times of ops forwarded here by sibling loops.
    pub(crate) remote_latency: Histogram,
    /// Ops that exceeded the configured slow-op threshold on this loop.
    pub(crate) slow_ops: u64,
    /// Per-tenant online MRC samples over this loop's shard partition
    /// (empty when profiling is off).
    pub(crate) mrc: Vec<MrcSnapshot>,
    /// Per-tenant counter history buckets recorded by this loop.
    pub(crate) history: TimeSeries,
    /// This loop's sampled hot-key window tallies (empty when the feature
    /// is off).
    pub(crate) hot_keys: Vec<HotKeyCount>,
    /// GETs this loop served from its promoted-key replica cache.
    pub(crate) replica_hits: u64,
    /// Replica fills this loop took from its forwarded GETs' replies.
    pub(crate) replica_fills: u64,
    /// Replica entries this loop found stale on a read and dropped.
    pub(crate) hot_invalidations: u64,
    /// Replica-served GETs by `(shard, tenant, count)`, so snapshot
    /// assembly can fold them into the owning cell's wire counters — a
    /// promoted key's dominant traffic must not vanish from tenant and
    /// shard hit-ratio stats the moment it stops crossing loops.
    pub(crate) replica_hit_cells: Vec<(usize, usize, u64)>,
}

/// The rounds the control thread runs, in the order a loop whose op counter
/// crosses several intervals at once asks for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RoundKind {
    /// Hot-key promotion and demotion.
    HotKeys,
    /// Budget across the shards of each tenant.
    Rebalance,
    /// Budget across the tenants.
    Arbitrate,
}

impl RoundKind {
    const ALL: [RoundKind; 3] = [
        RoundKind::HotKeys,
        RoundKind::Rebalance,
        RoundKind::Arbitrate,
    ];
}

/// Requests to the control thread.
pub(crate) enum CtrlReq {
    /// Run one round: asked for by a loop whose op counter crossed the
    /// kind's interval (`done` is `None`), or by a caller that waits for it
    /// ([`PlaneHandle::rebalance_now`] etc.).
    Round {
        kind: RoundKind,
        done: Option<Sender<()>>,
    },
    /// An admin command forwarded off a connection (or a sync caller).
    Admin { op: AdminOp, reply: AdminReply },
    /// Exit the control thread.
    Shutdown,
}

/// The admin commands the control thread serialises.
pub(crate) enum AdminOp {
    Stats { format: StatsFormat },
    FlushTenant { tenant: usize },
    CreateTenant { name: String, weight: u64 },
    AppList,
}

/// Where an admin result goes.
pub(crate) enum AdminReply {
    /// Back to the loop whose connection issued it (as
    /// [`LoopMsg::AdminDone`]).
    Conn { origin: usize, token: u64, seq: u64 },
    /// Straight to a blocked [`PlaneHandle`] caller.
    Sync(Sender<AdminResult>),
}

/// An admin command's result.
pub(crate) enum AdminResult {
    Stats(Vec<(String, String)>),
    /// A machine-readable stats payload (`stats json` / `stats prom`),
    /// already rendered to its wire text.
    Blob(String),
    Flushed,
    Created(Result<usize, String>),
    Apps(Vec<(String, u64, u64)>),
}

/// The master tenant table. The control thread is the only writer; loops
/// copy the name table out when the generation counter moves, and slow
/// readers ([`PlaneHandle`] accessors, `stats` assembly) take the lock.
/// The request fast path never touches it.
#[derive(Clone)]
pub(crate) struct RosterMaster {
    pub(crate) directory: TenantDirectory,
    pub(crate) weights: Vec<u64>,
    /// Live per-(tenant, shard) byte budgets.
    pub(crate) budgets: Vec<Vec<u64>>,
}

impl RosterMaster {
    pub(crate) fn tenant_budgets(&self) -> Vec<u64> {
        self.budgets
            .iter()
            .map(|per_shard| per_shard.iter().sum())
            .collect()
    }

    pub(crate) fn shard_budgets(&self, shards: usize) -> Vec<u64> {
        (0..shards)
            .map(|s| self.budgets.iter().map(|per_shard| per_shard[s]).sum())
            .collect()
    }

    /// Every live budget summed: what the control thread must conserve.
    fn total_budget(&self) -> u64 {
        self.budgets.iter().flatten().sum()
    }

    /// The hosted applications as `(name, weight, live budget bytes)`.
    fn app_list(&self) -> Vec<(String, u64, u64)> {
        let budgets = self.tenant_budgets();
        let rows = self.directory.names().iter().zip(&self.weights);
        rows.zip(budgets)
            .map(|((name, &weight), budget)| (name.clone(), weight, budget))
            .collect()
    }
}

/// State shared by the loops, the control thread and the [`PlaneHandle`].
pub(crate) struct PlaneShared {
    pub(crate) config: BackendConfig,
    pub(crate) shards: usize,
    pub(crate) loops: usize,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) ctrl: Sender<CtrlReq>,
    /// Bumped by the control thread after every tenant-table change.
    pub(crate) generation: AtomicU64,
    pub(crate) roster: Mutex<RosterMaster>,
    /// The control-plane flight recorder. Lock-free claims; writers are
    /// control-plane actors only (never the per-request fast path).
    pub(crate) journal: Arc<Journal>,
    /// Slow-op threshold in nanoseconds; 0 disables the slow-op log.
    pub(crate) slow_op_nanos: u64,
    /// Plane boot instant: the monotonic zero for journal timestamps,
    /// history bucket indices and `uptime_s`.
    pub(crate) started: Instant,
    /// Wall-clock at boot, for anchoring monotonic offsets to real time.
    pub(crate) start_unix_us: u64,
    /// Spatial-sampling shift for online MRC profiling (`None` = off).
    pub(crate) mrc_shift: Option<u32>,
    /// Hot-key subsystem shared state; `None` when the feature is off, so
    /// the request fast path pays exactly one `Option` discriminant check.
    pub(crate) hot: Option<HotShared>,
    /// Per [`RoundKind`]: a loop has asked for a round the control thread
    /// has not started yet. Collapses concurrent triggers from many loops
    /// into one queued round.
    round_pending: [AtomicBool; 3],
}

impl PlaneShared {
    /// Resolves the tenant roster, the shard count and the boot budget
    /// split (weight-proportional across tenants, even across shards) for
    /// a plane of `loops` event loops reachable over `mailboxes`.
    fn new(
        config: BackendConfig,
        loops: usize,
        mailboxes: Vec<Mailbox>,
        ctrl: Sender<CtrlReq>,
        slow_op_micros: u64,
    ) -> PlaneShared {
        let directory = config.tenant_directory();
        let weights = config.tenant_weights(&directory);
        let requested = config.requested_shards();
        let shards = config.resolved_shards();
        if shards < requested {
            // The budget cap is a silent hit-rate/scaling hazard otherwise:
            // a run that asked for 8 shards may be measuring 2.
            eprintln!(
                "plane: shard count clamped from {requested} to {shards} \
                 ({} MB total across {} tenant(s)); \
                 stats reports shards_requested/shard_count",
                config.total_bytes >> 20,
                directory.len(),
            );
        }
        let budgets: Vec<Vec<u64>> = weighted_split(config.total_bytes, &weights)
            .iter()
            .map(|&share| even_split(share.max(1), shards))
            .collect();
        PlaneShared {
            shards,
            loops,
            mailboxes,
            ctrl,
            generation: AtomicU64::new(1),
            roster: Mutex::new(RosterMaster {
                directory,
                weights,
                budgets,
            }),
            journal: Arc::new(Journal::new(JOURNAL_CAPACITY)),
            slow_op_nanos: slow_op_micros.saturating_mul(1_000),
            started: Instant::now(),
            start_unix_us: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            mrc_shift: config.mrc_shift(),
            hot: config
                .hot_key
                .enabled
                .then(|| HotShared::new(config.hot_key.clone())),
            round_pending: Default::default(),
            config,
        }
    }

    /// The event loop that owns a shard.
    pub(crate) fn owner_of(&self, shard: usize) -> usize {
        shard % self.loops
    }

    /// Whether rounds of `kind` run on this plane while it hosts `tenants`
    /// tenants: the one predicate behind the loops' triggers, the control
    /// thread's rounds and the `enabled` flags `stats` reports.
    fn round_active(&self, kind: RoundKind, tenants: usize) -> bool {
        let managed = self.config.mode != BackendMode::Default;
        match kind {
            RoundKind::HotKeys => self.hot.is_some(),
            RoundKind::Rebalance => managed && self.config.rebalance.enabled && self.shards > 1,
            RoundKind::Arbitrate => managed && self.config.tenant_balance.enabled && tenants > 1,
        }
    }
}

/// The [`EventSink`] installed on every managed engine: tags the library's
/// anonymous decision events with the engine's (shard, tenant) identity and
/// appends them to the flight recorder. Transfers are not journalled here —
/// the balancers run in the control thread, which records only the
/// transfers it actually applied.
struct EngineSink {
    journal: Arc<Journal>,
    shard: usize,
    tenant: String,
}

impl EventSink for EngineSink {
    fn scaler_ratio(&self, class: u32, ratio: f64) {
        self.journal.record(EventKind::ScalerRatio {
            shard: self.shard,
            tenant: self.tenant.clone(),
            class,
            ratio,
        });
    }

    fn free_pool_grant(&self, class: u32, bytes: u64) {
        self.journal.record(EventKind::FreePoolGrant {
            shard: self.shard,
            tenant: self.tenant.clone(),
            class,
            bytes,
        });
    }
}

/// Builds an engine for `(shard, tenant)` with the flight-recorder sink
/// installed (a no-op on plain engines).
fn build_engine(shared: &PlaneShared, shard: usize, tenant: &str, budget: u64) -> Engine {
    let mut engine = Engine::build(&shared.config, budget);
    engine.set_event_sink(Arc::new(EngineSink {
        journal: Arc::clone(&shared.journal),
        shard,
        tenant: tenant.to_string(),
    }));
    engine
}

/// Where a key lives: its shard, its 64-bit id, and `Ok(local slot)` when
/// the asking loop owns the shard, `Err(owner loop)` otherwise.
pub(crate) type Route = (usize, Key, Result<usize, usize>);

/// One owned engine and its wire counters — plain fields, touched only by
/// the owning loop thread.
struct OwnedEngine {
    engine: Engine,
    gets: u64,
    hits: u64,
    sets: u64,
    deletes: u64,
}

impl OwnedEngine {
    fn new(engine: Engine) -> OwnedEngine {
        OwnedEngine {
            engine,
            gets: 0,
            hits: 0,
            sets: 0,
            deletes: 0,
        }
    }

    fn wire_counts(&self) -> WireCounts {
        WireCounts {
            gets: self.gets,
            hits: self.hits,
            misses: self.gets.saturating_sub(self.hits),
            sets: self.sets,
            deletes: self.deletes,
        }
    }
}

/// One owned shard: an engine per tenant.
struct OwnedShard {
    global: usize,
    cells: Vec<OwnedEngine>,
}

/// The loop-thread-owned half of the data plane: the engines of the shards
/// this loop owns, the loop's copy of the tenant name table, its telemetry
/// counters and its outbound message queues.
pub(crate) struct LoopState {
    pub(crate) index: usize,
    pub(crate) shared: Arc<PlaneShared>,
    /// Global shard index → position in `owned` (None = another loop's).
    slots: Vec<Option<usize>>,
    owned: Vec<OwnedShard>,
    /// Loop-local tenant name table (the `app` command's view), refreshed
    /// from the roster when the generation counter moves.
    tenants: Vec<String>,
    generation_seen: u64,
    /// Data ops executed for this loop's own connections.
    pub(crate) local_ops: u64,
    /// Data ops executed on behalf of another loop.
    pub(crate) remote_in: u64,
    /// Data ops forwarded to other loops.
    pub(crate) remote_out: u64,
    /// Admin commands forwarded to the control thread.
    pub(crate) admin_forwards: u64,
    /// Service times of ops run for this loop's own connections (ns).
    local_latency: Histogram,
    /// Queue + service times of ops forwarded here by siblings (ns).
    remote_latency: Histogram,
    /// Ops over the slow-op threshold (0 threshold = never counted).
    slow_ops: u64,
    /// Per [`RoundKind`]: the ops this loop executes between two requests
    /// for a round (the configured interval over the loop count).
    intervals: [u64; 3],
    /// Per [`RoundKind`]: the ops left until the count next crosses its
    /// interval (a countdown, so an op divides nothing).
    until: [u64; 3],
    /// Per-tenant online MRC estimators over this loop's shard partition
    /// (empty when profiling is off or the loop owns no shards).
    mrc: Vec<OnlineMrc>,
    /// Per-tenant counter history, bucketed into wall-clock intervals.
    history: TimeSeries,
    /// The sample `observe` builds for `history`, kept between passes so a
    /// readiness pass allocates nothing.
    sample: Vec<SeriesSample>,
    /// Per-target-loop outbound batches, flushed once per readiness pass.
    /// A forwarded op joins the [`OpBatch`] at the tail of its target's
    /// queue or opens one there, so a batch sits where its first op was
    /// issued and the queue stays FIFO per (origin, owner).
    outbound: Vec<Vec<OpBatch>>,
    /// Cleared batches back from their trip, ready for the next.
    spare: Vec<OpBatch>,
    /// The instant [`LoopState::observe`] read at the top of this readiness
    /// pass: the pass's one clock for batch stamps and connection activity.
    pub(crate) now: Instant,
    /// Loop-local hot-key state (tracker, promoted-set view, replica
    /// cache); `None` when the feature is off.
    hot: Option<HotLoopState>,
    /// Replica-served GETs tallied by `(shard, tenant)`; merged into the
    /// owning cell's wire counters at snapshot. Promoted keys only, so
    /// the map stays a handful of entries.
    replica_tenant_hits: HashMap<(usize, usize), u64>,
}

impl LoopState {
    /// The state of loop `index` of a plane that has not served yet: an
    /// engine per tenant, at its boot budget, for every shard the loop owns.
    fn new(index: usize, shared: Arc<PlaneShared>) -> LoopState {
        let roster = shared.roster.lock();
        let tenants = roster.directory.names().to_vec();
        let owned: Vec<OwnedShard> = (index..shared.shards)
            .step_by(shared.loops)
            .map(|s| OwnedShard {
                global: s,
                cells: roster
                    .budgets
                    .iter()
                    .zip(&tenants)
                    .map(|(per_shard, name)| {
                        OwnedEngine::new(build_engine(&shared, s, name, per_shard[s]))
                    })
                    .collect(),
            })
            .collect();
        drop(roster);
        let mut slots = vec![None; shared.shards];
        for (i, shard) in owned.iter().enumerate() {
            slots[shard.global] = Some(i);
        }
        let config = &shared.config;
        let intervals = RoundKind::ALL.map(|kind| match kind {
            RoundKind::HotKeys => config.hot_key.interval_requests,
            RoundKind::Rebalance => config.rebalance.interval_requests,
            RoundKind::Arbitrate => config.tenant_balance.interval_requests,
        });
        let intervals = intervals.map(|requests| (requests / shared.loops as u64).max(1));
        let mut state = LoopState {
            index,
            slots,
            owned,
            tenants,
            generation_seen: shared.generation.load(Ordering::Acquire),
            local_ops: 0,
            remote_in: 0,
            remote_out: 0,
            admin_forwards: 0,
            local_latency: Histogram::new(),
            remote_latency: Histogram::new(),
            slow_ops: 0,
            intervals,
            until: intervals,
            mrc: Vec::new(),
            history: TimeSeries::new(HISTORY_INTERVAL_US, HISTORY_WINDOWS),
            sample: Vec::new(),
            outbound: (0..shared.loops).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            now: shared.started,
            hot: shared
                .hot
                .as_ref()
                .map(|hot| HotLoopState::new(&hot.config)),
            replica_tenant_hits: HashMap::new(),
            shared,
        };
        state.grow_mrc();
        state
    }

    /// Brings the MRC estimators up to one per tenant (none when profiling
    /// is off or the loop owns no shard to sample).
    fn grow_mrc(&mut self) {
        if let (Some(shift), false) = (self.shared.mrc_shift, self.owned.is_empty()) {
            let share = self.owned.len() as f64 / self.shared.shards as f64;
            let estimator = || OnlineMrc::with_population_share(shift, share);
            self.mrc.resize_with(self.tenants.len(), estimator);
        }
    }

    /// Re-copies the tenant name table if the control thread changed it.
    /// One relaxed atomic load on the no-change path. Also refreshes the
    /// loop's view of the promoted hot-key set (its own generation
    /// counter, same protocol).
    pub(crate) fn refresh_tenants(&mut self) {
        if let (Some(hot_shared), Some(hot)) = (self.shared.hot.as_ref(), self.hot.as_mut()) {
            hot.refresh(
                hot_shared.generation.load(Ordering::Acquire),
                &hot_shared.promoted,
            );
        }
        let generation = self.shared.generation.load(Ordering::Acquire);
        if generation != self.generation_seen {
            self.tenants = self.shared.roster.lock().directory.names().to_vec();
            self.generation_seen = generation;
            self.grow_mrc();
        }
    }

    /// Samples the loop's cumulative per-tenant counters into the history
    /// ring. Called once per readiness pass (once per request in an
    /// open-loop trickle), so it is an `Instant` read and a per-owned-cell
    /// sum of plain counters: the sample is built in a buffer the loop
    /// keeps and the ring overwrites its current bucket in place.
    pub(crate) fn observe(&mut self) {
        self.now = Instant::now();
        let now_us = (self.now - self.shared.started).as_micros() as u64;
        let columns = &mut self.sample;
        columns.clear();
        columns.resize(self.tenants.len(), SeriesSample::default());
        for shard in &self.owned {
            for (column, cell) in columns.iter_mut().zip(&shard.cells) {
                column.gets += cell.gets;
                column.hits += cell.hits;
                column.evictions += cell.engine.stats().evictions;
            }
        }
        // Replica-served GETs for keys other loops own: without these a
        // promoted key's traffic would vanish from this loop's trajectory.
        for (&(_, tenant), &count) in &self.replica_tenant_hits {
            if let Some(column) = columns.get_mut(tenant) {
                column.gets += count;
                column.hits += count;
            }
        }
        self.history.record(now_us, columns);
    }

    /// The loop-local tenant name table.
    pub(crate) fn tenant_names(&self) -> &[String] {
        &self.tenants
    }

    /// Resolves an `app` name against the loop-local table.
    pub(crate) fn tenant_lookup(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|n| n == name)
    }

    /// Routes a key: `Ok(local slot)` when this loop owns the shard,
    /// `Err(owner loop)` otherwise.
    pub(crate) fn route(&self, tenant: usize, key: &[u8]) -> Route {
        let (shard, id) = route_key(tenant, key, self.shared.shards);
        match self.slots[shard] {
            Some(slot) => (shard, id, Ok(slot)),
            None => (shard, id, Err(self.shared.owner_of(shard))),
        }
    }

    /// The three read-only sweeps ahead of a batch's execution (a connection's
    /// window, a chunk of an [`OpBatch`]); `owned` gives a key's `(local
    /// slot, tenant, id)`: each key's engine index slot, then the item's queue
    /// node and bytes, then the node's neighbours. Independent across keys,
    /// so the misses execution would take one by one overlap; one key
    /// overlaps with nothing.
    pub(crate) fn sweep<T>(&self, batch: &[T], owned: impl Fn(&T) -> Option<(usize, usize, Key)>) {
        if batch.len() < 2 {
            return;
        }
        for sweep in [Sweep::Slot, Sweep::Item, Sweep::Neighbours] {
            for (slot, tenant, id) in batch.iter().filter_map(&owned) {
                if let Some(cell) = self.owned[slot].cells.get(tenant) {
                    cell.engine.prefetch(id, sweep);
                }
            }
        }
    }

    /// A GET against an owned engine, lending the stored item on a hit.
    /// The zero-lock fast path: a slot lookup, plain-field counter bumps and
    /// the engine call — no allocation and no refcount traffic.
    pub(crate) fn get(
        &mut self,
        slot: usize,
        tenant: usize,
        id: Key,
        key: &[u8],
    ) -> Option<&StoredValue> {
        // Online MRC sampling: when profiling is off the vec is empty and
        // this is a single bounds-checked lookup; when on, a hash + compare
        // for unsampled keys.
        if let Some(estimator) = self.mrc.get_mut(tenant) {
            estimator.record(id);
        }
        // Hot-key detection rides the same sampled GET stream.
        if let Some(hot) = self.hot.as_mut() {
            hot.tracker.record(tenant, id, key);
        }
        self.tick();
        // A tenant index this loop has not materialised is impossible by
        // the generation protocol; never panic the loop over it.
        let cell = self.owned[slot].cells.get_mut(tenant)?;
        cell.gets += 1;
        let found = cell.engine.wire_get(id, key);
        cell.hits += u64::from(found.is_some());
        found
    }

    /// A store against an owned engine: `item` moves into the cache as it
    /// is. `touched` below is whether a mutating engine call actually ran:
    /// a failed `add` on a present key or a `delete` of a missing key never
    /// touches the store, so it must not bump the version slot (which
    /// would stop perfectly valid replicas serving). A `set` that ran but
    /// was not admitted still counts — admission failure may have
    /// displaced the old value.
    pub(crate) fn store(
        &mut self,
        slot: usize,
        tenant: usize,
        id: Key,
        verb: StoreVerb,
        item: StoredValue,
    ) -> bool {
        let Some(cell) = self.owned[slot].cells.get_mut(tenant) else {
            return false;
        };
        let touched = match verb {
            StoreVerb::Set => true,
            StoreVerb::Add => !cell.engine.contains_exact(id, item.key()),
            StoreVerb::Replace => cell.engine.contains_exact(id, item.key()),
        };
        cell.sets += u64::from(touched);
        let stored = touched && cell.engine.wire_set(id, item);
        if touched {
            self.note_mutation(tenant, id);
        }
        self.tick();
        stored
    }

    /// A delete against an owned engine; returns whether the key was there.
    pub(crate) fn delete(&mut self, slot: usize, tenant: usize, id: Key, key: &[u8]) -> bool {
        let Some(cell) = self.owned[slot].cells.get_mut(tenant) else {
            return false;
        };
        cell.deletes += 1;
        let touched = cell.engine.contains_exact(id, key);
        let deleted = touched && cell.engine.delete(id);
        if touched {
            self.note_mutation(tenant, id);
        }
        self.tick();
        deleted
    }

    /// Hot-key bookkeeping for a mutation this (owning) loop just applied:
    /// bump the key's version slot *before* the ack can be observed, so
    /// every replica of the key stops serving.
    fn note_mutation(&self, tenant: usize, id: Key) {
        if let Some(hot) = self.shared.hot.as_ref() {
            hot.versions.bump(tenant, id);
        }
    }

    /// Serves a GET for a *remote-owned* key from the promoted-key replica
    /// cache, if possible. A hit is a local answer (no mailbox round-trip);
    /// the tracker still records it so a promoted key's traffic keeps it
    /// hot instead of decaying out of the window the moment it stops
    /// crossing loops, and the hit is tallied against the owning
    /// `(shard, tenant)` cell (merged at snapshot) plus this loop's MRC
    /// estimator, so promotion does not make the key's traffic vanish
    /// from hit-ratio stats or the balancer signals derived from them.
    pub(crate) fn replica_get(
        &mut self,
        shard: usize,
        tenant: usize,
        id: Key,
        key: &[u8],
    ) -> Option<(u32, Bytes)> {
        let hot_shared = self.shared.hot.as_ref()?;
        let hot = self.hot.as_mut()?;
        let found = hot.replica_get(tenant, id, key, &hot_shared.versions);
        if found.is_some() {
            hot.tracker.record(tenant, id, key);
            if let Some(estimator) = self.mrc.get_mut(tenant) {
                estimator.record(id);
            }
            *self.replica_tenant_hits.entry((shard, tenant)).or_insert(0) += 1;
            self.local_ops += 1;
            self.tick();
        }
        found
    }

    /// Fills this loop's replicas from a batch that came back served:
    /// each GET hit brings the value and the version its owner read with
    /// it. [`HotLoopState::fill`] keeps only the keys this loop promoted.
    pub(crate) fn fill_replicas(&mut self, batch: &OpBatch) {
        let Some(hot) = self.hot.as_mut() else {
            return;
        };
        for op in &batch.ops {
            if let OpState::Value(Some((flags, data))) = &op.state {
                let (key, data) = (batch.bytes(&op.key), batch.bytes(data));
                hot.fill(op.tenant, op.id, key, *flags, data, op.version);
            }
        }
    }

    /// Starts the service-time stamp of the next local op if it is one of
    /// those timed: every [`LOCAL_TIMED_EVERY`]th (a clock read costs a
    /// tenth of a local GET), or every one while a slow-op threshold asks
    /// for a census.
    pub(crate) fn local_timer(&self) -> Option<Instant> {
        (self.shared.slow_op_nanos != 0 || self.local_ops % LOCAL_TIMED_EVERY == 0)
            .then(Instant::now)
    }

    /// An op for one of the loop's own connections finished: counts it and,
    /// if [`LoopState::local_timer`] timed it, records its service time.
    pub(crate) fn note_local(&mut self, timer: Option<Instant>) {
        self.local_ops += 1;
        if let Some(started) = timer {
            let nanos = started.elapsed().as_nanos() as u64;
            self.local_latency.record(nanos);
            self.note_slow(nanos, "local");
        }
    }

    /// Counts (and samples into the journal) an op over the slow-op
    /// threshold. Off the fast path when the threshold is 0 (one compare).
    fn note_slow(&mut self, nanos: u64, class: &str) {
        let threshold = self.shared.slow_op_nanos;
        if threshold == 0 || nanos < threshold {
            return;
        }
        self.slow_ops += 1;
        if self.slow_ops % SLOW_OP_SAMPLE == 1 {
            self.shared.journal.record(EventKind::SlowOp {
                loop_index: self.index,
                class: class.to_string(),
                micros: nanos / 1_000,
            });
        }
    }

    /// The idle reaper closed a connection: leave a journal trace.
    pub(crate) fn note_idle_reap(&self) {
        self.shared.journal.record(EventKind::IdleReap {
            loop_index: self.index,
        });
    }

    /// Counts one executed data op and asks the control thread for a round
    /// of each kind whose interval the count crosses, unless one is already
    /// queued. A plane with no round to run counts nothing.
    fn tick(&mut self) {
        let shared = &self.shared;
        let active = RoundKind::ALL.map(|kind| shared.round_active(kind, self.tenants.len()));
        if active == [false; 3] {
            return;
        }
        for kind in RoundKind::ALL {
            let k = kind as usize;
            self.until[k] -= 1;
            if self.until[k] > 0 {
                continue;
            }
            self.until[k] = self.intervals[k];
            if active[k] && !shared.round_pending[k].swap(true, Ordering::AcqRel) {
                let _ = shared.ctrl.send(CtrlReq::Round { kind, done: None });
            }
        }
    }

    /// Queues one op (and the key bytes of a GET or DELETE) for the loop
    /// that owns its shard: onto the batch open at the tail of that loop's
    /// queue, else onto a fresh one stamped with this pass's instant. The
    /// queues are flushed (one mailbox lock + at most one wakeup per target)
    /// at the end of the readiness pass.
    pub(crate) fn forward_op(&mut self, target: usize, op: Op, key: &[u8]) {
        self.remote_out += 1;
        let queue = &mut self.outbound[target];
        if !matches!(queue.last(), Some(open) if open.origin == Some(self.index)) {
            let mut batch = self
                .spare
                .pop()
                .unwrap_or_else(|| OpBatch::new(Some(self.index), self.now));
            batch.enqueued = self.now;
            queue.push(batch);
        }
        if let Some(open) = queue.last_mut() {
            open.push(op, key);
        }
    }

    /// Takes back a batch whose ops the event loop has completed.
    pub(crate) fn recycle(&mut self, mut batch: OpBatch) {
        if self.spare.len() < SPARE_BATCHES {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Forwards an admin command to the control thread. Returns whether the
    /// control thread is still there to answer.
    pub(crate) fn forward_admin(&mut self, op: AdminOp, token: u64, seq: u64) -> bool {
        self.admin_forwards += 1;
        self.shared
            .ctrl
            .send(CtrlReq::Admin {
                op,
                reply: AdminReply::Conn {
                    origin: self.index,
                    token,
                    seq,
                },
            })
            .is_ok()
    }

    /// Sends every target's queued batches. A stopped target refuses
    /// them: replies for its connections are moot, but a batch of
    /// this loop's own holds *its* connections' ops, and a connection with
    /// an op in flight is never reaped — so that batch, every op failed,
    /// goes into this loop's own mailbox and is completed like a reply.
    pub(crate) fn flush_outbound(&mut self) {
        for (target, queue) in self.outbound.iter_mut().enumerate() {
            if queue.is_empty() || self.shared.mailboxes[target].send_many(queue) {
                continue;
            }
            for mut batch in queue.drain(..) {
                if batch.origin == Some(self.index) {
                    batch.ops.iter_mut().for_each(|op| drop(op.state.fail()));
                    let _ = self.shared.mailboxes[self.index].send(LoopMsg::Ops(batch));
                }
            }
        }
    }

    /// Executes a batch another loop (or a sync caller) forwarded here, in
    /// order, overwriting each request with its outcome, and sends the same
    /// batch back.
    pub(crate) fn serve(&mut self, mut batch: OpBatch) {
        let OpBatch { ops, bytes, .. } = &mut batch;
        for chunk in ops.chunks_mut(WINDOW) {
            self.sweep(chunk, |op| Some((self.slots[op.shard]?, op.tenant, op.id)));
            for op in chunk {
                op.state = match (self.slots[op.shard], op.state.fail()) {
                    (Some(slot), OpState::Get) => {
                        let Some(item) = self.get(slot, op.tenant, op.id, &bytes[op.key.clone()])
                        else {
                            continue;
                        };
                        let found = (item.flags(), append(bytes, item.data()));
                        // This loop is the key's only writer, so the value
                        // and the version form one snapshot for a replica.
                        if let Some(hot) = self.shared.hot.as_ref() {
                            op.version = hot.versions.load(op.tenant, op.id);
                        }
                        OpState::Value(Some(found))
                    }
                    (Some(slot), OpState::Store { verb, item }) => {
                        OpState::Flag(self.store(slot, op.tenant, op.id, verb, item))
                    }
                    (Some(slot), OpState::Delete) => {
                        OpState::Flag(self.delete(slot, op.tenant, op.id, &bytes[op.key.clone()]))
                    }
                    // Only reachable if ownership and routing disagree (or the
                    // op is no request): it stays failed rather than wedge the
                    // issuing connection.
                    _ => continue,
                };
            }
        }
        // Forwarded ops are measured from the moment the issuing side
        // opened their batch: mailbox queueing is part of the latency a
        // remote key pays, and hiding it would make the two histograms lie.
        // One clock read for the batch; each op is recorded at that time.
        let nanos = batch.enqueued.elapsed().as_nanos() as u64;
        self.remote_in += batch.ops.len() as u64;
        for _ in 0..batch.ops.len() {
            self.remote_latency.record(nanos);
            self.note_slow(nanos, "remote");
        }
        match (batch.caller.take(), batch.origin) {
            (Some(caller), _) => drop(caller.send(batch)),
            (None, Some(origin)) => self.outbound[origin].push(batch),
            (None, None) => {}
        }
    }

    /// The engine of `(shard, tenant)`, if this loop owns the shard and
    /// has built the tenant's engines.
    fn cell_mut(&mut self, shard: usize, tenant: usize) -> Option<&mut OwnedEngine> {
        self.owned[self.slots[shard]?].cells.get_mut(tenant)
    }

    /// Releases `bytes` of one owned engine's budget, evicting as needed;
    /// `false` — and nothing changes — if its class floors forbid it.
    fn shrink(&mut self, shard: usize, tenant: usize, bytes: u64) -> bool {
        self.cell_mut(shard, tenant)
            .is_some_and(|cell| cell.engine.shrink_total(bytes))
    }

    /// Serves a control-thread request against the owned engines.
    pub(crate) fn serve_control(&mut self, msg: ControlMsg) {
        match msg {
            ControlMsg::Snapshot { reply } => {
                let _ = reply.send(self.snapshot());
            }
            ControlMsg::ShadowHits { reply } => {
                let shadow_hits = |shard: &OwnedShard| {
                    let hits = shard.cells.iter().map(|c| c.engine.stats().shadow_hits);
                    (shard.global, hits.collect())
                };
                let _ = reply.send(self.owned.iter().map(shadow_hits).collect());
            }
            ControlMsg::HotKeys { reply } => {
                let _ = reply.send(self.hot_key_counts());
            }
            ControlMsg::Shrink {
                shard,
                tenant,
                bytes,
                reply,
            } => {
                let _ = reply.send(self.shrink(shard, tenant, bytes));
            }
            ControlMsg::Grow {
                shard,
                tenant,
                bytes,
            } => {
                if let Some(cell) = self.cell_mut(shard, tenant) {
                    cell.engine.grow_total(bytes);
                }
            }
            ControlMsg::Rebuild {
                shard,
                tenant,
                budget,
                reply,
            } => {
                let shared = Arc::clone(&self.shared);
                let name = self.tenants.get(tenant).cloned().unwrap_or_default();
                if let Some(cell) = self.cell_mut(shard, tenant) {
                    cell.engine = build_engine(&shared, shard, &name, budget);
                }
                let _ = reply.send(());
            }
            ControlMsg::CarveAdd { name, asks, reply } => {
                let shared = Arc::clone(&self.shared);
                let mut carved = vec![0u64; shared.shards];
                let granted: Vec<(usize, usize, u64)> = asks
                    .into_iter()
                    .filter(|&(shard, tenant, bytes)| self.shrink(shard, tenant, bytes))
                    .collect();
                for &(shard, _, bytes) in &granted {
                    carved[shard] += bytes;
                }
                for shard in self.owned.iter_mut() {
                    shard.cells.push(OwnedEngine::new(build_engine(
                        &shared,
                        shard.global,
                        &name,
                        carved[shard.global].max(1),
                    )));
                }
                let _ = reply.send(granted);
            }
        }
    }

    /// The hot-key tracker's window tallies; none when the feature is off.
    fn hot_key_counts(&self) -> Vec<HotKeyCount> {
        let hot = self.hot.as_ref();
        hot.map(|hot| hot.tracker.snapshot()).unwrap_or_default()
    }

    fn snapshot(&self) -> LoopSnapshot {
        LoopSnapshot {
            loop_index: self.index,
            engines: self
                .owned
                .iter()
                .map(|shard| {
                    (
                        shard.global,
                        shard
                            .cells
                            .iter()
                            .map(|cell| EngineStat {
                                wire: cell.wire_counts(),
                                core: cell.engine.stats(),
                                used: cell.engine.used_bytes(),
                                items: cell.engine.len(),
                                footprint: cell.engine.footprint(),
                            })
                            .collect(),
                    )
                })
                .collect(),
            local_ops: self.local_ops,
            remote_in: self.remote_in,
            remote_out: self.remote_out,
            admin_forwards: self.admin_forwards,
            local_latency: self.local_latency.clone(),
            remote_latency: self.remote_latency.clone(),
            slow_ops: self.slow_ops,
            mrc: self.mrc.iter().map(OnlineMrc::snapshot).collect(),
            history: self.history.clone(),
            hot_keys: self.hot_key_counts(),
            replica_hits: self.hot.as_ref().map(|hot| hot.replica_hits).unwrap_or(0),
            replica_fills: self.hot.as_ref().map(|hot| hot.replica_fills).unwrap_or(0),
            hot_invalidations: self.hot.as_ref().map(|hot| hot.invalidations).unwrap_or(0),
            replica_hit_cells: self
                .replica_tenant_hits
                .iter()
                .map(|(&(shard, tenant), &count)| (shard, tenant, count))
                .collect(),
        }
    }
}

/// What the rounds of one balancing level have done so far.
#[derive(Clone, Copy, Default)]
struct RoundTally {
    runs: u64,
    transfers: u64,
    bytes: u64,
}

/// One step of a budget transfer: `bytes` from the donor engine to the
/// recipient engine, each named `(shard, tenant)`.
type Move = ((usize, usize), (usize, usize), u64);

/// The control thread: the single blocking coordinator behind rounds,
/// flushes, tenant onboarding and `stats` assembly. It owns the balancers'
/// decision state (gradient histories, cooldowns) outright, so rounds need
/// no locking.
struct Control {
    shared: Arc<PlaneShared>,
    rx: Receiver<CtrlReq>,
    telemetry: Arc<ConnTelemetry>,
    /// One balancer per tenant, the tenant's shards in its seats.
    balancers: Vec<ShardRebalancer>,
    /// The same balancer with tenants in the seats.
    arbiter: ShardRebalancer,
    rebalanced: RoundTally,
    arbitrated: RoundTally,
    admin_msgs: u64,
    idle_timeout_ms: u64,
    /// Service times of the admin commands this thread ran (ns).
    admin_latency: Histogram,
    hot_rounds: u64,
    promotions: u64,
    demotions: u64,
}

impl Control {
    /// The control thread's state for a plane that has run no round yet.
    fn new(
        shared: Arc<PlaneShared>,
        rx: Receiver<CtrlReq>,
        telemetry: Arc<ConnTelemetry>,
        idle_timeout: Option<Duration>,
    ) -> Control {
        let tenants = shared.roster.lock().directory.len();
        Control {
            rx,
            telemetry,
            balancers: (0..tenants)
                .map(|_| ShardRebalancer::new(shared.shards, shared.config.rebalance.clone()))
                .collect(),
            arbiter: ShardRebalancer::new(tenants, shared.config.tenant_balance.clone()),
            rebalanced: RoundTally::default(),
            arbitrated: RoundTally::default(),
            admin_msgs: 0,
            idle_timeout_ms: idle_timeout.map(|t| t.as_millis() as u64).unwrap_or(0),
            admin_latency: Histogram::new(),
            hot_rounds: 0,
            promotions: 0,
            demotions: 0,
            shared,
        }
    }

    fn run(mut self) {
        while let Ok(req) = self.rx.recv() {
            match req {
                CtrlReq::Round { kind, done } => {
                    // A loop's trigger set the kind's pending flag: clear it
                    // before running, so a trigger that fires mid-round
                    // queues exactly one more round.
                    if done.is_none() {
                        self.shared.round_pending[kind as usize].store(false, Ordering::Release);
                    }
                    match kind {
                        RoundKind::HotKeys => self.hot_round(),
                        RoundKind::Rebalance | RoundKind::Arbitrate => self.balance(kind),
                    }
                    if let Some(done) = done {
                        let _ = done.send(());
                    }
                }
                CtrlReq::Admin { op, reply } => {
                    self.admin_msgs += 1;
                    let started = Instant::now();
                    let result = match op {
                        AdminOp::Stats { format } => {
                            let doc = self.document();
                            match format {
                                StatsFormat::Text => AdminResult::Stats(render_stats(&doc)),
                                StatsFormat::Json => AdminResult::Blob(render_json(&doc)),
                                StatsFormat::Prom => AdminResult::Blob(render_prom(&doc)),
                            }
                        }
                        AdminOp::FlushTenant { tenant } => {
                            self.flush_tenant(tenant);
                            AdminResult::Flushed
                        }
                        AdminOp::CreateTenant { name, weight } => {
                            AdminResult::Created(self.create_tenant(&name, weight))
                        }
                        AdminOp::AppList => AdminResult::Apps(self.shared.roster.lock().app_list()),
                    };
                    self.admin_latency
                        .record(started.elapsed().as_nanos() as u64);
                    match reply {
                        AdminReply::Conn { origin, token, seq } => {
                            let _ = self.shared.mailboxes[origin].send(LoopMsg::AdminDone {
                                token,
                                seq,
                                result,
                            });
                        }
                        AdminReply::Sync(tx) => {
                            let _ = tx.send(result);
                        }
                    }
                }
                CtrlReq::Shutdown => break,
            }
        }
    }

    /// The loops' sampled hot-key windows folded into one tally per
    /// (tenant, key).
    fn merged_hot_keys<'a>(
        windows: impl Iterator<Item = &'a Vec<HotKeyCount>>,
    ) -> HashMap<(usize, Key), (u64, Bytes)> {
        let mut merged: HashMap<(usize, Key), (u64, Bytes)> = HashMap::new();
        for window in windows {
            for entry in window {
                merged
                    .entry((entry.tenant, entry.id))
                    .and_modify(|slot| slot.0 += entry.count)
                    .or_insert_with(|| (entry.count, entry.key.clone()));
            }
        }
        merged
    }

    /// Sends every live loop the message `ask` builds around one shared
    /// reply sender and collects the answers in the order they come. A
    /// loop that died mid-request simply drops its copy of the sender, so
    /// the collection never hangs.
    fn ask_all<R>(&self, ask: impl Fn(Sender<R>) -> ControlMsg) -> Vec<R> {
        let (tx, rx) = channel();
        for mailbox in &self.shared.mailboxes {
            let _ = mailbox.send(LoopMsg::Control(ask(tx.clone())));
        }
        drop(tx);
        rx.iter().collect()
    }

    /// Every live loop's snapshot, by loop index (for `stats` only).
    fn gather(&self) -> Vec<Option<LoopSnapshot>> {
        let mut out: Vec<Option<LoopSnapshot>> = (0..self.shared.loops).map(|_| None).collect();
        for snap in self.ask_all(|reply| ControlMsg::Snapshot { reply }) {
            let index = snap.loop_index;
            out[index] = Some(snap);
        }
        out
    }

    /// The loops' `(global shard, per-tenant shadow hits)` answers as a
    /// grid indexed `[shard][tenant]`, zero for any shard whose loop did
    /// not answer.
    fn shadow_grid(&self, answers: Vec<Vec<(usize, Vec<u64>)>>, tenants: usize) -> Vec<Vec<u64>> {
        let mut grid = vec![vec![0u64; tenants]; self.shared.shards];
        for (shard, hits) in answers.into_iter().flatten() {
            for (t, hits) in hits.into_iter().enumerate().take(tenants) {
                grid[shard][t] = hits;
            }
        }
        grid
    }

    /// One blocking round trip to the loop that owns `shard`: `None` if the
    /// loop is gone.
    fn ask_owner<R>(&self, shard: usize, msg: impl FnOnce(Sender<R>) -> ControlMsg) -> Option<R> {
        let (reply, answer) = channel();
        let owner = &self.shared.mailboxes[self.shared.owner_of(shard)];
        owner.send(LoopMsg::Control(msg(reply))).ok()?;
        answer.recv().ok()
    }

    /// Shrinks one engine on its owning loop. `false` when the donor engine
    /// is pinned at its floors (or the loop is gone) — the transfer is
    /// simply skipped and re-decided from real budgets next round.
    fn shrink_on_owner(&self, shard: usize, tenant: usize, bytes: u64) -> bool {
        let shrink = |reply| ControlMsg::Shrink {
            shard,
            tenant,
            bytes,
            reply,
        };
        self.ask_owner(shard, shrink).unwrap_or(false)
    }

    fn grow_on_owner(&self, shard: usize, tenant: usize, bytes: u64) {
        let owner = self.shared.owner_of(shard);
        let _ = self.shared.mailboxes[owner].send(LoopMsg::Control(ControlMsg::Grow {
            shard,
            tenant,
            bytes,
        }));
    }

    /// One balancing round: a cross-shard round per tenant
    /// ([`RoundKind::Rebalance`]) or the one cross-tenant round
    /// ([`RoundKind::Arbitrate`]). Ask the loops for the shadow-hit
    /// signal, let the balancer whose seats are at stake decide, then apply
    /// each transfer it proposes as a list of moves: one for a shard
    /// transfer; for a tenant transfer one shard-local slice per shard, so
    /// the summed budget is conserved even if some slices fail on their
    /// floors.
    fn balance(&mut self, kind: RoundKind) {
        let shared = Arc::clone(&self.shared);
        if !shared.round_active(kind, shared.roster.lock().directory.len()) {
            return;
        }
        // No loop is waited on with the roster locked — a loop answers from
        // a pass that first re-reads a changed tenant table, under that lock
        // — so the round moves budget on a copy and writes it back: this
        // thread is the roster's only writer.
        let answers = self.ask_all(|reply| ControlMsg::ShadowHits { reply });
        let mut roster = shared.roster.lock().clone();
        let tenants = roster.directory.len();
        let grid = self.shadow_grid(answers, tenants);
        let arbitrate = kind == RoundKind::Arbitrate;
        // Each balancer's seats, as the `(shard, tenant)` engines behind
        // them: the tenants with all their engines, or one tenant's shards.
        let engines = |t: usize| (0..shared.shards).map(move |s| (s, t));
        let balancers: Vec<Vec<Vec<(usize, usize)>>> = if arbitrate {
            vec![(0..tenants).map(|t| engines(t).collect()).collect()]
        } else {
            let shards = |t| engines(t).map(|engine| vec![engine]).collect();
            (0..tenants).map(shards).collect()
        };
        for (b, seats) in balancers.iter().enumerate() {
            let sample = |seat: &Vec<(usize, usize)>| ShardSample {
                shadow_hits: seat.iter().map(|&(s, t)| grid[s][t]).sum(),
                budget_bytes: seat.iter().map(|&(s, t)| roster.budgets[t][s]).sum(),
            };
            let samples: Vec<ShardSample> = seats.iter().map(sample).collect();
            let balancer = match kind {
                RoundKind::Arbitrate => &mut self.arbiter,
                _ => &mut self.balancers[b],
            };
            for tr in balancer.rebalance(&samples) {
                let (from, to) = (&seats[tr.from], &seats[tr.to]);
                let n = from.len() as u64;
                let slice = |i: usize| tr.bytes / n + u64::from((i as u64) < tr.bytes % n);
                let moves = from.iter().zip(to).enumerate();
                let moves: Vec<Move> = moves
                    .map(|(i, (&from, &to))| (from, to, slice(i)))
                    .collect();
                self.apply(&mut roster, kind, &moves, &tr);
            }
        }
        shared.roster.lock().budgets = roster.budgets;
        self.tally(kind).runs += 1;
    }

    fn tally(&mut self, kind: RoundKind) -> &mut RoundTally {
        match kind {
            RoundKind::Arbitrate => &mut self.arbitrated,
            _ => &mut self.rebalanced,
        }
    }

    /// Applies the moves of transfer `tr`, each shrink-first: the donor
    /// engine evicts down at once and the recipient grows by exactly what
    /// was released, so the total can momentarily dip but never exceed the
    /// configured bytes. A move whose donor is pinned at its floors is
    /// skipped. Only a transfer that moved something is counted and
    /// journalled, with the gradients its proposal carried.
    fn apply(
        &mut self,
        roster: &mut RosterMaster,
        kind: RoundKind,
        moves: &[Move],
        tr: &ShardTransfer,
    ) {
        let before = roster.total_budget();
        let mut moved = 0u64;
        for &((from_shard, from_tenant), (to_shard, to_tenant), bytes) in moves {
            if bytes > 0 && self.shrink_on_owner(from_shard, from_tenant, bytes) {
                roster.budgets[from_tenant][from_shard] -= bytes;
                self.grow_on_owner(to_shard, to_tenant, bytes);
                roster.budgets[to_tenant][to_shard] += bytes;
                moved += bytes;
            }
        }
        debug_assert_eq!(roster.total_budget(), before, "a transfer conserves budget");
        if moved == 0 {
            return;
        }
        let ((_, from_tenant), (_, to_tenant), _) = moves[0];
        let name = |tenant: usize| roster.directory.name(tenant).to_string();
        let (from_gradient, to_gradient) = (tr.from_gradient, tr.to_gradient);
        self.shared.journal.record(match kind {
            RoundKind::Arbitrate => EventKind::TenantTransfer {
                from_tenant: name(from_tenant),
                to_tenant: name(to_tenant),
                bytes: moved,
                from_gradient,
                to_gradient,
            },
            _ => EventKind::ShardTransfer {
                tenant: name(from_tenant),
                from_shard: tr.from,
                to_shard: tr.to,
                bytes: moved,
                from_gradient,
                to_gradient,
            },
        });
        let tally = self.tally(kind);
        tally.transfers += 1;
        tally.bytes += moved;
    }

    /// One hot-key promotion round: merge the per-loop tracker windows,
    /// apply the hysteretic promote/demote plan to the master promoted
    /// set, journal the decisions and publish the new generation. Loops
    /// copy the set out at their next readiness pass.
    fn hot_round(&mut self) {
        let shared = Arc::clone(&self.shared);
        let Some(hot) = shared.hot.as_ref() else {
            return;
        };
        let windows = self.ask_all(|reply| ControlMsg::HotKeys { reply });
        let merged = Self::merged_hot_keys(windows.iter());
        // Tenant names for the journal, resolved before taking the
        // promoted lock (control-thread lock order: roster, then promoted).
        let names = shared.roster.lock().directory.names().to_vec();
        let name_of = |tenant: usize| -> String { names.get(tenant).cloned().unwrap_or_default() };
        let mut promoted = hot.promoted.lock();
        let plan = plan_round(&merged, &promoted, &hot.config);
        for (slot, count) in &plan.refreshed {
            if let Some(entry) = promoted.get_mut(slot) {
                entry.count = *count;
            }
        }
        let changed = !plan.promote.is_empty() || !plan.demote.is_empty();
        for slot in &plan.demote {
            if let Some(entry) = promoted.remove(slot) {
                self.demotions += 1;
                shared.journal.record(EventKind::HotKeyDemoted {
                    tenant: name_of(slot.0),
                    key: String::from_utf8_lossy(&entry.key).into_owned(),
                });
            }
        }
        for (slot, key, count) in &plan.promote {
            promoted.insert(
                *slot,
                PromotedEntry {
                    key: key.clone(),
                    count: *count,
                },
            );
            self.promotions += 1;
            shared.journal.record(EventKind::HotKeyPromoted {
                tenant: name_of(slot.0),
                key: String::from_utf8_lossy(key).into_owned(),
                count: *count,
            });
        }
        drop(promoted);
        if changed {
            // Publish only after the master set is fully updated, exactly
            // like the tenant-table generation.
            hot.generation.fetch_add(1, Ordering::AcqRel);
        }
        self.hot_rounds += 1;
    }

    /// Tenant `flush_all`: rebuild the tenant's engine on every shard at an
    /// even split of its *current* (arbitrated) budget. Rebuilds run
    /// donors-first (largest budget surplus first), one blocking round-trip
    /// at a time, so the tenant's summed live targets never overshoot its
    /// total while traffic keeps filling the other shards.
    fn flush_tenant(&mut self, tenant: usize) {
        let shared = Arc::clone(&self.shared);
        // Planned under the roster lock, applied with it released (see
        // `balance`), written back under it again.
        let (name, shares, order) = {
            let roster = shared.roster.lock();
            if tenant >= roster.directory.len() {
                return;
            }
            let total: u64 = roster.budgets[tenant].iter().sum();
            let shares = even_split(total, shared.shards);
            let mut order: Vec<usize> = (0..shared.shards).collect();
            order.sort_by_key(|&s| {
                std::cmp::Reverse(roster.budgets[tenant][s].saturating_sub(shares[s]))
            });
            (roster.directory.name(tenant).to_string(), shares, order)
        };
        for s in order {
            let _ = self.ask_owner(s, |reply| ControlMsg::Rebuild {
                shard: s,
                tenant,
                // An engine cannot be built on no bytes at all.
                budget: shares[s].max(1),
                reply,
            });
        }
        // The rebuilds just dropped keys no loop can enumerate, so stale
        // hot-key replicas of this tenant must stop serving before the
        // flush is acknowledged. Bumping every version slot (after the
        // last rebuild, before the ack) guarantees any replica captured
        // pre-flush fails revalidation.
        if let Some(hot) = shared.hot.as_ref() {
            hot.versions.bump_all();
        }
        let mut roster = shared.roster.lock();
        let before = roster.total_budget();
        roster.budgets[tenant] = shares;
        debug_assert_eq!(roster.total_budget(), before, "a flush conserves budget");
        drop(roster);
        self.balancers[tenant].reset();
        shared
            .journal
            .record(EventKind::TenantFlushed { tenant: name });
    }

    /// Hosts a new application live (`app_create`): validate, carve a
    /// weight-proportional budget out of every existing tenant's engines
    /// via the owning loops, then publish the new tenant table. Only bytes
    /// actually released are granted, so the configured total is conserved
    /// exactly. The generation counter moves *after* every loop has built
    /// the new engines.
    fn create_tenant(&mut self, name: &str, weight: u64) -> Result<usize, String> {
        if !TenantDirectory::valid_name(name) {
            return Err(format!(
                "invalid app name {name:?}: need 1-64 ASCII graphic bytes, no ':'"
            ));
        }
        if weight == 0 {
            return Err("app weight must be at least 1".to_string());
        }
        let shared = Arc::clone(&self.shared);
        let n = shared.shards;
        // The asks are planned under the roster lock, the carve-outs awaited
        // with it released (see `balance`), the table written under it again.
        let mut per_loop: Vec<Vec<(usize, usize, u64)>> =
            (0..shared.loops).map(|_| Vec::new()).collect();
        {
            let roster = shared.roster.lock();
            if roster.directory.index_of(name).is_some() {
                return Err(format!("app {name:?} already exists"));
            }
            let tenants = roster.directory.len();
            let sum_weights: u64 = roster.weights.iter().sum();
            let target_total = (shared.config.total_bytes as u128 * weight as u128
                / (sum_weights + weight) as u128) as u64;
            let target_slices = even_split(target_total.max(1), n);
            for (s, &target_slice) in target_slices.iter().enumerate() {
                let shard_total: u64 = (0..tenants).map(|t| roster.budgets[t][s]).sum();
                for t in 0..tenants {
                    let ask = (target_slice as u128 * roster.budgets[t][s] as u128
                        / shard_total.max(1) as u128) as u64;
                    if ask > 0 {
                        per_loop[shared.owner_of(s)].push((s, t, ask));
                    }
                }
            }
        }
        let (tx, rx) = channel();
        for (i, asks) in per_loop.into_iter().enumerate() {
            // Loop i owns shard i (and every loops-th after it) iff
            // i < shards; owner loops with no asks still must build the
            // new tenant's cells.
            if i < n {
                let _ = shared.mailboxes[i].send(LoopMsg::Control(ControlMsg::CarveAdd {
                    name: name.to_string(),
                    asks,
                    reply: tx.clone(),
                }));
            }
        }
        drop(tx);
        let granted: Vec<(usize, usize, u64)> = rx.iter().flatten().collect();
        let mut roster = shared.roster.lock();
        let before = roster.total_budget();
        let mut carved_per_shard = vec![0u64; n];
        for (s, t, bytes) in granted {
            roster.budgets[t][s] -= bytes;
            carved_per_shard[s] += bytes;
        }
        for (s, &bytes) in carved_per_shard.iter().enumerate() {
            if bytes > 0 {
                shared.journal.record(EventKind::CarveOut {
                    tenant: name.to_string(),
                    shard: s,
                    bytes,
                });
            }
        }
        shared.journal.record(EventKind::TenantCreated {
            tenant: name.to_string(),
            weight,
        });
        let index = roster.directory.add(name);
        roster.weights.push(weight);
        roster.budgets.push(carved_per_shard);
        debug_assert_eq!(
            roster.total_budget(),
            before,
            "a carve-out conserves budget"
        );
        self.balancers
            .push(ShardRebalancer::new(n, shared.config.rebalance.clone()));
        self.arbiter =
            ShardRebalancer::new(roster.directory.len(), shared.config.tenant_balance.clone());
        // Publish only now, with every owning loop's cells in place.
        shared.generation.fetch_add(1, Ordering::AcqRel);
        Ok(index)
    }

    /// Builds the one [`StatsDocument`] every `stats` format renders: asks
    /// the loops for their snapshots and folds them, the roster and this
    /// thread's own counters together.
    fn document(&self) -> StatsDocument {
        let shared = Arc::clone(&self.shared);
        let snaps = self.gather();
        let roster = shared.roster.lock();
        let tenants = roster.directory.len();
        // Loops count what they forwarded, control counts what it served;
        // the two only differ transiently (a forward still in flight) or
        // for admin calls arriving through the synchronous handle instead
        // of a connection — report whichever saw more.
        let forwarded: u64 = snaps.iter().flatten().map(|s| s.admin_forwards).sum();
        let admin_msgs = self.admin_msgs.max(forwarded);
        let elapsed = shared.started.elapsed();
        let hot_keys = shared.hot.as_ref().map(|hot| {
            let names = roster.directory.names();
            let merged = Self::merged_hot_keys(snaps.iter().flatten().map(|s| &s.hot_keys));
            let tallies = merged.iter();
            let tallies = tallies.map(|(&(tenant, _), (count, key))| (tenant, key, *count));
            let mut tracked = hot_key_docs(names, tallies);
            // Bound the exposed list: the tail of a wide window is noise.
            tracked.truncate(HOT_KEYS_EXPOSED);
            HotKeysDoc {
                tracked,
                promoted: promoted_docs(hot, names),
                promotions: self.promotions,
                demotions: self.demotions,
                rounds: self.hot_rounds,
                replica_hits: snaps.iter().flatten().map(|s| s.replica_hits).sum(),
                replica_fills: snaps.iter().flatten().map(|s| s.replica_fills).sum(),
                invalidations: snaps.iter().flatten().map(|s| s.hot_invalidations).sum(),
            }
        });
        let snapshot = StatsSnapshot {
            total_bytes: shared.config.total_bytes,
            mode: shared.config.mode,
            requested_shards: shared.config.requested_shards(),
            uptime_s: elapsed.as_secs(),
            server_start_unix_us: shared.start_unix_us,
            snapshot_unix_us: shared.start_unix_us + elapsed.as_micros() as u64,
            mrc_shift: shared.mrc_shift,
            hot_keys,
            tenant_names: roster.directory.names().to_vec(),
            tenant_budgets: roster.tenant_budgets(),
            shard_budgets: roster.shard_budgets(shared.shards),
            balance: BalanceDoc {
                rebalance_enabled: shared.round_active(RoundKind::Rebalance, tenants),
                rebalance_runs: self.rebalanced.runs,
                rebalance_transfers: self.rebalanced.transfers,
                rebalance_bytes_moved: self.rebalanced.bytes,
                arbiter_enabled: shared.round_active(RoundKind::Arbitrate, tenants),
                arbiter_runs: self.arbitrated.runs,
                arbiter_transfers: self.arbitrated.transfers,
                arbiter_bytes_moved: self.arbitrated.bytes,
            },
            owner_of: (0..shared.shards).map(|s| shared.owner_of(s)).collect(),
            admin_msgs,
            idle_timeout_ms: self.idle_timeout_ms,
        };
        // The roster is copied out; curves and joins are built unlocked.
        drop(roster);
        build_document(
            &snapshot,
            &self.telemetry,
            &snaps,
            &self.admin_latency,
            &shared.journal,
        )
    }
}

/// Hot-key tallies `(tenant, key, ops)` as the stats document lists them:
/// hottest first.
fn hot_key_docs<'a>(
    names: &[String],
    tallies: impl Iterator<Item = (usize, &'a Bytes, u64)>,
) -> Vec<HotKeyEntryDoc> {
    let mut docs: Vec<HotKeyEntryDoc> = tallies
        .map(|(tenant, key, ops)| HotKeyEntryDoc {
            app: names.get(tenant).cloned().unwrap_or_default(),
            key: String::from_utf8_lossy(key).into_owned(),
            ops,
        })
        .collect();
    docs.sort_by(|a, b| b.ops.cmp(&a.ops).then_with(|| a.key.cmp(&b.key)));
    docs
}

/// The promoted set (`ops` is the merged count at the last promotion round).
fn promoted_docs(hot: &HotShared, names: &[String]) -> Vec<HotKeyEntryDoc> {
    let promoted = hot.promoted.lock();
    let tallies = promoted.iter();
    hot_key_docs(
        names,
        tallies.map(|(&(tenant, _), entry)| (tenant, &entry.key, entry.count)),
    )
}

/// The public handle to a running data plane: the synchronous view
/// `benchmark/`, the load generator's self-hosted runs and tests use
/// ([`crate::server::CacheServer::cache`] returns it). Every method is a
/// message round-trip to the owning loop or the control thread; after
/// shutdown they degrade to misses/defaults instead of panicking.
pub struct PlaneHandle {
    shared: Arc<PlaneShared>,
}

impl PlaneHandle {
    /// One op as a batch of one, answered over its own channel: the path a
    /// connection's forwarded ops take, from a caller that is no loop.
    /// Returns the batch, the op's outcome in place.
    fn data_op(&self, tenant: usize, key: &[u8], state: OpState) -> Option<OpBatch> {
        let (shard, id) = route_key(tenant, key, self.shared.shards);
        let (tx, rx) = channel();
        let mut batch = OpBatch::new(None, Instant::now());
        batch.caller = Some(tx);
        let op = Op {
            token: 0,
            seq: 0,
            tenant,
            shard,
            id,
            version: 0,
            key: 0..0,
            state,
        };
        batch.push(op, key);
        self.shared.mailboxes[self.shared.owner_of(shard)]
            .send(LoopMsg::Ops(batch))
            .ok()?;
        rx.recv().ok()
    }

    /// [`PlaneHandle::data_op`] for a store or delete: whether it was done.
    fn write_op(&self, tenant: usize, key: &[u8], state: OpState) -> bool {
        let batch = self.data_op(tenant, key, state);
        let outcome = batch.as_ref().and_then(|batch| batch.ops.first());
        matches!(outcome.map(|op| &op.state), Some(OpState::Flag(true)))
    }

    fn admin(&self, op: AdminOp) -> Option<AdminResult> {
        let (tx, rx) = channel();
        self.shared
            .ctrl
            .send(CtrlReq::Admin {
                op,
                reply: AdminReply::Sync(tx),
            })
            .ok()?;
        rx.recv().ok()
    }

    /// Looks up a key for one tenant, returning its flags and value on an
    /// exact match.
    pub fn get_for(&self, tenant: usize, key: &[u8]) -> Option<(u32, Bytes)> {
        let batch = self.data_op(tenant, key, OpState::Get)?;
        match &batch.ops.first()?.state {
            OpState::Value(Some((flags, data))) => {
                Some((*flags, Bytes::copy_from_slice(batch.bytes(data))))
            }
            _ => None,
        }
    }

    fn store_for(
        &self,
        verb: StoreVerb,
        tenant: usize,
        key: &[u8],
        flags: u32,
        data: Bytes,
    ) -> bool {
        StoredValue::new(key, flags, &data)
            .is_some_and(|item| self.write_op(tenant, key, OpState::Store { verb, item }))
    }

    /// Stores a key for one tenant unconditionally. Returns `false` only
    /// if the item could not be admitted.
    pub fn set_for(&self, tenant: usize, key: &[u8], flags: u32, data: Bytes) -> bool {
        self.store_for(StoreVerb::Set, tenant, key, flags, data)
    }

    /// Deletes a key for one tenant; returns whether it was present.
    pub fn delete_for(&self, tenant: usize, key: &[u8]) -> bool {
        self.write_op(tenant, key, OpState::Delete)
    }

    /// Looks up a key for the default tenant.
    pub fn get(&self, key: &[u8]) -> Option<(u32, Bytes)> {
        self.get_for(0, key)
    }

    /// Stores a key for the default tenant.
    pub fn set(&self, key: &[u8], flags: u32, data: Bytes) -> bool {
        self.set_for(0, key, flags, data)
    }

    /// `add`: stores a key for the default tenant only if it is absent.
    pub fn add(&self, key: &[u8], flags: u32, data: Bytes) -> bool {
        self.store_for(StoreVerb::Add, 0, key, flags, data)
    }

    /// `replace`: stores a key for the default tenant only if it is present.
    pub fn replace(&self, key: &[u8], flags: u32, data: Bytes) -> bool {
        self.store_for(StoreVerb::Replace, 0, key, flags, data)
    }

    /// Deletes a key for the default tenant.
    pub fn delete(&self, key: &[u8]) -> bool {
        self.delete_for(0, key)
    }

    /// The full `stats` report (empty after shutdown).
    pub fn stats(&self) -> Vec<(String, String)> {
        let format = StatsFormat::Text;
        match self.admin(AdminOp::Stats { format }) {
            Some(AdminResult::Stats(lines)) => lines,
            _ => Vec::new(),
        }
    }

    /// The versioned `cliffhanger-stats/v1` JSON document (empty after
    /// shutdown).
    pub fn stats_json(&self) -> String {
        let format = StatsFormat::Json;
        match self.admin(AdminOp::Stats { format }) {
            Some(AdminResult::Blob(text)) => text,
            _ => String::new(),
        }
    }

    /// The retained flight-recorder events, oldest first.
    pub fn journal_events(&self) -> Vec<telemetry::JournalEvent> {
        self.shared.journal.snapshot()
    }

    /// Journals a connection shed at the accept gate (called by the
    /// acceptor, which has no loop state of its own).
    pub(crate) fn note_connection_shed(&self) {
        self.shared.journal.record(EventKind::ConnectionShed);
    }

    /// Drops every item of one tenant, keeping (but re-splitting) its
    /// arbitrated budget.
    pub fn flush_tenant(&self, tenant: usize) {
        let _ = self.admin(AdminOp::FlushTenant { tenant });
    }

    /// Hosts a new application live; returns its tenant index.
    pub fn create_tenant(&self, name: &str, weight: u64) -> Result<usize, String> {
        match self.admin(AdminOp::CreateTenant {
            name: name.to_string(),
            weight,
        }) {
            Some(AdminResult::Created(result)) => result,
            _ => Err("server is shutting down".to_string()),
        }
    }

    /// The hosted applications as `(name, weight, live budget bytes)`.
    pub fn app_list(&self) -> Vec<(String, u64, u64)> {
        self.shared.roster.lock().app_list()
    }

    /// Asks the control thread for one round of `kind` and waits for it.
    fn round_now(&self, kind: RoundKind) {
        let (tx, rx) = channel();
        let done = Some(tx);
        if self.shared.ctrl.send(CtrlReq::Round { kind, done }).is_ok() {
            let _ = rx.recv();
        }
    }

    /// Runs one cross-shard rebalancing round per tenant, synchronously.
    pub fn rebalance_now(&self) {
        self.round_now(RoundKind::Rebalance);
    }

    /// Runs one cross-tenant arbitration round, synchronously.
    pub fn arbitrate_now(&self) {
        self.round_now(RoundKind::Arbitrate);
    }

    /// Runs one hot-key promotion round synchronously: merges the per-loop
    /// tracker windows and applies the hysteretic promote/demote plan.
    /// A no-op when hot-key detection is disabled. Test/bench hook.
    pub fn hot_round_now(&self) {
        self.round_now(RoundKind::HotKeys);
    }

    /// The currently promoted hot keys as `(app, key)` pairs, hottest
    /// first. Empty when hot-key detection is disabled.
    pub fn promoted_keys(&self) -> Vec<(String, String)> {
        let Some(hot) = self.shared.hot.as_ref() else {
            return Vec::new();
        };
        let names = self.shared.roster.lock().directory.names().to_vec();
        promoted_docs(hot, &names)
            .into_iter()
            .map(|entry| (entry.app, entry.key))
            .collect()
    }

    /// Number of shards the plane is running.
    pub fn shard_count(&self) -> usize {
        self.shared.shards
    }

    /// The dense index of a tenant name, if hosted.
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.shared.roster.lock().directory.index_of(name)
    }

    /// Number of tenants hosted (at least 1).
    pub fn tenant_count(&self) -> usize {
        self.shared.roster.lock().directory.len()
    }

    /// The live per-tenant byte budgets.
    pub fn tenant_budgets(&self) -> Vec<u64> {
        self.shared.roster.lock().tenant_budgets()
    }

    /// The live per-shard byte budgets.
    pub fn shard_budgets(&self) -> Vec<u64> {
        let shards = self.shared.shards;
        self.shared.roster.lock().shard_budgets(shards)
    }
}

/// The plane's routing and engine code run in the caller's thread: the
/// `LoopState` of a one-loop plane that owns every shard, with no reactor
/// and no control thread. An op is `LoopState::route` + `LoopState::get` /
/// `store` / `delete`, what a connection runs for a key its own loop owns
/// (less the service-time stamp of `note_local`). With nobody to run balancing
/// rounds, budgets stay at their boot split. The paper's Tables 6–7
/// overhead measurement (`bench::overhead`) and the benchmark's `engine.*`
/// layer probes time this.
pub struct SharedCache {
    state: Mutex<LoopState>,
}

impl SharedCache {
    /// Builds the tenants' engines on every configured (or detected) shard.
    pub fn new(config: BackendConfig) -> SharedCache {
        // The receiver is dropped: the round nudges `LoopState::tick`
        // sends have no control thread to reach and fail silently.
        let (ctrl, _) = channel();
        let shared = Arc::new(PlaneShared::new(config, 1, Vec::new(), ctrl, 0));
        SharedCache {
            state: Mutex::new(LoopState::new(0, shared)),
        }
    }

    /// The dense index of a tenant name, if hosted.
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.state.lock().tenant_lookup(name)
    }

    /// Routes `key` and runs `op` on the state with the owning slot.
    fn routed<R>(
        &self,
        tenant: usize,
        key: &[u8],
        op: impl FnOnce(&mut LoopState, usize, Key) -> R,
    ) -> R {
        let mut state = self.state.lock();
        let (_, id, slot) = state.route(tenant, key);
        op(
            &mut state,
            slot.expect("a one-loop plane owns every shard"),
            id,
        )
    }

    /// Looks up a key for one tenant, returning its flags and value on an
    /// exact match.
    pub fn get_for(&self, tenant: usize, key: &[u8]) -> Option<(u32, Bytes)> {
        self.routed(tenant, key, |state, slot, id| {
            let found = state.get(slot, tenant, id, key);
            found.map(|item| (item.flags(), Bytes::copy_from_slice(item.data())))
        })
    }

    /// Stores a key for one tenant unconditionally. Returns `false` only
    /// if the item could not be admitted.
    pub fn set_for(&self, tenant: usize, key: &[u8], flags: u32, data: Bytes) -> bool {
        StoredValue::new(key, flags, &data).is_some_and(|item| {
            self.routed(tenant, key, |state, slot, id| {
                state.store(slot, tenant, id, StoreVerb::Set, item)
            })
        })
    }

    /// Deletes a key for one tenant; returns whether it was present.
    pub fn delete_for(&self, tenant: usize, key: &[u8]) -> bool {
        self.routed(tenant, key, |state, slot, id| {
            state.delete(slot, tenant, id, key)
        })
    }
}

/// A running data plane: the loops, the control thread and the handle.
pub(crate) struct Plane {
    pub(crate) handle: Arc<PlaneHandle>,
    pub(crate) loops: Arc<Vec<crate::reactor::LoopHandle>>,
    control: Option<JoinHandle<()>>,
}

impl Plane {
    /// Builds the roster, fuses shards to `workers` event loops, spawns
    /// them and the control thread.
    pub(crate) fn start(
        config: BackendConfig,
        workers: usize,
        telemetry: Arc<ConnTelemetry>,
        idle_timeout: Option<Duration>,
        slow_op_micros: u64,
    ) -> std::io::Result<Plane> {
        let (ctrl_tx, ctrl_rx) = channel();
        let mut mailboxes = Vec::with_capacity(workers);
        let mut seeds = Vec::with_capacity(workers);
        for index in 0..workers {
            let (mailbox, seed) = crate::reactor::loop_channel(index)?;
            mailboxes.push(mailbox);
            seeds.push(seed);
        }
        let shared = Arc::new(PlaneShared::new(
            config,
            workers,
            mailboxes,
            ctrl_tx,
            slow_op_micros,
        ));
        let control = Control::new(
            Arc::clone(&shared),
            ctrl_rx,
            Arc::clone(&telemetry),
            idle_timeout,
        );
        let control_thread = std::thread::Builder::new()
            .name("cache-control".to_string())
            .spawn(move || control.run())?;
        let loops: Vec<crate::reactor::LoopHandle> = seeds
            .into_iter()
            .map(|seed| {
                let state = LoopState::new(seed.index, Arc::clone(&shared));
                crate::reactor::LoopHandle::spawn(
                    seed,
                    state,
                    Arc::clone(&shared),
                    Arc::clone(&telemetry),
                    idle_timeout,
                )
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Plane {
            handle: Arc::new(PlaneHandle {
                shared: Arc::clone(&shared),
            }),
            loops: Arc::new(loops),
            control: Some(control_thread),
        })
    }

    /// Stops the control thread first (admin requests in flight drain with
    /// the loops still alive to answer), then the loops.
    pub(crate) fn shutdown(&mut self) {
        let _ = self.handle.shared.ctrl.send(CtrlReq::Shutdown);
        if let Some(thread) = self.control.take() {
            let _ = thread.join();
        }
        for event_loop in self.loops.iter() {
            event_loop.begin_shutdown();
        }
        for event_loop in self.loops.iter() {
            event_loop.join();
        }
    }
}

#[cfg(test)]
impl LoopState {
    /// The state of a 1-loop x 1-shard plane no thread serves: every key is
    /// local, and nobody listens to the control channel.
    pub(crate) fn solo() -> LoopState {
        let config = BackendConfig {
            shards: 1,
            ..BackendConfig::default()
        };
        SharedCache::new(config).state.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TenantSpec;
    use crate::hotkey::HotKeyConfig;
    use crate::reactor::{loop_channel, LoopSeed};

    /// The loop states of a 2-loop x 2-shard plane no thread serves — the
    /// tests move the mailboxes' contents by hand — and what its loops ask
    /// of the control thread.
    fn two_loops(config: BackendConfig) -> (Vec<LoopState>, Vec<LoopSeed>, Receiver<CtrlReq>) {
        let (mailboxes, seeds): (Vec<_>, Vec<_>) = (0..2)
            .map(|index| loop_channel(index).expect("eventfd and epoll"))
            .unzip();
        let config = BackendConfig {
            shards: 2,
            ..config
        };
        let (ctrl, asked) = channel();
        let shared = Arc::new(PlaneShared::new(config, 2, mailboxes, ctrl, 0));
        let states = (0..2)
            .map(|index| LoopState::new(index, Arc::clone(&shared)))
            .collect();
        (states, seeds, asked)
    }

    /// `count` keys of `len` bytes whose shard loop 1 owns.
    fn remote_keys(origin: &LoopState, count: usize, len: usize) -> Vec<Vec<u8>> {
        (0..)
            .map(|i| format!("{i:0len$}").into_bytes())
            .filter(|key| origin.route(0, key).2 == Err(1))
            .take(count)
            .collect()
    }

    /// Queues `state` on `key` for loop 1 as connection 7's entry `seq`.
    fn forward(origin: &mut LoopState, seq: u64, key: &[u8], state: OpState) {
        let (shard, id, owner) = origin.route(0, key);
        let carried = if matches!(state, OpState::Store { .. }) {
            &[][..]
        } else {
            key
        };
        let op = Op {
            token: 7,
            seq,
            tenant: 0,
            shard,
            id,
            version: 0,
            key: 0..0,
            state,
        };
        origin.forward_op(owner.expect_err("a remote key"), op, carried);
    }

    fn store(key: &[u8], data: &'static [u8]) -> OpState {
        let item = StoredValue::new(key, 9, data).expect("a short key");
        OpState::Store {
            verb: StoreVerb::Set,
            item,
        }
    }

    /// The one batch in a mailbox that holds nothing else.
    fn only_batch(seed: &LoopSeed) -> OpBatch {
        let mut msgs = seed.take_inbox();
        match (msgs.pop(), msgs.is_empty()) {
            (Some(LoopMsg::Ops(batch)), true) => batch,
            _ => panic!("expected exactly one op batch"),
        }
    }

    #[test]
    fn a_batch_makes_the_round_trip_and_comes_back_clean_for_the_next() {
        let (mut states, seeds, _) = two_loops(BackendConfig::default());
        let (origin, owner) = states.split_at_mut(1);
        let (origin, owner) = (&mut origin[0], &mut owner[0]);
        let keys = remote_keys(origin, 2, 24);
        forward(
            origin,
            0,
            &keys[0],
            store(&keys[0], b"poison-poison-poison"),
        );
        forward(origin, 1, &keys[0], OpState::Get);
        forward(origin, 2, &keys[1], OpState::Get);
        forward(origin, 3, &keys[0], OpState::Delete);
        origin.flush_outbound();
        assert_eq!(origin.remote_out, 4);

        // One message out, the same buffers back, outcomes in place.
        let batch = only_batch(&seeds[1]);
        let allocation = batch.ops.as_ptr();
        owner.serve(batch);
        owner.flush_outbound();
        assert_eq!(owner.remote_in, 4);
        assert_eq!(owner.remote_latency.count(), 4);
        let batch = only_batch(&seeds[0]);
        assert!(std::ptr::eq(allocation, batch.ops.as_ptr()));
        assert_eq!(batch.origin, Some(0));
        let seqs: Vec<u64> = batch.ops.iter().map(|op| op.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert_eq!(batch.bytes(&batch.ops[1].key), &keys[0][..]);
        assert_eq!(batch.bytes(&batch.ops[2].key), &keys[1][..]);
        // The hit's data came back in the batch's own bytes, behind the keys.
        let hit = |data| batch.bytes(data) == b"poison-poison-poison";
        assert!(matches!(batch.ops[0].state, OpState::Flag(true)));
        assert!(matches!(
            &batch.ops[1].state,
            OpState::Value(Some((9, data))) if data.start == 3 * 24 && hit(data)
        ));
        assert!(matches!(batch.ops[2].state, OpState::Value(None)));
        assert!(matches!(batch.ops[3].state, OpState::Flag(true)));

        // Recycled, it opens the next pass's batch and holds that pass's op
        // alone: no op, outcome, key byte or value byte of the last trip.
        origin.recycle(batch);
        let short = remote_keys(origin, 1, 3);
        forward(origin, 4, &short[0], OpState::Get);
        let Some(next) = origin.outbound[1].last() else {
            panic!("the op opened no batch");
        };
        assert!(std::ptr::eq(allocation, next.ops.as_ptr()));
        assert_eq!(next.ops.len(), 1);
        assert!(matches!(next.ops[0].state, OpState::Get));
        assert_eq!(next.bytes, short[0]);
        assert_eq!(next.bytes(&next.ops[0].key), &short[0][..]);
    }

    #[test]
    fn a_one_off_burst_does_not_pin_a_kept_batchs_capacity() {
        let (mut states, seeds, _) = two_loops(BackendConfig::default());
        let origin = &mut states[0];
        for (seq, key) in remote_keys(origin, 2 * BATCH_RETAIN_OPS, 250)
            .iter()
            .enumerate()
        {
            forward(origin, seq as u64, key, OpState::Get);
        }
        origin.flush_outbound();
        let batch = only_batch(&seeds[1]);
        assert!(batch.bytes.capacity() > BATCH_RETAIN_BYTES);
        assert!(batch.ops.capacity() > BATCH_RETAIN_OPS);
        origin.recycle(batch);
        let kept = origin.spare.last().expect("the batch is kept");
        assert!(kept.ops.is_empty() && kept.bytes.is_empty());
        assert!(kept.bytes.capacity() <= BATCH_RETAIN_BYTES);
        assert!(kept.ops.capacity() <= BATCH_RETAIN_OPS);
        // ... and the pool of kept batches is bounded too.
        for _ in 0..2 * SPARE_BATCHES {
            origin.recycle(OpBatch::new(Some(0), Instant::now()));
        }
        assert_eq!(origin.spare.len(), SPARE_BATCHES);
    }

    #[test]
    fn a_batch_its_owner_refuses_comes_back_with_every_op_failed() {
        let (mut states, seeds, _) = two_loops(BackendConfig::default());
        let origin = &mut states[0];
        let keys = remote_keys(origin, 1, 16);
        forward(origin, 0, &keys[0], OpState::Get);
        forward(origin, 1, &keys[0], store(&keys[0], b"never stored"));
        forward(origin, 2, &keys[0], OpState::Delete);
        // A reply to loop 1's own batch is not this loop's to complete:
        // dropped with the mailbox.
        origin.serve(OpBatch::new(Some(1), Instant::now()));
        origin.shared.mailboxes[1].close();
        origin.flush_outbound();

        assert!(seeds[1].take_inbox().is_empty());
        assert!(origin.outbound[1].is_empty());
        // Back in the origin's own mailbox, where a served batch would be.
        let refused = only_batch(&seeds[0]);
        assert_eq!(refused.origin, Some(0));
        let outcomes: Vec<_> = refused
            .ops
            .iter()
            .map(|op| match &op.state {
                OpState::Value(None) => (op.token, op.seq, "miss"),
                OpState::Flag(false) => (op.token, op.seq, "false"),
                _ => (op.token, op.seq, "not failed"),
            })
            .collect();
        assert_eq!(outcomes, [(7, 0, "miss"), (7, 1, "false"), (7, 2, "false")]);
    }

    /// Forwards `state` on `key` from loop 0 to loop 1, serves it there and
    /// completes it back on loop 0 as its event loop would; each mailbox
    /// must have held the one op batch and nothing else.
    fn round_trip(states: &mut [LoopState], seeds: &[LoopSeed], key: &[u8], state: OpState) {
        let (origin, owner) = states.split_at_mut(1);
        forward(&mut origin[0], 0, key, state);
        origin[0].flush_outbound();
        owner[0].serve(only_batch(&seeds[1]));
        owner[0].flush_outbound();
        let batch = only_batch(&seeds[0]);
        origin[0].fill_replicas(&batch);
        origin[0].recycle(batch);
    }

    #[test]
    fn a_forwarded_gets_reply_fills_the_replica_and_a_version_bump_alone_drops_it() {
        let config = BackendConfig {
            hot_key: HotKeyConfig::aggressive(),
            ..BackendConfig::default()
        };
        let (mut states, seeds, _) = two_loops(config);
        let key = remote_keys(&states[0], 1, 8).remove(0);
        let (shard, id, _) = states[0].route(0, &key);
        let shared = Arc::clone(&states[0].shared);
        let hot = shared.hot.as_ref().expect("hot keys on");
        let entry = PromotedEntry {
            key: Bytes::copy_from_slice(&key),
            count: 64,
        };
        hot.promoted.lock().insert((0, id), entry);
        hot.generation.fetch_add(1, Ordering::AcqRel);
        states.iter_mut().for_each(LoopState::refresh_tenants);
        let counters = |state: &LoopState| {
            let hot = state.hot.as_ref().expect("hot keys on");
            (hot.replica_hits, hot.replica_fills, hot.invalidations)
        };

        round_trip(&mut states, &seeds, &key, store(&key, b"first"));
        assert_eq!(states[0].replica_get(shard, 0, id, &key), None);
        round_trip(&mut states, &seeds, &key, OpState::Get);
        let first = Some((9, Bytes::from_static(b"first")));
        assert_eq!(states[0].replica_get(shard, 0, id, &key), first);
        assert_eq!(counters(&states[0]), (1, 1, 0));

        // The owner's SET bumps the key's version and sends nothing else:
        // the next read finds the entry stale, drops it and counts it.
        round_trip(&mut states, &seeds, &key, store(&key, b"second"));
        assert_eq!(states[0].replica_get(shard, 0, id, &key), None);
        assert_eq!(counters(&states[0]), (1, 1, 1));
        assert_eq!(states[0].replica_get(shard, 0, id, &key), None);
        assert_eq!(counters(&states[0]), (1, 1, 1), "the entry is gone");

        // A flush's bump of every slot does the same.
        round_trip(&mut states, &seeds, &key, OpState::Get);
        let second = Some((9, Bytes::from_static(b"second")));
        assert_eq!(states[0].replica_get(shard, 0, id, &key), second);
        hot.versions.bump_all();
        assert_eq!(states[0].replica_get(shard, 0, id, &key), None);
        assert_eq!(counters(&states[0]), (2, 2, 2));
        assert_eq!(states[0].replica_get(shard, 0, id, &key), None);
        assert_eq!(counters(&states[0]), (2, 2, 2), "the entry is gone");
    }

    /// A plane whose loops (two of them) ask for a hot-key round every 3
    /// ops, a rebalancing round every 5 and an arbitration round every 7.
    fn three_rounds(mode: BackendMode, hot_keys: bool) -> BackendConfig {
        let mut config = BackendConfig {
            mode,
            tenants: vec![TenantSpec::new("second", 1)],
            ..BackendConfig::default()
        };
        config.hot_key.enabled = hot_keys;
        config.hot_key.interval_requests = 6;
        config.rebalance.interval_requests = 10;
        config.tenant_balance.interval_requests = 14;
        config
    }

    /// The rounds the loops have asked for since the last look.
    fn asked(ctrl: &Receiver<CtrlReq>) -> Vec<RoundKind> {
        ctrl.try_iter()
            .map(|req| match req {
                CtrlReq::Round { kind, done: None } => kind,
                _ => panic!("a loop asks for rounds only, and waits for none"),
            })
            .collect()
    }

    #[test]
    fn crossing_an_interval_asks_for_one_round_until_the_control_thread_takes_it() {
        use RoundKind::{Arbitrate, HotKeys, Rebalance};
        let (mut states, _seeds, ctrl) = two_loops(three_rounds(BackendMode::Cliffhanger, true));
        let state = &mut states[0];
        // Ops 3, 5 and 7 cross one interval each; op 6 crosses the hot-key
        // interval again with that round still queued.
        (0..7).for_each(|_| state.tick());
        assert_eq!(asked(&ctrl), [HotKeys, Rebalance, Arbitrate]);
        // Every kind crosses again by op 14, every flag still set.
        (7..14).for_each(|_| state.tick());
        assert_eq!(asked(&ctrl), []);
        // The control thread clears a kind's flag as it takes the round up:
        // op 15 crosses the hot-key and rebalancing intervals both.
        state.shared.round_pending[Rebalance as usize].store(false, Ordering::Release);
        state.tick();
        assert_eq!(asked(&ctrl), [Rebalance]);

        // A plane with no round to run counts nothing and asks for nothing.
        let (mut states, _seeds, ctrl) = two_loops(three_rounds(BackendMode::Default, false));
        (0..100).for_each(|_| states[0].tick());
        assert_eq!(asked(&ctrl), []);
        assert_eq!(states[0].until, states[0].intervals);
        // Its control thread still answers a caller that waits on `done`, and
        // clears a pending flag only for the round a loop asked for.
        let shared = Arc::clone(&states[0].shared);
        let pending = |kind: RoundKind| &shared.round_pending[kind as usize];
        pending(Arbitrate).store(true, Ordering::Release);
        pending(Rebalance).store(true, Ordering::Release);
        let (done, answered) = channel();
        for (kind, done) in [(Arbitrate, Some(done)), (Rebalance, None)] {
            shared.ctrl.send(CtrlReq::Round { kind, done }).unwrap();
        }
        shared.ctrl.send(CtrlReq::Shutdown).unwrap();
        let telemetry = Arc::new(ConnTelemetry::new(2, 16));
        Control::new(Arc::clone(&shared), ctrl, telemetry, None).run();
        assert_eq!(answered.try_recv(), Ok(()));
        assert!(pending(Arbitrate).load(Ordering::Acquire));
        assert!(!pending(Rebalance).load(Ordering::Acquire));
    }

    /// The countdowns ask for each kind at the op counts that are multiples
    /// of its interval, as the count of ops divided by it once did.
    #[test]
    fn the_rounds_are_asked_for_at_every_multiple_of_their_intervals() {
        let (mut states, _seeds, ctrl) = two_loops(three_rounds(BackendMode::Cliffhanger, true));
        let state = &mut states[0];
        let mut seen = Vec::new();
        for op in 1..=1_000u64 {
            state.tick();
            seen.extend(asked(&ctrl).into_iter().map(|kind| (op, kind)));
            for pending in &state.shared.round_pending {
                pending.store(false, Ordering::Release);
            }
        }
        let expected: Vec<(u64, RoundKind)> = (1..=1_000u64)
            .flat_map(|op| {
                RoundKind::ALL
                    .into_iter()
                    .filter(move |&kind| op % [3, 5, 7][kind as usize] == 0)
                    .map(move |kind| (op, kind))
            })
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn a_round_asks_each_loop_for_its_counters_and_builds_no_snapshot() {
        use std::sync::mpsc::TryRecvError;
        let (mut states, seeds, ctrl) = two_loops(three_rounds(BackendMode::Cliffhanger, true));
        let shared = Arc::clone(&states[0].shared);
        let telemetry = Arc::new(ConnTelemetry::new(2, 16));
        let control = Control::new(Arc::clone(&shared), ctrl, telemetry, None);
        let control = std::thread::spawn(move || control.run());
        for (kind, narrow) in [
            (RoundKind::Rebalance, "shadow hits"),
            (RoundKind::HotKeys, "hot keys"),
        ] {
            let (done, answered) = channel();
            let done = Some(done);
            shared.ctrl.send(CtrlReq::Round { kind, done }).unwrap();
            // Both loops' mailboxes are served by hand until the round is
            // done; with no traffic a round moves no budget, so what the
            // loops see is what the round reads.
            let mut seen = Vec::new();
            while answered.try_recv() == Err(TryRecvError::Empty) {
                for (state, seed) in states.iter_mut().zip(&seeds) {
                    for msg in seed.take_inbox() {
                        let LoopMsg::Control(msg) = msg else {
                            panic!("a round sends the loops control messages only");
                        };
                        seen.push(match msg {
                            ControlMsg::ShadowHits { .. } => "shadow hits",
                            ControlMsg::HotKeys { .. } => "hot keys",
                            ControlMsg::Snapshot { .. } => "snapshot",
                            _ => "a budget move",
                        });
                        state.serve_control(msg);
                    }
                }
                std::thread::yield_now();
            }
            assert_eq!(seen, [narrow; 2], "one narrow question to each loop");
        }
        shared.ctrl.send(CtrlReq::Shutdown).unwrap();
        control.join().expect("the control thread");
        assert!(seeds.iter().all(|seed| seed.take_inbox().is_empty()));
    }
}
