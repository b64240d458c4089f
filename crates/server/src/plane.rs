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
use crate::control::Control;
use crate::engine::{
    even_split, route_key, weighted_split, BackendConfig, BackendMode, Engine, StoredValue,
};
use crate::handle::PlaneHandle;
use crate::protocol::{AppEntry, Response, StatsFormat, StoreVerb};
use crate::reactor::{ConnTelemetry, Mailbox};
use crate::server::ServerConfig;
use crate::stats::{EngineStat, WireCounts};
use cache_core::prefetch::Sweep;
use cache_core::{Key, TenantDirectory};
use cliffhanger::EventSink;
use parking_lot::Mutex;
use profiler::{MrcSnapshot, OnlineMrc};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
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
        /// The reply, as the connection writes it.
        response: Response,
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
    pub(crate) caller: Option<Sender<OpBatch>>,
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
    /// `app_create`: bring up the new tenant's engine on every owned
    /// shard with the bytes carved for it there (indexed by global shard).
    AddTenant {
        /// The new tenant's name (not yet in the loops' tables — the
        /// generation bump that publishes it happens after every loop acks).
        name: String,
        budgets: Vec<u64>,
        reply: Sender<()>,
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
}

/// The rounds the control thread runs, in the order a loop whose op counter
/// crosses several intervals at once asks for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RoundKind {
    /// Budget across the shards of each tenant.
    Rebalance,
    /// Budget across the tenants.
    Arbitrate,
}

impl RoundKind {
    const ALL: [RoundKind; 2] = [RoundKind::Rebalance, RoundKind::Arbitrate];
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
    Sync(Sender<Response>),
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
    pub(crate) fn total_budget(&self) -> u64 {
        self.budgets.iter().flatten().sum()
    }

    /// The hosted applications with their weights and live budgets.
    pub(crate) fn app_list(&self) -> Vec<AppEntry> {
        let budgets = self.tenant_budgets();
        let rows = self.directory.names().iter().zip(&self.weights);
        rows.zip(budgets)
            .map(|((name, &weight), budget_bytes)| AppEntry {
                name: name.clone(),
                weight,
                budget_bytes,
            })
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
    /// Plane boot instant: the monotonic zero for journal timestamps,
    /// history bucket indices and `uptime_s`.
    pub(crate) started: Instant,
    /// Per [`RoundKind`]: a loop has asked for a round the control thread
    /// has not started yet. Collapses concurrent triggers from many loops
    /// into one queued round.
    pub(crate) round_pending: [AtomicBool; 2],
}

impl PlaneShared {
    /// Resolves the tenant roster, the shard count and the boot budget
    /// split (weight-proportional across tenants, even across shards) for
    /// a plane of `loops` event loops reachable over `mailboxes`.
    pub(crate) fn new(
        config: BackendConfig,
        loops: usize,
        mailboxes: Vec<Mailbox>,
        ctrl: Sender<CtrlReq>,
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
        let cells = directory.len() as u64 * shards as u64;
        assert!(
            config.total_bytes >= cells,
            "total_bytes ({}) is under a byte for each of the {cells} (tenant, shard) engines",
            config.total_bytes,
        );
        let mut budgets: Vec<Vec<u64>> = weighted_split(config.total_bytes, &weights)
            .iter()
            .map(|&share| even_split(share, shards))
            .collect();
        // Every cell gets at least a byte, taken from the largest one: an
        // engine cannot be built on none. The largest holds two or more
        // while a cell is empty, so this fills one cell a pass.
        let mut cells: Vec<&mut u64> = budgets.iter_mut().flatten().collect();
        while let Some(empty) = cells.iter().position(|cell| **cell == 0) {
            let largest = (0..cells.len()).max_by_key(|&i| *cells[i]).unwrap_or(empty);
            *cells[largest] -= 1;
            *cells[empty] = 1;
        }
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
            started: Instant::now(),
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
    pub(crate) fn round_active(&self, kind: RoundKind, tenants: usize) -> bool {
        let managed = self.config.mode != BackendMode::Default;
        match kind {
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
/// installed (a no-op on plain engines). A managed engine needs
/// `budget > 0`; a plain one holds nothing below a slab page either way.
fn build_engine(shared: &PlaneShared, shard: usize, tenant: &str, budget: u64) -> Engine {
    debug_assert!(budget > 0 || shared.config.mode == BackendMode::Default);
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
    /// Slow-op threshold in nanoseconds; 0 disables the slow-op log.
    slow_op_nanos: u64,
    /// Ops over the slow-op threshold (0 threshold = never counted).
    slow_ops: u64,
    /// Per [`RoundKind`]: the ops this loop executes between two requests
    /// for a round (the configured interval over the loop count).
    intervals: [u64; 2],
    /// Per [`RoundKind`]: the ops left until the count next crosses its
    /// interval (a countdown, so an op divides nothing).
    until: [u64; 2],
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
}

impl LoopState {
    /// The state of loop `index` of a plane that has not served yet: an
    /// engine per tenant, at its boot budget, for every shard the loop owns;
    /// an op slower than `slow_op_micros` (0: none) is counted and journalled.
    pub(crate) fn new(index: usize, shared: Arc<PlaneShared>, slow_op_micros: u64) -> LoopState {
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
            slow_op_nanos: slow_op_micros.saturating_mul(1_000),
            slow_ops: 0,
            intervals,
            until: intervals,
            mrc: Vec::new(),
            history: TimeSeries::new(HISTORY_INTERVAL_US, HISTORY_WINDOWS),
            sample: Vec::new(),
            outbound: (0..shared.loops).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            now: shared.started,
            shared,
        };
        state.grow_mrc();
        state
    }

    /// Brings the MRC estimators up to one per tenant (none when profiling
    /// is off or the loop owns no shard to sample).
    fn grow_mrc(&mut self) {
        if let (Some(shift), false) = (self.shared.config.mrc_shift(), self.owned.is_empty()) {
            let share = self.owned.len() as f64 / self.shared.shards as f64;
            let estimator = || OnlineMrc::with_population_share(shift, share);
            self.mrc.resize_with(self.tenants.len(), estimator);
        }
    }

    /// Re-copies the tenant name table if the control thread changed it.
    /// One relaxed atomic load on the no-change path.
    pub(crate) fn refresh_tenants(&mut self) {
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
    /// is. A failed `add` on a present key or `replace` of a missing one
    /// never touches the engine and is not counted as a set.
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
        self.tick();
        stored
    }

    /// A delete against an owned engine; returns whether the key was there.
    pub(crate) fn delete(&mut self, slot: usize, tenant: usize, id: Key, key: &[u8]) -> bool {
        let Some(cell) = self.owned[slot].cells.get_mut(tenant) else {
            return false;
        };
        cell.deletes += 1;
        let deleted = cell.engine.contains_exact(id, key) && cell.engine.delete(id);
        self.tick();
        deleted
    }

    /// Starts the service-time stamp of the next local op if it is one of
    /// those timed: every [`LOCAL_TIMED_EVERY`]th (a clock read costs a
    /// tenth of a local GET), or every one while a slow-op threshold asks
    /// for a census.
    pub(crate) fn local_timer(&self) -> Option<Instant> {
        (self.slow_op_nanos != 0 || self.local_ops % LOCAL_TIMED_EVERY == 0).then(Instant::now)
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
        let threshold = self.slow_op_nanos;
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
        if active == [false; 2] {
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
                        OpState::Value(Some((item.flags(), append(bytes, item.data()))))
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
            ControlMsg::Shrink {
                shard,
                tenant,
                bytes,
                reply,
            } => {
                let cell = self.cell_mut(shard, tenant);
                let _ = reply.send(cell.is_some_and(|cell| cell.engine.shrink_total(bytes)));
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
            ControlMsg::AddTenant {
                name,
                budgets,
                reply,
            } => {
                let shared = Arc::clone(&self.shared);
                for shard in self.owned.iter_mut() {
                    let engine = build_engine(&shared, shard.global, &name, budgets[shard.global]);
                    shard.cells.push(OwnedEngine::new(engine));
                }
                let _ = reply.send(());
            }
        }
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
        }
    }
}

/// A running data plane: the loops, the control thread and the handle.
pub(crate) struct Plane {
    pub(crate) handle: Arc<PlaneHandle>,
    pub(crate) loops: Arc<Vec<crate::reactor::LoopHandle>>,
    control: Option<JoinHandle<()>>,
}

impl Plane {
    /// Builds the roster, fuses shards to `config.workers` event loops,
    /// spawns them and the control thread.
    pub(crate) fn start(
        config: &ServerConfig,
        telemetry: Arc<ConnTelemetry>,
    ) -> std::io::Result<Plane> {
        let (workers, idle_timeout) = (config.workers, config.idle_timeout);
        let (ctrl_tx, ctrl_rx) = channel();
        let mut mailboxes = Vec::with_capacity(workers);
        let mut seeds = Vec::with_capacity(workers);
        for index in 0..workers {
            let (mailbox, seed) = crate::reactor::loop_channel(index)?;
            mailboxes.push(mailbox);
            seeds.push(seed);
        }
        let shared = Arc::new(PlaneShared::new(
            config.backend.clone(),
            workers,
            mailboxes,
            ctrl_tx,
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
                let state = LoopState::new(seed.index, Arc::clone(&shared), config.slow_op_micros);
                crate::reactor::LoopHandle::spawn(seed, state, Arc::clone(&telemetry), idle_timeout)
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Plane {
            handle: Arc::new(PlaneHandle { shared }),
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
pub(crate) mod tests {
    use super::*;
    use crate::engine::TenantSpec;
    use crate::reactor::{loop_channel, LoopSeed};
    use std::sync::mpsc::Receiver;

    /// The loop states of a 2-loop x 2-shard plane no thread serves — the
    /// tests move the mailboxes' contents by hand — and what its loops ask
    /// of the control thread.
    pub(crate) fn two_loops(
        config: BackendConfig,
    ) -> (Vec<LoopState>, Vec<LoopSeed>, Receiver<CtrlReq>) {
        let (mailboxes, seeds): (Vec<_>, Vec<_>) = (0..2)
            .map(|index| loop_channel(index).expect("eventfd and epoll"))
            .unzip();
        let config = BackendConfig {
            shards: 2,
            ..config
        };
        let (ctrl, asked) = channel();
        let shared = Arc::new(PlaneShared::new(config, 2, mailboxes, ctrl));
        let states = (0..2)
            .map(|index| LoopState::new(index, Arc::clone(&shared), 0))
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
    fn a_boot_share_smaller_than_the_shard_count_still_builds_every_engine() {
        // The default tenant's weighted share is under a byte per shard:
        // an even split would boot one shard with a budget of 0.
        let config = BackendConfig {
            total_bytes: 4 << 20,
            tenants: vec![TenantSpec::new("big", 1 << 40)],
            ..BackendConfig::default()
        };
        let (states, _seeds, _) = two_loops(config);
        let mut held = 0;
        for state in &states {
            assert_eq!(state.owned.len(), 1);
            assert_eq!(state.owned[0].cells.len(), 2, "an engine per tenant");
            for cell in &state.owned[0].cells {
                let Engine::Managed(cache) = &cell.engine else {
                    panic!("the default mode is managed")
                };
                held += cache.total_bytes();
            }
        }
        assert_eq!(held, 4 << 20, "the live engines hold exactly total_bytes");
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

    /// A plane whose loops (two of them) ask for a rebalancing round every 5
    /// ops and an arbitration round every 7.
    pub(crate) fn two_rounds(mode: BackendMode) -> BackendConfig {
        let mut config = BackendConfig {
            mode,
            tenants: vec![TenantSpec::new("second", 1)],
            ..BackendConfig::default()
        };
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
        use RoundKind::{Arbitrate, Rebalance};
        let (mut states, _seeds, ctrl) = two_loops(two_rounds(BackendMode::Cliffhanger));
        let state = &mut states[0];
        // Ops 5 and 7 cross one interval each.
        (0..7).for_each(|_| state.tick());
        assert_eq!(asked(&ctrl), [Rebalance, Arbitrate]);
        // Every kind crosses again by op 14, every flag still set.
        (7..14).for_each(|_| state.tick());
        assert_eq!(asked(&ctrl), []);
        // The control thread clears a kind's flag as it takes the round up:
        // op 15 crosses the rebalancing interval.
        state.shared.round_pending[Rebalance as usize].store(false, Ordering::Release);
        state.tick();
        assert_eq!(asked(&ctrl), [Rebalance]);

        // A plane with no round to run counts nothing and asks for nothing.
        let (mut states, _seeds, ctrl) = two_loops(two_rounds(BackendMode::Default));
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
        let (mut states, _seeds, ctrl) = two_loops(two_rounds(BackendMode::Cliffhanger));
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
                    .filter(move |&kind| op % [5, 7][kind as usize] == 0)
                    .map(move |kind| (op, kind))
            })
            .collect();
        assert_eq!(seen, expected);
    }
}
