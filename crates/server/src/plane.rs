//! The data plane: shards behind a lock each, served by every event loop.
//!
//! Every cache shard is a [`Shard`] behind one mutex in [`PlaneShared`]: an
//! engine per tenant with its wire counters and its live MRC estimator. A
//! connection routes each key by hash in [`crate::conn`] and executes it
//! on its own loop, whichever shard the key hashes to, the way Memcached's
//! worker threads serve every key from shared structures. Each shard still
//! has a *home* loop (`home(shard) = shard % loops`), which is what `stats`
//! reports as `owner_loop`; an op a loop runs on a shard homed on another
//! loop is counted as `remote_out`, and nothing crosses between loops.
//!
//! Cross-cutting operations run in the thread that needs them, under the
//! *control lock* ([`PlaneShared::control`], the [`Control`] state): every
//! [`ShardRebalancer`] budget transfer (across shards, or across tenants),
//! tenant `flush_all`, `app_create` carve-outs, `stats` assembly and every
//! budget read. A loop runs the rounds its op count made due at the end of
//! its pass, and a connection's admin command where it stands in the
//! connection's stream; a [`PlaneHandle`] caller runs its own rounds and
//! admin calls; the `cache-control` thread only samples the rate history.
//! Each reads and changes the shards under their locks, and reads each
//! loop's op ledger and service times from the loop's
//! [`crate::reactor::LoopLedger`] without asking the loop. The one thing
//! that crosses between threads is a new connection, from the acceptor to
//! a loop's mailbox.
//!
//! # Invariants
//!
//! * **One shard lock at a time** — no thread ever holds two shard locks,
//!   and none makes a system call, sends on a channel or waits on a reply
//!   while it holds one (a clock read is no system call). In debug builds a
//!   thread-local depth counter asserts the first half on every lock. A
//!   window's sweeps take each shard it touches once, its execution once
//!   per run of consecutive same-shard entries.
//! * **Lock order** — the control lock, then the roster lock, then a shard
//!   lock, then a leaf latch: a journal slot's, or a loop's service-time
//!   histogram's. A loop waits for the control lock only to run a
//!   connection's admin command, and never with a shard lock held; at the
//!   end of its pass it only *tries* the lock, and skips its round if
//!   another thread has it. The roster is never locked under a shard lock,
//!   and no lock is taken under a leaf latch. Under a shard lock an engine
//!   narrates into the journal and a loop records a timed op's service
//!   time; nothing else takes a lock there.
//! * **Nothing built, dropped or histogrammed under a shard lock** that
//!   could be outside it: a rebuilt engine is built before its lock is taken
//!   and the old one dropped after it is released, and `stats` copies the
//!   cells' counters and estimators under the lock and builds the curves
//!   outside it. What an op evicts is dropped where the engine evicts it.
//! * **Budget conservation** — each budget lives in its engine
//!   ([`Engine::budget`]) and nowhere else, and the holder of the control
//!   lock is its *sole* mutator, so a reader that holds the lock sees every
//!   transfer whole. Every transfer is shrink-then-grow, each half under its
//!   own shard's lock: the winner is granted only bytes the donor engine
//!   actually released (a donor pinned at its slab-class floors contributes
//!   nothing), so the summed live budgets never exceed `total_bytes`.
//! * **Acyclic waits** — past idling for work, every thread waits only for
//!   locks, each held across a critical section that waits on nothing but a
//!   lock later in the order, so no cycle of waits can form. No thread
//!   waits on a reply or on a loop.
//! * **Tenant table** — the `app` command resolves its name in the roster,
//!   with no shard lock held. `app_create` adds a name to the roster only
//!   *after* every shard holds the new tenant's cell, so a session can
//!   never resolve a tenant whose cells do not exist yet.

use crate::control::Control;
use crate::engine::{
    even_split, route_key, weighted_split, BackendConfig, BackendMode, Engine, StoredValue,
};
use crate::handle::PlaneHandle;
use crate::protocol::{StatsFormat, StoreVerb};
use crate::reactor::{bump, ConnTelemetry, LoopHandle};
use crate::server::ServerConfig;
use crate::stats::WireCounts;
use cache_core::prefetch::Sweep;
use cache_core::{Key, TenantDirectory};
use cliffhanger::EventSink;
use parking_lot::{Mutex, MutexGuard};
use profiler::OnlineMrc;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{EventKind, Journal};

/// Ring capacity of the control-plane flight recorder (and, apart, of the
/// engines' narration): a long tail of balancing history at a few hundred
/// bytes per event.
const JOURNAL_CAPACITY: usize = 1024;

/// Slow-op journal sampling: record the first slow op and every 64th after
/// it (per loop), so a pathological threshold cannot flood the ring.
const SLOW_OP_SAMPLE: u64 = 64;

/// One op in this many is timed for the service-time histograms.
const TIMED_EVERY: u64 = 16;

/// The balancing rounds, in the order a loop whose op counter crosses
/// several intervals at once runs them.
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

/// The admin commands, each run under the control lock.
pub(crate) enum AdminOp {
    Stats { format: StatsFormat },
    FlushTenant { tenant: usize },
    CreateTenant { name: String, weight: u64 },
    AppList,
}

/// The tenant table: each hosted application's name and weight. The
/// control lock's holder is the only writer; the `app` command and the
/// admin calls read it. The budgets are the engines' own
/// ([`crate::engine::Engine::budget`]), and the request fast path never
/// touches the table.
pub(crate) struct RosterMaster {
    pub(crate) directory: TenantDirectory,
    pub(crate) weights: Vec<u64>,
}

/// State shared by the loops, the control thread and the [`PlaneHandle`].
pub(crate) struct PlaneShared {
    pub(crate) config: BackendConfig,
    pub(crate) shards: usize,
    /// Each loop's connection gauge and op ledger, and the accept totals.
    pub(crate) telemetry: ConnTelemetry,
    /// The control lock: the balancers and the admin state, first in the
    /// lock order.
    pub(crate) control: Mutex<Control>,
    pub(crate) roster: Mutex<RosterMaster>,
    /// The flight recorder. Lock-free claims; the control plane writes
    /// here, and the engines narrate here under their shard's lock.
    pub(crate) journal: Arc<Journal>,
    /// Plane boot instant: the monotonic zero for journal timestamps,
    /// history bucket indices and `uptime_s`.
    pub(crate) started: Instant,
    /// The shards, each behind its own lock (see the module's invariants).
    cells: Vec<Mutex<Shard>>,
}

impl PlaneShared {
    /// Resolves the tenant roster, the shard count and the boot budget
    /// split (weight-proportional across tenants, even across shards), and
    /// builds every shard's engines, for a plane of as many event loops as
    /// `telemetry` counts, whose `stats` report `idle_timeout` as the
    /// connections' idle limit.
    pub(crate) fn new(
        config: BackendConfig,
        telemetry: ConnTelemetry,
        idle_timeout: Option<Duration>,
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
        // The boot budgets, `[tenant][shard]`: from here on each lives only
        // in its engine.
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
        let journal = Arc::new(Journal::new(JOURNAL_CAPACITY));
        let cells = (0..shards)
            .map(|s| {
                let names = directory.names().iter().zip(&budgets);
                let cells = names.map(|(name, per_shard)| {
                    Cell::new(&config, shards, &journal, s, name, per_shard[s])
                });
                Mutex::new(Shard(cells.collect()))
            })
            .collect();
        PlaneShared {
            shards,
            telemetry,
            control: Mutex::new(Control::new(&config, shards, directory.len(), idle_timeout)),
            roster: Mutex::new(RosterMaster { directory, weights }),
            journal,
            started: Instant::now(),
            cells,
            config,
        }
    }

    /// The event loop a shard is homed on: what `stats` reports as its
    /// `owner_loop`, and what tells a loop's local ops from its remote ones.
    pub(crate) fn home_of(&self, shard: usize) -> usize {
        shard % self.telemetry.loops()
    }

    /// Whether rounds of `kind` run on this plane while it hosts `tenants`
    /// tenants: the one predicate behind the rounds and the `enabled` flags
    /// `stats` reports.
    pub(crate) fn round_active(&self, kind: RoundKind, tenants: usize) -> bool {
        let managed = self.config.mode != BackendMode::Default;
        match kind {
            RoundKind::Rebalance => managed && self.config.rebalance.enabled && self.shards > 1,
            RoundKind::Arbitrate => managed && self.config.tenant_balance.enabled && tenants > 1,
        }
    }

    /// Locks one shard. The calling thread must hold no other shard lock.
    pub(crate) fn lock(&self, shard: usize) -> ShardGuard<'_> {
        #[cfg(debug_assertions)]
        LOCKS_HELD.with(|held| {
            assert_eq!(held.get(), 0, "a thread takes a second shard lock");
            held.set(1);
        });
        ShardGuard {
            shard,
            guard: self.cells[shard].lock(),
        }
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// The shard locks this thread holds: 0 or 1.
    static LOCKS_HELD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// One locked shard, and which it is.
pub(crate) struct ShardGuard<'a> {
    pub(crate) shard: usize,
    guard: MutexGuard<'a, Shard>,
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = Shard;

    fn deref(&self) -> &Shard {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        LOCKS_HELD.with(|held| held.set(0));
    }
}

/// The [`EventSink`] installed on every managed engine: tags the library's
/// anonymous decision events with the engine's (shard, tenant) identity and
/// appends them to the flight recorder. Transfers are not journalled here —
/// the round that runs the balancers records only the transfers it
/// actually applied.
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
pub(crate) fn build_engine(
    config: &BackendConfig,
    journal: &Arc<Journal>,
    shard: usize,
    tenant: &str,
    budget: u64,
) -> Engine {
    debug_assert!(budget > 0 || config.mode == BackendMode::Default);
    let mut engine = Engine::build(config, budget);
    engine.set_event_sink(Arc::new(EngineSink {
        journal: Arc::clone(journal),
        shard,
        tenant: tenant.to_string(),
    }));
    engine
}

/// Where a key lives: its shard and its 64-bit id.
pub(crate) type Route = (usize, Key);

/// One (shard, tenant) engine, its wire counters and the tenant's live
/// MRC estimator over the shard's keys.
pub(crate) struct Cell {
    pub(crate) engine: Engine,
    gets: u64,
    hits: u64,
    sets: u64,
    deletes: u64,
    /// `None` when profiling is off.
    pub(crate) mrc: Option<OnlineMrc>,
}

impl Cell {
    /// A cell of a plane of `shards` shards, its engine built for `(shard,
    /// tenant)` on `budget` bytes.
    pub(crate) fn new(
        config: &BackendConfig,
        shards: usize,
        journal: &Arc<Journal>,
        shard: usize,
        tenant: &str,
        budget: u64,
    ) -> Cell {
        // Each estimator sees one shard's share of the tenant's keys.
        let share = 1.0 / shards as f64;
        Cell {
            engine: build_engine(config, journal, shard, tenant, budget),
            gets: 0,
            hits: 0,
            sets: 0,
            deletes: 0,
            mrc: config
                .mrc_shift()
                .map(|shift| OnlineMrc::with_population_share(shift, share)),
        }
    }

    pub(crate) fn wire_counts(&self) -> WireCounts {
        WireCounts {
            gets: self.gets,
            hits: self.hits,
            misses: self.gets.saturating_sub(self.hits),
            sets: self.sets,
            deletes: self.deletes,
        }
    }
}

/// One shard: a cell per tenant, indexed by tenant.
pub(crate) struct Shard(pub(crate) Vec<Cell>);

impl Shard {
    /// One of the read-only sweeps ahead of an op on `id`.
    pub(crate) fn prefetch(&self, tenant: usize, id: Key, sweep: Sweep) {
        if let Some(cell) = self.0.get(tenant) {
            cell.engine.prefetch(id, sweep);
        }
    }

    /// A GET, lending the stored item on a hit: the MRC estimator's record,
    /// plain counter bumps and the engine call — no allocation.
    pub(crate) fn get(&mut self, tenant: usize, id: Key, key: &[u8]) -> Option<&StoredValue> {
        // A tenant index without cells is impossible (see the module's
        // tenant-table rule); never panic a loop over it.
        let cell = self.0.get_mut(tenant)?;
        if let Some(estimator) = &mut cell.mrc {
            estimator.record(id);
        }
        cell.gets += 1;
        let found = cell.engine.wire_get(id, key);
        cell.hits += u64::from(found.is_some());
        found
    }

    /// A store: `item` moves into the cache as it is. A failed `add` on a
    /// present key or `replace` of a missing one never touches the engine
    /// and is not counted as a set.
    pub(crate) fn store(
        &mut self,
        tenant: usize,
        id: Key,
        verb: StoreVerb,
        item: StoredValue,
    ) -> bool {
        let Some(cell) = self.0.get_mut(tenant) else {
            return false;
        };
        let touched = match verb {
            StoreVerb::Set => true,
            StoreVerb::Add => !cell.engine.contains_exact(id, item.key()),
            StoreVerb::Replace => cell.engine.contains_exact(id, item.key()),
        };
        cell.sets += u64::from(touched);
        touched && cell.engine.wire_set(id, item)
    }

    /// A delete; returns whether the key was there.
    pub(crate) fn delete(&mut self, tenant: usize, id: Key, key: &[u8]) -> bool {
        let Some(cell) = self.0.get_mut(tenant) else {
            return false;
        };
        cell.deletes += 1;
        cell.engine.contains_exact(id, key) && cell.engine.delete(id)
    }
}

/// The loop-thread-owned half of the data plane: its countdowns to the
/// next balancing rounds and its sweep marks. Its op ledger and service
/// times are in its [`crate::reactor::LoopLedger`], where `stats` reads
/// them.
pub(crate) struct LoopState {
    pub(crate) index: usize,
    pub(crate) shared: Arc<PlaneShared>,
    /// Slow-op threshold in nanoseconds; 0 disables the slow-op log.
    slow_op_nanos: u64,
    /// Per [`RoundKind`]: the ops this loop executes between two of its
    /// rounds (the configured interval over the loop count).
    intervals: [u64; 2],
    /// Per [`RoundKind`]: the ops left until the count next crosses its
    /// interval (a countdown, so an op divides nothing).
    until: [u64; 2],
    /// Per [`RoundKind`]: the count crossed its interval since the last
    /// [`LoopState::ask_rounds`].
    due: [bool; 2],
    /// Per shard, whether it is homed on this loop.
    homed_here: Vec<bool>,
    /// Per shard, the last sweep that took its lock, and that sweep's
    /// number ([`LoopState::sweep`]).
    marks: Vec<u64>,
    sweeps: u64,
    /// The instant read at the top of this readiness pass: the pass's one
    /// clock for connection activity.
    pub(crate) now: Instant,
}

impl LoopState {
    /// The state of loop `index` of a plane that has not served yet; an op
    /// slower than `slow_op_micros` (0: none) is counted and journalled.
    pub(crate) fn new(index: usize, shared: Arc<PlaneShared>, slow_op_micros: u64) -> LoopState {
        let config = &shared.config;
        let intervals = RoundKind::ALL.map(|kind| match kind {
            RoundKind::Rebalance => config.rebalance.interval_requests,
            RoundKind::Arbitrate => config.tenant_balance.interval_requests,
        });
        let intervals =
            intervals.map(|requests| (requests / shared.telemetry.loops() as u64).max(1));
        LoopState {
            index,
            slow_op_nanos: slow_op_micros.saturating_mul(1_000),
            intervals,
            until: intervals,
            due: [false; 2],
            homed_here: (0..shared.shards)
                .map(|shard| shared.home_of(shard) == index)
                .collect(),
            marks: vec![0; shared.shards],
            sweeps: 0,
            now: shared.started,
            shared,
        }
    }

    /// Routes a key of `tenant` to its shard and id.
    pub(crate) fn route(&self, tenant: usize, key: &[u8]) -> Route {
        route_key(tenant, key, self.shared.shards)
    }

    /// The three read-only sweeps ahead of a window's execution; `key` gives
    /// an entry's `(shard, tenant, id)`: each key's engine index slot, then
    /// the item's queue node and bytes, then the node's neighbours, every
    /// shard's keys under that shard's lock, each shard locked once.
    /// Independent across keys, so the misses execution would take one by
    /// one overlap; one key overlaps with nothing.
    pub(crate) fn sweep<T>(
        &mut self,
        batch: &[T],
        key: impl Fn(&T) -> Option<(usize, usize, Key)>,
    ) {
        if batch.len() < 2 {
            return;
        }
        self.sweeps += 1;
        let (shared, marks, stamp) = (&*self.shared, &mut self.marks, self.sweeps);
        // A shard is swept from its first key in the batch on; the mark
        // passes over its later keys.
        for (at, first) in batch.iter().enumerate() {
            let Some((shard, ..)) = key(first) else {
                continue;
            };
            if std::mem::replace(&mut marks[shard], stamp) == stamp {
                continue;
            }
            let cells = shared.lock(shard);
            for sweep in [Sweep::Slot, Sweep::Item, Sweep::Neighbours] {
                let keys = batch[at..].iter().filter_map(&key);
                for (_, tenant, id) in keys.filter(|&(s, ..)| s == shard) {
                    cells.prefetch(tenant, id, sweep);
                }
            }
        }
    }

    /// Starts the service-time stamp of the next op if it is one of those
    /// timed: every [`TIMED_EVERY`]th (a clock read costs a tenth of a GET),
    /// or every one while a slow-op threshold asks for a census.
    pub(crate) fn timer(&self) -> Option<Instant> {
        let ledger = self.shared.telemetry.ledger(self.index);
        let ops =
            ledger.local_ops.load(Ordering::Relaxed) + ledger.remote_out.load(Ordering::Relaxed);
        (self.slow_op_nanos != 0 || ops % TIMED_EVERY == 0).then(Instant::now)
    }

    /// An op on `shard` finished: counts it as local or remote by the
    /// shard's home, records its service time if [`LoopState::timer`] timed
    /// it, and counts down to the next rounds.
    pub(crate) fn note_op(&mut self, shard: usize, timer: Option<Instant>) {
        let local = self.homed_here[shard];
        let ledger = self.shared.telemetry.ledger(self.index);
        bump(if local {
            &ledger.local_ops
        } else {
            &ledger.remote_out
        });
        if let Some(started) = timer {
            let nanos = started.elapsed().as_nanos() as u64;
            let (latency, class) = if local {
                (&ledger.local_latency, "local")
            } else {
                (&ledger.remote_latency, "remote")
            };
            latency.lock().record(nanos);
            self.note_slow(nanos, class);
        }
        self.tick();
    }

    /// Counts (and samples into the journal) an op over the slow-op
    /// threshold. Off the fast path when the threshold is 0 (one compare).
    fn note_slow(&self, nanos: u64, class: &str) {
        let threshold = self.slow_op_nanos;
        if threshold == 0 || nanos < threshold {
            return;
        }
        let slow_ops = &self.shared.telemetry.ledger(self.index).slow_ops;
        bump(slow_ops);
        if slow_ops.load(Ordering::Relaxed) % SLOW_OP_SAMPLE == 1 {
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

    /// Counts one executed data op and marks each kind of round whose
    /// interval the count crosses as due (a round a plane does not run
    /// returns at once).
    fn tick(&mut self) {
        for k in 0..RoundKind::ALL.len() {
            self.until[k] -= 1;
            if self.until[k] == 0 {
                self.until[k] = self.intervals[k];
                self.due[k] = true;
            }
        }
    }

    /// Runs each round that came due, if the control lock is free; a round
    /// that finds it held (another loop's round, an admin command) is
    /// skipped, and the next crossing of its interval asks again. Called
    /// with no shard lock held, once per pass.
    pub(crate) fn ask_rounds(&mut self) {
        for kind in RoundKind::ALL {
            if std::mem::take(&mut self.due[kind as usize]) {
                if let Some(mut control) = self.shared.control.try_lock() {
                    control.balance(&self.shared, kind);
                }
            }
        }
    }
}

/// A running data plane: the loops, the control thread and the handle.
pub(crate) struct Plane {
    pub(crate) handle: Arc<PlaneHandle>,
    pub(crate) loops: Arc<Vec<LoopHandle>>,
    /// The `cache-control` thread, and the sender whose drop stops it.
    control: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Plane {
    /// Builds the roster and the shards, spawns the control thread and
    /// `config.workers` event loops. If a loop fails to start, the control
    /// thread and the loops already running are stopped and joined first.
    pub(crate) fn start(config: &ServerConfig) -> std::io::Result<Plane> {
        let (workers, idle_timeout) = (config.workers, config.idle_timeout);
        let telemetry = ConnTelemetry::new(workers, config.max_connections as u64);
        let shared = Arc::new(PlaneShared::new(
            config.backend.clone(),
            telemetry,
            idle_timeout,
        ));
        let (stop, stopped) = channel();
        let control = Arc::clone(&shared);
        let control_thread = std::thread::Builder::new()
            .name("cache-control".to_string())
            .spawn(move || crate::control::serve(&control, &stopped))?;
        let mut loops = Vec::with_capacity(workers);
        let spawned = (0..workers).try_for_each(|index| {
            let state = LoopState::new(index, Arc::clone(&shared), config.slow_op_micros);
            LoopHandle::spawn(state, idle_timeout).map(|event_loop| loops.push(event_loop))
        });
        let mut plane = Plane {
            handle: Arc::new(PlaneHandle { shared }),
            loops: Arc::new(loops),
            control: Some((stop, control_thread)),
        };
        if let Err(error) = spawned {
            plane.shutdown();
            return Err(error);
        }
        Ok(plane)
    }

    /// Stops the control thread, then the loops.
    pub(crate) fn shutdown(&mut self) {
        if let Some((stop, thread)) = self.control.take() {
            drop(stop);
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
mod tests {
    use super::*;
    use crate::engine::TenantSpec;
    use crate::protocol::Response;
    use serde_json::Value;

    /// The loop states of a 2-loop x 2-shard plane no thread serves.
    fn two_loops(config: BackendConfig) -> Vec<LoopState> {
        let config = BackendConfig {
            shards: 2,
            ..config
        };
        let telemetry = ConnTelemetry::new(2, 0);
        let shared = Arc::new(PlaneShared::new(config, telemetry, None));
        (0..2)
            .map(|index| LoopState::new(index, Arc::clone(&shared), 0))
            .collect()
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
        let states = two_loops(config);
        let shared = &states[0].shared;
        let mut held = 0;
        for shard in 0..2 {
            let cells = shared.lock(shard);
            assert_eq!(cells.0.len(), 2, "an engine per tenant");
            for cell in &cells.0 {
                let Engine::Managed(cache) = &cell.engine else {
                    panic!("the default mode is managed")
                };
                held += cache.total_bytes();
            }
        }
        assert_eq!(held, 4 << 20, "the live engines hold exactly total_bytes");
    }

    #[test]
    fn a_sweep_locks_each_shard_it_touches_once_and_serves_every_key_after() {
        let mut states = two_loops(BackendConfig::default());
        let shared = Arc::clone(&states[0].shared);
        let keys: Vec<Route> = (0..40)
            .map(|i| route_key(0, format!("k{i}").as_bytes(), 2))
            .collect();
        for &(shard, id) in &keys {
            let item = StoredValue::new(b"k", 0, b"v").expect("a short key");
            assert!(shared.lock(shard).store(0, id, StoreVerb::Set, item));
        }
        // A sweep with a lock still held would trip the depth counter in
        // debug builds.
        for _ in 0..2 {
            states[0].sweep(&keys, |&(shard, id)| Some((shard, 0, id)));
        }
        assert_eq!(states[0].marks, [2, 2], "each shard locked by each sweep");
        for &(shard, id) in &keys {
            assert!(shared.lock(shard).get(0, id, b"k").is_some());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a second shard lock")]
    fn a_second_shard_lock_on_one_thread_is_refused() {
        let states = two_loops(BackendConfig::default());
        let shared = &states[0].shared;
        let _first = shared.lock(0);
        let _second = shared.lock(1);
    }

    /// `stats` reads each loop's ledger from the loop's slot: run on the
    /// test thread, it reports what two loop states noted.
    #[test]
    fn stats_reads_the_loops_ledgers_with_no_loop_running() {
        let mut states = two_loops(BackendConfig::default());
        // Loop 0 runs two timed ops on its home shard and one on loop 1's;
        // loop 1 one on its own.
        for (state, shards) in states.iter_mut().zip([&[0, 0, 1][..], &[1]]) {
            for &shard in shards {
                state.note_op(shard, Some(Instant::now()));
            }
        }
        let shared = &*states[0].shared;
        let op = AdminOp::Stats {
            format: StatsFormat::Json,
        };
        let Response::Blob(json) = shared.control.lock().admin(shared, op) else {
            panic!("JSON stats are a blob");
        };
        let doc: Value = serde_json::from_str(&json).unwrap();
        let at = |value: &Value, path: &[&str]| {
            let found = path.iter().try_fold(value, |value, key| value.get(key));
            found.and_then(Value::as_u64)
        };
        let loops = doc.get("loops").and_then(Value::as_array).unwrap();
        assert_eq!(loops.len(), 2);
        for (ledger, (local, remote)) in loops.iter().zip([(2, 1), (1, 0)]) {
            assert_eq!(at(ledger, &["local_ops"]), Some(local));
            assert_eq!(at(ledger, &["remote_out"]), Some(remote));
            assert_eq!(at(ledger, &["local_latency", "count"]), Some(local));
            assert_eq!(at(ledger, &["remote_latency", "count"]), Some(remote));
        }
        assert_eq!(at(&doc, &["plane", "local_ops"]), Some(3));
        assert_eq!(at(&doc, &["plane", "remote_ops"]), Some(1));
    }

    /// A plane whose loops (two of them) run a rebalancing round every 5
    /// ops and an arbitration round every 7.
    fn two_rounds(mode: BackendMode) -> BackendConfig {
        let mut config = BackendConfig {
            mode,
            tenants: vec![TenantSpec::new("second", 1)],
            ..BackendConfig::default()
        };
        config.rebalance.interval_requests = 10;
        config.tenant_balance.interval_requests = 14;
        config
    }

    /// One op's count, and the rounds the end of its pass runs.
    fn tick(state: &mut LoopState) {
        state.tick();
        state.ask_rounds();
    }

    /// The rounds of each kind that have run.
    fn runs(state: &LoopState) -> [u64; 2] {
        state.shared.control.lock().tallies.map(|tally| tally.runs)
    }

    #[test]
    fn a_round_runs_at_every_multiple_of_its_interval() {
        let mut states = two_loops(two_rounds(BackendMode::Cliffhanger));
        let state = &mut states[0];
        for op in 1..=1_000u64 {
            tick(state);
            let ran = [5, 7].map(|interval| op / interval);
            assert_eq!(runs(state), ran, "after op {op}");
        }
        // A plane with no round to run runs none.
        let mut states = two_loops(two_rounds(BackendMode::Default));
        (0..100).for_each(|_| tick(&mut states[0]));
        assert_eq!(runs(&states[0]), [0, 0]);
    }

    #[test]
    fn a_loop_that_finds_the_control_lock_held_runs_no_round() {
        use RoundKind::{Arbitrate, Rebalance};
        let mut states = two_loops(two_rounds(BackendMode::Cliffhanger));
        let state = &mut states[0];
        (0..4).for_each(|_| tick(state));
        // Op 5 crosses the rebalancing interval while another thread holds
        // the control lock: the round is skipped, not put off.
        let shared = Arc::clone(&state.shared);
        let held = shared.control.lock();
        tick(state);
        drop(held);
        assert_eq!(state.due, [false; 2]);
        (5..7).for_each(|_| tick(state));
        assert_eq!(runs(state), [0, 1], "op 7 arbitrates");
        (7..10).for_each(|_| tick(state));
        assert_eq!(runs(state)[Rebalance as usize], 1, "op 10 rebalances");
        assert_eq!(runs(state)[Arbitrate as usize], 1);
    }
}
