//! The control plane's decision state, [`Control`]: the balancers, the
//! round tallies, the admin counters and the rate history, behind the first
//! lock of the plane's lock order ([`PlaneShared::control`]). Whoever needs
//! an operation runs it in its own thread under that lock: a loop runs the
//! rounds that came due at the end of its pass (if the lock is free) and a
//! connection's admin command in its place in the connection's stream, a
//! [`crate::handle::PlaneHandle`] caller runs rounds and admin calls, and
//! the `cache-control` thread ([`serve`]) only samples the rate history
//! once a second. Each reads and changes the shards under their locks, one
//! at a time, and reads the event loops' ledgers from their shared slots:
//! nothing here waits on a loop or on a reply.
//!
//! The engines hold the budgets ([`crate::engine::Engine::budget`]), and
//! the control lock's holder is the only thread that moves one, so a reader
//! that holds the lock (a `&Control`) reads a whole transfer or none of it.

use crate::engine::{even_split, BackendConfig, BackendMode};
use crate::plane::{build_engine, AdminOp, Cell, PlaneShared, RoundKind};
use crate::protocol::{AppEntry, Response, StatsFormat};
use crate::stats::{
    build_document, render_json, render_prom, render_stats, BalanceDoc, EngineStat, PlaneDoc,
    StatsDocument,
};
use cache_core::TenantDirectory;
use cliffhanger::{ShardRebalancer, ShardSample, ShardTransfer};
use profiler::{MrcSnapshot, OnlineMrc};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime};
use telemetry::{EventKind, Histogram, SeriesSample, TimeSeries};

/// Width of one stats-history bucket: the shards' cumulative per-tenant
/// counters are sampled into 1-second intervals and differenced into rates
/// at snapshot.
const HISTORY_INTERVAL_US: u64 = 1_000_000;

/// Retained history buckets: about a minute of trajectory per scrape.
const HISTORY_WINDOWS: usize = 64;

/// What the rounds of one balancing level have done so far.
#[derive(Clone, Copy, Default)]
pub(crate) struct RoundTally {
    pub(crate) runs: u64,
    transfers: u64,
    bytes: u64,
}

/// One step of a budget transfer: `bytes` from the donor engine to the
/// recipient engine, each named `(shard, tenant)`.
type Move = ((usize, usize), (usize, usize), u64);

/// The control plane's decision state. Its holder is the only thread that
/// changes budgets, so a round, a flush and a carve-out each see the
/// budgets the last one left.
pub(crate) struct Control {
    /// One balancer per tenant, the tenant's shards in its seats.
    balancers: Vec<ShardRebalancer>,
    /// The same balancer with tenants in the seats.
    arbiter: ShardRebalancer,
    /// Per [`RoundKind`]: what its rounds have done.
    pub(crate) tallies: [RoundTally; 2],
    admin_msgs: u64,
    idle_timeout_ms: u64,
    /// Wall-clock at boot, for anchoring monotonic offsets to real time.
    start_unix_us: u64,
    /// Service times of the admin commands run (ns).
    admin_latency: Histogram,
    /// Per-tenant counter history, sampled once an interval and at every
    /// `stats`.
    history: TimeSeries,
}

/// The `cache-control` thread: samples the history at its start and at
/// each interval's boundary after, until the sender of `stop` is dropped.
pub(crate) fn serve(shared: &PlaneShared, stop: &Receiver<()>) {
    loop {
        shared.control.lock().observe(shared);
        let now_us = shared.started.elapsed().as_micros() as u64;
        let wait = HISTORY_INTERVAL_US - now_us % HISTORY_INTERVAL_US;
        let stopped = stop.recv_timeout(Duration::from_micros(wait));
        if stopped != Err(RecvTimeoutError::Timeout) {
            break;
        }
    }
}

impl Control {
    /// The decision state of a plane of `shards` shards hosting `tenants`
    /// tenants that has run no round yet.
    pub(crate) fn new(
        config: &BackendConfig,
        shards: usize,
        tenants: usize,
        idle_timeout: Option<Duration>,
    ) -> Control {
        Control {
            balancers: (0..tenants)
                .map(|_| ShardRebalancer::new(shards, config.rebalance.clone()))
                .collect(),
            arbiter: ShardRebalancer::new(tenants, config.tenant_balance.clone()),
            tallies: Default::default(),
            admin_msgs: 0,
            idle_timeout_ms: idle_timeout.map(|t| t.as_millis() as u64).unwrap_or(0),
            start_unix_us: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            admin_latency: Histogram::new(),
            history: TimeSeries::new(HISTORY_INTERVAL_US, HISTORY_WINDOWS),
        }
    }

    /// Runs one admin command, counted and timed.
    pub(crate) fn admin(&mut self, shared: &PlaneShared, op: AdminOp) -> Response {
        self.admin_msgs += 1;
        let started = Instant::now();
        let response = match op {
            AdminOp::Stats { format } => {
                let doc = self.document(shared);
                match format {
                    StatsFormat::Text => Response::Stats(render_stats(&doc)),
                    StatsFormat::Json => Response::Blob(render_json(&doc)),
                    StatsFormat::Prom => Response::Blob(render_prom(&doc)),
                }
            }
            AdminOp::FlushTenant { tenant } => {
                self.flush_tenant(shared, tenant);
                Response::Ok
            }
            AdminOp::CreateTenant { name, weight } => {
                match self.create_tenant(shared, &name, weight) {
                    Ok(()) => Response::Ok,
                    Err(reason) => Response::ClientError(reason),
                }
            }
            AdminOp::AppList => Response::Apps(self.app_list(shared)),
        };
        self.admin_latency
            .record(started.elapsed().as_nanos() as u64);
        response
    }

    /// Samples the shards' cumulative per-tenant counters into the history
    /// ring (a bucket's latest sample overwrites it in place): one lock of
    /// each shard, a few additions per tenant under it.
    fn observe(&mut self, shared: &PlaneShared) {
        let mut columns: Vec<SeriesSample> = Vec::new();
        for shard in 0..shared.shards {
            let cells = shared.lock(shard);
            columns.resize(columns.len().max(cells.0.len()), SeriesSample::default());
            for (column, cell) in columns.iter_mut().zip(&cells.0) {
                let wire = cell.wire_counts();
                column.gets += wire.gets;
                column.hits += wire.hits;
                column.evictions += cell.engine.stats().evictions;
            }
        }
        let now_us = shared.started.elapsed().as_micros() as u64;
        self.history.record(now_us, &columns);
    }

    /// Every engine's statistics, indexed `[shard][tenant]`, and each
    /// tenant's MRC estimators merged: the counters and each estimator's
    /// in-sample histogram are copied under each shard's lock, and scaled
    /// to the population after it is released.
    fn read_cells(
        shared: &PlaneShared,
        tenants: usize,
    ) -> (Vec<Vec<EngineStat>>, Vec<MrcSnapshot>) {
        let mut mrc = vec![MrcSnapshot::default(); tenants];
        let engines = (0..shared.shards)
            .map(|shard| {
                let (stats, estimators): (Vec<EngineStat>, Vec<_>) = {
                    let cells = shared.lock(shard);
                    let copy = |cell: &Cell| {
                        let engine = &cell.engine;
                        let stat = EngineStat {
                            wire: cell.wire_counts(),
                            core: engine.stats(),
                            budget: engine.budget(),
                            used: engine.used_bytes(),
                            items: engine.len(),
                            footprint: engine.footprint(),
                        };
                        (stat, cell.mrc.as_ref().map(OnlineMrc::in_sample))
                    };
                    cells.0.iter().take(tenants).map(copy).unzip()
                };
                for (merged, copy) in mrc.iter_mut().zip(estimators) {
                    if let Some(copy) = copy {
                        merged.merge(&copy.scale());
                    }
                }
                stats
            })
            .collect();
        (engines, mrc)
    }

    /// The shadow hits and the budget of every engine, indexed
    /// `[shard][tenant]`: all a balancing round reads, and where every
    /// budget is read from. The lock held (`&self`) keeps any budget from
    /// moving while the shards are read one at a time.
    fn grid(&self, shared: &PlaneShared) -> Vec<Vec<ShardSample>> {
        (0..shared.shards)
            .map(|shard| {
                let cells = shared.lock(shard);
                let sample = |cell: &Cell| ShardSample {
                    shadow_hits: cell.engine.stats().shadow_hits,
                    budget_bytes: cell.engine.budget(),
                };
                cells.0.iter().map(sample).collect()
            })
            .collect()
    }

    /// Each tenant's live budget, summed over the shards.
    pub(crate) fn tenant_budgets(&self, shared: &PlaneShared) -> Vec<u64> {
        let grid = self.grid(shared);
        let tenant = |t: usize| grid.iter().map(|cells| cells[t].budget_bytes).sum();
        (0..grid[0].len()).map(tenant).collect()
    }

    /// Each shard's live budget, summed over the tenants.
    pub(crate) fn shard_budgets(&self, shared: &PlaneShared) -> Vec<u64> {
        let shard = |cells: Vec<ShardSample>| cells.iter().map(|cell| cell.budget_bytes).sum();
        self.grid(shared).into_iter().map(shard).collect()
    }

    /// The hosted applications with their weights and live budgets.
    pub(crate) fn app_list(&self, shared: &PlaneShared) -> Vec<AppEntry> {
        let budgets = self.tenant_budgets(shared);
        let roster = shared.roster.lock();
        let rows = roster.directory.names().iter().zip(&roster.weights);
        rows.zip(budgets)
            .map(|((name, &weight), budget_bytes)| AppEntry {
                name: name.clone(),
                weight,
                budget_bytes,
            })
            .collect()
    }

    /// Every live budget summed in debug builds (`None` in release): what
    /// the conservation asserts compare.
    fn debug_total(&self, shared: &PlaneShared) -> Option<u64> {
        cfg!(debug_assertions).then(|| self.shard_budgets(shared).iter().sum())
    }

    /// Shrinks one engine under its shard's lock. `false` when the donor
    /// engine is pinned at its floors — the transfer is simply skipped and
    /// re-decided from real budgets next round.
    fn shrink(shared: &PlaneShared, shard: usize, tenant: usize, bytes: u64) -> bool {
        let mut cells = shared.lock(shard);
        let cell = cells.0.get_mut(tenant);
        cell.is_some_and(|cell| cell.engine.shrink_total(bytes))
    }

    fn grow(shared: &PlaneShared, shard: usize, tenant: usize, bytes: u64) {
        if let Some(cell) = shared.lock(shard).0.get_mut(tenant) {
            cell.engine.grow_total(bytes);
        }
    }

    /// One balancing round: a cross-shard round per tenant
    /// ([`RoundKind::Rebalance`]) or the one cross-tenant round
    /// ([`RoundKind::Arbitrate`]). Read the shadow-hit signal off the
    /// shards, let the balancer whose seats are at stake decide, then apply
    /// each transfer it proposes as a list of moves: one for a shard
    /// transfer; for a tenant transfer one shard-local slice per shard, so
    /// the summed budget is conserved even if some slices fail on their
    /// floors.
    pub(crate) fn balance(&mut self, shared: &PlaneShared, kind: RoundKind) {
        let tenants = shared.roster.lock().directory.len();
        if !shared.round_active(kind, tenants) {
            return;
        }
        let grid = self.grid(shared);
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
                shadow_hits: seat.iter().map(|&(s, t)| grid[s][t].shadow_hits).sum(),
                budget_bytes: seat.iter().map(|&(s, t)| grid[s][t].budget_bytes).sum(),
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
                self.apply(shared, kind, &moves, &tr);
            }
        }
        self.tallies[kind as usize].runs += 1;
    }

    /// Applies the moves of transfer `tr`, each shrink-first under the
    /// donor's shard lock, then grow under the recipient's: the donor
    /// engine evicts down at once and the recipient grows by exactly what
    /// was released, so the total can momentarily dip but never exceed the
    /// configured bytes. A move whose donor is pinned at its floors is
    /// skipped. Only a transfer that moved something is counted and
    /// journalled, with the gradients its proposal carried.
    fn apply(&mut self, shared: &PlaneShared, kind: RoundKind, moves: &[Move], tr: &ShardTransfer) {
        let before = self.debug_total(shared);
        let mut moved = 0u64;
        for &((from_shard, from_tenant), (to_shard, to_tenant), bytes) in moves {
            if bytes > 0 && Control::shrink(shared, from_shard, from_tenant, bytes) {
                Control::grow(shared, to_shard, to_tenant, bytes);
                moved += bytes;
            }
        }
        debug_assert_eq!(
            self.debug_total(shared),
            before,
            "a transfer conserves budget"
        );
        if moved == 0 {
            return;
        }
        let ((_, from_tenant), (_, to_tenant), _) = moves[0];
        let roster = shared.roster.lock();
        let name = |tenant: usize| roster.directory.name(tenant).to_string();
        let (from_gradient, to_gradient) = (tr.from_gradient, tr.to_gradient);
        shared.journal.record(match kind {
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
        let tally = &mut self.tallies[kind as usize];
        tally.transfers += 1;
        tally.bytes += moved;
    }

    /// Tenant `flush_all`: rebuild the tenant's engine on every shard at an
    /// even split of its *current* (arbitrated) budget. Rebuilds run
    /// donors-first (largest budget surplus first), one shard at a time, so
    /// the tenant's summed live targets never overshoot its total while
    /// traffic keeps filling the other shards. Each new engine is built
    /// before its shard is locked and the old one dropped after.
    fn flush_tenant(&mut self, shared: &PlaneShared, tenant: usize) {
        let Some(name) = shared.roster.lock().directory.names().get(tenant).cloned() else {
            return;
        };
        let before = self.debug_total(shared);
        let grid = self.grid(shared);
        let budget = |s: usize| grid[s][tenant].budget_bytes;
        let shares = even_split((0..shared.shards).map(budget).sum(), shared.shards);
        let mut order: Vec<usize> = (0..shared.shards).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(budget(s).saturating_sub(shares[s])));
        for s in order {
            let engine = build_engine(&shared.config, &shared.journal, s, &name, shares[s]);
            let old = {
                let mut cells = shared.lock(s);
                let cell = cells.0.get_mut(tenant);
                cell.map(|cell| std::mem::replace(&mut cell.engine, engine))
            };
            drop(old);
        }
        debug_assert_eq!(self.debug_total(shared), before, "a flush conserves budget");
        self.balancers[tenant].reset();
        shared
            .journal
            .record(EventKind::TenantFlushed { tenant: name });
    }

    /// Hosts a new application live (`app_create`): validate, carve a
    /// weight-proportional budget out of every existing tenant's engines
    /// (at least a byte a shard, or the app is refused), then publish the
    /// new tenant table. Only bytes actually released are granted, so the
    /// configured total is conserved exactly. The name enters the roster,
    /// and the tenant count moves, *after* every shard holds the new cell.
    fn create_tenant(
        &mut self,
        shared: &PlaneShared,
        name: &str,
        weight: u64,
    ) -> Result<(), String> {
        if !TenantDirectory::valid_name(name) {
            return Err(format!(
                "invalid app name {name:?}: need 1-64 ASCII graphic bytes, no ':'"
            ));
        }
        if weight == 0 {
            return Err("app weight must be at least 1".to_string());
        }
        let n = shared.shards;
        let sum_weights: u64 = {
            let roster = shared.roster.lock();
            if roster.directory.index_of(name).is_some() {
                return Err(format!("app {name:?} already exists"));
            }
            roster.weights.iter().sum()
        };
        let before = self.debug_total(shared);
        let grid = self.grid(shared);
        let tenants = grid[0].len();
        let target_total = (shared.config.total_bytes as u128 * weight as u128
            / (sum_weights + weight) as u128) as u64;
        let mut asks = Vec::new();
        for (s, &target_slice) in even_split(target_total, n).iter().enumerate() {
            let shard_total: u64 = grid[s].iter().map(|cell| cell.budget_bytes).sum();
            for (t, cell) in grid[s].iter().enumerate() {
                let ask = (target_slice as u128 * cell.budget_bytes as u128
                    / shard_total.max(1) as u128) as u64;
                if ask > 0 {
                    asks.push((s, t, ask));
                }
            }
        }
        let mut granted: Vec<(usize, usize, u64)> = asks
            .into_iter()
            .filter(|&(s, t, bytes)| Control::shrink(shared, s, t, bytes))
            .collect();
        let mut carved = vec![0u64; n];
        for &(s, _, bytes) in &granted {
            carved[s] += bytes;
        }
        // A managed engine cannot be built on nothing: where no ask was
        // granted, the new cell takes a byte of the first engine that can
        // spare one, and where none can the app is refused and every grant
        // given back. Plain engines neither give bytes up nor need them.
        let managed = shared.config.mode != BackendMode::Default;
        let empty: Vec<usize> = (0..n).filter(|&s| managed && carved[s] == 0).collect();
        for s in empty {
            let Some(t) = (0..tenants).find(|&t| Control::shrink(shared, s, t, 1)) else {
                for &(s, t, bytes) in &granted {
                    Control::grow(shared, s, t, bytes);
                }
                return Err(format!("no memory left on shard {s} to host app {name:?}"));
            };
            granted.push((s, t, 1));
            carved[s] = 1;
        }
        // Each cell is built before its shard is locked.
        for (s, &budget) in carved.iter().enumerate() {
            let cell = Cell::new(&shared.config, n, &shared.journal, s, name, budget);
            shared.lock(s).0.push(cell);
        }
        debug_assert_eq!(
            self.debug_total(shared),
            before,
            "a carve-out conserves budget"
        );
        for (s, &bytes) in carved.iter().enumerate() {
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
        let mut roster = shared.roster.lock();
        roster.directory.add(name);
        roster.weights.push(weight);
        self.balancers
            .push(ShardRebalancer::new(n, shared.config.rebalance.clone()));
        self.arbiter =
            ShardRebalancer::new(roster.directory.len(), shared.config.tenant_balance.clone());
        Ok(())
    }

    /// Builds the one [`StatsDocument`] every `stats` format renders: reads
    /// the shards and the loops' ledgers, and folds them, the tenants'
    /// names, the history and this state's own counters together.
    fn document(&mut self, shared: &PlaneShared) -> StatsDocument {
        self.observe(shared);
        // The names are copied out; curves and joins are built unlocked.
        let names = shared.roster.lock().directory.names().to_vec();
        let tenants = names.len();
        let (engines, mrc) = Control::read_cells(shared, tenants);
        let doc = build_document(
            shared,
            &names,
            (&engines, &mrc),
            &self.history,
            self.start_unix_us,
        );
        let [rebalanced, arbitrated] = self.tallies;
        StatsDocument {
            balance: BalanceDoc {
                rebalance_enabled: shared.round_active(RoundKind::Rebalance, tenants),
                rebalance_runs: rebalanced.runs,
                rebalance_transfers: rebalanced.transfers,
                rebalance_bytes_moved: rebalanced.bytes,
                arbiter_enabled: shared.round_active(RoundKind::Arbitrate, tenants),
                arbiter_runs: arbitrated.runs,
                arbiter_transfers: arbitrated.transfers,
                arbiter_bytes_moved: arbitrated.bytes,
            },
            plane: PlaneDoc {
                admin_msgs: self.admin_msgs,
                idle_timeout_ms: self.idle_timeout_ms,
                admin_latency: self.admin_latency.summarize_us(),
                ..doc.plane
            },
            ..doc
        }
    }
}
