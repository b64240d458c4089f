//! The control thread: the single blocking coordinator behind balancing
//! rounds, hot-key rounds, tenant `flush_all`, `app_create` and the `stats`
//! document. It talks to the event loops only in [`crate::plane`]'s
//! messages, and owns the balancers' decision state outright.

use crate::engine::{even_split, BackendMode};
use crate::hotkey::{plan_round, HotKeyCount, HotShared, PromotedEntry};
use crate::plane::{
    AdminOp, AdminReply, ControlMsg, CtrlReq, LoopMsg, LoopSnapshot, PlaneShared, RosterMaster,
    RoundKind,
};
use crate::protocol::{Response, StatsFormat};
use crate::reactor::ConnTelemetry;
use crate::stats::{
    build_document, render_json, render_prom, render_stats, BalanceDoc, HotKeyEntryDoc, HotKeysDoc,
    PlaneDoc, StatsDocument,
};
use bytes::Bytes;
use cache_core::{Key, TenantDirectory};
use cliffhanger::{ShardRebalancer, ShardSample, ShardTransfer};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use telemetry::{EventKind, Histogram};

/// Hottest tracked keys exposed in the stats document; the tail of a wide
/// tracker window is sampling noise.
const HOT_KEYS_EXPOSED: usize = 32;

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
pub(crate) struct Control {
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
    /// Wall-clock at boot, for anchoring monotonic offsets to real time.
    start_unix_us: u64,
    /// Service times of the admin commands this thread ran (ns).
    admin_latency: Histogram,
    hot_rounds: u64,
    promotions: u64,
    demotions: u64,
}

impl Control {
    /// The control thread's state for a plane that has run no round yet.
    pub(crate) fn new(
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
            start_unix_us: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            admin_latency: Histogram::new(),
            hot_rounds: 0,
            promotions: 0,
            demotions: 0,
            shared,
        }
    }

    pub(crate) fn run(mut self) {
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
                    let response = match op {
                        AdminOp::Stats { format } => {
                            let doc = self.document();
                            match format {
                                StatsFormat::Text => Response::Stats(render_stats(&doc)),
                                StatsFormat::Json => Response::Blob(render_json(&doc)),
                                StatsFormat::Prom => Response::Blob(render_prom(&doc)),
                            }
                        }
                        AdminOp::FlushTenant { tenant } => {
                            self.flush_tenant(tenant);
                            Response::Ok
                        }
                        AdminOp::CreateTenant { name, weight } => {
                            match self.create_tenant(&name, weight) {
                                Ok(()) => Response::Ok,
                                Err(reason) => Response::ClientError(reason),
                            }
                        }
                        AdminOp::AppList => Response::Apps(self.shared.roster.lock().app_list()),
                    };
                    self.admin_latency
                        .record(started.elapsed().as_nanos() as u64);
                    match reply {
                        AdminReply::Conn { origin, token, seq } => {
                            let _ = self.shared.mailboxes[origin].send(LoopMsg::AdminDone {
                                token,
                                seq,
                                response,
                            });
                        }
                        AdminReply::Sync(tx) => {
                            let _ = tx.send(response);
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
                budget: shares[s],
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
    /// via the owning loops (at least a byte a shard, or the app is
    /// refused), then publish the new tenant table. Only bytes actually
    /// released are granted, so the configured total is conserved exactly.
    /// The generation counter moves *after* every loop has built its cells.
    fn create_tenant(&mut self, name: &str, weight: u64) -> Result<(), String> {
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
        // The asks are planned under the roster lock, the carve-outs made
        // with it released (see `balance`), the table written under it again.
        let (tenants, asks) = {
            let roster = shared.roster.lock();
            if roster.directory.index_of(name).is_some() {
                return Err(format!("app {name:?} already exists"));
            }
            let tenants = roster.directory.len();
            let sum_weights: u64 = roster.weights.iter().sum();
            let target_total = (shared.config.total_bytes as u128 * weight as u128
                / (sum_weights + weight) as u128) as u64;
            let mut asks = Vec::new();
            for (s, &target_slice) in even_split(target_total, n).iter().enumerate() {
                let shard_total: u64 = (0..tenants).map(|t| roster.budgets[t][s]).sum();
                for t in 0..tenants {
                    let ask = (target_slice as u128 * roster.budgets[t][s] as u128
                        / shard_total.max(1) as u128) as u64;
                    if ask > 0 {
                        asks.push((s, t, ask));
                    }
                }
            }
            (tenants, asks)
        };
        let mut granted: Vec<(usize, usize, u64)> = asks
            .into_iter()
            .filter(|&(s, t, bytes)| self.shrink_on_owner(s, t, bytes))
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
            let Some(t) = (0..tenants).find(|&t| self.shrink_on_owner(s, t, 1)) else {
                for &(s, t, bytes) in &granted {
                    self.grow_on_owner(s, t, bytes);
                }
                return Err(format!("no memory left on shard {s} to host app {name:?}"));
            };
            granted.push((s, t, 1));
            carved[s] = 1;
        }
        // Every loop acks once the shards it owns have the new cells.
        self.ask_all(|reply| ControlMsg::AddTenant {
            name: name.to_string(),
            budgets: carved.clone(),
            reply,
        });
        let mut roster = shared.roster.lock();
        let before = roster.total_budget();
        for (s, t, bytes) in granted {
            roster.budgets[t][s] -= bytes;
        }
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
        roster.directory.add(name);
        roster.weights.push(weight);
        roster.budgets.push(carved);
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
        Ok(())
    }

    /// Builds the one [`StatsDocument`] every `stats` format renders: asks
    /// the loops for their snapshots and folds them, the roster and this
    /// thread's own counters together.
    fn document(&self) -> StatsDocument {
        let shared = &*self.shared;
        let snaps = self.gather();
        // The roster is copied out; curves and joins are built unlocked.
        let roster = shared.roster.lock().clone();
        let tenants = roster.directory.len();
        // Loops count what they forwarded, control counts what it served;
        // the two only differ transiently (a forward still in flight) or
        // for admin calls arriving through the synchronous handle instead
        // of a connection — report whichever saw more.
        let forwarded: u64 = snaps.iter().flatten().map(|s| s.admin_forwards).sum();
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
        let doc = build_document(shared, &roster, &self.telemetry, &snaps, self.start_unix_us);
        StatsDocument {
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
            plane: PlaneDoc {
                admin_msgs: self.admin_msgs.max(forwarded),
                idle_timeout_ms: self.idle_timeout_ms,
                admin_latency: self.admin_latency.summarize_us(),
                ..doc.plane
            },
            hot_keys,
            ..doc
        }
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
pub(crate) fn promoted_docs(hot: &HotShared, names: &[String]) -> Vec<HotKeyEntryDoc> {
    let promoted = hot.promoted.lock();
    let tallies = promoted.iter();
    hot_key_docs(
        names,
        tallies.map(|(&(tenant, _), entry)| (tenant, &entry.key, entry.count)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BackendMode;
    use crate::plane::tests::{three_rounds, two_loops};

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
