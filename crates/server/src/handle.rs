//! The synchronous views of the data plane: [`PlaneHandle`], one message
//! round trip per call to a running plane's loops or control thread, and
//! [`SharedCache`], the plane's routing and engine code run in the caller's
//! thread.

use crate::control::promoted_docs;
use crate::engine::{route_key, BackendConfig, StoredValue};
use crate::plane::{
    AdminOp, AdminReply, CtrlReq, LoopMsg, LoopState, Op, OpBatch, OpState, PlaneShared, RoundKind,
};
use crate::protocol::{AppEntry, Response, StatsFormat, StoreVerb};
use bytes::Bytes;
use cache_core::Key;
use parking_lot::Mutex;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;
use telemetry::EventKind;

/// The public handle to a running data plane: the synchronous view
/// `benchmark/`, the load generator's self-hosted runs and tests use
/// ([`crate::server::CacheServer::cache`] returns it). Every method is a
/// message round-trip to the owning loop or the control thread; after
/// shutdown they degrade to misses/defaults instead of panicking.
pub struct PlaneHandle {
    pub(crate) shared: Arc<PlaneShared>,
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

    fn admin(&self, op: AdminOp) -> Option<Response> {
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
            Some(Response::Stats(lines)) => lines,
            _ => Vec::new(),
        }
    }

    /// The versioned `cliffhanger-stats/v1` JSON document (empty after
    /// shutdown).
    pub fn stats_json(&self) -> String {
        let format = StatsFormat::Json;
        match self.admin(AdminOp::Stats { format }) {
            Some(Response::Blob(text)) => text,
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
            Some(Response::Ok) => Ok(self.tenant_index(name).expect("a created app is hosted")),
            Some(Response::ClientError(reason)) => Err(reason),
            _ => Err("server is shutting down".to_string()),
        }
    }

    /// The hosted applications as `(name, weight, live budget bytes)`.
    pub fn app_list(&self) -> Vec<(String, u64, u64)> {
        let apps = self.shared.roster.lock().app_list();
        let row = |app: AppEntry| (app.name, app.weight, app.budget_bytes);
        apps.into_iter().map(row).collect()
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
        let shared = Arc::new(PlaneShared::new(config, 1, Vec::new(), ctrl));
        SharedCache {
            state: Mutex::new(LoopState::new(0, shared, 0)),
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
