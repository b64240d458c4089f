//! The synchronous view of the data plane, [`PlaneHandle`]: every call
//! runs in the caller's thread, a data call under the key's shard lock, a
//! round or an admin call under the control lock. [`PlaneHandle::new`]
//! builds a full plane with no loops and no threads, which [`SharedCache`]
//! names: its rounds and admin calls run as a server's do.

use crate::engine::{route_key, BackendConfig, StoredValue};
use crate::plane::{AdminOp, PlaneShared, RoundKind, Shard};
use crate::protocol::{AppEntry, Response, StatsFormat, StoreVerb};
use crate::reactor::ConnTelemetry;
use bytes::Bytes;
use cache_core::Key;
use std::sync::mpsc::channel;
use std::sync::Arc;
use telemetry::EventKind;

/// The public handle to a data plane: the synchronous view `benchmark/`,
/// the load generator's self-hosted runs and tests use
/// ([`crate::server::CacheServer::cache`] returns a running server's). Every
/// call runs in the caller's thread and waits only on locks: a data call
/// locks the key's shard, a round or an admin call the control lock.
pub struct PlaneHandle {
    pub(crate) shared: Arc<PlaneShared>,
}

/// A [`PlaneHandle`] built by [`PlaneHandle::new`]: the plane's routing,
/// engine and control code run in the caller's thread, with no reactor and
/// no control thread, so budgets move only when the caller runs a round.
/// The paper's Tables 6–7 overhead measurement (`bench::overhead`) and the
/// benchmark's `engine.*` layer probes time it under this name.
pub type SharedCache = PlaneHandle;

impl PlaneHandle {
    /// Builds the tenants' engines on every configured (or detected) shard
    /// of a one-loop plane, and starts no thread.
    pub fn new(config: BackendConfig) -> PlaneHandle {
        // No thread takes a connection's admin command: nothing sends one.
        let (ctrl, _) = channel();
        let telemetry = ConnTelemetry::new(1, 0);
        let shared = PlaneShared::new(config, telemetry, Vec::new(), ctrl, None);
        PlaneHandle {
            shared: Arc::new(shared),
        }
    }

    fn admin(&self, op: AdminOp) -> Response {
        self.shared.control.lock().admin(&self.shared, op)
    }

    /// Routes `key` of `tenant` and runs `op` on its shard under the
    /// shard's lock: what a connection runs for a key, less the loop's
    /// ledger.
    fn locked<R>(&self, tenant: usize, key: &[u8], op: impl FnOnce(&mut Shard, Key) -> R) -> R {
        let (shard, id) = route_key(tenant, key, self.shared.shards);
        op(&mut self.shared.lock(shard), id)
    }

    /// A store of `verb`; the item is built before the shard is locked.
    fn store(&self, verb: StoreVerb, tenant: usize, key: &[u8], flags: u32, data: &[u8]) -> bool {
        StoredValue::new(key, flags, data).is_some_and(|item| {
            self.locked(tenant, key, |cells, id| cells.store(tenant, id, verb, item))
        })
    }

    /// Looks up a key for one tenant, returning its flags and value on an
    /// exact match.
    pub fn get_for(&self, tenant: usize, key: &[u8]) -> Option<(u32, Bytes)> {
        self.locked(tenant, key, |cells, id| {
            let found = cells.get(tenant, id, key);
            found.map(|item| (item.flags(), Bytes::copy_from_slice(item.data())))
        })
    }

    /// Stores a key for one tenant unconditionally. Returns `false` only
    /// if the item could not be admitted.
    pub fn set_for(&self, tenant: usize, key: &[u8], flags: u32, data: Bytes) -> bool {
        self.store(StoreVerb::Set, tenant, key, flags, &data)
    }

    /// Deletes a key for one tenant; returns whether it was present.
    pub fn delete_for(&self, tenant: usize, key: &[u8]) -> bool {
        self.locked(tenant, key, |cells, id| cells.delete(tenant, id, key))
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
        self.store(StoreVerb::Add, 0, key, flags, &data)
    }

    /// `replace`: stores a key for the default tenant only if it is present.
    pub fn replace(&self, key: &[u8], flags: u32, data: Bytes) -> bool {
        self.store(StoreVerb::Replace, 0, key, flags, &data)
    }

    /// Deletes a key for the default tenant.
    pub fn delete(&self, key: &[u8]) -> bool {
        self.delete_for(0, key)
    }

    /// The full `stats` report.
    pub fn stats(&self) -> Vec<(String, String)> {
        let format = StatsFormat::Text;
        match self.admin(AdminOp::Stats { format }) {
            Response::Stats(lines) => lines,
            _ => unreachable!("text stats are lines"),
        }
    }

    /// The versioned `cliffhanger-stats/v1` JSON document.
    pub fn stats_json(&self) -> String {
        let format = StatsFormat::Json;
        match self.admin(AdminOp::Stats { format }) {
            Response::Blob(text) => text,
            _ => unreachable!("JSON stats are a blob"),
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
        self.admin(AdminOp::FlushTenant { tenant });
    }

    /// Hosts a new application live; returns its tenant index.
    pub fn create_tenant(&self, name: &str, weight: u64) -> Result<usize, String> {
        match self.admin(AdminOp::CreateTenant {
            name: name.to_string(),
            weight,
        }) {
            Response::ClientError(reason) => Err(reason),
            _ => Ok(self.tenant_index(name).expect("a created app is hosted")),
        }
    }

    /// The hosted applications as `(name, weight, live budget bytes)`.
    pub fn app_list(&self) -> Vec<(String, u64, u64)> {
        let apps = self.shared.roster.lock().app_list();
        let row = |app: AppEntry| (app.name, app.weight, app.budget_bytes);
        apps.into_iter().map(row).collect()
    }

    /// Runs one cross-shard rebalancing round per tenant, synchronously.
    pub fn rebalance_now(&self) {
        let shared = &*self.shared;
        shared.control.lock().balance(shared, RoundKind::Rebalance);
    }

    /// Runs one cross-tenant arbitration round, synchronously.
    pub fn arbitrate_now(&self) {
        let shared = &*self.shared;
        shared.control.lock().balance(shared, RoundKind::Arbitrate);
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

#[cfg(test)]
impl crate::plane::LoopState {
    /// The state of loop 0 of a 1-loop x 1-shard plane no thread serves:
    /// every shard is its home.
    pub(crate) fn solo() -> crate::plane::LoopState {
        let config = BackendConfig {
            shards: 1,
            ..BackendConfig::default()
        };
        crate::plane::LoopState::new(0, PlaneHandle::new(config).shared, 0)
    }
}
