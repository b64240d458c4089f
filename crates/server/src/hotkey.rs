//! Hot-key detection and per-loop replication.
//!
//! Under the shared-nothing plane every key is owned by exactly one event
//! loop, so a single viral key pins one core at 100% while its siblings
//! idle, and every GET from a non-owning loop pays a mailbox round-trip.
//! This module turns that worst case into embarrassingly parallel reads:
//!
//! 1. **Detection** — each loop runs a sampled sliding-window
//!    [`HotKeyTracker`] (a pelikan-`hotkey`-style counter table over a key
//!    sample, zero shared state). The control thread merges the per-loop
//!    tables at snapshot, exactly like the service-time telemetry.
//! 2. **Mitigation** — the control thread promotes the global top-k into a
//!    shared promoted set (hysteretic promote/demote thresholds, published
//!    with the same generation protocol as the tenant table). Non-owning
//!    loops serve promoted GETs from a local read-through replica cache;
//!    a miss rides the normal forward, and the owner answers with the
//!    value *and its version*, from which the replica fills.
//! 3. **Consistency** — correctness never depends on the promoted set
//!    being fresh. A fixed table of atomic version slots ([`VersionTable`])
//!    is bumped by the owning loop on *every* SET/DELETE before the write
//!    is acknowledged; a replica entry serves only while its captured
//!    version still equals the live slot. A write therefore invalidates
//!    every replica of the key (plus, harmlessly, any key aliasing the same
//!    slot) no later than the moment its ack is observable, so a GET issued
//!    after an acknowledged write can never see the overwritten value.
//!    No message is sent: the next read of a stale entry drops it.
//!
//! The whole subsystem is feature-gated: with [`HotKeyConfig::enabled`]
//! off (the default), the routing fast path pays a single `Option`
//! check and no memory.

use bytes::Bytes;
use cache_core::Key;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of version slots. Power of two; collisions only cause spurious
/// revalidation (a replica entry invalidated by an aliasing key's write),
/// never staleness, so a modest table is plenty for a top-k hot set.
const VERSION_SLOTS: usize = 2048;

/// Hot-key detection and mitigation configuration.
#[derive(Clone, Debug)]
pub struct HotKeyConfig {
    /// Master switch. Off (the default) reproduces the plain shared-nothing
    /// plane: no tracker, no version bumps, no replica cache.
    pub enabled: bool,
    /// Sampling denominator: one in `sample` GETs enters the tracker
    /// window (1 tracks everything).
    pub sample: u64,
    /// Sliding-window length in *sampled* entries; a key's count is its
    /// number of occurrences among the last `window` samples.
    pub window: usize,
    /// A key is promoted when its merged windowed count reaches this.
    pub promote_threshold: u64,
    /// A promoted key is demoted when its merged count falls below this.
    /// Keep it well under `promote_threshold` — the gap is the hysteresis
    /// that stops a key on the boundary from flapping.
    pub demote_threshold: u64,
    /// Maximum number of concurrently promoted keys (global top-k).
    pub max_promoted: usize,
    /// Per-loop replica cache budget in bytes (keys + values). Values that
    /// do not fit are simply not replicated; under cap pressure the
    /// coldest replica (oldest last hit) is evicted first, so a marginal
    /// promoted key can never displace the hottest key's replica.
    pub replica_bytes: usize,
    /// Data ops between control-thread promotion rounds (divided across
    /// the loops like the balancer intervals).
    pub interval_requests: u64,
}

impl Default for HotKeyConfig {
    fn default() -> Self {
        HotKeyConfig {
            enabled: false,
            sample: 8,
            window: 4096,
            promote_threshold: 32,
            demote_threshold: 8,
            max_promoted: 8,
            replica_bytes: 1 << 20,
            interval_requests: 1 << 16,
        }
    }
}

impl HotKeyConfig {
    /// An aggressive profile for tests and smoke runs: sample everything,
    /// promote fast, round often.
    pub fn aggressive() -> Self {
        HotKeyConfig {
            enabled: true,
            sample: 1,
            window: 4096,
            promote_threshold: 16,
            demote_threshold: 4,
            max_promoted: 8,
            replica_bytes: 1 << 20,
            interval_requests: 2048,
        }
    }
}

/// The shared fixed-size table of per-key version counters. Writers are
/// owning loops only (each key has exactly one owner, so each slot's bumps
/// are totally ordered by construction plus the atomic); readers are every
/// loop's replica path.
pub(crate) struct VersionTable {
    slots: Vec<AtomicU64>,
}

impl VersionTable {
    pub(crate) fn new() -> VersionTable {
        VersionTable {
            slots: (0..VERSION_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn index(tenant: usize, id: Key) -> usize {
        // Mix the tenant in so the same key bytes under two tenants do not
        // share fate more than any other alias pair.
        let mixed = id.0 ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed as usize) & (VERSION_SLOTS - 1)
    }

    /// The live version of `(tenant, id)`'s slot.
    pub(crate) fn load(&self, tenant: usize, id: Key) -> u64 {
        self.slots[Self::index(tenant, id)].load(Ordering::Acquire)
    }

    /// Bumps `(tenant, id)`'s slot. Called by the owning loop on every
    /// mutation of the key *before* the ack is enqueued.
    pub(crate) fn bump(&self, tenant: usize, id: Key) {
        self.slots[Self::index(tenant, id)].fetch_add(1, Ordering::AcqRel);
    }

    /// Bumps every slot. Called by the control thread when a bulk
    /// mutation (tenant `flush_all`) drops keys it cannot enumerate —
    /// replica entries for other tenants only pay one spurious
    /// revalidation, never a wrong answer.
    pub(crate) fn bump_all(&self) {
        for slot in &self.slots {
            slot.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// One currently promoted key, as the control thread's master set holds it.
#[derive(Clone)]
pub(crate) struct PromotedEntry {
    pub(crate) key: Bytes,
    /// The merged windowed count at the last round, for stats.
    pub(crate) count: u64,
}

/// One sampled hot-key tally a loop reports at snapshot.
#[derive(Clone)]
pub(crate) struct HotKeyCount {
    pub(crate) tenant: usize,
    pub(crate) id: Key,
    pub(crate) key: Bytes,
    pub(crate) count: u64,
}

/// The per-loop sampled sliding-window tracker: a counter table over the
/// last `window` sampled GETs. Owned by one loop thread, zero shared state.
pub(crate) struct HotKeyTracker {
    sample: u64,
    window: usize,
    seen: u64,
    ring: VecDeque<(usize, Key)>,
    counts: HashMap<(usize, Key), (u64, Bytes)>,
}

impl HotKeyTracker {
    pub(crate) fn new(config: &HotKeyConfig) -> HotKeyTracker {
        HotKeyTracker {
            sample: config.sample.max(1),
            window: config.window.max(1),
            seen: 0,
            ring: VecDeque::with_capacity(config.window.max(1)),
            counts: HashMap::new(),
        }
    }

    /// Offers one GET to the sampler; one in `sample` enters the window.
    pub(crate) fn record(&mut self, tenant: usize, id: Key, key: &[u8]) {
        self.seen += 1;
        if self.seen % self.sample != 0 {
            return;
        }
        if self.ring.len() == self.window {
            if let Some(old) = self.ring.pop_front() {
                if let Some(slot) = self.counts.get_mut(&old) {
                    slot.0 -= 1;
                    if slot.0 == 0 {
                        self.counts.remove(&old);
                    }
                }
            }
        }
        self.ring.push_back((tenant, id));
        self.counts
            .entry((tenant, id))
            .and_modify(|slot| slot.0 += 1)
            .or_insert_with(|| (1, Bytes::copy_from_slice(key)));
    }

    /// The current windowed tallies, for the snapshot merge.
    pub(crate) fn snapshot(&self) -> Vec<HotKeyCount> {
        self.counts
            .iter()
            .map(|(&(tenant, id), (count, key))| HotKeyCount {
                tenant,
                id,
                key: key.clone(),
                count: *count,
            })
            .collect()
    }
}

/// One promotion-round decision: which keys enter the promoted set and
/// which leave it.
pub(crate) struct RoundPlan {
    pub(crate) promote: Vec<((usize, Key), Bytes, u64)>,
    pub(crate) demote: Vec<(usize, Key)>,
    /// Fresh per-key counts for entries that stay promoted.
    pub(crate) refreshed: Vec<((usize, Key), u64)>,
}

/// The pure promote/demote decision over the merged counts — hysteretic
/// (promote at `promote_threshold`, demote below `demote_threshold`) and
/// capped at `max_promoted` by evicting the coldest entries first.
pub(crate) fn plan_round(
    merged: &HashMap<(usize, Key), (u64, Bytes)>,
    promoted: &HashMap<(usize, Key), PromotedEntry>,
    config: &HotKeyConfig,
) -> RoundPlan {
    let mut plan = RoundPlan {
        promote: Vec::new(),
        demote: Vec::new(),
        refreshed: Vec::new(),
    };
    // Existing entries: demote below the low-water mark, refresh the rest.
    let mut survivors: Vec<((usize, Key), u64)> = Vec::new();
    for (&slot, _) in promoted.iter() {
        let count = merged.get(&slot).map(|(c, _)| *c).unwrap_or(0);
        if count < config.demote_threshold {
            plan.demote.push(slot);
        } else {
            survivors.push((slot, count));
        }
    }
    // Candidates: above the high-water mark and not already promoted.
    let mut candidates: Vec<((usize, Key), u64, Bytes)> = merged
        .iter()
        .filter(|(slot, (count, _))| {
            *count >= config.promote_threshold && !promoted.contains_key(slot)
        })
        .map(|(&slot, (count, key))| (slot, *count, key.clone()))
        .collect();
    candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| (a.0).1 .0.cmp(&(b.0).1 .0)));
    // Enforce the top-k cap: candidates may displace colder survivors, but
    // only when strictly hotter — a tie never churns the set.
    survivors.sort_by_key(|a| a.1);
    for (slot, count, key) in candidates {
        if survivors.len() + plan.promote.len() < config.max_promoted {
            plan.promote.push((slot, key, count));
        } else if let Some(&(coldest, coldest_count)) = survivors.first() {
            if count > coldest_count {
                survivors.remove(0);
                plan.demote.push(coldest);
                plan.promote.push((slot, key, count));
            }
        }
    }
    plan.refreshed = survivors;
    plan
}

/// One replica-cache entry on a non-owning loop: the exact key bytes (a
/// hash collision must forward, never serve), the value, and the version
/// the owner captured when it filled us.
struct ReplicaEntry {
    key: Bytes,
    flags: u32,
    data: Bytes,
    version: u64,
    /// Loop-local logical clock value at the last hit (or the fill), so
    /// cap-pressure eviction can pick the coldest entry instead of an
    /// arbitrary one.
    last_hit: u64,
}

impl ReplicaEntry {
    fn cost(&self) -> usize {
        self.key.len() + self.data.len() + std::mem::size_of::<ReplicaEntry>()
    }
}

/// The per-loop half of the subsystem: the tracker, this loop's copy of
/// the promoted set, and the replica cache. Owned by one loop thread.
pub(crate) struct HotLoopState {
    pub(crate) tracker: HotKeyTracker,
    /// Loop-local copy of the promoted set, refreshed on generation moves.
    view: HashSet<(usize, Key)>,
    generation_seen: u64,
    replica: HashMap<(usize, Key), ReplicaEntry>,
    replica_used: usize,
    replica_cap: usize,
    /// Logical clock for `ReplicaEntry::last_hit`, advanced on every hit
    /// and fill.
    tick: u64,
    /// GETs served from the replica cache (never crossed a loop).
    pub(crate) replica_hits: u64,
    /// Fills taken from forwarded GETs' replies.
    pub(crate) replica_fills: u64,
    /// Entries a read found stale (version moved) and dropped.
    pub(crate) invalidations: u64,
}

impl HotLoopState {
    pub(crate) fn new(config: &HotKeyConfig) -> HotLoopState {
        HotLoopState {
            tracker: HotKeyTracker::new(config),
            view: HashSet::new(),
            generation_seen: 0,
            replica: HashMap::new(),
            replica_used: 0,
            replica_cap: config.replica_bytes,
            tick: 0,
            replica_hits: 0,
            replica_fills: 0,
            invalidations: 0,
        }
    }

    /// Serves a GET from the replica cache if the entry is present, the key
    /// bytes match exactly, and the captured version still equals the live
    /// slot. A version mismatch drops the entry, counts an invalidation
    /// and misses (the caller forwards, and the reply refills it).
    pub(crate) fn replica_get(
        &mut self,
        tenant: usize,
        id: Key,
        key: &[u8],
        versions: &VersionTable,
    ) -> Option<(u32, Bytes)> {
        if !self.view.contains(&(tenant, id)) {
            return None;
        }
        let live = versions.load(tenant, id);
        match self.replica.get_mut(&(tenant, id)) {
            None => return None,
            Some(entry) => {
                if entry.key != key {
                    return None;
                }
                if entry.version == live {
                    self.tick += 1;
                    entry.last_hit = self.tick;
                    self.replica_hits += 1;
                    return Some((entry.flags, entry.data.clone()));
                }
            }
        }
        self.invalidations += 1;
        self.evict(tenant, id);
        None
    }

    /// Fills a replica from a forwarded GET's hit, `version` what the
    /// owner read with the value. Ignored if the key is not promoted in
    /// this loop's view or the value cannot fit the byte cap.
    pub(crate) fn fill(
        &mut self,
        tenant: usize,
        id: Key,
        key: &[u8],
        flags: u32,
        data: &[u8],
        version: u64,
    ) {
        if !self.view.contains(&(tenant, id)) {
            return;
        }
        self.tick += 1;
        let entry = ReplicaEntry {
            key: Bytes::copy_from_slice(key),
            flags,
            data: Bytes::copy_from_slice(data),
            version,
            last_hit: self.tick,
        };
        let cost = entry.cost();
        if cost > self.replica_cap {
            return;
        }
        self.evict(tenant, id);
        // Cap pressure evicts the coldest entry (oldest last hit), so a
        // fill for a marginal promoted key can never displace the hottest
        // key's replica. The map only ever holds a handful of promoted
        // keys, so a linear scan per eviction is plenty.
        while self.replica_used + cost > self.replica_cap {
            let Some((&victim, _)) = self.replica.iter().min_by_key(|(_, e)| e.last_hit) else {
                break;
            };
            self.evict(victim.0, victim.1);
        }
        self.replica_used += cost;
        self.replica.insert((tenant, id), entry);
        self.replica_fills += 1;
    }

    fn evict(&mut self, tenant: usize, id: Key) {
        if let Some(old) = self.replica.remove(&(tenant, id)) {
            self.replica_used -= old.cost();
        }
    }

    /// Re-copies the promoted set if the control thread changed it, pruning
    /// replica entries for demoted keys. One atomic load on the no-change
    /// path, mirroring the tenant-table refresh.
    pub(crate) fn refresh(
        &mut self,
        generation: u64,
        master: &parking_lot::Mutex<HashMap<(usize, Key), PromotedEntry>>,
    ) {
        if generation == self.generation_seen {
            return;
        }
        self.view = master.lock().keys().copied().collect();
        self.generation_seen = generation;
        let gone: Vec<(usize, Key)> = self
            .replica
            .keys()
            .filter(|slot| !self.view.contains(slot))
            .copied()
            .collect();
        for (tenant, id) in gone {
            self.evict(tenant, id);
        }
    }
}

/// The plane-shared half: configuration, the version table, and the master
/// promoted set behind the generation counter. Lives in `PlaneShared` as an
/// `Option` — `None` when the feature is off.
pub(crate) struct HotShared {
    pub(crate) config: HotKeyConfig,
    pub(crate) versions: VersionTable,
    /// The master promoted set. The control thread is the only writer;
    /// loops copy it out when `generation` moves.
    pub(crate) promoted: parking_lot::Mutex<HashMap<(usize, Key), PromotedEntry>>,
    /// Bumped by the control thread after every promoted-set change.
    pub(crate) generation: AtomicU64,
}

impl HotShared {
    pub(crate) fn new(config: HotKeyConfig) -> HotShared {
        HotShared {
            config,
            versions: VersionTable::new(),
            promoted: parking_lot::Mutex::new(HashMap::new()),
            generation: AtomicU64::new(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(tenant: usize, raw: u64) -> (usize, Key) {
        (tenant, Key::new(raw))
    }

    fn merged_with(entries: &[((usize, u64), u64)]) -> HashMap<(usize, Key), (u64, Bytes)> {
        entries
            .iter()
            .map(|&((tenant, raw), count)| {
                (
                    slot(tenant, raw),
                    (count, Bytes::from(format!("k{raw}").into_bytes())),
                )
            })
            .collect()
    }

    fn promoted_with(entries: &[((usize, u64), u64)]) -> HashMap<(usize, Key), PromotedEntry> {
        entries
            .iter()
            .map(|&((tenant, raw), count)| {
                (
                    slot(tenant, raw),
                    PromotedEntry {
                        key: Bytes::from(format!("k{raw}").into_bytes()),
                        count,
                    },
                )
            })
            .collect()
    }

    fn test_config() -> HotKeyConfig {
        HotKeyConfig {
            enabled: true,
            sample: 1,
            window: 8,
            promote_threshold: 10,
            demote_threshold: 4,
            max_promoted: 2,
            ..HotKeyConfig::default()
        }
    }

    #[test]
    fn tracker_window_slides_and_counts_decay() {
        let config = HotKeyConfig {
            sample: 1,
            window: 4,
            ..HotKeyConfig::default()
        };
        let mut tracker = HotKeyTracker::new(&config);
        for _ in 0..4 {
            tracker.record(0, Key::new(1), b"hot");
        }
        let snap = tracker.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].count, 4);
        assert_eq!(&snap[0].key[..], b"hot");
        // Four different keys push the hot key entirely out of the window.
        for raw in 10..14 {
            tracker.record(0, Key::new(raw), b"cold");
        }
        let snap = tracker.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.iter().all(|e| e.count == 1));
        assert!(!snap.iter().any(|e| e.id == Key::new(1)));
    }

    #[test]
    fn tracker_samples_one_in_n() {
        let config = HotKeyConfig {
            sample: 4,
            window: 1024,
            ..HotKeyConfig::default()
        };
        let mut tracker = HotKeyTracker::new(&config);
        for _ in 0..100 {
            tracker.record(0, Key::new(7), b"sampled");
        }
        assert_eq!(tracker.snapshot()[0].count, 25);
    }

    #[test]
    fn hysteresis_promotes_high_and_demotes_low() {
        let config = test_config();
        // A key between the thresholds is neither promoted fresh...
        let merged = merged_with(&[((0, 1), 7)]);
        let plan = plan_round(&merged, &HashMap::new(), &config);
        assert!(plan.promote.is_empty());
        // ...nor demoted once in.
        let promoted = promoted_with(&[((0, 1), 12)]);
        let plan = plan_round(&merged, &promoted, &config);
        assert!(plan.demote.is_empty());
        assert_eq!(plan.refreshed, vec![(slot(0, 1), 7)]);
        // Below the low-water mark it leaves; at the high-water mark a new
        // key enters.
        let merged = merged_with(&[((0, 1), 3), ((0, 2), 10)]);
        let plan = plan_round(&merged, &promoted, &config);
        assert_eq!(plan.demote, vec![slot(0, 1)]);
        assert_eq!(plan.promote.len(), 1);
        assert_eq!(plan.promote[0].0, slot(0, 2));
    }

    #[test]
    fn top_k_cap_evicts_only_strictly_colder_survivors() {
        let config = test_config(); // max_promoted = 2
        let promoted = promoted_with(&[((0, 1), 20), ((0, 2), 20)]);
        // A hotter candidate displaces the colder survivor...
        let merged = merged_with(&[((0, 1), 5), ((0, 2), 20), ((0, 3), 30)]);
        let plan = plan_round(&merged, &promoted, &config);
        assert_eq!(plan.demote, vec![slot(0, 1)]);
        assert_eq!(plan.promote[0].0, slot(0, 3));
        // ...but an equally-hot one does not churn the set.
        let merged = merged_with(&[((0, 1), 20), ((0, 2), 20), ((0, 3), 20)]);
        let plan = plan_round(&merged, &promoted, &config);
        assert!(plan.promote.is_empty());
        assert!(plan.demote.is_empty());
    }

    #[test]
    fn missing_keys_demote_under_churn() {
        // A promoted key that vanished from every tracker window (traffic
        // churned away) counts as 0 and is demoted.
        let config = test_config();
        let promoted = promoted_with(&[((0, 1), 50)]);
        let plan = plan_round(&HashMap::new(), &promoted, &config);
        assert_eq!(plan.demote, vec![slot(0, 1)]);
    }

    #[test]
    fn version_mismatch_invalidates_replica() {
        let config = test_config();
        let versions = VersionTable::new();
        let shared_promoted = parking_lot::Mutex::new(promoted_with(&[((0, 9), 50)]));
        let mut state = HotLoopState::new(&config);
        state.refresh(2, &shared_promoted);
        let v = versions.load(0, Key::new(9));
        state.fill(0, Key::new(9), b"k9", 7, b"v1", v);
        assert_eq!(
            state.replica_get(0, Key::new(9), b"k9", &versions),
            Some((7, Bytes::from_static(b"v1")))
        );
        assert_eq!(state.replica_hits, 1);
        // A write bumps the version: the stale entry must stop serving.
        versions.bump(0, Key::new(9));
        assert_eq!(state.replica_get(0, Key::new(9), b"k9", &versions), None);
        // And it was evicted, not just skipped, and counted.
        assert_eq!(state.replica_used, 0);
        assert_eq!(state.invalidations, 1);
    }

    #[test]
    fn replica_requires_exact_key_match_and_view_membership() {
        let config = test_config();
        let versions = VersionTable::new();
        let shared_promoted = parking_lot::Mutex::new(promoted_with(&[((0, 9), 50)]));
        let mut state = HotLoopState::new(&config);
        state.refresh(2, &shared_promoted);
        state.fill(0, Key::new(9), b"k9", 0, b"v", 0);
        // A colliding 64-bit id with different bytes must forward.
        assert_eq!(state.replica_get(0, Key::new(9), b"other", &versions), None);
        // Demotion prunes the entry and stops serving.
        shared_promoted.lock().clear();
        state.refresh(3, &shared_promoted);
        assert_eq!(state.replica_get(0, Key::new(9), b"k9", &versions), None);
        assert_eq!(state.replica_used, 0);
    }

    #[test]
    fn bump_all_stops_every_replica_from_serving() {
        // `flush_all` cannot enumerate the flushed tenant's keys, so it
        // bumps every slot; a replica captured pre-flush must stop serving.
        let config = test_config();
        let versions = VersionTable::new();
        let shared_promoted = parking_lot::Mutex::new(promoted_with(&[((0, 9), 50)]));
        let mut state = HotLoopState::new(&config);
        state.refresh(2, &shared_promoted);
        state.fill(
            0,
            Key::new(9),
            b"k9",
            0,
            b"pre-flush",
            versions.load(0, Key::new(9)),
        );
        assert!(state
            .replica_get(0, Key::new(9), b"k9", &versions)
            .is_some());
        versions.bump_all();
        assert_eq!(state.replica_get(0, Key::new(9), b"k9", &versions), None);
        assert_eq!(state.replica_used, 0, "the stale entry must be evicted");
    }

    #[test]
    fn cap_pressure_evicts_the_coldest_replica_first() {
        // Three promoted keys, a cap that fits two: the fill that forces
        // an eviction must displace the entry that has not been hit, not
        // the one still serving traffic.
        let config = HotKeyConfig {
            replica_bytes: 2 * (2 + 8 + std::mem::size_of::<ReplicaEntry>()),
            max_promoted: 3,
            ..test_config()
        };
        let versions = VersionTable::new();
        let shared_promoted =
            parking_lot::Mutex::new(promoted_with(&[((0, 1), 50), ((0, 2), 50), ((0, 3), 50)]));
        let mut state = HotLoopState::new(&config);
        state.refresh(2, &shared_promoted);
        let value = [0u8; 8];
        state.fill(0, Key::new(1), b"k1", 0, &value, 0);
        state.fill(0, Key::new(2), b"k2", 0, &value, 0);
        // k1 is the hot one; k2 goes cold.
        assert!(state
            .replica_get(0, Key::new(1), b"k1", &versions)
            .is_some());
        state.fill(0, Key::new(3), b"k3", 0, &value, 0);
        assert!(
            state
                .replica_get(0, Key::new(1), b"k1", &versions)
                .is_some(),
            "the recently hit replica must survive cap pressure"
        );
        assert_eq!(state.replica_get(0, Key::new(2), b"k2", &versions), None);
        assert!(state
            .replica_get(0, Key::new(3), b"k3", &versions)
            .is_some());
    }

    #[test]
    fn replica_cap_bounds_memory() {
        let config = HotKeyConfig {
            replica_bytes: 256,
            ..test_config()
        };
        let versions = VersionTable::new();
        let shared_promoted = parking_lot::Mutex::new(promoted_with(&[((0, 1), 50), ((0, 2), 50)]));
        let mut state = HotLoopState::new(&config);
        state.refresh(2, &shared_promoted);
        // An oversize value is refused outright.
        state.fill(0, Key::new(1), b"k1", 0, &[0u8; 512], 0);
        assert_eq!(state.replica_used, 0);
        // Two entries that do not fit together: the second evicts the first.
        state.fill(0, Key::new(1), b"k1", 0, &[0u8; 100], 0);
        state.fill(0, Key::new(2), b"k2", 0, &[0u8; 100], 0);
        assert!(state.replica_used <= 256);
        assert_eq!(state.replica.len(), 1);
        assert_eq!(
            state.replica_get(0, Key::new(2), b"k2", &versions),
            Some((0, Bytes::from(vec![0u8; 100])))
        );
    }
}
