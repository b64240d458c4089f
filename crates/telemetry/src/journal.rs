//! The control-plane flight recorder: a fixed-size ring journal.
//!
//! Every decision the control plane makes — a budget transfer along a
//! shadow-hit gradient, a carve-out for a new tenant, a flush, an idle
//! reap, a shed connection, a sampled slow op — is appended as a structured
//! [`JournalEvent`]. The journal is a bounded ring: when it is full the
//! oldest events are overwritten, so memory use is fixed no matter how long
//! the server runs.
//!
//! Concurrency model: a sequence number is claimed with one lock-free
//! `fetch_add`, which also picks the slot (`seq % capacity`); the slot
//! write itself takes a per-slot latch that only ever contends when two
//! appends land exactly `capacity` events apart. Appends are off every
//! per-request fast path by construction — only control-plane actors
//! (the control thread, the idle reaper, the accept gate, the sampled
//! slow-op path) write here.
//!
//! Sequence numbers are monotonic and dense, so a reader can detect loss:
//! if the oldest event in a snapshot has `seq > 0`, exactly `seq` older
//! events were overwritten.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One structured control-plane event.
///
/// Serialized externally tagged, the way real serde renders enums: unit
/// variants become a string (`"ConnectionShed"`), data variants a
/// single-entry object (`{"ShardTransfer": {...}}`). The variant name is
/// the tag, verbatim.
#[derive(Clone, Debug, Serialize)]
pub enum EventKind {
    /// The cross-shard rebalancer moved budget between two shards of one
    /// tenant, justified by the smoothed shadow-hit gradients recorded here.
    ShardTransfer {
        /// Tenant whose shard budgets moved.
        tenant: String,
        /// Donating shard.
        from_shard: usize,
        /// Receiving shard.
        to_shard: usize,
        /// Bytes moved.
        bytes: u64,
        /// Smoothed shadow-hit gradient of the donor at decision time.
        from_gradient: f64,
        /// Smoothed shadow-hit gradient of the receiver at decision time.
        to_gradient: f64,
    },
    /// The cross-tenant arbiter moved budget between two tenants.
    TenantTransfer {
        /// Donating tenant.
        from_tenant: String,
        /// Receiving tenant.
        to_tenant: String,
        /// Bytes moved (summed over the per-shard slices).
        bytes: u64,
        /// Smoothed shadow-hit gradient of the donor at decision time.
        from_gradient: f64,
        /// Smoothed shadow-hit gradient of the receiver at decision time.
        to_gradient: f64,
    },
    /// A cliff scaler changed its Talus request ratio materially (the
    /// emitting side buckets the ratio so the journal records steps, not
    /// every pointer twitch).
    ScalerRatio {
        /// Shard hosting the engine.
        shard: usize,
        /// Tenant owning the engine.
        tenant: String,
        /// Slab class whose partitioned queue changed ratio.
        class: u32,
        /// The new left-queue request ratio in `[0, 1]`.
        ratio: f64,
    },
    /// An engine granted free-pool memory to a slab class (the
    /// first-come-first-serve warmup path).
    FreePoolGrant {
        /// Shard hosting the engine.
        shard: usize,
        /// Tenant owning the engine.
        tenant: String,
        /// Slab class that grew.
        class: u32,
        /// Bytes granted.
        bytes: u64,
    },
    /// Live tenant onboarding carved budget out of existing tenants on one
    /// shard.
    CarveOut {
        /// Tenant that received the carve.
        tenant: String,
        /// Shard the budget was carved on.
        shard: usize,
        /// Bytes carved.
        bytes: u64,
    },
    /// A tenant was created live (`app_create`).
    TenantCreated {
        /// The new tenant's name.
        tenant: String,
        /// Its arbitration weight.
        weight: u64,
    },
    /// A tenant's items were flushed (`flush_all` in its session).
    TenantFlushed {
        /// The flushed tenant.
        tenant: String,
    },
    /// The idle reaper closed a connection that exceeded the idle timeout.
    IdleReap {
        /// Event loop that owned the connection.
        loop_index: usize,
    },
    /// The accept gate shed a connection over `max_connections`.
    ConnectionShed,
    /// A data or admin op exceeded `slow_op_micros` (sampled: the first
    /// slow op and every 64th after it per loop, so a pathological
    /// threshold cannot flood the ring).
    SlowOp {
        /// Event loop (or control thread) that served the op.
        loop_index: usize,
        /// Command class: `"local"`, `"remote"` or `"admin"`.
        class: String,
        /// Observed service time in microseconds.
        micros: u64,
    },
}

/// One journal entry: a sequence number, a monotonic timestamp and the
/// structured event.
#[derive(Clone, Debug, Serialize)]
pub struct JournalEvent {
    /// Dense, monotonic sequence number (0-based). Gaps at the front of a
    /// snapshot mean that many older events were overwritten.
    pub seq: u64,
    /// Microseconds since the journal was created (monotonic clock).
    pub at_micros: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// A fixed-size lock-free-claim ring of [`JournalEvent`]s.
pub struct Journal {
    origin: Instant,
    head: AtomicU64,
    slots: Vec<Mutex<Option<JournalEvent>>>,
}

impl Journal {
    /// Creates a journal holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Journal {
        let capacity = capacity.max(1);
        Journal {
            origin: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The next sequence number to be assigned — equivalently, the total
    /// number of events ever recorded.
    pub fn next_seq(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// How many recorded events have been overwritten by ring wrap.
    pub fn dropped(&self) -> u64 {
        self.next_seq().saturating_sub(self.slots.len() as u64)
    }

    /// Appends an event, returning its sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let event = JournalEvent {
            seq,
            at_micros: self.origin.elapsed().as_micros() as u64,
            kind,
        };
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        // Two appends can race for the same slot only when they are exactly
        // `capacity` sequence numbers apart; the newer event wins.
        if guard.as_ref().map_or(true, |held| held.seq < seq) {
            *guard = Some(event);
        }
        seq
    }

    /// A consistent-enough snapshot of the retained events, oldest first
    /// (sorted by sequence number). Concurrent appends may or may not be
    /// included; retained events are never duplicated or reordered.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let mut events: Vec<JournalEvent> = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                    .cloned()
            })
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity())
            .field("next_seq", &self.next_seq())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reap(i: usize) -> EventKind {
        EventKind::IdleReap { loop_index: i }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let j = Journal::new(8);
        for i in 0..5 {
            assert_eq!(j.record(reap(i)), i as u64);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(j.dropped(), 0);
        for (i, ev) in snap.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        // Timestamps are monotone along the sequence.
        for pair in snap.windows(2) {
            assert!(pair[0].at_micros <= pair[1].at_micros);
        }
    }

    #[test]
    fn wrap_around_drops_the_oldest_and_keeps_seqs_gap_detectable() {
        let j = Journal::new(8);
        for i in 0..20 {
            j.record(reap(i));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 8, "the ring retains exactly its capacity");
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        // The gap is visible: the oldest retained seq says how many events
        // were lost to the wrap.
        assert_eq!(snap[0].seq, 12);
        assert_eq!(j.dropped(), 12);
        assert_eq!(j.next_seq(), 20);
    }

    #[test]
    fn concurrent_appends_keep_seqs_unique_and_dense() {
        let j = std::sync::Arc::new(Journal::new(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let j = j.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    j.record(reap(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.next_seq(), 400);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 64);
        let mut seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        let sorted = seqs.clone();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 64, "no duplicate sequence numbers survive");
        assert_eq!(sorted, seqs, "snapshot is ordered by seq");
        // Every survivor is from the last `capacity + in-flight` window.
        assert!(snap[0].seq >= 400 - 64 - 4);
    }

    #[test]
    fn events_serialize_to_tagged_json() {
        let j = Journal::new(4);
        j.record(EventKind::ShardTransfer {
            tenant: "default".into(),
            from_shard: 1,
            to_shard: 0,
            bytes: 4096,
            from_gradient: 0.25,
            to_gradient: 2.5,
        });
        j.record(EventKind::ConnectionShed);
        let json = serde_json::to_string(&j.snapshot()).unwrap();
        assert!(json.contains("\"ShardTransfer\""), "{json}");
        assert!(json.contains("\"from_gradient\""), "{json}");
        assert!(json.contains("ConnectionShed"), "{json}");
    }
}
