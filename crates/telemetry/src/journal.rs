//! The control-plane flight recorder: a fixed-size ring journal.
//!
//! Every decision the control plane makes — a budget transfer along a
//! shadow-hit gradient, a carve-out for a new tenant, a flush, an idle
//! reap, a shed connection, a sampled slow op — is appended as a structured
//! [`JournalEvent`]. So is the engines' own narration (a cliff scaler's
//! ratio step, a free-pool grant), which comes at the rate of the writes
//! that cause it. The journal is two bounded rings, one for the narration
//! and one for everything else, so no volume of narration pushes a
//! transfer out: when a ring is full its oldest events are overwritten,
//! and memory use is fixed no matter how long the server runs.
//!
//! Concurrency model: one latch holds both rings and the sequence counter.
//! An append numbers, stamps and pushes its event under it and frees the
//! event it overwrote after; a snapshot copies both rings under it and
//! merges them after, so a snapshot is the journal at one instant. The
//! latch is a leaf, which an engine takes under its shard lock when it
//! narrates. Appends are on a request's path only where an engine narrates
//! a decision its write triggered, or a sampled slow op is recorded.
//!
//! Sequence numbers are monotonic and dense across both rings, and a
//! snapshot merges the rings by them, so a reader sees one ordered history;
//! [`Journal::dropped`] says how many older events the rings overwrote.

use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
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
    /// Dense, monotonic sequence number (0-based) across both rings. A seq
    /// missing from a snapshot was overwritten by its ring's wrap.
    pub seq: u64,
    /// Microseconds since the journal's origin (monotonic clock).
    pub at_micros: u64,
    /// The event itself.
    pub kind: EventKind,
}

impl EventKind {
    /// Whether the event is an engine's narration of its own decision,
    /// kept on a ring apart from the control plane's.
    fn is_narration(&self) -> bool {
        matches!(
            self,
            EventKind::ScalerRatio { .. } | EventKind::FreePoolGrant { .. }
        )
    }
}

/// The next sequence number (the events ever recorded), then the control
/// plane's ring and the narration's, each oldest first.
type Rings = (u64, [VecDeque<JournalEvent>; 2]);

/// Two fixed-size rings of [`JournalEvent`]s, the control plane's and the
/// engines' narration, under one latch.
pub struct Journal {
    origin: Instant,
    capacity: usize,
    latch: Mutex<Rings>,
}

impl Journal {
    /// Creates a journal whose two rings hold at most `capacity` events each
    /// (min 1), stamping each event with the time since its creation.
    pub fn new(capacity: usize) -> Journal {
        Journal::since(Instant::now(), capacity)
    }

    /// [`Journal::new`], stamping each event with the time since `origin`
    /// instead (a server's: the instant its plane started).
    pub fn since(origin: Instant, capacity: usize) -> Journal {
        let capacity = capacity.max(1);
        let ring = || VecDeque::with_capacity(capacity);
        Journal {
            origin,
            capacity,
            latch: Mutex::new((0, [ring(), ring()])),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Rings> {
        self.latch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The capacity of each ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The next sequence number to be assigned — equivalently, the total
    /// number of events ever recorded.
    pub fn next_seq(&self) -> u64 {
        self.lock().0
    }

    /// How many recorded events have been overwritten by either ring's wrap.
    pub fn dropped(&self) -> u64 {
        let (next_seq, rings) = &*self.lock();
        next_seq - rings.iter().map(|ring| ring.len() as u64).sum::<u64>()
    }

    /// Appends an event, returning its sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        let mut latch = self.lock();
        let (next_seq, rings) = &mut *latch;
        let seq = *next_seq;
        *next_seq += 1;
        let ring = &mut rings[usize::from(kind.is_narration())];
        // A full ring's oldest event is freed after the latch is released.
        let overwritten = (ring.len() == self.capacity).then(|| ring.pop_front());
        let at_micros = self.origin.elapsed().as_micros() as u64;
        ring.push_back(JournalEvent {
            seq,
            at_micros,
            kind,
        });
        drop(latch);
        drop(overwritten);
        seq
    }

    /// The retained events of both rings, oldest first: the rings are
    /// copied under the latch and merged by sequence number after it.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let [control, narration] = self.lock().1.clone();
        let mut events = Vec::with_capacity(control.len() + narration.len());
        let mut narration = narration.into_iter().peekable();
        for event in control {
            while let Some(older) = narration.next_if(|n| n.seq < event.seq) {
                events.push(older);
            }
            events.push(event);
        }
        events.extend(narration);
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

    #[test]
    fn narration_never_pushes_a_transfer_out() {
        let j = Journal::new(1024);
        let narration = |i: u32| EventKind::FreePoolGrant {
            shard: 0,
            tenant: "default".into(),
            class: i,
            bytes: 64,
        };
        let transfer = |i: usize| EventKind::ShardTransfer {
            tenant: "default".into(),
            from_shard: i,
            to_shard: i + 1,
            bytes: 4096,
            from_gradient: 0.5,
            to_gradient: 1.5,
        };
        // 10,000 narration events with 50 transfers spread among them.
        for i in 0..10_000u32 {
            j.record(narration(i));
            if i % 200 == 199 {
                j.record(transfer(i as usize / 200));
            }
        }
        assert_eq!(j.next_seq(), 10_050);
        let snap = j.snapshot();
        let transfers: Vec<usize> = snap
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ShardTransfer { from_shard, .. } => Some(from_shard),
                _ => None,
            })
            .collect();
        assert_eq!(
            transfers,
            (0..50).collect::<Vec<_>>(),
            "all 50 kept, in order"
        );
        assert_eq!(
            snap.len(),
            1024 + 50,
            "the narration ring holds its capacity"
        );
        assert_eq!(j.dropped(), 10_000 - 1024);
        assert!(snap.windows(2).all(|pair| pair[0].seq < pair[1].seq));
    }

    #[test]
    fn a_snapshot_taken_while_threads_append_has_no_hole() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        let j = std::sync::Arc::new(Journal::new(1024));
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        // One event kind, so one ring: every snapshot's seqs are one run.
        let writers: Vec<_> = (0..3)
            .map(|t| {
                let (j, done, start) = (j.clone(), done.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    while !done.load(Relaxed) {
                        j.record(reap(t));
                    }
                })
            })
            .collect();
        start.wait();
        let torn = (0..20_000)
            .filter(|_| {
                let snap = j.snapshot();
                snap.windows(2).any(|pair| pair[1].seq != pair[0].seq + 1)
            })
            .count();
        done.store(true, Relaxed);
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(torn, 0, "of 20,000 snapshots, {torn} had a hole");
    }
}
