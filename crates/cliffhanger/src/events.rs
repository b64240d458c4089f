//! Host-facing event hooks: the library narrates its decisions, the host
//! decides what to do with them.
//!
//! The managed cache ([`crate::controller::Cliffhanger`]) makes memory
//! decisions continuously — cliff-scaler ratio changes, free-pool grants. A
//! server embedding the library wants those decisions in its flight
//! recorder, but the library must not know about journals, rings or JSON.
//! [`EventSink`] is the seam: hosts implement it (typically appending to a
//! bounded journal), the library calls it at decision points, and the no-op
//! default keeps every existing call site zero-cost. (The balancer needs no
//! hook: [`crate::ShardRebalancer`] hands its transfers, gradients
//! included, back to the host that applies them.)
//!
//! Sink methods take `&self`: the controller holds its sink behind an
//! `Arc`, and decision points can sit under a shared reference. Sinks that
//! accumulate state use interior mutability (the intended host sink is an
//! append-only ring with atomic claims, which needs none).

use std::sync::Arc;

/// A sink for library decision events. Every method has a no-op default,
/// so implementations subscribe only to what they record.
pub trait EventSink {
    /// A cliff scaler's Talus request ratio moved to a new 5% step for
    /// `class` (per-twitch emission would flood any recorder).
    fn scaler_ratio(&self, _class: u32, _ratio: f64) {}

    /// The managed cache granted `bytes` of free-pool memory to `class`
    /// (the first-come-first-serve warmup path).
    fn free_pool_grant(&self, _class: u32, _bytes: u64) {}
}

/// An optional shared sink slot, `Debug`-printable so the structs holding
/// it can keep deriving `Debug`.
#[derive(Clone, Default)]
pub(crate) struct SinkSlot(pub(crate) Option<Arc<dyn EventSink + Send + Sync>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Some(_) => "EventSink(installed)",
            None => "EventSink(none)",
        })
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::Mutex;

    /// A test sink collecting everything it hears (`Mutex`-backed so it can
    /// also serve as a shared `Arc` sink in controller tests).
    #[derive(Default)]
    pub(crate) struct RecordingSink {
        pub(crate) ratios: Mutex<Vec<(u32, f64)>>,
        pub(crate) grants: Mutex<Vec<(u32, u64)>>,
    }

    impl EventSink for RecordingSink {
        fn scaler_ratio(&self, class: u32, ratio: f64) {
            self.ratios.lock().unwrap().push((class, ratio));
        }
        fn free_pool_grant(&self, class: u32, bytes: u64) {
            self.grants.lock().unwrap().push((class, bytes));
        }
    }
}
