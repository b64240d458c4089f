//! # profiler
//!
//! Hit-rate-curve machinery and the curve-based allocation baselines the
//! Cliffhanger paper compares against.
//!
//! Cliffhanger's central claim is that good allocations can be found *without*
//! estimating full hit-rate curves. This crate implements the other side of
//! that comparison — everything that *does* estimate curves:
//!
//! * [`stack_distance`] — exact Mattson stack distances (O(log N) per request
//!   with a Fenwick tree) and the resulting reuse-distance histograms.
//! * [`mimir`] — the Mimir bucket approximation (per request, one key-table
//!   probe and a sum over B bucket counts; aging moves no key) used by
//!   Dynacache when exact profiling is too expensive.
//! * [`curve`] — hit-rate curves: evaluation, interpolation, gradients,
//!   concavity/cliff detection.
//! * [`hull`] — concave (upper) hulls of hit-rate curves, the object Talus
//!   traces.
//! * [`dynacache`] — the Dynacache solver (Equation 1): frequency-weighted
//!   allocation across queues via marginal-utility water-filling.
//! * [`talus`] — Talus partitioning of a single queue given its curve.
//! * [`online`] — SHARDS-sampled live MRC estimation for the server's
//!   observability plane (bounded memory, near-zero unsampled cost).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod curve;
pub mod dynacache;
pub mod hull;
pub mod mimir;
pub mod online;
pub mod stack_distance;
pub mod talus;

pub use curve::HitRateCurve;
pub use dynacache::{DynacacheSolver, QueueProfile};
pub use hull::ConcaveHull;
pub use mimir::MimirEstimator;
pub use online::{MrcSnapshot, OnlineMrc};
pub use stack_distance::{StackDistanceHistogram, StackDistanceTracker};
pub use talus::TalusPartition;
