//! # telemetry
//!
//! Shared observability primitives for the workspace, used on both sides of
//! the wire:
//!
//! * [`histogram`] — the HDR-style log-linear latency [`Histogram`] and its
//!   JSON-ready [`LatencySummary`]. The load generator records client-side
//!   request latencies into it; the server's event loops record per-loop,
//!   per-command-class *service* times into it. One recorder, one
//!   quantisation model, directly comparable numbers.
//! * [`journal`] — the control-plane flight recorder: a [`Journal`] of
//!   structured [`JournalEvent`]s (budget transfers with the gradients that
//!   justified them, carve-outs, flushes, idle reaps, shed connections,
//!   sampled slow ops; the engines' narration on a ring of its own), two
//!   fixed-size rings under one latch, numbered densely across both.
//! * [`timeseries`] — a bounded ring of interval buckets over cumulative
//!   per-tenant counters ([`TimeSeries`]), recorded per event loop and
//!   merged at snapshot time, from which the stats document derives
//!   windowed ops/s, hit-rate and eviction rates (trajectory, not totals).
//!
//! All are deliberately dependency-light (serde only) so every crate in
//! the workspace can use them without pulling server or loadgen machinery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod histogram;
pub mod journal;
pub mod timeseries;

pub use histogram::{Histogram, LatencySummary};
pub use journal::{EventKind, Journal, JournalEvent};
pub use timeseries::{ColumnRates, SeriesBucket, SeriesRates, SeriesSample, TimeSeries};
