//! # simulator
//!
//! The trace-driven experiment engine of the reproduction. It replays the
//! synthetic Memcachier-like traces (from the `workloads` crate) against the
//! cache organisations under study — Memcached's default first-come-first-
//! serve slab allocation, statically solved allocations (Dynacache), the
//! global-LRU / log-structured model, and Cliffhanger in all its ablations —
//! and regenerates every table and figure of the paper's evaluation.
//!
//! * [`engine`] — replay a single application's trace against one cache
//!   system, with warm-up handling and timeline sampling.
//! * [`profiles`] — build per-slab-class hit-rate curves and frequencies
//!   from a trace (the inputs to the Dynacache baseline).
//! * [`sweep`] — memory sweeps: how much memory a system needs to match a
//!   target hit rate (Figure 7's memory savings).
//! * [`report`] — plain-text / CSV tables and series used by the harness
//!   binaries.
//! * [`experiments`] — one module per table or figure of the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod engine;
pub mod experiments;
pub mod profiles;
pub mod report;
pub mod sweep;

pub use engine::{AppRunResult, CacheSystem, CliffhangerMode, ReplayOptions, TimelinePoint};
pub use report::{FigureSeries, Table};
