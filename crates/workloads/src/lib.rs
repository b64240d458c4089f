//! # workloads
//!
//! The trace substrate of the reproduction. The paper evaluates Cliffhanger
//! on a week-long trace of the top 20 applications of Memcachier (which is
//! not public) and on micro-benchmarks driven by Mutilate replaying the
//! Facebook ETC distributions. This crate builds the closest synthetic
//! equivalents ([`memcachier`]'s module documentation argues the
//! substitution):
//!
//! * [`zipf`] — key-popularity samplers (Zipf, uniform, hot-set).
//! * [`sizes`] — per-key item-size distributions (fixed, uniform, lognormal,
//!   generalized Pareto, mixtures) with deterministic per-key sizes.
//! * [`scan`] — sequential / cyclic scan generators, the access pattern that
//!   produces LRU performance cliffs (paper §3.5).
//! * [`app_profile`] — a per-application workload model: popularity, sizes,
//!   GET/SET mix, scan components, phase changes over the trace.
//! * [`memcachier`] — the 20-application Memcachier-like mix, with the
//!   asterisked (cliff-prone) applications of Figure 2 modelled by scan
//!   components, plus per-application memory reservations.
//! * [`facebook_etc`] — the Facebook ETC-like micro-benchmark workload.
//! * [`trace`] — request/trace types, deterministic generation, JSON-lines
//!   serialisation and summary statistics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod app_profile;
pub mod facebook_etc;
pub mod memcachier;
pub mod scan;
pub mod sizes;
pub mod trace;
pub mod zipf;

pub use app_profile::{AppProfile, Phase};
pub use facebook_etc::{etc_workload, EtcConfig};
pub use memcachier::{memcachier_apps, memcachier_trace, trace_for_apps, MemcachierConfig};
pub use scan::ScanGenerator;
pub use sizes::SizeDistribution;
pub use trace::{Op, Request, Trace, TraceSummary};
pub use zipf::{KeyPopularity, ZipfSampler};
