//! # loadgen
//!
//! A memtier/mutilate-style load generator and telemetry harness for the
//! cache server — the measurement side of the paper's evaluation (Figures
//! 10–12 and Tables 6–7 are all throughput / latency / hit rate under real
//! traffic, which requires putting load on a real socket).
//!
//! * [`workload`] — adapts the `workloads` crate's key-popularity and
//!   item-size distributions into a wire-level request stream.
//! * [`runner`] — the one worker pool: each worker connects, selects its
//!   tenant, warms up and runs each phase closed-loop (fixed concurrency,
//!   pipelined) or open-loop (fixed arrival rate, coordinated-omission
//!   corrected). A plain run ([`run_load`]) is one phase.
//! * [`report`] — machine-readable JSON reports (`cliffhanger-loadgen/v1`).
//! * [`self_host`] — starts an in-process server from a
//!   [`cache_server::ServerConfig`], runs the load against it and attaches
//!   its scraped `stats json` document, and the facts read from it, to the
//!   report.
//! * [`scenario`] — named, phased chaos/replay scenarios (scan storms,
//!   diurnal rate swings, working-set drift, connection churn, slow-loris,
//!   tenant storms) run through the same pool, with pass/fail invariants
//!   checked at run end (`cliffhanger-scenario/v1`); the `scenario_matrix`
//!   bench binary runs them.
//!
//! Run it: `cargo run --release -p loadgen -- --help`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod report;
pub mod runner;
pub mod scenario;
pub mod self_host;
pub mod workload;

pub use report::{LoadReport, ServerEcho, TenantSection, LOAD_SCHEMA};
pub use runner::{run_load, LoadgenConfig, Pacer};
pub use scenario::{
    evaluate_invariants, named_scenario, run_scenario, scenario_names, Chaos, Invariant,
    InvariantVerdict, Phase, Scenario, ScenarioMatrixReport, ScenarioReport,
    SCENARIO_MATRIX_SCHEMA, SCENARIO_SCHEMA,
};
pub use self_host::run_self_hosted;
pub use workload::{GenOp, RequestGen, TenantLoad, WorkloadSpec};
