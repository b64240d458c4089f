//! # loadgen
//!
//! A memtier/mutilate-style load generator and telemetry harness for the
//! cache server — the measurement side of the paper's evaluation (Figures
//! 10–12 and Tables 6–7 are all throughput / latency / hit rate under real
//! traffic, which requires putting load on a real socket).
//!
//! * [`workload`] — adapts the `workloads` crate's key-popularity and
//!   item-size distributions into a wire-level request stream.
//! * [`runner`] — the multi-threaded closed-loop (fixed concurrency,
//!   pipelined) and open-loop (fixed arrival rate, coordinated-omission
//!   corrected) drivers.
//! * [`report`] — machine-readable JSON reports (`cliffhanger-loadgen/v1`).
//! * [`self_host`] — runs against an in-process server, with the server's
//!   own counters and `stats json` document attached to the report.
//! * [`scenario`] — named, phased chaos/replay scenarios (scan storms,
//!   diurnal rate swings, working-set drift, connection churn, slow-loris,
//!   tenant storms) with pass/fail invariants checked at run end
//!   (`cliffhanger-scenario/v1`).
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
pub use runner::{run_load, LoadMode, LoadgenConfig, Pacer};
pub use scenario::{
    evaluate_invariants, named_scenario, run_scenario, scenario_names, Chaos, Invariant,
    InvariantVerdict, Phase, Scenario, ScenarioMatrixReport, ScenarioReport,
    SCENARIO_MATRIX_SCHEMA, SCENARIO_SCHEMA,
};
pub use self_host::{run_self_hosted, SelfHostConfig};
pub use workload::{GenOp, RequestGen, TenantLoad, WorkloadSpec};
