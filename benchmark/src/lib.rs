//! The measuring tool behind `BENCHMARK.json`: workload generator, wire
//! client, exact-percentile maths, `/proc` sampler, span recorder and the
//! run harness. It deliberately shares no code with the repository's
//! `loadgen`, `workloads` or `telemetry` crates — a later PR cannot move a
//! number by editing the tool that measures it.
//!
//! Nothing in this library calls into the server beyond
//! `CacheServer::start` / `local_addr` / `shutdown` and the config structs;
//! the probes of internal APIs live in the `layers` binary alone.

pub mod alloc;
pub mod cli;
pub mod client;
pub mod gen;
pub mod harness;
pub mod maths;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod wire;
pub mod workload;
