//! # cliffhanger-repro
//!
//! A from-scratch Rust reproduction of *Cliffhanger: Scaling Performance
//! Cliffs in Web Memory Caches* (Cidon, Eisenman, Alizadeh, Katti — NSDI
//! 2016).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`cache_core`] — the Memcached-like cache substrate (slab classes,
//!   eviction policies, shadow queues, the tenant name table).
//! * [`cliffhanger`] — the paper's contribution: shadow-queue hill climbing
//!   and incremental cliff scaling.
//! * [`profiler`] — stack distances, hit-rate curves and the curve-based
//!   baselines (Dynacache, Talus).
//! * [`workloads`] — the synthetic Memcachier-like traces and Facebook-ETC
//!   micro-benchmark workloads.
//! * [`simulator`] — the trace-driven engine and the per-table / per-figure
//!   experiments.
//! * [`cache_server`] — a Memcached-text-protocol TCP server and client
//!   backed by the Cliffhanger-managed cache, N-way sharded.
//! * [`loadgen`] — a memtier-style load generator with HDR-style latency
//!   telemetry and the phased resilience scenarios (see README
//!   "Benchmarking").
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! [`workloads::memcachier`] for why a synthetic trace stands in for the
//! paper's, and README ("Reproducing the paper's benches") for the binaries
//! that print the reproduced tables and figures.

#![warn(missing_docs)]

pub use cache_core;
pub use cache_server;
pub use cliffhanger;
pub use loadgen;
pub use profiler;
pub use simulator;
pub use workloads;

/// The most commonly used types, for glob import in examples and tests.
pub mod prelude {
    pub use cache_core::{
        AppId, CacheStats, ClassId, GlobalLruCache, HitRatio, Key, PolicyKind, SlabCache,
        SlabCacheConfig, SlabConfig,
    };
    pub use cache_server::{BackendConfig, BackendMode, CacheClient, CacheServer, ServerConfig};
    pub use cliffhanger::{Cliffhanger, CliffhangerConfig};
    pub use profiler::{DynacacheSolver, HitRateCurve, QueueProfile, TalusPartition};
    pub use simulator::{
        engine::{replay_app, CacheSystem, CliffhangerMode, ReplayOptions},
        experiments::ExperimentContext,
    };
    pub use workloads::{
        memcachier_trace, AppProfile, MemcachierConfig, Op, Phase, Request, SizeDistribution, Trace,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_cache() {
        let mut cache: Cliffhanger<()> =
            Cliffhanger::new(CliffhangerConfig::with_total_bytes(1 << 20));
        cache.set(Key::new(1), 128, ());
        assert!(cache.get(Key::new(1), 128).unwrap().1.hit);
    }
}
