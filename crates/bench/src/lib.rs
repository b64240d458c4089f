//! Shared measurement code for the paper's micro-benchmark tables
//! (Tables 6 and 7) and for the table/figure harness binaries.
//!
//! Tables 6 and 7 measure the *overhead* of Cliffhanger's bookkeeping — the
//! shadow-queue lookups, credit transfers and queue resizes — relative to a
//! stock cache, under the worst-case workload of §5.6 (every key unique, so
//! every GET misses, every miss probes the shadow queues, and every fill
//! evicts). The measurements here run in-process against
//! [`cache_server::SharedCache`] — the routing and engine code a server's
//! event loop runs for a local key, called in the measuring thread — which
//! isolates the algorithmic overhead from network and syscall noise (the
//! paper's absolute numbers come from a different testbed; the comparison
//! of interest is relative overhead).

#![warn(missing_docs)]

pub mod overhead;

pub use overhead::{table6_latency_overhead, table7_throughput_overhead, OverheadOptions};
