//! Machine-readable run reports.
//!
//! Every loadgen run emits one JSON document (schema
//! `cliffhanger-loadgen/v1`) so results can be diffed across runs.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use telemetry::LatencySummary;

/// Report of a single load-generation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Schema tag: `cliffhanger-loadgen/v1`.
    pub schema: String,
    /// `closed` or `open`.
    pub mode: String,
    /// Target server address.
    pub addr: String,
    /// Worker threads / TCP connections.
    pub connections: u64,
    /// Requests per pipelined batch (1 = strict request/response).
    pub pipeline: u64,
    /// Open-loop target rate in requests/sec (0 for closed-loop).
    pub target_rps: f64,
    /// Requests completed in the measured window.
    pub requests: u64,
    /// Untimed warm-up requests issued before the window.
    pub warmup_requests: u64,
    /// Wall-clock seconds of the measured window.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// GET requests completed.
    pub gets: u64,
    /// GETs answered with a value.
    pub get_hits: u64,
    /// GET hit rate (0 when no GETs were issued).
    pub hit_rate: f64,
    /// SET requests completed (demand fills included).
    pub sets: u64,
    /// Demand-fill SETs among `sets` (`--fill-on-miss`): in closed loop
    /// they ride in the next pipelined batch; in open loop each fill
    /// occupies the next scheduled arrival slot, so its latency is charged
    /// against the schedule exactly like a generated request
    /// (coordinated-omission correct).
    pub fills: u64,
    /// SETs the server did not store, plus protocol-level surprises.
    pub errors: u64,
    /// Latency over every request.
    pub latency: LatencySummary,
    /// Latency of GETs alone.
    pub get_latency: LatencySummary,
    /// Latency of SETs alone (demand fills included).
    pub set_latency: LatencySummary,
    /// Latency of demand fills alone (empty unless `--fill-on-miss`).
    pub fill_latency: LatencySummary,
    /// Workload knobs, echoed for reproducibility.
    pub workload: WorkloadEcho,
    /// Server-side counters (present when the run self-hosted the server).
    pub server: Option<ServerEcho>,
    /// The server's own telemetry document, scraped over the wire with
    /// `stats json` after the measured window closes: the verbatim
    /// `cliffhanger-stats/v1` tree, carrying per-loop service-time
    /// histograms, the slow-op count and the control-plane journal. Present
    /// when the run self-hosted the server. (Pre-PR7 reports lack the
    /// field; same untyped-reader caveat as `tenants`.)
    pub server_stats: Option<Value>,
    /// Per-tenant breakdowns of a multi-tenant run (empty for single-tenant
    /// runs; pre-PR4 reports lack the field, and every consumer of committed
    /// baselines reads them untyped, so those stay readable).
    pub tenants: Vec<TenantSection>,
}

/// One tenant's slice of a multi-tenant run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TenantSection {
    /// The application name (`default` for the implicit tenant).
    pub tenant: String,
    /// Connections driving this tenant.
    pub connections: u64,
    /// Requests this tenant completed in the measured window.
    pub requests: u64,
    /// GET requests completed.
    pub gets: u64,
    /// GETs answered with a value.
    pub get_hits: u64,
    /// GET hit rate (0 when no GETs were issued).
    pub hit_rate: f64,
    /// SET requests completed (demand fills included).
    pub sets: u64,
    /// Demand-fill SETs among `sets` (see [`LoadReport::fills`]).
    pub fills: u64,
    /// SETs not stored plus protocol-level surprises.
    pub errors: u64,
    /// Latency over every request of this tenant.
    pub latency: LatencySummary,
    /// Latency of this tenant's GETs alone.
    pub get_latency: LatencySummary,
    /// Latency of this tenant's SETs alone (demand fills included).
    pub set_latency: LatencySummary,
    /// Latency of this tenant's demand fills alone.
    pub fill_latency: LatencySummary,
    /// The tenant's workload knobs, echoed for reproducibility.
    pub workload: WorkloadEcho,
    /// The tenant's server-side byte budget at the end of the run (0 unless
    /// self-hosted).
    pub budget_bytes: u64,
    /// The tenant's cumulative shadow-queue hits (0 unless self-hosted).
    pub shadow_hits: u64,
    /// Evictions charged to this tenant (0 unless self-hosted).
    pub evictions: u64,
}

/// The workload parameters a report was generated with.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkloadEcho {
    /// Popularity model (`zipf:<exponent>`, `uniform`, `hotset`).
    pub keys: String,
    /// Key-universe size.
    pub num_keys: u64,
    /// Fraction of GETs.
    pub get_fraction: f64,
    /// Size model description.
    pub sizes: String,
    /// Base seed.
    pub seed: u64,
}

/// Server-side facts for self-hosted runs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServerEcho {
    /// Number of backend shards.
    pub shards: u64,
    /// Cache budget in bytes.
    pub total_bytes: u64,
    /// Allocator mode (`default`, `hillclimbing`, `cliffhanger`).
    pub allocator: String,
    /// Server worker threads.
    pub workers: u64,
    /// Evictions observed during the run.
    pub evictions: u64,
    /// Whether cross-shard rebalancing was active. (Pre-PR3 reports lack
    /// the `rebalance_*` fields; the perf gate reads reports untyped, so
    /// the committed baselines stay readable.)
    pub rebalance_enabled: bool,
    /// Rebalancing rounds the server ran during the load.
    pub rebalance_runs: u64,
    /// Budget transfers applied between shards.
    pub rebalance_transfers: u64,
    /// Bytes of budget moved between shards.
    pub rebalance_bytes_moved: u64,
    /// Number of tenants the server hosted (1 for single-tenant).
    pub tenant_count: u64,
    /// Whether cross-tenant arbitration was active. (Pre-PR4 reports lack
    /// the `tenant_*`/`arbiter_*` fields; same untyped-reader caveat as the
    /// rebalance fields above.)
    pub arbiter_enabled: bool,
    /// Arbitration rounds the server ran during the load.
    pub arbiter_runs: u64,
    /// Budget transfers applied between tenants.
    pub arbiter_transfers: u64,
    /// Bytes of budget moved between tenants.
    pub arbiter_bytes_moved: u64,
    /// Event loops serving the run — the shared-nothing plane's shard
    /// owners. (Pre-PR6 reports lack the `event_loops`/`plane_*`/
    /// `shard_owner_loops` fields; same untyped-reader caveat as above.)
    pub event_loops: u64,
    /// Data ops executed directly on the loop owning both the connection
    /// and the key's shard (the zero-lock fast path).
    pub plane_local_ops: u64,
    /// Data ops forwarded to the owning loop as cross-loop messages.
    pub plane_remote_ops: u64,
    /// Admin commands (`stats`, `flush_all`, `app_create`, `app_list`)
    /// served by the control thread during the run.
    pub plane_admin_msgs: u64,
    /// The owning event loop of each shard, indexed by shard
    /// (`owner(shard) = shard % event_loops`).
    pub shard_owner_loops: Vec<u64>,
    /// Connections the idle reaper closed during the run. (Pre-PR7 reports
    /// lack the `idle_closed_connections`/`slow_ops` fields; same
    /// untyped-reader caveat as above.)
    pub idle_closed_connections: u64,
    /// Ops that exceeded the server's slow-op threshold (0 when the
    /// threshold is disabled).
    pub slow_ops: u64,
    /// The four `hot_key_*` fields always read `false` and 0: the server
    /// no longer replicates hot keys, and the fields stay because
    /// `cliffhanger-loadgen/v1` only ever grows. (Reports older than the
    /// fields lack them; same untyped-reader caveat as above.)
    pub hot_key_enabled: bool,
    /// Always 0.
    pub hot_key_promotions: u64,
    /// Always 0.
    pub hot_key_demotions: u64,
    /// Always 0.
    pub hot_key_replica_hits: u64,
}

/// Schema tag for single-run reports.
pub const LOAD_SCHEMA: &str = "cliffhanger-loadgen/v1";

impl LoadReport {
    /// Serialises to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = LoadReport {
            schema: LOAD_SCHEMA.to_string(),
            mode: "closed".to_string(),
            addr: "127.0.0.1:11211".to_string(),
            connections: 4,
            pipeline: 16,
            requests: 30_000,
            elapsed_secs: 1.5,
            throughput_rps: 20_000.0,
            gets: 27_000,
            get_hits: 20_000,
            hit_rate: 20_000.0 / 27_000.0,
            sets: 3_000,
            latency: LatencySummary {
                count: 30_000,
                p50_us: 100.0,
                p99_us: 900.0,
                p999_us: 2_000.0,
                ..LatencySummary::default()
            },
            ..LoadReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"cliffhanger-loadgen/v1\""));
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests, 30_000);
        assert_eq!(back.latency.p99_us, 900.0);
        assert!(back.server.is_none());
    }
}
