//! Self-hosted runs: start an in-process [`CacheServer`], drive the
//! configured load at it over TCP, and attach the server's own view of the
//! run (its scraped `stats json` document) to the report.

use crate::report::ServerEcho;
use crate::runner::{run_load, LoadgenConfig};
use crate::LoadReport;
use cache_server::{CacheServer, ServerConfig, TenantSpec};
use serde_json::Value;

/// Starts `server` with every tenant the load selects added to the ones
/// it hosts, runs the load against it, and returns the report with the
/// server's scraped `stats json` document and the facts read from it
/// attached.
pub fn run_self_hosted(
    load: &LoadgenConfig,
    mut server: ServerConfig,
) -> std::io::Result<LoadReport> {
    // Host every tenant the load will select, reservation weight = traffic
    // weight, so a multi-tenant load self-hosts without repeating itself.
    server.backend.tenants.extend(
        load.tenants
            .iter()
            .filter(|t| t.name != "default")
            .map(|t| TenantSpec::new(t.name.clone(), t.weight.max(1))),
    );
    let mut server = CacheServer::start(server)?;
    let mut config = load.clone();
    config.addr = server.local_addr().to_string();
    let result = run_load(&config);
    // Scrape the machine-readable telemetry document over the wire — the
    // same `stats json` surface an operator's collector would hit — so the
    // report embeds the server's own view of the run (per-loop service-time
    // histograms, slow ops, the control-plane journal). Every server fact
    // below is read from this one document.
    let server_stats: Option<Value> = cache_server::CacheClient::connect(server.local_addr())
        .and_then(|mut c| c.stats_json())
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok());
    server.shutdown();
    let mut report = result?;
    let doc = server_stats.as_ref();
    let at = |path: &[&str]| path.iter().try_fold(doc?, |v, key| v.get(key));
    let u64_at = |path: &[&str]| at(path).and_then(Value::as_u64).unwrap_or(0);
    let on = |path: &[&str]| at(path) == Some(&Value::Bool(true));
    let list = |key: &str| at(&[key]).and_then(Value::as_array).unwrap_or_default();
    report.server = Some(ServerEcho {
        shards: u64_at(&["capacity", "shard_count"]),
        total_bytes: u64_at(&["capacity", "limit_maxbytes"]),
        allocator: at(&["capacity", "allocator"])
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        workers: u64_at(&["capacity", "event_loops"]),
        evictions: u64_at(&["counters", "evictions"]),
        rebalance_enabled: on(&["balance", "rebalance_enabled"]),
        rebalance_runs: u64_at(&["balance", "rebalance_runs"]),
        rebalance_transfers: u64_at(&["balance", "rebalance_transfers"]),
        rebalance_bytes_moved: u64_at(&["balance", "rebalance_bytes_moved"]),
        tenant_count: u64_at(&["capacity", "tenant_count"]).max(1),
        arbiter_enabled: on(&["balance", "arbiter_enabled"]),
        arbiter_runs: u64_at(&["balance", "arbiter_runs"]),
        arbiter_transfers: u64_at(&["balance", "arbiter_transfers"]),
        arbiter_bytes_moved: u64_at(&["balance", "arbiter_bytes_moved"]),
        event_loops: u64_at(&["capacity", "event_loops"]),
        plane_local_ops: u64_at(&["plane", "local_ops"]),
        plane_remote_ops: u64_at(&["plane", "remote_ops"]),
        plane_admin_msgs: u64_at(&["plane", "admin_msgs"]),
        shard_owner_loops: list("shards")
            .iter()
            .map(|s| s.get("owner_loop").and_then(Value::as_u64).unwrap_or(0))
            .collect(),
        idle_closed_connections: u64_at(&["connections", "idle_closed"]),
        slow_ops: u64_at(&["counters", "slow_ops"]),
        hot_key_enabled: false,
        hot_key_promotions: 0,
        hot_key_demotions: 0,
        hot_key_replica_hits: 0,
    });
    // Each tenant section's server-side facts (budget, gradient signal,
    // evictions) come from the document's tenant list.
    let tenants = list("tenants");
    for section in &mut report.tenants {
        let doc = tenants
            .iter()
            .find(|t| t.get("name").and_then(Value::as_str) == Some(&section.tenant));
        let fact = |key: &str| {
            doc.and_then(|t| t.get(key))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        section.budget_bytes = fact("budget");
        section.shadow_hits = fact("shadow_hits");
        section.evictions = fact("evictions");
    }
    report.server_stats = server_stats;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use cache_server::BackendConfig;
    use workloads::{KeyPopularity, SizeDistribution};

    fn tiny_load() -> LoadgenConfig {
        LoadgenConfig {
            connections: 2,
            requests: 1_500,
            warmup_keys: 300,
            pipeline: 8,
            workload: WorkloadSpec {
                keys: KeyPopularity::Zipf {
                    num_keys: 800,
                    exponent: 0.99,
                },
                sizes: SizeDistribution::Fixed(100),
                ..WorkloadSpec::default()
            },
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn self_hosted_run_attaches_server_facts() {
        // Explicit worker count: loops no longer track connections, and the
        // auto-detected default depends on the host's CPUs.
        let host = ServerConfig {
            workers: 2,
            backend: BackendConfig {
                shards: 2,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        };
        let report = run_self_hosted(&tiny_load(), host).unwrap();
        let server = report.server.expect("self-hosted run must echo server");
        assert_eq!(server.shards, 2);
        assert_eq!(server.workers, 2);
        assert_eq!(report.requests, 1_500);
        assert!(report.throughput_rps > 0.0);
        // The wire-scraped telemetry document rides along, with real
        // per-class service-time samples behind it.
        let stats = report
            .server_stats
            .expect("self-hosted run must scrape stats json");
        assert_eq!(
            stats.get("schema").and_then(|v| v.as_str()),
            Some("cliffhanger-stats/v1")
        );
        let local_count = stats
            .get("service_latency")
            .and_then(|s| s.get("local"))
            .and_then(|s| s.get("count"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let remote_count = stats
            .get("service_latency")
            .and_then(|s| s.get("remote"))
            .and_then(|s| s.get("count"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        assert!(
            local_count + remote_count > 0,
            "the run's ops must land in the server-side histograms"
        );
    }

    #[test]
    fn multi_tenant_self_host_registers_tenants_and_attaches_budgets() {
        use crate::workload::TenantLoad;
        let mut load = tiny_load();
        load.connections = 2;
        load.tenants = vec![
            TenantLoad::new("alpha", 1, load.workload.clone()),
            TenantLoad::new("beta", 1, load.workload.clone()),
        ];
        let host = ServerConfig {
            backend: BackendConfig {
                total_bytes: 12 << 20,
                shards: 2,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        };
        let report = run_self_hosted(&load, host).unwrap();
        let server = report.server.as_ref().expect("server echo");
        assert_eq!(server.tenant_count, 3, "default + alpha + beta");
        assert!(server.arbiter_enabled);
        assert_eq!(report.tenants.len(), 2);
        for section in &report.tenants {
            assert!(
                section.budget_bytes > 0,
                "self-hosted sections carry live budgets: {section:?}"
            );
            assert_eq!(section.errors, 0);
        }
        let budgets: u64 = report.tenants.iter().map(|t| t.budget_bytes).sum();
        assert!(budgets <= 12 << 20, "tenant budgets within the total");
    }

    #[test]
    fn the_echo_carries_the_resolved_shard_count() {
        // 2 MB of cache budget caps the backend at 2 shards (1 MB each), so
        // a requested 8-shard run must be labeled with what actually ran.
        let host = ServerConfig {
            backend: BackendConfig {
                total_bytes: 2 << 20,
                shards: 8,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        };
        let report = run_self_hosted(&tiny_load(), host).unwrap();
        assert_eq!(report.server.unwrap().shards, 2);
    }
}
