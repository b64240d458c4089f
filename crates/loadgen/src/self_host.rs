//! Self-hosted runs: start an in-process [`CacheServer`], drive the
//! configured load at it over TCP, and attach the server's own view of the
//! run (the text `stats` counters and the scraped `stats json` document) to
//! the report.

use crate::report::ServerEcho;
use crate::runner::{run_load, LoadgenConfig};
use crate::LoadReport;
use cache_server::{
    BackendConfig, BackendMode, CacheServer, HotKeyConfig, ServerConfig, TenantSpec,
};
use cliffhanger::ShardBalanceConfig;
use serde_json::Value;

/// Configuration for self-hosted runs (the server the loadgen spawns).
#[derive(Clone, Debug)]
pub struct SelfHostConfig {
    /// Cache budget in bytes.
    pub total_bytes: u64,
    /// Allocator mode.
    pub mode: BackendMode,
    /// Server event-loop threads; 0 auto-detects (one per CPU, capped —
    /// see [`cache_server::default_event_loops`]). Loops multiplex many
    /// connections each, so this no longer needs to track the connection
    /// count.
    pub workers: usize,
    /// Whether the backend's cross-shard rebalancer runs (the backend
    /// default; turn off to measure static per-shard splits).
    pub rebalance: bool,
    /// Whether the cross-tenant arbiter runs (off = Memcachier-style static
    /// reservations).
    pub tenant_balance: bool,
    /// Idle connection reaping timeout in milliseconds; 0 disables reaping
    /// (the server default). Loadgen connections are busy, so this is only
    /// interesting for experiments that deliberately leak sessions.
    pub idle_timeout_ms: u64,
    /// Slow-op log threshold in microseconds; 0 disables the log (the
    /// server default). Ops at or over the threshold are counted in the
    /// server's `slow_ops` stat and sampled into its flight-recorder
    /// journal; the per-loop latency histograms record regardless.
    pub slow_op_micros: u64,
    /// Online MRC sampling rate denominator (the server default profiles
    /// one in 64 GETs; rounded up to a power of two; 0 disables live
    /// miss-ratio-curve profiling).
    pub mrc_sample: u64,
    /// Enable hot-key detection and per-loop replication
    /// (`--hot-key-promote`): the aggressive profile — sample every GET,
    /// promote fast, round often — so short runs exercise the whole
    /// promote/replicate/invalidate cycle.
    pub hot_key_promote: bool,
}

impl Default for SelfHostConfig {
    fn default() -> Self {
        SelfHostConfig {
            total_bytes: 64 << 20,
            mode: BackendMode::Cliffhanger,
            workers: 0,
            rebalance: true,
            tenant_balance: true,
            idle_timeout_ms: 0,
            slow_op_micros: 0,
            mrc_sample: BackendConfig::default().mrc_sample,
            hot_key_promote: false,
        }
    }
}

fn stat_u64(stats: &[(String, String)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Starts an in-process server with `shards` shards, runs the configured
/// load against it, and returns the report with server-side facts attached.
pub fn run_self_hosted(
    load: &LoadgenConfig,
    host: &SelfHostConfig,
    shards: usize,
) -> std::io::Result<LoadReport> {
    let workers = if host.workers > 0 {
        host.workers
    } else {
        cache_server::default_event_loops()
    };
    // Host every tenant the load will select, reservation weight = traffic
    // weight, so a multi-tenant load self-hosts without repeating itself.
    let tenants: Vec<TenantSpec> = load
        .tenants
        .iter()
        .filter(|t| t.name != "default")
        .map(|t| TenantSpec::new(t.name.clone(), t.weight.max(1)))
        .collect();
    let mut server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        // Self-hosted runs size the accept gate generously above the
        // configured connection count; gate behaviour is the server tests'
        // concern, not the load generator's.
        max_connections: (load.connections * 2).max(4096),
        idle_timeout: (host.idle_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(host.idle_timeout_ms)),
        slow_op_micros: host.slow_op_micros,
        backend: BackendConfig {
            total_bytes: host.total_bytes,
            mode: host.mode,
            shards,
            rebalance: if host.rebalance {
                ShardBalanceConfig::default()
            } else {
                ShardBalanceConfig::disabled()
            },
            tenants,
            tenant_balance: if host.tenant_balance {
                ShardBalanceConfig::tenant_default()
            } else {
                ShardBalanceConfig::disabled()
            },
            mrc_sample: host.mrc_sample,
            hot_key: if host.hot_key_promote {
                HotKeyConfig::aggressive()
            } else {
                HotKeyConfig::default()
            },
        },
    })?;
    let mut config = load.clone();
    config.addr = server.local_addr().to_string();
    let result = run_load(&config);
    let stats = server.cache().stats();
    // Scrape the machine-readable telemetry document over the wire — the
    // same `stats json` surface an operator's collector would hit — so the
    // report embeds the server's own view of the run (per-loop service-time
    // histograms, slow ops, the control-plane journal).
    let server_stats = cache_server::CacheClient::connect(server.local_addr())
        .and_then(|mut c| c.stats_json())
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok());
    server.shutdown();
    let mut report = result?;
    report.server_stats = server_stats;
    // Hot-key facts come from the scraped document, not the text stats —
    // the legacy text key set is pinned (see the server's stats_keys test)
    // and additive telemetry lands in `stats json` only.
    let hot_doc = report
        .server_stats
        .as_ref()
        .and_then(|doc| doc.get("hot_keys"));
    let hot_u64 = |name: &str| -> u64 {
        hot_doc
            .and_then(|h| h.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    report.server = Some(ServerEcho {
        shards: server.cache().shard_count() as u64,
        total_bytes: host.total_bytes,
        allocator: format!("{:?}", host.mode).to_lowercase(),
        workers: workers as u64,
        evictions: stat_u64(&stats, "evictions"),
        rebalance_enabled: stat_u64(&stats, "rebalance:enabled") == 1,
        rebalance_runs: stat_u64(&stats, "rebalance:runs"),
        rebalance_transfers: stat_u64(&stats, "rebalance:transfers"),
        rebalance_bytes_moved: stat_u64(&stats, "rebalance:bytes_moved"),
        tenant_count: stat_u64(&stats, "tenant_count").max(1),
        arbiter_enabled: stat_u64(&stats, "arbiter:enabled") == 1,
        arbiter_runs: stat_u64(&stats, "arbiter:runs"),
        arbiter_transfers: stat_u64(&stats, "arbiter:transfers"),
        arbiter_bytes_moved: stat_u64(&stats, "arbiter:bytes_moved"),
        event_loops: stat_u64(&stats, "plane:event_loops"),
        plane_local_ops: stat_u64(&stats, "plane:local_ops"),
        plane_remote_ops: stat_u64(&stats, "plane:remote_ops"),
        plane_admin_msgs: stat_u64(&stats, "plane:admin_msgs"),
        shard_owner_loops: (0..server.cache().shard_count())
            .map(|s| stat_u64(&stats, &format!("shard:{s}:owner_loop")))
            .collect(),
        idle_closed_connections: stat_u64(&stats, "idle_closed_connections"),
        slow_ops: stat_u64(&stats, "plane:slow_ops"),
        hot_key_enabled: hot_doc.is_some(),
        hot_key_promotions: hot_u64("promotions"),
        hot_key_demotions: hot_u64("demotions"),
        hot_key_replica_hits: hot_u64("replica_hits"),
    });
    // Attach each tenant section's server-side facts (budget, gradient
    // signal, evictions) from the per-tenant stats lines.
    for section in &mut report.tenants {
        let name = &section.tenant;
        section.budget_bytes = stat_u64(&stats, &format!("tenant:{name}:budget"));
        section.shadow_hits = stat_u64(&stats, &format!("tenant:{name}:shadow_hits"));
        section.evictions = stat_u64(&stats, &format!("tenant:{name}:evictions"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
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
        let host = SelfHostConfig {
            workers: 2,
            ..SelfHostConfig::default()
        };
        let report = run_self_hosted(&tiny_load(), &host, 2).unwrap();
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
        let host = SelfHostConfig {
            total_bytes: 12 << 20,
            ..SelfHostConfig::default()
        };
        let report = run_self_hosted(&load, &host, 2).unwrap();
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
        let host = SelfHostConfig {
            total_bytes: 2 << 20,
            ..SelfHostConfig::default()
        };
        let report = run_self_hosted(&tiny_load(), &host, 8).unwrap();
        assert_eq!(report.server.unwrap().shards, 2);
    }
}
