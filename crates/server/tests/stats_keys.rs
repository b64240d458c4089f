//! Regression pin of the legacy text `stats` surface.
//!
//! The committed benchmark baselines, the CI smoke validators and any
//! operator tooling scripted against `stats` parse these keys *by name*,
//! and several consumers also rely on section ordering (aggregates first,
//! then per-tenant, then per-shard, then the plane section). A renamed or
//! reordered key is therefore a breaking change that must show up as a test
//! diff, not as a silently green build — machine-readable additions go to
//! `stats json`, never into renaming this surface.
//!
//! The surface is pinned over both the plain and the Cliffhanger allocator.

use cache_server::{BackendConfig, BackendMode, CacheClient, CacheServer, ServerConfig};

/// The aggregate head section.
fn head_keys() -> Vec<String> {
    [
        "cmd_get",
        "cmd_set",
        "get_hits",
        "get_misses",
        "cmd_delete",
        "bytes",
        "curr_items",
        "evictions",
        "uptime",
        "limit_maxbytes",
        "allocator",
        "shard_count",
        "shards_requested",
        "shard_bytes",
        "tenant_count",
        "rebalance:enabled",
        "rebalance:runs",
        "rebalance:transfers",
        "rebalance:bytes_moved",
        "arbiter:enabled",
        "arbiter:runs",
        "arbiter:transfers",
        "arbiter:bytes_moved",
    ]
    .map(String::from)
    .to_vec()
}

/// One tenant's or shard's per-engine breakdown under `prefix`.
fn engine_keys(prefix: &str) -> Vec<String> {
    [
        "cmd_get",
        "cmd_set",
        "get_hits",
        "get_misses",
        "cmd_delete",
        "bytes",
        "curr_items",
        "evictions",
        "budget",
        "shadow_hits",
    ]
    .map(|k| format!("{prefix}:{k}"))
    .to_vec()
}

/// The full expected key sequence for the server: head, connections,
/// tenants, shards, the data-plane section, then the process section.
fn server_keys(shards: usize, loops: usize) -> Vec<String> {
    let mut keys = head_keys();
    keys.extend(
        [
            "curr_connections",
            "total_connections",
            "rejected_connections",
            "max_connections",
        ]
        .map(String::from),
    );
    for i in 0..loops {
        keys.push(format!("conns:loop:{i}"));
    }
    keys.push("idle_closed_connections".into());
    keys.extend(engine_keys("tenant:default"));
    for s in 0..shards {
        keys.extend(engine_keys(&format!("shard:{s}")));
    }
    keys.extend(
        [
            "plane:event_loops",
            "plane:local_ops",
            "plane:remote_ops",
            "plane:admin_msgs",
            "plane:idle_timeout_ms",
            "plane:slow_ops",
        ]
        .map(String::from),
    );
    for i in 0..loops {
        keys.push(format!("loop:{i}:local_ops"));
        keys.push(format!("loop:{i}:remote_in"));
        keys.push(format!("loop:{i}:remote_out"));
    }
    for s in 0..shards {
        keys.push(format!("shard:{s}:owner_loop"));
    }
    keys.extend(
        [
            "process:rss_bytes",
            "process:items",
            "process:item_payload_bytes",
            "process:index_bytes",
            "process:queue_bytes",
            "process:shadow_bytes",
        ]
        .map(String::from),
    );
    keys
}

fn assert_keys(label: &str, stats: &[(String, String)], expected: &[String]) {
    let actual: Vec<&String> = stats.iter().map(|(k, _)| k).collect();
    let expected: Vec<&String> = expected.iter().collect();
    assert_eq!(
        actual, expected,
        "{label}: the legacy `stats` key set/order is a compatibility \
         surface; additions belong in `stats json`"
    );
}

#[test]
fn server_stats_keys_are_pinned() {
    for mode in [BackendMode::Default, BackendMode::Cliffhanger] {
        let server = CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backend: BackendConfig {
                total_bytes: 8 << 20,
                mode,
                shards: 2,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start");
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        client.set(b"k", 0, b"v").unwrap();
        assert_keys(
            &format!("server/{mode:?}"),
            &client.stats().unwrap(),
            &server_keys(2, 2),
        );
    }
}
