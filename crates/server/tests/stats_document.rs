//! End-to-end validation of the machine-readable telemetry plane:
//! `stats json` must return a schema-valid `cliffhanger-stats/v1` document
//! carrying per-loop service-time quantiles, and after a rebalancing run
//! under genuine skew the flight-recorder journal must hold at least one
//! shard-transfer event *with the gradients that justified it* — the
//! paper's §4 decision evidence, scrapeable from the wire.

use bytes::Bytes;
use cache_core::hash_bytes;
use cache_core::key::mix64;
use cache_server::{
    BackendConfig, BackendMode, CacheClient, CacheServer, ServerConfig, TenantSpec,
};
use cliffhanger::ShardBalanceConfig;
use serde_json::Value;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use telemetry::EventKind;

/// The shard a byte-string key routes to for the default tenant (same
/// double hash as the backend), so the load can be deliberately skewed —
/// uniform demand would leave the rebalancer nothing to narrate.
fn shard_of(key: &str, shards: u64) -> usize {
    (mix64(hash_bytes(key.as_bytes())) % shards) as usize
}

fn pinned_keys(shard: usize, count: usize) -> Vec<String> {
    (0u64..)
        .map(|i| format!("s{shard}-k{i}"))
        .filter(|k| shard_of(k, 4) == shard)
        .take(count)
        .collect()
}

#[test]
fn stats_json_carries_latency_quantiles_and_transfer_evidence() {
    let server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        // 1µs threshold: forwarded ops pay a cross-thread mailbox hop, so
        // the slow-op log must trip under this load.
        slow_op_micros: 1,
        backend: BackendConfig {
            total_bytes: 8 << 20,
            mode: BackendMode::Cliffhanger,
            shards: 4,
            rebalance: ShardBalanceConfig {
                interval_requests: 512,
                credit_bytes: 64 << 10,
                min_shard_bytes: 256 << 10,
                min_gradient_gap: 2,
                hysteresis: 0.05,
                ..ShardBalanceConfig::default()
            },
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    let handle = server.cache();

    // Shard 0 cycles a working set just past its physical capacity
    // (get-then-set-on-miss, so every miss lands inside the shadow window
    // and registers a shadow hit — the rebalancer's gradient fuel) while
    // shard 3 holds a tiny fully resident set, keeping the gap open. The
    // capacity is an engine-internal quantity, so the working-set size
    // adapts: whenever a pass yields no new shadow hits, grow it.
    let storm_pool = pinned_keys(0, 30_000);
    let steady_keys = pinned_keys(3, 100);
    let payload = Bytes::from(vec![b'x'; 200]);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut working_set = 3_000usize;
    let mut last_shadow_hits = 0u64;
    loop {
        for key in &steady_keys {
            if handle.get(key.as_bytes()).is_none() {
                handle.set(key.as_bytes(), 0, payload.clone());
            }
        }
        for key in &storm_pool[..working_set] {
            if handle.get(key.as_bytes()).is_none() {
                handle.set(key.as_bytes(), 0, payload.clone());
            }
        }
        handle.rebalance_now();
        let stats: HashMap<String, String> = handle.stats().into_iter().collect();
        if stats["rebalance:transfers"].parse::<u64>().unwrap() > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "skewed load must eventually produce a transfer: {stats:?}"
        );
        let shadow_hits: u64 = stats["shard:0:shadow_hits"].parse().unwrap();
        if shadow_hits == last_shadow_hits && working_set < storm_pool.len() {
            // No gradient signal this pass: the reuse distance is either
            // inside physical capacity (all hits) or past the shadow
            // window (plain misses). Step outward until it bites.
            working_set = (working_set + 300).min(storm_pool.len());
        }
        last_shadow_hits = shadow_hits;
    }

    // Wire traffic too, so the *local* histograms are fed (a connection's
    // loop owns half the shards; PlaneHandle ops are all mailbox-remote).
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    for i in 0..300 {
        let key = format!("wire-{i}");
        assert!(client.set(key.as_bytes(), 0, b"v").unwrap());
        client.get(key.as_bytes()).unwrap();
    }

    let json = client.stats_json().unwrap();
    let doc: Value = serde_json::from_str(&json).expect("stats json must parse");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("cliffhanger-stats/v1")
    );
    // The top-level key set consumers of `cliffhanger-stats/v1` pin:
    // `hot_keys` stays, always `null`.
    let Value::Map(sections) = &doc else {
        panic!("stats json must be an object: {json}");
    };
    let keys: Vec<&str> = sections.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "server_start",
            "snapshot_unix_us",
            "uptime_s",
            "counters",
            "process",
            "capacity",
            "balance",
            "connections",
            "service_latency",
            "loops",
            "tenants",
            "shards",
            "plane",
            "journal",
            "mrc",
            "hot_keys",
            "history",
            "allocator",
        ]
    );
    assert_eq!(doc.get("hot_keys"), Some(&Value::Null));

    // Per-loop service-time sections, with real samples behind them.
    let loops = doc.get("loops").and_then(Value::as_array).unwrap();
    assert_eq!(loops.len(), 2);
    for entry in loops {
        for class in ["local_latency", "remote_latency"] {
            let summary = entry.get(class).expect("per-loop latency section");
            for field in ["count", "mean_us", "p50_us", "p99_us", "max_us"] {
                assert!(
                    summary.get(field).and_then(Value::as_f64).is_some(),
                    "loop latency summary must carry {field}"
                );
            }
        }
    }
    let service = doc.get("service_latency").unwrap();
    for class in ["local", "remote"] {
        let count = service
            .get(class)
            .and_then(|s| s.get("count"))
            .and_then(Value::as_u64)
            .unwrap();
        assert!(
            count > 0,
            "{class} service-time histogram must have samples"
        );
    }

    // The slow-op log tripped (mailbox hops exceed 1µs) and is counted in
    // both the document and the legacy text surface.
    let slow_ops = doc
        .get("counters")
        .and_then(|c| c.get("slow_ops"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(slow_ops > 0, "1µs threshold must trip under forwarded load");
    let stats: HashMap<String, String> = client.stats().unwrap().into_iter().collect();
    assert_eq!(stats["plane:slow_ops"].parse::<u64>().unwrap(), slow_ops);

    // The journal holds the transfer with the gradient evidence.
    let events = doc
        .get("journal")
        .and_then(|j| j.get("events"))
        .and_then(Value::as_array)
        .unwrap();
    let transfer = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(|k| k.get("ShardTransfer")))
        .next()
        .expect("journal must record the shard transfer");
    assert!(transfer.get("bytes").and_then(Value::as_u64).unwrap() > 0);
    assert!(transfer
        .get("from_gradient")
        .and_then(Value::as_f64)
        .is_some());
    assert!(transfer
        .get("to_gradient")
        .and_then(Value::as_f64)
        .is_some());

    // The typed journal surface agrees with the JSON exposition.
    let typed = handle.journal_events();
    let (bytes_moved, from_g, to_g) = typed
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::ShardTransfer {
                bytes,
                from_gradient,
                to_gradient,
                ..
            } => Some((*bytes, *from_gradient, *to_gradient)),
            _ => None,
        })
        .expect("typed journal must expose the transfer");
    assert!(bytes_moved > 0);
    assert!(from_g.is_finite() && to_g.is_finite());

    // The Prometheus rendering comes from the same document.
    let prom = client.stats_prom().unwrap();
    assert!(prom.contains("# TYPE cliffhanger_cmd_get_total counter"));
    assert!(
        prom.contains("cliffhanger_service_time_microseconds{class=\"local\",quantile=\"0.99\"}")
    );
    assert!(prom.contains("cliffhanger_rebalance_transfers_total"));
    assert!(prom.contains("cliffhanger_slow_ops_total"));
    assert!(prom.contains("# TYPE cliffhanger_process_rss_bytes gauge"));

    // Where the memory goes: the engines' indexes, queue arenas and (the
    // storm evicted) shadows, each a part of the resident set.
    let process = doc.get("process").unwrap();
    let bytes = |key: &str| process.get(key).and_then(Value::as_u64).unwrap();
    for key in ["index_bytes", "queue_bytes", "shadow_bytes"] {
        assert!(bytes(key) > 0 && bytes(key) < bytes("rss_bytes"), "{key}");
        assert!(prom.contains(&format!("# TYPE cliffhanger_process_{key} gauge")));
    }
}

/// Where in the `stats json` document a text `stats` key's value lives, as
/// a `/`-separated walk of map keys and array indices.
fn path_of(key: &str, tenants: &[&str]) -> String {
    let parts: Vec<&str> = key.split(':').collect();
    match parts[..] {
        ["uptime"] => "uptime_s".into(),
        ["limit_maxbytes" | "allocator" | "shard_count" | "shards_requested" | "tenant_count"] => {
            format!("capacity/{key}")
        }
        ["curr_connections"] => "connections/curr".into(),
        ["total_connections"] => "connections/total".into(),
        ["rejected_connections"] => "connections/rejected".into(),
        ["max_connections"] => "connections/max".into(),
        ["idle_closed_connections"] => "connections/idle_closed".into(),
        [field] => format!("counters/{field}"),
        [level @ ("rebalance" | "arbiter"), field] => format!("balance/{level}_{field}"),
        ["plane", "event_loops"] => "capacity/event_loops".into(),
        ["plane", "slow_ops"] => "counters/slow_ops".into(),
        ["plane" | "process", field] => format!("{}/{field}", parts[0]),
        ["conns", "loop", i] => format!("connections/per_loop/{i}"),
        ["loop", i, field] => format!("loops/{i}/{field}"),
        ["shard", s, field] => format!("shards/{s}/{field}"),
        ["tenant", name, field] => {
            let t = tenants.iter().position(|n| *n == name).unwrap();
            format!("tenants/{t}/{field}")
        }
        _ => panic!("text stats key {key} has no place in the document"),
    }
}

/// The document value at `path`, printed the way text `stats` prints it.
fn leaf(doc: &Value, path: &str) -> String {
    let mut at = doc;
    for seg in path.split('/') {
        at = match at.as_array() {
            Some(items) => &items[seg.parse::<usize>().unwrap()],
            None => at
                .get(seg)
                .unwrap_or_else(|| panic!("the document has no {path}")),
        };
    }
    match (at.as_str(), at.as_u64()) {
        (Some(s), _) => s.to_string(),
        (_, Some(n)) => n.to_string(),
        _ if *at == Value::Bool(true) => "1".into(),
        _ if *at == Value::Bool(false) => "0".into(),
        _ => panic!("{path} is not a text stats value: {at:?}"),
    }
}

#[test]
fn text_stats_is_the_document_key_for_key() {
    let server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        backend: BackendConfig {
            total_bytes: 8 << 20,
            mode: BackendMode::Cliffhanger,
            shards: 4,
            tenants: vec![TenantSpec::new("second", 1)],
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    let tenants = ["default", "second"];

    // Reads, writes, deletes and misses for both tenants, spread over all
    // four shards and both loops. The client is synchronous, so once the
    // last reply is in the server is quiescent between the two scrapes.
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    for (t, name) in tenants.iter().enumerate() {
        assert!(client.app(name).unwrap());
        for i in 0..(120 + 40 * t) {
            let key = format!("{name}-{i}");
            assert!(client.set(key.as_bytes(), 0, b"value").unwrap());
            assert!(client.get(key.as_bytes()).unwrap().is_some());
            if i % 3 == 0 {
                assert!(client.delete(key.as_bytes()).unwrap());
                assert!(client.get(key.as_bytes()).unwrap().is_none());
            }
        }
    }
    let text = client.stats().unwrap();
    let doc: Value = serde_json::from_str(&client.stats_json().unwrap()).unwrap();

    let number = |key: &str| -> u64 {
        let (_, v) = text.iter().find(|(k, _)| k == key).unwrap();
        v.parse().unwrap()
    };
    for key in ["get_hits", "get_misses", "cmd_set", "cmd_delete"] {
        assert!(number(key) > 0, "{key} must have been exercised");
        for prefix in ["tenant:default", "tenant:second"] {
            assert!(number(&format!("{prefix}:{key}")) > 0, "{prefix}:{key}");
        }
        let over_shards: u64 = (0..4).map(|s| number(&format!("shard:{s}:{key}"))).sum();
        assert_eq!(over_shards, number(key), "shards partition {key}");
    }

    for (key, value) in &text {
        match key.as_str() {
            // Derived, not stored: the even per-shard share of the limit.
            "shard_bytes" => assert_eq!(
                number(key),
                number("limit_maxbytes") / number("shard_count")
            ),
            // A second may tick between the two scrapes.
            "uptime" => {
                let later: u64 = leaf(&doc, "uptime_s").parse().unwrap();
                assert!((number(key)..=number(key) + 1).contains(&later));
            }
            // Resident memory is read afresh by every scrape.
            "process:rss_bytes" => {
                let later: u64 = leaf(&doc, "process/rss_bytes").parse().unwrap();
                assert!(number(key) > 0 && later > 0);
            }
            // The `stats json` scrape is itself one more admin message.
            "plane:admin_msgs" => assert_eq!(
                leaf(&doc, "plane/admin_msgs"),
                (number(key) + 1).to_string()
            ),
            _ => {
                let path = path_of(key, &tenants);
                assert_eq!(leaf(&doc, &path), *value, "text `{key}` vs `{path}`");
            }
        }
    }
}
