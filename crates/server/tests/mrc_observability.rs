//! End-to-end validation of the live MRC observability plane.
//!
//! The server profiles sampled GETs into per-tenant online miss-ratio
//! curves (paper §5's profiler, run *live* against production traffic
//! instead of offline traces). These tests drive a Zipf-skewed GET stream
//! through the data plane, replay the identical reference stream into the
//! exact Fenwick-tree stack-distance simulator, and require the `stats
//! json` curve to agree with the exact curve at every probed scale — at
//! the degenerate R=1 rate (every GET profiled) and at the production
//! R=1/64 spatial sample. They also pin the `history` time-series and
//! `allocator` sections, and the Prometheus label escaping for hostile
//! tenant names.

use bytes::Bytes;
use cache_core::{hash_bytes, Key};
use cache_server::{
    BackendConfig, BackendMode, CacheClient, CacheServer, ServerConfig, TenantSpec,
};
use profiler::StackDistanceTracker;
use serde_json::Value;
use std::time::Duration;

/// Deterministic xorshift64* generator — no external RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipf(1.0) rank sampler by CDF inversion over precomputed weights.
struct Zipf {
    cdf: Vec<f64>,
    rng: XorShift,
}

impl Zipf {
    fn new(distinct: usize, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(distinct);
        let mut acc = 0.0;
        for rank in 1..=distinct {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        Zipf {
            cdf,
            rng: XorShift(seed),
        }
    }

    fn next_rank(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf.partition_point(|&p| p < u)
    }
}

fn start_server(mrc_sample: u64, tenants: Vec<TenantSpec>) -> CacheServer {
    CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        backend: BackendConfig {
            total_bytes: 2 << 20,
            mode: BackendMode::Cliffhanger,
            shards: 4,
            mrc_sample,
            tenants,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start")
}

/// Drives `requests` Zipf GETs for the default tenant and returns the exact
/// reference curve over the identical key stream (same 64-bit cache keys
/// the plane routes on, so reuse distances match by construction) and the
/// number of distinct keys the stream requested.
fn drive_zipf(
    server: &CacheServer,
    distinct: usize,
    requests: usize,
) -> (profiler::HitRateCurve, usize) {
    let handle = server.cache();
    let payload = Bytes::from(vec![b'v'; 400]);
    // Store a slice of the key population so the document can express the
    // tenant budget in items (mean live item footprint needs live items).
    for rank in 0..400.min(distinct) {
        handle.set(format!("z{rank}").as_bytes(), 0, payload.clone());
    }
    let mut zipf = Zipf::new(distinct, 0x5eed);
    let mut exact = StackDistanceTracker::new();
    let mut slept = false;
    for i in 0..requests {
        let key = format!("z{}", zipf.next_rank());
        handle.get(key.as_bytes());
        exact.record(Key::new(hash_bytes(key.as_bytes())));
        if !slept && i == requests / 2 {
            // Straddle a history-interval boundary so the merged time
            // series holds at least two buckets (rates need a difference).
            std::thread::sleep(Duration::from_millis(1100));
            slept = true;
        }
    }
    (exact.to_curve(), exact.distinct_keys())
}

fn stats_doc(server: &CacheServer) -> Value {
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let json = client.stats_json().unwrap();
    serde_json::from_str(&json).expect("stats json must parse")
}

fn default_tenant_mrc(doc: &Value) -> Value {
    doc.get("mrc")
        .and_then(|m| m.get("tenants"))
        .and_then(Value::as_array)
        .and_then(|ts| {
            ts.iter()
                .find(|t| t.get("name").and_then(Value::as_str) == Some("default"))
        })
        .expect("mrc section must carry the default tenant")
        .clone()
}

/// Asserts every probed point of the live curve against the exact
/// simulator within `tolerance` (absolute hit-rate error).
fn assert_curve_agrees(tenant: &Value, exact: &profiler::HitRateCurve, tolerance: f64) {
    let points = tenant
        .get("points")
        .and_then(Value::as_array)
        .expect("mrc points");
    assert!(
        points.len() >= 5,
        "every configured probe scale must be present: {points:?}"
    );
    for point in points {
        let items = point.get("items").and_then(Value::as_u64).unwrap();
        let live = point.get("hit_rate").and_then(Value::as_f64).unwrap();
        let reference = exact.hit_rate_at(items);
        assert!(
            (live - reference).abs() <= tolerance,
            "live MRC diverges from the exact simulator at {items} items: \
             live {live:.3} vs exact {reference:.3} (tolerance {tolerance})"
        );
    }
}

#[test]
fn live_mrc_matches_exact_curve_at_full_sampling() {
    let server = start_server(1, Vec::new());
    let (exact, _) = drive_zipf(&server, 2_500, 40_000);
    let doc = stats_doc(&server);

    let mrc = doc.get("mrc").expect("mrc section must be present");
    assert_eq!(mrc.get("sample_shift").and_then(Value::as_u64), Some(0));
    assert_eq!(mrc.get("sample_rate").and_then(Value::as_f64), Some(1.0));

    let tenant = default_tenant_mrc(&doc);
    let offered = tenant.get("offered").and_then(Value::as_u64).unwrap();
    let sampled = tenant.get("sampled").and_then(Value::as_u64).unwrap();
    assert_eq!(offered, 40_000, "every data-plane GET must be offered");
    assert_eq!(sampled, offered, "R=1 must sample every offered GET");
    assert!(tenant.get("budget_items").and_then(Value::as_u64).unwrap() > 0);
    // Acceptance bound: within 3pp of the exact curve at every probe.
    assert_curve_agrees(&tenant, &exact, 0.03);

    // The history ring differenced at least one interval of real traffic.
    let history = doc.get("history").expect("history section");
    assert_eq!(
        history.get("interval_us").and_then(Value::as_u64),
        Some(1_000_000)
    );
    let windows = history
        .get("windows")
        .and_then(Value::as_array)
        .expect("history windows");
    assert!(
        !windows.is_empty(),
        "a >1s run must produce at least one differenced window"
    );
    let busy = windows.iter().any(|w| {
        w.get("tenants")
            .and_then(Value::as_array)
            .map(|ts| {
                ts.iter().any(|t| {
                    t.get("name").and_then(Value::as_str) == Some("default")
                        && t.get("ops_per_sec").and_then(Value::as_f64).unwrap_or(0.0) > 0.0
                })
            })
            .unwrap_or(false)
    });
    assert!(busy, "some window must show default-tenant throughput");
    for w in windows {
        assert!(w.get("unix_us").and_then(Value::as_u64).is_some());
        assert!(w.get("seconds").and_then(Value::as_f64).unwrap() > 0.0);
    }

    // The allocator join section is always present (empty without
    // transfers) and the clock fields are coherent.
    let allocator = doc.get("allocator").expect("allocator section");
    assert!(allocator.get("window_us").and_then(Value::as_u64).is_some());
    assert!(allocator
        .get("transfers")
        .and_then(Value::as_array)
        .is_some());
    let start = doc.get("server_start").and_then(Value::as_u64).unwrap();
    let snap_at = doc.get("snapshot_unix_us").and_then(Value::as_u64).unwrap();
    assert!(start > 0 && snap_at >= start);
    assert!(doc.get("uptime_s").and_then(Value::as_u64).is_some());

    // The Prometheus rendering exposes the same curve points.
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let prom = client.stats_prom().unwrap();
    assert!(prom.contains("# TYPE cliffhanger_tenant_mrc_hit_rate gauge"));
    assert!(prom.contains("cliffhanger_tenant_mrc_hit_rate{app=\"default\",scale=\"1\"}"));
    assert!(prom.contains("cliffhanger_uptime_seconds"));
}

#[test]
fn sampled_mrc_tracks_exact_curve_at_production_rate() {
    let server = start_server(64, Vec::new());
    let (exact, requested) = drive_zipf(&server, 8_000, 240_000);
    let doc = stats_doc(&server);

    let mrc = doc.get("mrc").expect("mrc section must be present");
    assert_eq!(mrc.get("sample_shift").and_then(Value::as_u64), Some(6));

    let tenant = default_tenant_mrc(&doc);
    let offered = tenant.get("offered").and_then(Value::as_u64).unwrap();
    assert_eq!(offered, 240_000);
    // SHARDS samples keys, not references: the share of the requested keys
    // it tracks is the rate to bound. (The share of references it sees
    // jumps whenever the key hash happens to sample the hottest key.)
    let tracked = tenant.get("tracked_keys").and_then(Value::as_u64).unwrap();
    let rate = tracked as f64 / requested as f64;
    assert!(
        (0.5 / 64.0..=2.0 / 64.0).contains(&rate),
        "spatial sampling must track near 1/64 of the keys: {tracked} of {requested}"
    );
    assert!(
        tracked < 500,
        "the sampled estimator must track a small key subset: {tracked}"
    );
    // A 1/64 spatial sample carries statistical error; the SHARDS-adjusted
    // estimate must still land within 10pp everywhere.
    assert_curve_agrees(&tenant, &exact, 0.10);
}

#[test]
fn profiling_disabled_omits_the_mrc_section() {
    let server = start_server(0, Vec::new());
    let handle = server.cache();
    handle.set(b"k", 0, Bytes::from_static(b"v"));
    handle.get(b"k");
    let doc = stats_doc(&server);
    assert!(
        doc.get("mrc")
            .map(|v| matches!(v, Value::Null))
            .unwrap_or(true),
        "mrc_sample=0 must omit the mrc section"
    );
    // History and the clock fields do not depend on profiling.
    assert!(doc.get("history").is_some());
    assert!(doc.get("server_start").and_then(Value::as_u64).unwrap() > 0);
}

#[test]
fn prom_labels_escape_hostile_tenant_names() {
    // Quotes and backslashes are legal ASCII-graphic tenant-name bytes and
    // must be escaped, not emitted raw, in every label position.
    let name = r#"he"llo\x"#;
    let server = start_server(64, vec![TenantSpec::new(name, 1)]);
    let handle = server.cache();
    let tenant = handle.tenant_index(name).expect("tenant must resolve");
    handle.set_for(tenant, b"k", 0, Bytes::from_static(b"v"));
    handle.get_for(tenant, b"k");

    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let prom = client.stats_prom().unwrap();
    let escaped = r#"he\"llo\\x"#;
    for series in [
        format!("cliffhanger_tenant_bytes_used{{tenant=\"{escaped}\"}}"),
        format!("cliffhanger_tenant_budget_bytes{{tenant=\"{escaped}\"}}"),
        format!("cliffhanger_tenant_cmd_get{{app=\"{escaped}\"}}"),
        format!("cliffhanger_tenant_get_hits{{app=\"{escaped}\"}}"),
        format!("cliffhanger_tenant_bytes{{app=\"{escaped}\"}}"),
        format!("cliffhanger_tenant_budget{{app=\"{escaped}\"}}"),
    ] {
        assert!(
            prom.contains(&series),
            "exposition must carry the escaped label: {series}\n{prom}"
        );
    }
    assert!(
        !prom.contains(&format!("app=\"{name}\"")),
        "raw unescaped tenant names must never reach the exposition"
    );
}
