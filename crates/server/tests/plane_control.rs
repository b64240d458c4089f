//! The control-plane rules, checked on the code that serves traffic: a
//! server on two event loops driven through its in-process handle
//! ([`CacheServer::cache`]). Each rebalance and arbitration round, tenant
//! flush and `app_create` carve-out below runs in the test's thread under
//! the control lock, changing the shards the loops serve under their shard
//! locks, as a loop's own round does.
//!
//! Covered: the rebalancer moves budget toward a starved shard (and never
//! when disabled or in `Default` mode); the arbiter moves budget toward a
//! starved tenant, through another tenant's flush storm, and toward a tenant
//! onboarded live; `flush_tenant` and `create_tenant` conserve the total,
//! a created tenant gets a byte a shard where every ask is refused, and
//! `create_tenant` is refused (and a start rejected) below a byte an engine;
//! per-shard and per-tenant stats sum to the aggregates; shard
//! auto-detection is budget-capped; the store verbs' semantics in all three
//! allocator modes, and `NOT_STORED` for a `set` whose class cannot hold one
//! item. One test pins [`SharedCache`] to the handle's answers, one runs
//! rounds, `stats` and tenant admin calls on a [`SharedCache`] with no
//! threads, and one holds admin calls to never waiting on a loop with the
//! roster locked (two in a row on idle loops).

use bytes::Bytes;
use cache_core::{hash_bytes, key::mix64};
use cache_server::{
    BackendConfig, BackendMode, CacheServer, PlaneHandle, ServerConfig, SharedCache, TenantSpec,
};
use cliffhanger::ShardBalanceConfig;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;

const MODES: [BackendMode; 3] = [
    BackendMode::Default,
    BackendMode::HillClimbing,
    BackendMode::Cliffhanger,
];

fn start_on(workers: usize, backend: BackendConfig) -> CacheServer {
    CacheServer::start(ServerConfig {
        workers,
        backend,
        ..ServerConfig::default()
    })
    .expect("server must start")
}

fn start(backend: BackendConfig) -> CacheServer {
    start_on(2, backend)
}

/// 4 MB over 2 shards, one tenant.
fn small(mode: BackendMode) -> BackendConfig {
    BackendConfig {
        total_bytes: 4 << 20,
        mode,
        shards: 2,
        ..BackendConfig::default()
    }
}

fn two_tenants(total: u64, shards: usize) -> BackendConfig {
    BackendConfig {
        total_bytes: total,
        mode: BackendMode::Cliffhanger,
        shards,
        tenants: vec![TenantSpec::new("alpha", 1), TenantSpec::new("beta", 1)],
        ..BackendConfig::default()
    }
}

/// A two-shard, 16 MB server hosting `tenants` beside `default`, with an
/// arbiter quick enough to act within the tests' dozen forced rounds.
fn arbitrated(tenants: &[&str]) -> BackendConfig {
    BackendConfig {
        total_bytes: 16 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        tenants: tenants
            .iter()
            .map(|name| TenantSpec::new(*name, 1))
            .collect(),
        tenant_balance: ShardBalanceConfig {
            credit_bytes: 256 << 10,
            min_shard_bytes: 1 << 20,
            min_gradient_gap: 4,
            ..ShardBalanceConfig::tenant_default()
        },
        ..BackendConfig::default()
    }
}

fn stats_map(cache: &PlaneHandle) -> HashMap<String, String> {
    cache.stats().into_iter().collect()
}

fn stat(stats: &HashMap<String, String>, key: &str) -> u64 {
    stats[key].parse().unwrap()
}

/// The shard a default-tenant key routes to (the server's double hash), so
/// tests can build per-shard workloads.
fn shard_of(key: &[u8], shards: usize) -> usize {
    (mix64(hash_bytes(key)) % shards as u64) as usize
}

/// GET with fill on miss, the cache-aside pattern every starvation test
/// drives.
fn touch(cache: &PlaneHandle, tenant: usize, key: &str, payload: &Bytes) {
    if cache.get_for(tenant, key.as_bytes()).is_none() {
        cache.set_for(tenant, key.as_bytes(), 0, payload.clone());
    }
}

/// One round of the starvation workload on a 16 MB, three-tenant,
/// two-shard server: `starved` cycles 20k keys past its ~5.3 MB share —
/// sized so the cycle's reuse distance lands beyond each engine's physical
/// capacity (~9k items) but inside physical + shadow (~13k), so every
/// re-request misses the cache and hits the shadow queue, the pure form of
/// the gradient — while `idle` touches a handful of keys.
fn starve_round(cache: &PlaneHandle, starved: usize, idle: usize) {
    let payload = Bytes::from(vec![0u8; 200]);
    for i in 0..20_000u32 {
        touch(cache, starved, &format!("s{i}"), &payload);
    }
    for i in 0..50u32 {
        touch(cache, idle, &format!("i{i}"), &payload);
    }
}

#[test]
fn rebalancer_moves_budget_toward_the_starved_shard() {
    let total = 8u64 << 20;
    let server = start(BackendConfig {
        total_bytes: total,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        rebalance: ShardBalanceConfig {
            credit_bytes: 128 << 10,
            min_shard_bytes: 1 << 20,
            min_gradient_gap: 4,
            ..ShardBalanceConfig::default()
        },
        ..BackendConfig::default()
    });
    let cache = server.cache();
    // Shard 0 cycles a working set just past its 4 MB slice — roughly 11k
    // items fit, so a 13k-key cycle makes every re-request miss the
    // physical queue and land in the ~4k-entry shadow queue; shard 1 idles
    // on a handful of keys.
    let keys_on = |prefix: &str, shard: usize, count: usize| -> Vec<String> {
        (0u64..)
            .map(|i| format!("{prefix}-{i}"))
            .filter(|k| shard_of(k.as_bytes(), 2) == shard)
            .take(count)
            .collect()
    };
    let shard0_keys = keys_on("hot", 0, 13_000);
    let shard1_keys = keys_on("cold", 1, 50);
    let payload = Bytes::from(vec![0u8; 200]);
    for _ in 0..12 {
        for key in shard0_keys.iter().chain(&shard1_keys) {
            touch(cache, 0, key, &payload);
        }
        cache.rebalance_now();
    }
    let budgets = cache.shard_budgets();
    assert_eq!(
        budgets.iter().sum::<u64>(),
        total,
        "rebalancing must conserve the total budget: {budgets:?}"
    );
    assert!(
        budgets[0] > budgets[1],
        "the starved shard should have gained budget: {budgets:?}"
    );
    let stats = stats_map(cache);
    assert_eq!(stats["rebalance:enabled"], "1");
    assert!(stat(&stats, "rebalance:transfers") > 0);
    assert!(stat(&stats, "rebalance:bytes_moved") > 0);
    assert_eq!(stats["shard:0:budget"], budgets[0].to_string());
}

#[test]
fn rebalance_disabled_keeps_static_budgets() {
    let server = start(BackendConfig {
        total_bytes: 8 << 20,
        rebalance: ShardBalanceConfig::disabled(),
        ..small(BackendMode::Cliffhanger)
    });
    let cache = server.cache();
    for i in 0..30_000u32 {
        touch(cache, 0, &format!("k{i}"), &Bytes::from("v"));
    }
    cache.rebalance_now();
    assert_eq!(cache.shard_budgets(), vec![4 << 20, 4 << 20]);
    let stats = stats_map(cache);
    assert_eq!(stats["rebalance:enabled"], "0");
    assert_eq!(stats["rebalance:runs"], "0");
}

#[test]
fn default_mode_never_rebalances() {
    let server = start(small(BackendMode::Default));
    let cache = server.cache();
    cache.set(b"a", 0, Bytes::from("1"));
    cache.rebalance_now();
    cache.arbitrate_now();
    let stats = stats_map(cache);
    for key in [
        "rebalance:enabled",
        "rebalance:runs",
        "arbiter:enabled",
        "arbiter:runs",
    ] {
        assert_eq!(stats[key], "0", "{key}");
    }
}

#[test]
fn single_tenant_server_reports_inactive_arbiter() {
    let server = start(small(BackendMode::Cliffhanger));
    let cache = server.cache();
    cache.arbitrate_now();
    let stats = stats_map(cache);
    assert_eq!(stats["arbiter:enabled"], "0", "one tenant cannot arbitrate");
    assert_eq!(stats["arbiter:runs"], "0");
}

#[test]
fn stats_expose_requested_and_effective_shards() {
    // 2 MB of budget clamps a requested 8 shards to 2 (1 MB floor).
    let server = start(BackendConfig {
        total_bytes: 2 << 20,
        shards: 8,
        ..BackendConfig::default()
    });
    let cache = server.cache();
    assert_eq!(cache.shard_count(), 2);
    let stats = stats_map(cache);
    assert_eq!(stats["shard_count"], "2");
    assert_eq!(stats["shards_requested"], "8");
}

#[test]
fn shard_auto_detection_is_budget_capped() {
    let resolved = |total_bytes: u64, shards: usize, tenants: &[&str]| {
        BackendConfig {
            total_bytes,
            shards,
            tenants: tenants
                .iter()
                .map(|name| TenantSpec::new(*name, 1))
                .collect(),
            ..BackendConfig::default()
        }
        .resolved_shards()
    };
    assert!(
        resolved(2 << 20, 0, &[]) <= 2,
        "2 MB cannot exceed 2 shards"
    );
    assert_eq!(resolved(64 << 20, 8, &[]), 8);
    assert!(resolved(64 << 20, 0, &[]) >= 1);
    // Tenants tighten the cap: every tenant engine needs its megabyte.
    assert_eq!(
        resolved(8 << 20, 8, &["a", "b", "c"]),
        2,
        "8 MB / 4 tenants / 1 MB"
    );
}

#[test]
fn store_verbs_in_all_modes() {
    for mode in MODES {
        let server = start(small(mode));
        let c = server.cache();
        assert!(c.get(b"missing").is_none());
        assert!(c.set(b"hello", 7, Bytes::from("world")));
        assert_eq!(c.get(b"hello"), Some((7, Bytes::from("world"))));
        assert!(c.delete(b"hello"));
        assert!(!c.delete(b"hello"));
        assert!(c.get(b"hello").is_none());

        assert!(c.add(b"k", 0, Bytes::from("1")));
        assert!(!c.add(b"k", 0, Bytes::from("2")), "add must not overwrite");
        assert_eq!(c.get(b"k").unwrap().1, Bytes::from("1"));
        assert!(c.replace(b"k", 0, Bytes::from("3")));
        assert_eq!(c.get(b"k").unwrap().1, Bytes::from("3"));
        assert!(!c.replace(b"absent", 0, Bytes::from("x")));
        assert!(
            c.get(b"absent").is_none(),
            "a failed replace stores nothing"
        );
    }
}

/// A plain `set` is refused when its item's slab class holds less than one
/// item: once one class has been granted the whole free pool, an item of a
/// class that got none of it is charged more than its class's target, and
/// the engine turns it away. The reply is `NOT_STORED`, as a failed `add`
/// or `replace` condition is answered, and nothing of the item stays.
#[test]
fn a_set_whose_class_holds_less_than_one_item_is_not_stored() {
    let server = start(BackendConfig {
        total_bytes: 1 << 20,
        shards: 1,
        ..BackendConfig::default()
    });
    let cache = server.cache();
    let (big, small) = ("b".repeat(65_536), "s".repeat(100));
    for i in 0..20_000u32 {
        assert!(cache.set(format!("fill-{i}").as_bytes(), 0, small.clone().into()));
    }
    let before = stats_map(cache);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // The last item filled is resident: its class takes it back.
    let set_fill = format!("set fill-19999 0 0 100\r\n{small}\r\n");
    let request = format!("set big 0 0 65536\r\n{big}\r\nget big\r\n{set_fill}");
    stream.write_all(request.as_bytes()).unwrap();
    let mut reply = [0u8; 25];
    stream.read_exact(&mut reply).unwrap();
    assert_eq!(reply, *b"NOT_STORED\r\nEND\r\nSTORED\r\n");
    let after = stats_map(cache);
    assert_eq!(stat(&after, "cmd_set"), stat(&before, "cmd_set") + 2);
    assert_eq!(stat(&after, "curr_items"), stat(&before, "curr_items"));
    assert_eq!(stat(&after, "bytes"), stat(&before, "bytes"));
}

#[test]
fn eviction_under_pressure_keeps_running() {
    let server = start(BackendConfig {
        total_bytes: 256 << 10,
        shards: 1,
        ..BackendConfig::default()
    });
    let cache = server.cache();
    let payload = Bytes::from(vec![0u8; 1_000]);
    for i in 0..2_000u32 {
        assert!(cache.set(format!("key{i}").as_bytes(), 0, payload.clone()));
    }
    // Recent keys should be resident; the cache stays within budget.
    assert!(stat(&stats_map(cache), "bytes") <= 256 << 10);
    let hits_recent = (1_990..2_000)
        .filter(|i| cache.get(format!("key{i}").as_bytes()).is_some())
        .count();
    assert!(
        hits_recent >= 5,
        "recent keys mostly resident, got {hits_recent}"
    );
}

#[test]
fn stats_report_wire_counters() {
    let server = start(small(BackendMode::HillClimbing));
    let cache = server.cache();
    cache.set(b"a", 0, Bytes::from("1"));
    cache.get(b"a");
    cache.get(b"b");
    let stats = stats_map(cache);
    assert_eq!(stats["cmd_get"], "2");
    assert_eq!(stats["get_hits"], "1");
    assert_eq!(stats["get_misses"], "1");
    assert_eq!(stats["cmd_set"], "1");
    assert_eq!(stats["allocator"], "hillclimbing");
    assert_eq!(stats["shard_count"], "2");
    assert_eq!(stats["tenant_count"], "1");
}

/// Asserts every aggregate counter equals the sum of its `prefixes`
/// breakdown lines.
fn assert_breakdown_sums(stats: &HashMap<String, String>, prefixes: &[String]) {
    for counter in ["cmd_get", "cmd_set", "get_hits", "curr_items", "bytes"] {
        let summed: u64 = prefixes
            .iter()
            .map(|prefix| stat(stats, &format!("{prefix}:{counter}")))
            .sum();
        assert_eq!(stat(stats, counter), summed, "{counter} over {prefixes:?}");
    }
}

#[test]
fn per_shard_stats_sum_to_aggregates() {
    let server = start(BackendConfig {
        total_bytes: 16 << 20,
        shards: 4,
        ..BackendConfig::default()
    });
    let cache = server.cache();
    assert_eq!(cache.shard_count(), 4);
    for i in 0..500u32 {
        assert!(cache.set(format!("key-{i}").as_bytes(), 0, Bytes::from("v")));
    }
    for i in 0..250u32 {
        cache.get(format!("key-{i}").as_bytes());
        cache.get(format!("absent-{i}").as_bytes());
    }
    let stats = stats_map(cache);
    let shards: Vec<String> = (0..4).map(|s| format!("shard:{s}")).collect();
    assert_breakdown_sums(&stats, &shards);
    // The router must actually spread keys: no shard holds everything.
    assert_eq!(stat(&stats, "curr_items"), 500);
    let max_shard_items = shards
        .iter()
        .map(|s| stat(&stats, &format!("{s}:curr_items")))
        .max()
        .unwrap();
    assert!(
        max_shard_items < 500,
        "keys must be spread across shards (max shard has {max_shard_items})"
    );
}

#[test]
fn per_tenant_stats_sum_to_aggregates() {
    let server = start(two_tenants(8 << 20, 2));
    let cache = server.cache();
    let a = cache.tenant_index("alpha").unwrap();
    for i in 0..100u32 {
        assert!(cache.set(format!("d{i}").as_bytes(), 0, Bytes::from("v")));
        assert!(cache.set_for(a, format!("a{i}").as_bytes(), 0, Bytes::from("v")));
    }
    for i in 0..50u32 {
        cache.get(format!("d{i}").as_bytes());
        cache.get_for(a, format!("missing{i}").as_bytes());
    }
    let stats = stats_map(cache);
    let tenants = ["default", "alpha", "beta"].map(|name| format!("tenant:{name}"));
    assert_breakdown_sums(&stats, &tenants);
    assert_eq!(stats["tenant:alpha:get_misses"], "50");
    assert_eq!(stats["tenant:default:get_hits"], "50");
    assert_eq!(stats["tenant:beta:cmd_get"], "0");
}

#[test]
fn tenants_resolve_and_namespace_keys() {
    let server = start(two_tenants(8 << 20, 2));
    let c = server.cache();
    assert_eq!(c.tenant_count(), 3);
    assert_eq!(c.tenant_index("default"), Some(0));
    let a = c.tenant_index("alpha").unwrap();
    let b = c.tenant_index("beta").unwrap();
    assert_eq!(c.tenant_index("gamma"), None);
    // The same wire key is three distinct items in three namespaces.
    assert!(c.set(b"k", 1, Bytes::from("default-v")));
    assert!(c.set_for(a, b"k", 2, Bytes::from("alpha-v")));
    assert!(c.set_for(b, b"k", 3, Bytes::from("beta-v")));
    assert_eq!(c.get(b"k").unwrap(), (1, Bytes::from("default-v")));
    assert_eq!(c.get_for(a, b"k").unwrap(), (2, Bytes::from("alpha-v")));
    assert_eq!(c.get_for(b, b"k").unwrap(), (3, Bytes::from("beta-v")));
    // Deleting in one namespace leaves the others.
    assert!(c.delete_for(a, b"k"));
    assert!(c.get_for(a, b"k").is_none());
    assert_eq!(c.get(b"k").unwrap().1, Bytes::from("default-v"));
    assert_eq!(c.get_for(b, b"k").unwrap().1, Bytes::from("beta-v"));
}

#[test]
fn tenant_budgets_follow_weights() {
    let server = start(BackendConfig {
        total_bytes: 16 << 20,
        shards: 2,
        tenants: vec![TenantSpec::new("heavy", 2), TenantSpec::new("light", 1)],
        ..BackendConfig::default()
    });
    let cache = server.cache();
    // default:1, heavy:2, light:1 over 16 MB = 4/8/4 MB.
    assert_eq!(cache.tenant_budgets(), vec![4 << 20, 8 << 20, 4 << 20]);
    let stats = stats_map(cache);
    assert_eq!(stats["tenant_count"], "3");
    assert_eq!(stats["tenant:heavy:budget"], (8u64 << 20).to_string());
}

#[test]
fn flush_tenant_clears_only_that_tenant_and_conserves_budget() {
    // 8 shards on 2 loops: the flush fans out over every shard of both.
    let server = start(two_tenants(24 << 20, 8));
    let cache = server.cache();
    assert_eq!(cache.shard_count(), 8);
    let a = cache.tenant_index("alpha").unwrap();
    let b = cache.tenant_index("beta").unwrap();
    for i in 0..500u32 {
        assert!(cache.set_for(a, format!("a{i}").as_bytes(), 0, Bytes::from("va")));
        assert!(cache.set_for(b, format!("b{i}").as_bytes(), 0, Bytes::from("vb")));
    }
    let budgets_before = cache.tenant_budgets();
    cache.flush_tenant(a);
    for i in 0..500u32 {
        assert!(cache.get_for(a, format!("a{i}").as_bytes()).is_none());
        assert!(
            cache.get_for(b, format!("b{i}").as_bytes()).is_some(),
            "beta's keys must survive alpha's flush"
        );
    }
    assert_eq!(cache.tenant_budgets(), budgets_before);
    let stats = stats_map(cache);
    assert_eq!(stats["tenant:alpha:curr_items"], "0");
    assert_eq!(stats["tenant:beta:curr_items"], "500");
}

#[test]
fn arbiter_moves_budget_toward_the_starved_tenant() {
    let server = start(arbitrated(&["starved", "idle"]));
    let cache = server.cache();
    let starved = cache.tenant_index("starved").unwrap();
    let idle = cache.tenant_index("idle").unwrap();
    for _ in 0..12 {
        starve_round(cache, starved, idle);
        cache.arbitrate_now();
    }
    let budgets = cache.tenant_budgets();
    assert_eq!(
        budgets.iter().sum::<u64>(),
        16 << 20,
        "arbitration must conserve the total budget: {budgets:?}"
    );
    assert!(
        budgets[starved] > budgets[idle],
        "the starved tenant should have gained budget: {budgets:?}"
    );
    let stats = stats_map(cache);
    assert_eq!(stats["arbiter:enabled"], "1");
    assert!(stat(&stats, "arbiter:transfers") > 0);
    assert!(stat(&stats, "arbiter:bytes_moved") > 0);
    assert_eq!(stats["tenant:starved:budget"], budgets[starved].to_string());
}

#[test]
fn arbitration_survives_another_tenants_flush_storm() {
    // Regression: a tenant flush once reset the *global* arbiter baseline,
    // so any tenant flushing more often than the arbitration interval
    // suppressed cross-tenant arbitration for everyone, forever. The
    // gradient engine re-baselines on backwards counters by itself, so a
    // flush must cost at most one observation round.
    let server = start(arbitrated(&["starved", "flusher"]));
    let cache = server.cache();
    let starved = cache.tenant_index("starved").unwrap();
    let flusher = cache.tenant_index("flusher").unwrap();
    for _ in 0..12 {
        starve_round(cache, starved, flusher);
        // The storm: a flush before every arbitration round.
        cache.flush_tenant(flusher);
        cache.arbitrate_now();
    }
    let budgets = cache.tenant_budgets();
    assert_eq!(budgets.iter().sum::<u64>(), 16 << 20);
    assert!(
        budgets[starved] > budgets[flusher],
        "arbitration must keep working through the flush storm: {budgets:?}"
    );
    assert!(stat(&stats_map(cache), "arbiter:transfers") > 0);
}

#[test]
fn create_tenant_carves_budget_and_isolates() {
    let total = 8u64 << 20;
    let server = start(two_tenants(total, 2));
    let c = server.cache();
    assert_eq!(c.tenant_count(), 3);
    // Populate the default namespace first; the carve-out will shrink its
    // engines with real evictions.
    for i in 0..2_000u32 {
        c.set(format!("d{i}").as_bytes(), 0, Bytes::from(vec![0u8; 200]));
    }
    let gamma = c.create_tenant("gamma", 1).expect("create must succeed");
    assert_eq!(c.tenant_count(), 4);
    assert_eq!(c.tenant_index("gamma"), Some(gamma));
    // Budget conserved: the new tenant's share came out of the others.
    let budgets = c.tenant_budgets();
    assert_eq!(budgets.iter().sum::<u64>(), total, "{budgets:?}");
    assert!(budgets[gamma] > 0, "carve-out must be nonzero: {budgets:?}");
    // The new namespace works and is isolated.
    assert!(c.set_for(gamma, b"k", 1, Bytes::from("gamma-v")));
    assert_eq!(c.get_for(gamma, b"k").unwrap().1, Bytes::from("gamma-v"));
    assert!(c.get(b"k").is_none(), "default must not see gamma's key");
    // Rejections: duplicates (including built-ins), bad names, weight 0.
    for (name, weight) in [
        ("gamma", 1),
        ("default", 1),
        ("bad:name", 1),
        ("", 1),
        ("fine", 0),
    ] {
        assert!(c.create_tenant(name, weight).is_err(), "{name:?}/{weight}");
    }
    assert_eq!(c.tenant_count(), 4);
    // The listing and stats reflect the live state.
    let apps = c.app_list();
    assert_eq!(apps.len(), 4);
    assert_eq!(apps[gamma], ("gamma".to_string(), 1, budgets[gamma]));
    let stats = stats_map(c);
    assert_eq!(stats["tenant_count"], "4");
    assert_eq!(stats["tenant:gamma:budget"], budgets[gamma].to_string());
    // Its flush empties it without losing the tenant or any budget.
    c.flush_tenant(gamma);
    assert!(c.get_for(gamma, b"k").is_none());
    assert_eq!(c.tenant_budgets(), budgets);
}

/// A tenant weighted far above the rest asks each engine for nearly all of
/// it, more than its class floors let it give, so every ask is refused: a
/// managed engine then gives the new cell one byte a shard (a plain one
/// gives nothing up), and the new tenant serves, flushes and conserves the
/// total on what it got.
#[test]
fn a_created_tenant_whose_asks_are_all_refused_still_serves() {
    for mode in MODES {
        let server = start(small(mode));
        let cache = server.cache();
        let huge = cache
            .create_tenant("huge", 1 << 40)
            .expect("create must succeed");
        let carved = if mode == BackendMode::Default { 0 } else { 2 };
        let budgets = cache.tenant_budgets();
        assert_eq!(budgets, vec![(4 << 20) - carved, carved], "{mode:?}");
        cache.set_for(huge, b"k", 0, Bytes::from("v"));
        assert!(
            cache.get_for(huge, b"k").is_none(),
            "{mode:?}: no item fits"
        );
        cache.flush_tenant(huge);
        assert_eq!(cache.tenant_budgets(), budgets, "{mode:?}");
        assert!(cache.set(b"k", 0, Bytes::from("v")), "{mode:?}");
    }
}

/// Where no managed engine can spare a byte, `app_create` is refused and
/// no budget moves.
#[test]
fn create_tenant_is_refused_where_no_engine_can_spare_a_byte() {
    let server = start(BackendConfig {
        total_bytes: 2,
        tenants: vec![TenantSpec::new("a", 1)],
        ..small(BackendMode::Cliffhanger)
    });
    let cache = server.cache();
    assert_eq!(cache.tenant_budgets(), vec![1, 1], "one shard, a byte each");
    assert!(cache.create_tenant("b", 1).is_err());
    assert_eq!(cache.tenant_count(), 2);
    assert_eq!(cache.tenant_budgets(), vec![1, 1]);
}

#[test]
#[should_panic(expected = "under a byte")]
fn a_budget_under_a_byte_per_engine_is_rejected_at_start() {
    start(BackendConfig {
        total_bytes: 1,
        tenants: vec![TenantSpec::new("a", 1)],
        ..small(BackendMode::Cliffhanger)
    });
}

/// Runs `admin` against a fresh, idle 2-loop server on a thread of its own
/// and fails — instead of hanging — if it has not returned within 5 s. The
/// thread owns the server, so a wedged one is left behind, not joined.
fn returns_on_idle_loops(what: &str, admin: impl FnOnce(&PlaneHandle) + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let server = start(small(BackendMode::Cliffhanger));
        admin(server.cache());
        let _ = done.send(());
    });
    let waited = finished.recv_timeout(std::time::Duration::from_secs(5));
    assert!(waited.is_ok(), "{what}: the control thread is wedged");
    worker.join().expect("the admin calls must not panic");
}

/// Admin commands in a row on idle loops. An admin call, run in the
/// caller's thread under the control lock, waits on no loop: it reads each
/// loop's ledger from the loop's shared slot, and an `app` command resolves
/// its name in the roster. This guards the shape in which the control
/// thread once wedged: waiting on idle loops' answers while they waited on
/// the roster lock it held.
#[test]
fn admin_commands_in_a_row_do_not_wedge_on_idle_loops() {
    returns_on_idle_loops("app_create then flush_all", |cache| {
        cache.create_tenant("x", 1).expect("create must succeed");
        cache.flush_tenant(0);
        assert_eq!(cache.tenant_budgets().iter().sum::<u64>(), 4 << 20);
    });
    returns_on_idle_loops("app_create twice", |cache| {
        cache.create_tenant("x", 1).expect("create must succeed");
        cache.create_tenant("y", 1).expect("create must succeed");
        assert_eq!(cache.tenant_count(), 3);
        assert_eq!(cache.tenant_budgets().iter().sum::<u64>(), 4 << 20);
    });
}

#[test]
fn created_tenant_joins_arbitration() {
    // A tenant onboarded live must be a first-class arbitration citizen:
    // starve it and the arbiter should move budget toward it.
    let server = start(arbitrated(&["idle"]));
    let cache = server.cache();
    let idle = cache.tenant_index("idle").unwrap();
    let late = cache.create_tenant("latecomer", 1).unwrap();
    assert_eq!(
        cache.tenant_budgets().iter().sum::<u64>(),
        16 << 20,
        "carve-out conserves the total"
    );
    for _ in 0..12 {
        starve_round(cache, late, idle);
        cache.arbitrate_now();
    }
    let budgets = cache.tenant_budgets();
    assert_eq!(budgets.iter().sum::<u64>(), 16 << 20);
    assert!(
        budgets[late] > budgets[idle],
        "the starved latecomer should have gained budget: {budgets:?}"
    );
}

#[test]
fn arbiter_disabled_keeps_static_reservations() {
    let server = start(BackendConfig {
        total_bytes: 8 << 20,
        tenants: vec![TenantSpec::new("a", 1)],
        tenant_balance: ShardBalanceConfig::disabled(),
        ..small(BackendMode::Cliffhanger)
    });
    let cache = server.cache();
    let a = cache.tenant_index("a").unwrap();
    for i in 0..20_000u32 {
        touch(cache, a, &format!("k{i}"), &Bytes::from("v"));
        if i % 1_000 == 0 {
            cache.arbitrate_now();
        }
    }
    assert_eq!(cache.tenant_budgets(), vec![4 << 20, 4 << 20]);
    let stats = stats_map(cache);
    assert_eq!(stats["arbiter:enabled"], "0");
    assert_eq!(stats["arbiter:runs"], "0");
}

/// `SharedCache` is the plane's own route + apply code without the hop: the
/// same op sequence must get the same answers from it and from a one-loop
/// server's handle, evictions included.
#[test]
fn shared_cache_answers_like_a_one_loop_plane() {
    for mode in MODES {
        // The balancers stay off: `SharedCache` has no control thread to
        // run their rounds, and a transfer on one side only would change
        // what that side evicts.
        let config = BackendConfig {
            total_bytes: 8 << 20,
            mode,
            shards: 2,
            tenants: vec![TenantSpec::new("app", 1)],
            rebalance: ShardBalanceConfig::disabled(),
            tenant_balance: ShardBalanceConfig::disabled(),
            ..BackendConfig::default()
        };
        let inline = SharedCache::new(config.clone());
        let server = start_on(1, config);
        let plane = server.cache();
        let tenant = inline.tenant_index("app").expect("configured tenant");
        assert_eq!(plane.tenant_index("app"), Some(tenant));
        assert_eq!(inline.tenant_index("nobody"), None);

        // ~3k sets of 2 KB values into the tenant's 4 MB: sets evict.
        let (mut hits, mut misses) = (0, 0);
        let mut x = 1u64;
        for i in 0..12_000u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = format!("k{}", (x >> 33) % 6_000);
            let key = key.as_bytes();
            match (x >> 20) % 8 {
                0 | 1 => {
                    let value = Bytes::from(vec![i as u8; 2_000]);
                    assert_eq!(
                        inline.set_for(tenant, key, i, value.clone()),
                        plane.set_for(tenant, key, i, value),
                        "{mode:?}: set #{i}"
                    );
                }
                2 => assert_eq!(
                    inline.delete_for(tenant, key),
                    plane.delete_for(tenant, key),
                    "{mode:?}: delete #{i}"
                ),
                _ => {
                    let found = inline.get_for(tenant, key);
                    *if found.is_some() {
                        &mut hits
                    } else {
                        &mut misses
                    } += 1;
                    assert_eq!(found, plane.get_for(tenant, key), "{mode:?}: get #{i}");
                }
            }
        }
        assert!(
            hits > 0 && misses > 0,
            "{mode:?}: {hits} hits, {misses} misses"
        );
        assert!(stat(&stats_map(plane), "evictions") > 0, "{mode:?}");
        // The default tenant is a separate namespace in both.
        // (A value of the loop's size: in `Default` mode every page already
        // belongs to that slab class, so another size would be refused.)
        let value = Bytes::from(vec![7u8; 2_000]);
        assert!(inline.set_for(tenant, b"mine", 0, value.clone()));
        assert!(plane.set_for(tenant, b"mine", 0, value));
        assert_eq!(inline.get_for(0, b"mine"), None);
        assert_eq!(plane.get_for(0, b"mine"), None);
        // Deleting what was never stored fails the same way.
        assert!(!inline.delete_for(tenant, b"never-stored"));
        assert!(!plane.delete_for(tenant, b"never-stored"));
    }
}

/// A plane with no threads is a full plane: on one `SharedCache::new`
/// builds, a round, `stats` and the tenant admin calls run in the caller's
/// thread and do what a server's do.
#[test]
fn a_plane_with_no_threads_runs_rounds_stats_and_admin_calls() {
    let total = 16u64 << 20;
    let cache = SharedCache::new(BackendConfig {
        total_bytes: total,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        tenants: vec![TenantSpec::new("idle", 1)],
        rebalance: ShardBalanceConfig {
            credit_bytes: 128 << 10,
            min_shard_bytes: 1 << 20,
            min_gradient_gap: 4,
            ..ShardBalanceConfig::default()
        },
        ..BackendConfig::default()
    });
    // The default tenant cycles 13k keys past its 4 MB slice of shard 0,
    // as in `rebalancer_moves_budget_toward_the_starved_shard`.
    let payload = Bytes::from(vec![0u8; 200]);
    let starved: Vec<String> = (0u64..)
        .map(|i| format!("hot-{i}"))
        .filter(|k| shard_of(k.as_bytes(), 2) == 0)
        .take(13_000)
        .collect();
    for _ in 0..12 {
        for key in &starved {
            touch(&cache, 0, key, &payload);
        }
        cache.rebalance_now();
    }
    let budgets = cache.shard_budgets();
    assert_eq!(budgets.iter().sum::<u64>(), total, "{budgets:?}");
    assert!(budgets[0] > budgets[1], "shard 0 gains: {budgets:?}");

    let doc: serde_json::Value = serde_json::from_str(&cache.stats_json()).expect("stats json");
    let schema = doc.get("schema").and_then(|schema| schema.as_str());
    assert_eq!(schema, Some("cliffhanger-stats/v1"));
    let balance = |key: &str| doc.get("balance").and_then(|b| b.get(key)?.as_u64());
    assert!(balance("rebalance_runs") >= Some(12));
    assert!(balance("rebalance_transfers") > Some(0));

    let late = cache.create_tenant("late", 1).expect("a carve-out");
    assert_eq!(cache.tenant_count(), 3);
    assert!(cache.tenant_budgets()[late] > 0);
    cache.flush_tenant(0);
    assert_eq!(cache.get(starved[0].as_bytes()), None, "flushed");
    assert_eq!(cache.tenant_budgets().iter().sum::<u64>(), total);
}
