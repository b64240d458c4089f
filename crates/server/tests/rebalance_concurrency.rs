//! Rebalancing safety: budget moves must never corrupt or silently lose
//! entries.
//!
//! Two angles:
//! * a threaded stress test where writers hammer a 2-loop data plane
//!   through its in-process handle while rebalancing rounds run organically
//!   (interval ticks) and forcibly (`rebalance_now` from a dedicated
//!   thread) under genuine memory pressure — every read must see either
//!   the exact value last written or a clean miss, budgets must keep
//!   summing to the configured total, and transfers must actually have
//!   happened for the test to mean anything;
//! * a property test driving random op sequences with rebalancing rounds
//!   interleaved at arbitrary points, in a no-eviction regime: with zero
//!   evictions, *every* entry ever stored must still be present with its
//!   exact value — a transfer can only move budget, never entries.

use bytes::Bytes;
use cache_core::hash_bytes;
use cache_core::key::mix64;
use cache_server::{BackendConfig, BackendMode, CacheServer, PlaneHandle, ServerConfig};
use cliffhanger::ShardBalanceConfig;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn stats_map(cache: &PlaneHandle) -> HashMap<String, String> {
    cache.stats().into_iter().collect()
}

/// A server on two event loops, so the shards are split between owners
/// and every budget transfer is a message conversation; the tests drive
/// it through [`CacheServer::cache`].
fn start(backend: BackendConfig) -> CacheServer {
    CacheServer::start(ServerConfig {
        workers: 2,
        backend,
        ..ServerConfig::default()
    })
    .expect("server must start")
}

/// The shard a byte-string key routes to (same double hash as the server),
/// so the test can pin each writer's keys to one shard and give the shards
/// deliberately unequal demand — uniform demand would make rebalancing a
/// no-op and the test vacuous.
fn shard_of(key: &str, shards: u64) -> usize {
    (mix64(hash_bytes(key.as_bytes())) % shards) as usize
}

#[test]
fn concurrent_ops_during_rebalance_see_exact_values() {
    let total: u64 = 16 << 20;
    let server = start(BackendConfig {
        total_bytes: total,
        mode: BackendMode::Cliffhanger,
        shards: 4,
        rebalance: ShardBalanceConfig {
            interval_requests: 512,
            credit_bytes: 64 << 10,
            min_shard_bytes: 512 << 10,
            min_gradient_gap: 2,
            hysteresis: 0.05,
            ..ShardBalanceConfig::default()
        },
        ..BackendConfig::default()
    });
    let cache = Arc::clone(server.cache());

    let stop = Arc::new(AtomicBool::new(false));
    // A poker thread forces extra rounds on top of the organic ticks, so
    // rounds overlap request traffic as often as possible.
    let poker = {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.rebalance_now();
                std::thread::yield_now();
            }
        })
    };

    // Writer t hammers shard t alone. Shard 0 cycles a working set past its
    // 4 MB even share (evictions + shadow hits — the rebalancer's fuel);
    // shard 3 idles, so the gradients stay unequal and budget must move.
    let key_counts = [16_000usize, 6_000, 2_000, 400];
    let writers: Vec<_> = (0..4u32)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let keys: Vec<String> = (0u64..)
                .map(|i| format!("t{t}-k{i}"))
                .filter(|k| shard_of(k, 4) == t as usize)
                .take(key_counts[t as usize])
                .collect();
            std::thread::spawn(move || {
                let mut wrong = 0u64;
                for round in 0..3u32 {
                    for key in &keys {
                        let value = format!("{key}-r{round}-{}", "x".repeat(180));
                        cache.set(key.as_bytes(), t, Bytes::from(value.clone()));
                        // A concurrent eviction (a miss) is legitimate; a
                        // value from another key or a stale round is not
                        // (keys are single-writer, so the set above is the
                        // latest).
                        if let Some((flags, data)) = cache.get(key.as_bytes()) {
                            if flags != t || data != Bytes::from(value) {
                                wrong += 1;
                            }
                        }
                    }
                }
                wrong
            })
        })
        .collect();

    let wrong: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    poker.join().unwrap();

    assert_eq!(wrong, 0, "reads must never observe another key's value");
    let budgets = cache.shard_budgets();
    assert_eq!(
        budgets.iter().sum::<u64>(),
        total,
        "rebalancing must conserve the total budget: {budgets:?}"
    );
    let stats = stats_map(&cache);
    assert!(
        stats["rebalance:transfers"].parse::<u64>().unwrap() > 0,
        "the stress run must actually exercise transfers: {stats:?}"
    );
    // The pressure must have been real for the no-corruption claim to carry
    // weight.
    assert!(stats["evictions"].parse::<u64>().unwrap() > 0);
}

/// One scripted cache operation.
#[derive(Clone, Debug)]
enum Op {
    Set(u8, u8),
    Delete(u8),
    Get(u8),
    Rebalance,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Set(k, v)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
        Just(Op::Rebalance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In a no-eviction regime, rebalancing rounds interleaved anywhere in
    /// an op sequence lose nothing: every stored entry stays readable with
    /// its exact bytes.
    #[test]
    fn rebalance_rounds_lose_no_entries(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let total: u64 = 32 << 20;
        let server = start(BackendConfig {
            total_bytes: total,
            mode: BackendMode::Cliffhanger,
            shards: 4,
            rebalance: ShardBalanceConfig {
                interval_requests: 16,
                min_shard_bytes: 1 << 20,
                ..ShardBalanceConfig::default()
            },
            ..BackendConfig::default()
        });
        let cache = server.cache();
        let mut model: HashMap<u8, u8> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Set(k, v) => {
                    let stored = cache.set(format!("key-{k}").as_bytes(), v as u32,
                        Bytes::from(vec![v; 32]));
                    prop_assert!(stored, "a 32-byte value must always be admitted");
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    let was_present = cache.delete(format!("key-{k}").as_bytes());
                    prop_assert_eq!(was_present, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    let got = cache.get(format!("key-{k}").as_bytes());
                    match model.get(&k) {
                        Some(&v) => {
                            let (flags, data) = got.expect("entry must not vanish");
                            prop_assert_eq!(flags, v as u32);
                            prop_assert_eq!(data, Bytes::from(vec![v; 32]));
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                Op::Rebalance => cache.rebalance_now(),
            }
        }
        // Final audit: every modelled entry is still there, bit-exact.
        for (&k, &v) in &model {
            let (flags, data) = cache
                .get(format!("key-{k}").as_bytes())
                .expect("entry must survive all rebalancing rounds");
            prop_assert_eq!(flags, v as u32);
            prop_assert_eq!(data, Bytes::from(vec![v; 32]));
        }
        prop_assert_eq!(&stats_map(cache)["evictions"], "0");
        prop_assert_eq!(
            cache.shard_budgets().iter().sum::<u64>(),
            total
        );
    }
}
