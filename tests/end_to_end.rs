//! Cross-crate integration tests: workload generation → trace replay →
//! allocation algorithms → experiment reports, exercised through the public
//! API exactly as the examples and harness binaries use it.

use cliffhanger_repro::prelude::*;
use cliffhanger_repro::simulator::engine::replay_many;
use cliffhanger_repro::simulator::experiments::comparison::compare_apps;
use cliffhanger_repro::simulator::experiments::ExperimentContext;
use cliffhanger_repro::simulator::profiles::dynacache_plan;
use cliffhanger_repro::workloads::MemcachierConfig;

/// The workspace-wiring smoke test: a basic GET/SET round-trip through the
/// facade crate's re-exports alone. If the workspace manifests, the facade
/// prelude, or any inter-crate dependency edge breaks, this fails before
/// the heavier paper-level tests below even start.
#[test]
fn facade_get_set_round_trip() {
    let mut cache: Cliffhanger<&'static str> =
        Cliffhanger::new(CliffhangerConfig::with_total_bytes(1 << 20));
    let key = Key::new(42);
    let size = 256;

    // Cold: a GET misses.
    let (_, miss) = cache.get(key, size).expect("size maps to a slab class");
    assert!(!miss.hit, "fresh cache must miss");

    // SET then GET: a hit that returns the stored value.
    cache.set(key, size, "hello-cliffhanger");
    let (_, hit) = cache.get(key, size).expect("size maps to a slab class");
    assert!(hit.hit, "value stored via the facade must be readable");
    assert_eq!(cache.value(key), Some(&"hello-cliffhanger"));

    // And the same through the server re-exports: a two-loop server's
    // in-process handle.
    let server = CacheServer::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server must start");
    let shared = server.cache();
    assert!(shared.set(b"greeting", 7, bytes::Bytes::from_static(b"hi")));
    let (flags, data) = shared.get(b"greeting").expect("stored key must hit");
    assert_eq!(flags, 7);
    assert_eq!(&data[..], b"hi");
}

/// A scan-dominated application whose working set slightly exceeds its
/// reservation: the canonical performance cliff.
///
/// Sizing note: the 4 MB reservation holds ~8.5k items of this shape
/// (400-byte values charge a 512-byte chunk + item overhead), so a 9k scan
/// misses fitting by a few percent — a genuine cliff (plain LRU drops to
/// its floor) that still sits within the cliff shadows' sensory range: a
/// scanned key is only *observable* if it is re-referenced within
/// `cliff_shadow_items` evictions of leaving the queue, which bounds
/// detectable overshoot at roughly `2 × cliff_shadow_items` items (the
/// shadows scale with the reservation since PR 4; an earlier revision used
/// a 10.5k scan — "barely misses" only under data-byte accounting — which
/// no honest 128-entry-era configuration could observe).
fn cliff_trace(requests: u64) -> (Trace, ReplayOptions) {
    let profile = AppProfile::simple(
        11,
        "integration-cliff",
        1.0,
        4 << 20,
        Phase::zipf(1_000, 0.8, SizeDistribution::Fixed(400)).with_scan(0.85, 9_000),
    )
    .with_get_fraction(1.0);
    let trace = Trace::from_requests(profile.generate(requests, 3_600, 123));
    (trace, ReplayOptions::new(4 << 20))
}

#[test]
fn cliffhanger_beats_the_default_scheme_on_a_cliff_workload() {
    let (trace, options) = cliff_trace(300_000);
    let results = replay_many(
        &trace,
        &[CacheSystem::default_lru(), CacheSystem::cliffhanger()],
        &options,
    );
    let default_rate = results[0].hit_rate();
    let cliffhanger_rate = results[1].hit_rate();
    assert!(
        cliffhanger_rate > default_rate + 0.05,
        "cliffhanger ({cliffhanger_rate:.3}) should clearly beat the default \
         ({default_rate:.3}) on a scan that barely misses fitting"
    );
}

#[test]
fn dynacache_plan_matches_or_beats_default_on_size_imbalanced_app() {
    // An app where most GETs go to small items but large items hog the FCFS
    // allocation — the Table 1 situation.
    let profile = AppProfile::simple(
        6,
        "integration-imbalanced",
        1.0,
        2 << 20,
        Phase {
            fraction: 1.0,
            popularity: workloads::KeyPopularity::Zipf {
                num_keys: 12_000,
                exponent: 0.9,
            },
            sizes: SizeDistribution::Mixture(vec![
                (0.8, SizeDistribution::Fixed(120)),
                (
                    0.2,
                    SizeDistribution::Uniform {
                        min: 8_192,
                        max: 32_768,
                    },
                ),
            ]),
            scan_fraction: 0.0,
            scan_length: 0,
            key_offset: 0,
        },
    )
    .with_get_fraction(1.0);
    let trace = Trace::from_requests(profile.generate(200_000, 3_600, 5));
    let options = ReplayOptions::new(2 << 20);
    let plan = dynacache_plan(
        &trace,
        &SlabConfig::default(),
        options.reserved_bytes,
        64 << 10,
    );
    let results = replay_many(
        &trace,
        &[
            CacheSystem::default_lru(),
            CacheSystem::StaticPlan {
                class_targets: plan,
                policy: PolicyKind::Lru,
            },
        ],
        &options,
    );
    assert!(
        results[1].hit_rate() + 0.01 >= results[0].hit_rate(),
        "the solver plan ({:.3}) should not lose to FCFS ({:.3}) on a \
         size-imbalanced workload",
        results[1].hit_rate(),
        results[0].hit_rate()
    );
}

#[test]
fn quick_experiment_context_supports_the_full_comparison() {
    let ctx = ExperimentContext::new(MemcachierConfig {
        total_requests: 80_000,
        scale: 0.06,
        duration_secs: 24 * 3_600,
        ..MemcachierConfig::default()
    });
    let rows = compare_apps(&ctx);
    assert_eq!(rows.len(), 20);
    // Aggregate: the managed systems must not collapse relative to the
    // default on this trace.
    let total_default_misses: u64 = rows.iter().map(|r| r.misses.0).sum();
    let total_cliffhanger_misses: u64 = rows.iter().map(|r| r.misses.2).sum();
    assert!(
        (total_cliffhanger_misses as f64) < (total_default_misses as f64) * 1.15,
        "cliffhanger misses {total_cliffhanger_misses} vs default {total_default_misses}"
    );
}

#[test]
fn trace_roundtrips_through_jsonl_and_replays_identically() {
    let (trace, options) = cliff_trace(20_000);
    let mut buffer = Vec::new();
    trace.write_jsonl(&mut buffer).unwrap();
    let reloaded = Trace::read_jsonl(std::io::Cursor::new(buffer)).unwrap();
    assert_eq!(reloaded.len(), trace.len());
    let a = simulator::engine::replay_app(&trace, &CacheSystem::default_lru(), &options);
    let b = simulator::engine::replay_app(&reloaded, &CacheSystem::default_lru(), &options);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn global_lru_and_slab_cache_agree_on_uniform_sizes() {
    // With a single item size there is no fragmentation difference, so the
    // two organisations should produce nearly identical hit rates.
    let profile = AppProfile::simple(
        2,
        "integration-uniform",
        1.0,
        1 << 20,
        Phase::zipf(20_000, 1.0, SizeDistribution::Fixed(256)),
    )
    .with_get_fraction(1.0);
    let trace = Trace::from_requests(profile.generate(120_000, 3_600, 9));
    let options = ReplayOptions::new(1 << 20);
    let results = replay_many(
        &trace,
        &[CacheSystem::default_lru(), CacheSystem::GlobalLru],
        &options,
    );
    let diff = (results[0].hit_rate() - results[1].hit_rate()).abs();
    assert!(
        diff < 0.03,
        "slab ({:.3}) and global LRU ({:.3}) should agree on uniform sizes",
        results[0].hit_rate(),
        results[1].hit_rate()
    );
}
