//! Tables 6 and 7: latency and throughput overhead of the algorithms.

use bytes::Bytes;
use cache_server::{BackendConfig, BackendMode, SharedCache};
use simulator::report::Table;
use std::time::Instant;
use workloads::SizeDistribution;

/// Knobs for the overhead measurements.
#[derive(Clone, Debug)]
pub struct OverheadOptions {
    /// Cache size in bytes (small enough that the worst-case workload keeps
    /// it full and evicting).
    pub cache_bytes: u64,
    /// Number of operations measured per scenario.
    pub operations: u64,
    /// Number of warm-up operations before measuring (fills the cache and
    /// the shadow queues, as in §5.6).
    pub warmup_operations: u64,
}

impl Default for OverheadOptions {
    fn default() -> Self {
        OverheadOptions {
            cache_bytes: 16 << 20,
            operations: 200_000,
            warmup_operations: 100_000,
        }
    }
}

impl OverheadOptions {
    /// A configuration small enough for unit tests.
    pub fn quick() -> Self {
        OverheadOptions {
            cache_bytes: 2 << 20,
            operations: 20_000,
            warmup_operations: 10_000,
        }
    }
}

fn backend(mode: BackendMode, bytes: u64) -> SharedCache {
    SharedCache::new(BackendConfig {
        total_bytes: bytes,
        mode,
        ..BackendConfig::default()
    })
}

fn value_for(i: u64) -> Bytes {
    // ETC-like value sizes, deterministic per index.
    let size = SizeDistribution::facebook_etc().size_for_key(i, 0x0b5e55ed) as usize;
    Bytes::from(vec![0x5au8; size.clamp(1, 64 << 10)])
}

fn unique_key(space: &str, i: u64) -> Vec<u8> {
    format!("{space}:{i:020}").into_bytes()
}

/// Fills the cache (and its shadow queues) with unique keys so that it is
/// full and every subsequent miss exercises eviction and shadow bookkeeping.
fn warm_up(cache: &SharedCache, operations: u64) {
    for i in 0..operations {
        let key = unique_key("warm", i);
        cache.set_for(0, &key, 0, value_for(i));
    }
}

/// Measures the average nanoseconds per operation of `op` over `n` calls.
fn measure<F: FnMut(u64)>(n: u64, mut op: F) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

struct LatencyNumbers {
    get_hit_ns: f64,
    get_miss_ns: f64,
    set_miss_ns: f64,
}

fn latency_numbers(mode: BackendMode, options: &OverheadOptions) -> LatencyNumbers {
    let cache = backend(mode, options.cache_bytes);
    warm_up(&cache, options.warmup_operations);

    // GET hits: a small resident working set touched repeatedly.
    let resident: Vec<Vec<u8>> = (0..1_000u64)
        .map(|i| {
            let key = unique_key("hot", i);
            cache.set_for(0, &key, 0, Bytes::from_static(b"hot-value"));
            key
        })
        .collect();
    let get_hit_ns = measure(options.operations, |i| {
        let key = &resident[(i % resident.len() as u64) as usize];
        std::hint::black_box(cache.get_for(0, key));
    });

    // GET misses on unique keys (worst case: every miss probes the shadow
    // queues of its class).
    let mut counter = 0u64;
    let get_miss_ns = measure(options.operations, |_| {
        counter += 1;
        let key = unique_key("miss", counter);
        std::hint::black_box(cache.get_for(0, &key));
    });

    // SETs of unique keys with the cache full: every store evicts and pushes
    // keys through the shadow queues.
    let mut set_counter = 0u64;
    let set_miss_ns = measure(options.operations, |_| {
        set_counter += 1;
        let key = unique_key("fill", set_counter);
        std::hint::black_box(cache.set_for(0, &key, 0, value_for(set_counter)));
    });

    LatencyNumbers {
        get_hit_ns,
        get_miss_ns,
        set_miss_ns,
    }
}

fn pct_overhead(baseline: f64, value: f64) -> String {
    if baseline <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (value - baseline) / baseline * 100.0)
}

/// Table 6: average latency overhead of hill climbing and Cliffhanger over
/// the stock cache, for GETs and SETs, on hits and on the all-miss worst
/// case.
pub fn table6_latency_overhead(options: &OverheadOptions) -> Table {
    let stock = latency_numbers(BackendMode::Default, options);
    let hill = latency_numbers(BackendMode::HillClimbing, options);
    let full = latency_numbers(BackendMode::Cliffhanger, options);

    let mut table = Table::new(
        "Table 6: average latency overhead vs the stock cache (worst-case all-miss workload)",
        &[
            "algorithm",
            "operation",
            "cache hit",
            "cache miss",
            "stock ns (hit/miss)",
        ],
    );
    for (name, numbers) in [("hill climbing", &hill), ("Cliffhanger", &full)] {
        table.push_row(vec![
            name.to_string(),
            "GET".to_string(),
            pct_overhead(stock.get_hit_ns, numbers.get_hit_ns),
            pct_overhead(stock.get_miss_ns, numbers.get_miss_ns),
            format!("{:.0} / {:.0}", stock.get_hit_ns, stock.get_miss_ns),
        ]);
        table.push_row(vec![
            name.to_string(),
            "SET".to_string(),
            "-".to_string(),
            pct_overhead(stock.set_miss_ns, numbers.set_miss_ns),
            format!("- / {:.0}", stock.set_miss_ns),
        ]);
    }
    table
}

fn throughput_ops_per_sec(mode: BackendMode, get_fraction: f64, options: &OverheadOptions) -> f64 {
    let cache = backend(mode, options.cache_bytes);
    warm_up(&cache, options.warmup_operations);
    let mut counter = 0u64;
    let start = Instant::now();
    for i in 0..options.operations {
        // Deterministic GET/SET interleaving at the requested ratio; all
        // keys are unique so the cache stays full and every GET misses.
        let is_get = (i as f64 * get_fraction).fract() + get_fraction >= 1.0;
        counter += 1;
        let key = unique_key("tp", counter);
        if is_get {
            std::hint::black_box(cache.get_for(0, &key));
        } else {
            std::hint::black_box(cache.set_for(0, &key, 0, value_for(counter)));
        }
    }
    options.operations as f64 / start.elapsed().as_secs_f64()
}

/// Table 7: throughput slowdown of Cliffhanger vs the stock cache when the
/// cache is full and CPU-bound, for the paper's three GET/SET mixes.
pub fn table7_throughput_overhead(options: &OverheadOptions) -> Table {
    let mut table = Table::new(
        "Table 7: throughput slowdown vs the stock cache (cache full, all keys unique)",
        &[
            "% GETs",
            "% SETs",
            "stock ops/s",
            "hill climbing slowdown",
            "Cliffhanger slowdown",
        ],
    );
    for (gets, sets) in workloads::EtcConfig::table7_mixes() {
        let stock = throughput_ops_per_sec(BackendMode::Default, gets, options);
        let hill = throughput_ops_per_sec(BackendMode::HillClimbing, gets, options);
        let full = throughput_ops_per_sec(BackendMode::Cliffhanger, gets, options);
        let slowdown = |candidate: f64| {
            if candidate <= 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.1}%", (stock / candidate - 1.0) * 100.0)
            }
        };
        table.push_row(vec![
            format!("{:.1}%", gets * 100.0),
            format!("{:.1}%", sets * 100.0),
            format!("{stock:.0}"),
            slowdown(hill),
            slowdown(full),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_produces_four_rows() {
        let table = table6_latency_overhead(&OverheadOptions::quick());
        assert_eq!(table.rows.len(), 4);
        assert!(table.to_string().contains("GET"));
    }

    #[test]
    fn table7_produces_three_mixes() {
        let table = table7_throughput_overhead(&OverheadOptions::quick());
        assert_eq!(table.rows.len(), 3);
        assert!(table.rows[0][0].starts_with("96.7"));
        // Stock throughput is a positive number.
        let stock: f64 = table.rows[0][2].parse().unwrap();
        assert!(stock > 0.0);
    }
}
