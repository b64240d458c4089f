//! The end-to-end set (`--trace 0`), plus `--check` and `--compare`.
//!
//! Per workload: generate the inputs, take the RSS baseline, set up (server
//! start, preload, warm-up), then alternate quarter-second closed-loop and
//! open-loop slices for `--seconds`, then set up twice more so that
//! `setup_s` is a median. Timing metrics are medians over the slices, each
//! slice corrected for the machine's speed while it ran (`harness::Speed`).
//! The last line printed is the JSON object the driver reads.

use benchkit::cli::{self, Args};
use benchkit::client::Tally;
use benchkit::gen::{self, Inputs};
use benchkit::harness::{self, Harness, ServerStats};
use benchkit::maths;
use benchkit::procfs;
use benchkit::report::{self, metric, Catalogue, Metric, Report};
use benchkit::workload::Spec;
use std::path::Path;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of one closed-loop or open-loop slice. A run alternates the two,
/// so that both see the same stretch of the machine's ups and downs and a
/// disturbance of a second spoils a few slices, not a phase.
const SLICE_S: f64 = 0.25;

fn median(what: &str, values: &[f64]) -> Result<f64, String> {
    maths::median(values).ok_or(format!("{what}: no slice was measured"))
}

fn measure(spec: &Spec, args: &Args) -> Result<Report, String> {
    let pinned = procfs::pin_to_one_cpu();
    let inputs = Inputs::generate(&spec.streams);
    // The harness's own buffers exist and are touched by now; what RSS
    // grows by from here is the server's.
    let rss_base = procfs::rss_bytes();
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);

    let mut bench = Harness::setup(spec, &inputs, args.seed).map_err(io)?;
    // Taken here, after a fixed number of operations, and not after the
    // timed slices, whose operation count depends on the machine's speed.
    let rss_end = procfs::rss_bytes();
    let mut setups = vec![bench.setup_cpu_s * bench.setup_speed.factor];
    let warm: Vec<Tally> = bench.workers.iter().map(|w| w.tally).collect();
    let cycles = ((args.seconds / (2.0 * SLICE_S)).round() as usize).max(1);
    let (mut capacity, mut paced) = (Vec::new(), Vec::new());
    for _ in 0..cycles {
        capacity.push(bench.capacity(SLICE_S));
        paced.push(bench.paced(SLICE_S));
    }
    let timed: Vec<Tally> = bench
        .workers
        .iter()
        .zip(&warm)
        .map(|(w, warm)| w.tally.since(warm))
        .collect();
    bench.shutdown();
    for _ in 1..SETUPS {
        let again = Harness::setup(spec, &inputs, args.seed).map_err(io)?;
        setups.push(again.setup_cpu_s * again.setup_speed.factor);
        again.shutdown();
    }

    // Every time below is a time on the reference machine: the measured
    // time multiplied by how fast this machine was while it was measured.
    let speeds: Vec<f64> = capacity.iter().map(|c| c.speed.factor).collect();
    let rates: Vec<f64> = capacity
        .iter()
        .map(|c| c.tally.ops as f64 / (c.cpu_s * c.speed.factor))
        .collect();
    let cpu_per_mop: Result<Vec<f64>, String> = capacity
        .iter()
        .map(|c| {
            let cpu_s = harness::server_cpu_s(c)?;
            Ok(cpu_s * c.speed.factor / (c.tally.ops.max(1) as f64 / 1e6))
        })
        .collect();
    // A slice in which nothing was sent on time has neither.
    let p50s: Vec<f64> = paced
        .iter_mut()
        .filter_map(|p| {
            let ns = maths::percentile(&mut p.log.service, 0.5)?;
            Some(f64::from(ns) / 1e3 * p.speed.factor)
        })
        .filter(|us| us.is_finite())
        .collect();

    // Per connection, because how far each connection gets in a closed
    // loop depends on scheduling, and tenants differ in hit rate.
    let hit_rates: Vec<f64> = timed
        .iter()
        .map(|t| t.hits as f64 / t.gets.max(1) as f64)
        .collect();
    let attempted: u64 = timed.iter().map(|t| t.ops).sum();
    let failed: u64 = timed.iter().map(|t| t.failed).sum();
    let metrics: Vec<Metric> = vec![
        Metric {
            name: "throughput_rps",
            value: median("throughput_rps", &rates),
            unit: "1/s",
        },
        Metric {
            name: "p50_us",
            value: median("p50_us", &p50s),
            unit: "us",
        },
        metric(
            "hit_rate",
            hit_rates.iter().sum::<f64>() / hit_rates.len() as f64,
            "ratio",
        ),
        Metric {
            name: "rss_mb",
            value: procfs::rss_growth_mb(rss_base, rss_end),
            unit: "MB",
        },
        metric("setup_s", maths::median(&setups).unwrap_or(f64::NAN), "s"),
        Metric {
            name: "cpu_s_per_mop",
            value: cpu_per_mop
                .clone()
                .and_then(|slices| median("cpu_s_per_mop", &slices)),
            unit: "s/Mop",
        },
    ];
    let wall_rates: Vec<f64> = capacity
        .iter()
        .map(|c| c.tally.ops as f64 / c.wall_s)
        .collect();
    let cost_medians = |costs: Vec<&Vec<f64>>| -> Vec<Option<f64>> {
        (0..spec.streams.len())
            .map(|i| maths::median(&costs.iter().map(|c| c[i]).collect::<Vec<f64>>()))
            .collect()
    };
    let mut lag: Vec<u32> = paced
        .iter()
        .flat_map(|p| p.log.lag.iter().copied())
        .collect();
    let from_due: Vec<f64> = paced
        .iter()
        .filter_map(|p| p.log.latency.overall_us(0.5))
        .collect();
    let mut notes = vec![
        format!(
            "{cycles} cycles of {SLICE_S} s closed loop + {SLICE_S} s open loop; {} closed-loop ops, {} latency samples",
            capacity.iter().map(|c| c.tally.ops).sum::<u64>(),
            paced.iter().map(|p| p.log.service.len()).sum::<usize>(),
        ),
        format!(
            "machine speed against the reference, quartiles over closed-loop slices: {:?}; \
             yardsticks per connection, CPU ns: send {:?}, request {:?}; reference {:?}",
            maths::quartiles(&speeds),
            cost_medians(capacity.iter().map(|c| &c.speed.cost_ns).collect()),
            cost_medians(paced.iter().map(|p| &p.speed.cost_ns).collect()),
            spec.streams.iter().map(|s| s.yardstick).collect::<Vec<_>>(),
        ),
        format!(
            "uncorrected: median over slices of wall-clock throughput {:?} 1/s, of median latency from the due time {:?} us; \
             setup_s samples at reference speed: {setups:?}",
            maths::median(&wall_rates),
            maths::median(&from_due),
        ),
        procfs::pin_note(&pinned),
        format!("hit rate per connection over the timed slices: {hit_rates:?}"),
        format!(
            "paced sends ran late by p50 {:?} us, p99 {:?} us",
            maths::percentile(&mut lag, 0.5).map(|ns| f64::from(ns) / 1e3),
            maths::percentile(&mut lag, 0.99).map(|ns| f64::from(ns) / 1e3),
        ),
    ];
    if failed > 0 {
        notes.push(format!(
            "failed_share {}: {failed} of {attempted} operations failed",
            failed as f64 / attempted.max(1) as f64
        ));
    }
    Ok(Report {
        workload: spec.name,
        seed: args.seed,
        seconds: args.seconds,
        correct: failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_ok()),
        attempted,
        failed,
        metrics,
        windows: vec![
            ("throughput_rps", rates),
            ("p50_us", p50s),
            ("cpu_s_per_mop", cpu_per_mop.unwrap_or_default()),
        ],
        notes,
    })
}

/// The smoke test: about half a second per phase and workload. Returns the
/// list of broken expectations.
fn check(spec: &Spec, seed: u64) -> Result<Vec<String>, String> {
    let mut broken = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    let inputs = Inputs::generate(&spec.streams);
    let again = Inputs::generate(&spec.streams);
    expect(
        gen::stream_hash(&inputs, seed, 20_000) == gen::stream_hash(&again, seed, 20_000),
        "two generations of one seed's op stream differ".to_string(),
    );
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);
    let _ = procfs::pin_to_one_cpu();
    let mut bench = Harness::setup(spec, &inputs, seed).map_err(io)?;
    let before = ServerStats::scrape(&mut bench.workers[0])?;
    let capacity = bench.capacity(0.5);
    let paced = bench.paced(0.5);
    let after = ServerStats::scrape(&mut bench.workers[0])?;
    let total = bench.tally();
    bench.shutdown();

    let gets = capacity.tally.gets + paced.tally.gets;
    let hit_rate = (capacity.tally.hits + paced.tally.hits) as f64 / gets.max(1) as f64;
    let remote = after.remote_share(&before);
    let evictions = after.evictions_per_set(&before);
    println!(
        "{} check: {} ops, hit_rate {hit_rate:.4}, plane.remote_share {remote:.4}, alloc.evictions_per_set {evictions:.4}",
        spec.name,
        capacity.tally.ops + paced.tally.ops
    );
    expect(
        total.failed == 0,
        format!("{} operations failed or did not verify", total.failed),
    );
    expect(gets > 0, "no GET was answered".to_string());
    if spec.loops == 1 {
        expect(
            remote == 0.0,
            format!("plane.remote_share {remote} on one loop"),
        );
    } else {
        expect(
            (0.4..=0.6).contains(&remote),
            format!("plane.remote_share {remote} outside 0.4..0.6"),
        );
    }
    match spec.name {
        "etc_pressure" | "write_churn" => {
            expect(evictions > 0.0, "nothing was evicted".to_string());
            expect(
                hit_rate < 0.97,
                format!("hit_rate {hit_rate} is not under pressure"),
            );
        }
        "cliff_scan" => expect(
            hit_rate > 0.2 && hit_rate < 0.98,
            format!("hit_rate {hit_rate} is off the cliff's slope"),
        ),
        _ => {}
    }
    Ok(broken)
}

fn catalogue() -> Result<Catalogue, String> {
    Catalogue::load(Path::new(cli::CATALOGUE))
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((base, change)) = &args.compare {
        return Ok(!report::compare(base, change, &catalogue()?)?);
    }
    if args.check {
        let declared = catalogue()?;
        let mut ok = true;
        for name in &declared.workloads {
            if !args.workloads.iter().any(|s| s.name == name) {
                println!("check FAILED: BENCHMARK.json names unknown workload {name}");
                ok = false;
            }
        }
        for spec in &args.workloads {
            for what in check(spec, args.seed)? {
                println!("{} check FAILED: {what}", spec.name);
                ok = false;
            }
        }
        println!("check {}", if ok { "passed" } else { "FAILED" });
        return Ok(ok);
    }
    let [spec] = args.workloads.as_slice() else {
        return cli::one_process_per_workload(args);
    };
    cli::emit(&measure(spec, args)?, args)
}

fn main() -> ExitCode {
    cli::main_with(run)
}
