//! The traced run (`--trace 1`): every per-layer metric of one workload.
//!
//! 1. Set up as the end-to-end run does, then drive the first operations of
//!    connection 0's stream over the wire at pipeline 1 twice — spans off,
//!    then on — which gives the `request` spans and the tracing overhead.
//! 2. Run a capacity and a paced phase (0.4 of `--seconds` each) with
//!    `/proc` and `stats json` sampled at the edges: what the reactor, the
//!    control thread, the allocators, memory and the tool itself did.
//! 3. Probe the live server through `PlaneHandle` and `CacheClient`.
//! 4. Replay the same operations through each layer's public functions in
//!    isolation (`probes.rs`), allocation counter armed.
//!
//! Spans stay in memory until the end and are then written to
//! `benchmark/out/trace-<workload>.jsonl`. End-to-end metrics never come
//! from this binary.

mod probes;

use benchkit::alloc::CountingAlloc;
use benchkit::cli::{self, Args};
use benchkit::gen::{Inputs, Stream};
use benchkit::harness::{Harness, ServerStats};
use benchkit::maths;
use benchkit::procfs::{self, TaskSample};
use benchkit::report::{metric, Metric, Report};
use benchkit::spans::Recorder;
use benchkit::workload::Spec;
use cache_server::BackendMode;
use probes::{Kv, Names, Replay};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Operations per traced pass and per isolated replay, per second of
/// `--seconds`.
const TRACE_OPS_PER_SECOND: f64 = 2_500.0;
/// Share of `--seconds` each of the two driven phases gets; the traced
/// passes and the probes, which are sized in operations, take the rest.
const DRIVE_SHARE: f64 = 0.4;
const MIB: f64 = (1u64 << 20) as f64;
/// A paced send later than this counts towards `client.late_share`.
const LATE_NS: u32 = 100_000;
/// A paced request slower than this (or failed) misses the latency limit.
const SLO_NS: u32 = 1_000_000;

fn median_ns(rec: &Recorder, span: &str) -> Result<f64, String> {
    maths::median(&rec.durations(span)).ok_or(format!("no {span} span was recorded"))
}

fn ns(name: &'static str, value: Result<f64, String>) -> Metric {
    Metric {
        name,
        value,
        unit: "ns",
    }
}

/// Replays the stream, the supplement and the eviction probe against one
/// layer.
fn probe_layer(
    replay: &Replay<'_>,
    names: &Names,
    rec: &mut Recorder,
    mut workload_sized: impl Kv,
    mut evict_sized: impl Kv,
) {
    probes::replay_kv(replay, &mut workload_sized, names, rec);
    probes::evict_probe(replay, &mut evict_sized, names, rec);
}

fn measure(spec: &Spec, args: &Args) -> Result<Report, String> {
    let pinned = procfs::pin_to_one_cpu();
    let inputs = Inputs::generate(&spec.streams);
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);
    let trace_ops = (args.seconds * TRACE_OPS_PER_SECOND) as u32;
    let mut rec = Recorder::with_capacity(trace_ops as usize * 24);
    let rss_base = procfs::rss_bytes();
    let mut metrics: Vec<Metric> = Vec::new();

    // 1. The traced wire passes, on a server whose state so far is a pure
    // function of the seed.
    let mut bench = Harness::setup(spec, &inputs, args.seed).map_err(io)?;
    let rss_end = procfs::rss_bytes();
    let tally0 = bench.workers[0].tally;
    let begun = Instant::now();
    bench.workers[0].traced(trace_ops, None).map_err(io)?;
    let plain_s = begun.elapsed().as_secs_f64();
    let begun = Instant::now();
    bench.workers[0]
        .traced(trace_ops, Some(&mut rec))
        .map_err(io)?;
    let traced_s = begun.elapsed().as_secs_f64();
    let fixed = bench.workers[0].tally.since(&tally0);

    // 2. The drive.
    let stats0 = ServerStats::scrape(&mut bench.workers[0])?;
    let capacity = bench.capacity(args.seconds * DRIVE_SHARE);
    let mut paced = bench.paced(args.seconds * DRIVE_SHARE);
    let stats1 = ServerStats::scrape(&mut bench.workers[0])?;
    let drive = {
        let mut t = capacity.tally;
        t.add(&paced.tally);
        t
    };

    // 3. The live server, from inside and from a second client.
    let replay = Replay::new(&inputs, spec, args.seed, trace_ops);
    probes::plane_gets(&replay, bench.server.cache(), &mut rec);
    probes::control_rounds(bench.server.cache(), &mut rec);
    probes::wire_gets(&replay, bench.server.local_addr(), &mut rec).map_err(io)?;
    let total = bench.tally();
    bench.shutdown();

    // 4. Each layer alone.
    probes::clock(&mut rec);
    let unparsed = probes::protocol(&replay, &mut rec);
    probes::hash_key(&replay, &mut rec);
    let budget = spec.budget_mb << 20;
    probe_layer(
        &replay,
        &probes::ENGINE,
        &mut rec,
        probes::Embedded::for_workload(spec, BackendMode::Cliffhanger),
        probes::Embedded::for_evict_probe(),
    );
    probes::replay_kv(
        &replay,
        &mut probes::Embedded::for_workload(spec, BackendMode::Default),
        &probes::ENGINE_DEFAULT,
        &mut rec,
    );
    let mut direct = probes::DirectCliffhanger::new(budget);
    probes::replay_kv(&replay, &mut direct, &probes::CLIFFHANGER, &mut rec);
    let class_transfers = direct.0.transfers();
    probes::evict_probe(
        &replay,
        &mut probes::DirectCliffhanger::for_evict_probe(),
        &probes::CLIFFHANGER,
        &mut rec,
    );
    probe_layer(
        &replay,
        &probes::SLAB,
        &mut rec,
        probes::DirectSlab::new(budget),
        probes::DirectSlab::for_evict_probe(),
    );
    let mut stream = Stream::new(&inputs, 0, args.seed);
    let begun = Instant::now();
    for _ in 0..trace_ops {
        std::hint::black_box(stream.next_op());
    }
    let gen_ns = begun.elapsed().as_nanos() as f64 / f64::from(trace_ops);

    // protocol
    let parse_get = median_ns(&rec, "protocol.parse_get");
    let encode_hit = median_ns(&rec, "protocol.encode_hit");
    metrics.push(ns("protocol.parse_get_ns", parse_get.clone()));
    metrics.push(ns(
        "protocol.parse_set_ns",
        median_ns(&rec, "protocol.parse_set"),
    ));
    metrics.push(ns("protocol.encode_hit_ns", encode_hit.clone()));
    let (parses, parse_allocs, parse_bytes) = rec.alloc_totals(&[
        "protocol.parse_get",
        "protocol.parse_set",
        "protocol.parse_delete",
    ]);
    let (encodes, encode_allocs, encode_bytes) = rec.alloc_totals(&["protocol.encode_hit"]);
    let (parse_allocs, encode_allocs) = (parse_allocs / parses, encode_allocs / encodes);
    metrics.push(metric(
        "protocol.parse_allocs_per_op",
        parse_allocs,
        "count",
    ));
    metrics.push(metric(
        "protocol.encode_allocs_per_op",
        encode_allocs,
        "count",
    ));
    metrics.push(metric(
        "protocol.bytes_copied_per_op",
        parse_bytes / parses + encode_bytes / encodes,
        "B",
    ));

    // backend / engine
    let engine_hit = median_ns(&rec, probes::ENGINE.get_hit);
    metrics.push(ns("engine.get_hit_ns", engine_hit.clone()));
    for (name, span) in [
        ("engine.get_miss_ns", probes::ENGINE.get_miss),
        ("engine.set_ns", probes::ENGINE.set),
        ("engine.set_evict_ns", probes::ENGINE.set_evict),
        ("engine.delete_ns", probes::ENGINE.delete),
    ] {
        metrics.push(ns(name, median_ns(&rec, span)));
    }
    for (name, span) in [
        ("engine.get_allocs_per_op", probes::ENGINE.get_hit),
        ("engine.set_allocs_per_op", probes::ENGINE.set),
    ] {
        let (spans, allocs, _) = rec.alloc_totals(&[span]);
        metrics.push(metric(name, allocs / spans, "count"));
    }
    metrics.push(Metric {
        name: "engine.managed_overhead_ratio",
        value: engine_hit
            .clone()
            .and_then(|managed| Ok(managed / median_ns(&rec, probes::ENGINE_DEFAULT.get_hit)?)),
        unit: "ratio",
    });

    // cliffhanger / cache_core
    for (name, span) in [
        ("cliffhanger.get_hit_ns", probes::CLIFFHANGER.get_hit),
        ("cliffhanger.get_miss_ns", probes::CLIFFHANGER.get_miss),
        ("cliffhanger.set_evict_ns", probes::CLIFFHANGER.set_evict),
        ("cache_core.slab_get_hit_ns", probes::SLAB.get_hit),
        ("cache_core.slab_set_evict_ns", probes::SLAB.set_evict),
        ("cache_core.hash_key_ns", "cache_core.hash_key"),
    ] {
        metrics.push(ns(name, median_ns(&rec, span)));
    }

    // plane
    let plane_roundtrip = median_ns(&rec, probes::PLANE.get_hit);
    metrics.push(ns("plane.roundtrip_ns", plane_roundtrip.clone()));
    metrics.push(ns(
        "plane.hop_ns",
        plane_roundtrip.and_then(|rt| Ok(rt - engine_hit.clone()?)),
    ));
    metrics.push(metric(
        "plane.remote_share",
        stats1.remote_share(&stats0),
        "ratio",
    ));

    // reactor / conn
    let wall_ns = capacity.wall_s * 1e9;
    let ops = capacity.tally.ops.max(1) as f64;
    let loops = |counter: fn(&TaskSample) -> Option<u64>| {
        procfs::delta(&capacity.before, &capacity.after, "cache-loop-", counter)
    };
    let busiest = (0..spec.loops)
        .map(|i| {
            procfs::delta(
                &capacity.before,
                &capacity.after,
                &format!("cache-loop-{i}"),
                |t| t.cpu_ns,
            )
        })
        .try_fold(0u64, |max, cpu| cpu.map(|cpu| max.max(cpu)));
    metrics.push(Metric {
        name: "reactor.loop_busy_share",
        value: busiest.map(|cpu| cpu as f64 / wall_ns),
        unit: "ratio",
    });
    metrics.push(Metric {
        name: "reactor.wakeups_per_op",
        value: loops(|t| t.wakeups).map(|n| n as f64 / ops),
        unit: "count",
    });
    let wire_roundtrip = median_ns(&rec, probes::WIRE.get_hit);
    let layers_sum = parse_get.and_then(|p| Ok(p + engine_hit.clone()? + encode_hit?));
    metrics.push(ns("wire.roundtrip_ns", wire_roundtrip.clone()));
    metrics.push(ns(
        "wire.self_ns",
        wire_roundtrip
            .clone()
            .and_then(|rt| Ok(rt - layers_sum.clone()?)),
    ));
    metrics.push(Metric {
        name: "wire.sum_ratio",
        value: layers_sum.and_then(|sum| Ok(sum / wire_roundtrip?)),
        unit: "ratio",
    });

    // control thread and allocators
    for (name, span) in [
        ("control.rebalance_round_us", "control.rebalance_round"),
        ("control.arbitrate_round_us", "control.arbitrate_round"),
        ("control.stats_json_us", "control.stats_json"),
    ] {
        metrics.push(Metric {
            name,
            value: median_ns(&rec, span).map(|ns| ns / 1e3),
            unit: "us",
        });
    }
    metrics.push(Metric {
        name: "control.cpu_share",
        value: procfs::delta(&capacity.before, &capacity.after, "cache-control", |t| {
            t.cpu_ns
        })
        .map(|cpu| cpu as f64 / wall_ns),
        unit: "ratio",
    });
    let misses = (stats1.cmd_get - stats1.get_hits) - (stats0.cmd_get - stats0.get_hits);
    metrics.push(metric(
        "alloc.evictions_per_set",
        stats1.evictions_per_set(&stats0),
        "ratio",
    ));
    metrics.push(metric(
        "alloc.shadow_hit_share",
        (stats1.shadow_hits - stats0.shadow_hits) as f64 / misses.max(1) as f64,
        "ratio",
    ));
    for (name, count) in [
        ("alloc.class_transfers", class_transfers),
        ("alloc.shard_transfers", stats1.shard_transfers),
        ("alloc.tenant_transfers", stats1.tenant_transfers),
    ] {
        metrics.push(metric(name, count as f64, "count"));
    }
    for (name, tenant) in [
        ("alloc.hit_rate.etc", "etc"),
        ("alloc.hit_rate.small", "small"),
    ] {
        let of = |stats: &ServerStats| {
            stats
                .tenants
                .iter()
                .find(|(name, _, _)| name == tenant)
                .map_or((0, 0), |&(_, gets, hits)| (gets, hits))
        };
        let ((gets0, hits0), (gets1, hits1)) = (of(&stats0), of(&stats1));
        // 0 where the workload has no such tenant.
        metrics.push(metric(
            name,
            (hits1 - hits0) as f64 / (gets1 - gets0).max(1) as f64,
            "ratio",
        ));
    }
    metrics.push(metric(
        "alloc.fixed_ops_hit_rate",
        fixed.hits as f64 / fixed.gets.max(1) as f64,
        "ratio",
    ));

    // memory
    let rss_mb = procfs::rss_growth_mb(rss_base, rss_end);
    metrics.push(Metric {
        name: "mem.rss_per_budget",
        value: rss_mb.map(|mb| mb / spec.budget_mb as f64),
        unit: "ratio",
    });
    metrics.push(metric("mem.accounted_mb", stats1.bytes as f64 / MIB, "MB"));

    // the tool itself
    metrics.push(metric("client.gen_ns_per_op", gen_ns, "ns"));
    metrics.push(Metric {
        name: "client.cpu_share",
        value: capacity
            .client_cpu_ns
            .clone()
            .map(|cpu| cpu as f64 / wall_ns),
        unit: "ratio",
    });
    metrics.push(metric(
        "client.machine_speed",
        capacity.speed.factor,
        "ratio",
    ));
    let sends = paced.log.lag.len().max(1) as f64;
    let late = paced.log.lag.iter().filter(|&&ns| ns > LATE_NS).count() as f64;
    metrics.push(Metric {
        name: "client.send_lag_p99_us",
        value: maths::percentile(&mut paced.log.lag, 0.99)
            .map(|ns| f64::from(ns) / 1e3)
            .ok_or("no paced request was sent".to_string()),
        unit: "us",
    });
    metrics.push(metric("client.late_share", late / sends, "ratio"));
    metrics.push(Metric {
        name: "client.p99_us",
        value: maths::median(&paced.log.latency.per_window_us(0.99))
            .ok_or("paced phase shorter than one window".to_string()),
        unit: "us",
    });
    metrics.push(Metric {
        name: "client.p999_us",
        value: paced
            .log
            .latency
            .overall_us(0.999)
            .ok_or("paced phase shorter than one window".to_string()),
        unit: "us",
    });
    metrics.push(metric(
        "client.slo_miss_share",
        paced.log.latency.share_above(SLO_NS),
        "ratio",
    ));
    metrics.push(metric(
        "client.set_refused_share",
        drive.sets_refused as f64 / drive.sets.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "trace.overhead_share",
        1.0 - plain_s / traced_s,
        "ratio",
    ));
    metrics.push(ns("trace.clock_ns", median_ns(&rec, "trace.clock")));

    let out = PathBuf::from(format!("benchmark/out/trace-{}.jsonl", spec.name));
    let written = rec.write_jsonl(&out);
    let self_time = maths::median(&rec.self_times("request"));
    let notes = vec![
        format!(
            "{} spans -> {} ({}); median request span {:?} ns, self time {:?} ns",
            rec.len(),
            out.display(),
            match &written {
                Ok(()) => "written".to_string(),
                Err(e) => format!("NOT written: {e}"),
            },
            maths::median(&rec.durations("request")),
            self_time,
        ),
        format!(
            "{trace_ops} ops per traced pass: {plain_s:.3} s plain, {traced_s:.3} s with spans; drive: {} ops; \
             client.p99_us has at least {} samples beyond it in each window",
            drive.ops,
            paced.log.latency.min_beyond(0.99),
        ),
        procfs::pin_note(&pinned),
        format!(
            "loop threads made {:?} read/write-family system calls in the capacity phase \
             (/proc/<tid>/io does not count the recv/send sockets use)",
            loops(|t| t.syscalls)
        ),
    ];
    let failed = total.failed + unparsed;
    Ok(Report {
        workload: spec.name,
        seed: args.seed,
        seconds: args.seconds,
        correct: failed == 0 && written.is_ok() && metrics.iter().all(|m| m.value.is_ok()),
        attempted: total.ops + u64::from(trace_ops),
        failed,
        metrics,
        windows: Vec::new(),
        notes,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    if args.check || args.compare.is_some() {
        return Err(
            "--check and --compare belong to the end-to-end binary (--trace 0)".to_string(),
        );
    }
    let [spec] = args.workloads.as_slice() else {
        return cli::one_process_per_workload(args);
    };
    cli::emit(&measure(spec, args)?, args)
}

fn main() -> ExitCode {
    cli::main_with(run)
}
