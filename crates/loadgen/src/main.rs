//! The `loadgen` command-line tool.
//!
//! With `--addr` it drives an external server; without it, it self-hosts an
//! in-process [`cache_server::CacheServer`] (handy for CI smoke runs).
//!
//! The JSON report goes to stdout (or `--json <path>`); the human-readable
//! summary goes to stderr, so `loadgen … | jq .` just works.

use cache_server::BackendMode;
use loadgen::scenario::{named_scenario, run_scenario, scenario_names, ScenarioReport};
use loadgen::{
    run_load, run_self_hosted, LoadMode, LoadReport, LoadgenConfig, SelfHostConfig, TenantLoad,
    WorkloadSpec,
};
use std::io::Write;
use std::process::ExitCode;
use workloads::{KeyPopularity, SizeDistribution};

const USAGE: &str = "\
loadgen — memtier-style load generator for the cliffhanger cache server

USAGE:
    cargo run --release -p loadgen -- [OPTIONS]

TARGET (default: self-host an in-process server):
    --addr <host:port>      drive an external server instead of self-hosting
    --shards <n>            shard count for the self-hosted server (0 = auto)
    --mb <n>                self-hosted cache size in MB            [64]
    --allocator <name>      default | hillclimbing | cliffhanger    [cliffhanger]
    --server-workers <n>    server event loops, each multiplexing
                            many connections (0 = one per CPU)      [0]
    --rebalance <on|off>    cross-shard budget rebalancing          [on]
    --slow-op-micros <n>    slow-op log threshold in microseconds
                            (ops at/over it are counted and sampled
                            into the server journal; 0 = off)       [0]
    --mrc-sample <n>        online miss-ratio-curve profiling: sample
                            one in <n> GETs (rounded up to a power
                            of two; 0 = off), surfaced as the `mrc`
                            section of `stats json`                 [64]
    --hot-key-promote <on|off>  hot-key detection + per-loop replica
                            promotion (the aggressive profile: every
                            GET sampled, fast control rounds), echoed
                            as the report's hot_key_* counters       [off]

LOAD:
    --requests <n>          measured requests                       [100000]
    --connections <n>       worker threads / TCP connections        [4]
    --pipeline <n>          requests per pipelined batch            [16]
    --mode <closed|open>    driving mode                            [closed]
    --rate <rps>            open-loop total arrival rate            [20000]
    --warmup <n>            hottest keys preloaded untimed          [10000]
    --fill-on-miss <on|off> cache-aside demand fill: SET every
                            missed GET key (fills ride on top of
                            the request budget; in open loop each
                            fill occupies the next scheduled
                            arrival slot, and fills get their own
                            fill_latency report section)            [off]

WORKLOAD:
    --keys <n>              key-universe size                       [50000]
    --zipf <exponent>       Zipf exponent (0 = uniform)             [0.99]
    --get-fraction <f>      fraction of GETs                        [0.9]
    --value-size <spec>     fixed:<bytes> | etc | etc:<cap-bytes>   [etc:16384]
    --seed <n>              base RNG seed

MULTI-TENANT (the `app <name>` protocol extension):
    --tenants <spec>        comma-separated name[:weight[:zipf[:keys]]]
                            entries, e.g. hot:3:1.1:20000,cold:1:0.7
                            (weight = connection/request share; zipf and
                            keys default to the global flags; a self-hosted
                            server hosts the named apps automatically)
    --tenant-balance <on|off>  cross-tenant budget arbitration      [on]

RESILIENCE SCENARIOS (self-host only; other load/workload flags ignored):
    --scenario <name>       run a named chaos/replay scenario end to end and
                            report `cliffhanger-scenario/v1` with invariant
                            verdicts: scan_storm | diurnal | drift |
                            conn_churn | slow_loris | tenant_storm |
                            flash_crowd
    --scenario-scale <f>    scale the scenario's request volume (1.0 =
                            standard nightly size, 0.05 = CI smoke)  [1.0]

OUTPUT:
    --json <path>           write the JSON report to a file instead of stdout
    -h, --help              this text
";

struct Args {
    addr: Option<String>,
    shards: usize,
    mb: u64,
    allocator: BackendMode,
    server_workers: usize,
    rebalance: bool,
    tenant_balance: bool,
    slow_op_micros: u64,
    mrc_sample: u64,
    hot_key_promote: bool,
    scenario: Option<String>,
    scenario_scale: f64,
    json_path: Option<String>,
    load: LoadgenConfig,
}

/// Parses one `--tenants` entry: `name[:weight[:zipf[:keys]]]`. The zipf
/// exponent and key count default to the surrounding global flags; the rest
/// of the workload (sizes, GET fraction, seed) is always inherited.
fn parse_tenant(
    entry: &str,
    base: &WorkloadSpec,
    num_keys: u64,
    zipf: f64,
) -> Result<TenantLoad, String> {
    let mut parts = entry.split(':');
    let name = parts
        .next()
        .filter(|n| !n.is_empty())
        .ok_or_else(|| format!("empty tenant name in {entry:?}"))?;
    let weight: u64 = match parts.next() {
        Some(w) => w
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("bad tenant weight in {entry:?} (need an integer >= 1)"))?,
        None => 1,
    };
    let exponent: f64 = match parts.next() {
        Some(z) => z
            .parse()
            .map_err(|_| format!("bad tenant zipf exponent in {entry:?}"))?,
        None => zipf,
    };
    let keys: u64 = match parts.next() {
        Some(k) => k
            .parse()
            .ok()
            .filter(|&k| k >= 1)
            .ok_or_else(|| format!("bad tenant key count in {entry:?}"))?,
        None => num_keys,
    };
    if parts.next().is_some() {
        return Err(format!(
            "too many fields in tenant {entry:?} (want name[:weight[:zipf[:keys]]])"
        ));
    }
    let mut spec = base.clone();
    spec.keys = if exponent <= 0.0 {
        KeyPopularity::Uniform { num_keys: keys }
    } else {
        KeyPopularity::Zipf {
            num_keys: keys,
            exponent,
        }
    };
    Ok(TenantLoad::new(name, weight, spec))
}

fn parse_value_size(spec: &str) -> Result<SizeDistribution, String> {
    if let Some(bytes) = spec.strip_prefix("fixed:") {
        let bytes: u64 = bytes
            .parse()
            .map_err(|_| format!("bad --value-size: {spec}"))?;
        return Ok(SizeDistribution::Fixed(bytes.max(1)));
    }
    if spec == "etc" {
        return Ok(SizeDistribution::facebook_etc());
    }
    if let Some(cap) = spec.strip_prefix("etc:") {
        let cap: u64 = cap
            .parse()
            .map_err(|_| format!("bad --value-size: {spec}"))?;
        return Ok(SizeDistribution::GeneralizedPareto {
            location: 0.0,
            scale: 214.476,
            shape: 0.348_468,
            cap: cap.max(1),
        });
    }
    Err(format!(
        "bad --value-size {spec:?}: expected fixed:<bytes>, etc, or etc:<cap>"
    ))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        shards: 0,
        mb: 64,
        allocator: BackendMode::Cliffhanger,
        server_workers: 0,
        rebalance: true,
        tenant_balance: true,
        slow_op_micros: 0,
        mrc_sample: 64,
        hot_key_promote: false,
        scenario: None,
        scenario_scale: 1.0,
        json_path: None,
        load: LoadgenConfig::default(),
    };
    let mut num_keys: u64 = 50_000;
    let mut zipf: f64 = 0.99;
    let mut open_rate: f64 = 20_000.0;
    let mut open_mode = false;
    // Parsed after the loop: tenant specs default their zipf/keys to the
    // global flags, which may appear in any order.
    let mut tenants_spec: Option<String> = None;
    // First self-host-only flag seen, to reject silent no-ops with --addr.
    let mut self_host_flag: Option<&'static str> = None;

    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        for known in [
            "--shards",
            "--mb",
            "--allocator",
            "--server-workers",
            "--rebalance",
            "--tenant-balance",
            "--slow-op-micros",
            "--mrc-sample",
            "--hot-key-promote",
        ] {
            if flag == known {
                self_host_flag.get_or_insert(known);
            }
        }
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => args.addr = Some(value("--addr")?),
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "bad --shards".to_string())?
            }
            "--mb" => args.mb = value("--mb")?.parse().map_err(|_| "bad --mb".to_string())?,
            "--allocator" => {
                args.allocator = match value("--allocator")?.as_str() {
                    "default" => BackendMode::Default,
                    "hillclimbing" => BackendMode::HillClimbing,
                    "cliffhanger" => BackendMode::Cliffhanger,
                    other => return Err(format!("bad --allocator {other:?}")),
                }
            }
            "--server-workers" => {
                args.server_workers = value("--server-workers")?
                    .parse()
                    .map_err(|_| "bad --server-workers".to_string())?
            }
            "--rebalance" => {
                args.rebalance = match value("--rebalance")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --rebalance {other:?} (want on|off)")),
                }
            }
            "--tenant-balance" => {
                args.tenant_balance = match value("--tenant-balance")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --tenant-balance {other:?} (want on|off)")),
                }
            }
            "--slow-op-micros" => {
                args.slow_op_micros = value("--slow-op-micros")?
                    .parse()
                    .map_err(|_| "bad --slow-op-micros".to_string())?
            }
            "--mrc-sample" => {
                args.mrc_sample = value("--mrc-sample")?
                    .parse()
                    .map_err(|_| "bad --mrc-sample".to_string())?
            }
            "--hot-key-promote" => {
                args.hot_key_promote = match value("--hot-key-promote")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --hot-key-promote {other:?} (want on|off)")),
                }
            }
            "--tenants" => tenants_spec = Some(value("--tenants")?),
            "--fill-on-miss" => {
                args.load.fill_on_miss = match value("--fill-on-miss")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --fill-on-miss {other:?} (want on|off)")),
                }
            }
            "--requests" => {
                args.load.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "bad --requests".to_string())?
            }
            "--connections" => {
                args.load.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "bad --connections".to_string())?
            }
            "--pipeline" => {
                args.load.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|_| "bad --pipeline".to_string())?
            }
            "--mode" => match value("--mode")?.as_str() {
                "closed" => open_mode = false,
                "open" => open_mode = true,
                other => return Err(format!("bad --mode {other:?}")),
            },
            "--rate" => {
                open_rate = value("--rate")?
                    .parse()
                    .map_err(|_| "bad --rate".to_string())?
            }
            "--warmup" => {
                args.load.warmup_keys = value("--warmup")?
                    .parse()
                    .map_err(|_| "bad --warmup".to_string())?
            }
            "--keys" => {
                num_keys = value("--keys")?
                    .parse()
                    .map_err(|_| "bad --keys".to_string())?
            }
            "--zipf" => {
                zipf = value("--zipf")?
                    .parse()
                    .map_err(|_| "bad --zipf".to_string())?
            }
            "--get-fraction" => {
                args.load.workload.get_fraction = value("--get-fraction")?
                    .parse()
                    .map_err(|_| "bad --get-fraction".to_string())?
            }
            "--value-size" => args.load.workload.sizes = parse_value_size(&value("--value-size")?)?,
            "--seed" => {
                args.load.workload.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--scenario-scale" => {
                args.scenario_scale = value("--scenario-scale")?
                    .parse()
                    .ok()
                    .filter(|&f: &f64| f > 0.0)
                    .ok_or_else(|| "bad --scenario-scale (need a positive number)".to_string())?
            }
            "--json" => args.json_path = Some(value("--json")?),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }

    args.load.workload.keys = if zipf <= 0.0 {
        KeyPopularity::Uniform {
            num_keys: num_keys.max(1),
        }
    } else {
        KeyPopularity::Zipf {
            num_keys: num_keys.max(1),
            exponent: zipf,
        }
    };
    args.load.mode = if open_mode {
        LoadMode::Open {
            target_rps: open_rate,
        }
    } else {
        LoadMode::Closed
    };
    if let Some(spec) = &tenants_spec {
        let tenants: Result<Vec<TenantLoad>, String> = spec
            .split(',')
            .map(|entry| parse_tenant(entry.trim(), &args.load.workload, num_keys, zipf))
            .collect();
        let tenants = tenants?;
        if tenants.is_empty() {
            return Err("--tenants needs at least one entry".to_string());
        }
        args.load.tenants = tenants;
    }
    if args.scenario.is_some() && args.addr.is_some() {
        return Err(
            "--scenario self-hosts its own server; it cannot be combined with --addr".to_string(),
        );
    }
    if let (Some(_), Some(flag)) = (&args.addr, self_host_flag) {
        return Err(format!(
            "{flag} configures the self-hosted server and has no effect on an \
             external one; drop it or drop --addr"
        ));
    }
    Ok(args)
}

fn summarize(report: &LoadReport) {
    eprintln!(
        "{} mode, {} conns x pipeline {}: {} requests in {:.3} s = {:.0} req/s",
        report.mode,
        report.connections,
        report.pipeline,
        report.requests,
        report.elapsed_secs,
        report.throughput_rps
    );
    eprintln!(
        "  hit rate {:.1}% ({} hits / {} gets), {} sets, {} errors",
        report.hit_rate * 100.0,
        report.get_hits,
        report.gets,
        report.sets,
        report.errors
    );
    eprintln!(
        "  latency us: p50 {:.0}  p90 {:.0}  p99 {:.0}  p99.9 {:.0}  max {:.0}",
        report.latency.p50_us,
        report.latency.p90_us,
        report.latency.p99_us,
        report.latency.p999_us,
        report.latency.max_us
    );
    if report.fills > 0 {
        eprintln!(
            "  fills: {} scheduled, latency us: p50 {:.0}  p99 {:.0}",
            report.fills, report.fill_latency.p50_us, report.fill_latency.p99_us
        );
    }
    if let Some(server) = &report.server {
        eprintln!(
            "  server: {} shards, {} workers, {} MB, {} allocator, {} evictions",
            server.shards,
            server.workers,
            server.total_bytes >> 20,
            server.allocator,
            server.evictions
        );
        if server.rebalance_enabled {
            eprintln!(
                "  rebalance: {} runs, {} transfers, {:.1} MB moved",
                server.rebalance_runs,
                server.rebalance_transfers,
                server.rebalance_bytes_moved as f64 / (1 << 20) as f64
            );
        }
        if server.arbiter_enabled {
            eprintln!(
                "  arbiter: {} tenants, {} runs, {} transfers, {:.1} MB moved",
                server.tenant_count,
                server.arbiter_runs,
                server.arbiter_transfers,
                server.arbiter_bytes_moved as f64 / (1 << 20) as f64
            );
        }
        if server.slow_ops > 0 || server.idle_closed_connections > 0 {
            eprintln!(
                "  slow ops: {}, idle-closed connections: {}",
                server.slow_ops, server.idle_closed_connections
            );
        }
        if server.hot_key_enabled {
            eprintln!(
                "  hot keys: {} promotions, {} demotions, {} replica hits",
                server.hot_key_promotions, server.hot_key_demotions, server.hot_key_replica_hits
            );
        }
    }
    if let Some(stats) = &report.server_stats {
        let p99 = |class: &str| {
            stats
                .get("service_latency")
                .and_then(|s| s.get(class))
                .and_then(|s| s.get("p99_us"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        eprintln!(
            "  server-side service time p99 us: local {:.0}  remote {:.0}",
            p99("local"),
            p99("remote")
        );
    }
    for tenant in &report.tenants {
        eprintln!(
            "  tenant {}: {} conns, {} reqs, hit {:.1}%, p99 {:.0} us, budget {:.1} MB, \
             {} shadow hits, {} evictions",
            tenant.tenant,
            tenant.connections,
            tenant.requests,
            tenant.hit_rate * 100.0,
            tenant.latency.p99_us,
            tenant.budget_bytes as f64 / (1 << 20) as f64,
            tenant.shadow_hits,
            tenant.evictions
        );
    }
}

fn summarize_scenario(report: &ScenarioReport) {
    eprintln!(
        "scenario {} (scale {:.3}): {} requests in {:.2} s, {} errors",
        report.scenario, report.scale, report.requests, report.elapsed_secs, report.errors
    );
    for phase in &report.phases {
        eprintln!(
            "  phase {:<12} {:>6} mode: {:>8} reqs, {:>9.0} req/s, hit {:>5.1}%, p99 {:.0} us",
            phase.name,
            phase.mode,
            phase.requests,
            phase.throughput_rps,
            phase.hit_rate * 100.0,
            phase.latency.p99_us
        );
    }
    for verdict in &report.invariants {
        eprintln!(
            "  {} {:<28} {}",
            if verdict.pass { "ok  " } else { "FAIL" },
            verdict.name,
            verdict.detail
        );
    }
}

fn emit(json: &str, path: &Option<String>) -> std::io::Result<()> {
    match path {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))?;
            eprintln!("report written to {path}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(json.as_bytes())?;
            stdout.write_all(b"\n")?;
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) if message.is_empty() => {
            eprint!("{USAGE}");
            return Ok(());
        }
        Err(message) => return Err(message),
    };

    let host = SelfHostConfig {
        total_bytes: args.mb << 20,
        mode: args.allocator,
        workers: args.server_workers,
        rebalance: args.rebalance,
        tenant_balance: args.tenant_balance,
        slow_op_micros: args.slow_op_micros,
        mrc_sample: args.mrc_sample,
        hot_key_promote: args.hot_key_promote,
        ..SelfHostConfig::default()
    };

    if let Some(name) = &args.scenario {
        let scenario = named_scenario(name)
            .ok_or_else(|| {
                format!(
                    "unknown scenario {name:?} (known: {})",
                    scenario_names().join(", ")
                )
            })?
            .scaled(args.scenario_scale);
        let report = run_scenario(&scenario).map_err(|e| e.to_string())?;
        summarize_scenario(&report);
        emit(&report.to_json(), &args.json_path).map_err(|e| e.to_string())?;
        if !report.passed {
            let failed: Vec<&str> = report
                .invariants
                .iter()
                .filter(|v| !v.pass)
                .map(|v| v.name.as_str())
                .collect();
            return Err(format!(
                "scenario {name} violated invariant(s): {}",
                failed.join(", ")
            ));
        }
        return Ok(());
    }

    let report = match &args.addr {
        Some(addr) => {
            let mut config = args.load.clone();
            config.addr = addr.clone();
            run_load(&config).map_err(|e| e.to_string())?
        }
        None => run_self_hosted(&args.load, &host, args.shards).map_err(|e| e.to_string())?,
    };
    summarize(&report);
    emit(&report.to_json(), &args.json_path).map_err(|e| e.to_string())?;
    if report.errors > 0 {
        eprintln!("warning: {} request-level errors", report.errors);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
