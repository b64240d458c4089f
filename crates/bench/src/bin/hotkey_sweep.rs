//! The hot-key mitigation A/B sweep: runs the `flash_crowd` scenario with
//! hot-key promotion off and on, and emits a versioned
//! `cliffhanger-hotkey-sweep/v1` JSON report comparing the two arms.
//!
//! Run with:
//! `cargo run --release -p bench --bin hotkey_sweep -- [--smoke] [--scale F]
//!  [--json out.json]`
//!
//! * `--smoke` — down-scale the scenario to 5% of its standard request
//!   volume, for CI smoke jobs and local iteration.
//! * `--scale F` — explicit scale factor (overrides `--smoke`).
//! * `--json PATH` — write the report there (stdout gets it always).
//!
//! The exit status encodes the mitigation gate:
//! * both arms must finish with zero errors and zero stale probe reads
//!   (the versioned spike-key probe runs in both arms — with mitigation
//!   off every read lands on the owning loop, so staleness is vacuous
//!   there but the probe still proves the harness works);
//! * the mitigation arm must pass every scenario invariant and serve
//!   replica hits;
//! * on a box with >= 4 CPUs the mitigation arm must not lose spike-phase
//!   throughput to the baseline; on smaller boxes (where every loop shares
//!   one core and replication cannot buy parallelism) the gate is that the
//!   cross-loop remote-op share drops instead — the forwarded GETs that
//!   made the owning loop the bottleneck are now served locally.

use loadgen::scenario::{named_scenario, run_scenario, ScenarioReport};
use serde::Serialize;
use serde_json::Value;
use std::process::ExitCode;

/// Schema tag for the hot-key A/B sweep report.
const SCHEMA: &str = "cliffhanger-hotkey-sweep/v1";

/// One arm of the A/B sweep (mitigation off or on).
#[derive(Serialize)]
struct ArmReport {
    /// Whether hot-key promotion was enabled for this arm.
    mitigation: bool,
    /// Whether every scenario invariant held.
    passed: bool,
    /// Requests completed across all phases.
    requests: u64,
    /// Wall-clock seconds of the measured window.
    elapsed_secs: f64,
    /// Spike-phase requests completed.
    spike_requests: u64,
    /// Spike-phase throughput in requests/sec.
    spike_throughput_rps: f64,
    /// Spike-phase p99 latency in microseconds.
    spike_p99_us: f64,
    /// Total errors across all phases.
    errors: u64,
    /// Versioned probe writes acknowledged.
    probe_writes: u64,
    /// Versioned probe reads that observed a value.
    probe_reads: u64,
    /// Probe reads that observed a version older than an acknowledged
    /// write (must be zero in both arms).
    probe_stale_reads: u64,
    /// Data ops served on the loop owning both connection and shard.
    plane_local_ops: u64,
    /// Data ops forwarded to the owning loop as cross-loop messages.
    plane_remote_ops: u64,
    /// `remote / (local + remote)` — the cross-loop forwarding share.
    remote_share: f64,
    /// Keys promoted into per-loop replica caches.
    promotions: u64,
    /// Promoted keys demoted back out.
    demotions: u64,
    /// GETs served from a local replica instead of a forward.
    replica_hits: u64,
    /// Replica cache entries filled from forwarded GETs' replies.
    replica_fills: u64,
    /// Replica entries a read found stale (version moved) and dropped.
    invalidations: u64,
    /// The full scenario report for the arm.
    report: ScenarioReport,
}

/// The two arms side by side.
#[derive(Serialize)]
struct Comparison {
    /// Spike-phase throughput, mitigation on / off (> 1 means the
    /// mitigation won).
    spike_throughput_ratio: f64,
    /// Spike-phase p99, mitigation on / off (< 1 means the mitigation
    /// won).
    spike_p99_ratio: f64,
    /// Cross-loop forwarding share with mitigation off.
    remote_share_off: f64,
    /// Cross-loop forwarding share with mitigation on.
    remote_share_on: f64,
}

/// The `cliffhanger-hotkey-sweep/v1` document.
#[derive(Serialize)]
struct HotkeySweepReport {
    /// Schema tag: `cliffhanger-hotkey-sweep/v1`.
    schema: String,
    /// Scenario both arms ran (`flash_crowd`).
    scenario: String,
    /// Scale factor applied to the scenario.
    scale: f64,
    /// CPUs visible to the run (replication only buys wall-clock wins
    /// when loops have their own cores).
    cpus: u64,
    /// Baseline arm: hot-key promotion off.
    off: ArmReport,
    /// Mitigation arm: hot-key promotion on.
    on: ArmReport,
    /// The two arms side by side.
    comparison: Comparison,
}

fn stat_u64(stats: Option<&Value>, section: &str, name: &str) -> u64 {
    stats
        .and_then(|s| s.get(section))
        .and_then(|s| s.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn summarize_arm(mitigation: bool, report: ScenarioReport) -> ArmReport {
    let spike = report
        .phases
        .iter()
        .find(|p| p.name == "spike")
        .expect("flash_crowd carries a spike phase");
    let stats = report.server_stats.as_ref();
    let local = stat_u64(stats, "plane", "local_ops");
    let remote = stat_u64(stats, "plane", "remote_ops");
    let probe = report.probe.as_ref();
    ArmReport {
        mitigation,
        passed: report.passed,
        requests: report.requests,
        elapsed_secs: report.elapsed_secs,
        spike_requests: spike.requests,
        spike_throughput_rps: spike.throughput_rps,
        spike_p99_us: spike.latency.p99_us,
        errors: report.errors,
        probe_writes: probe.map_or(0, |p| p.writes),
        probe_reads: probe.map_or(0, |p| p.reads),
        probe_stale_reads: probe.map_or(0, |p| p.stale_reads),
        plane_local_ops: local,
        plane_remote_ops: remote,
        remote_share: if local + remote > 0 {
            remote as f64 / (local + remote) as f64
        } else {
            0.0
        },
        promotions: stat_u64(stats, "hot_keys", "promotions"),
        demotions: stat_u64(stats, "hot_keys", "demotions"),
        replica_hits: stat_u64(stats, "hot_keys", "replica_hits"),
        replica_fills: stat_u64(stats, "hot_keys", "replica_fills"),
        invalidations: stat_u64(stats, "hot_keys", "invalidations"),
        report,
    }
}

fn run_arm(scale: f64, mitigation: bool) -> Result<ArmReport, String> {
    let mut scenario = named_scenario("flash_crowd")
        .expect("flash_crowd is registered")
        .scaled(scale);
    scenario.hot_key_promote = mitigation;
    eprintln!(
        "hotkey_sweep: running flash_crowd with mitigation {} ({} requests)",
        if mitigation { "ON" } else { "OFF" },
        scenario.total_requests()
    );
    let report = run_scenario(&scenario)
        .map_err(|e| format!("mitigation {mitigation}: engine error: {e}"))?;
    for verdict in &report.invariants {
        let flag = if verdict.pass { "ok  " } else { "FAIL" };
        eprintln!("  {flag} {:<28} {}", verdict.name, verdict.detail);
    }
    Ok(summarize_arm(mitigation, report))
}

fn gate(sweep: &HotkeySweepReport) -> Vec<String> {
    let mut failures = Vec::new();
    for arm in [&sweep.off, &sweep.on] {
        let tag = if arm.mitigation { "on" } else { "off" };
        if arm.errors > 0 {
            failures.push(format!("mitigation {tag}: {} request errors", arm.errors));
        }
        if arm.probe_stale_reads > 0 || arm.probe_reads == 0 {
            failures.push(format!(
                "mitigation {tag}: probe saw {} stale of {} reads",
                arm.probe_stale_reads, arm.probe_reads
            ));
        }
    }
    if !sweep.on.passed {
        let failed: Vec<&str> = sweep
            .on
            .report
            .invariants
            .iter()
            .filter(|v| !v.pass)
            .map(|v| v.name.as_str())
            .collect();
        failures.push(format!(
            "mitigation on violated invariant(s): {}",
            failed.join(", ")
        ));
    }
    if sweep.on.replica_hits == 0 {
        failures.push("mitigation on served no replica hits".to_string());
    }
    if sweep.on.promotions == 0 {
        failures.push("mitigation on promoted nothing".to_string());
    }
    if sweep.cpus >= 4 {
        // Loops have their own cores: local replica service must at least
        // match the single-owner baseline on the spike phase.
        if sweep.comparison.spike_throughput_ratio < 1.0 {
            failures.push(format!(
                "spike throughput ratio {:.3} < 1.0 on a {}-CPU box",
                sweep.comparison.spike_throughput_ratio, sweep.cpus
            ));
        }
    } else if sweep.on.remote_share >= sweep.off.remote_share {
        // One core serves every loop, so replication cannot buy wall-clock
        // throughput; the win it must still show is structural — the
        // forwarded-op share drops because spike GETs stopped crossing
        // loops.
        failures.push(format!(
            "remote-op share did not drop: off {:.4}, on {:.4}",
            sweep.off.remote_share, sweep.on.remote_share
        ));
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => scale = 0.05,
            "--scale" => {
                i += 1;
                scale = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(f) if f > 0.0 => f,
                    _ => {
                        eprintln!("hotkey_sweep: --scale needs a positive number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json = Some(path.clone()),
                    None => {
                        eprintln!("hotkey_sweep: --json needs a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("hotkey_sweep: unknown argument `{other}`");
                eprintln!("usage: hotkey_sweep [--smoke] [--scale F] [--json out.json]");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let (off, on) = match run_arm(scale, false).and_then(|off| Ok((off, run_arm(scale, true)?))) {
        Ok(arms) => arms,
        Err(err) => {
            eprintln!("hotkey_sweep: {err}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = HotkeySweepReport {
        schema: SCHEMA.to_string(),
        scenario: "flash_crowd".to_string(),
        scale,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        comparison: Comparison {
            spike_throughput_ratio: on.spike_throughput_rps / off.spike_throughput_rps.max(1.0),
            spike_p99_ratio: on.spike_p99_us / off.spike_p99_us.max(1.0),
            remote_share_off: off.remote_share,
            remote_share_on: on.remote_share,
        },
        off,
        on,
    };

    eprintln!(
        "hotkey_sweep: spike {:.0} -> {:.0} req/s (x{:.2}), p99 {:.0} -> {:.0} us, \
         remote share {:.3} -> {:.3}, {} replica hits",
        sweep.off.spike_throughput_rps,
        sweep.on.spike_throughput_rps,
        sweep.comparison.spike_throughput_ratio,
        sweep.off.spike_p99_us,
        sweep.on.spike_p99_us,
        sweep.off.remote_share,
        sweep.on.remote_share,
        sweep.on.replica_hits
    );

    let out = serde_json::to_string_pretty(&sweep).expect("report serialisation cannot fail");
    println!("{out}");
    if let Some(path) = &json {
        if let Err(err) = std::fs::write(path, format!("{out}\n")) {
            eprintln!("hotkey_sweep: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }

    let failures = gate(&sweep);
    if failures.is_empty() {
        eprintln!("hotkey_sweep: mitigation gate green");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("hotkey_sweep: {failure}");
        }
        ExitCode::FAILURE
    }
}
