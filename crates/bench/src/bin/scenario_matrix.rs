//! The resilience scenario matrix: runs named chaos/replay scenarios and
//! emits a versioned `cliffhanger-scenario-matrix/v1` JSON report.
//!
//! Run with:
//! `cargo run --release -p bench --bin scenario_matrix -- [--smoke] [--scale F]
//!  [--scenarios a,b,c] [--p99-us N] [--json out.json] [--out-dir dir]`
//!
//! * `--smoke` — down-scale every scenario to 5% of its standard request
//!   volume (floored per phase), for CI smoke jobs and local iteration.
//! * `--scale F` — explicit scale factor (overrides `--smoke`).
//! * `--scenarios a,b,c` — run a subset; default is every named scenario.
//! * `--p99-us N` — replace every phase-p99 invariant bound with `N`
//!   microseconds; `--p99-us 0` is CI's deliberately-broken invariant,
//!   proving a violated invariant fails the run with its name.
//! * `--json PATH` — write the matrix report there (stdout gets it always).
//! * `--out-dir DIR` — additionally write one `scenario-<name>.json` per
//!   scenario (the nightly per-scenario artifacts).
//!
//! Exit status is non-zero when any scenario fails an invariant or errors
//! out; the failure message names the violated invariant.

use loadgen::scenario::{named_scenario, run_scenario, scenario_names, ScenarioMatrixReport};
use loadgen::SCENARIO_MATRIX_SCHEMA;
use std::process::ExitCode;

struct Options {
    scale: f64,
    scenarios: Vec<String>,
    p99_us: Option<f64>,
    json: Option<String>,
    out_dir: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: 1.0,
        scenarios: scenario_names().iter().map(|s| s.to_string()).collect(),
        p99_us: None,
        json: None,
        out_dir: None,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" => opts.scale = 0.05,
            "--scale" => {
                opts.scale = take(i)?
                    .parse()
                    .map_err(|_| "--scale needs a number".to_string())?;
                i += 1;
            }
            "--scenarios" => {
                opts.scenarios = take(i)?.split(',').map(|s| s.trim().to_string()).collect();
                i += 1;
            }
            "--p99-us" => {
                opts.p99_us = Some(
                    take(i)?
                        .parse()
                        .map_err(|_| "--p99-us needs a number".to_string())?,
                );
                i += 1;
            }
            "--json" => {
                opts.json = Some(take(i)?.clone());
                i += 1;
            }
            "--out-dir" => {
                opts.out_dir = Some(take(i)?.clone());
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if opts.scale <= 0.0 {
        return Err("--scale must be positive".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("scenario_matrix: {err}");
            eprintln!(
                "usage: scenario_matrix [--smoke] [--scale F] [--scenarios a,b,c] \
                 [--p99-us N] [--json out.json] [--out-dir dir]"
            );
            return ExitCode::FAILURE;
        }
    };

    let mut matrix = ScenarioMatrixReport {
        schema: SCENARIO_MATRIX_SCHEMA.to_string(),
        scale: opts.scale,
        scenarios: Vec::new(),
    };
    let mut failures: Vec<String> = Vec::new();
    for name in &opts.scenarios {
        let Some(mut scenario) = named_scenario(name) else {
            eprintln!(
                "scenario_matrix: unknown scenario `{name}` (known: {})",
                scenario_names().join(", ")
            );
            return ExitCode::FAILURE;
        };
        scenario = scenario.scaled(opts.scale);
        if let Some(max_us) = opts.p99_us {
            scenario.override_p99(max_us);
        }
        eprintln!(
            "scenario_matrix: running {name} (scale {:.3}, {} requests, {} phases, {} chaos actors)",
            scenario.scale,
            scenario.total_requests(),
            scenario.phases.len(),
            scenario.chaos.len()
        );
        let report = match run_scenario(&scenario) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("scenario_matrix: scenario {name} failed to run: {err}");
                failures.push(format!("{name}: engine error: {err}"));
                continue;
            }
        };
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
            let flag = if verdict.pass { "ok  " } else { "FAIL" };
            eprintln!("  {flag} {:<28} {}", verdict.name, verdict.detail);
            if !verdict.pass {
                failures.push(format!(
                    "scenario {name} violated invariant {}: {}",
                    verdict.name, verdict.detail
                ));
            }
        }
        if let Some(dir) = &opts.out_dir {
            let path = format!("{dir}/scenario-{name}.json");
            if let Err(err) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.to_json()))
            {
                eprintln!("scenario_matrix: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
        matrix.scenarios.push(report);
    }

    let json = matrix.to_json();
    println!("{json}");
    if let Some(path) = &opts.json {
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("scenario_matrix: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if failures.is_empty() {
        eprintln!("scenario_matrix: all invariants green");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("scenario_matrix: {failure}");
        }
        ExitCode::FAILURE
    }
}
