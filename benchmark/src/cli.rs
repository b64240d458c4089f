//! Command-line arguments, shared by the two binaries.

use crate::report::{Catalogue, Report};
use crate::workload::{self, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const USAGE: &str = "\
usage: run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--label <text>]
       run.sh --check [--seed <n>]
       run.sh --compare <base.json> <change.json>
workloads: hot_local hot_remote etc_pressure write_churn cliff_scan";

/// The metric catalogue, relative to the repository root.
pub const CATALOGUE: &str = "BENCHMARK.json";

pub struct Args {
    pub workloads: Vec<Spec>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Collect the runs in this document (see `--compare`).
    pub out: Option<PathBuf>,
    /// What the `--out` document says was measured, e.g. a commit hash.
    pub label: String,
    pub check: bool,
    pub compare: Option<(PathBuf, PathBuf)>,
}

pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        label: "unlabelled".to_string(),
        check: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let names = value()?;
                args.workloads = if names == "all" {
                    workload::all()
                } else {
                    names
                        .split(',')
                        .map(|n| workload::by_name(n).ok_or(format!("unknown workload {n:?}")))
                        .collect::<Result<_, _>>()?
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--label" => args.label = value()?,
            "--check" => args.check = true,
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.check && args.workloads.is_empty() {
        args.workloads = workload::all();
    }
    if args.workloads.is_empty() && args.compare.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Runs this binary once per workload, each in a process of its own, so
/// that one workload's memory never counts against the next one's RSS
/// baseline. Returns whether every child exited with code 0.
pub fn one_process_per_workload(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for spec in &args.workloads {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--label", &args.label]);
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// Prints a finished run: the table, then the line the driver reads, and
/// adds it to the `--out` document. Returns whether the run was correct.
pub fn emit(report: &Report, args: &Args) -> Result<bool, String> {
    // Run from the repository root, the printed metrics must be exactly the
    // ones `BENCHMARK.json` declares for this kind of run.
    if let Ok(catalogue) = Catalogue::load(Path::new(CATALOGUE)) {
        let mut declared: Vec<&str> = if args.trace {
            catalogue.per_layer.iter().map(String::as_str).collect()
        } else {
            catalogue
                .end_to_end
                .iter()
                .map(|m| m.name.as_str())
                .collect()
        };
        let mut printed: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        printed.sort_unstable();
        if declared != printed {
            return Err(format!(
                "{CATALOGUE} declares {declared:?} but this run measured {printed:?}"
            ));
        }
    }
    report.print_table();
    if let Some(path) = &args.out {
        report.append_to(path, &args.label)?;
    }
    println!("{}", report.driver_line());
    Ok(report.correct)
}

/// The `main` of both binaries: parse, run, and turn the outcome into an
/// exit code. An incorrect run still printed its result line; the exit code
/// tells a person, the `correct` field tells the driver.
pub fn main_with(run: impl FnOnce(&Args) -> Result<bool, String>) -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(3)
        }
    }
}
