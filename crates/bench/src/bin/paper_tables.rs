//! Regenerates every *table* of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin paper_tables -- [--quick] [--table N]... [--sweep-iters K]
//! ```
//!
//! With no `--table` arguments every table (1–7), the ARC comparison of
//! §5.5 and the headline summary are printed. `--quick` uses a small trace
//! (seconds instead of minutes); the default uses the standard experiment
//! context over the synthetic Memcachier-like trace (`workloads::memcachier`,
//! whose module documentation argues the substitution).

use bench::{table6_latency_overhead, table7_throughput_overhead, OverheadOptions};
use simulator::experiments::allocation::{table1_slab_misses, table2_global_lru, table3_cross_app};
use simulator::experiments::comparison::{
    arc_comparison, compare_apps, figure7_savings, headline_summary,
};
use simulator::experiments::dynamics::table4_ablation;
use simulator::experiments::policies::table5_eviction_schemes;
use simulator::experiments::ExperimentContext;

struct Args {
    quick: bool,
    tables: Vec<u32>,
    sweep_iters: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        tables: Vec::new(),
        sweep_iters: 3,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--table" => {
                if let Some(n) = iter.next().and_then(|v| v.parse().ok()) {
                    args.tables.push(n);
                }
            }
            "--sweep-iters" => {
                if let Some(n) = iter.next().and_then(|v| v.parse().ok()) {
                    args.sweep_iters = n;
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: paper_tables [--quick] [--table N]... [--sweep-iters K]\n\
                     tables: 1 2 3 4 5 6 7; no --table prints everything"
                );
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let all = args.tables.is_empty();
    let wants = |n: u32| all || args.tables.contains(&n);

    let needs_trace = wants(1) || wants(2) || wants(3) || wants(4) || wants(5) || all;
    let ctx = if needs_trace {
        eprintln!(
            "generating the {} Memcachier-like trace...",
            if args.quick { "quick" } else { "standard" }
        );
        Some(if args.quick {
            ExperimentContext::quick()
        } else {
            ExperimentContext::standard()
        })
    } else {
        None
    };

    if let Some(ctx) = &ctx {
        if wants(1) {
            println!("{}\n", table1_slab_misses(ctx));
        }
        if wants(2) {
            println!("{}\n", table2_global_lru(ctx));
        }
        if wants(3) {
            println!("{}\n", table3_cross_app(ctx));
        }
        if wants(4) {
            println!("{}\n", table4_ablation(ctx));
        }
        if wants(5) {
            println!("{}\n", table5_eviction_schemes(ctx));
            println!("{}\n", arc_comparison(ctx, &[3, 4, 5]));
        }
        if all {
            eprintln!("running the 20-application comparison and memory sweep (headline)...");
            let rows = compare_apps(ctx);
            let (_, matches) = figure7_savings(ctx, &rows, args.sweep_iters);
            println!("{}\n", headline_summary(&rows, &matches));
        }
    }

    let overhead_options = if args.quick {
        OverheadOptions::quick()
    } else {
        OverheadOptions::default()
    };
    if wants(6) {
        println!("{}\n", table6_latency_overhead(&overhead_options));
    }
    if wants(7) {
        println!("{}\n", table7_throughput_overhead(&overhead_options));
    }
}
