//! End-to-end checks of the resilience scenario engine through the public
//! facade: a custom phased scenario against a real self-hosted server, with
//! chaos active, exact phase accounting, invariant verdicts in both
//! polarities, and the named-scenario registry wired to the same engine.

use loadgen::scenario::{
    evaluate_invariants, named_scenario, run_scenario, Chaos, Invariant, Phase, Scenario,
};

fn tiny_scenario(name: &str, phases: Vec<Phase>) -> Scenario {
    Scenario {
        name: name.to_string(),
        description: "facade test scenario".to_string(),
        total_bytes: 8 << 20,
        shards: 1,
        workers: 1,
        connections: 2,
        pipeline: 8,
        warmup_keys: 300,
        fill_on_miss: false,
        tenants: Vec::new(),
        phases,
        chaos: Vec::new(),
        invariants: vec![
            Invariant::ZeroErrors,
            Invariant::BudgetConservation,
            Invariant::ConnectionsReturnToBaseline,
        ],
        scale: 1.0,
    }
}

#[test]
fn phased_run_under_chaos_accounts_every_phase_exactly() {
    let mut scenario = tiny_scenario(
        "facade_churn",
        vec![
            Phase::steady("first", 600, 1_000, 1.0),
            Phase::steady("second", 900, 1_000, 0.8),
        ],
    );
    // Keep the window open long enough for the churn actor to land real
    // connections while the drivers run.
    scenario.phases[1].rate = Some(2_000.0);
    scenario.chaos = vec![Chaos::ConnChurn { per_sec: 100.0 }];

    let report = run_scenario(&scenario).expect("scenario runs");

    // Phase transitions happen at exact request boundaries: each phase
    // accounts for precisely its budget (no fills configured), and the
    // phases appear in order.
    assert_eq!(report.phases.len(), 2);
    assert_eq!(report.phases[0].name, "first");
    assert_eq!(report.phases[0].requests, 600);
    assert_eq!(report.phases[1].name, "second");
    assert_eq!(report.phases[1].requests, 900);
    assert_eq!(report.requests, 1_500);

    // The open phase is schedule-bound: 900 requests at 2k rps cannot
    // complete much faster than 0.45 s.
    assert!(
        report.phases[1].elapsed_secs >= 0.45 * 0.9,
        "open phase must pace its schedule, took {:.3}s",
        report.phases[1].elapsed_secs
    );

    // The churn actor really ran, and the server drained its connections
    // afterwards — the scraped verdicts all hold.
    assert!(
        report.chaos.churn_conns_opened > 0,
        "churn actor never connected"
    );
    assert!(report.passed, "invariants failed: {:?}", report.invariants);
    assert_eq!(report.schema, loadgen::SCENARIO_SCHEMA);
    assert!(report.server_stats.is_some(), "stats document was scraped");
}

#[test]
fn broken_p99_bound_fails_with_the_invariant_name() {
    let mut scenario = tiny_scenario(
        "facade_broken",
        vec![Phase::steady("only", 500, 1_000, 1.0)],
    );
    scenario.override_p99(0.0);

    let report = run_scenario(&scenario).expect("scenario runs");
    assert!(!report.passed, "a 0µs p99 bound cannot hold");
    let failed: Vec<_> = report.invariants.iter().filter(|v| !v.pass).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].name, "p99_bounded[only]");
    assert!(
        failed[0].detail.contains("bound 0"),
        "detail names the bound: {}",
        failed[0].detail
    );

    // Re-evaluating the same collected report against a sane bound passes:
    // evaluation is pure over the report.
    let verdicts = evaluate_invariants(
        &[Invariant::PhaseP99Below {
            phase: "only".to_string(),
            max_us: 60_000_000.0,
        }],
        &report,
    );
    assert!(verdicts[0].pass);
}

#[test]
fn named_scenarios_run_through_the_same_engine_when_downscaled() {
    // The cheapest registry entry, scaled to the floor: proves the named
    // scenarios and the engine agree end to end without a long run.
    let scenario = named_scenario("scan_storm")
        .expect("scan_storm is registered")
        .scaled(0.004);
    let report = run_scenario(&scenario).expect("scenario runs");
    assert_eq!(report.scenario, "scan_storm");
    assert_eq!(report.phases.len(), 3);
    assert!(report.passed, "invariants failed: {:?}", report.invariants);
}
