//! Determinism of the parallel batch runner: the same scenario must
//! produce byte-identical aggregated output for every worker-thread
//! count, and replication seeds must follow the documented derivation.

use scrip_bench::scenario::{run_scenario, CaseSpec, Metric, RunnerOptions, Scenario, SweepAxis};
use scrip_core::spec::MarketSpec;

/// A small but non-trivial grid: 2 explicit cases × 2 sweep values ×
/// 3 replications = 12 jobs, with churn in one case so population sizes
/// differ across replications.
fn grid_scenario() -> Scenario {
    let mut sc = Scenario::new("determinism", MarketSpec::new(40, 20));
    sc.base.set("sample", "50").expect("valid");
    sc.run.horizon_secs = 600;
    sc.run.seed = 20_260_728;
    sc.run.replications = 3;
    sc.run.snapshots = vec![300, 600];
    sc.run.metrics = vec![
        Metric::GiniSeries,
        Metric::FinalBalances,
        Metric::SpendingRates,
        Metric::Snapshots,
    ];
    sc.cases = vec![
        CaseSpec::new("closed"),
        CaseSpec::new("churning").with("churn", "0.2:200:10"),
    ];
    sc.sweep = vec![SweepAxis::new("credits", [10u64, 40])];
    sc
}

#[test]
fn aggregated_output_is_identical_for_1_2_and_8_threads() {
    let scenario = grid_scenario();
    let baseline = run_scenario(&scenario, &RunnerOptions::with_threads(1)).expect("runs");
    let baseline_csv = baseline.to_csv();
    assert!(
        baseline_csv.lines().count() > 50,
        "output should be substantial"
    );

    for threads in [2, 8] {
        let result = run_scenario(&scenario, &RunnerOptions::with_threads(threads)).expect("runs");
        assert_eq!(
            baseline_csv,
            result.to_csv(),
            "{threads}-thread CSV diverged from the serial baseline"
        );
        assert_eq!(baseline.summary_lines(), result.summary_lines());
        for (a, b) in baseline.cases.iter().zip(&result.cases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.reps, b.reps, "case {} raw data diverged", a.label);
        }
    }
}

/// A chunk-level streaming grid: 2 cases (one churning) × 2
/// replications, recording every metric including the stall series.
fn streaming_grid_scenario() -> Scenario {
    let mut sc = Scenario::new("streaming-determinism", MarketSpec::new(30, 40));
    sc.base.set("streaming", "paced:1").expect("valid");
    sc.base.set("sample", "30").expect("valid");
    sc.run.horizon_secs = 240;
    sc.run.seed = 20_260_728;
    sc.run.replications = 2;
    sc.run.snapshots = vec![120, 240];
    sc.run.metrics = vec![
        Metric::GiniSeries,
        Metric::FinalBalances,
        Metric::SpendingRates,
        Metric::Snapshots,
        Metric::StallSeries,
    ];
    sc.cases = vec![
        CaseSpec::new("closed"),
        CaseSpec::new("churning").with("churn", "0.2:150:8"),
    ];
    sc
}

#[test]
fn streaming_output_is_identical_for_1_2_and_8_threads() {
    let scenario = streaming_grid_scenario();
    let baseline = run_scenario(&scenario, &RunnerOptions::with_threads(1)).expect("runs");
    let baseline_csv = baseline.to_csv();
    assert!(
        baseline_csv.contains("stall,"),
        "stall series missing from CSV"
    );
    for threads in [2, 8] {
        let result = run_scenario(&scenario, &RunnerOptions::with_threads(threads)).expect("runs");
        assert_eq!(
            baseline_csv,
            result.to_csv(),
            "{threads}-thread streaming CSV diverged from the serial baseline"
        );
        for (a, b) in baseline.cases.iter().zip(&result.cases) {
            assert_eq!(a.reps, b.reps, "case {} raw data diverged", a.label);
        }
    }
}

/// A grid recording the three opt-in probes — throughput,
/// population (with churn so it actually moves), and the Lorenz curve —
/// at both market granularities.
fn new_probe_scenario() -> Scenario {
    let mut sc = Scenario::new("new-probes", MarketSpec::new(40, 20));
    sc.base.set("sample", "50").expect("valid");
    sc.run.horizon_secs = 400;
    sc.run.seed = 20_260_728;
    sc.run.replications = 2;
    sc.run.metrics = vec![
        Metric::ThroughputSeries,
        Metric::PopulationSeries,
        Metric::Lorenz,
    ];
    sc.cases = vec![
        CaseSpec::new("queue").with("churn", "0.2:200:10"),
        CaseSpec::new("chunks")
            .with("streaming", "paced:1")
            .with("credits", "40"),
    ];
    sc
}

#[test]
fn new_probe_output_is_identical_for_1_2_and_8_threads() {
    let scenario = new_probe_scenario();
    let baseline = run_scenario(&scenario, &RunnerOptions::with_threads(1)).expect("runs");
    let baseline_csv = baseline.to_csv();
    for needle in [
        "throughput,queue,",
        "throughput,chunks,",
        "population,queue,",
        "population,chunks,",
        "lorenz,queue,",
        "lorenz,chunks,",
    ] {
        assert!(baseline_csv.contains(needle), "CSV missing {needle}");
    }
    for threads in [2, 8] {
        let result = run_scenario(&scenario, &RunnerOptions::with_threads(threads)).expect("runs");
        assert_eq!(
            baseline_csv,
            result.to_csv(),
            "{threads}-thread new-probe CSV diverged from the serial baseline"
        );
        for (a, b) in baseline.cases.iter().zip(&result.cases) {
            assert_eq!(a.reps, b.reps, "case {} raw data diverged", a.label);
        }
    }
}

#[test]
fn repeated_runs_are_identical() {
    let scenario = grid_scenario();
    let options = RunnerOptions::with_threads(4);
    let a = run_scenario(&scenario, &options).expect("runs");
    let b = run_scenario(&scenario, &options).expect("runs");
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn seeds_depend_on_replication_not_on_threads() {
    let scenario = grid_scenario();
    let serial = run_scenario(&scenario, &RunnerOptions::with_threads(1)).expect("runs");
    let parallel = run_scenario(&scenario, &RunnerOptions::with_threads(8)).expect("runs");
    for (a, b) in serial.cases.iter().zip(&parallel.cases) {
        let sa: Vec<u64> = a.reps.iter().map(|r| r.seed).collect();
        let sb: Vec<u64> = b.reps.iter().map(|r| r.seed).collect();
        assert_eq!(sa, sb);
        assert_eq!(
            sa[0], scenario.run.seed,
            "replication 0 keeps the root seed"
        );
        assert_eq!(sa.len(), 3);
    }
    // Common random numbers: every case shares the replication seeds.
    let first: Vec<u64> = serial.cases[0].reps.iter().map(|r| r.seed).collect();
    for case in &serial.cases[1..] {
        let seeds: Vec<u64> = case.reps.iter().map(|r| r.seed).collect();
        assert_eq!(first, seeds);
    }
}

#[test]
fn more_threads_than_jobs_is_fine() {
    let mut sc = Scenario::new("tiny", MarketSpec::new(30, 10));
    sc.run.horizon_secs = 200;
    let result = run_scenario(&sc, &RunnerOptions::with_threads(64)).expect("runs");
    assert_eq!(result.cases.len(), 1);
    assert_eq!(result.cases[0].reps.len(), 1);
}
