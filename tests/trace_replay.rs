//! Differential-replay harness for the `SCRIPTRC` event-trace stack.
//!
//! The claim is that a recorded trace is a complete transcript of a
//! run: replay-verifying the trace reproduces the recorded run
//! bit-for-bit — every event `(time, seq, payload)` identity, every
//! boundary state digest, and the final `RunRecord`. These tests pin
//! that claim over *arbitrary* configurations (churn × faults × tax ×
//! queue profile) via proptest, and pin the bisection search to the
//! exact `(time, seq)` a full event-level replay reports.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use scrip_bench::bisect::bisect_trace;
use scrip_core::des::{FaultSpec, SimDuration, SimTime};
use scrip_core::market::{ChurnConfig, MarketConfig};
use scrip_core::obs::{probes, Probe, RunRecord, Session};
use scrip_core::policy::TaxConfig;

/// RAII temp-file path so failed assertions don't leak trace files.
struct TracePath(PathBuf);

impl TracePath {
    fn new(name: &str) -> TracePath {
        TracePath(
            std::env::temp_dir().join(format!("scrip_replay_{}_{name}.trc", std::process::id())),
        )
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TracePath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The stateful probes attached to every session in this harness, so
/// the compared [`RunRecord`]s carry full observable series.
fn probe_set() -> Vec<Box<dyn Probe>> {
    vec![
        Box::new(probes::GiniSeriesProbe),
        Box::new(probes::ThroughputSeriesProbe::new()),
        Box::new(probes::PopulationSeriesProbe::new()),
        Box::new(probes::FaultSeriesProbe::new()),
    ]
}

/// Builds a queue-level market from the proptest axes: population,
/// queue profile, and the churn / faults / tax toggles.
fn arbitrary_config(
    n: usize,
    asymmetric: bool,
    churn: bool,
    faults: bool,
    tax: bool,
) -> MarketConfig {
    let mut config = MarketConfig::new(n, 25).sample_interval(SimDuration::from_secs(100));
    config = if asymmetric {
        config.asymmetric()
    } else {
        config.symmetric()
    };
    if churn {
        config = config.churn(ChurnConfig::new(0.2, 150.0, 8).expect("valid churn"));
    }
    if faults {
        config = config.faults(FaultSpec {
            drop_rate: 0.05,
            defect_rate: 0.03,
            delay_rate: 0.02,
            crash_fraction: 0.01,
            onset: SimTime::from_secs(50),
            ..FaultSpec::default()
        });
    }
    if tax {
        config = config.tax(TaxConfig::new(0.15, 20).expect("valid tax"));
    }
    config
}

/// Records `config` under `seed` to `path` and returns the run record.
fn record_run(config: &MarketConfig, seed: u64, horizon: SimTime, path: &Path) -> RunRecord {
    let mut session = Session::from_config(config, seed).expect("builds");
    for probe in probe_set() {
        session.attach(probe);
    }
    session.record_to(path).expect("recording starts");
    session.run_until(horizon);
    session.finish_trace().expect("recording completes");
    session.finish().0
}

/// Replay-verifies `path` under `config`, asserting the verification
/// passes, and returns the run record.
fn replay_run(config: &MarketConfig, seed: u64, horizon: SimTime, path: &Path) -> RunRecord {
    let mut session = Session::from_config(config, seed).expect("builds");
    for probe in probe_set() {
        session.attach(probe);
    }
    session.replay_from(path).expect("trace attaches");
    session.run_until(horizon);
    assert_eq!(session.trace_divergence(), None, "replay must not diverge");
    session.finish_trace().expect("replay verifies");
    session.finish().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary configurations, replaying a recorded trace
    /// reproduces the recorded run bit-for-bit (every event identity,
    /// every boundary digest, and the final `RunRecord`).
    #[test]
    fn replay_reproduces_arbitrary_runs(
        n in 30usize..70,
        asymmetric in proptest::bool::ANY,
        churn in proptest::bool::ANY,
        faults in proptest::bool::ANY,
        tax in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let horizon = SimTime::from_secs(500);
        let config = arbitrary_config(n, asymmetric, churn, faults, tax);
        let trace = TracePath::new(&format!("prop_{seed}_{n}"));
        let recorded = record_run(&config, seed, horizon, trace.path());
        let bytes = std::fs::read(trace.path()).expect("trace readable");
        prop_assert!(bytes.len() > 28, "trace must hold frames beyond the header");

        // Replay-verification passes and yields the identical run record.
        let replayed = replay_run(&config, seed, horizon, trace.path());
        prop_assert_eq!(&recorded, &replayed, "RunRecord diverged on replay");
    }
}

/// Bisection pins a seeded divergence to the exact `(time, seq)` that a
/// full event-level replay reports, while probing only O(log) digests.
#[test]
fn bisect_pins_the_exact_divergent_event() {
    let config = arbitrary_config(50, true, true, false, true);
    let horizon = SimTime::from_secs(1_000);
    let trace = TracePath::new("bisect_exact");
    record_run(&config, 7, horizon, trace.path());

    // Splice the recorded seed (header bytes 20..28) so a session
    // seeded differently accepts the header, then diverges mid-run.
    let mut bytes = std::fs::read(trace.path()).expect("trace readable");
    bytes[20..28].copy_from_slice(&8u64.to_le_bytes());
    std::fs::write(trace.path(), &bytes).expect("trace rewritable");

    // Ground truth: the full event-level replay scans every frame.
    let mut full = Session::from_config(&config, 8).expect("builds");
    full.replay_from(trace.path()).expect("trace attaches");
    full.run_until(horizon);
    let reference = full
        .trace_divergence()
        .cloned()
        .expect("differing seeds must diverge");

    let report = bisect_trace(&config, 8, horizon, trace.path()).expect("bisect runs");
    let found = report.divergence.expect("bisect finds the divergence");
    assert_eq!(
        found, reference,
        "bisect must pin the same (time, seq) as a full replay"
    );
    assert!(
        report.window.0 < found.time && found.time <= report.window.1,
        "divergence t={} outside bracketed window ({}, {}]",
        found.time,
        report.window.0,
        report.window.1
    );
    // log2(#digests) + 1 probes at most; the digest grid here is the
    // 100 s sampling tick, so 10 boundaries → at most 5 probes.
    assert!(
        report.probes <= 5,
        "binary search ran {} probes over ~10 digests",
        report.probes
    );
}

/// A clean round trip reports no divergence through the bisector too.
#[test]
fn bisect_reports_no_divergence_for_a_faithful_trace() {
    let config = arbitrary_config(40, false, true, true, false);
    let horizon = SimTime::from_secs(600);
    let trace = TracePath::new("bisect_clean");
    record_run(&config, 3, horizon, trace.path());
    let report = bisect_trace(&config, 3, horizon, trace.path()).expect("bisect runs");
    assert_eq!(report.divergence, None, "faithful trace must verify");
    assert_eq!(
        report.window.1, horizon,
        "every recorded digest matched, so the window extends to the horizon"
    );
}
