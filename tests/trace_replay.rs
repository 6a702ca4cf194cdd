//! Differential-replay harness for the `SCRIPTRC` event-trace stack.
//!
//! The claim is that a recorded trace is a complete transcript of a
//! run: replay-verifying the trace reproduces the recorded run
//! bit-for-bit — every event `(time, seq, payload)` identity, every
//! boundary state digest, and the final `RunRecord`. These tests pin
//! that claim over *arbitrary* configurations (churn × faults × tax ×
//! queue profile) via proptest, and pin a divergence that only the
//! event frames show (the boundary digests all match) to its exact
//! `(time, seq)`.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use scrip_core::des::{FaultSpec, SimDuration, SimTime, TraceFrame, TraceReader, TraceWriter};
use scrip_core::market::{ChurnConfig, MarketConfig};
use scrip_core::obs::{describe_event, probes, Probe, RunRecord, Session};
use scrip_core::policy::TaxConfig;
use scrip_core::streaming::StreamingConfig;

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

/// Builds a market from the proptest axes: population, queue profile,
/// the churn / faults / tax toggles, and the granularity (chunk level
/// when `chunk`).
fn arbitrary_config(
    n: usize,
    asymmetric: bool,
    churn: bool,
    faults: bool,
    tax: bool,
    chunk: bool,
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
    if chunk {
        config = config.streaming_market(StreamingConfig::market_paced(1.0));
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
        chunk in proptest::bool::ANY,
    ) {
        // Chunk-level events are denser, so those runs are shorter.
        let horizon = SimTime::from_secs(if chunk { 150 } else { 500 });
        let config = arbitrary_config(n, asymmetric, churn, faults, tax, chunk);
        let trace = TracePath::new(&format!("prop_{seed}_{n}"));
        let recorded = record_run(&config, seed, horizon, trace.path());
        let bytes = std::fs::read(trace.path()).expect("trace readable");
        prop_assert!(bytes.len() > 28, "trace must hold frames beyond the header");

        // Replay-verification passes and yields the identical run record.
        let replayed = replay_run(&config, seed, horizon, trace.path());
        prop_assert_eq!(&recorded, &replayed, "RunRecord diverged on replay");
    }
}

/// A divergence the boundary digests do not show, at either
/// granularity: the recorded trace is re-encoded with one mid-run event
/// naming another peer (a `Spend` at queue level, a `Schedule` at chunk
/// level: each payload is its tag byte and one peer id), every other
/// frame (digests included) copied as recorded and each checksum
/// re-sealed. The live run's state still matches every digest, so only
/// the event-level check can catch it, and replay pins that frame's
/// exact `(time, seq)`.
#[test]
fn replay_pins_an_event_divergence_the_digests_miss() {
    for (chunk, kind, horizon_secs) in [(false, "Spend(", 1_000), (true, "Schedule(", 150)] {
        let config = arbitrary_config(50, true, true, false, true, chunk);
        let horizon = SimTime::from_secs(horizon_secs);
        let trace = TracePath::new(if chunk {
            "event_only_chunk"
        } else {
            "event_only"
        });
        record_run(&config, 7, horizon, trace.path());

        let original = std::fs::read(trace.path()).expect("trace readable");
        let mut reader = TraceReader::from_bytes(original.clone()).expect("trace decodes");
        let mut writer = TraceWriter::new(Vec::new(), *reader.header());
        let mut altered = None;
        while let Some(frame) = reader.next_frame().expect("clean trace") {
            match frame {
                TraceFrame::Event {
                    time,
                    seq,
                    mut payload,
                } => {
                    let live = describe_event(&payload).expect("recorded payloads decode");
                    if altered.is_none()
                        && time >= SimTime::from_secs(horizon_secs / 2)
                        && live.starts_with(kind)
                    {
                        let id = u64::from_le_bytes(payload[1..].try_into().expect("one id"));
                        payload[1..].copy_from_slice(&(id + 1).to_le_bytes());
                        let moved = describe_event(&payload).expect("still decodes");
                        assert!(moved.starts_with(kind) && moved != live, "{moved}");
                        altered = Some((time, seq, live));
                    }
                    writer.event(time, seq, &payload).expect("in-memory sink");
                }
                TraceFrame::Digest {
                    time,
                    events_processed,
                    digest,
                } => writer.digest(time, events_processed, digest),
                TraceFrame::End {
                    time,
                    events_processed,
                } => writer.end(time, events_processed),
                TraceFrame::State { .. } => panic!("a recorded trace holds no state frames"),
            }
        }
        let (time, seq, live) = altered.expect("the event kind fires in the second half");
        let rewritten = writer.into_bytes();
        assert_eq!(rewritten.len(), original.len(), "only one payload changed");
        assert_ne!(rewritten, original);
        std::fs::write(trace.path(), &rewritten).expect("trace rewritable");

        let mut session = Session::from_config(&config, 7).expect("builds");
        session.replay_from(trace.path()).expect("trace attaches");
        session.run_until(horizon);
        let divergence = session
            .trace_divergence()
            .cloned()
            .expect("replay must catch the altered event");
        assert_eq!((divergence.time, divergence.seq), (time, Some(seq)));
        // The report renders the event the live run produced.
        assert_eq!(divergence.actual, live);
        // The run froze before the divergent event, not at the horizon.
        assert!(session.now() <= time);
        let err = session.finish_trace().expect_err("reports the divergence");
        assert!(err.to_string().contains("diverged"), "{err}");
    }
}
