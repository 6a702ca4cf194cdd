//! Fail-closed guarantees of the trace stack, end-to-end through
//! `Session::replay_from`: a damaged or mismatched trace must produce a
//! precise error — never a silent partial verification and never a
//! garbage replay. The frame-level decoder has its own unit suite in
//! `scrip-des`; these tests pin the *surfaced* behaviour a user of the
//! `scrip-sim replay` pipeline sees for each damage class.

use std::path::{Path, PathBuf};

use scrip_core::des::{SimDuration, SimTime, TraceError, TraceReader};
use scrip_core::market::{ChurnConfig, MarketConfig};
use scrip_core::obs::Session;
use scrip_core::CoreError;

/// RAII temp-file path so failed assertions don't leak trace files.
struct TracePath(PathBuf);

impl TracePath {
    fn new(name: &str) -> TracePath {
        TracePath(std::env::temp_dir().join(format!(
            "scrip_failclosed_{}_{name}.trc",
            std::process::id()
        )))
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

fn small_config() -> MarketConfig {
    MarketConfig::new(40, 20)
        .asymmetric()
        .churn(ChurnConfig::new(0.2, 150.0, 8).expect("valid churn"))
        .sample_interval(SimDuration::from_secs(100))
}

const HORIZON: SimTime = SimTime::from_secs(400);

/// Records the small config under seed 5 and returns the trace bytes.
fn recorded_bytes(path: &Path) -> Vec<u8> {
    let mut session = Session::from_config(&small_config(), 5).expect("builds");
    session.record_to(path).expect("recording starts");
    session.run_until(HORIZON);
    session.finish_trace().expect("recording completes");
    std::fs::read(path).expect("trace readable")
}

/// Replays `path` to the horizon and returns the terminal result.
fn replay_outcome(path: &Path) -> Result<(), CoreError> {
    let mut session = Session::from_config(&small_config(), 5).expect("builds");
    session.replay_from(path)?;
    session.run_until(HORIZON);
    session.finish_trace()
}

/// Asserts `result` is a trace error whose message contains `needle`.
fn assert_trace_error(result: Result<(), CoreError>, needle: &str) {
    match result {
        Err(CoreError::Trace(msg)) => assert!(
            msg.contains(needle),
            "expected a trace error mentioning {needle:?}, got {msg:?}"
        ),
        other => panic!("expected a trace error mentioning {needle:?}, got {other:?}"),
    }
}

#[test]
fn intact_traces_replay_cleanly() {
    let trace = TracePath::new("intact");
    recorded_bytes(trace.path());
    replay_outcome(trace.path()).expect("undamaged trace verifies");
}

#[test]
fn truncation_is_reported_not_replayed_past() {
    let trace = TracePath::new("truncated");
    let bytes = recorded_bytes(trace.path());
    // A partial final frame — the tail a mid-write crash leaves behind.
    std::fs::write(trace.path(), &bytes[..bytes.len() - 5]).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "truncated trace");
    // Chopping a whole flush-worth off the tail is also truncation-or-
    // shortfall, never a quietly weaker verification.
    std::fs::write(trace.path(), &bytes[..bytes.len() / 2]).expect("rewrite");
    assert!(
        replay_outcome(trace.path()).is_err(),
        "half a trace must not verify as a whole one"
    );
    // A log that ends mid-header cannot even be opened.
    std::fs::write(trace.path(), &bytes[..12]).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "truncated trace");
}

#[test]
fn bit_flips_are_caught_at_the_damaged_frame() {
    let trace = TracePath::new("bitflip");
    let mut bytes = recorded_bytes(trace.path());
    // Flip one bit inside a frame body past the header: the per-frame
    // FNV checksum pins the damage to that frame.
    let target = 28 + (bytes.len() - 28) / 3;
    bytes[target] ^= 0x10;
    std::fs::write(trace.path(), &bytes).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "corrupt trace");
}

#[test]
fn header_mismatches_fail_before_any_event_is_consumed() {
    let trace = TracePath::new("headers");
    let bytes = recorded_bytes(trace.path());

    // Wrong magic: not a trace at all.
    let mut damaged = bytes.clone();
    damaged[0] = b'X';
    std::fs::write(trace.path(), &damaged).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "bad magic");

    // Wrong format version.
    let mut damaged = bytes.clone();
    damaged[8] = 99;
    std::fs::write(trace.path(), &damaged).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "unsupported trace version");

    // Wrong configuration fingerprint (bytes 12..20).
    let mut damaged = bytes.clone();
    damaged[12] ^= 0xFF;
    std::fs::write(trace.path(), &damaged).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "configuration mismatch");

    // Wrong seed (bytes 20..28): the scenario matches but the RNG
    // stream cannot, so attachment is refused up front.
    let mut damaged = bytes;
    damaged[20..28].copy_from_slice(&999u64.to_le_bytes());
    std::fs::write(trace.path(), &damaged).expect("rewrite");
    assert_trace_error(replay_outcome(trace.path()), "seed mismatch");
}

#[test]
fn reader_surfaces_precise_error_variants() {
    let trace = TracePath::new("variants");
    let bytes = recorded_bytes(trace.path());

    assert_eq!(
        TraceReader::from_bytes(bytes[..4].to_vec()).unwrap_err(),
        TraceError::Truncated { offset: 0 },
        "a log shorter than the magic is truncation at byte 0"
    );
    let mut bad_version = bytes.clone();
    bad_version[8] = 7;
    assert_eq!(
        TraceReader::from_bytes(bad_version).unwrap_err(),
        TraceError::Version { found: 7 }
    );

    // A corrupt frame reports the offset of the frame that suffered the
    // damage, not end-of-log.
    let mut flipped = bytes.clone();
    flipped[30] ^= 0x01;
    let mut reader = TraceReader::from_bytes(flipped).expect("header intact");
    assert_eq!(
        reader.next_frame().unwrap_err(),
        TraceError::Corrupt { offset: 28 },
        "damage in the first frame is pinned to the first frame"
    );

    // A partial final frame reports the offset the incomplete frame
    // starts at.
    let mut reader =
        TraceReader::from_bytes(bytes[..bytes.len() - 1].to_vec()).expect("header intact");
    let last = loop {
        match reader.next_frame() {
            Ok(Some(_)) => continue,
            other => break other,
        }
    };
    match last {
        Err(TraceError::Truncated { offset }) => {
            assert!(
                offset > 28,
                "truncation offset {offset} must be past the header"
            );
        }
        other => panic!("expected truncation, got {other:?}"),
    }
}
