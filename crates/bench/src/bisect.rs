//! Divergence bisection: locate where a live re-execution departs from
//! a recorded event trace.
//!
//! A `SCRIPTRC` trace ([`scrip_des::trace`]) carries a state-digest
//! frame at every sampling boundary of the recorded run. Bisection
//! binary-searches those frames — re-executing the scenario live and
//! comparing [`scrip_core::obs::MarketView::state_digest`] at each
//! probed boundary — to bracket the first divergent boundary window,
//! hopping forward via [`Session::checkpoint`]/[`Session::resume`] so
//! no prefix is ever re-simulated more than O(log n) times. The final
//! window is then replayed event-by-event
//! ([`Session::replay_resume`]), which pins the divergence to its exact
//! `(time, seq)` identity.

use std::path::Path;

use scrip_core::des::{SimTime, TraceFrame, TraceReader};
use scrip_core::market::MarketConfig;
use scrip_core::obs::{Session, TraceDivergence};

/// What a [`bisect_trace`] run found.
#[derive(Clone, Debug)]
pub struct BisectReport {
    /// Digest probes executed during the binary search.
    pub probes: usize,
    /// The bracketed window `(last good boundary, first bad boundary]`;
    /// the right edge is the horizon when every recorded digest
    /// matched.
    pub window: (SimTime, SimTime),
    /// The exact divergence, or [`None`] when the live run matches the
    /// recorded trace completely.
    pub divergence: Option<TraceDivergence>,
}

/// Bisects the trace at `trace` against a live re-execution of
/// `config` under `seed`, running to `horizon`.
///
/// Requires a queue-level configuration (no streaming): the search
/// advances via checkpoints, which chunk-level sessions do not
/// support.
///
/// # Errors
/// Returns a message for unsupported configurations, unreadable or
/// corrupt traces, a trace header that does not match `config`/`seed`,
/// or checkpoint failures mid-search.
pub fn bisect_trace(
    config: &MarketConfig,
    seed: u64,
    horizon: SimTime,
    trace: &Path,
) -> Result<BisectReport, String> {
    if config.streaming.is_some() {
        return Err("bisect requires a queue-level scenario (streaming cannot checkpoint)".into());
    }

    // Collect the recorded digest schedule.
    let mut reader =
        TraceReader::from_path(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    let consumer = reader.register_consumer();
    let mut digests: Vec<(SimTime, u64)> = Vec::new();
    while let Some(frame) = reader
        .next_frame(consumer)
        .map_err(|e| format!("{}: {e}", trace.display()))?
    {
        if let TraceFrame::Digest { time, digest, .. } = frame {
            digests.push((time, digest));
        }
    }

    // Left anchor: a checkpoint of the freshly bootstrapped session.
    let mut session = Session::from_config(config, seed).map_err(|e| e.to_string())?;
    session.run_until(SimTime::ZERO);
    let mut lo_time = SimTime::ZERO;
    let mut lo_ckpt = session.checkpoint().map_err(|e| e.to_string())?;
    drop(session);

    // Binary search for the first recorded digest the live run fails to
    // reproduce. Probing a boundary that matches advances the anchor
    // checkpoint, so each probe simulates only from the last good
    // boundary.
    let mut probes = 0usize;
    let mut lo_idx: Option<usize> = None;
    let mut hi_idx: Option<usize> = None;
    loop {
        let lower = lo_idx.map_or(0, |i| i + 1);
        let upper = hi_idx.unwrap_or(digests.len());
        if lower >= upper {
            break;
        }
        let mid = lower + (upper - lower) / 2;
        let (boundary, recorded) = digests[mid];
        let mut probe = Session::resume(config, Vec::new(), &lo_ckpt).map_err(|e| e.to_string())?;
        probe.run_until(boundary);
        probes += 1;
        if probe.view().state_digest() == recorded {
            lo_idx = Some(mid);
            lo_time = boundary;
            lo_ckpt = probe.checkpoint().map_err(|e| e.to_string())?;
        } else {
            hi_idx = Some(mid);
        }
    }
    let hi_time = hi_idx.map_or(horizon, |i| digests[i].0);

    // Event-level pass over the bracketed window: replay-verify from
    // the anchor checkpoint to the first bad boundary (or the horizon).
    let mut tail = Session::resume(config, Vec::new(), &lo_ckpt).map_err(|e| e.to_string())?;
    let tail_reader =
        TraceReader::from_path(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    tail.replay_resume(tail_reader).map_err(|e| e.to_string())?;
    tail.run_until(hi_time);
    let divergence = tail.trace_divergence().cloned();
    if divergence.is_none() {
        // Either the whole run matches, or the recorded run continued
        // past this one — surface the latter as an error.
        tail.finish_trace().map_err(|e| e.to_string())?;
    }
    Ok(BisectReport {
        probes,
        window: (lo_time, hi_time),
        divergence,
    })
}
