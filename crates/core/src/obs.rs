//! The unified observation API: pluggable probes over one `Session`
//! runner that drives *both* market granularities.
//!
//! The paper's evaluation is a family of observations — Gini
//! trajectories, wealth distributions, spending rates, stall rates —
//! over one simulated economy. This module turns "what we measure" into
//! data instead of code:
//!
//! * [`MarketView`] — the read-only facade a probe observes. Both the
//!   queue-level [`CreditMarket`] and the chunk-level
//!   [`StreamingSystem<CreditTradePolicy>`] implement it, so a probe
//!   written once works at either granularity. The economy — wallets,
//!   spend, escrow and the reports built on them (wealth Gini, sorted
//!   balances, sorted spending rates) — is read through
//!   [`MarketView::ledger`], whose [`Ledger`] both markets share.
//! * [`Probe`] — the observer interface: [`Probe::on_bootstrap`] at the
//!   start of the run, [`Probe::on_settle`] /  [`Probe::on_sample`] at
//!   each sampling boundary, [`Probe::at_horizon`] once at the end.
//! * [`RunRecord`] — the run's measurements, one typed field per
//!   observable: each probe fills its own field at the horizon.
//! * [`Session`] — the one entry point that subsumes
//!   [`crate::market::run_market`] and
//!   [`crate::protocol::run_streaming_market`]: build from any
//!   [`MarketConfig`], [`Session::attach`] probes, [`Session::run_until`]
//!   the horizon, [`Session::finish`] into a [`RunRecord`] plus the
//!   finished model. A session of either granularity checkpoints and
//!   resumes ([`Session::checkpoint`], [`Session::resume`]) and records
//!   and replays its event stream ([`Session::record_to`],
//!   [`Session::replay_from`]).
//!
//! ## One session path
//!
//! Everything a session needs from a market — the [`scrip_des::Model`]
//! and [`MarketView`] it is, its queue profile, its checkpoint codec
//! (`write_state` and a fail-closed `read_state`) and its event codec —
//! is one crate-private trait, implemented by both markets. The session
//! holds one boxed simulation of either and is written once over it:
//! the granularity is chosen only where a session is built
//! ([`Session::from_config`]) or resumed ([`Session::resume`]). Calls
//! through the box happen once per `run_until` span, never per event;
//! inside a span the simulation runs monomorphic, with a recorder's
//! per-event tap compiled into its dispatch loop.
//!
//! Both markets' checkpoints are built from the same state sections,
//! each with one encoder and one decoder: RNG words and the fault plan,
//! fault counters and time series ([`scrip_des::snapshot`]), the
//! overlay ([`scrip_topology::Graph::write_state`]), and the ledger,
//! taxation and posted prices. Trace payloads name their granularity:
//! queue-level event tags are 0–6, chunk-level ones 16–25, and
//! [`describe_event`] renders either.
//!
//! ## Hot-path cost
//!
//! Probe dispatch happens **only at sampling boundaries** (the market's
//! `sample_interval`, plus any extra stops probes request): the
//! session runs the simulator in uninterrupted spans between stops and
//! never interposes on individual spend/settle events, so the
//! allocation-free spend and chunk-trade hot paths are untouched. With
//! no probes attached the session is a single `run_until` call — zero
//! overhead over the old entry points (measured by the
//! `probe_attached`/`probe_detached` entries of `scrip-sim bench`).
//!
//! ## Example
//!
//! ```
//! use scrip_core::market::MarketConfig;
//! use scrip_core::obs::{probes, Session};
//! use scrip_des::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MarketConfig::new(50, 20);
//! let mut session = Session::from_config(&config, 7)?;
//! session.attach(Box::new(probes::PopulationSeriesProbe::new()));
//! session.attach(Box::new(probes::LorenzProbe::new(20)));
//! session.run_until(SimTime::from_secs(500));
//! let (record, _model) = session.finish();
//! assert_eq!(record.population_series.first(), Some(&(0.0, 50.0)));
//! assert_eq!(record.peer_count, 50);
//! # Ok(())
//! # }
//! ```

use std::io::BufWriter;
use std::path::Path;

use scrip_des::snapshot::{self, Put, Reader};
use scrip_des::stats::TimeSeries;
use scrip_des::{
    Model, QueueProfile, RunStats, Scheduled, Scheduler, SimDuration, SimTime, Simulation,
    TraceError, TraceFile, TraceFrame, TraceHeader, TraceReader, TraceWriter,
};
use scrip_streaming::{StreamEvent, StreamingSystem};

use crate::credits::Ledger;
use crate::error::CoreError;
use crate::market::{CreditMarket, FaultStats, MarketConfig, MarketEvent};
use crate::policy::Taxation;
use crate::protocol::CreditTradePolicy;

pub mod probes;

/// Everything measured in one finished run, one typed field per
/// observable of the paper's evaluation. [`Session::finish`] fills the
/// counters; each attached probe's [`Probe::at_horizon`] fills its own
/// fields. A field whose probe was not attached keeps its empty or zero
/// default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// `(t, Gini)` trajectory ([`probes::GiniSeriesProbe`]).
    pub gini_series: Vec<(f64, f64)>,
    /// Final wealth distribution, sorted ascending
    /// ([`probes::FinalBalancesProbe`]).
    pub final_balances: Vec<u64>,
    /// Per-peer spending rates, sorted ascending
    /// ([`probes::SpendingRatesProbe`]).
    pub spending_rates: Vec<f64>,
    /// Sorted wealth snapshots `(time secs, sorted balances)` at the
    /// requested times ([`probes::SnapshotsProbe`]).
    pub snapshots: Vec<(u64, Vec<u64>)>,
    /// `(t, stall rate)` trajectory; empty for queue-level markets
    /// ([`probes::StallSeriesProbe`]).
    pub stall_series: Vec<(f64, f64)>,
    /// `(t, purchases/sec)` trajectory
    /// ([`probes::ThroughputSeriesProbe`]).
    pub throughput_series: Vec<(f64, f64)>,
    /// `(t, live peers)` trajectory
    /// ([`probes::PopulationSeriesProbe`]).
    pub population_series: Vec<(f64, f64)>,
    /// Final Lorenz curve `(population share, wealth share)`
    /// ([`probes::LorenzProbe`]).
    pub lorenz: Vec<(f64, f64)>,
    /// `(t, cumulative failed delivery attempts)` trajectory
    /// ([`probes::FaultSeriesProbe`]); empty with faults off.
    pub fault_series: Vec<(f64, f64)>,
    /// `(t, credits withheld in trade escrow)` trajectory
    /// ([`probes::FaultSeriesProbe`]); empty with faults off.
    pub escrow_series: Vec<(f64, f64)>,
    /// Fault-injection counters and the retry-depth histogram at the
    /// horizon ([`probes::FaultSeriesProbe`]); all zero with faults off.
    pub faults: FaultStats,
    /// Successful purchases (settlements at chunk granularity).
    pub purchases: u64,
    /// Purchase attempts refused for lack of credits.
    pub denied: u64,
    /// Total credits spent by live peers.
    pub total_spent: u64,
    /// Live peers at the horizon.
    pub peer_count: usize,
    /// Gini of the final wealth distribution; [`None`] when the market
    /// has no peers at the horizon.
    pub wealth_gini: Option<f64>,
    /// Credits collected by taxation (0 without tax).
    pub tax_collected: u64,
}

/// Read-only view of a running market, shared by both granularities:
/// the queue-level [`CreditMarket`] and the chunk-level
/// [`StreamingSystem<CreditTradePolicy>`]. Everything a probe can
/// observe goes through this trait, so probes are written once and run
/// against either simulator.
///
/// The economy itself — balances, spend, escrow, and the reports built
/// on them (wealth Gini, sorted balances, sorted spending rates) — is
/// read from [`MarketView::ledger`]. The counters are O(1); the
/// ledger's distribution reports assemble owned vectors and are
/// intended for sampling boundaries, not hot paths.
pub trait MarketView {
    /// Number of live peers.
    fn peer_count(&self) -> usize;
    /// Successful purchases so far (settlements at chunk granularity).
    fn purchases(&self) -> u64;
    /// Purchase attempts refused for lack of credits.
    fn denied(&self) -> u64;
    /// The credit ledger.
    fn ledger(&self) -> &Ledger;
    /// Taxation state, when taxation is enabled.
    fn taxation(&self) -> Option<&Taxation>;
    /// The internally recorded `(t, Gini)` trajectory.
    fn gini_series(&self) -> &TimeSeries;
    /// The `(t, stall rate)` trajectory — [`None`] for queue-level
    /// markets, which have no playback to stall.
    fn stall_series(&self) -> Option<&TimeSeries>;
    /// Fault-injection counters — [`None`] when the market runs without
    /// a fault plan (the default).
    fn fault_stats(&self) -> Option<&FaultStats> {
        None
    }
    /// Credits currently withheld in trade escrow for in-flight
    /// deliveries (0 without faults).
    fn in_flight_escrow(&self) -> u64 {
        0
    }
    /// FNV-1a digest of the market's deterministic state, taken at
    /// sampling boundaries for trace digest frames and golden pins: a
    /// fold over the exact bytes the market's checkpoint encoding
    /// writes (RNG streams, overlay, ledger, escrow, pricing, fault
    /// plan, and at chunk level every peer's protocol state).
    fn state_digest(&self) -> u64;
}

/// A pluggable observer over one market run.
///
/// Hooks fire **only at sampling boundaries** (never per simulator
/// event), so attaching probes cannot perturb the spend/trade hot
/// paths; see the [module docs](self) for the cost model. All hooks
/// have empty defaults except [`Probe::at_horizon`], where the probe
/// writes whatever it measured into its [`RunRecord`] field.
pub trait Probe: Send {
    /// Extra simulated instants (besides the regular sampling grid) at
    /// which this probe needs [`Probe::on_sample`] — e.g. wealth
    /// snapshot times. Queried once at [`Session::attach`].
    fn extra_stops(&self) -> Vec<SimTime> {
        Vec::new()
    }

    /// Called once at the start of the run, after the market has
    /// bootstrapped (time zero events processed).
    fn on_bootstrap(&mut self, view: &dyn MarketView) {
        let _ = view;
    }

    /// Batched settlement notification: how many purchases settled and
    /// how many were denied since the previous sampling boundary.
    /// Delivered immediately before [`Probe::on_sample`] at every stop —
    /// this is how throughput-style probes observe purchase flow without
    /// any per-event dispatch.
    fn on_settle(&mut self, now: SimTime, settled: u64, denied: u64) {
        let _ = (now, settled, denied);
    }

    /// Called at every sampling boundary: the market's
    /// `sample_interval` grid plus any [`Probe::extra_stops`] requested
    /// by an attached probe.
    fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
        let _ = (now, view);
    }

    /// Called once when the session finishes: write the measurements
    /// into the probe's own field of the record.
    fn at_horizon(&mut self, now: SimTime, view: &dyn MarketView, record: &mut RunRecord);

    /// Serializes the probe's accumulated state for a
    /// [`Session::checkpoint`]. Stateless probes (the default) return an
    /// empty block; stateful probes must override this *and*
    /// [`Probe::restore_state`] so a resumed run reproduces the
    /// uninterrupted one byte for byte.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Probe::snapshot_state`] during
    /// [`Session::resume`]. The default accepts only the empty block a
    /// stateless probe writes — resuming a stateful snapshot into a
    /// probe that cannot read it fails loudly.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] when the block cannot be
    /// decoded by this probe.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Checkpoint(
                "probe has checkpoint state but no restore_state implementation".into(),
            ))
        }
    }
}

/// What a [`Session`] needs from a market, whichever its granularity:
/// the model it runs and the view its probes read, how to build and
/// start it, how its event queue is sized, its checkpoint codec and its
/// event codec. The session is written once over this trait (see the
/// [module docs](self)).
pub(crate) trait SessionMarket: Model + MarketView + Sized + Send + 'static {
    /// Builds the market `config` describes, drawing from `seed`.
    fn build(config: &MarketConfig, seed: u64) -> Result<Self, CoreError>;

    /// The event that starts a run, scheduled at time zero.
    fn bootstrap() -> Self::Event;

    /// How the market's event queue is sized.
    fn queue_profile(&self) -> QueueProfile;

    /// Serializes the market's mutable state — the model half of a
    /// checkpoint, and what [`MarketView::state_digest`] folds.
    fn write_state(&self, w: &mut impl Put);

    /// Decodes the market whose state [`SessionMarket::write_state`]
    /// captured `events_processed` events into a run of `config` and
    /// `seed`, failing closed on bytes no run produces.
    fn read_state(
        config: &MarketConfig,
        seed: u64,
        r: &mut Reader<'_>,
        events_processed: u64,
    ) -> Result<Self, CoreError>;

    /// Serializes one event: a checkpoint's pending events and a trace's
    /// event payloads.
    fn encode(event: &Self::Event, w: &mut impl Put);

    /// Decodes an event written by [`SessionMarket::encode`].
    fn decode(r: &mut Reader<'_>) -> Result<Self::Event, CoreError>;

    /// Checks a checkpoint's decoded pending events against the decoded
    /// state; a resume refuses a checkpoint whose events do not fit.
    fn check_pending(&self, _pending: &[Scheduled<Self::Event>]) -> Result<(), String> {
        Ok(())
    }

    /// The finished model, as a session hands it back.
    fn into_model(self) -> SessionModel;
}

/// A market's simulation as a [`Session`] drives it: the calls the
/// session makes through its box, each once per `run_until` span,
/// checkpoint or boundary, never per event.
trait Run: Send {
    fn now(&self) -> SimTime;
    fn stats(&self) -> RunStats;
    fn view(&self) -> &dyn MarketView;
    /// Runs to `horizon`, offering every event to `tracer` first when
    /// one is attached.
    fn advance(&mut self, horizon: SimTime, tracer: Option<&mut Tracer>);
    /// Appends the pending events, each behind its `(time, seq)`
    /// identity, and the market's state.
    fn write_state(&self, w: &mut Vec<u8>);
    fn into_model(self: Box<Self>) -> SessionModel;
}

impl<M: SessionMarket> Run for Simulation<M>
where
    M::Event: Clone + Send,
{
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }
    fn stats(&self) -> RunStats {
        Simulation::stats(self)
    }
    fn view(&self) -> &dyn MarketView {
        self.model()
    }
    fn advance(&mut self, horizon: SimTime, tracer: Option<&mut Tracer>) {
        match tracer {
            // The tap is a closure over this market's event type, so the
            // kernel's traced loop inlines the recorder.
            Some(tracer) => {
                self.run_until_traced(horizon, &mut |time, seq, event| {
                    tracer.on_event::<M>(time, seq, event)
                });
            }
            None => {
                self.run_until(horizon);
            }
        }
    }
    fn write_state(&self, w: &mut Vec<u8>) {
        let pending = self.scheduler().snapshot_events();
        w.put_u64(pending.len() as u64);
        for scheduled in &pending {
            w.put_u64(scheduled.time.as_micros());
            w.put_u64(scheduled.seq);
            M::encode(&scheduled.event, w);
        }
        self.model().write_state(w);
    }
    fn into_model(self: Box<Self>) -> SessionModel {
        SessionMarket::into_model(Simulation::into_model(*self))
    }
}

/// A fresh simulation of `M` for `config` and `seed`, pre-sized and
/// with its bootstrap event scheduled.
fn start<M: SessionMarket>(config: &MarketConfig, seed: u64) -> Result<Box<dyn Run>, CoreError>
where
    M::Event: Clone + Send,
{
    let market = M::build(config, seed)?;
    let profile = market.queue_profile();
    let mut sim = Simulation::with_profile(market, profile);
    sim.schedule(SimTime::ZERO, M::bootstrap());
    Ok(Box::new(sim))
}

/// Decodes the simulation a checkpoint's state frame holds: the pending
/// events, then `M`'s state, taken at `clock` after `events_processed`
/// events.
fn resume_sim<M: SessionMarket>(
    config: &MarketConfig,
    seed: u64,
    r: &mut Reader<'_>,
    (clock, events_processed): (SimTime, u64),
) -> Result<Box<dyn Run>, CoreError>
where
    M::Event: Clone + Send,
{
    // Each pending event: time, seq and at least a tag byte.
    let pending_len = r.take_count(17)?;
    // Every seq comes from one push, and every push is either
    // processed or still pending.
    let seq_bound = events_processed.saturating_add(pending_len as u64);
    let mut pending: Vec<Scheduled<M::Event>> = Vec::with_capacity(pending_len);
    for _ in 0..pending_len {
        let time = SimTime::from_micros(r.take_u64()?);
        let seq = r.take_u64()?;
        if time < clock {
            return Err(CoreError::Checkpoint(format!(
                "pending event at {time} precedes the clock ({clock})"
            )));
        }
        if seq >= seq_bound {
            return Err(CoreError::Checkpoint(format!(
                "pending event seq {seq} is not below {seq_bound} (events processed plus pending)"
            )));
        }
        if pending
            .last()
            .is_some_and(|p| (p.time, p.seq) >= (time, seq))
        {
            return Err(CoreError::Checkpoint(
                "pending events are not in strictly ascending (time, seq) order".into(),
            ));
        }
        let event = M::decode(r)?;
        pending.push(Scheduled { time, seq, event });
    }
    // Only a join allocates an overlay id, so the events processed
    // bound the watermark the market state may carry.
    let market = M::read_state(config, seed, r, events_processed)?;
    market
        .check_pending(&pending)
        .map_err(CoreError::Checkpoint)?;
    let mut scheduler = Scheduler::with_profile(market.queue_profile());
    scheduler.restore_clock(clock);
    for scheduled in pending {
        scheduler.enqueue_scheduled(scheduled);
    }
    Ok(Box::new(Simulation::from_parts(
        market,
        scheduler,
        events_processed,
    )))
}

/// The finished model a [`Session`] hands back, for callers that want
/// more than the [`RunRecord`] (e.g. the `run_market` /
/// `run_streaming_market` wrappers, which keep older callers working).
pub enum SessionModel {
    /// A finished queue-level market.
    Queue(CreditMarket),
    /// A finished chunk-level streaming market.
    Chunk(StreamingSystem<CreditTradePolicy>),
}

impl SessionModel {
    /// The queue-level market, if that is what ran.
    pub fn queue(self) -> Option<CreditMarket> {
        match self {
            SessionModel::Queue(market) => Some(market),
            SessionModel::Chunk(_) => None,
        }
    }

    /// The chunk-level streaming system, if that is what ran.
    pub fn chunk(self) -> Option<StreamingSystem<CreditTradePolicy>> {
        match self {
            SessionModel::Queue(_) => None,
            SessionModel::Chunk(system) => Some(system),
        }
    }
}

/// The first point where a replayed run departed from its recorded
/// trace — what `scrip-sim replay` reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Instant of the divergence.
    pub time: SimTime,
    /// Global sequence number of the divergent event ([`None`] when a
    /// digest frame at a sampling boundary caught the divergence).
    pub seq: Option<u64>,
    /// What the recorded trace expected (decoded, human-readable).
    pub expected: String,
    /// What the live re-execution produced.
    pub actual: String,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay diverged at t={}µs", self.time.as_micros())?;
        if let Some(seq) = self.seq {
            write!(f, " seq={seq}")?;
        }
        write!(
            f,
            ": trace recorded {}, live run produced {}",
            self.expected, self.actual
        )
    }
}

/// The fingerprint checkpoints and trace headers store to tie a file to
/// the configuration it was taken under.
fn config_fingerprint(config: &MarketConfig) -> u64 {
    snapshot::fingerprint(format!("{config:?}").as_bytes())
}

/// Refuses a trace or checkpoint written under another configuration,
/// which would otherwise diverge silently.
fn check_fingerprint(header: &TraceHeader, fingerprint: u64) -> Result<(), String> {
    if header.fingerprint != fingerprint {
        return Err(
            "configuration mismatch: the file was written under a different scenario".into(),
        );
    }
    Ok(())
}

fn trace_err(e: TraceError) -> CoreError {
    CoreError::Trace(e.to_string())
}

/// Renders one trace event payload of either granularity in the event's
/// debug form, for `tail`, `trace-diff` and divergence reports. The
/// queue level's event tags (0–6) and the chunk level's (16–25) are
/// disjoint, so at most one decoder accepts a payload; [`None`] when
/// neither does (a daemon sample line, a damaged payload).
pub fn describe_event(payload: &[u8]) -> Option<String> {
    if let Ok(event) = MarketEvent::from_trace_payload(payload) {
        return Some(format!("{event:?}"));
    }
    let mut r = Reader::new(payload);
    let event = StreamEvent::decode(&mut r).ok()?;
    r.finish().ok()?;
    Some(format!("{event:?}"))
}

/// [`describe_event`], or the payload's size when it does not decode.
fn describe_payload(payload: &[u8]) -> String {
    describe_event(payload)
        .unwrap_or_else(|| format!("<{} undecodable payload bytes>", payload.len()))
}

/// Trace state attached to a session: either recording the event
/// stream or verifying a live re-execution against a recorded one.
enum Tracer {
    /// Recording: every applied event becomes a frame, every sampling
    /// boundary a digest frame followed by a flush.
    Record {
        writer: TraceWriter<BufWriter<std::fs::File>>,
        error: Option<TraceError>,
    },
    /// Verifying: each applied event must match the next recorded
    /// event frame, each shared boundary the recorded digest.
    Verify(Verifier),
}

/// A replaying session's trace state (see [`Tracer::Verify`]). The
/// recorded trace is read from its file one bounded chunk at a time.
struct Verifier {
    reader: TraceFile,
    scratch: Vec<u8>,
    divergence: Option<TraceDivergence>,
    error: Option<TraceError>,
}

impl Tracer {
    /// Whether tracing hit a terminal condition (I/O error or replay
    /// divergence) — the session stops running when this turns true.
    fn halted(&self) -> bool {
        match self {
            Tracer::Record { error, .. } => error.is_some(),
            Tracer::Verify(Verifier {
                divergence, error, ..
            }) => divergence.is_some() || error.is_some(),
        }
    }

    /// The per-event kernel tap: returning `false` vetoes the dispatch
    /// and freezes the simulation at the pre-event state. Recording is
    /// inlined into the kernel's dispatch loop; verification is not.
    #[inline]
    fn on_event<M: SessionMarket>(&mut self, time: SimTime, seq: u64, event: &M::Event) -> bool {
        match self {
            Tracer::Record { writer, error } => {
                if let Err(e) = writer.event_with(time, seq, |buf| M::encode(event, buf)) {
                    *error = Some(e);
                    return false;
                }
                true
            }
            Tracer::Verify(verifier) => verifier.on_event::<M>(time, seq, event),
        }
    }

    /// The sampling-boundary hook: record a digest frame and flush, or
    /// strictly verify the recorded digest for this boundary.
    fn on_boundary(&mut self, now: SimTime, events_processed: u64, digest: u64) {
        match self {
            Tracer::Record { writer, error, .. } => {
                if error.is_some() {
                    return;
                }
                writer.digest(now, events_processed, digest);
                if let Err(e) = writer.flush() {
                    *error = Some(e);
                }
            }
            Tracer::Verify(Verifier {
                reader,
                divergence,
                error,
                ..
            }) => {
                if divergence.is_some() || error.is_some() {
                    return;
                }
                match reader.peek_frame() {
                    Err(e) => *error = Some(e),
                    Ok(Some(TraceFrame::Digest {
                        time: rt,
                        events_processed: re,
                        digest: rd,
                    })) if rt == now => {
                        let _ = reader.next_frame();
                        if re != events_processed || rd != digest {
                            *divergence = Some(TraceDivergence {
                                time: now,
                                seq: None,
                                expected: format!("digest {rd:#018x} after {re} events"),
                                actual: format!(
                                    "digest {digest:#018x} after {events_processed} events"
                                ),
                            });
                        }
                    }
                    Ok(Some(TraceFrame::Event {
                        time: rt,
                        seq: rs,
                        payload,
                    })) if rt <= now => {
                        // The recorded run applied more events by this
                        // boundary than the live run produced.
                        *divergence = Some(TraceDivergence {
                            time: rt,
                            seq: Some(rs),
                            expected: format!(
                                "{} at (t={}µs, seq={rs})",
                                describe_payload(&payload),
                                rt.as_micros()
                            ),
                            actual: format!(
                                "no further events by the boundary at t={}µs",
                                now.as_micros()
                            ),
                        });
                    }
                    // A boundary the recorded run did not stop at (or
                    // the trace ended at an earlier horizon): nothing
                    // recorded to check against.
                    Ok(_) => {}
                }
            }
        }
    }
}

impl Verifier {
    /// The replay half of [`Tracer::on_event`]: the event must match
    /// the next recorded event frame. Kept out of the recording loop.
    #[inline(never)]
    fn on_event<M: SessionMarket>(&mut self, time: SimTime, seq: u64, event: &M::Event) -> bool {
        let Verifier {
            reader,
            scratch,
            divergence,
            error,
        } = self;
        // Digest (and state) frames belong to boundaries; any
        // still sitting before the next event frame were taken
        // at stops this session does not share (e.g. the extra
        // stop of a probe only the recording session had) —
        // skip them.
        // Shared boundaries consume their digest strictly in
        // `on_boundary` before the next event is tapped.
        scratch.clear();
        M::encode(event, scratch);
        let expected = loop {
            match reader.next_frame() {
                Err(e) => {
                    *error = Some(e);
                    return false;
                }
                Ok(Some(TraceFrame::Digest { .. } | TraceFrame::State { .. })) => {}
                Ok(Some(TraceFrame::Event {
                    time: rt,
                    seq: rs,
                    payload,
                })) => {
                    if rt == time && rs == seq && payload == *scratch {
                        return true;
                    }
                    break format!(
                        "{} at (t={}µs, seq={rs})",
                        describe_payload(&payload),
                        rt.as_micros()
                    );
                }
                Ok(Some(TraceFrame::End { time: rt, .. })) => {
                    break format!(
                        "end of trace (recorded run finished at t={}µs)",
                        rt.as_micros()
                    );
                }
                Ok(None) => {
                    break "end of trace (recorded run produced no further events)".into();
                }
            }
        };
        *divergence = Some(TraceDivergence {
            time,
            seq: Some(seq),
            expected,
            actual: describe_payload(scratch),
        });
        false
    }
}

/// One market run under observation: the unified entry point for both
/// granularities. See the [module docs](self) for the full picture and
/// an example.
pub struct Session {
    /// The simulation, of either granularity.
    sim: Box<dyn Run>,
    probes: Vec<Box<dyn Probe>>,
    /// The root seed the market was built from — stored so a
    /// [`Session::checkpoint`] can rebuild the same derived RNG streams
    /// on [`Session::resume`].
    seed: u64,
    /// The configuration's fingerprint, which checkpoints and traces
    /// carry in their headers.
    fingerprint: u64,
    /// The sampling-grid spacing (the market's `sample_interval`).
    interval: SimDuration,
    /// Next regular sampling boundary.
    next_tick: SimTime,
    /// Pending extra stops from probes, ascending and deduplicated.
    stops: Vec<SimTime>,
    /// Purchase/denial counts at the previous boundary (for
    /// [`Probe::on_settle`] deltas).
    last_purchases: u64,
    last_denied: u64,
    started: bool,
    /// Attached trace recorder/verifier, if any. Boxed: sessions
    /// without one pay a single pointer of overhead.
    tracer: Option<Box<Tracer>>,
}

impl Session {
    /// Builds a session from any market configuration: a config whose
    /// [`MarketConfig::streaming`] is set runs at chunk granularity
    /// through the protocol stack, everything else runs the queue-level
    /// spend loop. The simulation is pre-sized
    /// (`queue_capacity_hint`) and its bootstrap event scheduled; call
    /// [`Session::attach`] before [`Session::run_until`].
    ///
    /// # Errors
    /// Returns [`CoreError`] for invalid configurations or topology
    /// failures.
    pub fn from_config(config: &MarketConfig, seed: u64) -> Result<Session, CoreError> {
        let sim = if config.streaming.is_some() {
            start::<StreamingSystem<CreditTradePolicy>>(config, seed)?
        } else {
            start::<CreditMarket>(config, seed)?
        };
        Ok(Session {
            sim,
            probes: Vec::new(),
            seed,
            fingerprint: config_fingerprint(config),
            interval: config.sample_interval,
            next_tick: SimTime::ZERO + config.sample_interval,
            stops: Vec::new(),
            last_purchases: 0,
            last_denied: 0,
            started: false,
            tracer: None,
        })
    }

    /// Attaches a probe. Its [`Probe::extra_stops`] are merged into the
    /// session's stop schedule.
    ///
    /// # Panics
    /// Panics if the session has already started running — probes must
    /// observe the run from the beginning.
    pub fn attach(&mut self, probe: Box<dyn Probe>) {
        assert!(
            !self.started,
            "attach probes before the first run_until call"
        );
        self.stops.extend(probe.extra_stops());
        self.stops.sort_unstable();
        self.stops.dedup();
        self.probes.push(probe);
    }

    /// The root seed the market was built from; a resumed session
    /// reports the seed its snapshot was taken with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current simulation clock.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Kernel counters for the run so far (events processed/pending).
    pub fn stats(&self) -> RunStats {
        self.sim.stats()
    }

    /// The observable market state, at either granularity.
    pub fn view(&self) -> &dyn MarketView {
        self.sim.view()
    }

    fn sim_run_until(&mut self, t: SimTime) {
        self.sim.advance(t, self.tracer.as_deref_mut());
    }

    /// Whether tracing hit a terminal condition (I/O error or replay
    /// divergence); the session freezes at the pre-event state until
    /// [`Session::finish_trace`] reports the cause.
    fn trace_halted(&self) -> bool {
        self.tracer.as_deref().is_some_and(Tracer::halted)
    }

    /// Emits (or verifies) the state-digest frame for boundary `now`.
    /// No-op without a tracer.
    fn trace_boundary(&mut self, now: SimTime) {
        if self.tracer.is_none() {
            return;
        }
        let digest = self.view().state_digest();
        let events_processed = self.stats().events_processed;
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.on_boundary(now, events_processed, digest);
        }
    }

    /// Delivers `on_settle` + `on_sample` to every probe at boundary
    /// `now`.
    fn dispatch_sample(&mut self, now: SimTime) {
        let view = self.sim.view();
        let purchases = view.purchases();
        let denied = view.denied();
        let settled_delta = purchases - self.last_purchases;
        let denied_delta = denied - self.last_denied;
        self.last_purchases = purchases;
        self.last_denied = denied;
        for probe in &mut self.probes {
            probe.on_settle(now, settled_delta, denied_delta);
            probe.on_sample(now, view);
        }
    }

    /// Processes the time-zero events (bootstrap) and delivers
    /// [`Probe::on_bootstrap`], exactly once.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // No digest frame at time zero: the t = 0 state is a function of
        // the header's configuration fingerprint and seed alone, which
        // replay checks when it attaches.
        self.sim_run_until(SimTime::ZERO);
        if self.trace_halted() {
            return;
        }
        let view = self.sim.view();
        self.last_purchases = view.purchases();
        self.last_denied = view.denied();
        for probe in &mut self.probes {
            probe.on_bootstrap(view);
        }
        // Extra stops at time zero (e.g. a snapshot at t = 0) fire right
        // after bootstrap.
        while self.stops.first() == Some(&SimTime::ZERO) {
            self.stops.remove(0);
            self.dispatch_sample(SimTime::ZERO);
        }
    }

    /// Advances the simulation to `horizon` (inclusive), stopping at
    /// every sampling boundary in between to dispatch probe hooks. With
    /// no probes attached this is a single uninterrupted `run_until` —
    /// zero overhead over driving the simulator directly. May be called
    /// repeatedly with increasing horizons.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.probes.is_empty() && self.tracer.is_none() {
            self.started = true;
            self.sim_run_until(horizon);
            // Keep the sampling grid aligned with the clock: a
            // checkpoint taken here and resumed must not dispatch
            // phantom boundaries the fast path skipped.
            while self.next_tick <= self.now() {
                self.next_tick += self.interval;
            }
            return;
        }
        self.ensure_started();
        while self.now() < horizon && !self.trace_halted() {
            let mut stop = horizon;
            if self.next_tick <= stop {
                stop = self.next_tick;
            }
            if let Some(&extra) = self.stops.first() {
                if extra > self.now() && extra <= stop {
                    stop = extra;
                }
            }
            self.sim_run_until(stop);
            if self.trace_halted() {
                return;
            }
            // Every stop — tick, extra, or horizon — is a sampling
            // boundary, so record/verify its state digest.
            self.trace_boundary(stop);
            if self.trace_halted() {
                return;
            }
            let is_tick = stop == self.next_tick;
            let is_extra = self.stops.first() == Some(&stop);
            if is_tick || is_extra {
                if is_tick {
                    self.next_tick += self.interval;
                }
                if is_extra {
                    self.stops.remove(0);
                }
                self.dispatch_sample(stop);
            }
        }
    }

    /// Starts recording this session's event stream to `path` in the
    /// `SCRIPTRC` format ([`scrip_des::trace`]): one frame per applied
    /// event, keyed by its `(time, seq)` identity, plus a state-digest
    /// frame at every sampling boundary. Frames are buffered and
    /// flushed at boundaries; [`Session::finish_trace`] completes the
    /// file. Recording the same scenario and seed twice produces
    /// byte-identical files.
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] if the session already started,
    /// already has a tracer attached, or the file cannot be created.
    pub fn record_to(&mut self, path: &Path) -> Result<(), CoreError> {
        if self.started {
            return Err(CoreError::Trace(
                "start recording before the first run_until call".into(),
            ));
        }
        if self.tracer.is_some() {
            return Err(CoreError::Trace(
                "session already has a tracer attached".into(),
            ));
        }
        let file = std::fs::File::create(path)
            .map_err(|e| CoreError::Trace(format!("create {}: {e}", path.display())))?;
        let writer = TraceWriter::new(
            BufWriter::new(file),
            TraceHeader {
                fingerprint: self.fingerprint,
                seed: self.seed,
            },
        );
        self.tracer = Some(Box::new(Tracer::Record {
            writer,
            error: None,
        }));
        Ok(())
    }

    /// Re-executes this session against the trace at `path`,
    /// fail-closed: every applied event must match the recorded frame
    /// byte for byte and every shared sampling boundary the recorded
    /// state digest. On the first mismatch the run freezes at the
    /// pre-event state ([`Session::trace_divergence`] has the details;
    /// [`Session::finish_trace`] returns them as an error). The trace
    /// is read one bounded chunk at a time ([`TraceFile`]), not loaded
    /// whole.
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] for unreadable/corrupt trace files,
    /// a header (configuration or seed) mismatch, a session that
    /// already started, or one that already has a tracer attached.
    pub fn replay_from(&mut self, path: &Path) -> Result<(), CoreError> {
        if self.started {
            return Err(CoreError::Trace(
                "attach a replay before the first run_until call".into(),
            ));
        }
        let reader = TraceFile::open(path).map_err(trace_err)?;
        if self.tracer.is_some() {
            return Err(CoreError::Trace(
                "session already has a tracer attached".into(),
            ));
        }
        let header = *reader.header();
        check_fingerprint(&header, self.fingerprint).map_err(CoreError::Trace)?;
        if header.seed != self.seed {
            return Err(CoreError::Trace(format!(
                "seed mismatch: trace was recorded with seed {}, session runs seed {}",
                header.seed, self.seed
            )));
        }
        self.tracer = Some(Box::new(Tracer::Verify(Verifier {
            reader,
            scratch: Vec::new(),
            divergence: None,
            error: None,
        })));
        Ok(())
    }

    /// The first divergence a replaying session found, if any. The
    /// simulation is frozen at the pre-event state of the divergent
    /// `(time, seq)`.
    pub fn trace_divergence(&self) -> Option<&TraceDivergence> {
        match self.tracer.as_deref() {
            Some(Tracer::Verify(verifier)) => verifier.divergence.as_ref(),
            _ => None,
        }
    }

    /// Completes and detaches the session's trace. A recording is
    /// flushed and closed; a verification must have consumed the whole
    /// recorded event stream without divergence. A session with no
    /// tracer attached returns `Ok(())`.
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] on recording I/O failure, on the
    /// divergence a replay halted at, or when the recorded run
    /// continued past this one's horizon.
    pub fn finish_trace(&mut self) -> Result<(), CoreError> {
        let close_at = self.now();
        let events_processed = self.stats().events_processed;
        match self.tracer.take().map(|boxed| *boxed) {
            None => Ok(()),
            Some(Tracer::Record {
                mut writer, error, ..
            }) => {
                if let Some(e) = error {
                    return Err(trace_err(e));
                }
                // Close the log with an end frame so tailing consumers
                // can tell "run over" from "writer between flushes".
                writer.end(close_at, events_processed);
                writer.finish().map(|_| ()).map_err(trace_err)
            }
            Some(Tracer::Verify(Verifier {
                mut reader,
                divergence,
                error,
                ..
            })) => {
                if let Some(e) = error {
                    return Err(trace_err(e));
                }
                if let Some(d) = divergence {
                    return Err(CoreError::Trace(d.to_string()));
                }
                // Anything left must be boundary digests from stops
                // this session did not share; leftover event frames
                // mean the recorded run kept going past this one.
                while let Some(frame) = reader.next_frame().map_err(trace_err)? {
                    if let TraceFrame::Event { time, seq, payload } = frame {
                        return Err(CoreError::Trace(format!(
                            "recorded run continued past this one: next recorded event {} at \
                             (t={}µs, seq={seq})",
                            describe_payload(&payload),
                            time.as_micros()
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Serializes the complete session state — RNG streams, market
    /// (overlay, ledger, escrow, pricing, fault plan, and at chunk level
    /// every peer's buffer map, playback position and pending chunks),
    /// every pending event with its `(time, seq)` identity, the
    /// sampling schedule, and each probe's accumulated state — into one
    /// binary snapshot. Resuming it with [`Session::resume`] and running
    /// to the horizon produces output byte-identical to never having
    /// stopped.
    ///
    /// The snapshot is a `SCRIPTRC` log ([`scrip_des::trace`]): the
    /// header (configuration fingerprint and seed), one state frame
    /// holding the rest, and an end frame at the same instant and event
    /// count, so the frame checksum covers every state byte.
    ///
    /// Checkpoint at a quiescent instant: after a [`Session::run_until`]
    /// call, so no event at or before the clock is still pending.
    ///
    /// # Errors
    /// None at present: every session checkpoints. The signature stays
    /// a `Result` because `perfbench`, whose source is held fixed so
    /// that runs of two versions compare, unwraps one.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CoreError> {
        let (now, events_processed) = (self.now(), self.stats().events_processed);
        let mut log = TraceWriter::new(
            Vec::new(),
            TraceHeader {
                fingerprint: self.fingerprint,
                seed: self.seed,
            },
        );
        log.state_with(now, events_processed, |w| {
            self.sim.write_state(w);
            w.put_u64(self.interval.as_micros());
            w.put_u64(self.next_tick.as_micros());
            w.put_u64(self.stops.len() as u64);
            for stop in &self.stops {
                w.put_u64(stop.as_micros());
            }
            w.put_u64(self.last_purchases);
            w.put_u64(self.last_denied);
            w.put_bool(self.started);
            w.put_u64(self.probes.len() as u64);
            for probe in &self.probes {
                w.put_bytes(&probe.snapshot_state());
            }
        });
        log.end(now, events_processed);
        Ok(log.into_bytes())
    }

    /// Rebuilds a session from a [`Session::checkpoint`] snapshot.
    ///
    /// `config` must be the configuration the checkpointed session was
    /// built from (checked against a fingerprint in the snapshot), and
    /// `probes` must be the same probes in the same order — their
    /// accumulated state is restored from the snapshot, so pass freshly
    /// constructed instances. Running the resumed session to the horizon
    /// and finishing it reproduces the uninterrupted run byte for byte.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for corrupt or truncated
    /// snapshots, a configuration or probe-count mismatch, or a file in
    /// another format, the retired pre-container one included.
    pub fn resume(
        config: &MarketConfig,
        mut probes: Vec<Box<dyn Probe>>,
        bytes: &[u8],
    ) -> Result<Session, CoreError> {
        if bytes.starts_with(b"SCRIPCKP") {
            return Err(CoreError::Checkpoint(
                "SCRIPCKP is a retired checkpoint format; rerun from the scenario".into(),
            ));
        }
        let framing = |e: TraceError| CoreError::Checkpoint(e.to_string());
        let mut log = TraceReader::from_bytes(bytes).map_err(framing)?;
        let fingerprint = config_fingerprint(config);
        check_fingerprint(log.header(), fingerprint).map_err(CoreError::Checkpoint)?;
        let seed = log.header().seed;
        let shape = || {
            CoreError::Checkpoint(
                "a checkpoint is one state frame and an end frame at its instant and event count"
                    .into(),
            )
        };
        let mut frame = || log.next_frame_borrowed().map_err(framing);
        let Some(TraceFrame::State {
            time: clock,
            events_processed,
            payload,
        }) = frame()?
        else {
            return Err(shape());
        };
        let end = TraceFrame::End {
            time: clock,
            events_processed,
        };
        if frame()? != Some(end) || frame()?.is_some() {
            return Err(shape());
        }
        let mut r = Reader::new(payload);
        let at = (clock, events_processed);
        let sim = if config.streaming.is_some() {
            resume_sim::<StreamingSystem<CreditTradePolicy>>(config, seed, &mut r, at)?
        } else {
            resume_sim::<CreditMarket>(config, seed, &mut r, at)?
        };
        let interval = SimDuration::from_micros(r.take_u64()?);
        let next_tick = SimTime::from_micros(r.take_u64()?);
        let stops_len = r.take_count(8)?;
        let mut stops = Vec::with_capacity(stops_len);
        for _ in 0..stops_len {
            stops.push(SimTime::from_micros(r.take_u64()?));
        }
        let last_purchases = r.take_u64()?;
        let last_denied = r.take_u64()?;
        let started = r.take_bool()?;
        let probe_count = r.take_u64()?;
        if probe_count != probes.len() as u64 {
            return Err(CoreError::Checkpoint(format!(
                "snapshot has {probe_count} probes, resume was given {}",
                probes.len()
            )));
        }
        for probe in &mut probes {
            let state = r.take_bytes()?;
            probe.restore_state(state)?;
        }
        r.finish()?;
        Ok(Session {
            sim,
            probes,
            seed,
            fingerprint,
            interval,
            next_tick,
            stops,
            last_purchases,
            last_denied,
            started,
            tracer: None,
        })
    }

    /// Finishes the run: the session fills the record's counters
    /// (purchases, denials, total spend, live peers, wealth Gini —
    /// [`None`] when no peers remain — and tax collected), every probe's
    /// [`Probe::at_horizon`] fills its own fields, and the finished
    /// model is handed back alongside.
    pub fn finish(mut self) -> (RunRecord, SessionModel) {
        let now = self.now();
        let view = self.sim.view();
        let ledger = view.ledger();
        let mut record = RunRecord {
            purchases: view.purchases(),
            denied: view.denied(),
            total_spent: ledger.total_spent(),
            peer_count: view.peer_count(),
            wealth_gini: ledger.wealth_gini().ok(),
            tax_collected: view.taxation().map_or(0, |t| t.collected),
            ..RunRecord::default()
        };
        for probe in &mut self.probes {
            probe.at_horizon(now, view, &mut record);
        }
        (record, self.sim.into_model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::run_market;
    use scrip_streaming::StreamingConfig;
    use std::sync::{Arc, Mutex};

    /// What [`CountingProbe`] saw, shared with the test that attached
    /// it: a record has no field for test-only measurements.
    #[derive(Default)]
    struct Counts {
        bootstraps: u32,
        samples: Vec<SimTime>,
        settled: u64,
    }

    /// A probe exercising every hook: counts dispatches and checks the
    /// view is usable from each.
    #[derive(Default)]
    struct CountingProbe(Arc<Mutex<Counts>>);

    impl CountingProbe {
        /// The probe plus a handle on its counts.
        fn new() -> (Self, Arc<Mutex<Counts>>) {
            let probe = CountingProbe::default();
            let counts = Arc::clone(&probe.0);
            (probe, counts)
        }
    }

    impl Probe for CountingProbe {
        fn extra_stops(&self) -> Vec<SimTime> {
            vec![SimTime::from_secs(42)]
        }
        fn on_bootstrap(&mut self, view: &dyn MarketView) {
            self.0.lock().expect("counts").bootstraps += 1;
            assert!(view.peer_count() > 0);
        }
        fn on_settle(&mut self, _now: SimTime, settled: u64, _denied: u64) {
            self.0.lock().expect("counts").settled += settled;
        }
        fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
            assert!(view.ledger().conserved());
            self.0.lock().expect("counts").samples.push(now);
        }
        fn at_horizon(&mut self, now: SimTime, _view: &dyn MarketView, _record: &mut RunRecord) {
            let counts = self.0.lock().expect("counts");
            assert_eq!(now, *counts.samples.last().expect("sampled"));
        }
    }

    #[test]
    fn session_dispatches_hooks_at_boundaries_only() {
        let config = MarketConfig::new(30, 20);
        let mut session = Session::from_config(&config, 5).expect("builds");
        let (probe, counts) = CountingProbe::new();
        session.attach(Box::new(probe));
        session.run_until(SimTime::from_secs(500));
        let (record, model) = session.finish();
        let counts = counts.lock().expect("counts");
        assert_eq!(counts.bootstraps, 1);
        // 5 regular ticks (100..=500) + the extra stop at 42.
        assert_eq!(counts.samples.len(), 6);
        // The settle deltas sum to the final purchase counter.
        assert_eq!(counts.settled, record.purchases);
        assert!(record.purchases > 0);
        assert!(model.queue().is_some());
    }

    #[test]
    fn session_reproduces_run_market_exactly() {
        let config = MarketConfig::new(40, 20);
        let horizon = SimTime::from_secs(1_000);
        let direct = run_market(config.clone(), 9, horizon).expect("runs");

        // Detached session.
        let mut session = Session::from_config(&config, 9).expect("builds");
        session.run_until(horizon);
        let (record, model) = session.finish();
        let market = model.queue().expect("queue config");
        assert_eq!(
            market.ledger().balances_sorted(),
            direct.ledger().balances_sorted()
        );
        assert_eq!(record.purchases, direct.purchases());

        // Attached session: probes observe, results stay bit-identical.
        let mut observed = Session::from_config(&config, 9).expect("builds");
        observed.attach(Box::new(CountingProbe::default()));
        observed.run_until(horizon);
        let (orec, omodel) = observed.finish();
        let omarket = omodel.queue().expect("queue config");
        assert_eq!(
            omarket.ledger().balances_sorted(),
            direct.ledger().balances_sorted()
        );
        assert_eq!(omarket.gini_series(), direct.gini_series());
        assert_eq!(orec.purchases, direct.purchases());
    }

    #[test]
    fn session_runs_chunk_level_configs() {
        let config = MarketConfig::new(30, 40)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .sample_interval(SimDuration::from_secs(25));
        let mut session = Session::from_config(&config, 21).expect("builds");
        let (probe, counts) = CountingProbe::new();
        session.attach(Box::new(probe));
        session.run_until(SimTime::from_secs(150));
        let (record, model) = session.finish();
        let system = model.chunk().expect("chunk config");
        assert!(record.purchases > 100, "settlements recorded");
        assert_eq!(
            record.purchases,
            system.policy().settlements,
            "view and model agree"
        );
        assert!(system.stall_series().len() >= 6);
        // 150 / 25 = 6 regular ticks + extra stop at 42.
        assert_eq!(counts.lock().expect("counts").samples.len(), 7);
    }

    #[test]
    fn finish_skips_wealth_gini_for_empty_markets() {
        // A market whose every peer departs before the horizon.
        use crate::market::{ChurnConfig, TopologyKind};
        let config = MarketConfig::new(4, 5)
            .topology(TopologyKind::Complete)
            .churn(ChurnConfig::new(1e-9, 0.5, 1).expect("valid"))
            .sample_interval(SimDuration::from_secs(10));
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(5_000));
        let (record, _) = session.finish();
        if record.peer_count == 0 {
            assert!(record.wealth_gini.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "attach probes before")]
    fn attach_after_start_panics() {
        let config = MarketConfig::new(10, 5);
        let mut session = Session::from_config(&config, 1).expect("builds");
        session.run_until(SimTime::from_secs(10));
        session.attach(Box::new(CountingProbe::default()));
    }

    /// The standard probe set for checkpoint tests — every stateful
    /// built-in probe, so resume must reproduce all their state.
    fn checkpoint_probes() -> Vec<Box<dyn Probe>> {
        vec![
            Box::new(probes::GiniSeriesProbe),
            Box::new(probes::SnapshotsProbe::new(vec![150, 700])),
            Box::new(probes::ThroughputSeriesProbe::new()),
            Box::new(probes::PopulationSeriesProbe::new()),
            Box::new(probes::FaultSeriesProbe::new()),
        ]
    }

    /// A checkpoint opened for corruption tests: its framing and the
    /// state payload they mutate.
    struct OpenCheckpoint {
        header: TraceHeader,
        time: SimTime,
        events_processed: u64,
        payload: Vec<u8>,
    }

    impl OpenCheckpoint {
        fn new(bytes: &[u8]) -> Self {
            let mut log = TraceReader::from_bytes(bytes).expect("checkpoint framing");
            let header = *log.header();
            match log.next_frame().expect("state frame") {
                Some(TraceFrame::State {
                    time,
                    events_processed,
                    payload,
                }) => OpenCheckpoint {
                    header,
                    time,
                    events_processed,
                    payload,
                },
                other => panic!("expected a state frame, got {other:?}"),
            }
        }

        /// Frames `payload` like this checkpoint, so that a resume gets
        /// past the checksum to the payload's own checks.
        fn seal(&self, payload: &[u8]) -> Vec<u8> {
            let mut log = TraceWriter::new(Vec::new(), self.header);
            log.state_with(self.time, self.events_processed, |buf| {
                buf.extend_from_slice(payload)
            });
            log.end(self.time, self.events_processed);
            log.into_bytes()
        }

        /// The payload word at `at`.
        fn word(&self, at: usize) -> u64 {
            u64::from_le_bytes(self.payload[at..at + 8].try_into().expect("8 bytes"))
        }

        /// The checkpoint with payload word `at` set to `value`.
        fn with_word(&self, at: usize, value: u64) -> Vec<u8> {
            let mut payload = self.payload.clone();
            payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
            self.seal(&payload)
        }
    }

    fn straight_run(config: &MarketConfig, seed: u64, horizon: SimTime) -> (RunRecord, Vec<u64>) {
        let mut session = Session::from_config(config, seed).expect("builds");
        for probe in checkpoint_probes() {
            session.attach(probe);
        }
        session.run_until(horizon);
        let balances = session.view().ledger().balances_sorted();
        (session.finish().0, balances)
    }

    fn resumed_run(
        config: &MarketConfig,
        seed: u64,
        stop: SimTime,
        horizon: SimTime,
    ) -> (RunRecord, Vec<u64>) {
        let mut session = Session::from_config(config, seed).expect("builds");
        for probe in checkpoint_probes() {
            session.attach(probe);
        }
        session.run_until(stop);
        let bytes = session.checkpoint().expect("checkpoints");
        drop(session);
        let mut resumed = Session::resume(config, checkpoint_probes(), &bytes).expect("resumes");
        // A checkpoint of the freshly resumed session reproduces the
        // original snapshot bit for bit.
        assert_eq!(resumed.checkpoint().expect("re-checkpoints"), bytes);
        resumed.run_until(horizon);
        let balances = resumed.view().ledger().balances_sorted();
        (resumed.finish().0, balances)
    }

    #[test]
    fn resume_is_byte_identical_to_uninterrupted_run() {
        let config = MarketConfig::new(40, 20)
            .churn(crate::market::ChurnConfig::new(0.4, 300.0, 10).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(1_000);
        let (direct, balances) = straight_run(&config, 23, horizon);
        for stop_secs in [100, 450, 1_000] {
            let (resumed, rbalances) =
                resumed_run(&config, 23, SimTime::from_secs(stop_secs), horizon);
            assert_eq!(resumed, direct, "diverged after resume at {stop_secs}s");
            assert_eq!(rbalances, balances);
        }
    }

    /// The graph's join index is derived state: a checkpoint does not
    /// carry it, the resumed overlay is rebuilt without it, and the
    /// first join after the resume rebuilds it from the overlay. The
    /// joins after that must match the straight run's, peer for peer.
    #[test]
    fn resumed_market_joins_like_the_straight_run() {
        let config = MarketConfig::new(200, 20)
            .churn(crate::market::ChurnConfig::new(2.0, 100.0, 8).expect("valid"))
            .sample_interval(SimDuration::from_secs(50));
        let (stop, horizon) = (SimTime::from_secs(150), SimTime::from_secs(400));
        let market = |session: Session| session.finish().1.queue().expect("queue config");

        let mut straight = Session::from_config(&config, 5).expect("builds");
        straight.run_until(horizon);
        let expected = market(straight);
        let mut first = Session::from_config(&config, 5).expect("builds");
        first.run_until(stop);
        let bytes = first.checkpoint().expect("checkpoints");
        let at_stop = market(first);
        assert!(
            expected.graph().next_raw_id() > at_stop.graph().next_raw_id() + 100,
            "peers joined after the stop"
        );

        let mut resumed = Session::resume(&config, Vec::new(), &bytes).expect("resumes");
        resumed.run_until(horizon);
        let got = market(resumed);
        assert_eq!(got.graph(), expected.graph());
        for id in expected.graph().node_ids() {
            assert_eq!(
                got.graph().neighbor_slice(id),
                expected.graph().neighbor_slice(id)
            );
        }
        assert_eq!(got.state_digest(), expected.state_digest());
    }

    #[test]
    fn resume_is_byte_identical_under_an_active_fault_plan() {
        let spec = scrip_des::FaultSpec {
            drop_rate: 0.10,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.10,
            onset: SimTime::from_secs(50),
            ..scrip_des::FaultSpec::default()
        };
        let config = MarketConfig::new(50, 30)
            .topology(crate::market::TopologyKind::Complete)
            .faults(spec)
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(1_000);
        let (direct, balances) = straight_run(&config, 77, horizon);
        assert!(direct.faults.dropped > 0, "fault plan was active");
        for stop_secs in [60, 500] {
            let (resumed, rbalances) =
                resumed_run(&config, 77, SimTime::from_secs(stop_secs), horizon);
            assert_eq!(resumed, direct, "diverged after resume at {stop_secs}s");
            assert_eq!(rbalances, balances);
        }
    }

    #[test]
    fn checkpoint_rejects_unsupported_sessions_and_bad_snapshots() {
        // A valid snapshot fails against a different configuration...
        let config = MarketConfig::new(20, 10);
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(100));
        let bytes = session.checkpoint().expect("checkpoints");
        let other = MarketConfig::new(21, 10);
        assert!(matches!(
            Session::resume(&other, Vec::new(), &bytes),
            Err(CoreError::Checkpoint(_))
        ));
        // ...a probe-count mismatch...
        assert!(matches!(
            Session::resume(
                &config,
                vec![Box::new(probes::GiniSeriesProbe) as _],
                &bytes
            ),
            Err(CoreError::Checkpoint(_))
        ));
        // ...and corrupt bytes fail closed: a torn end frame, a bad
        // magic...
        let resume = |bytes: &[u8]| match Session::resume(&config, Vec::new(), bytes) {
            Err(CoreError::Checkpoint(msg)) => msg,
            other => panic!("corrupt checkpoint resumed: {:?}", other.err()),
        };
        assert!(resume(&bytes[..bytes.len() - 3]).contains("truncated"));
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF;
        assert!(resume(&garbled).contains("bad magic"));
        // ...a state frame without its end frame, or closed at another
        // instant...
        let ckpt = OpenCheckpoint::new(&bytes);
        let end_len = 25;
        let msg = resume(&bytes[..bytes.len() - end_len]);
        assert!(msg.contains("one state frame and an end frame"), "{msg}");
        let mut log = TraceWriter::new(Vec::new(), ckpt.header);
        log.state_with(ckpt.time, ckpt.events_processed, |buf| {
            buf.extend_from_slice(&ckpt.payload)
        });
        log.end(SimTime::from_secs(101), ckpt.events_processed);
        let msg = resume(&log.into_bytes());
        assert!(msg.contains("at its instant and event count"), "{msg}");
        // ...and a well-framed payload that is short or has bytes over.
        let payload = &ckpt.payload;
        let msg = resume(&ckpt.seal(&payload[..payload.len() - 3]));
        assert!(msg.contains("truncated snapshot"), "{msg}");
        let mut longer = payload.clone();
        longer.push(0);
        assert!(resume(&ckpt.seal(&longer)).contains("trailing bytes"));
        // The pristine snapshot still resumes.
        let resumed = Session::resume(&config, Vec::new(), &bytes).expect("resumes");
        assert_eq!(resumed.now(), SimTime::from_secs(100));
    }

    #[test]
    fn corrupt_overlay_counts_and_dead_edge_ids_fail_closed() {
        let config = MarketConfig::new(60, 10)
            .churn(crate::market::ChurnConfig::new(0.5, 200.0, 8).expect("valid"));
        let mut session = Session::from_config(&config, 9).expect("builds");
        session.run_until(SimTime::from_secs(600));
        let bytes = session.checkpoint().expect("checkpoints");
        let ckpt = OpenCheckpoint::new(&bytes);
        let market = session.finish().1.queue().expect("queue config");
        let mut state = Vec::new();
        market.write_state(&mut state);
        let base = ckpt
            .payload
            .windows(state.len())
            .position(|w| w == state)
            .expect("the market state is embedded verbatim");
        // The overlay follows the four RNG words and the (false)
        // fault-plan flag: watermark, live count, live ids, edge count,
        // edges.
        let graph = market.graph();
        let live_count_at = base + 33 + 8;
        let edge_count_at = live_count_at + 8 + 8 * graph.node_count();
        assert_eq!(ckpt.word(live_count_at), graph.node_count() as u64);
        assert_eq!(ckpt.word(edge_count_at), graph.edge_count() as u64);
        let resume = |bytes: &[u8]| Session::resume(&config, Vec::new(), bytes);
        // A count of u64::MAX is refused before it sizes an allocation.
        for at in [live_count_at, edge_count_at] {
            let corrupt = ckpt.with_word(at, u64::MAX);
            let err = resume(&corrupt).err().expect("oversized count rejected");
            assert!(err.to_string().contains("overruns"), "{err}");
        }
        // An id watermark of 2^40 or u64::MAX is refused before it sizes
        // the overlay's per-id table, where 2^40 rows would abort the
        // process on allocation.
        for watermark in [1u64 << 40, u64::MAX] {
            match resume(&ckpt.with_word(base + 33, watermark)) {
                Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("watermark"), "{msg}"),
                other => panic!("watermark {watermark} not refused: {:?}", other.err()),
            }
        }
        // An edge naming a departed peer is refused by the graph build.
        let dead = (0..graph.next_raw_id())
            .map(scrip_topology::NodeId::from_raw)
            .find(|&id| !graph.has_node(id))
            .expect("churn left dead ids");
        let corrupt = ckpt.with_word(edge_count_at + 8, dead.raw());
        let err = resume(&corrupt).err().expect("dead edge endpoint rejected");
        assert!(err.to_string().contains("no such node"), "{err}");
        // The pristine snapshot still resumes.
        assert_eq!(
            resume(&bytes).expect("resumes").now(),
            SimTime::from_secs(600)
        );
    }

    /// A checkpoint re-sealed with 2^40 events processed admits an id
    /// watermark of 2^31, whose per-id tables (32 GiB of degrees alone)
    /// the decoder must reserve before filling: a refusal is a typed
    /// error naming the watermark, not an allocation abort.
    ///
    /// Ignored because whether the reservation is refused depends on
    /// the host: without a memory limit a large host grants it, and the
    /// test would then fill 32 GiB. CI runs it under `ulimit -v`.
    #[test]
    #[ignore = "allocates 32 GiB unless run under a memory limit such as `ulimit -v 2000000`"]
    fn unallocatable_watermark_fails_closed() {
        let config = MarketConfig::new(40, 10)
            .churn(crate::market::ChurnConfig::new(0.5, 200.0, 8).expect("valid"));
        let mut session = Session::from_config(&config, 9).expect("builds");
        session.run_until(SimTime::from_secs(300));
        let bytes = session.checkpoint().expect("checkpoints");
        let mut state = Vec::new();
        let market = session.finish().1.queue().expect("queue config");
        market.write_state(&mut state);
        let ckpt = OpenCheckpoint {
            events_processed: 1 << 40,
            ..OpenCheckpoint::new(&bytes)
        };
        let base = ckpt
            .payload
            .windows(state.len())
            .position(|w| w == state)
            .expect("the market state is embedded verbatim");
        // The watermark follows the four RNG words and the (false)
        // fault-plan flag.
        match Session::resume(&config, Vec::new(), &ckpt.with_word(base + 33, 1 << 31)) {
            Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("watermark"), "{msg}"),
            other => panic!("a 2^31 watermark was not refused: {:?}", other.err()),
        }
    }

    /// Every count in a probe's checkpoint block is checked against the
    /// block's unread bytes before it sizes a vector: a count of 2^40
    /// or `u64::MAX` in the throughput, fault or snapshot probe's state
    /// makes `Session::resume` return an error instead of aborting on
    /// the allocation.
    #[test]
    fn corrupt_probe_counts_fail_closed() {
        let config = MarketConfig::new(40, 10).faults(scrip_des::FaultSpec {
            drop_rate: 0.1,
            ..scrip_des::FaultSpec::default()
        });
        let probes = || -> Vec<Box<dyn Probe>> {
            vec![
                Box::new(probes::ThroughputSeriesProbe::new()),
                Box::new(probes::FaultSeriesProbe::new()),
                Box::new(probes::SnapshotsProbe::new(vec![100, 900])),
            ]
        };
        let mut session = Session::from_config(&config, 5).expect("builds");
        for probe in probes() {
            session.attach(probe);
        }
        session.run_until(SimTime::from_secs(600));
        let bytes = session.checkpoint().expect("checkpoints");
        let ckpt = OpenCheckpoint::new(&bytes);
        // The probe blocks close the state, each behind its length.
        let blocks: Vec<Vec<u8>> = session.probes.iter().map(|p| p.snapshot_state()).collect();
        let mut at = ckpt.payload.len() - blocks.iter().map(|b| 8 + b.len()).sum::<usize>();
        let mut starts = Vec::new();
        for block in &blocks {
            starts.push(at + 8);
            at += 8 + block.len();
        }
        let (throughput, fault, snapshots) = (starts[0], starts[1], starts[2]);
        let failures = ckpt.word(fault) as usize;
        assert!(
            failures > 0 && ckpt.word(throughput) > 0,
            "the probes recorded"
        );
        assert_eq!(ckpt.word(snapshots), 1, "one snapshot taken at 100 s");
        let counts = [
            throughput,
            fault,
            fault + 8 + 16 * failures,
            snapshots,
            snapshots + 16,
        ];
        for at in counts {
            for count in [1u64 << 40, u64::MAX] {
                match Session::resume(&config, probes(), &ckpt.with_word(at, count)) {
                    Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("overruns"), "{msg}"),
                    other => panic!("count {count} at {at} not refused: {:?}", other.err()),
                }
            }
        }
        assert!(Session::resume(&config, probes(), &bytes).is_ok());
    }

    /// Pending events are refused, in debug and release alike, when one
    /// precedes the clock, when they leave strictly ascending
    /// `(time, seq)` order, when a seq is not below events processed
    /// plus pending (every seq comes from one push), or when a peer id
    /// is past the 32-bit id space. Unchecked, the first resumed with a
    /// wrong CSV in release and tripped the kernel's "went backwards"
    /// assertion in debug; the third overflowed the queue's sequence
    /// counter.
    #[test]
    fn corrupt_pending_events_fail_closed() {
        let config = MarketConfig::new(60, 10)
            .churn(crate::market::ChurnConfig::new(0.5, 200.0, 8).expect("valid"));
        let mut session = Session::from_config(&config, 9).expect("builds");
        session.run_until(SimTime::from_secs(600));
        let bytes = session.checkpoint().expect("checkpoints");
        let ckpt = OpenCheckpoint::new(&bytes);
        let stats = session.stats();
        // The state frame carries the clock and events processed; its
        // payload opens with the pending count, then the first event's
        // time and seq.
        assert_eq!(ckpt.time, SimTime::from_secs(600));
        assert_eq!(ckpt.events_processed, stats.events_processed);
        assert_eq!(ckpt.word(0), stats.events_pending as u64);
        assert!(stats.events_pending >= 2);
        let (time_at, seq_at) = (8, 16);
        let resume = |at: usize, value: u64| match Session::resume(
            &config,
            Vec::new(),
            &ckpt.with_word(at, value),
        ) {
            Err(CoreError::Checkpoint(msg)) => msg,
            other => panic!("word at {at} = {value} not refused: {:?}", other.err()),
        };
        let msg = resume(time_at, 0);
        assert!(msg.contains("precedes the clock"), "{msg}");
        // A first event later than every other puts the second out of
        // order.
        let msg = resume(time_at, u64::MAX);
        assert!(msg.contains("ascending"), "{msg}");
        let bound = stats.events_processed + stats.events_pending as u64;
        for seq in [bound, u64::MAX] {
            let msg = resume(seq_at, seq);
            assert!(msg.contains("not below"), "{msg}");
        }
        // Each event is its time, seq, tag and payload; a `Spend`'s
        // buyer follows its tag.
        let mut r = Reader::new(&ckpt.payload);
        let mut buyer_at = None;
        for _ in 0..r.take_u64().expect("pending count") {
            let at = ckpt.payload.len() - r.remaining();
            r.take_u64().expect("time");
            r.take_u64().expect("seq");
            if matches!(MarketEvent::decode(&mut r), Ok(MarketEvent::Spend(_))) {
                buyer_at.get_or_insert(at + 17);
            }
        }
        let msg = resume(buyer_at.expect("a spend is pending"), 1 << 32);
        assert!(msg.contains("32-bit"), "{msg}");
        // The pristine snapshot still resumes.
        assert!(Session::resume(&config, Vec::new(), &bytes).is_ok());
    }

    /// A `SCRIPCKP` v2 file (magic, version, fingerprint, seed, clock,
    /// events processed, then today's state payload) is refused by the
    /// name of its retired format.
    #[test]
    fn checkpoints_from_the_previous_format_version_are_refused() {
        let config = MarketConfig::new(20, 10);
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(100));
        let ckpt = OpenCheckpoint::new(&session.checkpoint().expect("checkpoints"));
        let mut old = b"SCRIPCKP".to_vec();
        old.put_u32(2);
        old.put_u64(ckpt.header.fingerprint);
        old.put_u64(ckpt.header.seed);
        old.put_u64(ckpt.time.as_micros());
        old.put_u64(ckpt.events_processed);
        old.put_raw(&ckpt.payload);
        match Session::resume(&config, Vec::new(), &old) {
            Err(CoreError::Checkpoint(msg)) => {
                assert!(
                    msg.contains("SCRIPCKP is a retired checkpoint format"),
                    "{msg}"
                )
            }
            other => panic!("old format not refused: {:?}", other.err()),
        }
    }

    /// The frame checksum covers every byte after the header: one
    /// flipped bit anywhere in the state or end frame fails the resume,
    /// whichever check catches it.
    #[test]
    fn every_single_bit_flip_after_the_header_fails_closed() {
        let config = MarketConfig::new(12, 10)
            .churn(crate::market::ChurnConfig::new(0.2, 100.0, 4).expect("valid"))
            .sample_interval(SimDuration::from_secs(20));
        let mut session = Session::from_config(&config, 4).expect("builds");
        session.attach(Box::new(probes::GiniSeriesProbe));
        session.run_until(SimTime::from_secs(40));
        let bytes = session.checkpoint().expect("checkpoints");
        let header_len = bytes.len() - OpenCheckpoint::new(&bytes).payload.len() - 33 - 25;
        assert_eq!(header_len, 28);
        for at in header_len..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            let probes = vec![Box::new(probes::GiniSeriesProbe) as Box<dyn Probe>];
            assert!(
                Session::resume(&config, probes, &flipped).is_err(),
                "a flipped bit at byte {at} of {} resumed",
                bytes.len()
            );
        }
        let probes = vec![Box::new(probes::GiniSeriesProbe) as Box<dyn Probe>];
        assert!(Session::resume(&config, probes, &bytes).is_ok());
    }

    /// A unique temp path for trace tests; removed by `TracePath::drop`.
    struct TracePath(std::path::PathBuf);

    impl TracePath {
        fn new(name: &str) -> Self {
            TracePath(
                std::env::temp_dir().join(format!("scrip_obs_{}_{name}.trc", std::process::id())),
            )
        }
    }

    impl Drop for TracePath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn record_run(config: &MarketConfig, seed: u64, horizon: SimTime, path: &Path) -> RunRecord {
        let mut session = Session::from_config(config, seed).expect("builds");
        session.record_to(path).expect("starts recording");
        session.run_until(horizon);
        session.finish_trace().expect("recording completes");
        session.finish().0
    }

    #[test]
    fn record_replay_round_trip_reproduces_the_run() {
        let config = MarketConfig::new(40, 20)
            .churn(crate::market::ChurnConfig::new(0.4, 300.0, 10).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(600);
        let first = TracePath::new("first");
        let direct = record_run(&config, 23, horizon, &first.0);

        // Recording the same scenario again produces the identical
        // trace file, byte for byte.
        let second = TracePath::new("second");
        assert_eq!(record_run(&config, 23, horizon, &second.0), direct);
        assert_eq!(
            std::fs::read(&first.0).expect("first trace"),
            std::fs::read(&second.0).expect("second trace"),
            "trace bytes differ between two recordings"
        );

        // The trace replays cleanly and reproduces the run.
        let mut session = Session::from_config(&config, 23).expect("builds");
        session.replay_from(&first.0).expect("attaches replay");
        session.run_until(horizon);
        assert!(session.trace_divergence().is_none());
        session.finish_trace().expect("verifies");
        assert_eq!(session.finish().0, direct);
    }

    #[test]
    fn traces_from_the_previous_format_version_are_refused() {
        let config = MarketConfig::new(20, 10).sample_interval(SimDuration::from_secs(100));
        let path = TracePath::new("old_version");
        record_run(&config, 5, SimTime::from_secs(200), &path.0);
        // The version word follows the 8-byte magic.
        let mut bytes = std::fs::read(&path.0).expect("trace bytes");
        bytes[8..12].copy_from_slice(&(scrip_des::trace::TRACE_VERSION - 1).to_le_bytes());
        std::fs::write(&path.0, &bytes).expect("rewrite");
        let mut session = Session::from_config(&config, 5).expect("builds");
        let err = session
            .replay_from(&path.0)
            .expect_err("old version refused");
        assert!(
            err.to_string().contains("unsupported trace version 2"),
            "{err}"
        );
    }

    #[test]
    fn replay_pinpoints_a_seeded_divergence() {
        let config = MarketConfig::new(30, 20).sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(400);
        let path = TracePath::new("divergent");
        record_run(&config, 9, horizon, &path.0);

        // Rewrite the recorded seed (header bytes 20..28) so a session
        // seeded differently accepts the trace, then diverges.
        let mut bytes = std::fs::read(&path.0).expect("trace bytes");
        bytes[20..28].copy_from_slice(&11u64.to_le_bytes());
        std::fs::write(&path.0, &bytes).expect("rewrite");

        let mut session = Session::from_config(&config, 11).expect("builds");
        session.replay_from(&path.0).expect("attaches replay");
        session.run_until(horizon);
        let divergence = session
            .trace_divergence()
            .expect("differing seeds must diverge")
            .clone();
        // The run froze at the divergent instant, not the horizon.
        assert!(session.now() <= divergence.time);
        assert!(divergence.time <= horizon);
        let err = session.finish_trace().expect_err("reports divergence");
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn trace_attachment_is_fail_closed() {
        let path = TracePath::new("reject");
        // Recording must start before the run does.
        let config = MarketConfig::new(20, 10);
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(100));
        assert!(matches!(
            session.record_to(&path.0),
            Err(CoreError::Trace(_))
        ));

        // A recorded trace refuses to verify a different scenario or
        // seed (fail-closed header checks).
        record_run(&config, 3, SimTime::from_secs(200), &path.0);
        let other = MarketConfig::new(21, 10);
        let mut session = Session::from_config(&other, 3).expect("builds");
        assert!(matches!(
            session.replay_from(&path.0),
            Err(CoreError::Trace(_))
        ));
        let mut session = Session::from_config(&config, 4).expect("builds");
        assert!(matches!(
            session.replay_from(&path.0),
            Err(CoreError::Trace(_))
        ));
        // A second tracer cannot stack on the first.
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.replay_from(&path.0).expect("attaches");
        assert!(matches!(
            session.replay_from(&path.0),
            Err(CoreError::Trace(_))
        ));
    }

    /// A chunk-level session under churn and faults checkpoints and
    /// resumes to the straight run's record, re-checkpoints to the same
    /// bytes, records and replays to the same record, and fails closed
    /// on every truncation of its checkpoint.
    #[test]
    fn chunk_level_sessions_checkpoint_record_and_replay() {
        let config = MarketConfig::new(24, 30)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .churn(crate::market::ChurnConfig::new(0.2, 100.0, 6).expect("valid"))
            .faults(scrip_des::FaultSpec {
                drop_rate: 0.1,
                defect_rate: 0.05,
                delay_rate: 0.05,
                crash_fraction: 0.1,
                onset: SimTime::from_secs(20),
                ..scrip_des::FaultSpec::default()
            })
            .sample_interval(SimDuration::from_secs(25));
        let horizon = SimTime::from_secs(150);
        let (direct, balances) = straight_run(&config, 13, horizon);
        assert!(direct.purchases > 0 && direct.faults.dropped > 0);
        for stop_secs in [25, 80] {
            let (resumed, rbalances) =
                resumed_run(&config, 13, SimTime::from_secs(stop_secs), horizon);
            assert_eq!(resumed, direct, "diverged after resume at {stop_secs}s");
            assert_eq!(rbalances, balances);
        }
        let path = TracePath::new("chunk");
        let recorded = record_run(&config, 13, horizon, &path.0);
        let mut session = Session::from_config(&config, 13).expect("builds");
        session.replay_from(&path.0).expect("attaches replay");
        session.run_until(horizon);
        session.finish_trace().expect("verifies");
        assert_eq!(session.finish().0, recorded);
        // Every truncation of a small checkpoint is a typed error.
        let mut session = Session::from_config(&config, 13).expect("builds");
        session.run_until(SimTime::from_secs(40));
        let bytes = session.checkpoint().expect("checkpoints");
        let ckpt = OpenCheckpoint::new(&bytes);
        for len in 0..ckpt.payload.len() {
            assert!(matches!(
                Session::resume(&config, Vec::new(), &ckpt.seal(&ckpt.payload[..len])),
                Err(CoreError::Checkpoint(_))
            ));
        }
        assert!(Session::resume(&config, Vec::new(), &bytes).is_ok());
    }

    /// Single-byte flips of a small chunk-level checkpoint, re-sealed so
    /// they pass the frame checksum, never panic the decoder or the
    /// resumed run: each resume is a typed checkpoint error or a
    /// session that runs on. (A flip of a pure counter, a Gini sample
    /// or an RNG word has no redundancy to catch it once re-sealed.)
    #[test]
    fn resealed_byte_flips_of_a_chunk_level_checkpoint_fail_closed() {
        let config = MarketConfig::new(10, 20)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .churn(crate::market::ChurnConfig::new(0.1, 100.0, 4).expect("valid"))
            .sample_interval(SimDuration::from_secs(10));
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(20));
        let ckpt = OpenCheckpoint::new(&session.checkpoint().expect("checkpoints"));
        let (mut refused, mut resumed) = (0, 0);
        for at in 0..ckpt.payload.len() {
            let mut payload = ckpt.payload.clone();
            payload[at] ^= 0xFF;
            match Session::resume(&config, Vec::new(), &ckpt.seal(&payload)) {
                Err(CoreError::Checkpoint(_)) => refused += 1,
                Err(other) => panic!("flip at {at}: untyped refusal {other}"),
                Ok(mut session) => {
                    session.run_until(SimTime::from_secs(21));
                    resumed += 1;
                }
            }
        }
        assert!(refused > resumed, "{refused} refused, {resumed} resumed");
    }

    #[test]
    fn probe_less_runs_keep_the_sampling_grid_aligned() {
        let config = MarketConfig::new(30, 20).sample_interval(SimDuration::from_secs(100));
        let mut s = Session::from_config(&config, 5).expect("builds");
        s.run_until(SimTime::from_secs(250));
        assert_eq!(s.next_tick, SimTime::from_secs(300));
        let ckpt = s.checkpoint().expect("checkpoints");
        let mut resumed = Session::resume(&config, Vec::new(), &ckpt).expect("resumes");
        resumed.run_until(SimTime::from_secs(420));
        assert_eq!(resumed.next_tick, SimTime::from_secs(500));
    }
}
