//! # scrip-des — deterministic discrete-event simulation kernel
//!
//! This crate is the simulation substrate for the `scrip` workspace, which
//! reproduces *"Exploring the Sustainability of Credit-incentivized
//! Peer-to-Peer Content Distribution"* (Qiu et al., ICDCSW 2012). The paper
//! validates its queueing-network theory with a discrete-event simulator of a
//! mesh P2P live-streaming system; this crate provides that simulator's
//! foundation:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time, so
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * [`Scheduler`] and [`Simulation`] — a classic event-list kernel with
//!   FIFO tie-breaking for simultaneous events.
//! * [`rng::SimRng`] — a seedable PRNG facade so every experiment is
//!   deterministic given its seed.
//! * [`dist`] — the random variates the paper needs (exponential service
//!   times, Poisson chunk prices, power-law degrees, …) implemented from
//!   scratch on top of [`rand::Rng`].
//! * [`stats`] — online statistics collectors (time series, time-weighted
//!   means, histograms) used to record Gini-over-time and rate measurements.
//! * [`fault`] — deterministic fault-injection plans ([`FaultPlan`]):
//!   seed-derived schedules of peer crashes, delivery drops/delays, and
//!   defections, drawn from a dedicated RNG stream so fault-free runs
//!   are byte-identical with the plan absent.
//! * [`sampler`] / [`wheel`] — the O(1)-amortized hot-path primitives for
//!   million-peer runs: a draw-compatible Fenwick weighted sampler
//!   ([`FenwickSampler`]) and a calendar-queue event store
//!   ([`TimingWheel`]) selectable per queue via [`QueueProfile`]. Both
//!   reproduce their O(deg)/O(log n) predecessors' outputs exactly.
//! * [`trace`] — versioned append-only event traces ([`TraceWriter`] /
//!   [`TraceReader`]): every applied event plus periodic state digests,
//!   the substrate for record, replay, diff, and divergence bisection.
//!
//! ## Example
//!
//! ```
//! use scrip_des::{Model, Scheduler, SimDuration, SimTime, Simulation};
//!
//! /// A counter that re-schedules itself every second, five times.
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Ticker {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _event: Ev, scheduler: &mut Scheduler<Ev>) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             scheduler.schedule_after(SimDuration::from_secs(1), Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ticker { ticks: 0 });
//! sim.schedule(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.model().ticks, 5);
//! assert_eq!(sim.now(), SimTime::from_secs(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod fault;
pub mod rng;
pub mod sampler;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

pub use event::{EventQueue, QueueProfile, Scheduled, Scheduler};
pub use fault::{DeliveryOutcome, FaultKind, FaultPlan, FaultSpec, FaultStats};
pub use rng::{SeedSequence, SimRng};
pub use sampler::FenwickSampler;
pub use sim::{Model, RunStats, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceError, TraceFrame, TraceHeader, TraceReader, TraceTailer, TraceWriter};
pub use wheel::TimingWheel;
