//! The simulation kernel: drives a [`Model`] by dispatching events in time
//! order.

use crate::event::{Scheduled, Scheduler};
use crate::time::SimTime;

/// A discrete-event model.
///
/// The kernel owns the event loop; the model owns all domain state. Each
/// event is delivered exactly once, in non-decreasing time order, with FIFO
/// tie-breaking for simultaneous events.
///
/// See the [crate-level example](crate) for a complete model.
pub trait Model {
    /// The event payload type dispatched to this model.
    type Event;

    /// Handles one event at simulated instant `now`.
    ///
    /// Follow-up events are planned through `scheduler`; scheduling in the
    /// past is clamped to `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, scheduler: &mut Scheduler<Self::Event>);

    /// A read-only look at an event that will run soon, so the model
    /// can start loading the state it will touch while the current
    /// event's handler runs.
    ///
    /// The kernel calls it after popping an event and before handing
    /// that event to [`Model::handle`]. It first shows the queue's
    /// earliest live event ([`Scheduler::peek_live`]: the earlier of
    /// the sorted run's last entry and the side heap's root), the next
    /// event to run unless the handler schedules an earlier one. At a
    /// rotation boundary (no live event) that call is skipped. Then, on
    /// the first dispatch after the floor of a queue sized for more
    /// than 2¹⁶ events advances, it shows every event listed in the
    /// bucket after the floor ([`crate::EventQueue::take_next_bucket`]):
    /// the events that run about one bucket later. The hook takes
    /// `&self` and sees no RNG or scheduler, so it cannot change a draw
    /// or the event order; the default does nothing, and a model that
    /// overrides it runs exactly as one that does not.
    fn prefetch(&self, _next: &Self::Event) {}
}

/// Counters describing a finished (or paused) simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total number of events dispatched so far.
    pub events_processed: u64,
    /// Events still pending in the queue.
    pub events_pending: usize,
    /// The clock at the end of the run.
    pub end_time: SimTime,
}

/// A discrete-event simulation: a [`Model`] plus a [`Scheduler`].
///
/// ```
/// use scrip_des::{Model, Scheduler, SimTime, Simulation};
///
/// struct Sink(Vec<u32>);
/// impl Model for Sink {
///     type Event = u32;
///     fn handle(&mut self, _t: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
///         self.0.push(ev);
///     }
/// }
///
/// let mut sim = Simulation::new(Sink(Vec::new()));
/// sim.schedule(SimTime::from_secs(2), 20);
/// sim.schedule(SimTime::from_secs(1), 10);
/// let stats = sim.run();
/// assert_eq!(stats.events_processed, 2);
/// assert_eq!(sim.model().0, vec![10, 20]);
/// ```
#[derive(Clone, Debug)]
pub struct Simulation<M: Model> {
    model: M,
    scheduler: Scheduler<M::Event>,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            scheduler: Scheduler::new(),
            events_processed: 0,
        }
    }

    /// As [`Simulation::new`], with the event queue sized for `profile`
    /// (see [`crate::QueueProfile`]): models that know their
    /// steady-state event population and typical lookahead pass them
    /// here, so scheduling stays O(1) amortized and the slab is
    /// reserved up front.
    pub fn with_profile(model: M, profile: crate::QueueProfile) -> Self {
        Simulation {
            model,
            scheduler: Scheduler::with_profile(profile),
            events_processed: 0,
        }
    }

    /// Reassembles a simulation from checkpointed parts: a model whose
    /// state was restored, a scheduler rebuilt via
    /// [`Scheduler::restore_clock`] and [`Scheduler::enqueue_scheduled`],
    /// and the dispatch counter captured at checkpoint time. When every
    /// part round-trips exactly, the continuation is byte-identical to
    /// the uninterrupted run.
    pub fn from_parts(model: M, scheduler: Scheduler<M::Event>, events_processed: u64) -> Self {
        Simulation {
            model,
            scheduler,
            events_processed,
        }
    }

    /// The current simulation clock.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Read access to the scheduler (clock, queue population, queue
    /// capacity — e.g. to check that a steady-state model stopped
    /// allocating).
    pub fn scheduler(&self) -> &Scheduler<M::Event> {
        &self.scheduler
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an initial event at absolute `time`.
    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        self.scheduler.schedule_at(time, event);
    }

    /// Dispatches a single event. Returns the instant it fired, or [`None`]
    /// if the queue was empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let scheduled = self.scheduler.advance(SimTime::MAX)?;
        Some(self.dispatch(scheduled))
    }

    /// Hands a popped event to the model, returning its instant. The
    /// model first sees the next live event and, after the floor has
    /// advanced, the next bucket's events ([`Model::prefetch`]).
    fn dispatch(&mut self, scheduled: Scheduled<M::Event>) -> SimTime {
        self.events_processed += 1;
        if let Some(next) = self.scheduler.peek_live() {
            self.model.prefetch(&next.event);
        }
        if self.scheduler.next_bucket_due() {
            self.prefetch_next_bucket();
        }
        self.model
            .handle(scheduled.time, scheduled.event, &mut self.scheduler);
        scheduled.time
    }

    /// Shows the model every event listed in the bucket after the
    /// floor. It runs once per floor advance, so it stays out of the
    /// dispatch loop: inlined, the walk slowed in-cache models that
    /// never take it by ~1%.
    #[cold]
    #[inline(never)]
    fn prefetch_next_bucket(&mut self) {
        for upcoming in self.scheduler.take_next_bucket() {
            self.model.prefetch(&upcoming.event);
        }
    }

    /// Runs until the event queue drains.
    ///
    /// Self-perpetuating models (that always schedule follow-ups) never
    /// drain; use [`Simulation::run_until`] or
    /// [`Simulation::run_for_events`] for those.
    pub fn run(&mut self) -> RunStats {
        while self.step().is_some() {}
        self.stats()
    }

    /// Runs until the clock would pass `horizon` (inclusive) or the queue
    /// drains. Events scheduled exactly at `horizon` are dispatched; the
    /// clock is then advanced to `horizon` even if no event fired there.
    pub fn run_until(&mut self, horizon: SimTime) -> RunStats {
        while let Some(scheduled) = self.scheduler.advance(horizon) {
            self.dispatch(scheduled);
        }
        self.scheduler.restore_clock(horizon);
        self.stats()
    }

    /// As [`Simulation::run_until`], offering every event to `tap`
    /// *before* it is applied — the record/replay hook. `tap` sees the
    /// event's `(time, seq)` identity and payload; returning `false`
    /// vetoes the dispatch: the event is pushed back unapplied (same
    /// identity) and the run halts at the pre-event state. The second
    /// return value reports whether the run was halted by a veto.
    ///
    /// Recording taps always return `true`; replay-verification taps
    /// return `false` on the first divergent event, which freezes the
    /// simulation exactly at the divergence for inspection. The loop is
    /// compiled per tap type, so a closure tap is inlined into it (a
    /// `&mut dyn FnMut` tap costs an indirect call per event), and it
    /// stays a function of its own so callers' inlining cannot reshape
    /// it.
    #[inline(never)]
    pub fn run_until_traced<F>(&mut self, horizon: SimTime, tap: &mut F) -> (RunStats, bool)
    where
        F: FnMut(SimTime, u64, &M::Event) -> bool + ?Sized,
    {
        while let Some(scheduled) = self.scheduler.advance(horizon) {
            if !tap(scheduled.time, scheduled.seq, &scheduled.event) {
                self.scheduler.enqueue_scheduled(scheduled);
                return (self.stats(), true);
            }
            self.dispatch(scheduled);
        }
        self.scheduler.restore_clock(horizon);
        (self.stats(), false)
    }

    /// Dispatches at most `max_events` events (a safety valve for possibly
    /// non-terminating models).
    pub fn run_for_events(&mut self, max_events: u64) -> RunStats {
        for _ in 0..max_events {
            if self.step().is_none() {
                break;
            }
        }
        self.stats()
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> RunStats {
        RunStats {
            events_processed: self.events_processed,
            events_pending: self.scheduler.pending(),
            end_time: self.scheduler.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Scheduled;
    use crate::time::SimDuration;

    /// M/M/1-ish self-scheduling model used to exercise the kernel.
    struct SelfScheduler {
        fired: Vec<(SimTime, u8)>,
        chain_remaining: u32,
    }

    #[derive(Clone, Debug)]
    enum Ev {
        Chain,
        Mark(u8),
    }

    impl Model for SelfScheduler {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, scheduler: &mut Scheduler<Ev>) {
            match event {
                Ev::Chain => {
                    self.fired.push((now, 0));
                    if self.chain_remaining > 0 {
                        self.chain_remaining -= 1;
                        scheduler.schedule_after(SimDuration::from_secs(1), Ev::Chain);
                    }
                }
                Ev::Mark(m) => self.fired.push((now, m)),
            }
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(SelfScheduler {
            fired: Vec::new(),
            chain_remaining: 1_000,
        });
        sim.schedule(SimTime::ZERO, Ev::Chain);
        let stats = sim.run_until(SimTime::from_secs(10));
        // Events at t = 0..=10 inclusive.
        assert_eq!(stats.events_processed, 11);
        assert_eq!(stats.end_time, SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
        // Chain continues afterwards.
        let stats = sim.run_until(SimTime::from_secs(12));
        assert_eq!(stats.events_processed, 13);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulation::new(SelfScheduler {
            fired: Vec::new(),
            chain_remaining: 0,
        });
        let stats = sim.run_until(SimTime::from_secs(99));
        assert_eq!(stats.events_processed, 0);
        assert_eq!(sim.now(), SimTime::from_secs(99));
    }

    #[test]
    fn run_for_events_caps_dispatch_count() {
        let mut sim = Simulation::new(SelfScheduler {
            fired: Vec::new(),
            chain_remaining: u32::MAX,
        });
        sim.schedule(SimTime::ZERO, Ev::Chain);
        let stats = sim.run_for_events(37);
        assert_eq!(stats.events_processed, 37);
        assert_eq!(stats.events_pending, 1);
    }

    #[test]
    fn simultaneous_events_dispatch_in_scheduling_order() {
        let mut sim = Simulation::new(SelfScheduler {
            fired: Vec::new(),
            chain_remaining: 0,
        });
        let t = SimTime::from_secs(5);
        for m in 1..=5u8 {
            sim.schedule(t, Ev::Mark(m));
        }
        sim.run();
        let marks: Vec<u8> = sim.model().fired.iter().map(|&(_, m)| m).collect();
        assert_eq!(marks, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn from_parts_resumes_identically() {
        let make = || {
            let mut sim = Simulation::new(SelfScheduler {
                fired: Vec::new(),
                chain_remaining: 50,
            });
            sim.schedule(SimTime::ZERO, Ev::Chain);
            sim
        };
        // Straight run to t=20.
        let mut straight = make();
        straight.run_until(SimTime::from_secs(20));

        // Interrupted run: pause at t=7, snapshot, rebuild, continue.
        let mut first = make();
        first.run_until(SimTime::from_secs(7));
        let events = first.scheduler().snapshot_events();
        let clock = first.now();
        let processed = first.stats().events_processed;
        let fired = first.model().fired.clone();
        let chain_remaining = first.model().chain_remaining;
        drop(first);

        let mut scheduler = Scheduler::new();
        scheduler.restore_clock(clock);
        for ev in events {
            scheduler.enqueue_scheduled(Scheduled {
                time: ev.time,
                seq: ev.seq,
                event: match ev.event {
                    Ev::Chain => Ev::Chain,
                    Ev::Mark(m) => Ev::Mark(m),
                },
            });
        }
        let mut resumed = Simulation::from_parts(
            SelfScheduler {
                fired,
                chain_remaining,
            },
            scheduler,
            processed,
        );
        resumed.run_until(SimTime::from_secs(20));

        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(resumed.model().fired, straight.model().fired);
    }

    #[test]
    fn traced_run_matches_untraced_and_veto_freezes_pre_event() {
        let make = || {
            let mut sim = Simulation::new(SelfScheduler {
                fired: Vec::new(),
                chain_remaining: 50,
            });
            sim.schedule(SimTime::ZERO, Ev::Chain);
            sim
        };
        let mut plain = make();
        plain.run_until(SimTime::from_secs(20));

        // A pass-through tap leaves the run byte-identical.
        let mut traced = make();
        let mut taps: Vec<(SimTime, u64)> = Vec::new();
        let (stats, halted) = traced.run_until_traced(SimTime::from_secs(20), &mut |t, seq, _| {
            taps.push((t, seq));
            true
        });
        assert!(!halted);
        assert_eq!(stats, plain.stats());
        assert_eq!(traced.model().fired, plain.model().fired);
        assert_eq!(taps.len() as u64, stats.events_processed);
        assert!(
            taps.windows(2).all(|w| w[0] < w[1]),
            "taps in (time, seq) order"
        );

        // A veto halts *before* the event applies and pushes it back.
        let mut vetoed = make();
        let stop_at = taps[10];
        let (stats, halted) =
            vetoed.run_until_traced(SimTime::from_secs(20), &mut |t, seq, _| (t, seq) != stop_at);
        assert!(halted);
        assert_eq!(stats.events_processed, 10);
        // Resuming without the veto completes identically.
        let (stats, halted) = vetoed.run_until_traced(SimTime::from_secs(20), &mut |_, _, _| true);
        assert!(!halted);
        assert_eq!(stats, plain.stats());
        assert_eq!(vetoed.model().fired, plain.model().fired);
    }

    #[test]
    fn stats_reflect_progress() {
        let mut sim = Simulation::new(SelfScheduler {
            fired: Vec::new(),
            chain_remaining: 3,
        });
        sim.schedule(SimTime::ZERO, Ev::Chain);
        assert_eq!(sim.stats().events_pending, 1);
        sim.run();
        let stats = sim.stats();
        assert_eq!(stats.events_processed, 4);
        assert_eq!(stats.events_pending, 0);
        assert_eq!(stats.end_time, SimTime::from_secs(3));
    }
}
