//! Property-based tests for the simulation kernel and distributions.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use proptest::prelude::*;
use scrip_des::dist::{Exp, Poisson};
use scrip_des::{
    EventQueue, FenwickSampler, Model, QueueProfile, RunStats, Scheduled, Scheduler, SimDuration,
    SimRng, SimTime, Simulation,
};

/// The O(deg) cumulative-weight walk `FenwickSampler::pick` replaces,
/// verbatim from the pre-Fenwick `CreditMarket::handle_spend`.
fn linear_walk(weights: &[f64], mut target: f64) -> usize {
    let mut pick = weights.len() - 1;
    for (k, &w) in weights.iter().enumerate() {
        if target < w {
            pick = k;
            break;
        }
        target -= w;
    }
    pick
}

fn built_sampler(weights: &[f64]) -> FenwickSampler {
    let mut s = FenwickSampler::with_capacity(weights.len());
    for &w in weights {
        s.push(w);
    }
    s.build();
    s
}

struct TimeLog {
    seen: Vec<SimTime>,
}

impl Model for TimeLog {
    type Event = ();
    fn handle(&mut self, now: SimTime, _ev: (), _s: &mut Scheduler<()>) {
        self.seen.push(now);
    }
}

/// The reference `EventQueue` is checked against: a binary heap of
/// `Scheduled` events (whose `Ord` is reversed, so the max-heap pops
/// the earliest) with its own sequence counter.
#[derive(Clone, Default)]
struct HeapModel {
    heap: BinaryHeap<Scheduled<u64>>,
    next_seq: u64,
}

impl HeapModel {
    fn push(&mut self, time: SimTime, event: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    fn push_scheduled(&mut self, scheduled: Scheduled<u64>) {
        self.next_seq = self.next_seq.max(scheduled.seq + 1);
        self.heap.push(scheduled);
    }
}

type Triple = (SimTime, u64, u64);

/// A self-perpetuating model for the pause/resume property: every
/// event logs `(now, label)` and schedules one follow-up, its delay
/// taken in turn from `delays`. After handling `k` events it schedules
/// every injection listed for `k`, so one uninterrupted run can replay
/// events that a paused run schedules between `run_until` calls at the
/// same point of the push order.
#[derive(Default)]
struct Chain {
    delays: Vec<SimDuration>,
    handled: u64,
    next_label: u64,
    injections: VecDeque<(u64, SimTime, u64)>,
    log: Vec<(SimTime, u64)>,
}

impl Chain {
    /// Schedules the injections listed for the current handled count.
    fn inject(&mut self, s: &mut Scheduler<u64>) {
        while let Some(&(k, time, label)) = self.injections.front() {
            if k != self.handled {
                break;
            }
            self.injections.pop_front();
            s.schedule_at(time, label);
        }
    }
}

impl Model for Chain {
    type Event = u64;
    fn handle(&mut self, now: SimTime, label: u64, s: &mut Scheduler<u64>) {
        self.log.push((now, label));
        let delay = self.delays[self.handled as usize % self.delays.len()];
        self.handled += 1;
        s.schedule_after(delay, self.next_label);
        self.next_label += 1;
        self.inject(s);
    }
}

/// The lookahead property's model: every event is labelled with its
/// queue sequence number (labels count pushes, as seqs do) and
/// schedules the follow-ups `script` lists for its dispatch count, until
/// `budget` events have been handled. It keeps every pending label's
/// activation time, so it can check the [`Model::prefetch`] contract
/// from inside `handle`, and it logs each breach to `faults`.
#[derive(Default)]
struct Lookahead {
    script: Vec<Vec<SimDuration>>,
    budget: u64,
    handled: u64,
    next_label: u64,
    pending: BTreeMap<u64, SimTime>,
    log: Vec<(SimTime, u64)>,
    /// The event the hook showed before the last dispatch, its time,
    /// and the earliest follow-up that dispatch's handler scheduled.
    expect: Option<(u64, SimTime, Option<SimTime>)>,
    faults: Vec<String>,
}

impl Lookahead {
    fn schedule(&mut self, s: &mut Scheduler<u64>, time: SimTime) {
        let time = time.max(s.now());
        s.schedule_at(time, self.next_label);
        self.pending.insert(self.next_label, time);
        self.next_label += 1;
    }

    /// Handles one event; `prefetched` is what the hook was called with
    /// since the last dispatch, or `None` for a model without the hook.
    fn on_event(
        &mut self,
        now: SimTime,
        label: u64,
        s: &mut Scheduler<u64>,
        prefetched: Option<Option<u64>>,
    ) {
        self.log.push((now, label));
        if self.pending.remove(&label) != Some(now) {
            self.faults
                .push(format!("{label} ran at {now}, not when scheduled"));
        }
        // Nothing has changed the queue since the kernel peeked it, so
        // its live root is what the hook must have been shown: the
        // earliest pending event, or nothing at a rotation boundary.
        let root = s.peek_live().map(|r| r.event);
        let earliest = s.snapshot_events().first().map(|e| e.event);
        if root.is_some() && root != earliest {
            self.faults
                .push(format!("live root {root:?}, earliest pending {earliest:?}"));
        }
        if let Some(prefetched) = prefetched {
            if prefetched != root {
                self.faults
                    .push(format!("prefetched {prefetched:?}, live root {root:?}"));
            }
            if let Some((shown, at, follow_up)) = self.expect.take() {
                let overtaken = follow_up.is_some_and(|t| t < at);
                if (label == shown) == overtaken {
                    self.faults.push(format!(
                        "prefetched {shown} at {at}, dispatched {label} (follow-up at {follow_up:?})"
                    ));
                }
            }
            if let Some(shown) = prefetched {
                match self.pending.get(&shown) {
                    Some(&at) => self.expect = Some((shown, at, None)),
                    None => self
                        .faults
                        .push(format!("prefetched {shown}, which is not pending")),
                }
            }
        }
        if self.handled < self.budget {
            let delays = self.script[self.handled as usize % self.script.len()].clone();
            for delay in delays {
                self.schedule(s, now + delay);
                if let Some((_, _, follow_up)) = &mut self.expect {
                    *follow_up = Some(follow_up.map_or(now + delay, |t| t.min(now + delay)));
                }
            }
        }
        self.handled += 1;
    }
}

/// [`Lookahead`] with the hook, which records its argument.
struct Hooked {
    inner: Lookahead,
    prefetched: Cell<Option<u64>>,
}

impl Model for Hooked {
    type Event = u64;
    fn handle(&mut self, now: SimTime, label: u64, s: &mut Scheduler<u64>) {
        let prefetched = self.prefetched.take();
        self.inner.on_event(now, label, s, Some(prefetched));
    }

    fn prefetch(&self, next: &u64) {
        if let Some(earlier) = self.prefetched.replace(Some(*next)) {
            panic!("prefetch({next}) after prefetch({earlier}) with no dispatch between");
        }
    }
}

/// [`Lookahead`] with a hook that records every event it is shown:
/// the live root first, when there is one, then any bucket walk.
/// `handle` checks the walk and hands the root to [`Lookahead`].
struct Walked {
    inner: Lookahead,
    shown: RefCell<Vec<u64>>,
    /// The queue's bucket width in µs, and whether it is sized for
    /// enough events to list the next bucket.
    width: u64,
    listing: bool,
    /// The buckets walked so far.
    walked: BTreeSet<u64>,
}

impl Model for Walked {
    type Event = u64;
    fn handle(&mut self, now: SimTime, label: u64, s: &mut Scheduler<u64>) {
        let mut walk = self.shown.take();
        let root = (s.peek_live().is_some() && !walk.is_empty()).then(|| walk.remove(0));
        if !walk.is_empty() {
            let faults = &mut self.inner.faults;
            if !self.listing {
                faults.push(format!(
                    "walk {walk:?} on a queue sized for 2^16 events or fewer"
                ));
            }
            let bucket = |label: u64| {
                self.inner
                    .pending
                    .get(&label)
                    .map(|t| t.as_micros() / self.width)
            };
            let next = now.as_micros() / self.width + 1;
            for &shown in &walk {
                if shown == label || bucket(shown).is_none() {
                    faults.push(format!("walk showed {shown}, which is not pending"));
                } else if bucket(shown) != Some(next) {
                    faults.push(format!("walk showed {shown} outside bucket {next}"));
                }
            }
            if !self.walked.insert(next) {
                faults.push(format!("bucket {next} walked twice"));
            }
        }
        self.inner.on_event(now, label, s, Some(root));
    }

    fn prefetch(&self, next: &u64) {
        self.shown.borrow_mut().push(*next);
    }
}

/// [`Lookahead`] with the default (no-op) hook.
struct Plain(Lookahead);

impl Model for Plain {
    type Event = u64;
    fn handle(&mut self, now: SimTime, label: u64, s: &mut Scheduler<u64>) {
        self.0.on_event(now, label, s, None);
    }
}

/// One of the kernel's dispatch loops, with its argument.
fn drive<M: Model<Event = u64>>(
    sim: &mut Simulation<M>,
    (kind, arg): (u8, u64),
) -> (RunStats, Vec<(SimTime, u64)>, bool) {
    let mut tapped = Vec::new();
    let mut vetoed = false;
    let stats = match kind {
        0 => {
            sim.step();
            sim.stats()
        }
        1 => sim.run_until(sim.now() + SimDuration::from_micros(arg)),
        // Traced: every third call vetoes its (arg mod 8)-th event.
        2 => {
            let veto = (arg % 3 == 0).then_some(arg % 8);
            let mut tap = |t: SimTime, seq: u64, label: &u64| {
                assert_eq!(seq, *label, "labels are seqs");
                if veto == Some(tapped.len() as u64) {
                    return false;
                }
                tapped.push((t, seq));
                true
            };
            let stats;
            (stats, vetoed) =
                sim.run_until_traced(sim.now() + SimDuration::from_micros(arg), &mut tap);
            stats
        }
        // A burst of steps.
        _ => {
            for _ in 0..arg % 16 {
                if sim.step().is_none() {
                    break;
                }
            }
            sim.stats()
        }
    };
    (stats, tapped, vetoed)
}

fn triple(s: Scheduled<u64>) -> Triple {
    (s.time, s.seq, s.event)
}

/// Pops `queue` dry, as `(time, seq, event)` triples.
fn drain(mut queue: EventQueue<u64>) -> Vec<Triple> {
    std::iter::from_fn(|| queue.pop().map(triple)).collect()
}

/// Pops the model dry, as `(time, seq, event)` triples.
fn drain_model(mut model: HeapModel) -> Vec<Triple> {
    std::iter::from_fn(|| model.heap.pop().map(triple)).collect()
}

proptest! {
    /// Events are always delivered in non-decreasing time order, no
    /// matter the scheduling order.
    #[test]
    fn events_delivered_in_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(TimeLog { seen: Vec::new() });
        for &t in &times {
            sim.schedule(SimTime::from_micros(t), ());
        }
        sim.run();
        let seen = &sim.model().seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// run_until never passes the horizon and leaves later events queued.
    #[test]
    fn run_until_respects_horizon(times in prop::collection::vec(0u64..1_000, 1..100), horizon in 0u64..1_000) {
        let mut sim = Simulation::new(TimeLog { seen: Vec::new() });
        for &t in &times {
            sim.schedule(SimTime::from_secs(t), ());
        }
        let stats = sim.run_until(SimTime::from_secs(horizon));
        let expected = times.iter().filter(|&&t| t <= horizon).count() as u64;
        prop_assert_eq!(stats.events_processed, expected);
        prop_assert_eq!(sim.now(), SimTime::from_secs(horizon));
    }

    /// Time arithmetic is consistent: (t + d) − t == d.
    #[test]
    fn time_arithmetic_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Exponential samples are non-negative and mean-consistent.
    #[test]
    fn exponential_mean(rate in 0.1f64..20.0, seed in 0u64..1_000) {
        let dist = Exp::new(rate).expect("valid");
        let mut rng = SimRng::seed_from_u64(seed);
        let n = 4_000;
        let mut total = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            prop_assert!(x >= 0.0);
            total += x;
        }
        let mean = total / n as f64;
        let expected = 1.0 / rate;
        prop_assert!((mean - expected).abs() < 6.0 * expected / (n as f64).sqrt() + 0.02,
            "mean {mean} vs expected {expected}");
    }

    /// Poisson mean tracks its parameter across both sampling regimes.
    #[test]
    fn poisson_mean(lambda in 0.2f64..80.0, seed in 0u64..500) {
        let dist = Poisson::new(lambda).expect("valid");
        let mut rng = SimRng::seed_from_u64(seed);
        let n = 3_000;
        let total: u64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        let tolerance = 6.0 * (lambda / n as f64).sqrt() + 0.05;
        prop_assert!((mean - lambda).abs() < tolerance, "mean {mean} vs lambda {lambda}");
    }

    /// `FenwickSampler::pick` selects the same index as the naive linear
    /// cumulative walk for arbitrary weight vectors (zero-weight entries
    /// and single-element vectors included) across the whole target
    /// range, including targets at and past the total.
    #[test]
    fn fenwick_pick_matches_linear_walk(
        raw in prop::collection::vec((0u8..4, 0.001f64..10.0), 1..60),
        frac in 0.0f64..1.3,
    ) {
        // Flag 0 plants an exact zero weight, which the walk skips and
        // the sampler must too.
        let weights: Vec<f64> = raw
            .iter()
            .map(|&(flag, w)| if flag == 0 { 0.0 } else { w })
            .collect();
        let s = built_sampler(&weights);
        let mut sequential = 0.0f64;
        for &w in &weights {
            sequential += w;
        }
        prop_assert_eq!(s.total().to_bits(), sequential.to_bits());
        let target = frac * s.total();
        prop_assert_eq!(s.pick(target), linear_walk(&weights, target));
    }

    /// After a random sequence of incremental `update` calls the sampler
    /// is indistinguishable from one rebuilt from scratch: same total,
    /// same pick for every target. Integer-valued weights keep all
    /// arithmetic exact, so this equality is bit-for-bit.
    #[test]
    fn fenwick_update_matches_rebuild(
        initial in prop::collection::vec(0u32..1_000, 1..50),
        updates in prop::collection::vec((0usize..64, 0u32..1_000), 0..40),
        frac in 0.0f64..1.2,
    ) {
        let mut weights: Vec<f64> = initial.iter().map(|&w| w as f64).collect();
        let mut s = built_sampler(&weights);
        for &(i, w) in &updates {
            let i = i % weights.len();
            weights[i] = w as f64;
            s.update(i, w as f64);
        }
        let fresh = built_sampler(&weights);
        prop_assert_eq!(s.total().to_bits(), fresh.total().to_bits());
        let target = frac * fresh.total();
        prop_assert_eq!(s.pick(target), fresh.pick(target));
        // Exact prefix boundaries are the adversarial targets: the walk
        // moves past a boundary, and so must the updated tree.
        let mut boundary = 0.0f64;
        for &w in &weights {
            boundary += w;
            prop_assert_eq!(s.pick(boundary), linear_walk(&weights, boundary));
            prop_assert_eq!(s.pick(boundary), fresh.pick(boundary));
        }
    }

    /// `EventQueue` pops the exact `(time, seq)` sequence a binary-heap
    /// model pops, under random interleavings of schedule/pop/pop-due with
    /// same-time ties and far-future overflow events, for arbitrary
    /// sizing profiles up to and past the largest bucket count. Typical
    /// delays from 1 µs to 5 s against pushes up to 40 s and 1 h ahead
    /// send many events to the overflow heap. Pushes outnumber pops
    /// 3:1, so a long case ends with about a hundred pending events.
    /// Rare ops drain both dry and reuse them, compare
    /// `snapshot_events()` on the live queue with the model's drain and
    /// with a clone-and-drain of the queue, and rebuild from the
    /// snapshot through `push_scheduled` with restored seqs.
    #[test]
    fn wheel_pops_exact_heap_sequence(
        ops in prop::collection::vec((0u16..1_000, 0u64..40, 0u64..1_000), 1..250),
        sizing in (0u32..20, 0usize..600),
        delay_micros in 1u64..5_000_000,
    ) {
        let (log2_events, jitter) = sizing;
        let profile = QueueProfile {
            expected_events: (1usize << log2_events) + jitter,
            typical_delay: SimDuration::from_micros(delay_micros),
        };
        let mut model = HeapModel::default();
        let mut queue: EventQueue<u64> = EventQueue::with_profile(profile);
        let mut ev = 0u64;
        for &(op, coarse, fine) in &ops {
            match op {
                // 0.2%: pop both dry and keep going on the emptied
                // queues (the wheel keeps its advanced floor).
                0..=1 => {
                    let expected: Vec<Triple> =
                        std::iter::from_fn(|| model.heap.pop().map(triple)).collect();
                    let popped: Vec<Triple> =
                        std::iter::from_fn(|| queue.pop().map(triple)).collect();
                    prop_assert_eq!(expected, popped);
                }
                // 1%: the checkpoint snapshot of the live queue is the
                // model's pop order and the queue's own clone-and-drain,
                // and it leaves the queue untouched.
                2..=11 => {
                    let snapshot: Vec<Triple> =
                        queue.snapshot_events().into_iter().map(triple).collect();
                    prop_assert_eq!(&snapshot, &drain_model(model.clone()));
                    prop_assert_eq!(&snapshot, &drain(queue.clone()));
                }
                // 1%: snapshot and restore. The queue's snapshot must
                // equal the model's drain; both are then rebuilt from it
                // through `push_scheduled`, in reverse order, the queue
                // into a fresh one of the same profile.
                12..=21 => {
                    let pending = drain_model(std::mem::take(&mut model));
                    let snapshot: Vec<Triple> =
                        queue.snapshot_events().into_iter().map(triple).collect();
                    prop_assert_eq!(&pending, &snapshot);
                    queue = EventQueue::with_profile(profile);
                    for &(time, seq, event) in pending.iter().rev() {
                        model.push_scheduled(Scheduled { time, seq, event });
                        queue.push_scheduled(Scheduled { time, seq, event });
                    }
                }
                _ => match op % 4 {
                    // Push within a narrow window: coarse in seconds
                    // forces bucket collisions, fine-only times force
                    // (time, seq) ties.
                    kind @ (0 | 1) => {
                        let t = SimTime::from_micros(coarse * 1_000_000 + u64::from(kind) * fine);
                        model.push(t, ev);
                        queue.push(t, ev);
                        ev += 1;
                    }
                    // Far-future push: lands in the overflow heap.
                    2 => {
                        let t = SimTime::from_secs(3_600 + coarse);
                        model.push(t, ev);
                        queue.push(t, ev);
                        ev += 1;
                    }
                    _ if fine % 2 == 0 => {
                        prop_assert_eq!(model.heap.pop().map(triple), queue.pop().map(triple));
                    }
                    // Pop only if due by a horizon in the same window,
                    // which may fall before, inside or past the wheel's
                    // floor bucket.
                    _ => {
                        let horizon = SimTime::from_micros(coarse * 1_000_000 + fine);
                        let due = model.heap.peek().is_some_and(|s| s.time <= horizon);
                        let expected = if due { model.heap.pop().map(triple) } else { None };
                        prop_assert_eq!(expected, queue.pop_due(horizon).map(triple));
                    }
                },
            }
            prop_assert_eq!(model.heap.len(), queue.len());
            prop_assert_eq!(model.heap.peek().map(|s| s.time), queue.peek_time());
        }
        prop_assert_eq!(drain_model(model), drain(queue));
    }

    /// The live bucket is a run sorted once per rotation plus a side
    /// heap for events pushed into the floor bucket after it: pushes at
    /// the clock (same-instant bursts of up to 16) and elsewhere in the
    /// floor bucket interleave with pops, `pop_due` at horizons just
    /// before the clock, at it and inside its bucket pops some of a
    /// burst and leaves the rest, and the queue still pops a binary-heap
    /// model's exact sequence. `peek_live`, when it shows an event,
    /// shows the model's earliest, and `snapshot_events()` taken
    /// mid-burst equals the model's drain and a clone-and-drain of the
    /// queue. Sizings from 64 to 2^15 buckets and widths of 1 µs to
    /// 2 ms put anywhere from one to dozens of events in a bucket.
    #[test]
    fn floor_bucket_bursts_pop_like_a_heap(
        seeds in prop::collection::vec(0u64..100_000, 0..80),
        ops in prop::collection::vec((0u8..8, 0u64..64, 0u64..100_000), 1..300),
        sizing in (0u32..18, 1u64..20_000),
    ) {
        let profile = QueueProfile {
            expected_events: 1 << sizing.0,
            typical_delay: SimDuration::from_micros(sizing.1),
        };
        let mut model = HeapModel::default();
        let mut queue: EventQueue<u64> = EventQueue::with_profile(profile);
        let width = queue.bucket_width().as_micros();
        let mut ev = 0u64;
        let mut push = |model: &mut HeapModel, queue: &mut EventQueue<u64>, t: u64| {
            model.push(SimTime::from_micros(t), ev);
            queue.push(SimTime::from_micros(t), ev);
            ev += 1;
        };
        for &t in &seeds {
            push(&mut model, &mut queue, t);
        }
        // The clock: the time of the last event popped.
        let mut now = 0u64;
        for &(op, count, fine) in &ops {
            match op {
                // A burst of pushes at the clock.
                0 | 1 => {
                    for _ in 0..=count % 16 {
                        push(&mut model, &mut queue, now);
                    }
                }
                // A push later in (about) the floor bucket.
                2 => push(&mut model, &mut queue, now + fine % width),
                // A push up to 100 ms ahead.
                3 => push(&mut model, &mut queue, now + fine),
                // Pops.
                4 | 5 => {
                    for _ in 0..=count % 8 {
                        let expected = model.heap.pop().map(triple);
                        prop_assert_eq!(&expected, &queue.pop().map(triple));
                        if let Some((t, _, _)) = expected {
                            now = t.as_micros();
                        }
                    }
                }
                // Pops due by a horizon just before, at or inside the
                // clock's instant and bucket, which splits a burst when
                // it allows fewer pops than the burst holds.
                6 => {
                    let horizon = match count % 4 {
                        0 => now.saturating_sub(1),
                        1 => now,
                        _ => now + fine % width,
                    };
                    let horizon = SimTime::from_micros(horizon);
                    for _ in 0..=count % 8 {
                        let due = model.heap.peek().is_some_and(|s| s.time <= horizon);
                        let expected = if due { model.heap.pop().map(triple) } else { None };
                        prop_assert_eq!(&expected, &queue.pop_due(horizon).map(triple));
                        if let Some((t, _, _)) = expected {
                            now = t.as_micros();
                        }
                    }
                }
                // A snapshot, which must leave the queue as it was.
                _ => {
                    let snapshot: Vec<Triple> =
                        queue.snapshot_events().into_iter().map(triple).collect();
                    prop_assert_eq!(&snapshot, &drain_model(model.clone()));
                    prop_assert_eq!(&snapshot, &drain(queue.clone()));
                }
            }
            if let Some(live) = queue.peek_live() {
                let earliest = model.heap.peek().map(|s| (s.time, s.seq));
                prop_assert_eq!(Some((live.time, live.seq)), earliest);
            }
            prop_assert_eq!(model.heap.len(), queue.len());
            prop_assert_eq!(model.heap.peek().map(|s| s.time), queue.peek_time());
        }
        prop_assert_eq!(drain_model(model), drain(queue));
    }

    /// `run_until` and `run_until_traced` over random non-decreasing
    /// horizons, with events scheduled between the calls, dispatch the
    /// same `(time, seq)` sequence as one uninterrupted run that
    /// schedules those events at the same point of its push order.
    /// Delays of zero, within the wheel window and an hour ahead cover
    /// same-instant ties, bucket rotation and the overflow heap; the
    /// horizons fall inside, between and past the buckets.
    #[test]
    fn run_until_in_pieces_dispatches_like_one_run(
        seeds in prop::collection::vec(0u64..2_000_000, 1..8),
        delays in prop::collection::vec((0u8..8, 0u64..2_000_000), 1..20),
        pauses in prop::collection::vec((0u64..1_000_000, 0usize..3, 0u64..1_000_000), 1..20),
        sizing in (0u32..12, 1u64..2_000_000),
    ) {
        let profile = QueueProfile {
            expected_events: 1 << sizing.0,
            typical_delay: SimDuration::from_micros(sizing.1),
        };
        // The first delay is never zero, so time always moves on.
        let delays: Vec<SimDuration> = delays
            .iter()
            .enumerate()
            .map(|(i, &(kind, fine))| match kind {
                0 if i > 0 => SimDuration::ZERO,
                7 => SimDuration::from_secs(3_600) + SimDuration::from_micros(fine),
                _ => SimDuration::from_micros(50_000 + fine),
            })
            .collect();
        let chain = |injections| Chain {
            delays: delays.clone(),
            next_label: 1 << 32,
            injections,
            ..Chain::default()
        };
        let build = |mut model: Chain| {
            let mut scheduler = Scheduler::with_profile(profile);
            for (label, &t) in seeds.iter().enumerate() {
                scheduler.schedule_at(SimTime::from_micros(t), label as u64);
            }
            model.inject(&mut scheduler);
            Simulation::from_parts(model, scheduler, 0)
        };
        // Paused runs: plain and traced, the injections scheduled
        // between calls at or after the horizon just reached.
        let mut plain = build(chain(VecDeque::new()));
        let mut traced = build(chain(VecDeque::new()));
        let mut traced_seqs = Vec::new();
        let mut injections = VecDeque::new();
        let mut tap = |t: SimTime, seq: u64, _: &u64| {
            traced_seqs.push((t, seq));
            true
        };
        let mut horizon = SimTime::ZERO;
        let mut label = 1 << 48;
        // A last call at the final horizon dispatches what the last
        // pause scheduled there.
        let last = (0, 0, 0);
        for &(gap, count, offset) in pauses.iter().chain([&last]) {
            horizon += SimDuration::from_micros(gap);
            let stats = plain.run_until(horizon);
            let (traced_stats, vetoed) = traced.run_until_traced(horizon, &mut tap);
            prop_assert!(!vetoed);
            prop_assert_eq!(stats, traced_stats);
            prop_assert_eq!(plain.now(), horizon);
            for k in 0..count {
                let at = horizon + SimDuration::from_micros(offset * k as u64);
                plain.schedule(at, label);
                traced.schedule(at, label);
                injections.push_back((stats.events_processed, at, label));
                label += 1;
            }
        }
        // One uninterrupted run, injecting at the same dispatch counts.
        let mut whole = build(chain(injections));
        let mut whole_seqs = Vec::new();
        let mut tap = |t: SimTime, seq: u64, _: &u64| {
            whole_seqs.push((t, seq));
            true
        };
        let (stats, _) = whole.run_until_traced(horizon, &mut tap);
        prop_assert!(whole.model().injections.is_empty(), "every injection replayed");
        prop_assert_eq!(&plain.model().log, &whole.model().log);
        prop_assert_eq!(&traced.model().log, &whole.model().log);
        prop_assert_eq!(&traced_seqs, &whole_seqs);
        prop_assert!(whole_seqs.windows(2).all(|w| w[0] < w[1]), "dispatch order is (time, seq)");
        prop_assert_eq!(plain.stats(), stats);
        prop_assert_eq!(traced.stats(), stats);
    }
    /// The one-event lookahead: over random initial events, follow-up
    /// scripts and queue sizings, driven through `step`, `run_until` in
    /// pieces, `run_until_traced` (with vetoes) and bursts of steps,
    /// a model with a recording `prefetch` and one with the default
    /// hook dispatch the same `(time, seq)` sequence. The hook is shown
    /// the earliest live event (the earliest pending event) after every
    /// pop and before `handle`, is skipped exactly when none is live,
    /// never sees an event that is not pending, and the event it sees
    /// is the next one dispatched unless the handler in between
    /// scheduled an earlier one. Zero delays make same-instant ties,
    /// an hour's delay the overflow heap.
    #[test]
    fn prefetch_sees_the_next_live_event(
        starts in prop::collection::vec(0u64..3_000_000, 1..20),
        script in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..2_000_000), 0..4),
            1..12,
        ),
        budget in 0u64..300,
        calls in prop::collection::vec((0u8..4, 0u64..3_000_000), 1..30),
        sizing in (0u32..12, 1u64..2_000_000),
    ) {
        let profile = QueueProfile {
            expected_events: 1 << sizing.0,
            typical_delay: SimDuration::from_micros(sizing.1),
        };
        let script: Vec<Vec<SimDuration>> = script
            .iter()
            .map(|delays| {
                delays
                    .iter()
                    .map(|&(kind, fine)| match kind {
                        0 => SimDuration::ZERO,
                        1 => SimDuration::from_secs(3_600) + SimDuration::from_micros(fine),
                        _ => SimDuration::from_micros(fine),
                    })
                    .collect()
            })
            .collect();
        let build = || {
            let mut model = Lookahead { script: script.clone(), budget, ..Lookahead::default() };
            let mut scheduler = Scheduler::with_profile(profile);
            for &t in &starts {
                model.schedule(&mut scheduler, SimTime::from_micros(t));
            }
            (model, scheduler)
        };
        let (model, scheduler) = build();
        let mut hooked = Simulation::from_parts(
            Hooked { inner: model, prefetched: Cell::new(None) },
            scheduler,
            0,
        );
        let (model, scheduler) = build();
        let mut plain = Simulation::from_parts(Plain(model), scheduler, 0);
        for &call in &calls {
            prop_assert_eq!(drive(&mut hooked, call), drive(&mut plain, call));
        }
        prop_assert_eq!(hooked.run(), plain.run());
        let (hooked, plain) = (hooked.into_model().inner, plain.into_model().0);
        prop_assert!(hooked.faults.is_empty(), "{:?}", &hooked.faults[..hooked.faults.len().min(3)]);
        prop_assert!(plain.faults.is_empty(), "{:?}", &plain.faults[..plain.faults.len().min(3)]);
        prop_assert_eq!(&hooked.log, &plain.log);
        prop_assert!(hooked.log.windows(2).all(|w| w[0] < w[1]), "dispatch order is (time, seq)");
        prop_assert!(hooked.pending.is_empty());
    }

    /// The bucket lookahead: on queues sized below, at and just past
    /// the bucket cap (2^15) and the listing threshold (2^16 events),
    /// driven through every dispatch loop, each event a walk shows is
    /// pending and in the bucket after the dispatched event's, each
    /// bucket is walked at most once, nothing is walked on a queue
    /// sized for 2^16 events or fewer, the live root is still shown
    /// first, and the dispatch sequence equals a model's without the
    /// hook. Delays of up to 20 ms against bucket widths of 1–512 µs
    /// put several events in a bucket; an hour's delay takes the
    /// overflow heap.
    #[test]
    fn bucket_lookahead_shows_pending_events_once_per_bucket(
        starts in prop::collection::vec(0u64..20_000, 1..40),
        script in prop::collection::vec(
            prop::collection::vec((0u8..8, 0u64..20_000), 0..4),
            1..12,
        ),
        budget in 0u64..400,
        calls in prop::collection::vec((0u8..4, 0u64..30_000), 1..30),
        sizing in (12u32..19, 0usize..2, 1u64..500_000),
    ) {
        let profile = QueueProfile {
            expected_events: (1 << sizing.0) + sizing.1,
            typical_delay: SimDuration::from_micros(sizing.2),
        };
        let script: Vec<Vec<SimDuration>> = script
            .iter()
            .map(|delays| {
                delays
                    .iter()
                    .map(|&(kind, fine)| match kind {
                        0 => SimDuration::ZERO,
                        1 => SimDuration::from_secs(3_600) + SimDuration::from_micros(fine),
                        _ => SimDuration::from_micros(fine),
                    })
                    .collect()
            })
            .collect();
        let build = || {
            let mut model = Lookahead { script: script.clone(), budget, ..Lookahead::default() };
            let mut scheduler = Scheduler::with_profile(profile);
            for &t in &starts {
                model.schedule(&mut scheduler, SimTime::from_micros(t));
            }
            (model, scheduler)
        };
        let (model, scheduler) = build();
        let mut walked = Simulation::from_parts(
            Walked {
                inner: model,
                shown: RefCell::default(),
                width: EventQueue::<u64>::with_profile(profile).bucket_width().as_micros(),
                listing: profile.expected_events > 1 << 16,
                walked: BTreeSet::new(),
            },
            scheduler,
            0,
        );
        let (model, scheduler) = build();
        let mut plain = Simulation::from_parts(Plain(model), scheduler, 0);
        for &call in &calls {
            prop_assert_eq!(drive(&mut walked, call), drive(&mut plain, call));
        }
        prop_assert_eq!(walked.run(), plain.run());
        let (walked, plain) = (walked.into_model().inner, plain.into_model().0);
        prop_assert!(walked.faults.is_empty(), "{:?}", &walked.faults[..walked.faults.len().min(3)]);
        prop_assert!(plain.faults.is_empty(), "{:?}", &plain.faults[..plain.faults.len().min(3)]);
        prop_assert_eq!(&walked.log, &plain.log);
        prop_assert!(walked.pending.is_empty());
    }
}
