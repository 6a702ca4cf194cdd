//! Sequenced events and the scheduling handle passed to models. The
//! pending-event queue itself is [`crate::EventQueue`].

use std::cmp::Ordering;

use crate::time::{SimDuration, SimTime};
use crate::wheel::{EventQueue, QueueProfile};

/// An event together with its activation time and a tie-breaking sequence
/// number.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO), which keeps simulations deterministic.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number used to break ties at equal `time`.
    pub seq: u64,
    /// The model-defined event payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    // Reversed so a BinaryHeap (a max-heap) pops the *earliest* event;
    // the queue's side and overflow heaps rely on it, and its sorted run
    // (ascending in this order) keeps the earliest event last.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduling interface handed to [`crate::Model::handle`].
///
/// A `Scheduler` owns the event queue and the current clock. Models use it
/// to read the clock ([`Scheduler::now`]) and to plan future events
/// ([`Scheduler::schedule_at`] / [`Scheduler::schedule_after`]).
#[derive(Clone, Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with an empty queue at time zero.
    pub fn new() -> Self {
        Self::with_profile(QueueProfile::default())
    }

    /// Creates a scheduler whose queue is sized for `profile` (see
    /// [`EventQueue::with_profile`]).
    pub fn with_profile(profile: QueueProfile) -> Self {
        Scheduler {
            queue: EventQueue::with_profile(profile),
            now: SimTime::ZERO,
        }
    }

    /// The current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// `now` so the simulation clock never runs backwards.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        self.queue.push(time, event);
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// The number of pending events the queue can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The earliest live event (the earlier of the queue's sorted run
    /// and side heap): the next event to pop unless an earlier one is
    /// scheduled first, or `None` at a rotation boundary (see
    /// [`EventQueue::peek_live`]).
    pub fn peek_live(&self) -> Option<&Scheduled<E>> {
        self.queue.peek_live()
    }

    /// Whether [`Scheduler::take_next_bucket`] has a bucket to list.
    pub(crate) fn next_bucket_due(&self) -> bool {
        self.queue.next_bucket_due()
    }

    /// The events of the bucket after the floor, once per floor
    /// advance of a queue sized for more than 2¹⁶ events (see
    /// [`EventQueue::take_next_bucket`]).
    pub(crate) fn take_next_bucket(&mut self) -> impl Iterator<Item = &Scheduled<E>> {
        self.queue.take_next_bucket()
    }

    /// Re-enqueues an already-sequenced event, preserving its
    /// `(time, seq)` identity (see [`EventQueue::push_scheduled`]).
    /// Unlike [`Scheduler::schedule_at`] the activation time is *not*
    /// clamped to the clock — routed events carry times from the
    /// sequencing scheduler, which never runs ahead of this one.
    pub fn enqueue_scheduled(&mut self, scheduled: Scheduled<E>) {
        self.queue.push_scheduled(scheduled);
    }

    /// Pops the next event due at or before `horizon` (see
    /// [`EventQueue::pop_due`]) and advances the clock to its activation
    /// time.
    pub(crate) fn advance(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        let scheduled = self.queue.pop_due(horizon)?;
        debug_assert!(scheduled.time >= self.now, "event queue went backwards");
        self.now = scheduled.time;
        Some(scheduled)
    }

    /// Advances the clock to `time` without dispatching events: the
    /// kernel's step to a horizon no event reached, and a checkpoint
    /// restoring its captured instant. The clock never runs backwards:
    /// a time before `now` is a no-op.
    pub fn restore_clock(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }
}

impl<E: Clone> Scheduler<E> {
    /// Every pending event in ascending `(time, seq)` order, without
    /// disturbing the queue — the checkpointing primitive (see
    /// [`EventQueue::snapshot_events`]).
    pub fn snapshot_events(&self) -> Vec<Scheduled<E>> {
        self.queue.snapshot_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn scheduler_clamps_past_events_to_now() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.restore_clock(SimTime::from_secs(10));
        s.schedule_at(SimTime::from_secs(1), ());
        let ev = s.advance(SimTime::MAX).expect("event");
        assert_eq!(ev.time, SimTime::from_secs(10));
        assert_eq!(s.now(), SimTime::from_secs(10));
    }

    #[test]
    fn scheduler_advance_moves_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(4), 7);
        assert_eq!(s.pending(), 1);
        let ev = s.advance(SimTime::MAX).expect("event");
        assert_eq!(ev.event, 7);
        assert_eq!(s.now(), SimTime::from_secs(4));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn with_profile_pre_reserves() {
        let profile = QueueProfile {
            expected_events: 1_000,
            typical_delay: SimDuration::from_secs(1),
        };
        let mut q: EventQueue<u32> = EventQueue::with_profile(profile);
        let cap = q.capacity();
        assert!(cap >= 1_000);
        assert!(q.is_empty());
        // Every push lands inside the four-second window, so the
        // pre-sized slab takes the whole population.
        for i in 0..1_000u32 {
            q.push(SimTime::from_micros(1 + u64::from(i) * 3_000), i);
        }
        assert_eq!(q.len(), 1_000);
        assert_eq!(q.capacity(), cap, "filling to the profile reallocated");
    }

    #[test]
    fn scheduler_steady_state_cycle_stops_growing() {
        let mut s: Scheduler<u32> = Scheduler::new();
        // Most of these land past the default four-second window, in
        // the overflow heap.
        for i in 0..100 {
            s.schedule_after(SimDuration::from_secs(i), i as u32);
        }
        let cap = s.capacity();
        // A steady-state push/pop cycle at the filled population never
        // grows the queue.
        for _ in 0..1_000 {
            let ev = s.advance(SimTime::MAX).expect("event");
            s.schedule_after(SimDuration::from_secs(1), ev.event);
        }
        assert_eq!(s.pending(), 100);
        assert_eq!(s.capacity(), cap, "steady-state cycling reallocated");
    }

    #[test]
    fn wheel_profile_pops_like_heap() {
        let profile = QueueProfile {
            expected_events: 128,
            typical_delay: SimDuration::from_secs(2),
        };
        let mut heap = std::collections::BinaryHeap::new();
        let mut wheel: EventQueue<u32> = EventQueue::with_profile(profile);
        for (seq, (secs, ev)) in [(3, 0), (1, 1), (1, 2), (900, 3), (2, 4), (0, 5)]
            .into_iter()
            .enumerate()
        {
            let time = SimTime::from_secs(secs);
            heap.push(Scheduled {
                time,
                seq: seq as u64,
                event: ev,
            });
            wheel.push(time, ev);
        }
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => assert_eq!((x.time, x.seq), (y.time, y.seq)),
                (None, None) => break,
                _ => panic!("queue and heap disagree on length"),
            }
        }
    }

    #[test]
    fn wheel_scheduler_preserves_routed_sequence_numbers() {
        let profile = QueueProfile {
            expected_events: 64,
            typical_delay: SimDuration::from_millis(10),
        };
        let mut s: Scheduler<u32> = Scheduler::with_profile(profile);
        s.enqueue_scheduled(Scheduled {
            time: SimTime::from_secs(1),
            seq: 41,
            event: 7,
        });
        s.schedule_at(SimTime::from_secs(1), 8); // must get seq 42
        let first = s.advance(SimTime::MAX).expect("event");
        let second = s.advance(SimTime::MAX).expect("event");
        assert_eq!((first.seq, first.event), (41, 7));
        assert_eq!((second.seq, second.event), (42, 8));
    }

    #[test]
    fn snapshot_round_trips_through_enqueue_scheduled() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.restore_clock(SimTime::from_secs(2));
        for (secs, ev) in [(9, 1), (3, 2), (3, 3), (40, 4)] {
            s.schedule_at(SimTime::from_secs(secs), ev);
        }
        let snap = s.snapshot_events();
        assert_eq!(snap.len(), 4, "snapshot covers every pending event");
        assert!(snap
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)));
        assert_eq!(s.pending(), 4, "snapshot must not drain the live queue");

        // Rebuild a fresh scheduler from the snapshot: same clock, same
        // pop order, and the sequence counter continues past the
        // restored events.
        let mut restored: Scheduler<u32> = Scheduler::new();
        restored.restore_clock(s.now());
        for ev in snap {
            restored.enqueue_scheduled(ev);
        }
        assert_eq!(restored.now(), s.now());
        loop {
            match (s.advance(SimTime::MAX), restored.advance(SimTime::MAX)) {
                (Some(a), Some(b)) => {
                    assert_eq!((a.time, a.seq), (b.time, b.seq));
                    assert_eq!(a.event, b.event);
                }
                (None, None) => break,
                _ => panic!("restored queue diverged in length"),
            }
        }
    }

    #[test]
    fn restore_clock_never_goes_backwards() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.restore_clock(SimTime::from_secs(5));
        assert_eq!(s.now(), SimTime::from_secs(5));
        s.restore_clock(SimTime::from_secs(1));
        assert_eq!(s.now(), SimTime::from_secs(5));
    }
}
