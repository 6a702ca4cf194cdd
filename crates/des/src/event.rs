//! The pending-event list and the scheduling handle passed to models.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

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
    // Reversed so the BinaryHeap (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Selects the pending-event store behind an [`EventQueue`].
///
/// The two backends pop the identical `(time, seq)` sequence (pinned by
/// the equivalence proptests in `crates/des/tests/proptests.rs`); the
/// profile only changes the constant factors. Callers that know their
/// steady-state event population and typical scheduling lookahead pass
/// `Wheel` and get O(1) amortized schedule/pop; everyone else keeps the
/// binary heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueProfile {
    /// A binary heap: O(log n) schedule/pop, no sizing hints required.
    /// This is the default for [`EventQueue::new`].
    Heap,
    /// A calendar queue ([`TimingWheel`]): O(1) amortized schedule/pop
    /// for workloads whose pending population and lookahead are roughly
    /// known up front.
    Wheel {
        /// Expected steady-state number of concurrently pending events.
        expected_events: usize,
        /// Typical scheduling lookahead (how far ahead of `now` most
        /// events are pushed). Events far past this take a slow-path
        /// overflow heap, which is correct but O(log n).
        typical_delay: SimDuration,
    },
}

/// The pending-event store: a plain binary heap or a timing wheel.
#[derive(Clone, Debug)]
enum QueueBackend<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    Wheel(TimingWheel<E>),
}

/// A priority queue of future events ordered by activation time.
///
/// The default backend is a [`BinaryHeap`]; [`EventQueue::with_profile`]
/// selects a [`TimingWheel`] (calendar queue) that pops the identical
/// `(time, seq)` sequence with O(1) amortized schedule/pop. Most users
/// interact with it through [`Scheduler`]; it is public so custom
/// kernels can reuse it.
///
/// ```
/// use scrip_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().map(|s| s.event), Some("sooner"));
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    backend: QueueBackend<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            backend: QueueBackend::Heap(BinaryHeap::new()),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with heap capacity for `capacity` pending
    /// events. Self-perpetuating models (n spend loops + n leave timers)
    /// know their steady-state queue population up front; pre-reserving
    /// keeps the hot push/pop cycle free of reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            backend: QueueBackend::Heap(BinaryHeap::with_capacity(capacity)),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with the backend `profile` selects.
    pub fn with_profile(profile: QueueProfile) -> Self {
        let backend = match profile {
            QueueProfile::Heap => QueueBackend::Heap(BinaryHeap::new()),
            QueueProfile::Wheel {
                expected_events,
                typical_delay,
            } => QueueBackend::Wheel(TimingWheel::new(expected_events, typical_delay)),
        };
        EventQueue {
            backend,
            next_seq: 0,
        }
    }

    /// Reserves capacity for at least `additional` further events (heap
    /// capacity for the heap backend; spread across the bucket ring
    /// plus live-region headroom for the wheel).
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.backend {
            QueueBackend::Heap(h) => h.reserve(additional),
            QueueBackend::Wheel(w) => w.reserve(additional),
        }
    }

    /// The number of pending events the queue can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        match &self.backend {
            QueueBackend::Heap(h) => h.capacity(),
            QueueBackend::Wheel(w) => w.capacity(),
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let scheduled = Scheduled { time, seq, event };
        match &mut self.backend {
            QueueBackend::Heap(h) => h.push(scheduled),
            QueueBackend::Wheel(w) => w.push(scheduled),
        }
    }

    /// Re-enqueues an already-sequenced event, preserving its original
    /// `(time, seq)` identity.
    ///
    /// This is the restore primitive for snapshots and checkpoints:
    /// because the sequence number is kept, a queue rebuilt from a
    /// drained snapshot pops in the order the original would have. The
    /// local counter is bumped past `scheduled.seq` so later
    /// [`EventQueue::push`]es on this queue never collide with it.
    pub fn push_scheduled(&mut self, scheduled: Scheduled<E>) {
        self.next_seq = self.next_seq.max(scheduled.seq + 1);
        match &mut self.backend {
            QueueBackend::Heap(h) => h.push(scheduled),
            QueueBackend::Wheel(w) => w.push(scheduled),
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        match &mut self.backend {
            QueueBackend::Heap(h) => h.pop(),
            QueueBackend::Wheel(w) => w.pop(),
        }
    }

    /// The activation time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            QueueBackend::Heap(h) => h.peek().map(|s| s.time),
            QueueBackend::Wheel(w) => w.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            QueueBackend::Heap(h) => h.len(),
            QueueBackend::Wheel(w) => w.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        match &mut self.backend {
            QueueBackend::Heap(h) => h.clear(),
            QueueBackend::Wheel(w) => w.clear(),
        }
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
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Creates a scheduler whose queue is pre-sized for `capacity`
    /// pending events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
        }
    }

    /// Creates a scheduler whose queue uses the backend `profile`
    /// selects (see [`EventQueue::with_profile`]).
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

    /// Reserves queue capacity for at least `additional` further events
    /// (see [`EventQueue::reserve`]). Models with a known steady-state
    /// event population call this once at bootstrap.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
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

    /// Whether the queue is empty.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Activation time of the next event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Re-enqueues an already-sequenced event, preserving its
    /// `(time, seq)` identity (see [`EventQueue::push_scheduled`]).
    /// Unlike [`Scheduler::schedule_at`] the activation time is *not*
    /// clamped to the clock — routed events carry times from the
    /// sequencing scheduler, which never runs ahead of this one.
    pub fn enqueue_scheduled(&mut self, scheduled: Scheduled<E>) {
        self.queue.push_scheduled(scheduled);
    }

    /// Pops the next event and advances the clock to its activation time.
    pub(crate) fn advance(&mut self) -> Option<Scheduled<E>> {
        let scheduled = self.queue.pop()?;
        debug_assert!(scheduled.time >= self.now, "event queue went backwards");
        self.now = scheduled.time;
        Some(scheduled)
    }

    /// Advances the clock to `time` without dispatching events (used by the
    /// kernel when running up to a horizon with no events left before it).
    pub(crate) fn advance_clock_to(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }

    /// Drops all pending events (used when a simulation is aborted).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Restores the clock to an absolute instant captured by a
    /// checkpoint. The clock never runs backwards: restoring to a time
    /// before `now` is a no-op, exactly like the kernel-internal
    /// horizon advance.
    pub fn restore_clock(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }
}

impl<E: Clone> Scheduler<E> {
    /// Every pending event in ascending `(time, seq)` order, without
    /// disturbing the queue — the checkpointing primitive. Both queue
    /// backends are `Clone`, so the snapshot clones the queue and
    /// drains the clone; the live queue, its clock, and its sequence
    /// counter are untouched.
    pub fn snapshot_events(&self) -> Vec<Scheduled<E>> {
        let mut clone = self.queue.clone();
        let mut events = Vec::with_capacity(clone.len());
        while let Some(ev) = clone.pop() {
            events.push(ev);
        }
        events
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
        s.advance_clock_to(SimTime::from_secs(10));
        s.schedule_at(SimTime::from_secs(1), ());
        let ev = s.advance().expect("event");
        assert_eq!(ev.time, SimTime::from_secs(10));
        assert_eq!(s.now(), SimTime::from_secs(10));
    }

    #[test]
    fn scheduler_advance_moves_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(4), 7);
        assert_eq!(s.pending(), 1);
        let ev = s.advance().expect("event");
        assert_eq!(ev.event, 7);
        assert_eq!(s.now(), SimTime::from_secs(4));
        assert!(s.is_idle());
    }

    #[test]
    fn with_capacity_pre_reserves() {
        let q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
        let mut q = EventQueue::with_capacity(8);
        for i in 0..8 {
            q.push(SimTime::from_secs(i), i);
        }
        assert_eq!(q.len(), 8);
        assert!(q.capacity() >= 8);
    }

    #[test]
    fn scheduler_reserve_prevents_growth() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.reserve(100);
        let cap = s.capacity();
        assert!(cap >= 100);
        // A steady-state push/pop cycle within the reserved capacity
        // never grows the heap.
        for i in 0..100 {
            s.schedule_after(SimDuration::from_secs(i), i as u32);
        }
        for _ in 0..1_000 {
            let ev = s.advance().expect("event");
            s.schedule_after(SimDuration::from_secs(1), ev.event);
        }
        assert_eq!(s.capacity(), cap, "steady-state cycling reallocated");
    }

    #[test]
    fn wheel_profile_pops_like_heap() {
        let profile = QueueProfile::Wheel {
            expected_events: 128,
            typical_delay: SimDuration::from_secs(2),
        };
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut wheel: EventQueue<u32> = EventQueue::with_profile(profile);
        for (secs, ev) in [(3, 0), (1, 1), (1, 2), (900, 3), (2, 4), (0, 5)] {
            heap.push(SimTime::from_secs(secs), ev);
            wheel.push(SimTime::from_secs(secs), ev);
        }
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => assert_eq!((x.time, x.seq), (y.time, y.seq)),
                (None, None) => break,
                _ => panic!("backends disagree on queue length"),
            }
        }
    }

    #[test]
    fn wheel_scheduler_preserves_routed_sequence_numbers() {
        let profile = QueueProfile::Wheel {
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
        let first = s.advance().expect("event");
        let second = s.advance().expect("event");
        assert_eq!((first.seq, first.event), (41, 7));
        assert_eq!((second.seq, second.event), (42, 8));
    }

    #[test]
    fn snapshot_round_trips_through_enqueue_scheduled() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.advance_clock_to(SimTime::from_secs(2));
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
            match (s.advance(), restored.advance()) {
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

    #[test]
    fn clear_empties_queue() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(1), 1);
        s.schedule_after(SimDuration::from_secs(2), 2);
        s.clear();
        assert!(s.is_idle());
        assert_eq!(s.next_event_time(), None);
    }
}
