//! The pending-event queue: a calendar queue (timing wheel).
//!
//! [`EventQueue`] pops events in exact `(time, seq)` order, as a binary
//! heap would, with O(1) amortized schedule/pop at the near-constant
//! event horizon this DES has (every peer keeps roughly one spend timer
//! and one churn timer in flight, so the pending population is dense
//! and the lookahead is bounded). A [`QueueProfile`] sizes it.
//!
//! Layout: simulated time (integer microseconds) is split into
//! power-of-two **buckets** of `1 << bucket_shift` µs. Events whose
//! bucket is at or before the wheel's `floor` are **live**: they sit in
//! a **run** sorted latest first, or in a small **side** binary heap,
//! and a pop takes the earlier of the run's last entry and the side
//! heap's root. Events within the wheel's lookahead window live in
//! unordered per-bucket lists; events past the window sit in an
//! **overflow** min-heap.
//! The bucket lists are intrusive: every wheel event occupies one slot
//! of a slab (`items`), each bucket keeps the `u32` index of its first
//! slot, and a parallel `links` array the index of each slot's next.
//! Keeping the links apart from the events keeps them dense (4 bytes a
//! slot, in L2 at n = 10⁵), so a list walk chases links there and
//! loads the events independently. Freed slots form a LIFO free list
//! through the same links, so a push reuses the slot the last pop just
//! freed.
//! When no event is live, the wheel *rotates*: the floor advances to
//! the earliest non-empty bucket — considering both the wheel window
//! (via an occupancy bitmap, scanned 64 buckets per word) and the
//! overflow heap's peek — and every event of that bucket (from its
//! list *and* any overflow stragglers whose bucket now matches) is
//! collected into the run, which is sorted once by `(time, seq)` and
//! then popped from its end in O(1). An event pushed into the floor
//! bucket after that merge takes the side heap, so a burst of pushes
//! at one instant costs O(log k) each, where inserting each into the
//! sorted run would cost O(k).
//!
//! The bucket count is capped at 2¹⁵, so a queue sized for more events
//! than that keeps several events per bucket (about 12–24 for the
//! n = 10⁵ market). A queue sized for more than 2¹⁶ events lists the
//! next bucket's events once each time its floor advances
//! ([`EventQueue::take_next_bucket`]), so the kernel can show the model
//! about one bucket of upcoming events before they are popped. Smaller
//! queues list nothing.
//!
//! Invariants:
//! - every live event has `bucket(time) <= floor`; every wheel/overflow
//!   event has `bucket(time) > floor`, so the earlier of the run's last
//!   entry and the side heap's root is always the global minimum;
//! - the run stays sorted latest first: only a rotation, which finds
//!   the run and the side heap both empty, adds to it;
//! - the floor only advances (rotation picks the minimum candidate
//!   bucket, so no event is ever left behind it);
//! - the slab never holds more slots than the largest number of events
//!   the window has held at once, which is at most the largest pending
//!   population; the slab, the run and both heaps retain capacity
//!   across drains, so a steady-state schedule/pop cycle stops
//!   allocating after warmup.

use std::collections::BinaryHeap;

use crate::event::Scheduled;
use crate::time::{SimDuration, SimTime};

/// Bounds on the bucket count: at least one word of occupancy bitmap,
/// at most 2^15 buckets (128 KiB of `u32` list heads). Past the cap a
/// bucket holds several events, which keeps the heads array small and
/// gives the next-bucket lookahead something to list; at n = 10⁵ a
/// bucket holds ~12–24 events against ~3–6 with 2^17 buckets.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 15;

/// Queues sized for more events than this list the next bucket on each
/// floor advance: twice the bucket cap, so a bucket holds ~8 events or
/// more. A smaller queue belongs to a model small enough to stay in
/// cache, where the walk costs more than it warms (−5% on a 10⁴-peer
/// faulted market sized for 40 002 events).
const LISTING_EVENTS: usize = 2 * MAX_BUCKETS;

/// How many typical delays the wheel window spans. For exponential
/// delays, the share of events pushed past the window (into the
/// O(log n) overflow heap) is `e^-WINDOW_DELAYS` ≈ 2%.
const WINDOW_DELAYS: u64 = 4;

/// The end of a bucket list, and of the free list.
const NIL: u32 = u32::MAX;

/// How to size an [`EventQueue`]: the steady-state population and the
/// typical scheduling lookahead. The sizing changes only constant
/// factors, never the pop order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueProfile {
    /// Expected steady-state number of concurrently pending events.
    pub expected_events: usize,
    /// Typical scheduling lookahead (how far ahead of `now` most
    /// events are pushed). The wheel window spans four typical
    /// delays; events pushed past it take a slow-path overflow heap,
    /// which is correct but O(log n).
    pub typical_delay: SimDuration,
}

impl Default for QueueProfile {
    /// 64 pending events, one second ahead: the sizing of
    /// [`EventQueue::new`].
    fn default() -> Self {
        QueueProfile {
            expected_events: 64,
            typical_delay: SimDuration::from_secs(1),
        }
    }
}

/// A priority queue of future events ordered by `(time, seq)`: events
/// scheduled for the same instant pop in the order they were pushed.
/// See the [module docs](self) for the layout. Most users interact with
/// it through [`crate::Scheduler`]; it is public so custom kernels can
/// reuse it.
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
    /// The floor bucket's events as the last rotation merged them,
    /// sorted latest first, so the earliest is the last entry.
    run: Vec<Scheduled<E>>,
    /// Live events pushed after the last rotation, ordered by
    /// `(time, seq)`.
    side: BinaryHeap<Scheduled<E>>,
    /// Slab slots shared by every bucket list: a wheel event, or `None`
    /// while the slot is free.
    items: Vec<Option<Scheduled<E>>>,
    /// Each slab slot's next slot in its bucket list or in the free
    /// list, or `NIL`.
    links: Vec<u32>,
    /// First slot of each bucket slot's list in `(floor, floor +
    /// nbuckets)`, or `NIL` when the bucket is empty.
    heads: Vec<u32>,
    /// First slot of the free list, or `NIL`.
    free: u32,
    /// One bit per bucket slot: set while the slot's list is non-empty.
    occupancy: Vec<u64>,
    /// Events whose bucket falls past the wheel window.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Bucket width is `1 << bucket_shift` microseconds.
    bucket_shift: u32,
    /// Absolute index of the floor bucket (not masked).
    floor: u64,
    /// Total pending events across the run, the side heap, the buckets
    /// and the overflow heap.
    len: usize,
    /// The sequence number the next [`EventQueue::push`] assigns.
    next_seq: u64,
    /// Whether the profile expects more than [`LISTING_EVENTS`], so
    /// each floor advance lists the next bucket.
    lists_next_bucket: bool,
    /// Set when the floor of a listing wheel advances, and cleared
    /// when [`EventQueue::take_next_bucket`] lists the bucket after it.
    next_bucket_due: bool,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue sized by [`QueueProfile::default`].
    pub fn new() -> Self {
        Self::with_profile(QueueProfile::default())
    }

    /// Creates an empty queue sized for `profile`.
    ///
    /// The bucket count is the power of two nearest `expected_events`
    /// (clamped to `[64, 32768]`) and the bucket width is chosen so the
    /// wheel window covers at least four typical delays; events
    /// scheduled further ahead (exponential tails, churn lifetimes, far
    /// sample boundaries) take the overflow heap, which is correct but
    /// O(log n). The slab is reserved for `expected_events`, and the
    /// run and the side heap for a few buckets' worth of events each.
    pub fn with_profile(profile: QueueProfile) -> Self {
        let QueueProfile {
            expected_events,
            typical_delay,
        } = profile;
        let nbuckets = expected_events
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let span_micros = typical_delay
            .as_micros()
            .max(1)
            .saturating_mul(WINDOW_DELAYS);
        let mut shift = 0u32;
        while (nbuckets as u64) << shift < span_micros && shift < 46 {
            shift += 1;
        }
        let live_reserve = 2 * (expected_events / nbuckets) + 64;
        EventQueue {
            run: Vec::with_capacity(live_reserve),
            side: BinaryHeap::with_capacity(live_reserve),
            items: Vec::with_capacity(expected_events),
            links: Vec::with_capacity(expected_events),
            heads: vec![NIL; nbuckets],
            free: NIL,
            occupancy: vec![0u64; nbuckets / 64],
            overflow: BinaryHeap::new(),
            bucket_shift: shift,
            floor: 0,
            len: 0,
            next_seq: 0,
            lists_next_bucket: expected_events > LISTING_EVENTS,
            next_bucket_due: false,
        }
    }

    /// Number of buckets in the wheel window.
    fn nbuckets(&self) -> u64 {
        self.heads.len() as u64
    }

    /// The ring slot of absolute bucket `bucket` (the bucket count is a
    /// power of two).
    fn slot_of(&self, bucket: u64) -> usize {
        (bucket & (self.nbuckets() - 1)) as usize
    }

    /// The absolute bucket index of `time`.
    fn bucket_of(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.bucket_shift
    }

    /// The events of the bucket list that starts at slot `cursor`, in
    /// list order (most recently pushed first).
    fn list_from(&self, mut cursor: u32) -> impl Iterator<Item = &Scheduled<E>> {
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let index = cursor as usize;
            cursor = self.links[index];
            self.items[index].as_ref()
        })
    }

    fn set_occupied(&mut self, slot: usize) {
        self.occupancy[slot / 64] |= 1u64 << (slot % 64);
    }

    fn clear_occupied(&mut self, slot: usize) {
        self.occupancy[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events the queue can hold without any structure
    /// reallocating: the sum of the run, side-heap, overflow and slab
    /// capacities.
    pub fn capacity(&self) -> usize {
        self.run.capacity()
            + self.side.capacity()
            + self.overflow.capacity()
            + self.items.capacity()
    }

    /// Schedules `event` at absolute time `time`, after every event
    /// already pushed for the same instant.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Scheduled { time, seq, event });
    }

    /// Re-enqueues an already-sequenced event, preserving its original
    /// `(time, seq)` identity.
    ///
    /// This is the restore primitive for snapshots and checkpoints:
    /// because the sequence number is kept, a queue rebuilt from
    /// [`EventQueue::snapshot_events`] pops in the order the original
    /// would have. The counter is bumped past `scheduled.seq` so later
    /// [`EventQueue::push`]es never collide with it.
    pub fn push_scheduled(&mut self, scheduled: Scheduled<E>) {
        self.next_seq = self.next_seq.max(scheduled.seq + 1);
        self.insert(scheduled);
    }

    /// Files an already-sequenced event into the side heap, its bucket
    /// list or the overflow heap.
    fn insert(&mut self, scheduled: Scheduled<E>) {
        let b = self.bucket_of(scheduled.time);
        self.len += 1;
        if b <= self.floor {
            self.side.push(scheduled);
        } else if b < self.floor + self.nbuckets() {
            let slot = self.slot_of(b);
            let next = self.heads[slot];
            self.heads[slot] = if self.free == NIL {
                let index = u32::try_from(self.items.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("event queue holds fewer than 2^32 - 1 events");
                self.items.push(Some(scheduled));
                self.links.push(next);
                index
            } else {
                let index = self.free;
                self.free = std::mem::replace(&mut self.links[index as usize], next);
                self.items[index as usize] = Some(scheduled);
                index
            };
            self.set_occupied(slot);
        } else {
            self.overflow.push(scheduled);
        }
    }

    /// The earliest non-empty bucket strictly after the floor within the
    /// wheel window, as an absolute bucket index.
    fn next_occupied_bucket(&self) -> Option<u64> {
        let nbuckets = self.nbuckets();
        let start = self.slot_of(self.floor + 1);
        let words = self.occupancy.len();
        // Scan the bitmap circularly from `start`, one word at a time.
        let mut word_idx = start / 64;
        let mut word = self.occupancy[word_idx] & !((1u64 << (start % 64)) - 1);
        for _ in 0..=words {
            if word != 0 {
                let slot = word_idx * 64 + word.trailing_zeros() as usize;
                // Map the slot back to its absolute bucket in
                // (floor, floor + nbuckets).
                let offset = (slot as u64 + nbuckets - start as u64) & (nbuckets - 1);
                return Some(self.floor + 1 + offset);
            }
            word_idx = (word_idx + 1) % words;
            word = self.occupancy[word_idx];
            if word_idx == start / 64 {
                // Back at the starting word: only the bits we masked off
                // initially remain unchecked.
                word &= (1u64 << (start % 64)) - 1;
            }
        }
        None
    }

    /// Advances the floor to the earliest non-empty bucket, if that
    /// bucket is at or before `limit`, collects its events (its list
    /// and overflow stragglers alike) into the run, returning the
    /// list's slots to the free list, and sorts the run latest first.
    /// The caller has found no event live. No-op if nothing is pending
    /// or the earliest bucket lies past `limit`.
    fn rotate(&mut self, limit: u64) {
        debug_assert!(self.run.is_empty() && self.side.is_empty());
        let wheel_next = self.next_occupied_bucket();
        let overflow_next = self.overflow.peek().map(|s| self.bucket_of(s.time));
        let target = match (wheel_next, overflow_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        if target > limit {
            return;
        }
        debug_assert!(target > self.floor, "wheel floor went backwards");
        self.floor = target;
        self.next_bucket_due = self.lists_next_bucket;
        if wheel_next == Some(target) {
            let slot = self.slot_of(target);
            let mut cursor = std::mem::replace(&mut self.heads[slot], NIL);
            while cursor != NIL {
                let index = cursor as usize;
                cursor = std::mem::replace(&mut self.links[index], self.free);
                self.free = index as u32;
                let item = self.items[index].take();
                self.run.push(item.expect("listed slot holds an event"));
            }
            self.clear_occupied(slot);
        }
        while let Some(s) = self.overflow.peek() {
            if self.bucket_of(s.time) != target {
                break;
            }
            let s = self.overflow.pop().expect("peeked overflow entry");
            self.run.push(s);
        }
        // `Scheduled`'s order is reversed (earlier is greater), so an
        // ascending sort puts the earliest event last.
        self.run.sort_unstable();
    }

    /// The earliest live event and whether it is the side heap's root
    /// (else the run's last entry), or `None` when no event is live.
    fn live_head(&self) -> Option<(&Scheduled<E>, bool)> {
        match (self.run.last(), self.side.peek()) {
            (Some(last), Some(root)) if root > last => Some((root, true)),
            (Some(last), _) => Some((last, false)),
            (None, root) => root.map(|root| (root, true)),
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `horizon`, and otherwise leaves the queue as it is.
    ///
    /// This is [`EventQueue::peek_time`] and [`EventQueue::pop`] in one
    /// pass: at a rotation boundary the bitmap is scanned once, and the
    /// wheel rotates only into a bucket that starts at or before
    /// `horizon`, so the floor never passes the horizon's bucket and
    /// events pushed at or after `horizon` later still file as usual.
    ///
    /// ```
    /// use scrip_des::{EventQueue, SimTime};
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_secs(5), "later");
    /// assert!(q.pop_due(SimTime::from_secs(4)).is_none());
    /// assert_eq!(q.pop_due(SimTime::from_secs(5)).map(|s| s.event), Some("later"));
    /// ```
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        if self.run.is_empty() && self.side.is_empty() {
            self.rotate(self.bucket_of(horizon));
        }
        let (head, from_side) = self.live_head()?;
        if head.time > horizon {
            return None;
        }
        self.len -= 1;
        if from_side {
            self.side.pop()
        } else {
            self.run.pop()
        }
    }

    /// The earliest live event, without rotating: the earlier of the
    /// run's last entry and the side heap's root, which is the next
    /// event to pop unless an earlier one is pushed first. `None` when
    /// no event is live (a rotation boundary), even if events are
    /// pending. O(1).
    pub fn peek_live(&self) -> Option<&Scheduled<E>> {
        self.live_head().map(|(head, _)| head)
    }

    /// The events listed in the bucket just after the floor, once per
    /// floor advance, on a queue sized for more than 2¹⁶ events;
    /// otherwise nothing.
    ///
    /// These are the events that come up after the live ones, so a
    /// kernel can show them to its model ahead of time (see
    /// [`crate::Model::prefetch`]). The walk reads each slot's link
    /// and event, which the rotation into that bucket reads again.
    /// Events of that bucket still in the overflow heap are not
    /// listed, and an event pushed into it later is not listed either.
    /// A smaller queue's model tends to fit in cache, where the walk
    /// costs more than it warms, so it yields nothing. Listing never
    /// changes the pop order.
    ///
    /// ```
    /// use scrip_des::{EventQueue, QueueProfile, SimDuration, SimTime};
    /// let mut q = EventQueue::with_profile(QueueProfile {
    ///     expected_events: 1 << 20,
    ///     typical_delay: SimDuration::from_secs(1),
    /// });
    /// let width = q.bucket_width();
    /// q.push(SimTime::ZERO + width, "first");
    /// q.push(SimTime::ZERO + width + width, "second");
    /// assert_eq!(q.pop().map(|s| s.event), Some("first"));
    /// let listed: Vec<_> = q.take_next_bucket().map(|s| s.event).collect();
    /// assert_eq!(listed, ["second"]);
    /// assert_eq!(q.take_next_bucket().count(), 0, "listed once per floor");
    /// ```
    pub fn take_next_bucket(&mut self) -> impl Iterator<Item = &Scheduled<E>> {
        let head = if std::mem::take(&mut self.next_bucket_due) {
            self.heads[self.slot_of(self.floor + 1)]
        } else {
            NIL
        };
        self.list_from(head)
    }

    /// Whether the floor has advanced since the last
    /// [`EventQueue::take_next_bucket`] on a queue that lists.
    pub(crate) fn next_bucket_due(&self) -> bool {
        self.next_bucket_due
    }

    /// The span of simulated time one bucket covers. Buckets are
    /// aligned to multiples of it, and a rotation merges one bucket
    /// into the run.
    pub fn bucket_width(&self) -> SimDuration {
        SimDuration::from_micros(1 << self.bucket_shift)
    }

    /// The activation time of the earliest pending event, without
    /// rotating. O(1) while an event is live; at a rotation boundary
    /// it costs one bitmap scan plus one bucket-list walk.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.peek_live() {
            return Some(s.time);
        }
        let wheel_min = self.next_occupied_bucket().and_then(|b| {
            self.list_from(self.heads[self.slot_of(b)])
                .map(|s| s.time)
                .min()
        });
        let overflow_min = self.overflow.peek().map(|s| s.time);
        // Buckets partition time monotonically, so the raw minimum over
        // the two candidates is the global minimum.
        match (wheel_min, overflow_min) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (None, None) => None,
        }
    }
}

impl<E: Clone> EventQueue<E> {
    /// Every pending event in pop order, without disturbing the queue:
    /// the entries of the run, the side heap, the slab and the overflow
    /// heap, sorted by `(time, seq)`.
    pub fn snapshot_events(&self) -> Vec<Scheduled<E>> {
        let mut events = Vec::with_capacity(self.len);
        events.extend(self.run.iter().cloned());
        events.extend(self.side.iter().cloned());
        events.extend(self.items.iter().flatten().cloned());
        events.extend(self.overflow.iter().cloned());
        events.sort_unstable_by_key(|s| (s.time, s.seq));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Exp;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    fn sched(micros: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_micros(micros),
            seq,
            event: seq,
        }
    }

    fn queue(expected_events: usize, typical_delay: SimDuration) -> EventQueue<u64> {
        EventQueue::with_profile(QueueProfile {
            expected_events,
            typical_delay,
        })
    }

    fn drain(w: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|s| (s.time.as_micros(), s.seq))).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = queue(16, SimDuration::from_micros(1 << 8));
        for (t, seq) in [(300, 0), (100, 1), (100, 2), (7_000_000, 3), (0, 4)] {
            w.push_scheduled(sched(t, seq));
        }
        assert_eq!(w.len(), 5);
        assert_eq!(
            drain(&mut w),
            vec![(0, 4), (100, 1), (100, 2), (300, 0), (7_000_000, 3)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_merges_with_wheel_bucket() {
        // An overflow event whose bucket falls inside the window after
        // the floor advances must not be overtaken by a later wheel
        // event in the same bucket.
        let mut w = queue(64, SimDuration::from_micros(64));
        // Bucket width is 2 µs here (64 buckets * 2 µs = 128 µs window),
        // so t=200 is bucket 100: outside the initial window -> overflow.
        let far = 200;
        w.push_scheduled(sched(far, 0));
        w.push_scheduled(sched(120, 1)); // bucket 60: inside the window
        assert_eq!(w.pop().map(|s| s.seq), Some(1));
        // The floor advanced to bucket 60, so bucket 100 is now inside
        // the window: schedule a wheel event in the same bucket as (and
        // later than) the overflow straggler.
        w.push_scheduled(sched(far + 1, 2));
        assert_eq!(drain(&mut w), vec![(far, 0), (far + 1, 2)]);
    }

    #[test]
    fn peek_time_reports_earliest_without_mutation() {
        let mut w = queue(32, SimDuration::from_secs(1));
        assert_eq!(w.peek_time(), None);
        w.push_scheduled(sched(5_000_000, 0));
        w.push_scheduled(sched(2_000_000, 1));
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(2_000_000)));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().map(|s| s.seq), Some(1));
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(5_000_000)));
    }

    #[test]
    fn steady_state_cycle_stops_allocating() {
        let mut w = queue(256, SimDuration::from_millis(10));
        let mut seq = 0u64;
        // Deterministic jitter spreads the population over many buckets,
        // like the exponential spend timers do in the market.
        let delay = |seq: u64| 5_000 + (seq * 97) % 10_000;
        for _ in 0..256 {
            w.push_scheduled(sched(delay(seq), seq));
            seq += 1;
        }
        // Warm up many full wheel revolutions so the slab and both
        // heaps have grown to their working size.
        for _ in 0..300_000 {
            let s = w.pop().expect("event");
            w.push_scheduled(sched(s.time.as_micros() + delay(seq), seq));
            seq += 1;
        }
        let cap = w.capacity();
        for _ in 0..100_000 {
            let s = w.pop().expect("event");
            w.push_scheduled(sched(s.time.as_micros() + delay(seq), seq));
            seq += 1;
        }
        assert_eq!(w.capacity(), cap, "steady-state cycling reallocated");
    }

    /// Sized past the listing threshold, the wheel keeps ~13 events per
    /// bucket here and still pops a binary heap's exact sequence. Each
    /// floor advance lists the next bucket once: only pending events of
    /// that bucket, and between them nearly every event popped.
    #[test]
    fn capped_wheel_pops_the_heap_sequence_and_lists_each_next_bucket() {
        let n = 1u64 << 16;
        let mean = SimDuration::from_millis(10);
        let mut w = queue(4 * n as usize, mean);
        assert_eq!(w.heads.len(), MAX_BUCKETS);
        let width = w.bucket_width().as_micros();
        let exp = Exp::new(1.0 / mean.as_micros() as f64).expect("positive rate");
        let mut rng = SimRng::seed_from_u64(3);
        // The binary-heap model, and each pending seq's time.
        let mut heap = BinaryHeap::new();
        let mut pending = BTreeMap::new();
        let (pops, mut listed, mut walks, mut last_floor) = (4 * n, 0u64, 0u64, None);
        for seq in 0..n + pops {
            let mut at = 0;
            if seq >= n {
                let s = w.pop().expect("event");
                assert_eq!(Some(&s), heap.pop().as_ref(), "pops in (time, seq) order");
                pending.remove(&s.seq);
                at = s.time.as_micros();
                let next: Vec<_> = w.take_next_bucket().map(|s| (s.time, s.seq)).collect();
                if !next.is_empty() {
                    assert!(last_floor < Some(w.floor), "a floor listed twice");
                    last_floor = Some(w.floor);
                    walks += 1;
                    listed += next.len() as u64;
                }
                for (time, seq) in next {
                    assert_eq!(
                        pending.get(&seq),
                        Some(&time.as_micros()),
                        "listed, not pending"
                    );
                    assert_eq!(time.as_micros() / width, w.floor + 1);
                }
            }
            at += exp.sample(&mut rng) as u64;
            pending.insert(seq, at);
            heap.push(sched(at, seq));
            w.push_scheduled(sched(at, seq));
        }
        let per_bucket = listed as f64 / walks as f64;
        assert!(
            (8.0..20.0).contains(&per_bucket),
            "{per_bucket} events per bucket"
        );
        assert!(
            listed as f64 > 0.9 * pops as f64,
            "listed {listed} of {pops} pops"
        );
    }

    /// The memory bound of the slab layout: under exponential delays
    /// (unbounded tails, the market's spend timers) a pre-sized wheel
    /// holds at most twice its pending population plus the fixed
    /// headroom of the run and the side heap. Storage that keeps each bucket's own high-water
    /// occupancy reaches 8–15× the population at these sizes.
    #[test]
    fn exponential_cycle_capacity_stays_within_twice_the_population() {
        for n in [256usize, 4_096] {
            let mean = SimDuration::from_millis(10);
            let mut w = queue(n, mean);
            let headroom = w.run.capacity() + w.side.capacity();
            let exp = Exp::new(1.0 / mean.as_micros() as f64).expect("positive rate");
            let mut rng = SimRng::seed_from_u64(n as u64);
            let mut delay = || exp.sample(&mut rng) as u64;
            for seq in 0..n as u64 {
                w.push_scheduled(sched(delay(), seq));
            }
            for seq in n as u64..200 * n as u64 {
                let s = w.pop().expect("event");
                w.push_scheduled(sched(s.time.as_micros() + delay(), seq));
            }
            assert_eq!(w.len(), n);
            assert!(
                w.capacity() <= 2 * n + headroom,
                "{n} pending events hold capacity {} (> 2 × {n} + {headroom})",
                w.capacity()
            );
        }
    }
}
