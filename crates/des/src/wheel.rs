//! A calendar-queue (timing-wheel) pending-event store.
//!
//! [`TimingWheel`] is an alternative backend for [`crate::EventQueue`]
//! that pops the exact `(time, seq)` sequence a binary heap would, but
//! with O(1) amortized schedule/pop at the near-constant event horizon
//! this DES has (every peer keeps roughly one spend timer and one churn
//! timer in flight, so the pending population is dense and the lookahead
//! is bounded).
//!
//! Layout: simulated time (integer microseconds) is split into
//! power-of-two **buckets** of `1 << bucket_shift` µs. Events whose
//! bucket is at or before the wheel's `floor` live in a small **live**
//! binary heap (the only place ordering comparisons happen); events
//! within the wheel's lookahead window live in unordered per-bucket
//! `Vec`s; events past the window sit in an **overflow** min-heap.
//! Popping drains the live heap; when it empties, the wheel *rotates*:
//! the floor advances to the earliest non-empty bucket — considering
//! both the wheel window (via an occupancy bitmap, scanned 64 buckets
//! per word) and the overflow heap's peek — and every event of that
//! bucket (from the bucket `Vec` *and* any overflow stragglers whose
//! bucket now matches) is merged into the live heap, which restores
//! exact `(time, seq)` order within the bucket.
//!
//! Invariants:
//! - every live event has `bucket(time) <= floor`; every wheel/overflow
//!   event has `bucket(time) > floor`, so a non-empty live heap always
//!   holds the global minimum;
//! - the floor only advances (rotation picks the minimum candidate
//!   bucket, so no event is ever left behind it);
//! - bucket `Vec`s and both heaps retain capacity across drains, so a
//!   steady-state schedule/pop cycle stops allocating after warmup.

use std::collections::BinaryHeap;

use crate::event::Scheduled;
use crate::time::{SimDuration, SimTime};

/// Bounds on the bucket count: at least one word of occupancy bitmap,
/// at most 2^16 buckets (~1.5 MiB of empty `Vec` headers), past which
/// extra buckets stop paying for themselves.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 16;

/// A pending-event store that pops in exact `(time, seq)` order like a
/// binary heap, with O(1) amortized schedule/pop for bounded-lookahead
/// workloads. See the [module docs](self) for the layout.
#[derive(Clone, Debug)]
pub struct TimingWheel<E> {
    /// Events at or below the floor bucket, ordered by `(time, seq)`.
    live: BinaryHeap<Scheduled<E>>,
    /// Unordered event lists for buckets `(floor, floor + nbuckets)`.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// One bit per bucket slot: set while the slot's `Vec` is non-empty.
    occupancy: Vec<u64>,
    /// Events whose bucket falls past the wheel window.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Bucket width is `1 << bucket_shift` microseconds.
    bucket_shift: u32,
    /// Absolute index of the floor bucket (not masked).
    floor: u64,
    /// Total pending events across live + buckets + overflow.
    len: usize,
}

impl<E> TimingWheel<E> {
    /// Creates a wheel sized for `expected_events` concurrently pending
    /// events with a typical scheduling lookahead of `typical_delay`.
    ///
    /// The bucket count is the power of two nearest `expected_events`
    /// (clamped to `[64, 65536]`) and the bucket width is chosen so the
    /// wheel window covers at least twice the typical delay; events
    /// scheduled further ahead (churn lifetimes, far sample boundaries)
    /// take the overflow heap, which is correct but O(log n).
    pub fn new(expected_events: usize, typical_delay: SimDuration) -> Self {
        let nbuckets = expected_events
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let span_micros = typical_delay.as_micros().max(1).saturating_mul(2);
        let mut shift = 0u32;
        while (nbuckets as u64) << shift < span_micros && shift < 47 {
            shift += 1;
        }
        let per_bucket = (expected_events / nbuckets).max(4);
        TimingWheel {
            live: BinaryHeap::with_capacity(2 * per_bucket),
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            occupancy: vec![0u64; nbuckets / 64],
            overflow: BinaryHeap::new(),
            bucket_shift: shift,
            floor: 0,
            len: 0,
        }
    }

    /// Number of buckets in the wheel window.
    fn nbuckets(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// The absolute bucket index of `time`.
    fn bucket_of(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.bucket_shift
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

    /// Pre-sizes the wheel for `additional` more pending events, spread
    /// evenly across the bucket ring (which is where a steady-state
    /// population actually sits), plus a few buckets' worth of live-heap
    /// headroom for the rotation merges.
    pub fn reserve(&mut self, additional: usize) {
        let per_bucket = additional / self.buckets.len();
        if per_bucket > 0 {
            for bucket in &mut self.buckets {
                if bucket.capacity() < per_bucket {
                    bucket.reserve(per_bucket - bucket.capacity());
                }
            }
        }
        self.live.reserve(2 * per_bucket + 64);
    }

    /// Total events the wheel can hold without any structure
    /// reallocating: the sum of live, overflow, and bucket capacities.
    /// O(nbuckets); used by steady-state allocation tests, not hot code.
    pub fn capacity(&self) -> usize {
        self.live.capacity()
            + self.overflow.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Inserts an already-sequenced event.
    pub fn push(&mut self, scheduled: Scheduled<E>) {
        let b = self.bucket_of(scheduled.time);
        self.len += 1;
        if b <= self.floor {
            self.live.push(scheduled);
        } else if b < self.floor + self.nbuckets() {
            let slot = (b % self.nbuckets()) as usize;
            self.buckets[slot].push(scheduled);
            self.set_occupied(slot);
        } else {
            self.overflow.push(scheduled);
        }
    }

    /// The earliest non-empty bucket strictly after the floor within the
    /// wheel window, as an absolute bucket index.
    fn next_occupied_bucket(&self) -> Option<u64> {
        let nbuckets = self.nbuckets();
        let start = ((self.floor + 1) % nbuckets) as usize;
        let words = self.occupancy.len();
        // Scan the bitmap circularly from `start`, one word at a time.
        let mut word_idx = start / 64;
        let mut word = self.occupancy[word_idx] & !((1u64 << (start % 64)) - 1);
        for _ in 0..=words {
            if word != 0 {
                let slot = word_idx * 64 + word.trailing_zeros() as usize;
                // Map the slot back to its absolute bucket in
                // (floor, floor + nbuckets).
                let offset = (slot as u64 + nbuckets - (self.floor + 1) % nbuckets) % nbuckets;
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

    /// Advances the floor to the earliest non-empty bucket and merges
    /// that bucket's events (wheel `Vec` and overflow stragglers alike)
    /// into the live heap. No-op if anything is already live or nothing
    /// is pending.
    fn rotate(&mut self) {
        if !self.live.is_empty() {
            return;
        }
        let wheel_next = self.next_occupied_bucket();
        let overflow_next = self.overflow.peek().map(|s| self.bucket_of(s.time));
        let target = match (wheel_next, overflow_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        debug_assert!(target > self.floor, "wheel floor went backwards");
        self.floor = target;
        if wheel_next == Some(target) {
            let slot = (target % self.nbuckets()) as usize;
            // Move the Vec out so the borrow checker allows pushing into
            // the live heap; swap it back to keep its capacity.
            let mut drained = std::mem::take(&mut self.buckets[slot]);
            self.live.extend(drained.drain(..));
            self.buckets[slot] = drained;
            self.clear_occupied(slot);
        }
        while let Some(s) = self.overflow.peek() {
            if self.bucket_of(s.time) != target {
                break;
            }
            let s = self.overflow.pop().expect("peeked overflow entry");
            self.live.push(s);
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.live.is_empty() {
            self.rotate();
        }
        let popped = self.live.pop();
        if popped.is_some() {
            self.len -= 1;
        }
        popped
    }

    /// The activation time of the earliest pending event, without
    /// rotating. O(1) while the live heap is non-empty; at a rotation
    /// boundary it costs one bitmap scan plus one bucket scan.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.live.peek() {
            return Some(s.time);
        }
        let wheel_min = self.next_occupied_bucket().and_then(|b| {
            let slot = (b % self.nbuckets()) as usize;
            self.buckets[slot].iter().map(|s| s.time).min()
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

    /// Removes all pending events, retaining capacity. The floor is kept
    /// (simulation clocks never run backwards).
    pub fn clear(&mut self) {
        self.live.clear();
        self.overflow.clear();
        for slot in 0..self.buckets.len() {
            self.buckets[slot].clear();
        }
        self.occupancy.fill(0);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(micros: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_micros(micros),
            seq,
            event: seq,
        }
    }

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|s| (s.time.as_micros(), s.seq))).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new(16, SimDuration::from_micros(1 << 8));
        for (t, seq) in [(300, 0), (100, 1), (100, 2), (7_000_000, 3), (0, 4)] {
            w.push(sched(t, seq));
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
        let mut w = TimingWheel::new(64, SimDuration::from_micros(64));
        // Bucket width is 2 µs here (64 buckets * 2 µs = 128 µs window),
        // so t=200 is bucket 100: outside the initial window -> overflow.
        let far = 200;
        w.push(sched(far, 0));
        w.push(sched(120, 1)); // bucket 60: inside the window
        assert_eq!(w.pop().map(|s| s.seq), Some(1));
        // The floor advanced to bucket 60, so bucket 100 is now inside
        // the window: schedule a wheel event in the same bucket as (and
        // later than) the overflow straggler.
        w.push(sched(far + 1, 2));
        assert_eq!(drain(&mut w), vec![(far, 0), (far + 1, 2)]);
    }

    #[test]
    fn peek_time_reports_earliest_without_mutation() {
        let mut w = TimingWheel::new(32, SimDuration::from_secs(1));
        assert_eq!(w.peek_time(), None);
        w.push(sched(5_000_000, 0));
        w.push(sched(2_000_000, 1));
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(2_000_000)));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().map(|s| s.seq), Some(1));
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(5_000_000)));
    }

    #[test]
    fn steady_state_cycle_stops_allocating() {
        let mut w = TimingWheel::new(256, SimDuration::from_millis(10));
        let mut seq = 0u64;
        // Deterministic jitter spreads the population over many buckets,
        // like the exponential spend timers do in the market.
        let delay = |seq: u64| 5_000 + (seq * 97) % 10_000;
        for _ in 0..256 {
            w.push(sched(delay(seq), seq));
            seq += 1;
        }
        // Warm up many full wheel revolutions so every recycled bucket
        // Vec has grown to its working size.
        for _ in 0..300_000 {
            let s = w.pop().expect("event");
            w.push(sched(s.time.as_micros() + delay(seq), seq));
            seq += 1;
        }
        let cap = w.capacity();
        for _ in 0..100_000 {
            let s = w.pop().expect("event");
            w.push(sched(s.time.as_micros() + delay(seq), seq));
            seq += 1;
        }
        assert_eq!(w.capacity(), cap, "steady-state cycling reallocated");
    }

    #[test]
    fn clear_empties_but_keeps_floor_monotone() {
        let mut w = TimingWheel::new(8, SimDuration::from_millis(1));
        w.push(sched(10_000, 0));
        assert_eq!(w.pop().map(|s| s.seq), Some(0));
        w.push(sched(20_000, 1));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        // Events after clear() still pop correctly.
        w.push(sched(30_000, 2));
        w.push(sched(25_000, 3));
        assert_eq!(drain(&mut w), vec![(25_000, 3), (30_000, 2)]);
    }
}
