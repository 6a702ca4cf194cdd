//! Property-based tests for the simulation kernel and distributions.

use proptest::prelude::*;
use scrip_des::dist::{AliasTable, Exp, Geometric, Poisson};
use scrip_des::{
    EventQueue, FenwickSampler, Model, QueueProfile, Scheduler, SimDuration, SimRng, SimTime,
    Simulation,
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

struct Recorder {
    seen: Vec<SimTime>,
}

impl Model for Recorder {
    type Event = ();
    fn handle(&mut self, now: SimTime, _ev: (), _s: &mut Scheduler<()>) {
        self.seen.push(now);
    }
}

proptest! {
    /// Events are always delivered in non-decreasing time order, no
    /// matter the scheduling order.
    #[test]
    fn events_delivered_in_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
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
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
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

    /// Geometric mean matches (1−p)/p.
    #[test]
    fn geometric_mean(p in 0.05f64..1.0, seed in 0u64..500) {
        let dist = Geometric::new(p).expect("valid");
        let mut rng = SimRng::seed_from_u64(seed);
        let n = 4_000;
        let total: u64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - p) / p;
        let sd = ((1.0 - p).max(1e-9)).sqrt() / p;
        prop_assert!((mean - expected).abs() < 6.0 * sd / (n as f64).sqrt() + 0.05,
            "mean {mean} vs expected {expected}");
    }

    /// Alias tables only ever emit valid indices, with positive-weight
    /// support.
    #[test]
    fn alias_table_support(weights in prop::collection::vec(0.0f64..10.0, 1..50), seed in 0u64..100) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights).expect("valid");
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..500 {
            let idx = table.sample(&mut rng);
            prop_assert!(idx < weights.len());
        }
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

    /// A wheel-backed `EventQueue` pops the exact `(time, seq)` sequence
    /// the binary-heap backend pops, under random interleavings of
    /// schedule/pop with same-time ties and far-future overflow
    /// events, for arbitrary wheel sizing hints.
    #[test]
    fn wheel_pops_exact_heap_sequence(
        ops in prop::collection::vec((0u8..4, 0u64..40, 0u64..1_000), 1..250),
        expected_events in 1usize..600,
        delay_micros in 1u64..5_000_000,
    ) {
        let profile = QueueProfile::Wheel {
            expected_events,
            typical_delay: SimDuration::from_micros(delay_micros),
        };
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut wheel: EventQueue<u64> = EventQueue::with_profile(profile);
        let mut ev = 0u64;
        for &(op, coarse, fine) in &ops {
            match op {
                // Push within a narrow window: coarse in seconds forces
                // bucket collisions, fine-only times force (time, seq)
                // ties.
                0 | 1 => {
                    let t = SimTime::from_micros(coarse * 1_000_000 + (op as u64) * fine);
                    heap.push(t, ev);
                    wheel.push(t, ev);
                    ev += 1;
                }
                // Far-future push: lands in the wheel's overflow heap.
                2 => {
                    let t = SimTime::from_secs(3_600 + coarse);
                    heap.push(t, ev);
                    wheel.push(t, ev);
                    ev += 1;
                }
                _ => {
                    let (a, b) = (heap.pop(), wheel.pop());
                    prop_assert_eq!(a.as_ref().map(|s| (s.time, s.seq, s.event)),
                                    b.as_ref().map(|s| (s.time, s.seq, s.event)));
                }
            }
            prop_assert_eq!(heap.len(), wheel.len());
            prop_assert_eq!(heap.peek_time(), wheel.peek_time());
        }
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            prop_assert_eq!(a.as_ref().map(|s| (s.time, s.seq, s.event)),
                            b.as_ref().map(|s| (s.time, s.seq, s.event)));
            if a.is_none() {
                break;
            }
        }
    }
}
