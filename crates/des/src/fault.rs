//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] turns a seed plus a [`FaultSpec`] into a reproducible
//! schedule of typed faults ([`FaultKind`]): peer crashes, dropped or
//! delayed deliveries, and defections (credits taken, goods never
//! delivered). Faults enter a simulation as **first-class events** —
//! the model asks the plan for an outcome or a crash time and schedules
//! the result through its ordinary [`crate::Scheduler`], so fault
//! events flow through the same [`crate::EventQueue`]/
//! [`crate::TimingWheel`] machinery as everything else.
//!
//! ## The determinism argument
//!
//! The plan draws from a **dedicated RNG stream** derived from the root
//! seed via [`SeedSequence::derive`] (stream index
//! [`FaultPlan::STREAM`]), never from the model's global stream. Two
//! consequences:
//!
//! * With faults disabled the plan is never constructed and the global
//!   stream is untouched, so every fault-free golden stays
//!   byte-identical.
//! * Plan draws are consumed in **event-apply order**. The kernel
//!   applies events in strict `(time, seq)` order — time first, ties
//!   broken by scheduling order — and that order is a function of the
//!   seed alone, so the fault schedule, and everything downstream of
//!   it, is byte-identical across runs and thread counts.

use crate::rng::{SeedSequence, SimRng};
use crate::time::{SimDuration, SimTime};

/// The typed faults a plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A peer dies abruptly, taking its wallet (and any in-flight
    /// trades) with it.
    PeerCrash,
    /// A delivery is lost in transit; the buyer's credits stay escrowed
    /// and the trade retries.
    DeliveryDrop,
    /// A delivery arrives late — no credits move, the completion is
    /// rescheduled.
    DeliveryDelay,
    /// The seller takes the escrowed credits and never delivers.
    Defect,
}

/// The outcome the plan assigns to one delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The delivery completes normally.
    Delivered,
    /// The delivery is lost ([`FaultKind::DeliveryDrop`]).
    Dropped,
    /// The seller defects ([`FaultKind::Defect`]).
    Defected,
    /// The delivery is delayed ([`FaultKind::DeliveryDelay`]).
    Delayed,
}

/// Declarative description of a fault workload: per-attempt fault
/// rates, the crash target fraction, and the onset time before which
/// no fault fires. This is the validated `faults.*` scenario surface;
/// the timing constants below it have sensible defaults and are not
/// scenario keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability a delivery attempt is dropped in transit.
    pub drop_rate: f64,
    /// Probability the seller defects on a delivery attempt.
    pub defect_rate: f64,
    /// Probability a delivery attempt is delayed.
    pub delay_rate: f64,
    /// Fraction of peers scheduled to crash (applied per peer as an
    /// independent Bernoulli draw, so the realized fraction converges
    /// to the target).
    pub crash_fraction: f64,
    /// No fault fires before this instant; crashes scheduled for
    /// earlier are pushed past it.
    pub onset: SimTime,
    /// Maximum retry attempts per trade before the escrow refunds.
    pub max_retries: u32,
    /// Mean in-transit latency of a delivery (exponential).
    pub delivery_mean: SimDuration,
    /// Mean extra latency a [`DeliveryOutcome::Delayed`] attempt waits
    /// before completing (exponential).
    pub delay_mean: SimDuration,
    /// First-retry backoff; attempt `k` waits `base * 2^(k-1)`, capped.
    pub backoff_base: SimDuration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Mean delay from onset to a scheduled crash (exponential), so
    /// crashes spread over the run instead of all firing at the onset.
    pub crash_spread: SimDuration,
}

impl Default for FaultSpec {
    /// No faults; timing constants at their documented defaults.
    fn default() -> Self {
        FaultSpec {
            drop_rate: 0.0,
            defect_rate: 0.0,
            delay_rate: 0.0,
            crash_fraction: 0.0,
            onset: SimTime::ZERO,
            max_retries: 3,
            delivery_mean: SimDuration::from_millis(250),
            delay_mean: SimDuration::from_secs(5),
            backoff_base: SimDuration::from_millis(500),
            backoff_cap: SimDuration::from_secs(30),
            crash_spread: SimDuration::from_secs(500),
        }
    }
}

impl FaultSpec {
    /// Checks rates and timing constants.
    ///
    /// # Errors
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("drop rate", self.drop_rate),
            ("defect rate", self.defect_rate),
            ("delay rate", self.delay_rate),
            ("crash fraction", self.crash_fraction),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if self.drop_rate + self.defect_rate + self.delay_rate > 1.0 {
            return Err(format!(
                "drop + defect + delay rates must not exceed 1, got {}",
                self.drop_rate + self.defect_rate + self.delay_rate
            ));
        }
        if self.delivery_mean.is_zero() {
            return Err("delivery mean must be positive".into());
        }
        if self.backoff_base.is_zero() {
            return Err("backoff base must be positive".into());
        }
        if self.backoff_cap < self.backoff_base {
            return Err("backoff cap must be at least the backoff base".into());
        }
        Ok(())
    }

    /// Whether any fault can ever fire under this spec.
    pub fn any_faults(&self) -> bool {
        self.drop_rate > 0.0
            || self.defect_rate > 0.0
            || self.delay_rate > 0.0
            || self.crash_fraction > 0.0
    }
}

/// Counters for injected faults and the recovery machinery they
/// exercised. All zero when fault injection is disabled. Shared by
/// every fault-consuming model (the queue-level credit market and the
/// chunk-level streaming system) so observation layers read one shape.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Trades settled through the escrow delivery path.
    pub delivered: u64,
    /// Delivery attempts dropped in transit (including attempts whose
    /// seller departed mid-flight, which the buyer observes as a drop).
    pub dropped: u64,
    /// Delivery attempts on which the seller took the escrow and never
    /// delivered.
    pub defected: u64,
    /// Delivery attempts that arrived late and were rescheduled.
    pub delayed: u64,
    /// Retry attempts scheduled after failed deliveries.
    pub retries: u64,
    /// Trades abandoned after exhausting the retry budget, their
    /// escrow refunded to the buyer.
    pub refunded: u64,
    /// Peers removed by injected crashes.
    pub crashes: u64,
    /// Histogram of concluded trades by final attempt number:
    /// `retry_depth[k]` counts trades that ended (settled, refunded,
    /// or abandoned after a defection) on attempt `k + 1`. Models whose
    /// retries are implicit (the streaming pull loop re-requests failed
    /// chunks organically) leave it empty.
    pub retry_depth: Vec<u64>,
}

impl FaultStats {
    /// Attempt-level delivery failures: drops plus defections.
    pub fn failed_attempts(&self) -> u64 {
        self.dropped + self.defected
    }

    /// Records that a trade concluded on `attempt`.
    pub fn note_conclusion(&mut self, attempt: u32) {
        let idx = attempt.saturating_sub(1) as usize;
        if self.retry_depth.len() <= idx {
            self.retry_depth.resize(idx + 1, 0);
        }
        self.retry_depth[idx] += 1;
    }
}

/// Capped exponential backoff with deterministic jitter: attempt `k`
/// (1-based) waits `base * 2^(k-1)` capped at `cap`, scaled by a jitter
/// factor in `[0.5, 1.5)` derived from `jitter01 ∈ [0, 1)`. The caller
/// supplies the jitter draw (the market uses its global stream, per the
/// recovery contract), so the schedule is a pure function of its
/// inputs.
pub fn retry_backoff(
    base: SimDuration,
    cap: SimDuration,
    attempt: u32,
    jitter01: f64,
) -> SimDuration {
    let doubled = base
        .as_micros()
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
    let capped = doubled.min(cap.as_micros()).max(1);
    let jittered = (capped as f64 * (0.5 + jitter01.clamp(0.0, 1.0))).round() as u64;
    SimDuration::from_micros(jittered.max(1))
}

/// A seed-derived fault schedule: the deterministic oracle models
/// consult when injecting faults. See the [module docs](self) for the
/// determinism argument.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SimRng,
    outcomes_drawn: u64,
}

impl FaultPlan {
    /// The [`SeedSequence`] stream index reserved for fault plans. Any
    /// model-side stream derivation must avoid this index.
    pub const STREAM: u64 = 0xFA17;

    /// Builds a plan for `spec`, drawing from the dedicated fault
    /// stream of `root_seed`.
    ///
    /// # Errors
    /// Returns the message from [`FaultSpec::validate`].
    pub fn new(spec: FaultSpec, root_seed: u64) -> Result<Self, String> {
        spec.validate()?;
        Ok(FaultPlan {
            spec,
            rng: SeedSequence::new(root_seed).rng(Self::STREAM),
            outcomes_drawn: 0,
        })
    }

    /// The spec this plan realizes.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Number of delivery outcomes drawn so far (a cheap cross-check
    /// for determinism tests).
    pub fn outcomes_drawn(&self) -> u64 {
        self.outcomes_drawn
    }

    /// The outcome of one delivery attempt applied at instant `now`.
    /// Before the onset every attempt succeeds without consuming a
    /// draw; after it, exactly one uniform draw decides the outcome.
    pub fn delivery_outcome(&mut self, now: SimTime) -> DeliveryOutcome {
        let fault_mass = self.spec.drop_rate + self.spec.defect_rate + self.spec.delay_rate;
        if now < self.spec.onset || fault_mass <= 0.0 {
            return DeliveryOutcome::Delivered;
        }
        self.outcomes_drawn += 1;
        let u = self.rng.uniform_f64();
        if u < self.spec.drop_rate {
            DeliveryOutcome::Dropped
        } else if u < self.spec.drop_rate + self.spec.defect_rate {
            DeliveryOutcome::Defected
        } else if u < self.spec.drop_rate + self.spec.defect_rate + self.spec.delay_rate {
            DeliveryOutcome::Delayed
        } else {
            DeliveryOutcome::Delivered
        }
    }

    /// The in-transit latency of a delivery attempt (exponential with
    /// mean [`FaultSpec::delivery_mean`]).
    pub fn delivery_latency(&mut self) -> SimDuration {
        self.exp(self.spec.delivery_mean)
    }

    /// The extra wait of a [`DeliveryOutcome::Delayed`] attempt
    /// (exponential with mean [`FaultSpec::delay_mean`]).
    pub fn delay_penalty(&mut self) -> SimDuration {
        self.exp(self.spec.delay_mean)
    }

    /// Decides whether a peer (first seen at `now`) crashes, and if so
    /// when: a Bernoulli draw at [`FaultSpec::crash_fraction`], then an
    /// exponential spread past the onset. Call once per peer, in
    /// event-apply order (bootstrap slot order for the initial
    /// population, join order for churned-in peers).
    pub fn crash_delay(&mut self, now: SimTime) -> Option<SimDuration> {
        if self.spec.crash_fraction <= 0.0 {
            return None;
        }
        if !self.rng.chance(self.spec.crash_fraction) {
            return None;
        }
        let to_onset = if now < self.spec.onset {
            self.spec.onset - now
        } else {
            SimDuration::ZERO
        };
        Some(to_onset + self.exp(self.spec.crash_spread))
    }

    /// Capped exponential backoff for retry `attempt`, jittered by a
    /// caller-supplied uniform draw (see [`retry_backoff`]).
    pub fn backoff(&self, attempt: u32, jitter01: f64) -> SimDuration {
        retry_backoff(
            self.spec.backoff_base,
            self.spec.backoff_cap,
            attempt,
            jitter01,
        )
    }

    /// The plan's RNG state, for checkpointing (pair with
    /// [`FaultPlan::outcomes_drawn`] and the spec, which is rebuilt
    /// from configuration).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the RNG state and outcome counter captured by a
    /// checkpoint.
    pub fn restore(&mut self, state: [u64; 4], outcomes_drawn: u64) {
        self.rng = SimRng::from_state(state);
        self.outcomes_drawn = outcomes_drawn;
    }

    fn exp(&mut self, mean: SimDuration) -> SimDuration {
        let u = self.rng.uniform_open01();
        SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty_spec() -> FaultSpec {
        FaultSpec {
            drop_rate: 0.2,
            defect_rate: 0.1,
            delay_rate: 0.1,
            crash_fraction: 0.3,
            onset: SimTime::from_secs(10),
            ..FaultSpec::default()
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(FaultSpec::default().validate().is_ok());
        assert!(faulty_spec().validate().is_ok());
        let bad = FaultSpec {
            drop_rate: 1.5,
            ..FaultSpec::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultSpec {
            drop_rate: 0.6,
            defect_rate: 0.6,
            ..FaultSpec::default()
        };
        assert!(bad.validate().is_err(), "rates summing past 1");
        let bad = FaultSpec {
            crash_fraction: -0.1,
            ..FaultSpec::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultSpec {
            backoff_cap: SimDuration::from_millis(1),
            ..FaultSpec::default()
        };
        assert!(bad.validate().is_err(), "cap below base");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::new(faulty_spec(), 99).expect("valid");
        let mut b = FaultPlan::new(faulty_spec(), 99).expect("valid");
        let t = SimTime::from_secs(100);
        for _ in 0..500 {
            assert_eq!(a.delivery_outcome(t), b.delivery_outcome(t));
            assert_eq!(a.delivery_latency(), b.delivery_latency());
            assert_eq!(a.crash_delay(SimTime::ZERO), b.crash_delay(SimTime::ZERO));
        }
        assert_eq!(a.outcomes_drawn(), 500);
    }

    #[test]
    fn fault_stream_is_independent_of_the_model_stream() {
        // The plan must not consume or depend on the root-seeded global
        // stream: the derived stream differs from the root stream.
        let mut plan = FaultPlan::new(faulty_spec(), 7).expect("valid");
        let mut root = SimRng::seed_from_u64(7);
        let t = SimTime::from_secs(50);
        let plan_draws: Vec<DeliveryOutcome> = (0..16).map(|_| plan.delivery_outcome(t)).collect();
        let mut replay = FaultPlan::new(faulty_spec(), 7).expect("valid");
        let replay_draws: Vec<DeliveryOutcome> =
            (0..16).map(|_| replay.delivery_outcome(t)).collect();
        assert_eq!(plan_draws, replay_draws);
        // Consuming the root stream does not perturb a fresh plan.
        for _ in 0..64 {
            root.uniform_f64();
        }
        let mut after = FaultPlan::new(faulty_spec(), 7).expect("valid");
        let after_draws: Vec<DeliveryOutcome> =
            (0..16).map(|_| after.delivery_outcome(t)).collect();
        assert_eq!(plan_draws, after_draws);
    }

    #[test]
    fn no_fault_before_onset() {
        let mut plan = FaultPlan::new(faulty_spec(), 3).expect("valid");
        for s in 0..10u64 {
            assert_eq!(
                plan.delivery_outcome(SimTime::from_secs(s)),
                DeliveryOutcome::Delivered
            );
        }
        assert_eq!(plan.outcomes_drawn(), 0, "pre-onset draws are free");
        // Crashes never land before the onset either.
        let mut crashes = 0;
        for _ in 0..200 {
            if let Some(d) = plan.crash_delay(SimTime::ZERO) {
                assert!(SimTime::ZERO + d >= plan.spec().onset);
                crashes += 1;
            }
        }
        assert!(crashes > 20, "crash fraction 0.3 yielded {crashes}/200");
    }

    #[test]
    fn outcome_rates_converge() {
        let mut plan = FaultPlan::new(faulty_spec(), 11).expect("valid");
        let t = SimTime::from_secs(1_000);
        let n = 20_000;
        let mut dropped = 0;
        let mut defected = 0;
        let mut delayed = 0;
        for _ in 0..n {
            match plan.delivery_outcome(t) {
                DeliveryOutcome::Dropped => dropped += 1,
                DeliveryOutcome::Defected => defected += 1,
                DeliveryOutcome::Delayed => delayed += 1,
                DeliveryOutcome::Delivered => {}
            }
        }
        let rate = |c: i32| c as f64 / n as f64;
        assert!((rate(dropped) - 0.2).abs() < 0.01, "{}", rate(dropped));
        assert!((rate(defected) - 0.1).abs() < 0.01, "{}", rate(defected));
        assert!((rate(delayed) - 0.1).abs() < 0.01, "{}", rate(delayed));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = SimDuration::from_millis(500);
        let cap = SimDuration::from_secs(30);
        // Jitter 0.5 is the identity factor.
        assert_eq!(retry_backoff(base, cap, 1, 0.5), base);
        assert_eq!(retry_backoff(base, cap, 2, 0.5), SimDuration::from_secs(1));
        assert_eq!(retry_backoff(base, cap, 3, 0.5), SimDuration::from_secs(2));
        assert_eq!(retry_backoff(base, cap, 30, 0.5), cap);
        // Jitter spans [0.5x, 1.5x).
        let lo = retry_backoff(base, cap, 1, 0.0);
        let hi = retry_backoff(base, cap, 1, 0.999);
        assert_eq!(lo, SimDuration::from_millis(250));
        assert!(hi > base && hi < SimDuration::from_millis(750));
        // Never zero, even for degenerate inputs.
        assert!(retry_backoff(SimDuration::from_micros(1), cap, 1, 0.0) > SimDuration::ZERO);
    }

    #[test]
    fn rng_state_round_trips() {
        let mut plan = FaultPlan::new(faulty_spec(), 21).expect("valid");
        let t = SimTime::from_secs(60);
        for _ in 0..37 {
            plan.delivery_outcome(t);
            plan.delivery_latency();
        }
        let state = plan.rng_state();
        let drawn = plan.outcomes_drawn();
        let tail: Vec<DeliveryOutcome> = (0..64).map(|_| plan.delivery_outcome(t)).collect();
        let mut resumed = FaultPlan::new(faulty_spec(), 21).expect("valid");
        resumed.restore(state, drawn);
        let resumed_tail: Vec<DeliveryOutcome> =
            (0..64).map(|_| resumed.delivery_outcome(t)).collect();
        assert_eq!(tail, resumed_tail);
        assert_eq!(plan.outcomes_drawn(), resumed.outcomes_drawn());
    }

    #[test]
    fn disabled_spec_draws_nothing() {
        let mut plan = FaultPlan::new(FaultSpec::default(), 5).expect("valid");
        assert!(!plan.spec().any_faults());
        assert!(faulty_spec().any_faults());
        for s in 0..100u64 {
            assert_eq!(
                plan.delivery_outcome(SimTime::from_secs(s)),
                DeliveryOutcome::Delivered
            );
            assert_eq!(plan.crash_delay(SimTime::from_secs(s)), None);
        }
        assert_eq!(plan.outcomes_drawn(), 0);
    }
}
