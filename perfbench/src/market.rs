//! The `churn` and `static` workloads: one queue-level asymmetric
//! credit market on one thread, built and run to a fixed horizon as
//! many times as the run's time allows.

use crate::layers;
use crate::report::{self, median, Report};
use scrip_core::market::{ChurnConfig, CreditMarket, MarketConfig, MarketEvent};
use scrip_core::obs::Session;
use scrip_des::{SimDuration, SimTime, Simulation};
use std::time::Instant;

/// Every timed run builds and runs the market at least this often, so
/// set-up time is a median and every repetition is checked against the
/// first.
const MIN_REPS: usize = 3;

/// A queue-level market workload: the market, how far each repetition
/// runs, and the simulated-time tick that is one "job" of the latency
/// metrics.
pub struct MarketWorkload {
    pub config: MarketConfig,
    pub horizon: SimTime,
    pub tick: SimDuration,
}

impl MarketWorkload {
    /// `churn`: n = 10⁵ with arrivals n/500 per s, 500 s lifespans and
    /// 20 attachments per joiner. `static`: the same market without churn.
    pub fn named(name: &str) -> Self {
        let base = |n: usize| {
            MarketConfig::new(n, 50)
                .sample_interval(SimDuration::from_secs(50))
                .asymmetric()
        };
        match name {
            "churn" => {
                let n = 100_000;
                let churn = ChurnConfig::new(n as f64 / 500.0, 500.0, 20).expect("valid churn");
                MarketWorkload {
                    config: base(n).churn(churn),
                    horizon: SimTime::from_secs(6),
                    tick: SimDuration::from_millis(100),
                }
            }
            "static" => MarketWorkload {
                config: base(100_000),
                horizon: SimTime::from_secs(10),
                tick: SimDuration::from_millis(100),
            },
            other => unreachable!("not a market workload: {other}"),
        }
    }
}

/// Builds the market and its simulation, with the bootstrap event
/// scheduled: the set-up a user pays before the first event.
fn build(config: &MarketConfig, seed: u64) -> Simulation<CreditMarket> {
    let market = CreditMarket::build(config.clone(), seed).expect("workload market builds");
    let profile = market.queue_profile();
    let mut sim = Simulation::with_profile(market, profile);
    sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
    sim
}

/// What every run of one seed must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Outcome {
    digest: u64,
    events: u64,
    conserved: bool,
}

impl Outcome {
    fn of(market: &CreditMarket, events: u64) -> Self {
        Outcome {
            digest: market.state_digest(),
            events,
            conserved: market.ledger().conserved(),
        }
    }
}

/// The untraced run: repeat set-up + run-to-horizon until `seconds` of
/// run time are measured, checking each repetition against the first.
pub fn timed(w: &MarketWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut rep_walls: Vec<f64> = Vec::new();
    let mut ticks = Vec::new();
    let mut first: Option<Outcome> = None;
    while rep_walls.len() < MIN_REPS || rep_walls.iter().sum::<f64>() < seconds {
        let t0 = Instant::now();
        let mut sim = build(&w.config, seed);
        setups.push(t0.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut t = SimTime::ZERO;
        while t < w.horizon {
            t = (t + w.tick).min(w.horizon);
            let tick_start = Instant::now();
            sim.run_until(t);
            ticks.push(tick_start.elapsed().as_secs_f64());
        }
        rep_walls.push(start.elapsed().as_secs_f64());

        let outcome = Outcome::of(sim.model(), sim.stats().events_processed);
        let reference = *first.get_or_insert(outcome);
        report.check(
            outcome.conserved && outcome == reference,
            &format!(
                "repetition {} gave {outcome:?}, first gave {reference:?}",
                rep_walls.len()
            ),
        );
    }
    // Rates are medians over repetitions, so a burst of load from
    // outside the run moves one repetition, not the result.
    let events_per_rep = first.map_or(0, |o| o.events) as f64;
    let rates: Vec<f64> = rep_walls.iter().map(|w| events_per_rep / w).collect();
    let ticks_per_rep = ticks.len() as f64 / rep_walls.len() as f64;
    let tick_rates: Vec<f64> = rep_walls.iter().map(|w| ticks_per_rep / w).collect();
    println!(
        "# repetitions={} events/rep={} horizon={}s set-ups={:?} runs={:?}",
        rep_walls.len(),
        first.map_or(0, |o| o.events),
        w.horizon.as_secs_f64(),
        setups,
        rep_walls
    );
    report.metric("events_per_s", median(&rates), "1/s");
    report.metric("wall_s", median(&rep_walls), "s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    report.metric("jobs_per_s", median(&tick_rates), "1/s");
    report::latency_metrics(&mut report, "tick latency", &ticks);
    report
}

/// The traced run of a market workload.
pub fn traced(w: &MarketWorkload, seed: u64) -> Report {
    let mut report = Report::new();
    trace_market(&mut report, &w.config, seed, w.horizon);
    layers::zero_served_layers(&mut report);
    report
}

/// Event kinds the tap charges time to (`OTHER` = bootstrap, crash).
pub const KINDS: [&str; 5] = ["join", "spend", "leave", "deliver", "sample"];
const OTHER: usize = KINDS.len();

pub fn kind(event: &MarketEvent) -> usize {
    match event {
        MarketEvent::Join => 0,
        MarketEvent::Spend(_) => 1,
        MarketEvent::Leave(_) => 2,
        MarketEvent::Deliver { .. } => 3,
        MarketEvent::Sample => 4,
        MarketEvent::Bootstrap | MarketEvent::Crash(_) => OTHER,
    }
}

/// Wall time charged per event kind by a `run_until_traced` tap: the
/// time between consecutive taps goes to the earlier event's kind.
#[derive(Default)]
pub struct KindTally {
    pub ns: [f64; KINDS.len() + 1],
    pub count: [u64; KINDS.len() + 1],
}

impl KindTally {
    /// Mean handler time of `kind` in ns (0 when it never ran).
    pub fn ns_per_event(&self, kind: usize) -> f64 {
        if self.count[kind] == 0 {
            0.0
        } else {
            self.ns[kind] / self.count[kind] as f64
        }
    }
}

/// Runs `sim` to `horizon` through the tap, charging each interval
/// between taps to the kind `classify` gives the earlier event.
/// Returns the tally and the traced wall time in seconds.
pub fn run_tapped<M: scrip_des::Model>(
    sim: &mut Simulation<M>,
    horizon: SimTime,
    classify: impl Fn(&M::Event) -> usize,
) -> (KindTally, f64) {
    let mut tally = KindTally::default();
    let start = Instant::now();
    let mut last = start;
    let mut last_kind = OTHER;
    sim.run_until_traced(horizon, &mut |_, _, event| {
        let now = Instant::now();
        tally.ns[last_kind] += (now - last).as_nanos() as f64;
        last = now;
        last_kind = classify(event);
        tally.count[last_kind] += 1;
        true
    });
    let end = Instant::now();
    tally.ns[last_kind] += (end - last).as_nanos() as f64;
    (tally, (end - start).as_secs_f64())
}

/// The traced run of one queue-level market: untraced [`Session`]
/// runs (the reference wall time, then checkpoint encode/decode of the
/// end state), a tapped run of the same market, and the layer
/// measurements on the tapped run's end state. Checks that all three
/// end states agree and the books balance.
pub fn trace_market(report: &mut Report, config: &MarketConfig, seed: u64, horizon: SimTime) {
    // The untraced reference is the median of three runs; the last
    // one's end state is checkpointed.
    let mut untraced_walls = Vec::new();
    let mut session = None;
    for _ in 0..3 {
        let mut s = Session::from_config(config, seed).expect("workload session builds");
        let start = Instant::now();
        s.run_until(horizon);
        untraced_walls.push(start.elapsed().as_secs_f64());
        session = Some(s);
    }
    let session = session.expect("three untraced runs");
    let untraced = median(&untraced_walls);
    let t = Instant::now();
    let bytes = session
        .checkpoint()
        .expect("single-case queue market checkpoints");
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let resumed = Session::resume(config, Vec::new(), &bytes).expect("checkpoint resumes");
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    let digest_of = |s: Session| {
        s.finish()
            .1
            .queue()
            .expect("queue-level market")
            .state_digest()
    };
    let (session_digest, resumed_digest) = (digest_of(session), digest_of(resumed));

    let mut sim = build(config, seed);
    let (tally, traced) = run_tapped(&mut sim, horizon, kind);
    let market = sim.model();
    report.check(
        market.ledger().conserved(),
        "traced run: credits not conserved",
    );
    report.check(
        market.state_digest() == session_digest,
        "traced run and session run end in different states",
    );
    report.check(
        resumed_digest == session_digest,
        "resumed checkpoint differs from the state it was taken from",
    );

    for (k, name) in KINDS.iter().enumerate() {
        report.metric(&format!("market.{name}_ns"), tally.ns_per_event(k), "ns");
        report.metric(
            &format!("market.{name}_count"),
            tally.count[k] as f64,
            "count",
        );
    }
    report.metric("market.join_share", tally.ns[0] / (traced * 1e9), "frac");
    let attempts = market.purchases() + market.denied();
    let purchase_ratio = market.purchases() as f64 / attempts.max(1) as f64;
    report.metric("market.purchase_ratio", purchase_ratio, "frac");
    let audit = market.memory_audit();
    report.metric(
        "market.bytes_per_peer",
        audit.total_bytes() as f64 / audit.peers as f64,
        "B",
    );
    report.metric("market.trace_overhead", traced / untraced - 1.0, "frac");
    let charged: f64 = tally.ns.iter().sum::<f64>() / 1e9;
    report.metric("market.tap_gap", (traced - charged) / traced, "frac");

    let costs = layers::market_layers(report, &sim, seed);
    // The layer model: each event kind's count times the cost of the
    // layer calls that kind makes, against the untraced wall time.
    let per_kind = [
        costs.join_ns,
        costs.queue_ns + costs.seller_ns + purchase_ratio * costs.transfer_ns,
        costs.leave_ns,
        costs.queue_ns,
        costs.gini_sample_ns,
    ];
    let modelled: f64 = per_kind
        .iter()
        .zip(tally.count)
        .map(|(ns, count)| ns * count as f64)
        .sum::<f64>()
        / 1e9;
    report.metric("market.layer_gap", (untraced - modelled) / untraced, "frac");
    println!(
        "# reconcile: untraced {untraced:.4}s, traced {traced:.4}s (overhead {:+.1}%), \
         tap charges {charged:.4}s, layer model {modelled:.4}s ({:.1}% of untraced); \
         joins take {:.1}% of traced wall",
        (traced / untraced - 1.0) * 100.0,
        modelled / untraced * 100.0,
        tally.ns[0] / (traced * 1e9) * 100.0
    );
    for (k, name) in KINDS.iter().enumerate() {
        println!(
            "#   {name:<8} count={:<9} traced {:>10.1} ns/event  share {:>5.1}%  layer model {:>10.1} ns/event",
            tally.count[k],
            tally.ns_per_event(k),
            tally.ns[k] / (traced * 1e9) * 100.0,
            per_kind[k]
        );
    }
    report.metric("snapshot.encode_ms", encode_ms, "ms");
    report.metric("snapshot.decode_ms", decode_ms, "ms");
    report.metric("snapshot.bytes", bytes.len() as f64, "B");
}
