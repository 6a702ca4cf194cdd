//! The `scrip-sim bench` harness: end-to-end market throughput.
//!
//! Measures events/sec of the discrete-event market simulator across the
//! four queue-level hot regimes (asymmetric neighbor routing,
//! availability feedback, taxation, churn) at n ∈ {1k, 10k, 100k}, the
//! fault-injected churn market (`faulted`: 1% drop + 1% defect with
//! escrowed retries, timing the recovery machinery itself), the
//! chunk-level streaming market's trade loop, the cost of a wealth Gini
//! sample at large n, and the observation layer's probe-dispatch
//! overhead (a full probe set attached vs a detached recorder on the
//! n=10k market). Results are written to
//! `BENCH_market.json` (see
//! [`BenchReport::to_json`] for the schema), seeding the repo's
//! performance trajectory, and CI replays the quick-scale subset to
//! catch throughput regressions (see [`compare_against`]).
//!
//! The harness runs strictly single-threaded: each case is one seeded
//! simulation on one core, so events/sec is a clean per-core figure.

use std::time::Instant;

use scrip_core::market::{ChurnConfig, CreditMarket, MarketConfig, MarketEvent};
use scrip_core::obs::Session;
use scrip_core::policy::TaxConfig;
use scrip_core::protocol::build_streaming_market;
use scrip_core::streaming::{StreamEvent, StreamingConfig};
use scrip_des::{FaultSpec, SimDuration, SimTime, Simulation};

use crate::scale::RunScale;
use crate::scenario::{Metric, RunSpec};

/// One measured bench case.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Which hot path this case exercises: one of [`BENCH_REGIMES`].
    pub regime: String,
    /// Number of peers.
    pub n: usize,
    /// Scale the case ran at (`quick` or `full`).
    pub scale: String,
    /// Dispatched simulator events (Gini samples for `gini_sample`).
    pub events: u64,
    /// Wall-clock seconds for the measured section.
    pub wall_secs: f64,
    /// `events / wall_secs` — the headline throughput number.
    pub events_per_sec: f64,
    /// Resident-set high-water mark (bytes) of this case, if the
    /// platform exposes it (Linux `VmHWM`). [`run_bench`] resets the
    /// mark before every case ([`reset_peak_rss`]), so this is the
    /// case's own peak; where the reset is refused it is the process
    /// high-water mark, monotone across cases.
    pub peak_rss_bytes: Option<u64>,
}

/// A full bench run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Measured cases, in execution order (ascending n per regime).
    pub entries: Vec<BenchEntry>,
}

/// Reads the process peak RSS (`VmHWM`) in bytes on Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current resident set by writing `5` to `/proc/self/clear_refs`, so
/// the next [`peak_rss_bytes`] is the peak since this call. Returns
/// whether the kernel took the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The benched market configuration for a regime at size `n`.
fn regime_config(regime: &str, n: usize) -> MarketConfig {
    let base = MarketConfig::new(n, 50).sample_interval(SimDuration::from_secs(50));
    match regime {
        "asymmetric" => base.asymmetric(),
        "availability_feedback" => base.asymmetric().with_availability_feedback(),
        "tax" => base
            .asymmetric()
            .tax(TaxConfig::new(0.2, 40).expect("valid tax")),
        "churn" => {
            let lifespan = 500.0;
            base.asymmetric()
                .churn(ChurnConfig::new(n as f64 / lifespan, lifespan, 20).expect("valid churn"))
        }
        other => unreachable!("unknown bench regime {other}"),
    }
}

const REGIMES: [&str; 4] = ["asymmetric", "availability_feedback", "tax", "churn"];

/// Every row family `scrip-sim bench` measures, by `regime` name — the
/// values `--only` accepts.
pub const BENCH_REGIMES: [&str; 12] = [
    "asymmetric",
    "availability_feedback",
    "tax",
    "churn",
    "faulted",
    "churn_session",
    "churn_recorded",
    "streaming",
    "serve_stream",
    "probe_detached",
    "probe_attached",
    "gini_sample",
];

/// Case list at a scale: (regime, n, horizon_secs). Horizons shrink with
/// n so every case dispatches a comparable number of events (~2M full,
/// ~500k quick) — events/sec stays meaningful while wall-clock stays
/// bounded.
fn cases(scale: RunScale) -> Vec<(&'static str, usize, u64)> {
    // Quick's n=10⁴ rows are the scaled-down counterparts of the full
    // suite's n=10⁶ rows: same Fenwick-sampler + timing-wheel hot path,
    // small enough for the CI regression gate.
    let sizes: &[usize] = match scale {
        RunScale::Full => &[1_000, 10_000, 100_000, 1_000_000],
        RunScale::Quick => &[1_000, 10_000],
    };
    // Quick scale still dispatches ~500k events per case so each timed
    // window is hundreds of milliseconds — long enough that scheduler
    // jitter on a noisy CI runner stays well inside the 30% regression
    // gate.
    let target_events: u64 = match scale {
        RunScale::Full => 2_000_000,
        RunScale::Quick => 500_000,
    };
    let mut out = Vec::new();
    for &regime in &REGIMES {
        for &n in sizes {
            out.push((regime, n, (target_events / n as u64).max(10)));
        }
    }
    out
}

/// Measures one market case: build (untimed), then dispatch events to
/// the horizon (timed).
fn run_market_case(regime: &'static str, n: usize, horizon_secs: u64, scale: &str) -> BenchEntry {
    let market = CreditMarket::build(regime_config(regime, n), 42).expect("bench market builds");
    let profile = market.queue_profile();
    let mut sim = Simulation::with_profile(market, profile);
    sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
    let start = Instant::now();
    let stats = sim.run_until(SimTime::from_secs(horizon_secs));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    BenchEntry {
        regime: regime.into(),
        n,
        scale: scale.into(),
        events: stats.events_processed,
        wall_secs: wall,
        events_per_sec: stats.events_processed as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Fault-injection cases at a scale: `(n, horizon_secs)` — the churn
/// market with an active 1% drop + 1% defect fault plan, so every
/// trade walks the escrow hold/settle path and a steady trickle walks
/// refund + scheduled retry. Horizons match the queue-level event
/// targets, making this directly comparable with the fault-free
/// `churn` rows at the same n: the gap between the two is the all-in
/// cost of the recovery machinery.
fn faulted_cases(scale: RunScale) -> Vec<(usize, u64)> {
    match scale {
        RunScale::Full => vec![(100_000, 20)],
        RunScale::Quick => vec![(10_000, 50)],
    }
}

/// The `faulted` regime's market configuration: the `churn` regime plus
/// a fault plan injecting 1% drops and 1% defections from t = 0.
fn faulted_config(n: usize) -> MarketConfig {
    regime_config("churn", n).faults(FaultSpec {
        drop_rate: 0.01,
        defect_rate: 0.01,
        ..FaultSpec::default()
    })
}

/// Measures the fault-injected churn market. Build is untimed; event
/// dispatch to the horizon — including fault draws, escrow accounting,
/// refunds, and retry scheduling — is timed.
fn run_faulted_case(n: usize, horizon_secs: u64, scale: &str) -> BenchEntry {
    let market = CreditMarket::build(faulted_config(n), 42).expect("bench market builds");
    let profile = market.queue_profile();
    let mut sim = Simulation::with_profile(market, profile);
    sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
    let start = Instant::now();
    let stats = sim.run_until(SimTime::from_secs(horizon_secs));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let model = sim.model();
    assert!(model.faults_enabled(), "fault plan must be active");
    assert!(
        model.ledger().conserved(),
        "books must balance under faults"
    );
    BenchEntry {
        regime: "faulted".into(),
        n,
        scale: scale.into(),
        events: stats.events_processed,
        wall_secs: wall,
        events_per_sec: stats.events_processed as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Trace-recording cases at a scale: `(n, horizon_secs)` — the churn
/// regime driven through a [`Session`] that records every applied
/// event to a `SCRIPTRC` trace. The gap between the paired
/// `churn_session`/`churn_recorded` rows is the all-in cost of the
/// hot-path [`scrip_des::TraceWriter`] (buffered frame encode +
/// boundary digests + flushes), gated at <5% full scale / <10% quick
/// by [`record_overhead_failures`]. Both scales run n=10⁵ — the size
/// the headline claim is made at: the per-frame encode cost is fixed
/// (~0.1 µs), so at n=10⁴ (where quick's other rows live) it would be
/// ~11% of the cheaper per-event dispatch and the proxy would gate a
/// different ratio than the claim. Quick just shortens the horizon.
fn recorded_cases(scale: RunScale) -> Vec<(usize, u64)> {
    match scale {
        RunScale::Full => vec![(100_000, 20)],
        RunScale::Quick => vec![(100_000, 5)],
    }
}

/// Measures the trace-recording overhead as a *paired* experiment:
/// interleaved trials of the same churn-market [`Session`] run with
/// and without `record_to`, keeping each side's best throughput.
/// Returns `(churn_session, churn_recorded)` — the unrecorded anchor
/// and the recorded row. Pairing makes the comparison like-for-like
/// (both sides pay the identical `Session` dispatch path), and
/// best-of-N interleaving cancels the wall-clock noise a shared VM
/// injects into sub-second windows: noise only ever slows a trial
/// down, so the per-side maximum is the closest observation of the
/// true cost on both sides of the ratio.
///
/// The recorded side sinks to `/dev/null`: the row gates the
/// *hot-path* cost — per-event frame encode + checksum + staging —
/// which is what the trace layer controls. Physical write-out cost is
/// an environment property (on a multi-core host page-cache writeback
/// overlaps the run; on a single-core container it steals the only
/// CPU), and letting it into the row would gate the runner's disk,
/// not the code. Builds and trace attachment are untimed; event
/// dispatch to the horizon plus the final flush are timed.
fn run_recorded_case(n: usize, horizon_secs: u64, scale: &str) -> (BenchEntry, BenchEntry) {
    let config = regime_config("churn", n);
    let horizon = SimTime::from_secs(horizon_secs);
    let trace_path = std::path::PathBuf::from("/dev/null");
    // Three interleaved trials per side: noise on a shared runner only
    // ever slows a window down, so each side's best-of-3 is the
    // closest observation of its true cost, and interleaving keeps a
    // sustained slow patch from landing entirely on one side.
    let trials = 3;
    let mut best: [Option<(u64, f64)>; 2] = [None, None];
    for _ in 0..trials {
        for (side, record) in [(0usize, false), (1usize, true)] {
            let mut session = Session::from_config(&config, 42).expect("bench session builds");
            if record {
                session.record_to(&trace_path).expect("recording starts");
            }
            let start = Instant::now();
            session.run_until(horizon);
            if record {
                session.finish_trace().expect("trace completes");
            }
            let wall = start.elapsed().as_secs_f64().max(1e-9);
            let events = session.stats().events_processed;
            if best[side].map_or(true, |(_, w)| wall < w) {
                best[side] = Some((events, wall));
            }
        }
    }
    let entry = |regime: &str, (events, wall): (u64, f64)| BenchEntry {
        regime: regime.into(),
        n,
        scale: scale.into(),
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    };
    (
        entry("churn_session", best[0].expect("at least one trial")),
        entry("churn_recorded", best[1].expect("at least one trial")),
    )
}

/// Chunk-level streaming cases at a scale: `(n, horizon_secs)`. The
/// trade loop dispatches ~3 events per peer-second under
/// `market_paced(1.0)`, so these horizons land near the queue-level
/// event targets.
fn streaming_cases(scale: RunScale) -> Vec<(usize, u64)> {
    match scale {
        RunScale::Full => vec![(1_000, 100), (10_000, 40)],
        RunScale::Quick => vec![(1_000, 100)],
    }
}

/// Measures the chunk-level streaming market's trade loop: a
/// `market_paced(1.0)` swarm over the scale-free overlay with 50
/// credits per peer and uniform pricing, every chunk transfer settling
/// through the shared ledger. Build is untimed; event dispatch to the
/// horizon is timed.
fn run_streaming_case(n: usize, horizon_secs: u64, scale: &str) -> BenchEntry {
    let config = MarketConfig::new(n, 50)
        .streaming_market(StreamingConfig::market_paced(1.0))
        .sample_interval(SimDuration::from_secs(50));
    let system = build_streaming_market(&config, 42).expect("bench swarm builds");
    let profile = system.queue_profile();
    let mut sim = Simulation::with_profile(system, profile);
    sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
    let start = Instant::now();
    let stats = sim.run_until(SimTime::from_secs(horizon_secs));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    BenchEntry {
        regime: "streaming".into(),
        n,
        scale: scale.into(),
        events: stats.events_processed,
        wall_secs: wall,
        events_per_sec: stats.events_processed as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Measures the observation layer's dispatch overhead on the n=10k
/// asymmetric market: one [`Session`] with every metric's probe
/// attached (`probe_attached`, snapshots at mid-run and horizon) versus
/// a probe-less session (`probe_detached`, the zero-overhead fast
/// path). Probe dispatch is sample-time only, so the two rates should
/// track each other closely; the regression gate catches any creep of
/// observation cost onto the spend hot path.
fn run_probe_case(attached: bool, n: usize, horizon_secs: u64, scale: &str) -> BenchEntry {
    let config = regime_config("asymmetric", n);
    let mut session = Session::from_config(&config, 42).expect("bench session builds");
    if attached {
        let run = RunSpec {
            horizon_secs,
            snapshots: vec![horizon_secs / 2, horizon_secs],
            ..RunSpec::default()
        };
        for metric in Metric::ALL {
            session.attach(metric.make_probe(&run));
        }
    }
    let start = Instant::now();
    session.run_until(SimTime::from_secs(horizon_secs));
    let stats = session.stats();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    // Keep the record observable so the probe work cannot be elided.
    let (record, _) = session.finish();
    assert!(record.purchases > 0);
    BenchEntry {
        regime: if attached {
            "probe_attached".into()
        } else {
            "probe_detached".into()
        },
        n,
        scale: scale.into(),
        events: stats.events_processed,
        wall_secs: wall,
        events_per_sec: stats.events_processed as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Probe-overhead cases at a scale: `(attached, n, horizon_secs)` —
/// always the n=10k market, sized near the queue-level event targets.
fn probe_cases(scale: RunScale) -> Vec<(bool, usize, u64)> {
    let horizon = match scale {
        RunScale::Full => 200,
        RunScale::Quick => 50,
    };
    vec![(false, 10_000, horizon), (true, 10_000, horizon)]
}

/// Serve-streaming cases at a scale: `(n, horizon_secs)` — the churn
/// regime submitted to an in-process job daemon. Sizes mirror the
/// queue-level `churn` rows so the daemon's all-in overhead (wire
/// submission, journaled lifecycle, periodic checkpoints, per-boundary
/// sample streaming) reads directly against the same workload run
/// inline.
fn serve_cases(scale: RunScale) -> Vec<(usize, u64)> {
    match scale {
        RunScale::Full => vec![(100_000, 20)],
        RunScale::Quick => vec![(10_000, 50)],
    }
}

/// The `serve_stream` scenario at size `n`: the `churn` regime
/// expressed as a scenario file (the daemon takes scenarios, not raw
/// configs), with a 10s sampling grid so the stream carries a handful
/// of boundary samples.
fn serve_scenario(n: usize, horizon_secs: u64) -> crate::scenario::Scenario {
    let mut spec = scrip_core::spec::MarketSpec::new(n, 50);
    let lifespan = 500.0;
    spec.set("profile", "asymmetric").expect("valid profile");
    spec.set("churn", &format!("{}:{lifespan}:20", n as f64 / lifespan))
        .expect("valid churn");
    spec.set("sample", "10").expect("valid sample");
    let mut scenario = crate::scenario::Scenario::new("serve-stream", spec);
    scenario.run.horizon_secs = horizon_secs;
    scenario.run.seed = 42;
    scenario
}

/// Measures the job daemon end to end: start an in-process server on an
/// ephemeral port with a throwaway state dir, submit the churn-regime
/// scenario over the wire, subscribe, and time submit → final streamed
/// sample. The entry's `events` is the simulator events the job
/// processed (from its last sample), so events/sec reads against the
/// inline `churn` rows; the gap is the daemon's all-in overhead.
fn run_serve_case(n: usize, horizon_secs: u64, scale: &str) -> BenchEntry {
    use crate::serve::{Client, ServeOptions, Server};
    let state_dir = std::env::temp_dir().join(format!("scrip-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server =
        Server::start(&ServeOptions::new("127.0.0.1:0", &state_dir)).expect("bench daemon starts");
    let addr = server.local_addr().to_string();
    let text = serve_scenario(n, horizon_secs).to_file_string();

    let mut client = Client::connect(&addr).expect("bench client connects");
    let start = Instant::now();
    let job = client
        .submit(&text, Some("serve-bench"), None, None)
        .expect("bench submit");
    let mut samples = 0u64;
    let mut events = 0u64;
    let watcher = Client::connect(&addr).expect("bench watcher connects");
    let state = watcher
        .subscribe(&job, |payload| {
            samples += 1;
            if let Some(v) = payload
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("events="))
            {
                events = v.parse().unwrap_or(events);
            }
        })
        .expect("bench stream");
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(state, "completed", "bench job must complete");
    assert!(samples > 0, "stream must carry boundary samples");
    client.drain().expect("bench drain");
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
    BenchEntry {
        regime: "serve_stream".into(),
        n,
        scale: scale.into(),
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Measures the cost of a wealth-Gini sample at size `n`: run the
/// asymmetric market briefly to de-equalize wealth, then time repeated
/// [`scrip_core::Ledger::wealth_gini`] calls.
fn run_gini_case(n: usize, samples: u64, scale: &str) -> BenchEntry {
    let config = regime_config("asymmetric", n);
    let market =
        scrip_core::market::run_market(config, 42, SimTime::from_secs(20)).expect("market runs");
    let start = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..samples {
        acc += market.ledger().wealth_gini().expect("non-empty market");
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    // Keep the accumulator observable so the loop cannot be elided.
    assert!(acc.is_finite());
    BenchEntry {
        regime: "gini_sample".into(),
        n,
        scale: scale.into(),
        events: samples,
        wall_secs: wall,
        events_per_sec: samples as f64 / wall,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Runs the bench suite at `scale`, printing one progress line per case
/// to stderr. A non-empty `only` restricts the run to the row families
/// it names (values from [`BENCH_REGIMES`]); either row of a paired
/// measurement (`churn_session`/`churn_recorded`,
/// `probe_detached`/`probe_attached`) selects the pair.
pub fn run_bench(scale: RunScale, only: &[String]) -> BenchReport {
    let scale_name = match scale {
        RunScale::Full => "full",
        RunScale::Quick => "quick",
    };
    let wanted =
        |regimes: &[&str]| only.is_empty() || only.iter().any(|o| regimes.contains(&o.as_str()));
    if !reset_peak_rss() {
        eprintln!(
            "bench: /proc/self/clear_refs refused the VmHWM reset, so peak_rss_bytes is the \
             process high-water mark, monotone across rows"
        );
    }
    let mut report = BenchReport::default();
    for (regime, n, horizon) in cases(scale) {
        if !wanted(&[regime]) {
            continue;
        }
        reset_peak_rss();
        let entry = run_market_case(regime, n, horizon, scale_name);
        eprintln!(
            "bench {regime:<22} n={n:<7} {:>12.0} events/s ({} events in {:.2}s)",
            entry.events_per_sec, entry.events, entry.wall_secs
        );
        report.entries.push(entry);
    }
    for (n, horizon) in faulted_cases(scale) {
        if !wanted(&["faulted"]) {
            continue;
        }
        reset_peak_rss();
        let entry = run_faulted_case(n, horizon, scale_name);
        eprintln!(
            "bench {:<22} n={n:<7} {:>12.0} events/s ({} events in {:.2}s)",
            entry.regime, entry.events_per_sec, entry.events, entry.wall_secs
        );
        report.entries.push(entry);
    }
    for (n, horizon) in recorded_cases(scale) {
        if !wanted(&["churn_session", "churn_recorded"]) {
            continue;
        }
        reset_peak_rss();
        let (anchor, recorded) = run_recorded_case(n, horizon, scale_name);
        for entry in [anchor, recorded] {
            eprintln!(
                "bench {:<22} n={n:<7} {:>12.0} events/s ({} events in {:.2}s)",
                entry.regime, entry.events_per_sec, entry.events, entry.wall_secs
            );
            report.entries.push(entry);
        }
    }
    for (n, horizon) in streaming_cases(scale) {
        if !wanted(&["streaming"]) {
            continue;
        }
        reset_peak_rss();
        let entry = run_streaming_case(n, horizon, scale_name);
        eprintln!(
            "bench {:<22} n={n:<7} {:>12.0} events/s ({} events in {:.2}s)",
            entry.regime, entry.events_per_sec, entry.events, entry.wall_secs
        );
        report.entries.push(entry);
    }
    for (n, horizon) in serve_cases(scale) {
        if !wanted(&["serve_stream"]) {
            continue;
        }
        reset_peak_rss();
        let entry = run_serve_case(n, horizon, scale_name);
        eprintln!(
            "bench {:<22} n={n:<7} {:>12.0} events/s ({} events in {:.2}s)",
            entry.regime, entry.events_per_sec, entry.events, entry.wall_secs
        );
        // The inline churn row at the same (n, scale) is the anchor:
        // the ratio is the daemon's all-in submit-to-last-sample cost.
        if let Some(anchor) = report
            .entries
            .iter()
            .find(|a| a.regime == "churn" && a.n == n && a.events_per_sec > 0.0)
        {
            eprintln!(
                "bench {:<22} served/batch throughput: {:.3}x",
                "serve_stream",
                entry.events_per_sec / anchor.events_per_sec
            );
        }
        report.entries.push(entry);
    }
    for (attached, n, horizon) in probe_cases(scale) {
        if !wanted(&["probe_detached", "probe_attached"]) {
            continue;
        }
        reset_peak_rss();
        let entry = run_probe_case(attached, n, horizon, scale_name);
        eprintln!(
            "bench {:<22} n={n:<7} {:>12.0} events/s ({} events in {:.2}s)",
            entry.regime, entry.events_per_sec, entry.events, entry.wall_secs
        );
        report.entries.push(entry);
    }
    // Sample counts are sized for the *post-refactor* O(1) sampler so
    // the timed window is milliseconds, not timer-resolution noise (the
    // pre-refactor sampler was ~10^5 times slower and was measured with
    // proportionally fewer samples; the per-sample rate is what's
    // compared).
    let gini_sizes: &[(usize, u64)] = match scale {
        RunScale::Full => &[(10_000, 2_000_000), (100_000, 2_000_000)],
        RunScale::Quick => &[(10_000, 1_000_000)],
    };
    for &(n, samples) in gini_sizes {
        if !wanted(&["gini_sample"]) {
            continue;
        }
        reset_peak_rss();
        let entry = run_gini_case(n, samples, scale_name);
        eprintln!(
            "bench {:<22} n={n:<7} {:>12.0} samples/s ({} samples in {:.4}s)",
            entry.regime, entry.events_per_sec, entry.events, entry.wall_secs
        );
        report.entries.push(entry);
    }
    report
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl BenchEntry {
    fn to_json(&self) -> String {
        let rss = match self.peak_rss_bytes {
            Some(b) => b.to_string(),
            None => "null".into(),
        };
        format!(
            "    {{\"regime\": \"{}\", \"n\": {}, \"scale\": \"{}\", \"events\": {}, \
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \"peak_rss_bytes\": {}}}",
            json_escape(&self.regime),
            self.n,
            json_escape(&self.scale),
            self.events,
            self.wall_secs,
            self.events_per_sec,
            rss
        )
    }
}

impl BenchReport {
    /// Serializes the report as JSON (the `BENCH_market.json` schema:
    /// a `schema` tag plus an `entries` array of flat objects).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"scrip-bench-market/1\",\n");
        out.push_str("  \"entries\": [\n");
        let body: Vec<String> = self.entries.iter().map(BenchEntry::to_json).collect();
        out.push_str(&body.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a report back from [`BenchReport::to_json`] output (also
    /// tolerates the extra `before_events_per_sec` key of the committed
    /// baseline file). This is a schema-specific reader, not a general
    /// JSON parser: it scans the known keys per entry object.
    ///
    /// # Errors
    /// Returns a description of the first malformed entry.
    pub fn from_json(text: &str) -> Result<Self, String> {
        if !text.contains("\"schema\": \"scrip-bench-market/1\"") {
            return Err("missing schema tag \"scrip-bench-market/1\"".into());
        }
        let mut entries = Vec::new();
        for (i, obj) in text.split('{').skip(2).enumerate() {
            let obj = obj.split('}').next().unwrap_or("");
            let field = |key: &str| -> Result<String, String> {
                let pat = format!("\"{key}\":");
                let rest = obj
                    .split(&pat)
                    .nth(1)
                    .ok_or_else(|| format!("entry {i}: missing key {key:?}"))?;
                Ok(rest
                    .trim_start()
                    .trim_start_matches('"')
                    .chars()
                    .take_while(|&c| !matches!(c, '"' | ',' | '\n'))
                    .collect::<String>()
                    .trim()
                    .to_string())
            };
            let num = |key: &str| -> Result<f64, String> {
                let v = field(key)?;
                v.parse::<f64>()
                    .map_err(|e| format!("entry {i}: bad number for {key:?} ({v:?}): {e}"))
            };
            entries.push(BenchEntry {
                regime: field("regime")?,
                n: num("n")? as usize,
                scale: field("scale")?,
                events: num("events")? as u64,
                wall_secs: num("wall_secs")?,
                events_per_sec: num("events_per_sec")?,
                peak_rss_bytes: match field("peak_rss_bytes")?.as_str() {
                    "null" => None,
                    v => Some(
                        v.parse::<u64>()
                            .map_err(|e| format!("entry {i}: bad peak_rss_bytes {v:?}: {e}"))?,
                    ),
                },
            });
        }
        if entries.is_empty() {
            return Err("no bench entries found".into());
        }
        Ok(BenchReport { entries })
    }
}

/// Compares a fresh report against a committed baseline: every baseline
/// entry matching the fresh report's scale must be within
/// `max_regression` (e.g. 0.30 = allow up to 30% slower). Returns the
/// offending descriptions.
pub fn compare_against(
    fresh: &BenchReport,
    baseline: &BenchReport,
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for new in &fresh.entries {
        let Some(old) = baseline
            .entries
            .iter()
            .find(|b| b.regime == new.regime && b.n == new.n && b.scale == new.scale)
        else {
            continue; // new case without a baseline: informational only
        };
        let floor = old.events_per_sec * (1.0 - max_regression);
        if new.events_per_sec < floor {
            failures.push(format!(
                "{} n={} ({}): {:.0} events/s is below {:.0} ({}% regression floor of baseline {:.0})",
                new.regime,
                new.n,
                new.scale,
                new.events_per_sec,
                floor,
                (max_regression * 100.0) as u32,
                old.events_per_sec
            ));
        }
    }
    failures
}

/// The trace-recording overhead gate: every `churn_recorded` entry
/// must keep a floor fraction of its paired `churn_session` anchor's
/// throughput at the same `(n, scale)` (both sides of the pair are
/// best-of-N interleaved measurements of the identical `Session`
/// dispatch path — see `run_recorded_case`). At full scale the floor
/// is 95% — the headline "hot-path recording costs under 5%" claim.
/// The quick row runs the same n=10⁵ regime over a 4×-shorter
/// horizon, so its windows are noisier on a shared CI runner — its
/// floor is 90%, still tight enough to catch a real regression (an
/// accidental flush-per-frame costs far more). Returns the offending
/// descriptions.
pub fn record_overhead_failures(report: &BenchReport) -> Vec<String> {
    report
        .entries
        .iter()
        .filter(|e| e.regime == "churn_recorded")
        .filter_map(|e| {
            let anchor = report
                .entries
                .iter()
                .find(|a| a.regime == "churn_session" && a.n == e.n && a.scale == e.scale)?;
            if anchor.events_per_sec <= 0.0 {
                return None;
            }
            let floor = if e.scale == "quick" { 0.90 } else { 0.95 };
            let ratio = e.events_per_sec / anchor.events_per_sec;
            (ratio < floor).then(|| {
                format!(
                    "churn_recorded n={} ({}): {:.0} events/s is {:.1}% below its paired \
                     churn_session anchor's {:.0} (recording must cost <{:.0}% at this scale)",
                    e.n,
                    e.scale,
                    e.events_per_sec,
                    (1.0 - ratio) * 100.0,
                    anchor.events_per_sec,
                    (1.0 - floor) * 100.0
                )
            })
        })
        .collect()
}

/// The peak-RSS budget for a bench run at `scale`, in bytes.
///
/// `peak_rss_bytes` is each case's own high-water mark (`VmHWM`, reset
/// before the case by [`reset_peak_rss`]), so the budget bounds every
/// case separately; where the kernel refuses the reset it is the
/// process mark, and the budget bounds the whole suite instead. Either
/// way it is sized by the largest case. Full scale runs the four
/// market regimes at n=10⁶ (arena state ≈ 100 B/peer + scale-free
/// adjacency ≈ 4 B × ~20 neighbors + the timing wheel's pre-sized
/// buckets), which lands well under 4 GiB; quick tops out at the
/// n=10⁵ recording pair and must stay under 1 GiB. Blowing a budget
/// means a structure started
/// scaling superlinearly — the audit in
/// `scrip_core::market::CreditMarket::memory_audit` pinpoints which.
pub fn rss_budget_bytes(scale: RunScale) -> u64 {
    match scale {
        RunScale::Full => 4 << 30,
        RunScale::Quick => 1 << 30,
    }
}

/// Checks every entry's recorded peak RSS against `budget_bytes`.
/// Returns offending descriptions (empty when all entries fit or RSS
/// was unavailable on the platform).
pub fn check_rss_budget(report: &BenchReport, budget_bytes: u64) -> Vec<String> {
    report
        .entries
        .iter()
        .filter_map(|e| {
            let rss = e.peak_rss_bytes?;
            (rss > budget_bytes).then(|| {
                format!(
                    "{} n={} ({}): peak RSS {:.1} MiB exceeds the {:.0} MiB budget",
                    e.regime,
                    e.n,
                    e.scale,
                    rss as f64 / (1 << 20) as f64,
                    budget_bytes as f64 / (1 << 20) as f64,
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(regime: &str, eps: f64) -> BenchEntry {
        BenchEntry {
            regime: regime.into(),
            n: 1_000,
            scale: "quick".into(),
            events: 1_000,
            wall_secs: 1.0,
            events_per_sec: eps,
            peak_rss_bytes: Some(12_345_678),
        }
    }

    #[test]
    fn json_roundtrip() {
        let report = BenchReport {
            entries: vec![entry("asymmetric", 1234.5), {
                let mut e = entry("gini_sample", 99.0);
                e.peak_rss_bytes = None;
                e
            }],
        };
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.entries[0].regime, "asymmetric");
        assert_eq!(parsed.entries[0].n, 1_000);
        assert_eq!(parsed.entries[0].scale, "quick");
        assert!((parsed.entries[0].events_per_sec - 1234.5).abs() < 0.1);
        assert_eq!(parsed.entries[0].peak_rss_bytes, Some(12_345_678));
        assert_eq!(parsed.entries[1].peak_rss_bytes, None);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
        let no_entries = "{\"schema\": \"scrip-bench-market/1\", \"entries\": []}";
        assert!(BenchReport::from_json(no_entries).is_err());
    }

    #[test]
    fn regression_detection() {
        let baseline = BenchReport {
            entries: vec![entry("asymmetric", 1000.0)],
        };
        let ok = BenchReport {
            entries: vec![entry("asymmetric", 800.0)],
        };
        assert!(compare_against(&ok, &baseline, 0.30).is_empty());
        let slow = BenchReport {
            entries: vec![entry("asymmetric", 600.0)],
        };
        let failures = compare_against(&slow, &baseline, 0.30);
        assert_eq!(failures.len(), 1, "{failures:?}");
        // Unmatched entries are ignored.
        let other = BenchReport {
            entries: vec![entry("churn", 1.0)],
        };
        assert!(compare_against(&other, &baseline, 0.30).is_empty());
    }

    #[test]
    fn quick_cases_are_small() {
        for (regime, n, horizon) in cases(RunScale::Quick) {
            assert!(n <= 10_000, "{regime}: n {n}");
            assert!(horizon <= 500, "{regime}: horizon {horizon}");
        }
        // 4 regimes × sizes [1k, 10k, 100k, 1M].
        assert_eq!(cases(RunScale::Full).len(), 16);
        assert!(
            cases(RunScale::Full)
                .iter()
                .any(|&(_, n, _)| n == 1_000_000),
            "full scale must include the million-peer rows"
        );
    }

    #[test]
    fn peak_rss_reset_forgets_a_freed_allocation() {
        const BIG: u64 = 128 << 20;
        if !reset_peak_rss() {
            return; // no clear_refs here: rows carry the process mark
        }
        let Some(base) = peak_rss_bytes() else {
            return;
        };
        // Large enough to be mapped on its own and unmapped on drop.
        drop(std::hint::black_box(vec![1u8; BIG as usize]));
        let high = peak_rss_bytes().expect("VmHWM");
        assert!(
            high >= base + BIG * 3 / 4,
            "allocation not seen: {base} -> {high}"
        );
        assert!(reset_peak_rss());
        let after = peak_rss_bytes().expect("VmHWM");
        assert!(
            after + BIG / 2 <= high,
            "reset kept the freed peak: {high} -> {after}"
        );
    }

    #[test]
    fn rss_budget_flags_only_over_budget_entries() {
        let mut report = BenchReport {
            entries: vec![entry("asymmetric", 1000.0), entry("churn", 1000.0)],
        };
        report.entries[0].peak_rss_bytes = Some(2 << 30);
        report.entries[1].peak_rss_bytes = None; // platform without VmHWM
        let failures = check_rss_budget(&report, rss_budget_bytes(RunScale::Quick));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("asymmetric"), "{failures:?}");
        assert!(check_rss_budget(&report, rss_budget_bytes(RunScale::Full)).is_empty());
    }

    #[test]
    fn probe_cases_cover_both_recorder_states() {
        for scale in [RunScale::Quick, RunScale::Full] {
            let cases = probe_cases(scale);
            assert_eq!(cases.len(), 2);
            assert!(!cases[0].0, "detached first");
            assert!(cases[1].0);
            assert!(cases.iter().all(|&(_, n, _)| n == 10_000));
        }
    }

    #[test]
    fn probe_bench_entries_measure_events() {
        // A miniature run of both recorder states (tiny n + horizon so
        // the unit test stays fast); the real sizes run under
        // `scrip-sim bench`.
        let detached = run_probe_case(false, 100, 20, "test");
        let attached = run_probe_case(true, 100, 20, "test");
        assert_eq!(detached.regime, "probe_detached");
        assert_eq!(attached.regime, "probe_attached");
        assert_eq!(
            detached.events, attached.events,
            "probes must not change the event stream"
        );
        assert!(detached.events_per_sec > 0.0 && attached.events_per_sec > 0.0);
    }

    #[test]
    fn recorded_case_replays_the_plain_churn_event_stream() {
        // Miniature size; the real rows run under `scrip-sim bench`.
        let plain = run_market_case("churn", 100, 20, "test");
        let (anchor, recorded) = run_recorded_case(100, 20, "test");
        assert_eq!(
            plain.events, recorded.events,
            "recording must not change the event stream"
        );
        assert_eq!(
            anchor.events, recorded.events,
            "both sides of the pair dispatch the identical run"
        );
        assert_eq!(anchor.regime, "churn_session");
        assert_eq!(recorded.regime, "churn_recorded");
        assert!(recorded.events_per_sec > 0.0);
    }

    #[test]
    fn record_overhead_gate_triggers_below_the_scale_floor() {
        let full = |regime: &str, eps: f64| {
            let mut e = entry(regime, eps);
            e.scale = "full".into();
            e
        };
        // Full scale: 95% floor — 96% passes, 94% fails.
        let report = BenchReport {
            entries: vec![full("churn_session", 1000.0), full("churn_recorded", 960.0)],
        };
        assert!(record_overhead_failures(&report).is_empty());
        let report = BenchReport {
            entries: vec![full("churn_session", 1000.0), full("churn_recorded", 940.0)],
        };
        let failures = record_overhead_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("churn_recorded"), "{failures:?}");
        // Quick scale: the cheaper-per-event CI proxy gets a 90% floor
        // — 94% passes there, 89% fails.
        let report = BenchReport {
            entries: vec![
                entry("churn_session", 1000.0),
                entry("churn_recorded", 940.0),
            ],
        };
        assert!(record_overhead_failures(&report).is_empty());
        let report = BenchReport {
            entries: vec![
                entry("churn_session", 1000.0),
                entry("churn_recorded", 890.0),
            ],
        };
        assert_eq!(record_overhead_failures(&report).len(), 1);
        // No anchor row → informational only, never a failure.
        let orphan = BenchReport {
            entries: vec![entry("churn_recorded", 1.0)],
        };
        assert!(record_overhead_failures(&orphan).is_empty());
    }

    #[test]
    fn serve_case_measures_a_completed_streamed_job() {
        // Miniature size; the real rows run under `scrip-sim bench`.
        // The runner itself asserts completion and a non-empty stream.
        let entry = run_serve_case(100, 50, "test");
        assert_eq!(entry.regime, "serve_stream");
        assert!(entry.events > 0 && entry.events_per_sec > 0.0);
        let scenario = serve_scenario(100, 50);
        scenario.validate().expect("serve scenario is valid");
    }

    #[test]
    fn only_runs_the_named_families() {
        let report = run_bench(RunScale::Quick, &["gini_sample".to_string()]);
        assert!(!report.entries.is_empty());
        assert!(report.entries.iter().all(|e| e.regime == "gini_sample"));
    }

    #[test]
    fn every_bench_family_has_a_known_name() {
        let mut names: Vec<&str> = cases(RunScale::Quick).iter().map(|c| c.0).collect();
        names.extend(["faulted", "churn_session", "churn_recorded", "streaming"]);
        names.extend(["serve_stream", "probe_detached", "probe_attached"]);
        names.push("gini_sample");
        for name in names {
            assert!(BENCH_REGIMES.contains(&name), "{name} missing");
        }
    }

    #[test]
    fn regime_configs_validate() {
        for regime in REGIMES {
            regime_config(regime, 100).validate().expect("valid");
        }
        faulted_config(100).validate().expect("valid");
    }

    #[test]
    fn faulted_case_runs_the_recovery_path() {
        // Miniature size; the real n=10^5 case runs under
        // `scrip-sim bench`. The runner itself asserts the plan is
        // active and the books balance.
        let entry = run_faulted_case(100, 20, "test");
        assert_eq!(entry.regime, "faulted");
        assert!(entry.events > 0 && entry.events_per_sec > 0.0);
    }
}
