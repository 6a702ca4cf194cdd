//! The `scrip-sim bench` harness: end-to-end market throughput.
//!
//! Measures events/sec of the discrete-event market simulator across the
//! four queue-level hot regimes (asymmetric neighbor routing,
//! availability feedback, taxation, churn), the fault-injected churn
//! market (`faulted`: 1% drop + 1% defect with escrowed retries, timing
//! the recovery machinery itself), the cost of recording a trace
//! (`churn_session`/`churn_recorded`), the chunk-level streaming
//! market's trade loop, the job daemon end to end (`serve_stream`), the
//! observation layer's probe-dispatch overhead
//! (`probe_detached`/`probe_attached`) and the cost of a wealth Gini
//! sample. Results are written to `BENCH_market.json` (see
//! [`BenchReport::to_json`] for the schema), and CI replays the
//! quick-scale subset to catch throughput regressions (see
//! [`compare_against`]).
//!
//! Every row lives in one table (`rows`), and one timer (`measure`)
//! runs each group of rows — a single row, or a pair whose two rows
//! are compared — round-robin k times (3 quick, 5 full) and records
//! each row's median events/sec with its min and max. Every gate
//! reads the median. Rows are sized so that a quick row's timed
//! window is at least ~100 ms on a 2-core Xeon host.
//!
//! The harness runs strictly single-threaded: each run is one seeded
//! simulation on one core, so events/sec is a clean per-core figure.

use std::path::Path;
use std::time::Instant;

use scrip_core::market::{ChurnConfig, MarketConfig};
use scrip_core::obs::Session;
use scrip_core::policy::TaxConfig;
use scrip_core::streaming::StreamingConfig;
use scrip_des::{FaultSpec, SimDuration, SimTime};

use crate::scale::RunScale;
use crate::scenario::{Metric, RunSpec};

/// One measured bench row.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Which hot path this row exercises: one of [`BENCH_REGIMES`].
    pub regime: String,
    /// Number of peers.
    pub n: usize,
    /// Scale the row ran at (`quick` or `full`).
    pub scale: String,
    /// Dispatched simulator events (Gini samples for `gini_sample`).
    pub events: u64,
    /// Wall-clock seconds of the median run's timed section.
    pub wall_secs: f64,
    /// Median over the row's runs of `events / wall_secs` — the
    /// headline throughput number every gate reads.
    pub events_per_sec: f64,
    /// Slowest run's events/sec.
    pub events_per_sec_min: f64,
    /// Fastest run's events/sec.
    pub events_per_sec_max: f64,
    /// Resident-set high-water mark (bytes) of this row's group, if
    /// the platform exposes it (Linux `VmHWM`). [`run_bench`] resets the
    /// mark before every group ([`reset_peak_rss`]), so this is the
    /// group's own peak; where the reset is refused it is the process
    /// high-water mark, monotone across rows.
    pub peak_rss_bytes: Option<u64>,
}

/// A full bench run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Measured rows, in execution order (ascending n per regime).
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

/// The benched markets' sampling interval, in seconds.
const SAMPLE_SECS: u64 = 50;

/// The benched market configuration for a regime at size `n`.
fn regime_config(regime: &str, n: usize) -> MarketConfig {
    let base = MarketConfig::new(n, 50).sample_interval(SimDuration::from_secs(SAMPLE_SECS));
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

/// The `faulted` regime's market configuration: the `churn` regime plus
/// a fault plan injecting 1% drops and 1% defections from t = 0, so
/// every trade walks the escrow hold/settle path and a steady trickle
/// walks refund + scheduled retry. Against the fault-free `churn` rows
/// at the same n, the gap is the all-in cost of the recovery machinery.
fn faulted_config(n: usize) -> MarketConfig {
    regime_config("churn", n).faults(FaultSpec {
        drop_rate: 0.01,
        defect_rate: 0.01,
        ..FaultSpec::default()
    })
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

/// Everything that differs between bench scales.
struct Sizes {
    /// The entries' `scale` label.
    scale: &'static str,
    /// Timed runs per row; each row reports their median.
    runs: usize,
    /// n of the four regimes' rows.
    regimes: &'static [usize],
    /// Events a regime, `faulted`, `serve_stream` or probe row aims at:
    /// its horizon is this over its n (at least 10 s).
    target_events: u64,
    /// n of the `faulted` and `serve_stream` rows.
    churn_n: usize,
    /// n of the probe pair.
    probe_n: usize,
    /// n of the recording pair.
    recorded_n: usize,
    /// `(n, horizon_secs)` of each `streaming` row.
    streaming: &'static [(usize, u64)],
    /// `(n, samples)` of each `gini_sample` row.
    gini: &'static [(usize, u64)],
}

impl Sizes {
    /// The sizes of a bench run at `scale`.
    ///
    /// Quick's n=10⁴ regime rows are the scaled-down counterparts of
    /// the full suite's n=10⁶ rows: the same Fenwick-sampler +
    /// timing-wheel hot path, small enough for the CI regression gate.
    /// The recording pair runs n=10⁵ at both scales, the size the
    /// headline claim is made at: the per-frame encode cost is fixed
    /// (~0.1 µs), so at n=10⁴ it would be a larger share of the cheaper
    /// per-event dispatch and the pair would gate a different ratio.
    fn at(scale: RunScale) -> &'static Sizes {
        const FULL: Sizes = Sizes {
            scale: "full",
            runs: 5,
            regimes: &[1_000, 10_000, 100_000, 1_000_000],
            target_events: 2_000_000,
            churn_n: 100_000,
            probe_n: 10_000,
            recorded_n: 100_000,
            streaming: &[(1_000, 100), (10_000, 40)],
            gini: &[(10_000, 20_000_000), (100_000, 20_000_000)],
        };
        const QUICK: Sizes = Sizes {
            scale: "quick",
            runs: 3,
            regimes: &[1_000, 10_000],
            target_events: 1_500_000,
            churn_n: 10_000,
            probe_n: 10_000,
            recorded_n: 100_000,
            streaming: &[(1_000, 100)],
            gini: &[(10_000, 20_000_000)],
        };
        scale.pick(&FULL, &QUICK)
    }
}

/// What a market row attaches to its session before the timed run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Attach {
    /// Nothing: the session takes the kernel's plain `run_until`.
    Nothing,
    /// Every metric's probe, with snapshots at mid-run and horizon.
    Probes,
    /// A trace recorder sinking to `/dev/null`.
    Recorder,
}

/// The piece of work a row times.
enum Work {
    /// `Session::from_config(config, 42)` with `attach` attached, timed
    /// over `run_until(horizon)` plus `finish_trace`.
    Market {
        config: Box<MarketConfig>,
        horizon_secs: u64,
        attach: Attach,
    },
    /// The `serve_scenario` submitted to an in-process job daemon,
    /// timed from submit to the last streamed sample.
    Serve { horizon_secs: u64 },
    /// Repeated wealth-Gini samples of a briefly run asymmetric market.
    Gini { samples: u64 },
}

/// One bench row: a family, a size and the work it times.
struct Row {
    regime: &'static str,
    n: usize,
    work: Work,
}

/// Every bench row at `sizes`, in groups: a group is one row, or a pair
/// whose rows [`measure`] alternates so that they are compared on the
/// same stretch of host time.
fn rows(sizes: &Sizes) -> Vec<Vec<Row>> {
    let horizon = |n: usize| (sizes.target_events / n as u64).max(10);
    let market = |regime, n, config: &MarketConfig, horizon_secs, attach| Row {
        regime,
        n,
        work: Work::Market {
            config: Box::new(config.clone()),
            horizon_secs,
            attach,
        },
    };
    let mut groups = Vec::new();
    for regime in REGIMES {
        for &n in sizes.regimes {
            let config = regime_config(regime, n);
            let row = market(regime, n, &config, horizon(n), Attach::Nothing);
            groups.push(vec![row]);
        }
    }
    let n = sizes.churn_n;
    let config = faulted_config(n);
    let row = market("faulted", n, &config, horizon(n), Attach::Nothing);
    groups.push(vec![row]);
    // The pair's horizon is one sampling interval, so the recorded side
    // pays one boundary state digest per interval, as a long recorded
    // run does.
    let n = sizes.recorded_n;
    let config = regime_config("churn", n);
    groups.push(vec![
        market("churn_session", n, &config, SAMPLE_SECS, Attach::Nothing),
        market("churn_recorded", n, &config, SAMPLE_SECS, Attach::Recorder),
    ]);
    for &(n, horizon_secs) in sizes.streaming {
        let config = MarketConfig::new(n, 50)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .sample_interval(SimDuration::from_secs(SAMPLE_SECS));
        let row = market("streaming", n, &config, horizon_secs, Attach::Nothing);
        groups.push(vec![row]);
    }
    let n = sizes.churn_n;
    let work = Work::Serve {
        horizon_secs: horizon(n),
    };
    groups.push(vec![Row {
        regime: "serve_stream",
        n,
        work,
    }]);
    let n = sizes.probe_n;
    let config = regime_config("asymmetric", n);
    groups.push(vec![
        market("probe_detached", n, &config, horizon(n), Attach::Nothing),
        market("probe_attached", n, &config, horizon(n), Attach::Probes),
    ]);
    for &(n, samples) in sizes.gini {
        let work = Work::Gini { samples };
        groups.push(vec![Row {
            regime: "gini_sample",
            n,
            work,
        }]);
    }
    groups
}

impl Row {
    /// One run of this row: builds (untimed), times the work, checks
    /// the result, and returns `(events, wall_secs)`.
    fn run(&self) -> (u64, f64) {
        match &self.work {
            Work::Market {
                config,
                horizon_secs,
                attach,
            } => {
                let mut session = Session::from_config(config, 42).expect("bench session builds");
                match attach {
                    Attach::Nothing => {}
                    Attach::Probes => {
                        let run = RunSpec {
                            horizon_secs: *horizon_secs,
                            snapshots: vec![horizon_secs / 2, *horizon_secs],
                            ..RunSpec::default()
                        };
                        for metric in Metric::ALL {
                            session.attach(metric.make_probe(&run));
                        }
                    }
                    // The recorder sinks to /dev/null: the pair gates the
                    // hot-path cost (frame encode + checksum + staging +
                    // boundary digests), not the host's disk.
                    Attach::Recorder => session
                        .record_to(Path::new("/dev/null"))
                        .expect("recording starts"),
                }
                let start = Instant::now();
                session.run_until(SimTime::from_secs(*horizon_secs));
                session.finish_trace().expect("trace completes");
                let wall = start.elapsed().as_secs_f64().max(1e-9);
                let events = session.stats().events_processed;
                let view = session.view();
                let faults_on = view.fault_stats().is_some() == config.faults.is_some();
                let balanced = view.ledger().conserved();
                // Keep the record observable so probe work cannot be elided.
                let (record, _) = session.finish();
                let traded = record.purchases > 0;
                assert!(
                    faults_on && balanced && traded,
                    "{}: fault plan as configured {faults_on}, books balance {balanced}, \
                     market traded {traded}",
                    self.regime
                );
                (events, wall)
            }
            Work::Serve { horizon_secs } => serve(self.n, *horizon_secs),
            Work::Gini { samples } => {
                let config = regime_config("asymmetric", self.n);
                let market = scrip_core::market::run_market(config, 42, SimTime::from_secs(20))
                    .expect("market runs");
                let start = Instant::now();
                let mut acc = 0.0f64;
                for _ in 0..*samples {
                    acc += market.ledger().wealth_gini().expect("non-empty market");
                }
                let wall = start.elapsed().as_secs_f64().max(1e-9);
                // Keep the accumulator observable so the loop cannot be elided.
                assert!(acc.is_finite());
                (*samples, wall)
            }
        }
    }
}

/// Times the job daemon end to end: start an in-process server on an
/// ephemeral port with a throwaway state dir, submit the churn-regime
/// scenario over the wire, subscribe, and time submit → final streamed
/// sample. Returns the simulator events the job processed (from its
/// last sample), so events/sec reads against the inline `churn` rows;
/// the gap is the daemon's all-in overhead.
fn serve(n: usize, horizon_secs: u64) -> (u64, f64) {
    use crate::serve::{Client, ServeOptions, Server};
    use std::sync::atomic::{AtomicU64, Ordering};
    // One state dir per daemon, so daemons in one process never share one.
    static DAEMONS: AtomicU64 = AtomicU64::new(0);
    let state_dir = std::env::temp_dir().join(format!(
        "scrip-serve-bench-{}-{}",
        std::process::id(),
        DAEMONS.fetch_add(1, Ordering::Relaxed)
    ));
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
    (events, wall)
}

/// Times one group: resets the peak-RSS mark, runs the group's rows
/// round-robin `sizes.runs` times (alternating keeps a slow patch of
/// the host from landing on one side of a pair), and reports each
/// row's median run with the min and max events/sec.
fn measure(group: &[Row], sizes: &Sizes) -> Vec<BenchEntry> {
    reset_peak_rss();
    let mut runs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); group.len()];
    for _ in 0..sizes.runs {
        for (row, runs) in group.iter().zip(&mut runs) {
            runs.push(row.run());
        }
    }
    let peak_rss_bytes = peak_rss_bytes();
    group
        .iter()
        .zip(runs)
        .map(|(row, mut runs)| {
            let rate = |&(events, wall): &(u64, f64)| events as f64 / wall;
            runs.sort_by(|a, b| rate(a).total_cmp(&rate(b)));
            let median = runs[runs.len() / 2];
            BenchEntry {
                regime: row.regime.into(),
                n: row.n,
                scale: sizes.scale.into(),
                events: median.0,
                wall_secs: median.1,
                events_per_sec: rate(&median),
                events_per_sec_min: rate(&runs[0]),
                events_per_sec_max: rate(&runs[runs.len() - 1]),
                peak_rss_bytes,
            }
        })
        .collect()
}

/// Whether `only` (values from [`BENCH_REGIMES`]; empty = everything)
/// selects `group`: naming either row of a pair selects the pair.
fn selected(group: &[Row], only: &[String]) -> bool {
    only.is_empty() || group.iter().any(|row| only.iter().any(|o| o == row.regime))
}

/// Runs the bench suite at `scale`, printing one progress line per row
/// to stderr. A non-empty `only` restricts the run to the row families
/// it names (values from [`BENCH_REGIMES`]); either row of a paired
/// measurement (`churn_session`/`churn_recorded`,
/// `probe_detached`/`probe_attached`) selects the pair.
pub fn run_bench(scale: RunScale, only: &[String]) -> BenchReport {
    let sizes = Sizes::at(scale);
    if !reset_peak_rss() {
        eprintln!(
            "bench: /proc/self/clear_refs refused the VmHWM reset, so peak_rss_bytes is the \
             process high-water mark, monotone across rows"
        );
    }
    let mut report = BenchReport::default();
    for group in rows(sizes).iter().filter(|g| selected(g, only)) {
        for entry in measure(group, sizes) {
            eprintln!(
                "bench {:<22} n={:<7} {:>12.0} events/s (median of {}, {:.0}–{:.0}; {} events in {:.3}s)",
                entry.regime,
                entry.n,
                entry.events_per_sec,
                sizes.runs,
                entry.events_per_sec_min,
                entry.events_per_sec_max,
                entry.events,
                entry.wall_secs
            );
            report.entries.push(entry);
        }
    }
    // The inline churn row at the same n is the anchor: the ratio is
    // the daemon's all-in submit-to-last-sample cost.
    let rate = |regime: &str, n: usize| {
        report
            .entries
            .iter()
            .find(|e| e.regime == regime && e.n == n && e.events_per_sec > 0.0)
            .map(|e| e.events_per_sec)
    };
    if let (Some(served), Some(batch)) = (
        rate("serve_stream", sizes.churn_n),
        rate("churn", sizes.churn_n),
    ) {
        eprintln!(
            "bench {:<22} served/batch throughput: {:.3}x",
            "serve_stream",
            served / batch
        );
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
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \"events_per_sec_min\": {:.1}, \
             \"events_per_sec_max\": {:.1}, \"peak_rss_bytes\": {}}}",
            json_escape(&self.regime),
            self.n,
            json_escape(&self.scale),
            self.events,
            self.wall_secs,
            self.events_per_sec,
            self.events_per_sec_min,
            self.events_per_sec_max,
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

    /// Parses a report back from [`BenchReport::to_json`] output. An
    /// entry without `events_per_sec_min`/`events_per_sec_max` (older
    /// reports, and baseline rows measured before the median-of-k
    /// timer) is one run, so both read as its `events_per_sec`. This
    /// is a schema-specific reader, not a general JSON parser: it scans
    /// the known keys per entry object.
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
            let events_per_sec = num("events_per_sec")?;
            let spread = |key: &str| match obj.contains(&format!("\"{key}\":")) {
                true => num(key),
                false => Ok(events_per_sec),
            };
            entries.push(BenchEntry {
                regime: field("regime")?,
                n: num("n")? as usize,
                scale: field("scale")?,
                events: num("events")? as u64,
                wall_secs: num("wall_secs")?,
                events_per_sec,
                events_per_sec_min: spread("events_per_sec_min")?,
                events_per_sec_max: spread("events_per_sec_max")?,
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
            continue; // new row without a baseline: informational only
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
/// median throughput at the same `(n, scale)` (the pair is the same
/// n=10⁵ churn `Session` over one sampling interval, with and without
/// a recorder, run alternately). At full scale the floor is 95% —
/// the headline "hot-path recording costs under 5%" claim.
/// Quick scale takes 3 runs a side instead of 5, so its median is
/// noisier on a shared CI runner — its floor is 90%, still tight
/// enough to catch a real regression (an accidental flush-per-frame
/// costs far more). Returns the offending descriptions.
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
/// `peak_rss_bytes` is each group's own high-water mark (`VmHWM`, reset
/// before the group by [`run_bench`]), so the budget bounds every group
/// separately; where the kernel refuses the reset it is the process
/// mark, and the budget bounds the whole suite instead. Either way it
/// is sized by the largest row. Full scale runs the four
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

    use scrip_core::market::{CreditMarket, MarketEvent};
    use scrip_core::protocol::build_streaming_market;
    use scrip_core::streaming::StreamEvent;
    use scrip_des::Simulation;

    /// Every family at unit-test sizes (n ≤ 1000, short horizons); the
    /// real sizes run under `scrip-sim bench`.
    const TEST: Sizes = Sizes {
        scale: "test",
        runs: 3,
        regimes: &[100, 200],
        target_events: 2_000,
        churn_n: 100,
        probe_n: 100,
        recorded_n: 100,
        streaming: &[(100, 20)],
        gini: &[(100, 1_000)],
    };

    fn entry(regime: &str, eps: f64) -> BenchEntry {
        BenchEntry {
            regime: regime.into(),
            n: 1_000,
            scale: "quick".into(),
            events: 1_000,
            wall_secs: 1.0,
            events_per_sec: eps,
            events_per_sec_min: eps * 0.9,
            events_per_sec_max: eps * 1.1,
            peak_rss_bytes: Some(12_345_678),
        }
    }

    /// Held by every test that resets the process's `VmHWM`, so that no
    /// reset lands inside `peak_rss_reset_forgets_a_freed_allocation`.
    static VMHWM: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// [`measure`] at `TEST` sizes, holding [`VMHWM`].
    fn measured(group: &[Row]) -> Vec<BenchEntry> {
        let _held = VMHWM.lock().unwrap_or_else(|e| e.into_inner());
        measure(group, &TEST)
    }

    /// The group of `TEST` rows whose first row is `regime`.
    fn test_group(regime: &str) -> Vec<Row> {
        rows(&TEST)
            .into_iter()
            .find(|g| g[0].regime == regime)
            .expect("family in the table")
    }

    /// Events of a direct `Simulation` run of `config` to `horizon_secs`,
    /// with no `Session` in between.
    fn direct_events(config: &MarketConfig, horizon_secs: u64) -> u64 {
        let horizon = SimTime::from_secs(horizon_secs);
        let stats = if config.streaming.is_some() {
            let system = build_streaming_market(config, 42).expect("builds");
            let profile = system.queue_profile();
            let mut sim = Simulation::with_profile(system, profile);
            sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
            sim.run_until(horizon)
        } else {
            let market = CreditMarket::build(config.clone(), 42).expect("builds");
            let profile = market.queue_profile();
            let mut sim = Simulation::with_profile(market, profile);
            sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
            sim.run_until(horizon)
        };
        stats.events_processed
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
        assert!((parsed.entries[0].events_per_sec_min - 1111.05).abs() < 0.1);
        assert!((parsed.entries[0].events_per_sec_max - 1357.95).abs() < 0.1);
        assert_eq!(parsed.entries[0].peak_rss_bytes, Some(12_345_678));
        assert_eq!(parsed.entries[1].peak_rss_bytes, None);
    }

    #[test]
    fn from_json_reads_an_entry_without_min_and_max_as_one_run() {
        let text = "{\"schema\": \"scrip-bench-market/1\", \"entries\": [\n\
            {\"regime\": \"churn\", \"n\": 1000, \"scale\": \"full\", \"events\": 10, \
             \"wall_secs\": 0.5, \"events_per_sec\": 20.0, \"peak_rss_bytes\": null}\n]}";
        let parsed = BenchReport::from_json(text).expect("parses");
        let e = &parsed.entries[0];
        assert_eq!(e.regime, "churn");
        assert_eq!(e.events_per_sec, 20.0);
        assert_eq!((e.events_per_sec_min, e.events_per_sec_max), (20.0, 20.0));
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
        let quick: Vec<Row> = rows(Sizes::at(RunScale::Quick))
            .into_iter()
            .flatten()
            .collect();
        // CI runs the quick suite k times per row: every row's work is
        // bounded so the step's wall time is.
        for row in &quick {
            let limit = if row.regime.starts_with("churn_") {
                100_000
            } else {
                10_000
            };
            assert!(row.n <= limit, "{}: n {}", row.regime, row.n);
            match &row.work {
                Work::Market { horizon_secs, .. } | Work::Serve { horizon_secs }
                    if row.regime.starts_with("churn_") =>
                {
                    assert_eq!(*horizon_secs, SAMPLE_SECS, "{}", row.regime);
                }
                Work::Market { horizon_secs, .. } | Work::Serve { horizon_secs } => {
                    assert!(
                        *horizon_secs <= 1_500,
                        "{}: horizon {horizon_secs}",
                        row.regime
                    );
                    assert!(
                        horizon_secs * row.n as u64 <= 1_500_000,
                        "{}: n {} × horizon {horizon_secs}",
                        row.regime,
                        row.n
                    );
                }
                Work::Gini { samples } => {
                    assert!(*samples <= 20_000_000, "{}: {samples} samples", row.regime);
                }
            }
        }
        let full: Vec<Row> = rows(Sizes::at(RunScale::Full))
            .into_iter()
            .flatten()
            .collect();
        // 4 regimes × sizes [1k, 10k, 100k, 1M].
        let regime_rows = full.iter().filter(|r| REGIMES.contains(&r.regime));
        assert_eq!(regime_rows.count(), 16);
        assert!(
            full.iter().any(|r| r.n == 1_000_000),
            "full scale must include the million-peer rows"
        );
    }

    #[test]
    fn peak_rss_reset_forgets_a_freed_allocation() {
        const BIG: u64 = 128 << 20;
        let _held = VMHWM.lock().unwrap_or_else(|e| e.into_inner());
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
            let groups = rows(Sizes::at(scale));
            let pair = groups
                .iter()
                .find(|g| g[0].regime == "probe_detached")
                .expect("probe pair");
            let attached: Vec<(&str, Attach)> = pair
                .iter()
                .map(|row| match row.work {
                    Work::Market { attach, .. } => (row.regime, attach),
                    _ => panic!("probe rows are market runs"),
                })
                .collect();
            assert_eq!(
                attached,
                [
                    ("probe_detached", Attach::Nothing),
                    ("probe_attached", Attach::Probes)
                ]
            );
            assert!(pair.iter().all(|row| row.n == 10_000));
        }
    }

    #[test]
    fn probe_bench_entries_measure_events() {
        let [detached, attached] = measured(&test_group("probe_detached"))
            .try_into()
            .expect("a pair");
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
        let [anchor, recorded] = measured(&test_group("churn_session"))
            .try_into()
            .expect("a pair");
        assert_eq!(
            direct_events(&regime_config("churn", TEST.recorded_n), SAMPLE_SECS),
            recorded.events,
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
    fn every_group_reports_min_median_max_and_keeps_its_work() {
        let mut session_families = Vec::new();
        for group in rows(&TEST) {
            let entries = measured(&group);
            assert_eq!(entries.len(), group.len());
            for (row, e) in group.iter().zip(&entries) {
                assert!(
                    e.events_per_sec_min <= e.events_per_sec
                        && e.events_per_sec <= e.events_per_sec_max,
                    "{e:?}"
                );
                assert!(e.events > 0 && e.events_per_sec > 0.0, "{e:?}");
                // A `Session` row dispatches what a direct `Simulation`
                // run of the same config and horizon dispatches.
                if let Work::Market {
                    config,
                    horizon_secs,
                    ..
                } = &row.work
                {
                    assert_eq!(e.events, direct_events(config, *horizon_secs), "{e:?}");
                    session_families.push(row.regime);
                }
            }
            assert!(
                entries.iter().all(|e| e.events == entries[0].events),
                "both rows of a pair dispatch the same run: {entries:?}"
            );
        }
        session_families.dedup();
        // The four regimes, `faulted`, both pairs and `streaming`.
        assert_eq!(session_families.len(), 10, "{session_families:?}");
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
        // Quick scale: the shorter-median CI proxy gets a 90% floor —
        // 94% passes there, 89% fails.
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
        // The run itself asserts completion and a non-empty stream.
        let [entry] = measured(&test_group("serve_stream"))
            .try_into()
            .expect("one row");
        assert_eq!(entry.regime, "serve_stream");
        assert!(entry.events > 0 && entry.events_per_sec > 0.0);
        let scenario = serve_scenario(100, 50);
        scenario.validate().expect("serve scenario is valid");
    }

    #[test]
    fn only_runs_the_named_families() {
        let only = |names: &[&str]| -> Vec<&'static str> {
            let only: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            rows(Sizes::at(RunScale::Quick))
                .iter()
                .filter(|g| selected(g, &only))
                .flat_map(|g| g.iter().map(|row| row.regime))
                .collect()
        };
        assert_eq!(only(&["gini_sample"]), ["gini_sample"]);
        // Either row of a pair selects both rows.
        assert_eq!(
            only(&["churn_recorded"]),
            ["churn_session", "churn_recorded"]
        );
        assert_eq!(
            only(&["probe_detached"]),
            ["probe_detached", "probe_attached"]
        );
        assert_eq!(only(&["tax", "faulted"]), ["tax", "tax", "faulted"]);
        assert_eq!(only(&[]).len(), 16);
    }

    #[test]
    fn every_bench_family_has_a_known_name() {
        for scale in [RunScale::Quick, RunScale::Full] {
            let groups = rows(Sizes::at(scale));
            let mut names: Vec<&str> = groups.iter().flatten().map(|row| row.regime).collect();
            for name in &names {
                assert!(BENCH_REGIMES.contains(name), "{name} unknown");
            }
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), BENCH_REGIMES.len(), "every family has a row");
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
        // The run itself asserts the plan is active and the books balance.
        let [entry] = measured(&test_group("faulted"))
            .try_into()
            .expect("one row");
        assert_eq!(entry.regime, "faulted");
        assert!(entry.events > 0 && entry.events_per_sec > 0.0);
    }
}
