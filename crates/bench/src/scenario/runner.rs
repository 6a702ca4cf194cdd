//! Multi-threaded scenario execution with deterministic output.
//!
//! The runner flattens a scenario's `cases × replications` grid into a
//! job list, spreads it over `std::thread` workers pulling from an atomic
//! cursor, and merges results **by job index**, never by completion
//! order. Each job's RNG seed is a pure function of its coordinates
//! ([`scrip_des::SeedSequence::replication_seed`]), so the aggregated
//! output — including [`ScenarioResult::to_csv`] — is byte-identical
//! whether the batch runs on 1 thread or 64.
//!
//! Each job is one [`scrip_core::obs::Session`]: the unified runner
//! drives either market granularity and the metric registry's probes
//! ([`super::Metric`]) deposit their measurements into the job's
//! [`RunRecord`]. The always-on probes back [`ReplicationRun`]'s typed
//! accessors; metrics requested via `run.metrics` additionally select
//! which aggregated series reach the CSV.
//!
//! Replication 0 of every case reuses the scenario's root seed and all
//! cases share the same replication seed stream (common random numbers),
//! which makes single-replication batch runs reproduce direct
//! [`scrip_core::market::run_market`]-style calls exactly and reduces
//! variance when comparing grid points.
//!
//! Every way of executing a scenario goes through this one recipe: the
//! plain batch ([`run_scenario`]) as well as the checkpointing, recording
//! and replaying CLI verbs and the job daemon's workers, which only
//! supply a [`Driver`] — where a replication's session comes from, where
//! it pauses, and what happens at a pause and at the horizon. Pauses
//! split `run_until` into chunks, which the session contract makes
//! output-neutral, so a driven run's CSV is the plain batch's byte for
//! byte.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scrip_core::des::{SeedSequence, SimTime};
use scrip_core::market::MarketConfig;
use scrip_core::obs::{ids, Probe, RunRecord, Session};
use scrip_core::spec::MarketSpec;
use scrip_core::CoreError;
use scrip_econ::aggregate::{aggregate_rows, SummaryStats};

use super::{Metric, RunSpec, Scenario, ScenarioError};

/// Batch-execution options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunnerOptions {
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
}

/// Process-wide worker-cap override (sentinel `usize::MAX` = none),
/// taking precedence over `SCRIP_THREADS` in
/// [`RunnerOptions::from_env`]. This is how a CLI's `--threads` /
/// `--serial` reaches the scenario runs *inside* figure modules, whose
/// `fn(RunScale)` signature has no room to pass options through.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Sets (or with [`None`] clears) the process-wide worker-cap override
/// and returns the previous value. 0 means "one per core".
pub fn set_thread_override(threads: Option<usize>) -> Option<usize> {
    let raw = threads.unwrap_or(usize::MAX);
    let previous = THREAD_OVERRIDE.swap(raw, Ordering::SeqCst);
    (previous != usize::MAX).then_some(previous)
}

impl RunnerOptions {
    /// The ambient thread count: the process-wide override set via
    /// [`set_thread_override`] if any, else `SCRIP_THREADS` (unset,
    /// empty, or `0` mean "one per core").
    pub fn from_env() -> Self {
        let overridden = THREAD_OVERRIDE.load(Ordering::SeqCst);
        if overridden != usize::MAX {
            return RunnerOptions {
                threads: overridden,
            };
        }
        let threads = std::env::var("SCRIP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        RunnerOptions { threads }
    }

    /// Explicit thread count (0 = one per core).
    pub fn with_threads(threads: usize) -> Self {
        RunnerOptions { threads }
    }

    /// The worker count for `jobs` queued jobs.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let requested = if self.threads == 0 { hw } else { self.threads };
        requested.min(jobs).max(1)
    }
}

/// Runs `f(0..count)` on up to `threads` workers and returns the results
/// in index order, regardless of completion order. With one effective
/// worker the closure runs inline on the caller's thread.
pub fn parallel_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = RunnerOptions { threads }.effective_threads(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::SeqCst);
                if i >= count {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Everything measured in one simulated market run: the seed it ran
/// with plus the [`RunRecord`] the session's probes deposited. The
/// typed accessors read the always-on metrics (recorded for every run
/// regardless of the scenario's `metrics` selection); anything else —
/// including metrics minted by downstream code — is reachable through
/// [`ReplicationRun::record`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicationRun {
    /// The seed this replication ran with.
    pub seed: u64,
    /// All measurements, keyed by metric id (see
    /// [`scrip_core::obs::ids`]).
    pub record: RunRecord,
}

impl ReplicationRun {
    /// Gini-over-time samples `(t_secs, gini)`.
    pub fn gini(&self) -> &[(f64, f64)] {
        self.record.series(ids::GINI_SERIES)
    }

    /// Final wealth distribution, sorted ascending.
    pub fn final_balances(&self) -> &[u64] {
        self.record.sorted_u64(ids::FINAL_BALANCES)
    }

    /// Per-peer credit spending rates over the whole run, sorted
    /// ascending.
    pub fn spending_rates(&self) -> &[f64] {
        self.record.sorted_f64(ids::SPENDING_RATES)
    }

    /// Sorted wealth snapshots at the configured times.
    pub fn snapshots(&self) -> &[(u64, Vec<u64>)] {
        self.record.snapshots(ids::SNAPSHOTS)
    }

    /// Stall-rate samples `(t_secs, stall)` of a chunk-level streaming
    /// market; empty for queue-level markets.
    pub fn stalls(&self) -> &[(f64, f64)] {
        self.record.series(ids::STALL_SERIES)
    }

    /// Gini of the final wealth distribution.
    pub fn wealth_gini(&self) -> f64 {
        self.record.scalar(ids::WEALTH_GINI)
    }

    /// Successful purchases (settlements at chunk granularity).
    pub fn purchases(&self) -> u64 {
        self.record.counter(ids::PURCHASES)
    }

    /// Purchase attempts denied for lack of credits.
    pub fn denied(&self) -> u64 {
        self.record.counter(ids::DENIED)
    }

    /// Total credits spent by live peers.
    pub fn total_spent(&self) -> u64 {
        self.record.counter(ids::TOTAL_SPENT)
    }

    /// Live peers at the horizon.
    pub fn peer_count(&self) -> usize {
        self.record.counter(ids::PEER_COUNT) as usize
    }

    /// Credits collected by taxation (0 without tax).
    pub fn tax_collected(&self) -> u64 {
        self.record.counter(ids::TAX_COLLECTED)
    }

    /// Credits redistributed by taxation (0 without tax).
    pub fn tax_redistributed(&self) -> u64 {
        self.record.counter(ids::TAX_REDISTRIBUTED)
    }
}

/// All replications of one expanded case, plus aggregation helpers.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// The case label.
    pub label: String,
    /// The market description this case ran.
    pub spec: MarketSpec,
    /// Per-replication measurements, in replication order.
    pub reps: Vec<ReplicationRun>,
    /// Total simulation time spent on this case (sum over replications;
    /// excluded from all deterministic output).
    pub wall: Duration,
}

impl CaseResult {
    /// The single replication of a replications=1 case.
    ///
    /// # Panics
    /// Panics when the case has no replications (cannot happen for
    /// runner-produced results).
    pub fn single(&self) -> &ReplicationRun {
        &self.reps[0]
    }

    /// Truncates all replications' `rows` to their common prefix length
    /// and aggregates column-wise.
    fn aggregate_f64_rows(rows: Vec<Vec<f64>>) -> Vec<SummaryStats> {
        let width = rows.iter().map(Vec::len).min().unwrap_or(0);
        let trimmed: Vec<&[f64]> = rows.iter().map(|r| &r[..width]).collect();
        if width == 0 {
            return Vec::new();
        }
        aggregate_rows(&trimmed).expect("aligned finite rows")
    }

    /// Any recorded `(x, y)` series aggregated across replications:
    /// `(x, stats)` per sample, truncated to the shortest replication,
    /// with x values taken from replication 0. Empty when the metric
    /// was not recorded.
    pub fn series_aggregate(&self, id: &str) -> Vec<(f64, SummaryStats)> {
        let stats = Self::aggregate_f64_rows(
            self.reps
                .iter()
                .map(|r| r.record.series(id).iter().map(|&(_, y)| y).collect())
                .collect(),
        );
        self.reps[0]
            .record
            .series(id)
            .iter()
            .map(|&(x, _)| x)
            .zip(stats)
            .collect()
    }

    /// The Gini trajectory aggregated across replications.
    pub fn gini_aggregate(&self) -> Vec<(f64, SummaryStats)> {
        self.series_aggregate(ids::GINI_SERIES)
    }

    /// The final wealth distribution aggregated by rank.
    pub fn balances_aggregate(&self) -> Vec<SummaryStats> {
        Self::aggregate_f64_rows(
            self.reps
                .iter()
                .map(|r| r.final_balances().iter().map(|&b| b as f64).collect())
                .collect(),
        )
    }

    /// The spending-rate distribution aggregated by rank.
    pub fn rates_aggregate(&self) -> Vec<SummaryStats> {
        Self::aggregate_f64_rows(
            self.reps
                .iter()
                .map(|r| r.spending_rates().to_vec())
                .collect(),
        )
    }

    /// The stall-rate trajectory aggregated across replications. Empty
    /// for queue-level markets.
    pub fn stall_aggregate(&self) -> Vec<(f64, SummaryStats)> {
        self.series_aggregate(ids::STALL_SERIES)
    }

    /// The wealth snapshot at time `t`, aggregated by rank.
    pub fn snapshot_aggregate(&self, t: u64) -> Vec<SummaryStats> {
        Self::aggregate_f64_rows(
            self.reps
                .iter()
                .map(|r| {
                    r.snapshots()
                        .iter()
                        .find(|&&(st, _)| st == t)
                        .map(|(_, balances)| balances.iter().map(|&b| b as f64).collect())
                        .unwrap_or_default()
                })
                .collect(),
        )
    }

    /// The plateau Gini (mean of each replication's last 10 samples)
    /// summarized across replications.
    pub fn plateau(&self) -> Option<SummaryStats> {
        let plateaus: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| {
                let gini = r.gini();
                if gini.is_empty() {
                    return None;
                }
                let tail = &gini[gini.len().saturating_sub(10)..];
                Some(tail.iter().map(|&(_, g)| g).sum::<f64>() / tail.len() as f64)
            })
            .collect();
        SummaryStats::from_samples(&plateaus).ok()
    }
}

/// Appends aggregated `metric,case,x,mean,min,max` CSV rows.
fn push_rows(
    out: &mut String,
    metric: &str,
    label: &str,
    xs: impl Iterator<Item = f64>,
    stats: &[SummaryStats],
) {
    for (x, s) in xs.zip(stats) {
        out.push_str(&format!(
            "{metric},{label},{x:.6},{:.6},{:.6},{:.6}\n",
            s.mean, s.min, s.max
        ));
    }
}

/// Appends a series metric's rows (x values from the aggregate).
fn push_series(out: &mut String, metric: &str, label: &str, agg: &[(f64, SummaryStats)]) {
    let stats: Vec<SummaryStats> = agg.iter().map(|&(_, s)| s).collect();
    push_rows(out, metric, label, agg.iter().map(|&(x, _)| x), &stats);
}

/// Appends a rank-indexed distribution metric's rows (x = rank).
fn push_ranked(out: &mut String, metric: &str, label: &str, stats: &[SummaryStats]) {
    push_rows(
        out,
        metric,
        label,
        (0..stats.len()).map(|i| i as f64),
        stats,
    );
}

// CSV emitters behind the metric registry (`super::Metric`), one per
// registered metric. Row formats are pinned byte-for-byte by
// `tests/scenario_golden.rs`.

pub(super) fn emit_gini(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_series(out, "gini", &case.label, &case.gini_aggregate());
}

pub(super) fn emit_final_balances(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_ranked(
        out,
        "final-balance",
        &case.label,
        &case.balances_aggregate(),
    );
}

pub(super) fn emit_spending_rates(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_ranked(out, "spending-rate", &case.label, &case.rates_aggregate());
}

pub(super) fn emit_snapshots(sc: &Scenario, case: &CaseResult, out: &mut String) {
    for &t in &sc.run.snapshots {
        push_ranked(
            out,
            &format!("snapshot{t}"),
            &case.label,
            &case.snapshot_aggregate(t),
        );
    }
}

pub(super) fn emit_stalls(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_series(out, "stall", &case.label, &case.stall_aggregate());
}

pub(super) fn emit_throughput(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_series(
        out,
        "throughput",
        &case.label,
        &case.series_aggregate(ids::THROUGHPUT_SERIES),
    );
}

pub(super) fn emit_population(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_series(
        out,
        "population",
        &case.label,
        &case.series_aggregate(ids::POPULATION_SERIES),
    );
}

pub(super) fn emit_lorenz(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_series(
        out,
        "lorenz",
        &case.label,
        &case.series_aggregate(ids::LORENZ),
    );
}

pub(super) fn emit_faults(_sc: &Scenario, case: &CaseResult, out: &mut String) {
    push_series(
        out,
        "fault",
        &case.label,
        &case.series_aggregate(ids::FAULT_SERIES),
    );
    push_series(
        out,
        "escrow",
        &case.label,
        &case.series_aggregate(ids::ESCROW_SERIES),
    );
    push_series(
        out,
        "retry-depth",
        &case.label,
        &case.series_aggregate(ids::RETRY_DEPTH),
    );
}

/// A finished scenario: per-case results plus timing.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// One result per expanded case, in expansion order.
    pub cases: Vec<CaseResult>,
    /// End-to-end wall-clock of the batch (excluded from deterministic
    /// output).
    pub wall: Duration,
}

impl ScenarioResult {
    /// Deterministic per-case summary lines (plateau Gini, throughput
    /// counters) — identical for every thread count.
    pub fn summary_lines(&self) -> Vec<String> {
        self.cases
            .iter()
            .map(|case| {
                let reps = case.reps.len() as f64;
                let purchases = case.reps.iter().map(|r| r.purchases()).sum::<u64>() as f64 / reps;
                let denied = case.reps.iter().map(|r| r.denied()).sum::<u64>() as f64 / reps;
                let peers = case.reps.iter().map(|r| r.peer_count()).sum::<usize>() as f64 / reps;
                let wealth_gini = case.reps.iter().map(|r| r.wealth_gini()).sum::<f64>() / reps;
                // Chunk-level cases also report their final stall rate.
                let stall = if case.reps.iter().all(|r| r.stalls().is_empty()) {
                    String::new()
                } else {
                    let s = case
                        .reps
                        .iter()
                        .filter_map(|r| r.stalls().last().map(|&(_, s)| s))
                        .sum::<f64>()
                        / reps;
                    format!(", stall={s:.4}")
                };
                match case.plateau() {
                    Some(p) => format!(
                        "case {}: plateau gini mean={:.4} min={:.4} max={:.4}, final wealth \
                         gini={:.4}, purchases={purchases:.1}, denied={denied:.1}, \
                         peers={peers:.1}{stall}",
                        case.label, p.mean, p.min, p.max, wealth_gini
                    ),
                    None => format!(
                        "case {}: final wealth gini={wealth_gini:.4}, purchases={purchases:.1}, \
                         denied={denied:.1}, peers={peers:.1}{stall}",
                        case.label
                    ),
                }
            })
            .collect()
    }

    /// Renders the replication-aggregated metrics as CSV with
    /// `#`-prefixed metadata, in scenario metric order. Byte-identical
    /// for every thread count (pinned by `tests/scenario_golden.rs`).
    pub fn to_csv(&self) -> String {
        let sc = &self.scenario;
        let mut out = String::new();
        if sc.title.is_empty() {
            out.push_str(&format!("# scenario: {}\n", sc.name));
        } else {
            out.push_str(&format!("# scenario: {} — {}\n", sc.name, sc.title));
        }
        out.push_str(&format!(
            "# horizon: {}s, seed: {}, replications: {}, cases: {}\n",
            sc.run.horizon_secs,
            sc.run.seed,
            sc.run.replications,
            self.cases.len()
        ));
        for line in self.summary_lines() {
            out.push_str(&format!("# {line}\n"));
        }
        out.push_str("metric,case,x,mean,min,max\n");
        for metric in &sc.run.metrics {
            for case in &self.cases {
                metric.emit_csv(sc, case, &mut out);
            }
        }
        out
    }
}

/// The probes one replication attaches, in attach order: every
/// always-on registry metric (they back [`ReplicationRun`]'s accessors
/// and the summary lines) plus any additionally requested ones,
/// deduplicated.
fn probes(run: &RunSpec) -> Vec<Box<dyn Probe>> {
    let mut metrics: Vec<Metric> = Metric::registry()
        .into_iter()
        .filter(Metric::always_on)
        .collect();
    for &metric in &run.metrics {
        if !metrics.contains(&metric) {
            metrics.push(metric);
        }
    }
    metrics.iter().map(|m| m.make_probe(run)).collect()
}

/// One replication of a scenario, as a [`Driver`] sees it.
pub struct Replication<'a> {
    /// The label of its case.
    pub label: &'a str,
    /// The case's market.
    pub config: &'a MarketConfig,
    /// The replication's seed.
    pub seed: u64,
    /// The scenario's run parameters.
    pub run: &'a RunSpec,
}

impl Replication<'_> {
    /// The simulated horizon.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.run.horizon_secs)
    }

    /// A fresh session of this replication with the scenario's probe
    /// set attached.
    ///
    /// # Errors
    /// Returns [`ScenarioError::Run`] when the market cannot be built.
    pub fn fresh(&self) -> Result<Session, ScenarioError> {
        let mut session = Session::from_config(self.config, self.seed)
            .map_err(|e| ScenarioError::Run(format!("seed {}: {e}", self.seed)))?;
        for probe in probes(self.run) {
            session.attach(probe);
        }
        Ok(session)
    }

    /// Resumes this replication from a [`Session::checkpoint`] snapshot,
    /// restoring the same probe set.
    ///
    /// # Errors
    /// Returns the snapshot's decode or configuration-mismatch error.
    pub fn resume(&self, snapshot: &[u8]) -> Result<Session, CoreError> {
        Session::resume(self.config, probes(self.run), snapshot)
    }
}

/// How a caller steers each replication of [`run_driven`]. Every method
/// has a default; a driver that overrides none runs the plain batch.
pub trait Driver: Sync {
    /// The session the replication runs: [`Replication::fresh`] by
    /// default. Override to resume a snapshot or attach a trace or a
    /// sample sink.
    ///
    /// # Errors
    /// An error fails the replication.
    fn open(&self, rep: &Replication<'_>) -> Result<Session, ScenarioError> {
        rep.fresh()
    }

    /// Ascending simulated times strictly inside the horizon at which
    /// the run stops for [`Driver::at_pause`]; a resumed session skips
    /// those at or before its clock. None by default.
    fn pauses(&self, _rep: &Replication<'_>) -> Vec<SimTime> {
        Vec::new()
    }

    /// Called at each pause.
    ///
    /// # Errors
    /// An error stops and fails the replication.
    fn at_pause(&self, _rep: &Replication<'_>, _session: &Session) -> Result<(), ScenarioError> {
        Ok(())
    }

    /// Called once the session reached the horizon, before it finishes.
    ///
    /// # Errors
    /// An error fails the replication.
    fn at_horizon(
        &self,
        _rep: &Replication<'_>,
        _session: &mut Session,
    ) -> Result<(), ScenarioError> {
        Ok(())
    }
}

/// The plain batch: every [`Driver`] default.
struct Straight;

impl Driver for Straight {}

/// The multiples of `step_us` microseconds strictly inside `horizon`,
/// ascending; empty for a zero step. Pause schedules are built from it.
pub fn cadence(step_us: u64, horizon: SimTime) -> Vec<SimTime> {
    if step_us == 0 {
        return Vec::new();
    }
    (1u64..)
        .map_while(|k| k.checked_mul(step_us))
        .take_while(|&t| t < horizon.as_micros())
        .map(SimTime::from_micros)
        .collect()
}

/// Writes `bytes` to `path` through `PATH.tmp` and a rename, so a reader
/// never observes a partial file.
///
/// # Errors
/// Returns [`ScenarioError::Run`] naming the file that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ScenarioError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .map_err(|e| ScenarioError::Run(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| ScenarioError::Run(format!("{}: {e}", path.display())))
}

/// Snapshots `session` ([`Session::checkpoint`]) to `path` with
/// [`write_atomic`], so a run resuming after a crash never reads a
/// partial snapshot.
///
/// # Errors
/// Returns [`ScenarioError::Run`] when the session cannot checkpoint or
/// the file cannot be written.
pub fn checkpoint_to(session: &Session, path: &Path) -> Result<(), ScenarioError> {
    let bytes = session
        .checkpoint()
        .map_err(|e| ScenarioError::Run(e.to_string()))?;
    write_atomic(path, &bytes)
}

/// One replication through `driver`: open, advance pause by pause, run
/// to the horizon, finish. A market with no peers left at the horizon
/// fails, since its wealth statistics are undefined.
fn run_replication(
    rep: &Replication<'_>,
    driver: &dyn Driver,
) -> Result<ReplicationRun, ScenarioError> {
    let mut session = driver.open(rep)?;
    for pause in driver.pauses(rep) {
        if pause > session.now() {
            session.run_until(pause);
            driver.at_pause(rep, &session)?;
        }
    }
    session.run_until(rep.horizon());
    driver.at_horizon(rep, &mut session)?;
    let (record, _model) = session.finish();
    if record.get(ids::WEALTH_GINI).is_none() {
        return Err(ScenarioError::Run(format!(
            "seed {}: market has no peers at the horizon",
            rep.seed
        )));
    }
    Ok(ReplicationRun {
        seed: rep.seed,
        record,
    })
}

/// Runs a scenario's full `cases × replications` grid, spread across
/// worker threads, and merges the results in deterministic order.
///
/// # Errors
/// Returns [`ScenarioError::Config`] for invalid scenarios and
/// [`ScenarioError::Run`] when a simulation fails; the first failing job
/// (in job order) wins.
pub fn run_scenario(
    scenario: &Scenario,
    options: &RunnerOptions,
) -> Result<ScenarioResult, ScenarioError> {
    run_driven(scenario, options, &Straight)
}

/// [`run_scenario`] with `driver` steering every replication.
///
/// # Errors
/// As [`run_scenario`]; an error from the driver fails its replication.
pub fn run_driven(
    scenario: &Scenario,
    options: &RunnerOptions,
    driver: &dyn Driver,
) -> Result<ScenarioResult, ScenarioError> {
    scenario.validate_params()?;
    let cases = scenario.expand()?;
    let configs: Vec<MarketConfig> = cases
        .iter()
        .map(|c| {
            c.spec
                .build()
                .map_err(|e| ScenarioError::Config(format!("case {:?}: {e}", c.label)))
        })
        .collect::<Result<_, _>>()?;
    let reps = scenario.run.replications;
    let seq = SeedSequence::new(scenario.run.seed);
    let jobs: Vec<(usize, u64)> = (0..cases.len())
        .flat_map(|case| (0..reps as u64).map(move |rep| (case, rep)))
        .collect();
    let threads = options.effective_threads(jobs.len());
    // Lowest index of a failed job so far. Jobs after it are skipped:
    // the batch reports the first failure in job order, and that job is
    // never skipped since no earlier job failed.
    let first_failure = AtomicUsize::new(usize::MAX);

    let start = Instant::now();
    let outcomes: Vec<(Result<ReplicationRun, ScenarioError>, Duration)> =
        parallel_map(jobs.len(), threads, |i| {
            if i > first_failure.load(Ordering::SeqCst) {
                let skipped = ScenarioError::Run("skipped after an earlier failure".into());
                return (Err(skipped), Duration::ZERO);
            }
            let (case, rep) = jobs[i];
            let replication = Replication {
                label: &cases[case].label,
                config: &configs[case],
                seed: seq.replication_seed(rep),
                run: &scenario.run,
            };
            let t0 = Instant::now();
            let run = run_replication(&replication, driver);
            if run.is_err() {
                first_failure.fetch_min(i, Ordering::SeqCst);
            }
            (run, t0.elapsed())
        });
    let wall = start.elapsed();

    let mut results: Vec<CaseResult> = cases
        .into_iter()
        .map(|c| CaseResult {
            label: c.label,
            spec: c.spec,
            reps: Vec::with_capacity(reps),
            wall: Duration::ZERO,
        })
        .collect();
    for ((case, _), (outcome, elapsed)) in jobs.into_iter().zip(outcomes) {
        results[case].reps.push(outcome?);
        results[case].wall += elapsed;
    }
    Ok(ScenarioResult {
        scenario: scenario.clone(),
        cases: results,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CaseSpec, SweepAxis};

    fn tiny_scenario() -> Scenario {
        let mut sc = Scenario::new("tiny", MarketSpec::new(30, 10));
        sc.base.set("sample", "50").expect("valid");
        sc.run.horizon_secs = 400;
        sc.run.seed = 7;
        sc.run.replications = 3;
        sc.run.snapshots = vec![200, 400];
        sc.run.metrics = vec![
            Metric::GINI_SERIES,
            Metric::FINAL_BALANCES,
            Metric::SPENDING_RATES,
            Metric::SNAPSHOTS,
        ];
        sc.sweep = vec![SweepAxis::new("credits", [5u64, 10])];
        sc
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        let serial = parallel_map(5, 1, |i| i);
        assert_eq!(serial, vec![0, 1, 2, 3, 4]);
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sc = tiny_scenario();
        let serial = run_scenario(&sc, &RunnerOptions::with_threads(1)).expect("runs");
        let parallel = run_scenario(&sc, &RunnerOptions::with_threads(4)).expect("runs");
        assert_eq!(serial.cases.len(), parallel.cases.len());
        for (a, b) in serial.cases.iter().zip(&parallel.cases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.reps, b.reps, "case {} diverged", a.label);
        }
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn replication_zero_reproduces_direct_run() {
        use scrip_core::des::SimTime;
        use scrip_core::market::run_market;

        let mut sc = Scenario::new("direct", MarketSpec::new(30, 10));
        sc.run.horizon_secs = 400;
        sc.run.seed = 99;
        let result = run_scenario(&sc, &RunnerOptions::with_threads(2)).expect("runs");
        let direct =
            run_market(sc.base.build().expect("valid"), 99, SimTime::from_secs(400)).expect("runs");
        assert_eq!(
            result.cases[0].reps[0].final_balances(),
            direct.balances_sorted()
        );
        assert_eq!(result.cases[0].reps[0].purchases(), direct.purchases());
    }

    #[test]
    fn replications_use_distinct_seeds() {
        let sc = tiny_scenario();
        let result = run_scenario(&sc, &RunnerOptions::default()).expect("runs");
        let seeds: Vec<u64> = result.cases[0].reps.iter().map(|r| r.seed).collect();
        assert_eq!(seeds[0], sc.run.seed, "replication 0 keeps the root seed");
        assert_eq!(seeds.len(), 3);
        assert!(seeds[1] != seeds[0] && seeds[2] != seeds[1] && seeds[2] != seeds[0]);
        // Common random numbers: both cases see the same seeds.
        let other: Vec<u64> = result.cases[1].reps.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, other);
    }

    #[test]
    fn aggregates_cover_all_requested_metrics() {
        let sc = tiny_scenario();
        let result = run_scenario(&sc, &RunnerOptions::default()).expect("runs");
        let case = &result.cases[0];
        assert!(!case.gini_aggregate().is_empty());
        assert!(!case.balances_aggregate().is_empty());
        assert!(!case.rates_aggregate().is_empty());
        assert!(!case.snapshot_aggregate(200).is_empty());
        assert!(case.snapshot_aggregate(12345).is_empty(), "unknown time");
        let plateau = case.plateau().expect("gini recorded");
        assert!(plateau.n == 3 && (0.0..=1.0).contains(&plateau.mean));
        let csv = result.to_csv();
        for needle in ["gini,", "final-balance,", "spending-rate,", "snapshot200,"] {
            assert!(csv.contains(needle), "CSV missing {needle}");
        }
        assert_eq!(result.summary_lines().len(), 2);
    }

    #[test]
    fn new_registry_metrics_reach_the_csv() {
        let mut sc = Scenario::new("extras", MarketSpec::new(30, 10));
        sc.base.set("sample", "50").expect("valid");
        sc.run.horizon_secs = 300;
        sc.run.metrics = vec![
            Metric::THROUGHPUT_SERIES,
            Metric::POPULATION_SERIES,
            Metric::LORENZ,
        ];
        let result = run_scenario(&sc, &RunnerOptions::with_threads(2)).expect("runs");
        let case = &result.cases[0];
        assert_eq!(
            case.series_aggregate(ids::THROUGHPUT_SERIES).len(),
            6,
            "one throughput point per sampling boundary"
        );
        assert_eq!(
            case.series_aggregate(ids::POPULATION_SERIES).len(),
            7,
            "bootstrap point + 6 boundaries"
        );
        assert_eq!(case.series_aggregate(ids::LORENZ).len(), 101);
        let csv = result.to_csv();
        for needle in ["throughput,base,", "population,base,", "lorenz,base,"] {
            assert!(csv.contains(needle), "CSV missing {needle}:\n{csv}");
        }
        // The always-on metrics are still measured even when unselected.
        assert!(!case.single().final_balances().is_empty());
        assert!(!csv.contains("final-balance,"), "unselected metric leaked");
    }

    #[test]
    fn streaming_scenarios_run_and_record_stalls() {
        let mut sc = Scenario::new("chunks", MarketSpec::new(30, 50));
        sc.base.set("streaming", "paced:1").expect("valid");
        sc.base.set("sample", "25").expect("valid");
        sc.run.horizon_secs = 150;
        sc.run.snapshots = vec![75, 150];
        sc.run.metrics = vec![Metric::GINI_SERIES, Metric::STALL_SERIES, Metric::SNAPSHOTS];
        let result = run_scenario(&sc, &RunnerOptions::with_threads(2)).expect("runs");
        let case = &result.cases[0];
        assert!(!case.single().stalls().is_empty(), "stall series recorded");
        assert!(!case.single().gini().is_empty(), "gini series recorded");
        assert!(case.single().purchases() > 0, "chunk trades settled");
        assert!(!case.stall_aggregate().is_empty());
        assert!(!case.snapshot_aggregate(75).is_empty());
        let csv = result.to_csv();
        assert!(
            csv.contains("stall,base,"),
            "CSV missing stall rows:\n{csv}"
        );
        assert!(
            result.summary_lines()[0].contains("stall="),
            "summary notes stall"
        );
        // Queue-level cases leave the stall series empty.
        let queue = run_scenario(&tiny_scenario(), &RunnerOptions::default()).expect("runs");
        assert!(queue.cases[0].single().stalls().is_empty());
        assert!(!queue.summary_lines()[0].contains("stall="));
    }

    /// Pauses at an odd cadence and resumes every replication from a
    /// mid-run snapshot of itself.
    struct Hopping;

    impl Driver for Hopping {
        fn open(&self, rep: &Replication<'_>) -> Result<Session, ScenarioError> {
            let mut session = rep.fresh()?;
            session.run_until(SimTime::from_secs(130));
            let bytes = session
                .checkpoint()
                .expect("queue-level sessions checkpoint");
            rep.resume(&bytes)
                .map_err(|e| ScenarioError::Run(e.to_string()))
        }

        fn pauses(&self, rep: &Replication<'_>) -> Vec<SimTime> {
            cadence(37_000_000, rep.horizon())
        }
    }

    #[test]
    fn driven_runs_match_the_plain_batch() {
        let sc = tiny_scenario();
        let plain = run_scenario(&sc, &RunnerOptions::with_threads(1)).expect("runs");
        let driven = run_driven(&sc, &RunnerOptions::with_threads(2), &Hopping).expect("runs");
        assert_eq!(plain.to_csv(), driven.to_csv());
    }

    /// Fails every replication at its first pause, counting openings.
    struct Failing(AtomicUsize);

    impl Driver for Failing {
        fn open(&self, rep: &Replication<'_>) -> Result<Session, ScenarioError> {
            self.0.fetch_add(1, Ordering::SeqCst);
            rep.fresh()
        }

        fn pauses(&self, rep: &Replication<'_>) -> Vec<SimTime> {
            cadence(100_000_000, rep.horizon())
        }

        fn at_pause(&self, rep: &Replication<'_>, _session: &Session) -> Result<(), ScenarioError> {
            Err(ScenarioError::Run(format!("halted seed {}", rep.seed)))
        }
    }

    #[test]
    fn the_first_failure_in_job_order_stops_the_batch() {
        let sc = tiny_scenario();
        for threads in [1, 4] {
            let driver = Failing(AtomicUsize::new(0));
            let err =
                run_driven(&sc, &RunnerOptions::with_threads(threads), &driver).expect_err("fails");
            assert_eq!(
                err,
                ScenarioError::Run(format!("halted seed {}", sc.run.seed))
            );
            if threads == 1 {
                assert_eq!(driver.0.load(Ordering::SeqCst), 1, "later jobs are skipped");
            }
        }
    }

    #[test]
    fn cadence_lists_interior_multiples() {
        let secs = |v: Vec<SimTime>| {
            v.iter()
                .map(|t| t.as_micros() / 1_000_000)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            secs(cadence(100_000_000, SimTime::from_secs(300))),
            [100, 200]
        );
        assert!(cadence(0, SimTime::from_secs(300)).is_empty());
        assert_eq!(
            cadence(u64::MAX, SimTime::from_secs(300)),
            Vec::<SimTime>::new()
        );
    }

    #[test]
    fn invalid_scenarios_are_refused() {
        let mut sc = tiny_scenario();
        sc.run.horizon_secs = 0;
        assert!(run_scenario(&sc, &RunnerOptions::default()).is_err());

        let mut sc = tiny_scenario();
        sc.cases = vec![CaseSpec::new("broke").with("peers", "1")];
        assert!(run_scenario(&sc, &RunnerOptions::default()).is_err());
    }
}
