//! The scenario engine: declarative experiment descriptions and a
//! multi-threaded batch runner.
//!
//! A [`Scenario`] is everything needed to reproduce one experiment of the
//! paper's evaluation — or to define a brand-new workload — without
//! writing Rust:
//!
//! * a **base market** ([`scrip_core::spec::MarketSpec`]): peers,
//!   topology, pricing, spending policy, taxation, churn;
//! * **execution parameters** ([`RunSpec`]): horizon, RNG seed, number of
//!   replications, wealth-snapshot times, recorded metrics;
//! * **explicit cases** ([`CaseSpec`]): named variants that override base
//!   keys (e.g. `taxed` vs `untaxed`);
//! * **sweep axes** ([`SweepAxis`]): per-key value grids expanded as a
//!   cross product over the cases.
//!
//! Scenarios come from three places: the figure modules in
//! [`crate::figures`] emit one per market-driven figure, scenario *files*
//! (a small TOML subset, grammar in `docs/SCENARIOS.md`) are parsed with
//! [`Scenario::parse_str`], and ad-hoc scenarios can be built in code.
//! [`Scenario::to_file_string`] serializes any scenario back to the file
//! format, so every built-in experiment doubles as an example file.
//!
//! Execution is handled by [`runner::run_scenario`], which spreads the
//! `cases × replications` grid over worker threads with deterministic
//! per-job seeds ([`scrip_des::SeedSequence`]) and merges results in job
//! order — output is byte-identical for any thread count. Callers that
//! checkpoint, trace or serve a run steer the same path through
//! [`runner::run_driven`] and a [`runner::Driver`].

mod parse;
pub mod runner;

use std::fmt;

use scrip_core::market::MarketConfig;
use scrip_core::obs::{probes as obs_probes, Probe};
use scrip_core::spec::MarketSpec;
use scrip_core::CoreError;

pub use parse::ParseError;
pub use runner::{
    cadence, checkpoint_to, parallel_map, run_driven, run_scenario, write_atomic, CaseResult,
    Driver, Replication, ReplicationRun, RunnerOptions, ScenarioResult,
};

/// Default RNG seed of a scenario that does not specify one.
pub const DEFAULT_SEED: u64 = 42;

/// Errors from scenario handling: file syntax, configuration, or
/// execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The scenario file failed to parse.
    Parse(ParseError),
    /// The scenario describes an invalid configuration.
    Config(String),
    /// A simulation run failed.
    Run(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Config(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Run(msg) => write!(f, "scenario run failed: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<CoreError> for ScenarioError {
    fn from(e: CoreError) -> Self {
        ScenarioError::Config(e.to_string())
    }
}

/// A metric recorded into the aggregated scenario output: its
/// scenario-file name, the [`Probe`] that measures it, and the CSV
/// emitter that renders its aggregate. A new observable is a variant
/// here, a probe in [`scrip_core::obs::probes`] and a field of
/// [`scrip_core::obs::RunRecord`]; the parser, the CSV pipeline and
/// `scrip-sim metrics` all read [`Metric::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// The Gini-over-time trajectory (the paper's Figs. 7–11).
    GiniSeries,
    /// The final sorted wealth distribution.
    FinalBalances,
    /// The sorted per-peer credit spending rates (Fig. 1).
    SpendingRates,
    /// Sorted wealth snapshots at the configured times (Figs. 5–6).
    Snapshots,
    /// The stall-rate-over-time trajectory of a chunk-level streaming
    /// market (not-yet-started peers count as fully stalled). Empty for
    /// queue-level markets.
    StallSeries,
    /// System throughput over time: purchases/sec between sampling
    /// boundaries.
    ThroughputSeries,
    /// Live peers over time (flat without churn).
    PopulationSeries,
    /// The final wealth Lorenz curve.
    Lorenz,
    /// Fault-injection recovery series: cumulative failed trade
    /// attempts and in-flight escrow over time plus the retry-depth
    /// histogram. Empty when the market has no fault plan.
    FaultSeries,
}

impl Metric {
    /// Every metric, in canonical output order. The first five are the
    /// always-on metrics, whose names and CSV output are pinned
    /// byte-for-byte by `tests/scenario_golden.rs`.
    pub const ALL: [Metric; 9] = [
        Metric::GiniSeries,
        Metric::FinalBalances,
        Metric::SpendingRates,
        Metric::Snapshots,
        Metric::StallSeries,
        Metric::ThroughputSeries,
        Metric::PopulationSeries,
        Metric::Lorenz,
        Metric::FaultSeries,
    ];

    /// The metric's name in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            Metric::GiniSeries => "gini-series",
            Metric::FinalBalances => "final-balances",
            Metric::SpendingRates => "spending-rates",
            Metric::Snapshots => "snapshots",
            Metric::StallSeries => "stall-series",
            Metric::ThroughputSeries => "throughput-series",
            Metric::PopulationSeries => "population-series",
            Metric::Lorenz => "lorenz",
            Metric::FaultSeries => "fault-series",
        }
    }

    /// One-line description of what the metric records (shown by
    /// `scrip-sim metrics` and the SCENARIOS.md table).
    pub fn doc(self) -> &'static str {
        match self {
            Metric::GiniSeries => "Gini-over-time trajectory (the paper's Figs. 7-11)",
            Metric::FinalBalances => "final wealth distribution, sorted ascending (Figs. 5-6)",
            Metric::SpendingRates => "sorted per-peer credit spending rates (Fig. 1)",
            Metric::Snapshots => "sorted wealth snapshots at the configured times (Figs. 5-6)",
            Metric::StallSeries => {
                "stall-rate trajectory of a chunk-level market (empty at queue level)"
            }
            Metric::ThroughputSeries => {
                "system throughput over time (purchases/sec per sampling interval)"
            }
            Metric::PopulationSeries => {
                "live peers over time (the arrival/departure balance under churn)"
            }
            Metric::Lorenz => "final wealth Lorenz curve sampled at 100 population shares (Fig. 2)",
            Metric::FaultSeries => {
                "fault-injection recovery: failed trades, escrow over time, retry depths"
            }
        }
    }

    /// Whether the probe is attached to every run regardless of the
    /// scenario's `metrics` selection. The five legacy metrics are
    /// always-on: figures and the per-case summary lines read them.
    pub fn always_on(self) -> bool {
        matches!(
            self,
            Metric::GiniSeries
                | Metric::FinalBalances
                | Metric::SpendingRates
                | Metric::Snapshots
                | Metric::StallSeries
        )
    }

    /// Parses a scenario-file metric name.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Builds the probe that records this metric for one run.
    pub fn make_probe(self, run: &RunSpec) -> Box<dyn Probe> {
        match self {
            Metric::GiniSeries => Box::new(obs_probes::GiniSeriesProbe),
            Metric::FinalBalances => Box::new(obs_probes::FinalBalancesProbe),
            Metric::SpendingRates => Box::new(obs_probes::SpendingRatesProbe),
            Metric::Snapshots => Box::new(obs_probes::SnapshotsProbe::new(run.snapshots.clone())),
            Metric::StallSeries => Box::new(obs_probes::StallSeriesProbe),
            Metric::ThroughputSeries => Box::new(obs_probes::ThroughputSeriesProbe::new()),
            Metric::PopulationSeries => Box::new(obs_probes::PopulationSeriesProbe::new()),
            Metric::Lorenz => Box::new(obs_probes::LorenzProbe::default()),
            Metric::FaultSeries => Box::new(obs_probes::FaultSeriesProbe::new()),
        }
    }
}

/// Execution parameters of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Simulated horizon in seconds.
    pub horizon_secs: u64,
    /// Root RNG seed. Replication 0 of every case runs with this exact
    /// seed; further replications use independent derived streams (see
    /// [`scrip_des::SeedSequence::replication_seed`]).
    pub seed: u64,
    /// Number of replications per case (≥ 1).
    pub replications: usize,
    /// Times (seconds, ascending, ≤ horizon) at which sorted wealth
    /// snapshots are recorded.
    pub snapshots: Vec<u64>,
    /// Metrics included in the aggregated CSV output.
    pub metrics: Vec<Metric>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            horizon_secs: 1_000,
            seed: DEFAULT_SEED,
            replications: 1,
            snapshots: Vec::new(),
            metrics: vec![Metric::GiniSeries],
        }
    }
}

/// A named variant of the base market: overrides applied on top of it.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSpec {
    /// Case label (used in output series and CSV rows).
    pub label: String,
    /// `(key, value)` overrides in [`MarketSpec::set`] syntax.
    pub overrides: Vec<(String, String)>,
}

impl CaseSpec {
    /// A case with no overrides.
    pub fn new(label: impl Into<String>) -> Self {
        CaseSpec {
            label: label.into(),
            overrides: Vec::new(),
        }
    }

    /// Adds an override (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.overrides.push((key.into(), value.into()));
        self
    }
}

/// One sweep axis: a market key and the grid of values it takes.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// The [`MarketSpec`] key being swept.
    pub key: String,
    /// The values, in [`MarketSpec::set`] syntax.
    pub values: Vec<String>,
}

impl SweepAxis {
    /// Creates an axis from anything stringifiable.
    pub fn new<V: ToString>(key: impl Into<String>, values: impl IntoIterator<Item = V>) -> Self {
        SweepAxis {
            key: key.into(),
            values: values.into_iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// A fully expanded case: label plus the resolved market description.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedCase {
    /// Unique label of the case.
    pub label: String,
    /// The market this case simulates.
    pub spec: MarketSpec,
}

/// A declarative experiment: base market + execution parameters + cases
/// + sweeps. See the [module docs](self) for the full picture.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario identifier (used in output headers and file names).
    pub name: String,
    /// Human-readable description.
    pub title: String,
    /// The base market description every case starts from.
    pub base: MarketSpec,
    /// Execution parameters.
    pub run: RunSpec,
    /// Explicit named variants (empty means one implicit `base` case).
    pub cases: Vec<CaseSpec>,
    /// Sweep axes expanded as a cross product over the cases.
    pub sweep: Vec<SweepAxis>,
}

impl Scenario {
    /// A single-case scenario over `base` with default run parameters.
    pub fn new(name: impl Into<String>, base: MarketSpec) -> Self {
        Scenario {
            name: name.into(),
            title: String::new(),
            base,
            run: RunSpec::default(),
            cases: Vec::new(),
            sweep: Vec::new(),
        }
    }

    /// Parses the scenario file format (grammar in `docs/SCENARIOS.md`).
    ///
    /// # Errors
    /// Returns [`ParseError`] with a 1-based line number for syntax and
    /// value errors.
    pub fn parse_str(text: &str) -> Result<Scenario, ParseError> {
        parse::parse_scenario(text)
    }

    /// Serializes the scenario to the canonical file format. For any
    /// scenario that passes [`Scenario::validate`] (which includes
    /// everything [`Scenario::parse_str`] accepts),
    /// `Scenario::parse_str(&s.to_file_string())` reproduces `s`
    /// exactly — the file grammar has no escape sequences, so
    /// `validate` rejects names/titles/labels the grammar cannot
    /// represent.
    pub fn to_file_string(&self) -> String {
        parse::serialize_scenario(self)
    }

    /// Expands cases × sweep axes into the flat list of markets to run,
    /// in deterministic order (explicit-case order, then sweep values in
    /// axis order).
    ///
    /// # Errors
    /// Returns [`ScenarioError::Config`] for invalid overrides or
    /// duplicate labels.
    pub fn expand(&self) -> Result<Vec<ResolvedCase>, ScenarioError> {
        let mut resolved: Vec<ResolvedCase> = Vec::new();
        let explicit: Vec<CaseSpec> = if self.cases.is_empty() {
            vec![CaseSpec::new("base")]
        } else {
            self.cases.clone()
        };
        for case in &explicit {
            let mut spec = self.base.clone();
            for (key, value) in &case.overrides {
                spec.set(key, value)
                    .map_err(|e| ScenarioError::Config(format!("case {:?}: {e}", case.label)))?;
            }
            resolved.push(ResolvedCase {
                label: case.label.clone(),
                spec,
            });
        }
        for axis in &self.sweep {
            let mut next = Vec::with_capacity(resolved.len() * axis.values.len());
            for rc in &resolved {
                for value in &axis.values {
                    let mut spec = rc.spec.clone();
                    spec.set(&axis.key, value).map_err(|e| {
                        ScenarioError::Config(format!("sweep {}={value}: {e}", axis.key))
                    })?;
                    let fragment = format!("{}{}", axis.key, value.replace(':', "-"));
                    let label = if rc.label == "base" && self.cases.is_empty() {
                        fragment
                    } else {
                        format!("{}_{fragment}", rc.label)
                    };
                    next.push(ResolvedCase { label, spec });
                }
            }
            resolved = next;
        }
        for (i, a) in resolved.iter().enumerate() {
            for b in &resolved[i + 1..] {
                if a.label == b.label {
                    return Err(ScenarioError::Config(format!(
                        "duplicate case label {:?}",
                        a.label
                    )));
                }
            }
        }
        Ok(resolved)
    }

    /// Checks everything except case expansion: run parameters,
    /// snapshot times, and that names/titles/labels are representable
    /// in the escape-free file grammar. The runner calls this and then
    /// expands/builds the cases itself, so the expensive expansion
    /// happens exactly once.
    pub(crate) fn validate_params(&self) -> Result<(), ScenarioError> {
        if self.run.horizon_secs == 0 {
            return Err(ScenarioError::Config("horizon must be positive".into()));
        }
        if self.run.replications == 0 {
            return Err(ScenarioError::Config(
                "replications must be at least 1".into(),
            ));
        }
        if self.run.metrics.is_empty() {
            return Err(ScenarioError::Config("metrics must not be empty".into()));
        }
        for w in self.run.snapshots.windows(2) {
            if w[1] <= w[0] {
                return Err(ScenarioError::Config(format!(
                    "snapshot times must be strictly ascending, got {} after {}",
                    w[1], w[0]
                )));
            }
        }
        if let Some(&last) = self.run.snapshots.last() {
            if last > self.run.horizon_secs {
                return Err(ScenarioError::Config(format!(
                    "snapshot time {last} exceeds horizon {}",
                    self.run.horizon_secs
                )));
            }
        }
        if self.run.metrics.contains(&Metric::Snapshots) && self.run.snapshots.is_empty() {
            return Err(ScenarioError::Config(
                "the snapshots metric requires snapshot times".into(),
            ));
        }
        // The file grammar has no escape sequences, so strings with
        // quotes or newlines (and non-identifier labels) would not
        // survive to_file_string → parse_str.
        for (field, text) in [("name", &self.name), ("title", &self.title)] {
            if text.contains('"') || text.contains('\n') {
                return Err(ScenarioError::Config(format!(
                    "{field} {text:?} contains a quote or newline, which the scenario file \
                     format cannot represent"
                )));
            }
        }
        for case in &self.cases {
            if !parse::is_ident(&case.label) {
                return Err(ScenarioError::Config(format!(
                    "case label {:?} is not a valid identifier ([A-Za-z0-9._-]+)",
                    case.label
                )));
            }
        }
        Ok(())
    }

    /// The market of a scenario that runs exactly one replication — one
    /// case and `replications = 1` — the shape checkpointing, trace
    /// recording and replay drive.
    ///
    /// # Errors
    /// Returns [`ScenarioError::Config`] for any other shape or an
    /// invalid market.
    pub fn single_config(&self) -> Result<MarketConfig, ScenarioError> {
        let cases = self.expand()?;
        let [case] = cases.as_slice() else {
            return Err(ScenarioError::Config(format!(
                "expected exactly one case, this scenario expands to {}",
                cases.len()
            )));
        };
        if self.run.replications != 1 {
            return Err(ScenarioError::Config(format!(
                "expected exactly one replication, got {}",
                self.run.replications
            )));
        }
        case.spec
            .build()
            .map_err(|e| ScenarioError::Config(format!("case {:?}: {e}", case.label)))
    }

    /// Checks the scenario end to end: run parameters, snapshot times,
    /// grammar-representable names/labels, and that every expanded case
    /// builds a valid market.
    ///
    /// # Errors
    /// Returns [`ScenarioError::Config`] describing the first problem.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.validate_params()?;
        for case in self.expand()? {
            case.spec
                .build()
                .map_err(|e| ScenarioError::Config(format!("case {:?}: {e}", case.label)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Scenario {
        let mut sc = Scenario::new("demo", MarketSpec::new(40, 20));
        sc.run.horizon_secs = 500;
        sc.cases = vec![
            CaseSpec::new("plain"),
            CaseSpec::new("taxed").with("tax", "0.2:10"),
        ];
        sc.sweep = vec![SweepAxis::new("credits", [10u64, 20])];
        sc
    }

    #[test]
    fn expand_crosses_cases_with_sweeps() {
        let cases = demo().expand().expect("valid");
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "plain_credits10",
                "plain_credits20",
                "taxed_credits10",
                "taxed_credits20"
            ]
        );
        assert_eq!(cases[0].spec.config().initial_credits, 10);
        assert!(cases[2].spec.config().tax.is_some());
        assert!(cases[0].spec.config().tax.is_none());
    }

    #[test]
    fn expand_without_cases_uses_sweep_labels_directly() {
        let mut sc = Scenario::new("sweep-only", MarketSpec::new(40, 20));
        sc.sweep = vec![SweepAxis::new("credits", [50u64, 100, 200])];
        let labels: Vec<String> = sc
            .expand()
            .expect("valid")
            .into_iter()
            .map(|c| c.label)
            .collect();
        assert_eq!(labels, ["credits50", "credits100", "credits200"]);
    }

    #[test]
    fn expand_sanitizes_colon_values_in_labels() {
        let mut sc = Scenario::new("s", MarketSpec::new(40, 20));
        sc.sweep = vec![SweepAxis::new(
            "profile",
            ["symmetric", "near-symmetric:0.1"],
        )];
        let labels: Vec<String> = sc
            .expand()
            .expect("valid")
            .into_iter()
            .map(|c| c.label)
            .collect();
        assert_eq!(labels, ["profilesymmetric", "profilenear-symmetric-0.1"]);
    }

    #[test]
    fn validate_rejects_bad_run_parameters() {
        let mut sc = demo();
        sc.run.replications = 0;
        assert!(matches!(sc.validate(), Err(ScenarioError::Config(_))));

        let mut sc = demo();
        sc.run.snapshots = vec![100, 100];
        assert!(sc.validate().is_err(), "non-ascending snapshots");

        let mut sc = demo();
        sc.run.snapshots = vec![600];
        assert!(sc.validate().is_err(), "snapshot beyond horizon");

        let mut sc = demo();
        sc.run.metrics = vec![Metric::Snapshots];
        assert!(sc.validate().is_err(), "snapshots metric without times");

        let mut sc = demo();
        sc.cases[1].overrides[0].1 = "5.0:10".into();
        assert!(sc.validate().is_err(), "tax rate > 1");

        assert!(demo().validate().is_ok());
    }

    #[test]
    fn unrepresentable_strings_are_rejected() {
        // The file grammar has no escapes, so validate() refuses what
        // to_file_string() could not round-trip.
        let mut sc = demo();
        sc.title = "a \"quoted\" title".into();
        assert!(sc.validate().is_err(), "embedded quote");

        let mut sc = demo();
        sc.name = "two\nlines".into();
        assert!(sc.validate().is_err(), "embedded newline");

        let mut sc = demo();
        sc.cases[0].label = "my case".into();
        assert!(sc.validate().is_err(), "non-identifier label");
    }

    #[test]
    fn single_config_requires_one_case_and_one_replication() {
        assert!(demo().single_config().is_err(), "four cases");
        let mut sc = Scenario::new("one", MarketSpec::new(40, 20));
        assert_eq!(sc.single_config().expect("one job").initial_credits, 20);
        sc.run.replications = 2;
        let err = sc.single_config().expect_err("two replications");
        assert!(err.to_string().contains("exactly one replication"), "{err}");
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let mut sc = Scenario::new("dup", MarketSpec::new(40, 20));
        sc.cases = vec![CaseSpec::new("a"), CaseSpec::new("a")];
        assert!(matches!(sc.expand(), Err(ScenarioError::Config(_))));
    }

    #[test]
    fn metric_names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
            assert!(!m.doc().is_empty());
        }
        assert_eq!(Metric::from_name("entropy"), None);
    }

    #[test]
    fn registry_keeps_legacy_metrics_always_on() {
        let always_on: Vec<&str> = Metric::ALL
            .into_iter()
            .filter(|m| m.always_on())
            .map(|m| m.name())
            .collect();
        assert_eq!(
            always_on,
            [
                "gini-series",
                "final-balances",
                "spending-rates",
                "snapshots",
                "stall-series"
            ],
            "the original five metrics are measured on every run"
        );
        let extras: Vec<&str> = Metric::ALL
            .into_iter()
            .filter(|m| !m.always_on())
            .map(|m| m.name())
            .collect();
        assert_eq!(
            extras,
            [
                "throughput-series",
                "population-series",
                "lorenz",
                "fault-series"
            ]
        );
    }
}
