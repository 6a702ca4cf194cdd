//! Figure regenerators: one function per figure of the paper's
//! evaluation, each returning a typed [`FigureResult`].
//!
//! Every market-driven figure is implemented as a declarative
//! [`crate::scenario::Scenario`] (exposed via [`scenarios`]) plus a thin
//! post-processing step that turns the batch-runner output into series
//! and notes; the purely analytic figures (2, 3 and the first two
//! ablations) evaluate closed-form queueing results directly. The
//! [`experiments`] registry lists everything in canonical order for
//! `scrip-sim`.

mod ablations;
mod fig01;
mod fig02;
mod fig03;
mod fig04;
mod fig05_06;
mod fig07_08;
mod fig09;
mod fig10;
mod fig11;
mod streaming;

pub use ablations::{
    ablation3_scenario, ablation_approx_vs_exact, ablation_queue_vs_protocol, ablation_solvers,
};
pub use fig01::{fig01_scenario, fig01_spending_rates};
pub use fig02::fig02_lorenz_pmf;
pub use fig03::fig03_gini_vs_wealth;
pub use fig04::{fig04_efficiency, fig04_scenario};
pub use fig05_06::{
    fig05_convergence_early, fig05_scenario, fig06_convergence_late, fig06_scenario,
};
pub use fig07_08::{
    fig07_gini_evolution_symmetric, fig07_scenario, fig08_gini_evolution_asymmetric, fig08_scenario,
};
pub use fig09::{fig09_scenario, fig09_taxation};
pub use fig10::{fig10_dynamic_spending, fig10_scenario};
pub use fig11::{fig11_churn, fig11_scenario};
pub use streaming::{streaming_scenario, streaming_stall_vs_wealth};

use crate::scale::RunScale;
use crate::scenario::{RunnerOptions, Scenario, ScenarioError};

/// A figure/ablation regenerator: the options cap the worker threads of
/// the scenario runs inside it.
pub type ExperimentFn = fn(RunScale, &RunnerOptions) -> Result<FigureResult, ScenarioError>;

/// A scenario emitter: the declarative description behind a
/// market-driven experiment.
pub type ScenarioFn = fn(RunScale) -> Scenario;

/// Every experiment of the paper's evaluation (11 figures, 3 ablations)
/// in canonical order — the work list of `scrip-sim all`.
pub fn experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig01", fig01_spending_rates as ExperimentFn),
        ("fig02", fig02_lorenz_pmf),
        ("fig03", fig03_gini_vs_wealth),
        ("fig04", fig04_efficiency),
        ("fig05", fig05_convergence_early),
        ("fig06", fig06_convergence_late),
        ("fig07", fig07_gini_evolution_symmetric),
        ("fig08", fig08_gini_evolution_asymmetric),
        ("fig09", fig09_taxation),
        ("fig10", fig10_dynamic_spending),
        ("fig11", fig11_churn),
        ("ablation1", ablation_approx_vs_exact),
        ("ablation2", ablation_solvers),
        ("ablation3", ablation_queue_vs_protocol),
        ("streaming", streaming_stall_vs_wealth),
    ]
}

/// A finished full-evaluation run: every experiment's result plus
/// timing, as produced by [`run_all_experiments`].
pub struct EvaluationReport {
    /// `(name, result, wall)` per experiment, in canonical order.
    pub results: Vec<(&'static str, FigureResult, std::time::Duration)>,
    /// End-to-end wall-clock of the whole batch.
    pub total: std::time::Duration,
    /// Worker threads the batch dispatched on.
    pub workers: usize,
}

impl EvaluationReport {
    /// Prints every figure to stdout (deterministic — no timing) and
    /// the per-scenario timing summary + total wall-clock to stderr.
    pub fn print(&self, dump_csv: bool) {
        for (_, fig, _) in &self.results {
            print_figure(fig, dump_csv);
        }
        eprintln!();
        eprintln!("per-scenario timing:");
        for (name, _, wall) in &self.results {
            eprintln!("  {name:<10} {wall:>10.1?}");
        }
        let serial: std::time::Duration = self.results.iter().map(|&(_, _, wall)| wall).sum();
        let speedup = serial.as_secs_f64() / self.total.as_secs_f64().max(1e-9);
        eprintln!(
            "total wall-clock: {:.1?} on {} worker thread(s); sum of per-scenario times \
             {serial:.1?} (speedup {speedup:.2}x)",
            self.total, self.workers
        );
    }
}

/// Prints one figure's header, expectation, and measured notes to
/// stdout (plus the CSV when `dump_csv`). Deterministic: timing never
/// goes to stdout.
pub fn print_figure(fig: &FigureResult, dump_csv: bool) {
    println!("== {} — {}", fig.id, fig.title);
    println!("   paper: {}", fig.paper_expectation);
    for note in &fig.notes {
        println!("   measured: {note}");
    }
    if dump_csv {
        print!("{}", fig.to_csv());
    }
}

/// Runs every registered experiment, spread over up to `threads`
/// worker threads (0 = one per core), and returns the results in
/// canonical order regardless of completion order.
///
/// To keep `threads` an actual cap on concurrency, experiments fan out
/// across the workers while each experiment's internal batch runner
/// runs serially.
///
/// # Errors
/// Returns the first failing experiment's [`ScenarioError`], prefixed
/// with its name (in canonical order — every experiment still runs).
pub fn run_all_experiments(
    scale: RunScale,
    threads: usize,
) -> Result<EvaluationReport, ScenarioError> {
    let experiments = experiments();
    let workers = RunnerOptions::with_threads(threads).effective_threads(experiments.len());
    let serial = RunnerOptions::with_threads(1);
    let start = std::time::Instant::now();
    let results = crate::scenario::parallel_map(experiments.len(), threads, |i| {
        let t0 = std::time::Instant::now();
        let fig = (experiments[i].1)(scale, &serial);
        (fig, t0.elapsed())
    });
    let total = start.elapsed();
    let mut collected = Vec::with_capacity(results.len());
    for ((name, _), (fig, wall)) in experiments.into_iter().zip(results) {
        let fig = fig.map_err(|e| ScenarioError::Run(format!("{name}: {e}")))?;
        collected.push((name, fig, wall));
    }
    Ok(EvaluationReport {
        results: collected,
        total,
        workers,
    })
}

/// The declarative scenarios behind the market-driven experiments
/// (`scrip-sim export` serializes these to scenario files). The purely
/// analytic experiments (fig02, fig03, ablation1, ablation2) have no
/// market scenario and are absent.
pub fn scenarios() -> Vec<(&'static str, ScenarioFn)> {
    vec![
        ("fig01", fig01_scenario as ScenarioFn),
        ("fig04", fig04_scenario),
        ("fig05", fig05_scenario),
        ("fig06", fig06_scenario),
        ("fig07", fig07_scenario),
        ("fig08", fig08_scenario),
        ("fig09", fig09_scenario),
        ("fig10", fig10_scenario),
        ("fig11", fig11_scenario),
        ("ablation3", ablation3_scenario),
        ("streaming", streaming_scenario),
    ]
}

/// One plotted series: a label and `(x, y)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The final y value, if any.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Mean of the last `k` y values ([`None`] when empty).
    pub fn tail_mean(&self, k: usize) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.len().saturating_sub(k);
        let tail = &self.points[start..];
        Some(tail.iter().map(|&(_, y)| y).sum::<f64>() / tail.len() as f64)
    }

    /// Whether the series has settled: the last `window` y values all
    /// lie within ±`tolerance` of their mean (`false` with fewer than
    /// `window` points). Mirrors
    /// [`scrip_core::des::stats::TimeSeries::has_converged`].
    pub fn has_converged(&self, window: usize, tolerance: f64) -> bool {
        if self.points.len() < window || window == 0 {
            return false;
        }
        let tail = &self.points[self.points.len() - window..];
        let mean = tail.iter().map(|&(_, y)| y).sum::<f64>() / window as f64;
        tail.iter().all(|&(_, y)| (y - mean).abs() <= tolerance)
    }
}

/// A regenerated figure: identification, axis names, series, and
/// free-form notes (the measured headline numbers recorded in
/// `EXPERIMENTS.md`).
#[derive(Clone, Debug, PartialEq)]
pub struct FigureResult {
    /// Figure identifier, e.g. `"fig01"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the paper reports for this figure (the expectation we check
    /// against).
    pub paper_expectation: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The regenerated series.
    pub series: Vec<Series>,
    /// Measured headline numbers and commentary.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Renders the figure as CSV with `#`-prefixed metadata lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}: {}\n", self.id, self.title));
        out.push_str(&format!("# paper: {}\n", self.paper_expectation));
        for note in &self.notes {
            out.push_str(&format!("# measured: {note}\n"));
        }
        out.push_str(&format!("series,{},{}\n", self.x_label, self.y_label));
        for s in &self.series {
            for &(x, y) in &s.points {
                out.push_str(&format!("{},{x:.6},{y:.6}\n", s.label));
            }
        }
        out
    }

    /// Finds a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_helpers() {
        let s = Series::new("a", vec![(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(s.last_y(), Some(3.0));
        assert_eq!(s.tail_mean(2), Some(2.0));
        assert_eq!(Series::new("e", vec![]).tail_mean(3), None);
    }

    #[test]
    fn series_convergence() {
        let flat = Series::new("f", (0..10).map(|i| (i as f64, 0.5)).collect());
        assert!(flat.has_converged(5, 1e-9));
        let ramp = Series::new("r", (0..10).map(|i| (i as f64, i as f64)).collect());
        assert!(!ramp.has_converged(5, 0.1));
        assert!(!ramp.has_converged(20, 10.0), "needs window points");
    }

    #[test]
    fn registries_are_complete() {
        let experiments = experiments();
        assert_eq!(
            experiments.len(),
            15,
            "11 figures + 3 ablations + streaming"
        );
        let names: Vec<&str> = experiments.iter().map(|&(n, _)| n).collect();
        assert_eq!(names[0], "fig01");
        assert_eq!(names[13], "ablation3");
        assert_eq!(names[14], "streaming");
        let exported: Vec<&str> = scenarios().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            exported,
            [
                "fig01",
                "fig04",
                "fig05",
                "fig06",
                "fig07",
                "fig08",
                "fig09",
                "fig10",
                "fig11",
                "ablation3",
                "streaming"
            ]
        );
        // Every scenario emitter corresponds to a registered experiment
        // (fig04's scenario covers only its simulated series; fig02,
        // fig03, ablation1, ablation2 are purely analytic).
        for (name, emit) in scenarios() {
            assert!(names.contains(&name), "unknown scenario {name}");
            let scenario = emit(RunScale::Quick);
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// `scrip-sim export ablation3` prints the whole experiment: both
    /// the queue-level and the chunk-level case survive the file round
    /// trip.
    #[test]
    fn ablation3_export_holds_both_cases() {
        let (_, emit) = scenarios()
            .into_iter()
            .find(|&(n, _)| n == "ablation3")
            .expect("exported");
        let text = emit(RunScale::Quick).to_file_string();
        let cases = Scenario::parse_str(&text)
            .expect("parses")
            .expand()
            .expect("expands");
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["queue", "protocol"]);
        let chunk_level: Vec<&str> = cases
            .iter()
            .filter(|c| c.spec.config().streaming.is_some())
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(chunk_level, ["protocol"]);
    }

    #[test]
    fn csv_rendering() {
        let fig = FigureResult {
            id: "figX".into(),
            title: "demo".into(),
            paper_expectation: "up and to the right".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("a", vec![(1.0, 2.0)])],
            notes: vec!["note".into()],
        };
        let csv = fig.to_csv();
        assert!(csv.contains("# figX: demo"));
        assert!(csv.contains("# measured: note"));
        assert!(csv.contains("a,1.000000,2.000000"));
        assert!(fig.series("a").is_some());
        assert!(fig.series("b").is_none());
    }
}
