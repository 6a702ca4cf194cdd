//! Figs. 5–6 — convergence of the credit distribution: sorted wealth
//! curves in the early stage (0–20 000 s) and the late stage
//! (20 000–40 000 s).
//!
//! The paper's observation: early-stage curves keep steepening, while
//! late-stage curves largely overlap — the distribution of queue
//! lengths stabilizes, the equilibrium of Sec. IV.
//!
//! Each figure is one scenario whose `snapshots` record the sorted
//! wealth distribution at the plotted instants.

use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, Metric, RunnerOptions, Scenario, ScenarioError};

fn snapshot_scenario(scale: RunScale, name: &str, title: &str, times: Vec<u64>) -> Scenario {
    let n = scale.pick(1_000, 80);
    let mut base = MarketSpec::new(n, 100);
    base.set("profile", "symmetric").expect("valid");
    let mut scenario = Scenario::new(name, base);
    scenario.title = title.into();
    scenario.run.horizon_secs = *times.last().expect("non-empty snapshot grid");
    scenario.run.seed = 99;
    scenario.run.snapshots = times;
    scenario.run.metrics = vec![Metric::Snapshots];
    scenario
}

/// The declarative scenario behind Fig. 5.
pub fn fig05_scenario(scale: RunScale) -> Scenario {
    snapshot_scenario(
        scale,
        "fig05",
        "Credit distribution in the earlier stage",
        scale.pick(
            vec![2_000, 5_000, 10_000, 15_000, 20_000],
            vec![100, 300, 600, 1_000],
        ),
    )
}

/// The declarative scenario behind Fig. 6.
pub fn fig06_scenario(scale: RunScale) -> Scenario {
    snapshot_scenario(
        scale,
        "fig06",
        "Credit distribution in the later stage",
        scale.pick(
            vec![24_000, 28_000, 32_000, 36_000, 40_000],
            vec![1_200, 1_500, 1_800, 2_100],
        ),
    )
}

fn to_figure(
    id: &str,
    expectation: &str,
    scenario: Scenario,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let result = run_scenario(&scenario, options)?;
    let snaps = &result.cases[0].single().record.snapshots;
    let mut notes = Vec::new();
    // Quantify overlap between successive curves: mean |Δ| between
    // consecutive sorted-wealth snapshots, relative to the mean wealth.
    for w in snaps.windows(2) {
        let (t1, ref a) = w[0];
        let (t2, ref b) = w[1];
        let mean_abs: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .sum::<f64>()
            / a.len() as f64;
        let mean_wealth: f64 = b.iter().sum::<u64>() as f64 / b.len() as f64;
        notes.push(format!(
            "mean |Δ sorted wealth| between t={t1} and t={t2}: {:.3} (relative {:.3})",
            mean_abs,
            mean_abs / mean_wealth.max(1e-9)
        ));
    }
    let series = snaps
        .iter()
        .map(|(t, sorted)| {
            Series::new(
                format!("t{t}"),
                sorted
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (i as f64, b as f64))
                    .collect(),
            )
        })
        .collect();
    Ok(FigureResult {
        id: id.into(),
        title: scenario.title,
        paper_expectation: expectation.into(),
        x_label: "peer rank (sorted by wealth)".into(),
        y_label: "credits held".into(),
        series,
        notes,
    })
}

/// Regenerates Fig. 5 (early stage).
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig05_convergence_early(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    to_figure(
        "fig05",
        "sorted-wealth curves steepen over time: flatter curves at earlier times, steeper later \
         (the distribution is still evolving)",
        fig05_scenario(scale),
        options,
    )
}

/// Regenerates Fig. 6 (late stage).
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig06_convergence_late(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    to_figure(
        "fig06",
        "late-stage sorted-wealth curves largely overlap: the credit distribution has converged \
         to its equilibrium",
        fig06_scenario(scale),
        options,
    )
}
