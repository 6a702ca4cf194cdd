//! Figs. 7–8 — evolution of the Gini index over time for average
//! wealth c ∈ {50, 100, 200}, under (near-)symmetric and asymmetric
//! utilization.
//!
//! Paper observations: the Gini always converges (a stable circulation
//! is reached), and larger average wealth stabilizes at a larger Gini.
//! The asymmetric case stabilizes higher than the symmetric one.
//!
//! Both figures are one scenario each: a sweep of `credits` over the
//! three wealth levels on the respective utilization profile.

use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, Metric, RunnerOptions, Scenario, ScenarioError, SweepAxis};

const WEALTH_LEVELS: [u64; 3] = [50, 100, 200];

/// Rate jitter of the quasi-symmetric regime (see `UtilizationProfile::
/// NearSymmetric`): a real protocol's availability-driven routing is
/// only nominally symmetric, which is what produces the paper's
/// c-ordered plateaus.
const NEAR_SYMMETRIC_SPREAD: f64 = 0.03;

fn gini_scenario(scale: RunScale, name: &str, title: &str, profile: &str) -> Scenario {
    let (n, horizon_secs, sample_secs) = scale.market_params();
    let mut base = MarketSpec::new(n, WEALTH_LEVELS[0]);
    base.set("profile", profile).expect("valid profile");
    base.set("sample", &sample_secs.to_string()).expect("valid");
    let mut scenario = Scenario::new(name, base);
    scenario.title = title.into();
    scenario.run.horizon_secs = horizon_secs;
    scenario.run.seed = 4242;
    scenario.run.metrics = vec![Metric::GiniSeries];
    scenario.sweep = vec![SweepAxis::new("credits", WEALTH_LEVELS)];
    scenario
}

/// The declarative scenario behind Fig. 7.
pub fn fig07_scenario(scale: RunScale) -> Scenario {
    gini_scenario(
        scale,
        "fig07",
        "Evolution of Gini index under (near-)symmetric utilization",
        &format!("near-symmetric:{NEAR_SYMMETRIC_SPREAD}"),
    )
}

/// The declarative scenario behind Fig. 8.
pub fn fig08_scenario(scale: RunScale) -> Scenario {
    gini_scenario(
        scale,
        "fig08",
        "Evolution of Gini index under asymmetric utilization",
        "asymmetric",
    )
}

fn gini_evolution(
    scenario: &Scenario,
    options: &RunnerOptions,
) -> Result<(Vec<Series>, Vec<String>), ScenarioError> {
    let result = run_scenario(scenario, options)?;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (case, &c) in result.cases.iter().zip(&WEALTH_LEVELS) {
        let s = Series::new(format!("c{c}"), case.single().record.gini_series.clone());
        let plateau = s.tail_mean(10).unwrap_or(0.0);
        let converged = s.has_converged(10, 0.05);
        notes.push(format!(
            "c={c}: plateau Gini = {plateau:.3}, converged (±0.05 over last 10 samples) = \
             {converged}"
        ));
        series.push(s);
    }
    Ok((series, notes))
}

/// Regenerates Fig. 7 (near-symmetric utilization).
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig07_gini_evolution_symmetric(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = fig07_scenario(scale);
    let (series, notes) = gini_evolution(&scenario, options)?;
    Ok(FigureResult {
        id: "fig07".into(),
        title: scenario.title,
        paper_expectation:
            "Gini converges for every c; the larger the average wealth, the larger the \
             stabilized Gini"
                .into(),
        x_label: "time (s)".into(),
        y_label: "Gini index".into(),
        series,
        notes,
    })
}

/// Regenerates Fig. 8 (asymmetric utilization).
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig08_gini_evolution_asymmetric(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = fig08_scenario(scale);
    let (series, notes) = gini_evolution(&scenario, options)?;
    Ok(FigureResult {
        id: "fig08".into(),
        title: scenario.title,
        paper_expectation:
            "stable state reached in all cases; larger c gives larger stabilized Gini, higher \
             than the symmetric case"
                .into(),
        x_label: "time (s)".into(),
        y_label: "Gini index".into(),
        series,
        notes,
    })
}
