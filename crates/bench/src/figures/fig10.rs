//! Fig. 10 — static vs dynamic spending rates.
//!
//! Paper setup (Sec. VI-D): asymmetric utilization, c = 100; a peer
//! with wealth above a threshold `m` spends at `μ_s·B/m` instead of
//! `μ_s`. Observation: the stabilized Gini under dynamic spending is
//! smaller — encouraging the rich to spend mitigates condensation.
//!
//! One scenario with two explicit cases overriding the `spending` key.

use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, CaseSpec, Metric, RunnerOptions, Scenario, ScenarioError};

/// The declarative scenario behind Fig. 10.
pub fn fig10_scenario(scale: RunScale) -> Scenario {
    let (n, horizon_secs, sample_secs) = scale.market_params();
    let mut base = MarketSpec::new(n, 100);
    base.set("sample", &sample_secs.to_string()).expect("valid");
    let mut scenario = Scenario::new("fig10", base);
    scenario.title = "Static vs dynamic spending rate".into();
    scenario.run.horizon_secs = horizon_secs;
    scenario.run.seed = 888;
    scenario.run.metrics = vec![Metric::GiniSeries];
    scenario.cases = vec![
        CaseSpec::new("without_adjustment"),
        // Threshold 100 = the average wealth, as in the paper's setup.
        CaseSpec::new("with_adjustment").with("spending", "dynamic:100"),
    ];
    scenario
}

/// Regenerates Fig. 10.
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig10_dynamic_spending(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = fig10_scenario(scale);
    let result = run_scenario(&scenario, options)?;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    let mut plateaus = Vec::new();
    for case in &result.cases {
        let s = Series::new(case.label.clone(), case.single().record.gini_series.clone());
        let plateau = s.tail_mean(10).unwrap_or(0.0);
        plateaus.push(plateau);
        notes.push(format!("{}: plateau Gini = {plateau:.3}", case.label));
        series.push(s);
    }
    if plateaus.len() == 2 {
        notes.push(format!(
            "dynamic-spending Gini reduction: {:.3}",
            plateaus[0] - plateaus[1]
        ));
    }
    Ok(FigureResult {
        id: "fig10".into(),
        title: scenario.title,
        paper_expectation:
            "the stabilized Gini with dynamic spending-rate adjustment is smaller than with \
             fixed rates"
                .into(),
        x_label: "time (s)".into(),
        y_label: "Gini index".into(),
        series,
        notes,
    })
}
