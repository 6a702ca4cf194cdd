//! Fig. 9 — skewness of the credit distribution under income taxation,
//! at different tax rates and thresholds.
//!
//! Paper setup: asymmetric utilization, c = 100; configurations
//! {no tax} ∪ {rate ∈ {0.1, 0.2}} × {threshold ∈ {50, 80}}.
//! Observations: (1) taxation inhibits skewness; (2) increasing the tax
//! threshold reduces the Gini; (3) at a too-low threshold the tax rate
//! barely matters, while near the average wealth a higher rate
//! redistributes effectively.
//!
//! One scenario with five explicit cases overriding the `tax` key.

use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, CaseSpec, Metric, RunnerOptions, Scenario, ScenarioError};

/// Utilization jitter of the quasi-symmetric market used here. The
/// paper's Fig. 9 uses its "asymmetric utilization" configured-rates
/// case; our degree-driven asymmetric profile condenses far more
/// violently (threshold T ≈ 0.1), leaving taxation no flow to tax. The
/// near-symmetric profile with ±10% rate jitter (T ≈ 20) matches the
/// paper's regime where taxation visibly competes with condensation.
const SPREAD: f64 = 0.1;

/// The declarative scenario behind Fig. 9.
pub fn fig09_scenario(scale: RunScale) -> Scenario {
    let n = scale.pick(500, 60);
    let mut base = MarketSpec::new(n, 100);
    base.set("profile", &format!("near-symmetric:{SPREAD}"))
        .expect("valid");
    base.set("sample", &scale.pick(200, 100).to_string())
        .expect("valid");
    let mut scenario = Scenario::new("fig09", base);
    scenario.title = "Skewness of credit distribution at different tax rates and thresholds".into();
    scenario.run.horizon_secs = scale.pick(20_000, 2_000);
    scenario.run.seed = 777;
    scenario.run.metrics = vec![Metric::GiniSeries];
    scenario.cases = vec![
        CaseSpec::new("no_taxation"),
        CaseSpec::new("rate0.1_thr50").with("tax", "0.1:50"),
        CaseSpec::new("rate0.2_thr50").with("tax", "0.2:50"),
        CaseSpec::new("rate0.1_thr80").with("tax", "0.1:80"),
        CaseSpec::new("rate0.2_thr80").with("tax", "0.2:80"),
    ];
    scenario
}

/// Regenerates Fig. 9.
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig09_taxation(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = fig09_scenario(scale);
    let result = run_scenario(&scenario, options)?;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for case in &result.cases {
        let rep = &case.single().record;
        let s = Series::new(case.label.clone(), rep.gini_series.clone());
        let plateau = s.tail_mean(10).unwrap_or(0.0);
        notes.push(format!(
            "{}: plateau Gini = {plateau:.3}, collected = {}",
            case.label, rep.tax_collected
        ));
        series.push(s);
    }
    Ok(FigureResult {
        id: "fig09".into(),
        title: scenario.title,
        paper_expectation:
            "taxation lowers the Gini; higher thresholds lower it further; at threshold 50 the \
             two rates nearly overlap, at threshold 80 the higher rate helps"
                .into(),
        x_label: "time (s)".into(),
        y_label: "Gini index".into(),
        series,
        notes,
    })
}
