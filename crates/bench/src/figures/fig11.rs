//! Fig. 11 — impact of peer dynamics (churn) on the skewness of the
//! credit distribution; three panels:
//!
//! 1. fixed overlay size (arrival × lifespan = 1000) vs a static overlay;
//! 2. fixed mean lifespan 500 s, arrival rate ∈ {1, 2, 4}/s;
//! 3. fixed arrival rate 1/s, lifespan ∈ {500, 1000, 2000} s.
//!
//! Paper observations: dynamic overlays have smaller Gini than static
//! ones (peers depart before accumulating); arrival rate has little
//! effect; longer lifespans increase skewness.
//!
//! One scenario with six explicit cases overriding the `churn` key
//! (panel 2 also reuses `p1_lifespan500_arr2`; panel 3 reuses
//! `p1_lifespan1000_arr1` and `p2_lifespan500_arr1` — each distinct
//! configuration runs once).

use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, CaseSpec, Metric, RunnerOptions, Scenario, ScenarioError};

/// The declarative scenario behind Fig. 11.
pub fn fig11_scenario(scale: RunScale) -> Scenario {
    // Scale the population; churn parameters keep arrival×lifespan = n.
    let n = scale.pick(1_000, 60);
    let scale_factor = n as f64 / 1_000.0;
    let attach = 20;
    let churn =
        |arrival: f64, lifespan: f64| format!("{}:{lifespan}:{attach}", arrival * scale_factor);

    let mut base = MarketSpec::new(n, 100);
    base.set("sample", &scale.pick(100, 60).to_string())
        .expect("valid");
    let mut scenario = Scenario::new("fig11", base);
    scenario.title = "Impact of peer dynamics on the skewness of the credit distribution".into();
    scenario.run.horizon_secs = scale.pick(8_000, 1_200);
    scenario.run.seed = 1_234;
    scenario.run.metrics = vec![Metric::GiniSeries];
    scenario.cases = vec![
        CaseSpec::new("p1_lifespan1000_arr1").with("churn", churn(1.0, 1_000.0)),
        CaseSpec::new("p1_lifespan500_arr2").with("churn", churn(2.0, 500.0)),
        CaseSpec::new("p1_static"),
        CaseSpec::new("p2_lifespan500_arr1").with("churn", churn(1.0, 500.0)),
        CaseSpec::new("p2_lifespan500_arr4").with("churn", churn(4.0, 500.0)),
        CaseSpec::new("p3_lifespan2000_arr1").with("churn", churn(1.0, 2_000.0)),
    ];
    scenario
}

/// Regenerates Fig. 11 (all three panels as one series set).
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig11_churn(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = fig11_scenario(scale);
    let result = run_scenario(&scenario, options)?;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    let mut plateaus: Vec<(String, f64)> = Vec::new();
    for case in &result.cases {
        let rep = &case.single().record;
        let panel = &case.label[1..2];
        let s = Series::new(case.label.clone(), rep.gini_series.clone());
        let plateau = s.tail_mean(10).unwrap_or(0.0);
        notes.push(format!(
            "panel {panel} {}: plateau Gini = {plateau:.3}, final population = {}",
            case.label, rep.peer_count
        ));
        plateaus.push((case.label.clone(), plateau));
        series.push(s);
    }
    let get = |name: &str| {
        plateaus
            .iter()
            .find(|(l, _)| l.contains(name))
            .map(|&(_, g)| g)
            .unwrap_or(0.0)
    };
    notes.push(format!(
        "static vs churn: static {:.3} vs lifespan1000 {:.3} (paper: churn lowers Gini)",
        get("static"),
        get("lifespan1000")
    ));
    notes.push(format!(
        "lifespan effect at arr 1/s: 500 s -> {:.3}, 1000 s -> {:.3}, 2000 s -> {:.3} (paper: \
         longer life, more skew)",
        get("p2_lifespan500_arr1"),
        get("p1_lifespan1000_arr1"),
        get("p3_lifespan2000_arr1")
    ));
    Ok(FigureResult {
        id: "fig11".into(),
        title: scenario.title,
        paper_expectation:
            "dynamic overlays show smaller Gini than static; arrival rate has little impact; \
             longer lifespans increase skewness"
                .into(),
        x_label: "time (s)".into(),
        y_label: "Gini index".into(),
        series,
        notes,
    })
}
