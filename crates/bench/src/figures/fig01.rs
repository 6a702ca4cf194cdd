//! Fig. 1 — distribution of per-peer credit spending rates with and
//! without wealth condensation.
//!
//! Paper setup (Sec. III-A): 500 peers, scale-free overlay. Case 1:
//! initial credits 200, per-chunk Poisson(1) prices → Gini 0.9
//! (condensed). Case 2: initial credits 12, uniform 1-credit pricing →
//! Gini 0.1 (balanced).
//!
//! One scenario with two explicit cases; the balanced market is the
//! base, the condensed market overrides credits, pricing, profile, and
//! availability feedback.

use scrip_core::econ::gini;
use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, CaseSpec, Metric, RunnerOptions, Scenario, ScenarioError};

/// The declarative scenario behind Fig. 1.
pub fn fig01_scenario(scale: RunScale) -> Scenario {
    let n = scale.pick(500, 60);
    let mut base = MarketSpec::new(n, 12);
    base.set("profile", "symmetric").expect("valid");
    let mut scenario = Scenario::new("fig01", base);
    scenario.title =
        "Distribution of credit spending rates, with and without wealth condensation".into();
    scenario.run.horizon_secs = scale.pick(20_000, 1_500);
    scenario.run.seed = 42;
    scenario.run.metrics = vec![Metric::SpendingRates, Metric::FinalBalances];
    scenario.cases = vec![
        // Case 2 (balanced): c = 12, uniform pricing, symmetric
        // utilization — the streaming-with-uniform-pricing regime of
        // Sec. V-C.
        CaseSpec::new("balanced_c12_uniform"),
        // Case 1 (condensed): c = 200, Poisson per-chunk prices,
        // asymmetric utilization with availability feedback (broke peers
        // stop earning).
        CaseSpec::new("condensed_c200_poisson")
            .with("credits", "200")
            .with("profile", "asymmetric")
            .with("pricing", "chunk-poisson:1")
            .with("availability-feedback", "true"),
    ];
    scenario
}

/// Regenerates Fig. 1.
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig01_spending_rates(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = fig01_scenario(scale);
    let result = run_scenario(&scenario, options)?;
    let balanced = &result.cases[0].single().record;
    let condensed = &result.cases[1].single().record;

    let g_balanced = gini(&balanced.spending_rates).expect("non-empty");
    let g_condensed = gini(&condensed.spending_rates).expect("non-empty");
    let broke = |balances: &[u64]| balances.iter().filter(|&&b| b == 0).count();

    let to_points = |rates: &[f64]| {
        rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as f64, r))
            .collect()
    };

    Ok(FigureResult {
        id: "fig01".into(),
        title: scenario.title,
        paper_expectation:
            "balanced case (c=12, uniform price) Gini ≈ 0.1; condensed case (c=200, Poisson \
             prices) Gini ≈ 0.9 with most peers spending near zero"
                .into(),
        x_label: "peer rank (sorted by spending rate)".into(),
        y_label: "credit spending rate (credits/sec)".into(),
        series: vec![
            Series::new("balanced_c12_uniform", to_points(&balanced.spending_rates)),
            Series::new(
                "condensed_c200_poisson",
                to_points(&condensed.spending_rates),
            ),
        ],
        notes: vec![
            format!("balanced spending-rate Gini = {g_balanced:.3}"),
            format!("condensed spending-rate Gini = {g_condensed:.3}"),
            format!(
                "condensed market broke peers = {}/{} vs balanced {}/{}",
                broke(&condensed.final_balances),
                condensed.peer_count,
                broke(&balanced.final_balances),
                balanced.peer_count,
            ),
        ],
    })
}
