//! Fig. 4 — content-exchange efficiency `1 − Q{B_i = 0}` vs average
//! wealth `c` (paper Eq. 9).
//!
//! The analytic curve `1 − ((N−1)/N)^{cN} ≈ 1 − e^{−c}` rises steeply
//! and saturates near 1 by `c ≈ 5`: too few initial credits throttle
//! downloads. We also verify it against the simulated fraction of
//! non-broke spending in a symmetric market — a scenario sweeping
//! `credits` over the simulation grid; the analytic curves are
//! post-processing.

use scrip_core::queueing::approx::{efficiency_vs_wealth, idle_probability_symmetric};
use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, Metric, RunnerOptions, Scenario, ScenarioError, SweepAxis};

fn sim_grid(scale: RunScale) -> Vec<u64> {
    scale.pick(vec![1, 2, 3, 5, 8], vec![1, 5])
}

/// The declarative scenario behind Fig. 4's simulated series.
pub fn fig04_scenario(scale: RunScale) -> Scenario {
    let n_sim = scale.pick(200, 50);
    let mut base = MarketSpec::new(n_sim, 1);
    base.set("profile", "symmetric").expect("valid");
    let mut scenario = Scenario::new("fig04", base);
    scenario.title = "1 − Q{B_i = 0} vs average wealth c".into();
    scenario.run.horizon_secs = scale.pick(4_000, 800);
    scenario.run.seed = 7;
    scenario.run.metrics = vec![Metric::SpendingRates];
    scenario.sweep = vec![SweepAxis::new("credits", sim_grid(scale))];
    scenario
}

/// Regenerates Fig. 4.
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn fig04_efficiency(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let n_analytic = 1_000;
    let grid: Vec<f64> = (0..=40).map(|k| k as f64 * 0.25).collect();

    let exact: Vec<(f64, f64)> = grid
        .iter()
        .map(|&c| {
            let m = (c * n_analytic as f64).round() as usize;
            let idle = idle_probability_symmetric(n_analytic, m).expect("valid");
            (c, 1.0 - idle)
        })
        .collect();
    let limit: Vec<(f64, f64)> = grid.iter().map(|&c| (c, efficiency_vs_wealth(c))).collect();
    // The exact product-form value: P{B=0} = 1/(1+c) for the geometric
    // marginal, so efficiency = c/(1+c). The simulation follows this
    // curve, quantifying the bias of the paper's approximation.
    let exact_equilibrium: Vec<(f64, f64)> = grid.iter().map(|&c| (c, c / (1.0 + c))).collect();

    // Simulation cross-check: effective spending rate / maximum rate in a
    // symmetric market equals 1 − Q{B = 0}.
    let scenario = fig04_scenario(scale);
    let n_sim = scenario.base.config().n;
    let horizon_secs = scenario.run.horizon_secs;
    let result = run_scenario(&scenario, options)?;
    let mut simulated = Vec::new();
    let mut notes = Vec::new();
    for (case, c) in result.cases.iter().zip(sim_grid(scale)) {
        // Base rate is 1 credit/sec, so the max possible is n·horizon.
        let efficiency =
            case.single().record.total_spent as f64 / (n_sim as f64 * horizon_secs as f64);
        simulated.push((c as f64, efficiency));
        notes.push(format!(
            "simulated efficiency at c={c}: {efficiency:.3} (exact c/(1+c) = {:.3}, Eq. 9 = {:.3})",
            c as f64 / (1.0 + c as f64),
            efficiency_vs_wealth(c as f64)
        ));
    }

    Ok(FigureResult {
        id: "fig04".into(),
        title: scenario.title,
        paper_expectation:
            "efficiency rises steeply with c and saturates near 1 by c ≈ 5; initial credits \
             should not be too small"
                .into(),
        x_label: "average wealth c".into(),
        y_label: "1 − Q{B_i = 0}".into(),
        series: vec![
            Series::new("exact_((N-1)/N)^M", exact),
            Series::new("limit_1-exp(-c)", limit),
            Series::new("exact_equilibrium_c/(1+c)", exact_equilibrium),
            Series::new("simulated_symmetric_market", simulated),
        ],
        notes,
    })
}
