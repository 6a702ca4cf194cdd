//! Fig. 3 — Gini index of the equilibrium credit distribution vs the
//! average wealth `c`, for system sizes N ∈ {50, 100, 200, 400}.
//!
//! The paper's curves grow quickly in `c` and then flatten — the
//! signature of the condensation threshold: once `c` exceeds `T`, every
//! extra credit lands on the condensate peers, and the Gini saturates.
//! We regenerate this analytically with the exact product-form
//! machinery on a mildly heterogeneous (near-symmetric) utilization
//! vector, and additionally plot the paper's literal Eq. (8) Gini,
//! which *decreases* in `c` (a documented inconsistency between the
//! paper's formula and its prose).

use scrip_core::des::SimRng;
use scrip_core::econ::gini_from_pmf;
use scrip_core::queueing::approx::eq8_symmetric_marginal;
use scrip_core::queueing::closed::ClosedJackson;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{RunnerOptions, ScenarioError};

/// Jitter half-width of the near-symmetric utilization vector (matches
/// the market simulator's quasi-symmetric regime).
const SPREAD: f64 = 0.05;

/// Near-symmetric utilizations for `n` peers: `u_i = min_j μ_j / μ_i`
/// with `μ_i = 1 + ε_i`, `ε ~ U(−SPREAD, SPREAD)`.
fn jittered_utilizations(n: usize, rng: &mut SimRng) -> Vec<f64> {
    let mu: Vec<f64> = (0..n)
        .map(|_| 1.0 + (rng.uniform_f64() * 2.0 - 1.0) * SPREAD)
        .collect();
    let ratios: Vec<f64> = mu.iter().map(|&m| 1.0 / m).collect();
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    ratios.into_iter().map(|r| r / max).collect()
}

/// The population-mixture Gini of the exact product-form equilibrium.
fn population_gini(u: &[f64], m: usize) -> f64 {
    let network = ClosedJackson::from_utilizations(u).expect("valid utilizations");
    let gc = network.convolution(m);
    let n = u.len();
    let mut mixture = vec![0.0f64; m + 1];
    for i in 0..n {
        for (b, p) in network.marginal_pmf(i, m, &gc).into_iter().enumerate() {
            mixture[b] += p / n as f64;
        }
    }
    gini_from_pmf(&mixture).expect("valid mixture")
}

/// Regenerates Fig. 3.
///
/// # Errors
/// Infallible today (purely analytic); the `Result` keeps every
/// registered experiment uniformly fallible.
pub fn fig03_gini_vs_wealth(
    scale: RunScale,
    _options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let sizes: Vec<usize> = scale.pick(vec![50, 100, 200, 400], vec![50, 100]);
    let wealth_grid: Vec<u64> = scale.pick(
        vec![1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        vec![2, 10, 40, 100],
    );
    let mut series = Vec::new();
    let mut notes = Vec::new();

    for &n in &sizes {
        let mut rng = SimRng::seed_from_u64(1_000 + n as u64);
        let u = jittered_utilizations(n, &mut rng);
        let points: Vec<(f64, f64)> = wealth_grid
            .iter()
            .map(|&c| {
                let m = (c as usize) * n;
                (c as f64, population_gini(&u, m))
            })
            .collect();
        let first = points.first().map(|&(_, g)| g).unwrap_or(0.0);
        let last = points.last().map(|&(_, g)| g).unwrap_or(0.0);
        notes.push(format!(
            "N={n}: Gini rises from {first:.3} (c={}) to {last:.3} (c={})",
            wealth_grid[0],
            wealth_grid[wealth_grid.len() - 1]
        ));
        series.push(Series::new(format!("product_form_N{n}"), points));
    }

    // The paper's literal Eq. (8) Gini for one representative N.
    let n_ref = sizes[0];
    let eq8_points: Vec<(f64, f64)> = wealth_grid
        .iter()
        .map(|&c| {
            let m = (c as usize) * n_ref;
            let pmf = eq8_symmetric_marginal(m, n_ref).expect("valid");
            (c as f64, gini_from_pmf(&pmf).expect("valid"))
        })
        .collect();
    notes.push(format!(
        "Eq.(8) binomial N={n_ref}: Gini decreases from {:.3} to {:.3} — opposite to the \
         paper's prose; see EXPERIMENTS.md",
        eq8_points.first().map(|&(_, g)| g).unwrap_or(0.0),
        eq8_points.last().map(|&(_, g)| g).unwrap_or(0.0),
    ));
    series.push(Series::new(format!("eq8_binomial_N{n_ref}"), eq8_points));

    Ok(FigureResult {
        id: "fig03".into(),
        title: "Gini index vs average wealth c".into(),
        paper_expectation:
            "Gini grows rapidly in c at first, then slowly saturates; more initial credits mean \
             more condensation risk"
                .into(),
        x_label: "average wealth c".into(),
        y_label: "Gini index".into(),
        series,
        notes,
    })
}
