//! Fig. 2 — Lorenz curves of the marginal wealth PMF of Eq. (8).
//!
//! The paper plots the Lorenz curves of `Binomial(M, 1/N)` for
//! `(M, N) ∈ {(2000, 100), (25000, 50), (50000, 50)}` and reads from
//! them that "the distribution is more skewed with a larger average
//! wealth c". The binomial's relative dispersion actually *shrinks* with
//! `c = M/N` (Gini ≈ 1/√(πc)); we regenerate both the paper's literal
//! Eq. (8) curves and the **exact** product-form marginals, whose
//! heavier tail is what the prose describes.

use scrip_core::econ::lorenz::LorenzCurve;
use scrip_core::queueing::approx::{eq8_symmetric_marginal, exact_symmetric_marginal};

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{RunnerOptions, ScenarioError};

const CASES: [(usize, usize); 3] = [(2_000, 100), (25_000, 50), (50_000, 50)];

/// Regenerates Fig. 2 (plus the exact-marginal comparison).
///
/// # Errors
/// Infallible today (purely analytic); the `Result` keeps every
/// registered experiment uniformly fallible.
pub fn fig02_lorenz_pmf(
    scale: RunScale,
    _options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let grid = scale.pick(100, 25);
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for &(m, n) in &CASES {
        let pmf = eq8_symmetric_marginal(m, n).expect("valid binomial");
        let curve = LorenzCurve::from_pmf(&pmf).expect("valid PMF");
        notes.push(format!(
            "Eq.(8) binomial M={m} N={n} (c={}): Gini = {:.3}",
            m / n,
            curve.gini()
        ));
        series.push(Series::new(format!("eq8_M{m}_N{n}"), curve.sample(grid)));

        let exact = exact_symmetric_marginal(m, n).expect("valid exact marginal");
        let exact_curve = LorenzCurve::from_pmf(&exact).expect("valid PMF");
        notes.push(format!(
            "exact product form M={m} N={n}: Gini = {:.3}",
            exact_curve.gini()
        ));
        series.push(Series::new(
            format!("exact_M{m}_N{n}"),
            exact_curve.sample(grid),
        ));
    }
    Ok(FigureResult {
        id: "fig02".into(),
        title: "Lorenz curves of the marginal wealth PMF (Eq. 8) and of the exact product form"
            .into(),
        paper_expectation:
            "three Lorenz curves below the equality line; the paper's prose claims more skew at \
             larger c (its Eq. (8) binomial actually implies the opposite; the exact product-form \
             marginal is the heavier-tailed one)"
                .into(),
        x_label: "cumulative fraction of peers".into(),
        y_label: "cumulative fraction of credits".into(),
        series,
        notes,
    })
}
