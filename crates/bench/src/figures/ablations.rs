//! Ablation studies over the design choices called out in `DESIGN.md`.

use scrip_core::des::SimRng;
use scrip_core::econ::{gini, gini_from_pmf};
use scrip_core::obs::RunRecord;
use scrip_core::queueing::approx::{eq8_symmetric_marginal, exact_symmetric_marginal};
use scrip_core::queueing::closed::ClosedJackson;
use scrip_core::queueing::stationary::{
    direct_solve, is_stationary, power_iteration, PowerOptions,
};
use scrip_core::spec::MarketSpec;
use scrip_core::topology::generators::{self, ScaleFreeConfig};

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, CaseSpec, Metric, RunnerOptions, Scenario, ScenarioError};

/// Ablation: the paper's Eq. (6)/(8) binomial approximation vs the
/// exact product-form marginal. Reports total-variation distance and
/// the Gini of each, over a grid of average wealths.
///
/// # Errors
/// Infallible today (purely analytic); the `Result` keeps every
/// registered experiment uniformly fallible.
pub fn ablation_approx_vs_exact(
    scale: RunScale,
    _options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let n = 50;
    let grid: Vec<usize> = scale.pick(vec![1, 5, 20, 100, 500], vec![5, 100]);
    let mut tv_points = Vec::new();
    let mut gini_exact = Vec::new();
    let mut gini_approx = Vec::new();
    let mut notes = Vec::new();
    for &c in &grid {
        let m = c * n;
        let exact = exact_symmetric_marginal(m, n).expect("valid");
        let approx = eq8_symmetric_marginal(m, n).expect("valid");
        let tv: f64 = 0.5
            * exact
                .iter()
                .zip(&approx)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        let ge = gini_from_pmf(&exact).expect("valid");
        let ga = gini_from_pmf(&approx).expect("valid");
        tv_points.push((c as f64, tv));
        gini_exact.push((c as f64, ge));
        gini_approx.push((c as f64, ga));
        notes.push(format!(
            "c={c}: TV distance = {tv:.3}, exact Gini = {ge:.3}, binomial Gini = {ga:.3}"
        ));
    }
    Ok(FigureResult {
        id: "ablation_approx_vs_exact".into(),
        title: "Paper's multinomial (binomial) approximation vs exact product form".into(),
        paper_expectation:
            "the approximation is light-tailed: its Gini shrinks with c while the exact \
             marginal's stays ≈ 0.5 — quantifies the error of Eqs. (6)–(8)"
                .into(),
        x_label: "average wealth c".into(),
        y_label: "TV distance / Gini".into(),
        series: vec![
            Series::new("tv_distance", tv_points),
            Series::new("gini_exact", gini_exact),
            Series::new("gini_binomial", gini_approx),
        ],
        notes,
    })
}

/// Ablation: stationary-flow solvers (direct elimination vs lazy power
/// iteration) and mean-wealth computation (Buzen convolution vs MVA).
///
/// # Errors
/// Infallible today (purely analytic); the `Result` keeps every
/// registered experiment uniformly fallible.
pub fn ablation_solvers(
    scale: RunScale,
    _options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let sizes: Vec<usize> = scale.pick(vec![50, 100, 200, 400], vec![40, 80]);
    let mut max_flow_diff = Vec::new();
    let mut max_wealth_diff = Vec::new();
    let mut notes = Vec::new();
    for &n in &sizes {
        let mut rng = SimRng::seed_from_u64(n as u64);
        let g = generators::scale_free(&ScaleFreeConfig::new(n).expect("cfg"), &mut rng)
            .expect("graph");
        let (_, p) = scrip_core::model::uniform_routing(&g).expect("routing");
        let d = direct_solve(&p).expect("direct");
        let w = power_iteration(&p, PowerOptions::default()).expect("power");
        assert!(is_stationary(&p, &d, 1e-8));
        let flow_diff = d
            .iter()
            .zip(&w)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        max_flow_diff.push((n as f64, flow_diff));

        let rates = vec![1.0; n];
        let network = ClosedJackson::new(&d, &rates).expect("network");
        let m = 20 * n;
        let conv = network.expected_lengths(m);
        let mva = network.mva(m).mean_lengths;
        let wealth_diff = conv
            .iter()
            .zip(&mva)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        max_wealth_diff.push((n as f64, wealth_diff));
        notes.push(format!(
            "N={n}: max |direct − power| = {flow_diff:.2e}, max |Buzen − MVA| = {wealth_diff:.2e}"
        ));
    }
    Ok(FigureResult {
        id: "ablation_solvers".into(),
        title: "Solver cross-checks: direct vs power iteration; Buzen vs MVA".into(),
        paper_expectation:
            "independent algorithms agree to numerical precision (validates the analytic \
             pipeline behind Figs. 2–4)"
                .into(),
        x_label: "network size N".into(),
        y_label: "max absolute disagreement".into(),
        series: vec![
            Series::new("stationary_flow_diff", max_flow_diff),
            Series::new("mean_wealth_diff", max_wealth_diff),
        ],
        notes,
    })
}

/// The declarative scenario behind [`ablation_queue_vs_protocol`]: one
/// economy realized twice — `queue` runs the queue-level spend loop,
/// `protocol` the chunk-level market in a 1 chunk/s swarm. Both cases
/// run seed 31, so both draw the same scale-free overlay.
pub fn ablation3_scenario(scale: RunScale) -> Scenario {
    let n = scale.pick(200, 50);
    // Uniform pricing; the queue level runs asymmetric utilization.
    let mut scenario = Scenario::new("ablation3", MarketSpec::new(n, 100));
    scenario.title = "Queue-level market vs emergent protocol-level market".into();
    scenario.run.horizon_secs = scale.pick(4_000, 600);
    scenario.run.seed = 31;
    scenario.run.metrics = vec![Metric::SpendingRates, Metric::GiniSeries];
    scenario.cases = vec![
        CaseSpec::new("queue"),
        CaseSpec::new("protocol").with("streaming", "paced:1"),
    ];
    scenario
}

/// Ablation: queue-level market vs protocol-level streaming market on
/// the same overlay — how much of the paper's story survives when the
/// market emerges from real chunk transfers instead of configured
/// rates.
///
/// # Errors
/// Returns [`ScenarioError`] when either case fails to run.
pub fn ablation_queue_vs_protocol(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = ablation3_scenario(scale);
    let result = run_scenario(&scenario, options)?;
    let queue = &result.cases[0].single().record;
    let protocol = &result.cases[1].single().record;
    let summary = |level: &str, record: &RunRecord| {
        format!(
            "{level} level: rate Gini = {:.3}, wealth Gini = {:.3}",
            gini(&record.spending_rates).expect("non-empty"),
            record.wealth_gini.unwrap_or(f64::NAN)
        )
    };
    let to_points = |rates: &[f64]| {
        rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as f64 / rates.len() as f64, r))
            .collect()
    };
    Ok(FigureResult {
        id: "ablation_queue_vs_protocol".into(),
        title: scenario.title,
        paper_expectation:
            "the paper simulates at the queue level with configured rates; the fully emergent \
             protocol market condenses harder (bankruptcy is absorbing: broke peers lose their \
             inventory and hence their income)"
                .into(),
        x_label: "peer quantile".into(),
        y_label: "spending rate (credits/s)".into(),
        series: vec![
            Series::new("queue_level", to_points(&queue.spending_rates)),
            Series::new("protocol_level", to_points(&protocol.spending_rates)),
        ],
        notes: vec![
            summary("queue", queue),
            summary("protocol", protocol),
            format!(
                "protocol denials = {}, settlements = {}",
                protocol.denied, protocol.purchases
            ),
        ],
    })
}
