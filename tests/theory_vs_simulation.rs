//! Cross-crate validation: the queue-level market simulator must agree
//! with the Jackson-network theory it implements (paper Secs. IV–V).

use scrip_core::des::SimTime;
use scrip_core::econ::gini_u64;
use scrip_core::mapping::analyze_market;
use scrip_core::market::{run_market, MarketConfig, TopologyKind};
use scrip_core::queueing::approx::efficiency_vs_wealth;
use scrip_core::queueing::condensation::{Regime, Threshold};

/// Symmetric market: the simulated wealth Gini converges to the exact
/// product-form equilibrium value (the geometric marginal's Gini
/// (1+c)/(1+2c) ≈ 0.5).
#[test]
fn symmetric_market_matches_product_form_gini() {
    let c = 20u64;
    let market = run_market(
        MarketConfig::new(150, c).symmetric(),
        11,
        SimTime::from_secs(8_000),
    )
    .expect("market runs");
    let simulated = gini_u64(&market.ledger().balances_vec()).expect("non-empty");
    let analysis = analyze_market(&market).expect("analyzes");
    let analytic = analysis
        .population_gini(market.ledger().total())
        .expect("gini");
    assert!(
        (simulated - analytic).abs() < 0.08,
        "simulated Gini {simulated:.3} vs product-form {analytic:.3}"
    );
    let geometric = (1.0 + c as f64) / (1.0 + 2.0 * c as f64);
    assert!(
        (simulated - geometric).abs() < 0.1,
        "simulated {simulated:.3} vs geometric limit {geometric:.3}"
    );
}

/// Content-exchange efficiency: the simulation matches the **exact**
/// product-form value `c/(1+c)` (the broke probability of the geometric
/// marginal), and quantifies how much the paper's Eq. (9) approximation
/// `1 − e^{−c}` overestimates at small c.
#[test]
fn efficiency_matches_exact_equilibrium() {
    for c in [1u64, 3] {
        let n = 150;
        let horizon = 4_000u64;
        let market = run_market(
            MarketConfig::new(n, c).symmetric(),
            13,
            SimTime::from_secs(horizon),
        )
        .expect("market runs");
        let total_spent = market.ledger().total_spent();
        let efficiency = total_spent as f64 / (n as f64 * horizon as f64);
        let exact = c as f64 / (1.0 + c as f64);
        assert!(
            (efficiency - exact).abs() < 0.05,
            "c={c}: simulated efficiency {efficiency:.3} vs exact {exact:.3}"
        );
        // The paper's approximation is an over-estimate at small c.
        let paper = efficiency_vs_wealth(c as f64);
        assert!(
            paper > exact,
            "c={c}: Eq. (9) {paper:.3} should exceed the exact {exact:.3}"
        );
    }
}

/// Theorems 2–3 direction: an asymmetric market far above threshold
/// condenses and is classified as condensing; a symmetric market is
/// always sustainable (the corollary).
#[test]
fn threshold_classification_matches_simulation() {
    let condensing = run_market(
        MarketConfig::new(120, 100).asymmetric(),
        17,
        SimTime::from_secs(6_000),
    )
    .expect("market runs");
    let analysis = analyze_market(&condensing).expect("analyzes");
    assert_eq!(analysis.regime, Regime::Condensing);
    let g = gini_u64(&condensing.ledger().balances_vec()).expect("non-empty");
    assert!(g > 0.6, "condensing market Gini {g:.3}");

    let sustainable = run_market(
        MarketConfig::new(120, 100).symmetric(),
        17,
        SimTime::from_secs(6_000),
    )
    .expect("market runs");
    let analysis = analyze_market(&sustainable).expect("analyzes");
    assert_eq!(analysis.threshold.threshold, Threshold::Divergent);
    assert_eq!(analysis.regime, Regime::Sustainable);
}

/// The expected per-peer wealth from Buzen's algorithm ranks peers the
/// same way the simulation does (hubs hold more in asymmetric markets).
#[test]
fn expected_wealth_ranks_match_simulation() {
    let market = run_market(
        MarketConfig::new(100, 50)
            .asymmetric()
            .topology(TopologyKind::ScaleFree),
        19,
        SimTime::from_secs(8_000),
    )
    .expect("market runs");
    let analysis = analyze_market(&market).expect("analyzes");
    let mut analytic: Vec<(usize, f64)> = analysis
        .expected_wealth
        .iter()
        .copied()
        .enumerate()
        .collect();
    analytic.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let balances = market.ledger().balances_vec();
    let mut simulated: Vec<(usize, u64)> = balances.iter().copied().enumerate().collect();
    simulated.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    let k = 10;
    let top_analytic: std::collections::BTreeSet<usize> =
        analytic.iter().take(k).map(|&(i, _)| i).collect();
    // The analytic top-10 should hold a disproportionate share of the
    // simulated wealth (a single snapshot is noisy, so test shares, not
    // exact rank matches).
    let total: u64 = balances.iter().sum();
    let held: u64 = top_analytic.iter().map(|&i| balances[i]).sum();
    let share = held as f64 / total.max(1) as f64;
    assert!(
        share > 0.3,
        "analytic top-{k} peers hold only {:.0}% of simulated wealth",
        share * 100.0
    );
}

/// Credit conservation under every profile.
#[test]
fn closed_market_conservation_holds() {
    for (label, config) in [
        ("symmetric", MarketConfig::new(60, 25).symmetric()),
        ("asymmetric", MarketConfig::new(60, 25).asymmetric()),
        (
            "near_symmetric",
            MarketConfig::new(60, 25).near_symmetric(0.05),
        ),
    ] {
        let market = run_market(config, 23, SimTime::from_secs(1_500)).expect("market runs");
        assert_eq!(
            market.ledger().total(),
            60 * 25,
            "{label}: credits not conserved"
        );
        assert!(market.ledger().conserved(), "{label}: ledger books broken");
    }
}
