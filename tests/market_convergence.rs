//! The paper's Sec. VI-A claim: the credit distribution converges to a
//! stable state (Figs. 5–7).

use scrip_core::des::{SimDuration, SimTime, Simulation};
use scrip_core::market::{CreditMarket, MarketConfig, MarketEvent};

/// The Gini trajectory stabilizes: late-window variation is small.
#[test]
fn gini_converges_in_symmetric_market() {
    let config = MarketConfig::new(100, 50)
        .symmetric()
        .sample_interval(SimDuration::from_secs(100));
    let market = CreditMarket::build(config, 3).expect("builds");
    let mut sim = Simulation::new(market);
    sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
    sim.run_until(SimTime::from_secs(12_000));
    let series = sim.model().gini_series();
    assert!(series.len() > 100);
    assert!(
        series.has_converged(20, 0.06),
        "Gini did not stabilize: last samples {:?}",
        &series.samples()[series.len() - 5..]
    );
}

/// Sorted-wealth snapshots overlap more in the late stage than in the
/// early stage (Figs. 5 vs 6).
#[test]
fn late_stage_snapshots_overlap_more() {
    let config = MarketConfig::new(150, 100).symmetric();
    let market = CreditMarket::build(config, 5).expect("builds");
    let mut sim = Simulation::new(market);
    sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);

    let mut snapshot_at = |t: u64| {
        sim.run_until(SimTime::from_secs(t));
        sim.model().ledger().balances_sorted()
    };
    let early_a = snapshot_at(500);
    let early_b = snapshot_at(2_500);
    let late_a = snapshot_at(16_000);
    let late_b = snapshot_at(18_000);

    let mean_abs_diff = |a: &[u64], b: &[u64]| {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .sum::<f64>()
            / a.len() as f64
    };
    let early_diff = mean_abs_diff(&early_a, &early_b);
    let late_diff = mean_abs_diff(&late_a, &late_b);
    assert!(
        late_diff < early_diff,
        "late-stage curves should overlap more: early Δ {early_diff:.2}, late Δ {late_diff:.2}"
    );
}

/// The asymmetric market's Gini converges to a higher plateau than the
/// symmetric market's (Figs. 7 vs 8).
#[test]
fn asymmetric_plateau_exceeds_symmetric() {
    let run = |config, seed| {
        let market = CreditMarket::build(config, seed).expect("builds");
        let mut sim = Simulation::new(market);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(6_000));
        sim.into_model()
    };
    let sym = run(MarketConfig::new(100, 50).symmetric(), 7);
    let asym = run(MarketConfig::new(100, 50).asymmetric(), 7);
    let g_sym = sym.gini_series().tail_mean(10).expect("samples");
    let g_asym = asym.gini_series().tail_mean(10).expect("samples");
    assert!(
        g_asym > g_sym + 0.1,
        "asymmetric plateau {g_asym:.3} vs symmetric {g_sym:.3}"
    );
}
