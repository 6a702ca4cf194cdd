//! Property-based tests for the credit market: conservation and policy
//! invariants under arbitrary configurations, fault schedules, and
//! checkpoint/resume points.

use proptest::prelude::*;
use scrip_core::des::{FaultSpec, SimDuration, SimRng, SimTime};
use scrip_core::market::{run_market, ChurnConfig, MarketConfig, TopologyKind};
use scrip_core::obs::{probes, Probe, RunRecord, Session};
use scrip_core::policy::{SpendingPolicy, TaxConfig, Taxation};
use scrip_core::pricing::{PricingConfig, PricingModel};
use scrip_core::topology::NodeId;

/// Every stateful built-in probe, so resume must reproduce the full
/// probe state.
fn full_probe_set() -> Vec<Box<dyn Probe>> {
    vec![
        Box::new(probes::GiniSeriesProbe),
        Box::new(probes::SnapshotsProbe::new(vec![150, 350])),
        Box::new(probes::ThroughputSeriesProbe::new()),
        Box::new(probes::PopulationSeriesProbe::new()),
        Box::new(probes::FaultSeriesProbe::new()),
    ]
}

/// Runs `config` under a [`Session`] with the full probe set and
/// returns the record plus the finished market's sorted balances.
fn observed_run(config: &MarketConfig, seed: u64, horizon: SimTime) -> (RunRecord, Vec<u64>) {
    let mut session = Session::from_config(config, seed).expect("builds");
    for probe in full_probe_set() {
        session.attach(probe);
    }
    session.run_until(horizon);
    let (record, model) = session.finish();
    let market = model.queue().expect("queue config");
    assert!(market.ledger().conserved(), "books must balance");
    assert!(
        market.in_flight_escrow() <= market.ledger().escrow(),
        "per-trade escrow is a sub-pool of total escrow"
    );
    if !market.faults_enabled() {
        assert_eq!(market.in_flight_escrow(), 0);
    }
    (record, market.balances_sorted())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Closed markets conserve credits exactly, for any profile, pricing
    /// and policy combination.
    #[test]
    fn closed_market_conserves(
        n in 5usize..40,
        c in 1u64..60,
        profile in 0u8..3,
        pricing in 0u8..3,
        tax_on in proptest::bool::ANY,
        dynamic in proptest::bool::ANY,
        seed in 0u64..100,
    ) {
        let mut config = MarketConfig::new(n, c).topology(TopologyKind::Complete);
        config = match profile {
            0 => config.symmetric(),
            1 => config.near_symmetric(0.1),
            _ => config.asymmetric(),
        };
        config = config.pricing(match pricing {
            0 => PricingConfig::Uniform { price: 1 },
            1 => PricingConfig::SellerPoisson { mean: 1.5 },
            _ => PricingConfig::ChunkPoisson { mean: 1.0 },
        });
        if tax_on {
            config = config.tax(TaxConfig::new(0.15, c / 2).expect("valid"));
        }
        if dynamic {
            config = config.spending(SpendingPolicy::Dynamic { threshold: c.max(1) });
        }
        let market = run_market(config, seed, SimTime::from_secs(300)).expect("runs");
        let ledger = market.ledger();
        prop_assert!(ledger.conserved());
        prop_assert_eq!(ledger.total() + ledger.escrow(), n as u64 * c);
    }

    /// Open markets keep exact books: wallets + escrow = minted − burned.
    #[test]
    fn open_market_books_balance(
        n in 5usize..30,
        arrival in 0.05f64..1.0,
        lifespan in 50.0f64..500.0,
        seed in 0u64..100,
    ) {
        let churn = ChurnConfig::new(arrival, lifespan, 5).expect("valid");
        let config = MarketConfig::new(n, 10)
            .topology(TopologyKind::Complete)
            .churn(churn);
        let market = run_market(config, seed, SimTime::from_secs(400)).expect("runs");
        prop_assert!(market.ledger().conserved());
    }

    /// Taxation never assesses more than the income, and expectation is
    /// proportional to the rate.
    #[test]
    fn tax_assessment_bounded(
        rate in 0.01f64..1.0,
        threshold in 0u64..100,
        income in 1u64..50,
        wealth in 0u64..500,
        seed in 0u64..100,
    ) {
        let tax = Taxation::new(TaxConfig::new(rate, threshold).expect("valid"));
        let mut rng = SimRng::seed_from_u64(seed);
        let due = tax.assess(income, wealth, &mut rng);
        prop_assert!(due <= income);
        if wealth <= threshold {
            prop_assert_eq!(due, 0);
        }
    }

    /// Spending policies never reduce the rate below the base, and the
    /// dynamic policy is monotone in wealth.
    #[test]
    fn spending_policy_monotone(base in 0.1f64..10.0, threshold in 1u64..1_000, w1 in 0u64..10_000, w2 in 0u64..10_000) {
        let policy = SpendingPolicy::Dynamic { threshold };
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let r_lo = policy.effective_rate(base, lo);
        let r_hi = policy.effective_rate(base, hi);
        prop_assert!(r_lo >= base - 1e-12);
        prop_assert!(r_hi >= r_lo - 1e-12);
    }

    /// Pricing models always quote at least 1 credit and are
    /// deterministic per (seller, chunk).
    #[test]
    fn pricing_quotes_are_stable(pricing in 0u8..3, chunk in 0u64..10_000, seed in 0u64..100) {
        let peers: Vec<NodeId> = (0..10).map(NodeId::from_raw).collect();
        let config = match pricing {
            0 => PricingConfig::Uniform { price: 2 },
            1 => PricingConfig::SellerPoisson { mean: 1.0 },
            _ => PricingConfig::ChunkPoisson { mean: 1.0 },
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let model = PricingModel::realize(config, &peers, &mut rng).expect("valid");
        for &s in &peers {
            let p1 = model.price(s, chunk);
            let p2 = model.price(s, chunk);
            prop_assert!(p1 >= 1);
            prop_assert_eq!(p1, p2);
        }
    }
}

proptest! {
    // Heavier properties: each case runs several full markets, so fewer
    // cases keep the suite fast while still sweeping the fault space.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Credit conservation and escrow accounting hold for arbitrary
    /// fault schedules composed with churn.
    #[test]
    fn faulted_market_is_conserved(
        drop_rate in 0.0f64..0.15,
        defect_rate in 0.0f64..0.10,
        delay_rate in 0.0f64..0.10,
        crash_fraction in 0.0f64..0.20,
        churn_on in proptest::bool::ANY,
        seed in 0u64..50,
    ) {
        let spec = FaultSpec {
            drop_rate,
            defect_rate,
            delay_rate,
            crash_fraction,
            onset: SimTime::from_secs(30),
            ..FaultSpec::default()
        };
        let mut config = MarketConfig::new(30, 20)
            .topology(TopologyKind::Complete)
            .faults(spec)
            .sample_interval(SimDuration::from_secs(100));
        if churn_on {
            config = config.churn(ChurnConfig::new(0.3, 200.0, 8).expect("valid"));
        }
        let horizon = SimTime::from_secs(400);
        // `observed_run` asserts conservation and escrow accounting.
        observed_run(&config, seed, horizon);
    }

    /// Checkpointing at an arbitrary point mid-run and resuming is
    /// byte-identical to the uninterrupted run — under an active fault
    /// plan and churn, including every probe's series.
    #[test]
    fn resume_at_random_checkpoint_matches_straight_run(
        stop_secs in 1u64..800,
        drop_rate in 0.0f64..0.15,
        crash_fraction in 0.0f64..0.15,
        seed in 0u64..50,
    ) {
        let spec = FaultSpec {
            drop_rate,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction,
            onset: SimTime::from_secs(50),
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(30, 20)
            .topology(TopologyKind::Complete)
            .faults(spec)
            .churn(ChurnConfig::new(0.3, 250.0, 8).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(800);
        let (direct, balances) = observed_run(&config, seed, horizon);

        let mut session = Session::from_config(&config, seed).expect("builds");
        for probe in full_probe_set() {
            session.attach(probe);
        }
        session.run_until(SimTime::from_secs(stop_secs));
        let bytes = session.checkpoint().expect("checkpoints");
        drop(session);
        let mut resumed = Session::resume(&config, full_probe_set(), &bytes).expect("resumes");
        // Re-checkpointing the freshly resumed session reproduces the
        // snapshot bit for bit.
        prop_assert_eq!(resumed.checkpoint().expect("re-checkpoints"), bytes);
        resumed.run_until(horizon);
        let (record, model) = resumed.finish();
        let market = model.queue().expect("queue config");
        prop_assert!(market.ledger().conserved());
        prop_assert_eq!(record, direct, "diverged after resume at {}s", stop_secs);
        prop_assert_eq!(market.balances_sorted(), balances);
    }
}
