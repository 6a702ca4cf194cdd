//! Golden-trajectory pins for the market hot paths.
//!
//! The two queue-level trajectories were captured from the pre-arena
//! (BTreeMap-based) implementation of
//! [`scrip_core::market::CreditMarket`] and pin the exact per-peer
//! balances, the full Gini-over-time series, and the conservation
//! counters for two seeded market configurations. The dense peer-arena
//! / incremental-Gini refactor must reproduce them *bit for bit*: every
//! RNG draw, every transfer, and every recorded sample has to land
//! identically.
//!
//! The chunk-level trajectory pins the arena-based streaming market
//! (`scrip_core::protocol::run_streaming_market`): balances, the stall
//! and Gini series, and the settlement/denial counters. Any change to
//! the trade loop's RNG draws, scheduling order, or settlement
//! arithmetic shows up as a diff.
//!
//! Regenerate (only when an intentional behaviour change is made) with:
//!
//! ```text
//! SCRIP_BLESS=1 cargo test --test golden_trajectories
//! ```

use std::fmt::Write as _;
use std::path::Path;

use scrip_core::market::{ChurnConfig, MarketConfig, TopologyKind};
use scrip_core::policy::{SpendingPolicy, TaxConfig};
use scrip_core::pricing::PricingConfig;
use scrip_core::streaming::StreamingConfig;
use scrip_des::{SimDuration, SimTime};

const GOLDEN_PATH: &str = "tests/golden/market_trajectories.txt";

/// Config A: the asymmetric availability-feedback market — exercises
/// neighbor routing over the scale-free overlay, the weighted seller
/// pick, and per-seller Poisson pricing.
fn config_a() -> (MarketConfig, u64, u64) {
    let config = MarketConfig::new(60, 50)
        .asymmetric()
        .with_availability_feedback()
        .pricing(PricingConfig::SellerPoisson { mean: 2.0 })
        .sample_interval(SimDuration::from_secs(100));
    (config, 11, 2_000)
}

/// Config B: the everything-on market — complete mixing with jittered
/// rates, income tax with escrow sweeps, dynamic spending, per-chunk
/// Poisson prices, and churn (joins, leaves, mint/burn accounting).
fn config_b() -> (MarketConfig, u64, u64) {
    let config = MarketConfig::new(50, 40)
        .near_symmetric(0.2)
        .spending(SpendingPolicy::Dynamic { threshold: 60 })
        .tax(TaxConfig::new(0.2, 40).expect("valid tax"))
        .churn(ChurnConfig::new(0.25, 200.0, 8).expect("valid churn"))
        .topology(TopologyKind::Complete)
        .pricing(PricingConfig::ChunkPoisson { mean: 1.0 })
        .sample_interval(SimDuration::from_secs(100));
    (config, 23, 2_000)
}

/// Renders one market run as a deterministic text block. Floats use
/// `{:?}` (shortest round-trip representation), so any bit-level drift
/// in the Gini series shows up as a diff.
fn render(label: &str, config: MarketConfig, seed: u64, horizon_secs: u64) -> String {
    let market = scrip_core::market::run_market(config, seed, SimTime::from_secs(horizon_secs))
        .expect("market runs");
    let mut out = String::new();
    writeln!(out, "[{label} seed={seed} horizon={horizon_secs}]").unwrap();
    writeln!(out, "balances={:?}", market.ledger().balances_vec()).unwrap();
    let gini: Vec<(f64, f64)> = market
        .gini_series()
        .samples()
        .iter()
        .map(|&(t, g)| (t.as_secs_f64(), g))
        .collect();
    writeln!(out, "gini={gini:?}").unwrap();
    writeln!(
        out,
        "purchases={} denied={} minted={} burned={} escrow={} peers={}",
        market.purchases(),
        market.denied(),
        market.ledger().minted(),
        market.ledger().burned(),
        market.ledger().escrow(),
        market.peer_count(),
    )
    .unwrap();
    out
}

/// Config C: the chunk-level streaming market — exercises the arena
/// hot path of `scrip-streaming` (pull scheduling, rarest-first,
/// provider rotation) plus `CreditTradePolicy` settlement, taxation,
/// chunk-level churn (mint/burn), and the stall/Gini sampling chain.
fn config_c() -> (MarketConfig, u64, u64) {
    let config = MarketConfig::new(50, 30)
        .streaming_market(StreamingConfig::market_paced(1.0))
        .pricing(PricingConfig::SellerPoisson { mean: 2.0 })
        .tax(TaxConfig::new(0.2, 40).expect("valid tax"))
        .churn(ChurnConfig::new(0.25, 200.0, 8).expect("valid churn"))
        .sample_interval(SimDuration::from_secs(50));
    (config, 31, 600)
}

/// Renders one streaming-market run as a deterministic text block.
fn render_streaming(label: &str, config: MarketConfig, seed: u64, horizon_secs: u64) -> String {
    let system =
        scrip_core::protocol::run_streaming_market(&config, seed, SimTime::from_secs(horizon_secs))
            .expect("streaming market runs");
    let policy = system.policy();
    let mut out = String::new();
    writeln!(out, "[{label} seed={seed} horizon={horizon_secs}]").unwrap();
    writeln!(out, "balances={:?}", policy.balances_sorted()).unwrap();
    let series = |ts: &scrip_des::stats::TimeSeries| -> Vec<(f64, f64)> {
        ts.samples()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect()
    };
    writeln!(out, "gini={:?}", series(policy.gini_series())).unwrap();
    writeln!(out, "stall={:?}", series(system.stall_series())).unwrap();
    writeln!(
        out,
        "settlements={} denials={} shortfalls={} source_income={} minted={} burned={} escrow={} \
         peers={}",
        policy.settlements,
        policy.denials,
        policy.shortfalls,
        policy.source_income,
        policy.ledger().minted(),
        policy.ledger().burned(),
        policy.ledger().escrow(),
        system.peer_count(),
    )
    .unwrap();
    assert!(policy.ledger().conserved(), "golden run must conserve");
    out
}

fn current_goldens() -> String {
    let (ca, seed_a, horizon_a) = config_a();
    let (cb, seed_b, horizon_b) = config_b();
    let (cc, seed_c, horizon_c) = config_c();
    format!(
        "{}{}{}",
        render("availability-feedback", ca, seed_a, horizon_a),
        render("tax-churn-dynamic", cb, seed_b, horizon_b),
        render_streaming("streaming-tax-churn", cc, seed_c, horizon_c)
    )
}

#[test]
fn market_trajectories_match_pre_refactor_goldens() {
    let rendered = current_goldens();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var("SCRIP_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &rendered).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        golden, rendered,
        "seeded market trajectories drifted from the pre-refactor goldens \
         (regenerate with SCRIP_BLESS=1 only for intentional changes)"
    );
}
