//! Quickstart: build a credit market, run it, and ask the paper's
//! question — will credits condense?
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use scrip_core::des::SimTime;
use scrip_core::mapping::analyze_market;
use scrip_core::market::{run_market, MarketConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 200-peer scale-free market; every peer starts with 50 credits
    // and spends ~1 credit/sec to a uniformly chosen neighbor
    // (asymmetric utilization: hubs earn more than they spend).
    let config = MarketConfig::new(200, 50).asymmetric();
    let market = run_market(config, 7, SimTime::from_secs(5_000))?;

    println!("== scrip quickstart ==");
    println!(
        "peers: {}, total credits: {}",
        market.peer_count(),
        market.ledger().total()
    );
    println!(
        "simulated wealth Gini after 5000 s: {:.3}",
        market.ledger().wealth_gini()?
    );

    // The paper's theory, applied to the same market.
    let analysis = analyze_market(&market)?;
    println!(
        "condensation threshold (Eq. 4): {}",
        analysis.threshold.threshold
    );
    println!(
        "average wealth c = {:.1} ⇒ regime: {}",
        analysis.average_wealth, analysis.regime
    );
    let richest = analysis
        .expected_wealth
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    println!(
        "theory's richest peer holds {:.0} credits in expectation ({}x the average)",
        richest,
        (richest / analysis.average_wealth).round()
    );
    Ok(())
}
