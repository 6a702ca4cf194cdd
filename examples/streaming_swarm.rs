//! A live-streaming swarm where chunks are paid for with credits — the
//! paper's full protocol stack (Fig. 1's setting).
//!
//! ```sh
//! cargo run --example streaming_swarm --release
//! ```

use scrip_core::des::SimTime;
use scrip_core::econ::WealthSnapshot;
use scrip_core::market::MarketConfig;
use scrip_core::protocol::run_streaming_market;
use scrip_core::streaming::StreamingConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 150 peers on a scale-free overlay, 60 credits each, 1 credit per
    // chunk of a 1 chunk/sec live stream.
    let config = MarketConfig::new(150, 60).streaming_market(StreamingConfig::market_paced(1.0));
    let horizon = SimTime::from_secs(900);
    let system = run_streaming_market(&config, 42, horizon)?;
    println!(
        "overlay: {}",
        scrip_core::topology::metrics::TopologyReport::of(system.graph())
    );

    let report = system.report(horizon);
    println!("streaming: {report}");

    let policy = system.policy();
    let snapshot = WealthSnapshot::from_u64(&policy.ledger().balances_vec())?;
    println!("wealth:    {snapshot}");
    println!(
        "market:    settlements={} denials={} source_income={} (recycled)",
        policy.settlements, policy.denials, policy.source_income
    );
    Ok(())
}
