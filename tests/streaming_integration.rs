//! Full-stack integration: streaming protocol + credit market.

use scrip_core::des::{SimRng, SimTime};
use scrip_core::market::MarketConfig;
use scrip_core::protocol::run_streaming_market;
use scrip_core::streaming::StreamingConfig;
use scrip_core::topology::generators::{self, ScaleFreeConfig};

fn overlay(n: usize, seed: u64) -> scrip_core::topology::Graph {
    let mut rng = SimRng::seed_from_u64(seed);
    generators::scale_free(&ScaleFreeConfig::new(n).expect("cfg"), &mut rng).expect("graph")
}

/// The combined system streams, trades, and conserves credits.
#[test]
fn streaming_market_end_to_end() {
    let n = 60;
    let config = MarketConfig::new(n, 80).streaming_market(StreamingConfig::market_paced(1.0));
    let system = run_streaming_market(&config, 2, SimTime::from_secs(300)).expect("runs");
    let report = system.report(SimTime::from_secs(300));
    assert!(report.started_fraction > 0.9, "{report}");
    assert!(report.mean_download_rate > 0.5, "{report}");
    let policy = system.policy();
    assert!(policy.settlements > 1_000);
    assert!(policy.ledger().conserved());
    assert_eq!(
        policy.ledger().total() + policy.ledger().escrow(),
        n as u64 * 80
    );
}

/// Free trading (no credits) outperforms a credit-starved swarm — the
/// paper's core motivation that bankruptcy degrades streaming.
#[test]
fn credit_starvation_degrades_streaming() {
    use scrip_core::des::Simulation;
    use scrip_core::streaming::{FreeTrade, StreamEvent, StreamingSystem};

    let g = overlay(50, 5);
    let mut rng = SimRng::seed_from_u64(6);
    let free = StreamingSystem::new(
        g.clone(),
        StreamingConfig::market_paced(1.0),
        FreeTrade,
        rng.fork(),
    )
    .expect("builds");
    let mut sim = Simulation::new(free);
    sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
    sim.run_until(SimTime::from_secs(300));
    let free_report = sim.model().report(sim.now());

    // Seed 5 builds the same overlay as the free baseline's.
    let starved = MarketConfig::new(50, 0).streaming_market(StreamingConfig::market_paced(1.0));
    let starved = run_streaming_market(&starved, 5, SimTime::from_secs(300)).expect("runs");
    assert!(*starved.graph() == g, "both swarms run on one overlay");
    let starved_report = starved.report(SimTime::from_secs(300));
    assert!(
        starved_report.mean_download_rate < 0.5 * free_report.mean_download_rate,
        "starved dl {} vs free dl {}",
        starved_report.mean_download_rate,
        free_report.mean_download_rate
    );
}
