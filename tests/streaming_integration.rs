//! Full-stack integration: streaming protocol + credit market.

use scrip_core::des::{SimRng, SimTime};
use scrip_core::protocol::StreamingMarket;
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
    let system = StreamingMarket::new(80)
        .streaming(StreamingConfig::market_paced(1.0))
        .run(overlay(n, 1), 2, SimTime::from_secs(300))
        .expect("runs");
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

    let starved = StreamingMarket::new(0)
        .streaming(StreamingConfig::market_paced(1.0))
        .run(g, 6, SimTime::from_secs(300))
        .expect("runs");
    let starved_report = starved.report(SimTime::from_secs(300));
    assert!(
        starved_report.mean_download_rate < 0.5 * free_report.mean_download_rate,
        "starved dl {} vs free dl {}",
        starved_report.mean_download_rate,
        free_report.mean_download_rate
    );
}
