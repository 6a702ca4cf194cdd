//! # scrip-core — credit-incentivized P2P content distribution
//!
//! The primary crate of the `scrip` workspace: a full reproduction of
//! Qiu, Huang, Wu, Li, Lau — *"Exploring the Sustainability of
//! Credit-incentivized Peer-to-Peer Content Distribution"*, 32nd ICDCS
//! Workshops (ICDCSW 2012), pp. 118–126.
//!
//! The paper asks whether a P2P market that pays for chunk uploads with
//! virtual credits can stay healthy over long horizons, or whether
//! credits inevitably **condense** onto a few peers (the "Capitol Hill
//! babysitting co-op" collapse). Its contributions, all implemented
//! here:
//!
//! 1. **Model** ([`model`], with the math in [`scrip_queueing`]): a
//!    credit market mapped onto a closed Jackson network — peer = queue,
//!    credit = job, spending rate = service rate, purchase preferences =
//!    routing matrix (Table I).
//! 2. **Theory**: equilibrium existence (Lemma 1), the condensation
//!    threshold `T` (Eq. 4, Theorems 2–3), finite-network skewness via
//!    the Gini index, and the efficiency trade-off (Eq. 9).
//! 3. **Simulation** ([`market`] and [`protocol`]): a queue-level market
//!    simulator matching the model exactly, and a protocol-level
//!    simulator where credits gate chunk transfers inside a mesh-pull
//!    live-streaming swarm ([`scrip_streaming`]). Counter-measures —
//!    taxation ([`policy::Taxation`]) and dynamic spending rates
//!    ([`policy::SpendingPolicy`]) — and churn (open market) are
//!    supported by both the simulators and the analytics. One
//!    observation layer ([`obs`]) runs either simulator behind a
//!    unified [`obs::Session`] and measures it through pluggable
//!    [`obs::Probe`]s.
//!
//! ## Quickstart
//!
//! ```
//! use scrip_core::market::{CreditMarket, MarketConfig, MarketEvent};
//! use scrip_des::{SimTime, Simulation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 100-peer market, 20 credits each, asymmetric utilization.
//! let config = MarketConfig::new(100, 20).asymmetric();
//! let market = CreditMarket::build(config, 42)?;
//! let mut sim = Simulation::new(market);
//! sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
//! sim.run_until(SimTime::from_secs(2_000));
//!
//! let market = sim.model();
//! let gini = market.wealth_gini()?;
//! assert!((0.0..=1.0).contains(&gini));
//! // The Jackson-network analysis of the same market:
//! let analysis = scrip_core::mapping::analyze_market(market)?;
//! println!("threshold: {}, regime: {}", analysis.threshold.threshold, analysis.regime);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod credits;
mod error;
pub mod mapping;
pub mod market;
pub mod model;
pub mod obs;
pub mod policy;
pub mod pricing;
pub mod protocol;
pub(crate) mod snapshot;
pub mod spec;

pub use credits::Ledger;
pub use error::CoreError;

// The dense slot map lives in `scrip-topology` (next to the graph that
// shares its discipline) so the streaming crate can use it too; the old
// `scrip_core::arena` path keeps working through this re-export.
pub use scrip_topology::arena;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use scrip_des as des;
pub use scrip_econ as econ;
pub use scrip_queueing as queueing;
pub use scrip_streaming as streaming;
pub use scrip_topology as topology;
