//! # scrip-streaming — mesh-pull P2P live streaming
//!
//! The protocol substrate for the `scrip` reproduction of Qiu et al.,
//! *"Exploring the Sustainability of Credit-incentivized Peer-to-Peer
//! Content Distribution"* (ICDCSW 2012).
//!
//! The paper validates its queueing-network theory on "a state-of-the-art
//! mesh-based P2P live streaming system … based on a representative P2P
//! streaming system, UUSee" (Sec. VI). UUSee itself is closed-source, so
//! this crate implements the standard mesh-pull design that UUSee and its
//! academic descriptions share:
//!
//! * a **source** emits a live stream as a sequence of chunks at a fixed
//!   chunk rate;
//! * each peer keeps a **buffer map** — a sliding window of held chunks
//!   around its playback position ([`BufferMap`]);
//! * on a periodic **scheduling tick**, a peer requests missing chunks
//!   from neighbors that hold them (rarest-first or deadline-first,
//!   [`ChunkStrategy`]), subject to the provider's concurrent-upload
//!   capacity;
//! * chunk transfers take random time; on arrival the chunk becomes
//!   available to downstream neighbors (the "mesh" effect);
//! * playback advances at the chunk rate; a missing chunk at its deadline
//!   is skipped and counted against **playback continuity**.
//!
//! Credit trading is injected through the [`TradePolicy`] trait: before a
//! peer-to-peer transfer starts, the policy authorizes it (e.g. "does the
//! buyer have enough credits?"), and on completion it settles payment.
//! [`FreeTrade`] is the no-op policy; the `scrip-core` crate supplies the
//! credit-market policy that reproduces the paper's experiments.
//!
//! ## Example
//!
//! ```
//! use scrip_des::{SimTime, Simulation};
//! use scrip_streaming::{FreeTrade, StreamEvent, StreamingConfig, StreamingSystem};
//! use scrip_topology::generators::{self, ScaleFreeConfig};
//! use scrip_des::SimRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SimRng::seed_from_u64(7);
//! let graph = generators::scale_free(&ScaleFreeConfig::new(60)?, &mut rng)?;
//! let system = StreamingSystem::new(graph, StreamingConfig::default(), FreeTrade, rng)?;
//! let mut sim = Simulation::new(system);
//! sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
//! sim.run_until(SimTime::from_secs(120));
//! let report = sim.model().report(sim.now());
//! assert!(report.mean_continuity > 0.5, "continuity {}", report.mean_continuity);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod config;
pub mod metrics;
pub mod peer;
pub mod policy;
pub mod system;

pub use chunk::BufferMap;
pub use config::{ChunkStrategy, ProviderSelection, StreamingConfig};
pub use metrics::{PeerReport, SystemReport};
pub use peer::{PeerState, PendingSet};
pub use policy::{FreeTrade, TradePolicy};
pub use system::{StreamEvent, StreamingSystem};
