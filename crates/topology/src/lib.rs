//! # scrip-topology — P2P overlay topologies
//!
//! Overlay-graph substrate for the `scrip` reproduction of Qiu et al.,
//! *"Exploring the Sustainability of Credit-incentivized Peer-to-Peer
//! Content Distribution"* (ICDCSW 2012).
//!
//! The paper's simulations run on **scale-free overlays** whose degree
//! distribution follows a power law `P(D) ~ D^-k` with shape `k = 2.5` and
//! an average of 20 neighbors, over 500–1000 peers, with peers joining and
//! leaving dynamically (Sec. VI). This crate provides:
//!
//! * [`Graph`] — an undirected overlay with stable [`NodeId`]s that survive
//!   churn (IDs are never reused).
//! * [`generators`] — scale-free (configuration model and preferential
//!   attachment), Erdős–Rényi, random-regular, complete and ring graphs.
//! * [`churn`] — join/leave operations that keep the overlay connected,
//!   in O(log n) per join through the graph's [`JoinIndex`].
//! * [`metrics`] — degree statistics, power-law exponent MLE, clustering
//!   coefficient and connectivity checks.
//!
//! ## Example
//!
//! ```
//! use scrip_des::SimRng;
//! use scrip_topology::generators::{self, ScaleFreeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SimRng::seed_from_u64(42);
//! let graph = generators::scale_free(&ScaleFreeConfig::new(500)?, &mut rng)?;
//! assert_eq!(graph.node_count(), 500);
//! let mean_degree = scrip_topology::metrics::mean_degree(&graph);
//! assert!(mean_degree > 4.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod churn;
pub mod generators;
pub mod graph;
pub mod join_index;
pub mod metrics;
pub mod snapshot;

pub use arena::PeerArena;
pub use graph::{Graph, GraphError, NodeId};
pub use join_index::JoinIndex;
pub use snapshot::TakeId;
