//! # scrip-queueing — Jackson queueing-network analytics
//!
//! The analytical engine of the `scrip` reproduction of Qiu et al.,
//! *"Exploring the Sustainability of Credit-incentivized Peer-to-Peer
//! Content Distribution"* (ICDCSW 2012).
//!
//! The paper's central idea is to model a credit-based P2P market as a
//! **closed Jackson network**: each peer is a queue, each unit credit a
//! job, credit spending is job service, and the fraction of peer *i*'s
//! purchases that go to neighbor *j* is the routing probability `p_ij`.
//! This crate implements everything that analysis needs:
//!
//! * [`TransferMatrix`] — validated row-stochastic routing matrices with
//!   irreducibility checks (the hypothesis of the paper's Lemma 1).
//! * [`stationary`] — solvers for the equilibrium flow equation
//!   `λP = λ` (paper Eq. 1), by direct elimination or power iteration.
//! * [`closed`] — closed Jackson networks: normalized utilizations (Eq. 2),
//!   the product-form equilibrium (Eq. 3) evaluated with **Buzen's
//!   convolution algorithm**, exact marginal credit distributions, mean
//!   wealth per peer, and Mean Value Analysis as a cross-check.
//! * [`condensation`] — the condensation threshold `T` of Eq. (4) and the
//!   classification of Theorems 2–3 (condensation occurs iff the average
//!   wealth `c` exceeds `T`).
//! * [`approx`] — the paper's multinomial approximations (Eqs. 5–8) and
//!   the content-exchange efficiency formula (Eq. 9).
//!
//! ## Example: from routing matrix to wealth distribution
//!
//! ```
//! use scrip_queueing::{closed::ClosedJackson, stationary, TransferMatrix};
//!
//! # fn main() -> Result<(), scrip_queueing::QueueingError> {
//! // Three peers in a ring; each spends entirely to its clockwise neighbor.
//! let p = TransferMatrix::from_rows(vec![
//!     vec![0.0, 1.0, 0.0],
//!     vec![0.0, 0.0, 1.0],
//!     vec![1.0, 0.0, 0.0],
//! ])?;
//! let flows = stationary::stationary_flows(&p, stationary::SolveMethod::Auto)?;
//! let service_rates = [1.0, 2.0, 4.0];
//! let network = ClosedJackson::new(&flows, &service_rates)?;
//! // With 30 credits in the system, who holds the wealth?
//! let mean_wealth = network.expected_lengths(30);
//! // The slowest spender (peer 0) accumulates the most credits.
//! assert!(mean_wealth[0] > mean_wealth[1] && mean_wealth[1] > mean_wealth[2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod closed;
pub mod condensation;
mod error;
pub mod matrix;
pub mod stationary;

pub use error::QueueingError;
pub use matrix::TransferMatrix;
