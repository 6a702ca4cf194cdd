//! # scrip-econ — wealth-distribution and inequality metrics
//!
//! Measurement toolkit for the `scrip` reproduction of Qiu et al.,
//! *"Exploring the Sustainability of Credit-incentivized Peer-to-Peer
//! Content Distribution"* (ICDCSW 2012).
//!
//! The paper quantifies wealth condensation with the **Gini index**
//! computed from the **Lorenz curve** of the credit distribution
//! (Sec. V-B2, Figs. 1–3 and 7–11). This crate implements those, plus
//! a compact [`WealthSnapshot`] summary for experiment logs (with the
//! top-share and broke-fraction measures of [`inequality`]), and
//! cross-replication aggregation ([`aggregate`]) for batch experiments
//! that repeat a configuration over several seeds.
//!
//! ## Example
//!
//! ```
//! use scrip_econ::{gini, lorenz::LorenzCurve};
//!
//! # fn main() -> Result<(), scrip_econ::EconError> {
//! // Perfect equality.
//! assert_eq!(gini(&[5.0, 5.0, 5.0, 5.0])?, 0.0);
//! // One peer holds everything: Gini = (n-1)/n.
//! let g = gini(&[0.0, 0.0, 0.0, 12.0])?;
//! assert!((g - 0.75).abs() < 1e-12);
//! // The Lorenz curve of the same data.
//! let curve = LorenzCurve::from_samples(&[0.0, 0.0, 0.0, 12.0])?;
//! assert_eq!(curve.share_of_bottom(0.75), 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod error;
mod gini;
pub mod incremental;
pub mod inequality;
pub mod lorenz;
pub mod snapshot;

pub use aggregate::SummaryStats;
pub use error::EconError;
pub use gini::{gini, gini_from_pmf, gini_u64};
pub use incremental::IncrementalGini;
pub use lorenz::LorenzCurve;
pub use snapshot::WealthSnapshot;
