//! Error type shared by the queueing-network algorithms.

use std::error::Error;
use std::fmt;

/// Errors from queueing-network construction and analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum QueueingError {
    /// A matrix or vector had inconsistent or empty dimensions.
    Dimension(String),
    /// A matrix failed row-stochastic validation (negative entries or a
    /// row not summing to one).
    NotStochastic(String),
    /// A parameter (rate, utilization, probability) was out of range.
    InvalidParameter(String),
    /// The routing structure is reducible where irreducibility is
    /// required, or a linear system was singular.
    Singular(String),
    /// An iterative method failed to converge within its budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
}

impl fmt::Display for QueueingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueingError::Dimension(msg) => write!(f, "dimension mismatch: {msg}"),
            QueueingError::NotStochastic(msg) => write!(f, "matrix not row-stochastic: {msg}"),
            QueueingError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            QueueingError::Singular(msg) => write!(f, "singular or reducible system: {msg}"),
            QueueingError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl Error for QueueingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(QueueingError::Dimension("bad".into())
            .to_string()
            .contains("dimension"));
        assert!(QueueingError::NotStochastic("row 3".into())
            .to_string()
            .contains("row 3"));
        assert!(QueueingError::NoConvergence {
            iterations: 10,
            residual: 0.5
        }
        .to_string()
        .contains("10 iterations"));
    }
}
