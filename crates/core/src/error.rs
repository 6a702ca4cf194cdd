//! The unified error type of the core crate.

use std::error::Error;
use std::fmt;

use scrip_des::snapshot::SnapshotError;
use scrip_econ::EconError;
use scrip_queueing::QueueingError;
use scrip_topology::generators::GenError;

/// Errors from market construction, simulation, and analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// A configuration parameter was invalid.
    Config(String),
    /// Topology generation failed.
    Topology(GenError),
    /// Queueing-network analysis failed.
    Queueing(QueueingError),
    /// An inequality metric failed.
    Econ(EconError),
    /// A ledger operation failed (e.g. overdraft).
    Ledger(String),
    /// A checkpoint snapshot could not be taken or restored
    /// (truncated/corrupt bytes, version or configuration mismatch,
    /// unsupported session shape).
    Checkpoint(String),
    /// An event trace could not be recorded, read, or verified
    /// (I/O failure, truncated/corrupt frames, header mismatch, or a
    /// replay that diverged from the recorded run).
    Trace(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Config(msg) => write!(f, "invalid market configuration: {msg}"),
            CoreError::Topology(e) => write!(f, "topology: {e}"),
            CoreError::Queueing(e) => write!(f, "queueing analysis: {e}"),
            CoreError::Econ(e) => write!(f, "inequality metric: {e}"),
            CoreError::Ledger(msg) => write!(f, "ledger: {msg}"),
            CoreError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            CoreError::Trace(msg) => write!(f, "trace: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Topology(e) => Some(e),
            CoreError::Queueing(e) => Some(e),
            CoreError::Econ(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GenError> for CoreError {
    fn from(e: GenError) -> Self {
        CoreError::Topology(e)
    }
}

impl From<QueueingError> for CoreError {
    fn from(e: QueueingError) -> Self {
        CoreError::Queueing(e)
    }
}

/// A snapshot decoder's refusal is a checkpoint error.
impl From<SnapshotError> for CoreError {
    fn from(e: SnapshotError) -> Self {
        CoreError::Checkpoint(e.0)
    }
}

impl From<EconError> for CoreError {
    fn from(e: EconError) -> Self {
        CoreError::Econ(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: CoreError = GenError::InvalidParam("n".into()).into();
        assert!(e.to_string().contains("topology"));
        let e: CoreError = QueueingError::Dimension("d".into()).into();
        assert!(e.to_string().contains("queueing"));
        let e: CoreError = EconError::Empty.into();
        assert!(e.to_string().contains("inequality"));
        assert!(CoreError::Config("x".into()).to_string().contains("x"));
        assert!(CoreError::Ledger("y".into()).to_string().contains("y"));
    }
}
