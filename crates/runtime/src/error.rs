//! Error type for the distributed runtime.

use abft_core::ValidationError;
use abft_dgd::DgdError;
use std::fmt;

/// Errors produced by the threaded and peer-to-peer runtimes.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An underlying DGD/filter failure.
    Dgd(DgdError),
    /// Configuration problem (duplicate fault assignment, out-of-range
    /// agent, omniscient strategy in a threaded run, …).
    Config(String),
    /// The peer-to-peer execution lost lockstep: two honest agents computed
    /// different estimates. This indicates a broadcast-agreement violation
    /// and should be impossible for `3f < n`.
    LockstepViolation {
        /// Iteration at which the divergence was detected.
        iteration: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Dgd(e) => write!(f, "dgd failure: {e}"),
            RuntimeError::Config(msg) => write!(f, "runtime configuration error: {msg}"),
            RuntimeError::LockstepViolation { iteration } => {
                write!(f, "honest agents diverged at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Dgd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DgdError> for RuntimeError {
    fn from(e: DgdError) -> Self {
        RuntimeError::Dgd(e)
    }
}

impl From<ValidationError> for RuntimeError {
    fn from(e: ValidationError) -> Self {
        match e {
            // Dimension problems keep their structured DGD form (callers
            // match on `RuntimeError::Dgd(DgdError::Dimension { .. })`).
            ValidationError::PointDimension { .. }
            | ValidationError::MixedCostDimensions { .. } => RuntimeError::Dgd(e.into()),
            other => RuntimeError::Config(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e = RuntimeError::from(DgdError::Config("x".into()));
        assert!(matches!(e, RuntimeError::Dgd(_)));
        assert!(RuntimeError::LockstepViolation { iteration: 9 }
            .to_string()
            .contains("9"));
    }
}
