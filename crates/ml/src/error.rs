//! Error type for the ML substrate.

use std::fmt;

/// Errors produced by datasets, models, and the D-SGD loop.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Structurally inconsistent inputs (shapes, label ranges, shard
    /// counts…).
    Shape {
        /// What was expected.
        expected: String,
        /// What was supplied.
        actual: String,
    },
    /// Invalid hyperparameters (zero batch size, empty layer list…).
    InvalidConfig {
        /// Explanation.
        reason: String,
    },
    /// A gradient filter rejected the per-agent gradients.
    Filter(abft_filters::FilterError),
    /// The filtered direction or the parameters became non-finite on a
    /// round that would update — a non-robust filter let a huge or NaN
    /// report through.
    Diverged {
        /// Iteration at which non-finite values appeared.
        iteration: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::Shape { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            MlError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            MlError::Filter(e) => write!(f, "gradient filter failure: {e}"),
            MlError::Diverged { iteration } => {
                write!(f, "training became non-finite at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for MlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MlError::Filter(e) => Some(e),
            _ => None,
        }
    }
}

impl From<abft_filters::FilterError> for MlError {
    fn from(e: abft_filters::FilterError) -> Self {
        MlError::Filter(e)
    }
}

/// The server step's errors, as the variants D-SGD's callers match on.
impl From<abft_dgd::DgdError> for MlError {
    fn from(e: abft_dgd::DgdError) -> Self {
        use abft_dgd::DgdError;
        match e {
            DgdError::Filter(e) => MlError::Filter(e),
            DgdError::Diverged { iteration } => MlError::Diverged { iteration },
            DgdError::Dimension { expected, actual } => MlError::Shape { expected, actual },
            DgdError::Config(reason) => MlError::InvalidConfig { reason },
            DgdError::Core(e) => MlError::InvalidConfig {
                reason: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e = MlError::from(abft_filters::FilterError::Empty);
        assert!(matches!(e, MlError::Filter(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = MlError::InvalidConfig {
            reason: "batch size 0".into(),
        };
        assert!(e.to_string().contains("batch size 0"));
        assert!(MlError::Diverged { iteration: 7 }.to_string().contains('7'));
    }

    #[test]
    fn server_step_errors_keep_their_meaning() {
        use abft_dgd::DgdError;
        assert_eq!(
            MlError::from(DgdError::Filter(abft_filters::FilterError::Empty)),
            MlError::Filter(abft_filters::FilterError::Empty)
        );
        assert_eq!(
            MlError::from(DgdError::Diverged { iteration: 3 }),
            MlError::Diverged { iteration: 3 }
        );
        let config = MlError::from(DgdError::Config("no final round".into()));
        assert!(matches!(config, MlError::InvalidConfig { reason } if reason == "no final round"));
    }
}
