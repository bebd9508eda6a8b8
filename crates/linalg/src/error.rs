//! Error type for linear-algebra operations.

use std::fmt;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    Dimension {
        /// The shape the operation required.
        expected: String,
        /// The shape that was supplied.
        actual: String,
    },
    /// The matrix is singular (or numerically rank-deficient) where an
    /// invertible one was required.
    Singular,
    /// The matrix is not symmetric positive definite where SPD was required
    /// (Cholesky, SPD solves).
    NotPositiveDefinite,
    /// A square matrix was required.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// An operation that requires at least one element received none.
    Empty,
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the method that failed.
        method: &'static str,
        /// Iterations attempted.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Dimension { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::Empty => write!(f, "operation requires a non-empty operand"),
            LinalgError::NoConvergence { method, iterations } => {
                write!(
                    f,
                    "{method} did not converge within {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::Dimension {
            expected: "3x3".into(),
            actual: "2x3".into(),
        };
        assert!(e.to_string().contains("expected 3x3"));
        assert!(LinalgError::Singular.to_string().contains("singular"));
        assert!(LinalgError::NotSquare { rows: 2, cols: 3 }
            .to_string()
            .contains("2x3"));
        assert!(LinalgError::NoConvergence {
            method: "jacobi",
            iterations: 100
        }
        .to_string()
        .contains("jacobi"));
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<LinalgError>();
    }
}
