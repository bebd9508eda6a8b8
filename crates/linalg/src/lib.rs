//! Dense linear-algebra substrate for the `approx-bft` workspace.
//!
//! The paper's algorithms need a small but complete set of numerical tools:
//! vector arithmetic for gradients and estimates, least squares for the
//! regression minimizers `x_S = (A_SᵀA_S)⁻¹A_SᵀB_S` (Appendix J, eq. 137),
//! symmetric eigenvalues for the smoothness/convexity constants
//! `µ = λ_max(AᵢᵀAᵢ)` and `γ = λ_min(A_SᵀA_S)/|S|` (Appendix J, eqs. 138–139),
//! and seeded Gaussian sampling for the *random* Byzantine attack (σ = 200).
//!
//! No external linear-algebra crate is used — this crate *is* the substrate,
//! built from scratch so the workspace builds offline with no dependency
//! beyond the vendored `rand` and `proptest` subsets.
//!
//! # Example
//!
//! ```
//! use abft_linalg::{Matrix, Vector, least_squares};
//!
//! # fn main() -> Result<(), abft_linalg::LinalgError> {
//! // Fit y = 2x + 1 from three exact points.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]])?;
//! let b = Vector::from(vec![3.0, 5.0, 7.0]);
//! let x = least_squares(&a, &b)?;
//! assert!((x[0] - 2.0).abs() < 1e-10);
//! assert!((x[1] - 1.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

// The aggregation path must not panic on adversarial input: clippy rejects
// every panicking call outside tests, and `abft-lint`'s `panic-reach` adds
// the asserts and indexing a hot-path root reaches in any crate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod batch;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod solve;
pub mod sortnet;
pub mod stats;
pub mod vector;

pub use batch::{rowops, BatchScratch, GradientBatch};
pub use eigen::{sym_eigenvalues, SymEigen};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use pool::WorkerPool;
pub use solve::{cholesky, determinant, inverse, least_squares, solve, solve_spd};
pub use sortnet::SortingNetwork;
pub use vector::Vector;

/// Returns `true` when `a` and `b` differ by at most `tol` in absolute value.
///
/// ```
/// assert!(abft_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!abft_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::batch::{BatchScratch, GradientBatch};
    pub use crate::eigen::{sym_eigenvalues, SymEigen};
    pub use crate::error::LinalgError;
    pub use crate::matrix::Matrix;
    pub use crate::pool::WorkerPool;
    pub use crate::solve::{cholesky, determinant, inverse, least_squares, solve, solve_spd};
    pub use crate::vector::Vector;
}
