//! Symmetric eigensolvers.
//!
//! Appendix J of the paper derives the smoothness constant `µ` as the largest
//! eigenvalue of `AᵢᵀAᵢ` and the strong-convexity constant `γ` as
//! `λ_min(A_SᵀA_S)/|S|`. Both are eigenvalues of small symmetric matrices,
//! which the cyclic Jacobi method computes to machine precision.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector for `values[j]`.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Smallest eigenvalue.
    ///
    /// # Panics
    ///
    /// Never panics: the decomposition always has at least one eigenvalue.
    // LINT-ALLOW(panic-reach): the spectrum is non-empty (0×0 input is rejected)
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest eigenvalue.
    #[expect(
        clippy::expect_used,
        reason = "the spectrum is non-empty (0×0 input is rejected)"
    )]
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty spectrum")
    }
}

/// Symmetric eigendecomposition via the cyclic Jacobi method.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input,
/// [`LinalgError::Dimension`] when the matrix is not symmetric (within
/// `1e-9`), [`LinalgError::Empty`] for a 0×0 matrix, and
/// [`LinalgError::NoConvergence`] if off-diagonal mass fails to vanish
/// within the sweep budget (does not occur for well-formed input).
///
/// # Example
///
/// ```
/// use abft_linalg::{Matrix, sym_eigenvalues};
///
/// # fn main() -> Result<(), abft_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = sym_eigenvalues(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-10);
/// assert!((eig.values[1] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn sym_eigenvalues(a: &Matrix) -> Result<SymEigen, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if !a.is_symmetric(1e-9) {
        return Err(LinalgError::Dimension {
            expected: "a symmetric matrix".to_string(),
            actual: "an asymmetric matrix".to_string(),
        });
    }

    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    const MAX_SWEEPS: usize = 100;
    let tol = 1e-14 * a.frobenius_norm().max(1.0);

    for _sweep in 0..MAX_SWEEPS {
        let mut off_diag: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off_diag += m.get(i, j) * m.get(i, j);
            }
        }
        if off_diag.sqrt() <= tol {
            let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m.get(i, i), i)).collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let values: Vec<f64> = pairs.iter().map(|(val, _)| *val).collect();
            let vectors = Matrix::from_fn(n, n, |row, col| v.get(row, pairs[col].1));
            return Ok(SymEigen { values, vectors });
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Jacobi rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        method: "jacobi eigensolver",
        iterations: MAX_SWEEPS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::diagonal(&[3.0, 1.0, 2.0]);
        let eig = sym_eigenvalues(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
        assert!((eig.values[2] - 3.0).abs() < 1e-12);
        assert_eq!(eig.min(), eig.values[0]);
        assert_eq!(eig.max(), eig.values[2]);
    }

    #[test]
    fn known_2x2_spectrum() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = sym_eigenvalues(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-10);
        assert!((eig.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]).unwrap();
        let eig = sym_eigenvalues(&a).unwrap();
        for (j, &lambda) in eig.values.iter().enumerate() {
            let v = eig.vectors.col_vector(j);
            let av = a.matvec(&v).unwrap();
            assert!(
                av.approx_eq(&v.scale(lambda), 1e-9),
                "A v != lambda v for eigenpair {j}"
            );
        }
    }

    #[test]
    fn trace_and_determinant_invariants() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]).unwrap();
        let eig = sym_eigenvalues(&a).unwrap();
        let trace: f64 = eig.values.iter().sum();
        let det: f64 = eig.values.iter().product();
        assert!((trace - 6.0).abs() < 1e-10);
        assert!((det - 1.0).abs() < 1e-10); // det = 5 - 4
    }

    #[test]
    fn rejects_asymmetric_and_nonsquare() {
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(sym_eigenvalues(&asym).is_err());
        assert!(sym_eigenvalues(&Matrix::zeros(2, 3)).is_err());
        assert!(sym_eigenvalues(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn gram_matrix_spectrum_is_nonnegative() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.2, 1.3], &[-0.7, 0.4]]).unwrap();
        let eig = sym_eigenvalues(&a.gram()).unwrap();
        assert!(eig.min() >= -1e-10);
    }
}
