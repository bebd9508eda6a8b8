//! Direct solvers: Gaussian elimination, Cholesky, Householder-QR least
//! squares.
//!
//! These are the tools behind the regression minimizers of Appendix J:
//! `x_S = argmin ‖B_S − A_S x‖²` is computed by [`least_squares`], which uses
//! a Householder QR factorization (numerically safer than forming the normal
//! equations, though [`solve_spd`] on the Gram matrix gives the same answer
//! for well-conditioned instances and is kept for cross-checking).

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Pivot magnitude below which a matrix is declared singular.
const SINGULAR_TOL: f64 = 1e-12;

/// Solves the square system `A x = b` by Gaussian elimination with partial
/// pivoting.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `A` is not square,
/// [`LinalgError::Dimension`] when `b` has the wrong length, and
/// [`LinalgError::Singular`] when a pivot underflows the tolerance.
///
/// # Example
///
/// ```
/// use abft_linalg::{Matrix, Vector, solve};
///
/// # fn main() -> Result<(), abft_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let b = Vector::from(vec![3.0, 5.0]);
/// let x = solve(&a, &b)?;
/// assert!(a.matvec(&x)?.approx_eq(&b, 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.dim() != a.rows() {
        return Err(LinalgError::Dimension {
            expected: format!("dim {}", a.rows()),
            actual: format!("dim {}", b.dim()),
        });
    }
    let n = a.rows();
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.clone();

    for col in 0..n {
        // Partial pivoting: bring the largest |entry| in this column to the
        // top. Ties keep the later row (matching the historical `max_by`
        // choice); `total_cmp` keeps the scan deterministic even for NaN.
        let pivot_row = pivot_row(&m, col, n);
        if m.get(pivot_row, col).abs() < SINGULAR_TOL {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m.get(col, j);
                m.set(col, j, m.get(pivot_row, j));
                m.set(pivot_row, j, tmp);
            }
            let tmp = rhs[col];
            rhs[col] = rhs[pivot_row];
            rhs[pivot_row] = tmp;
        }
        let pivot = m.get(col, col);
        for row in (col + 1)..n {
            let factor = m.get(row, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                m.set(row, j, m.get(row, j) - factor * m.get(col, j));
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = Vector::zeros(n);
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for j in (row + 1)..n {
            acc -= m.get(row, j) * x[j];
        }
        x[row] = acc / m.get(row, row);
    }
    Ok(x)
}

/// The partial-pivoting row for `col`: the row in `col..n` with the
/// largest `|entry|` in that column, later rows winning ties — the same
/// selection the historical `Iterator::max_by` scan made, but total (no
/// panic on NaN: `total_cmp` orders it deterministically).
fn pivot_row(m: &Matrix, col: usize, n: usize) -> usize {
    let mut best = col;
    let mut best_mag = m.get(col, col).abs();
    for i in (col + 1)..n {
        let mag = m.get(i, col).abs();
        if mag.total_cmp(&best_mag) != std::cmp::Ordering::Less {
            best = i;
            best_mag = mag;
        }
    }
    best
}

/// Determinant via LU decomposition with partial pivoting.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn determinant(a: &Matrix) -> Result<f64, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut det = 1.0;
    for col in 0..n {
        let pivot_row = pivot_row(&m, col, n);
        let pivot = m.get(pivot_row, col);
        if pivot.abs() < SINGULAR_TOL {
            return Ok(0.0);
        }
        if pivot_row != col {
            det = -det;
            for j in 0..n {
                let tmp = m.get(col, j);
                m.set(col, j, m.get(pivot_row, j));
                m.set(pivot_row, j, tmp);
            }
        }
        det *= m.get(col, col);
        for row in (col + 1)..n {
            let factor = m.get(row, col) / m.get(col, col);
            for j in col..n {
                m.set(row, j, m.get(row, j) - factor * m.get(col, j));
            }
        }
    }
    Ok(det)
}

/// Matrix inverse via column-wise solves.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut out = Matrix::zeros(n, n);
    for j in 0..n {
        let e = Vector::basis(n, j);
        let col = solve(a, &e)?;
        for i in 0..n {
            out.set(i, j, col[i]);
        }
    }
    Ok(out)
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix,
/// returning the lower-triangular factor `L`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is
/// non-positive.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates [`cholesky`]'s errors and [`LinalgError::Dimension`] for a
/// wrong-length right-hand side.
pub fn solve_spd(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    if b.dim() != a.rows() {
        return Err(LinalgError::Dimension {
            expected: format!("dim {}", a.rows()),
            actual: format!("dim {}", b.dim()),
        });
    }
    let l = cholesky(a)?;
    let n = a.rows();
    // Forward substitution: L y = b.
    let mut y = Vector::zeros(n);
    for i in 0..n {
        let mut acc = b[i];
        for k in 0..i {
            acc -= l.get(i, k) * y[k];
        }
        y[i] = acc / l.get(i, i);
    }
    // Back substitution: Lᵀ x = y.
    let mut x = Vector::zeros(n);
    for i in (0..n).rev() {
        let mut acc = y[i];
        for k in (i + 1)..n {
            acc -= l.get(k, i) * x[k];
        }
        x[i] = acc / l.get(i, i);
    }
    Ok(x)
}

/// Thin Householder QR factorization, returning `(Q, R)` with `Q` of shape
/// `m × n` (orthonormal columns) and `R` upper-triangular `n × n`.
///
/// # Errors
///
/// Returns [`LinalgError::Dimension`] when `m < n`.
#[expect(
    clippy::needless_range_loop,
    reason = "the Householder vector v and the factors R/Q are traversed over the same row range k..m"
)]
fn householder_qr(a: &Matrix) -> Result<(Matrix, Matrix), LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if m < n {
        return Err(LinalgError::Dimension {
            expected: format!("at least {n} rows"),
            actual: format!("{m} rows"),
        });
    }
    let mut r = a.clone();
    // Accumulate Q explicitly as an m×m product of reflectors applied to I,
    // truncated to the first n columns at the end.
    let mut q = Matrix::identity(m);

    for k in 0..n {
        // Build the Householder vector for column k of the trailing block.
        let mut norm_sq = 0.0;
        for i in k..m {
            norm_sq += r.get(i, k) * r.get(i, k);
        }
        let norm = norm_sq.sqrt();
        if norm < SINGULAR_TOL {
            continue; // Column already zero below the diagonal.
        }
        let alpha = if r.get(k, k) >= 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m];
        v[k] = r.get(k, k) - alpha;
        for i in (k + 1)..m {
            v[i] = r.get(i, k);
        }
        let v_norm_sq: f64 = v.iter().map(|x| x * x).sum();
        if v_norm_sq < SINGULAR_TOL * SINGULAR_TOL {
            continue;
        }

        // Apply H = I − 2vvᵀ/‖v‖² to R (columns k..n).
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * r.get(i, j);
            }
            let factor = 2.0 * dot / v_norm_sq;
            for i in k..m {
                r.set(i, j, r.get(i, j) - factor * v[i]);
            }
        }
        // Apply H to Q from the right: Q ← Q·H.
        for i in 0..m {
            let mut dot = 0.0;
            for l in k..m {
                dot += q.get(i, l) * v[l];
            }
            let factor = 2.0 * dot / v_norm_sq;
            for l in k..m {
                q.set(i, l, q.get(i, l) - factor * v[l]);
            }
        }
    }

    // Thin factors.
    let q_thin = Matrix::from_fn(m, n, |i, j| q.get(i, j));
    let r_thin = Matrix::from_fn(n, n, |i, j| if j >= i { r.get(i, j) } else { 0.0 });
    Ok((q_thin, r_thin))
}

/// Solves the least-squares problem `min_x ‖A x − b‖` for a full-column-rank
/// `A` (possibly overdetermined) via Householder QR.
///
/// This computes the regression minimizers `x_S = (A_SᵀA_S)⁻¹A_SᵀB_S` of
/// Appendix J without explicitly forming the normal equations.
///
/// # Errors
///
/// Returns [`LinalgError::Dimension`] for shape mismatches and
/// [`LinalgError::Singular`] when `A` is (numerically) rank-deficient.
pub fn least_squares(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    if b.dim() != a.rows() {
        return Err(LinalgError::Dimension {
            expected: format!("dim {}", a.rows()),
            actual: format!("dim {}", b.dim()),
        });
    }
    let (q, r) = householder_qr(a)?;
    let n = a.cols();
    for i in 0..n {
        if r.get(i, i).abs() < SINGULAR_TOL {
            return Err(LinalgError::Singular);
        }
    }
    // x = R⁻¹ Qᵀ b via back substitution.
    let qtb = q.matvec_t(b)?;
    let mut x = Vector::zeros(n);
    for i in (0..n).rev() {
        let mut acc = qtb[i];
        for j in (i + 1)..n {
            acc -= r.get(i, j) * x[j];
        }
        x[i] = acc / r.get(i, i);
    }
    Ok(x)
}

/// Numerical rank of `A` (number of QR diagonal entries above `tol`).
///
/// Appendix J's 2f-redundancy argument rests on every stack `A_S` with
/// `|S| ≥ n − 2f` having full column rank.
///
/// # Errors
///
/// Returns [`LinalgError::Dimension`] when `A` has more columns than rows.
pub fn rank(a: &Matrix, tol: f64) -> Result<usize, LinalgError> {
    let (_, r) = householder_qr(a)?;
    Ok((0..a.cols()).filter(|&i| r.get(i, i).abs() > tol).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x_true = Vector::from(vec![1.0, -2.0]);
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::from(vec![2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&Vector::from(vec![3.0, 2.0]), 1e-12));
    }

    #[test]
    fn solve_rejects_bad_inputs() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &Vector::zeros(2)),
            Err(LinalgError::NotSquare { .. })
        ));
        let sq = Matrix::identity(2);
        assert!(matches!(
            solve(&sq, &Vector::zeros(3)),
            Err(LinalgError::Dimension { .. })
        ));
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            solve(&singular, &Vector::zeros(2)),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn determinant_matches_formula() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((determinant(&a).unwrap() - (-2.0)).abs() < 1e-12);
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(determinant(&singular).unwrap(), 0.0);
        assert!((determinant(&Matrix::identity(4)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_under_permutation() {
        // Swapping rows of the identity flips the sign.
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((determinant(&p).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn cholesky_round_trips() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn solve_spd_matches_general_solver() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0]);
        let x1 = solve(&a, &b).unwrap();
        let x2 = solve_spd(&a, &b).unwrap();
        assert!(x1.approx_eq(&x2, 1e-12));
    }

    #[test]
    fn qr_orthonormal_and_reconstructs() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let (q, r) = householder_qr(&a).unwrap();
        // QᵀQ = I.
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(2), 1e-10));
        // QR = A.
        let back = q.matmul(&r).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
        // R upper triangular.
        assert_eq!(r.get(1, 0), 0.0);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0], &[4.0, 1.0]]).unwrap();
        let b = Vector::from(vec![2.9, 5.1, 7.2, 8.8]);
        let x_qr = least_squares(&a, &b).unwrap();
        let x_ne = solve_spd(&a.gram(), &a.matvec_t(&b).unwrap()).unwrap();
        assert!(x_qr.approx_eq(&x_ne, 1e-9));
    }

    #[test]
    fn least_squares_exact_fit() {
        // Consistent system: residual must vanish.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x_true = Vector::from(vec![2.0, -1.0]);
        let b = a.matvec(&x_true).unwrap();
        let x = least_squares(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn least_squares_rejects_rank_deficient() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert!(matches!(
            least_squares(&a, &Vector::zeros(3)),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn rank_detects_deficiency() {
        let full = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert_eq!(rank(&full, 1e-9).unwrap(), 2);
        let deficient = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert_eq!(rank(&deficient, 1e-9).unwrap(), 1);
    }

    #[test]
    fn qr_rejects_wide_matrices() {
        let wide = Matrix::zeros(2, 3);
        assert!(householder_qr(&wide).is_err());
    }
}
