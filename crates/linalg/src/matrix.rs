//! Dense row-major `f64` matrices.

use crate::batch::rowops;
use crate::error::LinalgError;
use crate::vector::Vector;
use std::fmt;

/// A dense matrix stored in row-major order.
///
/// # Example
///
/// ```
/// use abft_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), abft_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let x = Vector::from(vec![1.0, 1.0]);
/// assert_eq!(a.matvec(&x)?.as_slice(), &[3.0, 7.0]);
/// assert_eq!(a.transpose().get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Dimension`] when `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::Dimension {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// A square diagonal matrix with the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::Dimension`] for ragged rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::Dimension {
                    expected: format!("{cols} columns"),
                    actual: format!("{} columns", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by stacking row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::Dimension`] for inconsistent dimensions.
    pub fn from_row_vectors(rows: &[Vector]) -> Result<Self, LinalgError> {
        let slices: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Self::from_rows(&slices)
    }

    /// Builds a matrix by evaluating `f` at each `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    // LINT-ALLOW(panic-reach): the assert bounds both indices, so the flat
    // index below it stays inside `data`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    // LINT-ALLOW(panic-reach): the assert bounds both indices, so the flat
    // index below it stays inside `data`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    // LINT-ALLOW(panic-reach): the assert bounds `i`, so the slice
    // arithmetic below it stays inside `data`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy row `i` into a [`Vector`].
    pub fn row_vector(&self, i: usize) -> Vector {
        Vector::from(self.row(i))
    }

    /// Copy column `j` into a [`Vector`] (the tests' view of a column).
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of bounds.
    #[cfg(test)]
    pub(crate) fn col_vector(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index out of bounds");
        Vector::from_fn(self.rows, |i| self.get(i, j))
    }

    /// Borrow the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage (the shape is fixed).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix product `A · B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Dimension`] when inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::Dimension {
                expected: format!("{} rows", self.cols),
                actual: format!("{} rows", other.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `A · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Dimension`] when `x.dim() != cols`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector, LinalgError> {
        if x.dim() != self.cols {
            return Err(LinalgError::Dimension {
                expected: format!("dim {}", self.cols),
                actual: format!("dim {}", x.dim()),
            });
        }
        Ok(Vector::from_fn(self.rows, |i| {
            self.row(i).iter().zip(x.iter()).map(|(a, b)| a * b).sum()
        }))
    }

    /// Transposed matrix-vector product `Aᵀ · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Dimension`] when `x.dim() != rows`.
    pub fn matvec_t(&self, x: &Vector) -> Result<Vector, LinalgError> {
        if x.dim() != self.rows {
            return Err(LinalgError::Dimension {
                expected: format!("dim {}", self.rows),
                actual: format!("dim {}", x.dim()),
            });
        }
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            for j in 0..self.cols {
                out[j] += self.get(i, j) * xi;
            }
        }
        Ok(out)
    }

    /// The Gram matrix `AᵀA` — used for the normal equations and for the
    /// convexity constants of Appendix J.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for k in 0..self.rows {
            let row = self.row(k);
            for i in 0..self.cols {
                for j in i..self.cols {
                    let v = row[i] * row[j];
                    out.data[i * self.cols + j] += v;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                out.data[i * self.cols + j] = out.data[j * self.cols + i];
            }
        }
        out
    }

    /// Returns `self` scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * factor).collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Dimension`] for shape mismatches.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::Dimension {
                expected: format!("{}x{}", self.rows, self.cols),
                actual: format!("{}x{}", other.rows, other.cols),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Dimension`] for shape mismatches.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.add(&other.scale(-1.0))
    }

    /// Frobenius norm.
    pub(crate) fn frobenius_norm(&self) -> f64 {
        rowops::norm(&self.data)
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).sum())
    }

    /// `true` when `self` and `other` agree entry-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// `true` when the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the sub-matrix formed by the given row indices (in order).
    ///
    /// This is how per-subset stacks `A_S` are formed from the full data
    /// matrix `A` in Appendix J.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(indices.len(), self.cols, |i, j| self.get(indices[i], j))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Matrix::new(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::new(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.get(0, 0), 1.0);
        assert_eq!(i3.get(0, 1), 0.0);
        assert_eq!(i3.trace().unwrap(), 3.0);
        let d = Matrix::diagonal(&[2.0, 5.0]);
        assert_eq!(d.get(1, 1), 5.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert!(m.is_square());
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.row_vector(0).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.col_vector(1).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(0, 1), 3.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
        assert!(a.matmul(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = sample();
        let x = Vector::from(vec![1.0, -1.0]);
        assert_eq!(a.matvec(&x).unwrap().as_slice(), &[-1.0, -1.0]);
        assert!(a.matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let x = Vector::from(vec![1.0, 1.0, 1.0]);
        let direct = a.matvec_t(&x).unwrap();
        let via_transpose = a.transpose().matvec(&x).unwrap();
        assert!(direct.approx_eq(&via_transpose, 1e-12));
    }

    #[test]
    fn gram_is_a_transpose_a() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&expected, 1e-12));
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn elementwise_operations() {
        let a = sample();
        let b = Matrix::identity(2);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(0, 0), 2.0);
        let diff = sum.sub(&b).unwrap();
        assert!(diff.approx_eq(&a, 1e-12));
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
        assert_eq!(a.scale(2.0).get(1, 1), 8.0);
    }

    #[test]
    fn norms_and_trace() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.trace().unwrap(), 7.0);
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn symmetry_detection() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn select_rows_builds_subset_stack() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]).unwrap();
        let sub = a.select_rows(&[2, 0]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), &[2.0, 2.0]);
        assert_eq!(sub.row(1), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(2, 0);
    }

    #[test]
    fn display_is_row_per_line() {
        let text = sample().to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("[1.000000, 2.000000]"));
    }

    #[test]
    fn from_fn_and_from_row_vectors() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        let rows = vec![Vector::from(vec![1.0]), Vector::from(vec![2.0])];
        let m = Matrix::from_row_vectors(&rows).unwrap();
        assert_eq!(m.col_vector(0).as_slice(), &[1.0, 2.0]);
    }
}
