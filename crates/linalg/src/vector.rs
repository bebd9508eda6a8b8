//! Dense `f64` vectors.

use crate::batch::rowops;
use crate::error::LinalgError;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense vector of `f64` values.
///
/// This is the workhorse type of the workspace: estimates `x_t`, gradients
/// `g_i^t`, and filter outputs are all `Vector`s. Arithmetic is provided for
/// both owned values and references so hot loops can avoid clones.
///
/// # Example
///
/// ```
/// use abft_linalg::Vector;
///
/// let x = Vector::from(vec![3.0, 4.0]);
/// let y = Vector::from(vec![1.0, 1.0]);
/// assert_eq!(x.norm(), 5.0);
/// assert_eq!((&x - &y).as_slice(), &[2.0, 3.0]);
/// assert_eq!(x.dot(&y), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn new(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// The zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector {
            data: vec![0.0; dim],
        }
    }

    /// The all-ones vector of dimension `dim`.
    pub fn ones(dim: usize) -> Self {
        Vector {
            data: vec![1.0; dim],
        }
    }

    /// Builds a vector by evaluating `f` at each index.
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..dim).map(&mut f).collect(),
        }
    }

    /// The `i`-th standard basis vector in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut v = Self::zeros(dim);
        v.data[i] = 1.0;
        v
    }

    /// Dimension (number of entries).
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Inner product `⟨self, other⟩`: [`rowops::dot`].
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ (debug builds).
    #[inline]
    pub fn dot(&self, other: &Vector) -> f64 {
        rowops::dot(self.as_slice(), other.as_slice())
    }

    /// Squared Euclidean norm `‖self‖²`: [`rowops::norm_sq`].
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        rowops::norm_sq(self.as_slice())
    }

    /// Euclidean norm `‖self‖` — the norm used throughout the paper:
    /// [`rowops::norm`].
    #[inline]
    pub fn norm(&self) -> f64 {
        rowops::norm(self.as_slice())
    }

    /// Euclidean distance `‖self − other‖`: [`rowops::dist`].
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ (debug builds).
    #[inline]
    pub fn dist(&self, other: &Vector) -> f64 {
        rowops::dist(self.as_slice(), other.as_slice())
    }

    /// Returns `self` scaled by `factor`: [`rowops::scale`] on a copy.
    #[inline]
    pub fn scale(&self, factor: f64) -> Vector {
        let mut out = self.clone();
        rowops::scale(out.as_mut_slice(), factor);
        out
    }

    /// Adds `factor * other` in place (BLAS `axpy`): [`rowops::axpy`].
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ (debug builds).
    #[inline]
    pub fn axpy(&mut self, factor: f64, other: &Vector) {
        rowops::axpy(self.as_mut_slice(), factor, other.as_slice());
    }

    /// Clamps every entry into `[lo, hi]` in place — the projection onto
    /// the axis-aligned box `[lo, hi]^d` used as the compact set `W` in the
    /// paper's update rule (21), allocation-free for the DGD hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp_box_mut(&mut self, lo: f64, hi: f64) {
        // LINT-ALLOW(panic-reach): documented panic contract for caller bugs, not a data-dependent failure
        assert!(lo <= hi, "clamp_box requires lo <= hi");
        for a in &mut self.data {
            *a = a.clamp(lo, hi);
        }
    }

    /// Returns a unit vector in the direction of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for the zero vector.
    pub(crate) fn normalized(&self) -> Result<Vector, LinalgError> {
        let n = self.norm();
        if n == 0.0 {
            return Err(LinalgError::Singular);
        }
        Ok(self.scale(1.0 / n))
    }

    /// Sum of entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of entries.
    ///
    /// # Panics
    ///
    /// Panics on the empty vector.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty vector");
        self.sum() / self.dim() as f64
    }

    /// `true` when every entry differs from `other`'s by at most `tol`.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }

    /// Mean of a non-empty collection of equal-dimension vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `vectors` is empty and
    /// [`LinalgError::Dimension`] when dimensions are inconsistent.
    pub fn mean_of(vectors: &[Vector]) -> Result<Vector, LinalgError> {
        let mut sum = Self::sum_of(vectors)?;
        rowops::scale(sum.as_mut_slice(), 1.0 / vectors.len() as f64);
        Ok(sum)
    }

    /// Sum of a non-empty collection of equal-dimension vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `vectors` is empty and
    /// [`LinalgError::Dimension`] when dimensions are inconsistent.
    pub fn sum_of(vectors: &[Vector]) -> Result<Vector, LinalgError> {
        let first = vectors.first().ok_or(LinalgError::Empty)?;
        let mut acc = Vector::zeros(first.dim());
        for v in vectors {
            if v.dim() != first.dim() {
                return Err(LinalgError::Dimension {
                    expected: format!("dim {}", first.dim()),
                    actual: format!("dim {}", v.dim()),
                });
            }
            acc.axpy(1.0, v);
        }
        Ok(acc)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a:.6}")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_binary_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Vector> for &Vector {
            type Output = Vector;
            fn $method(self, rhs: &Vector) -> Vector {
                assert_eq!(
                    self.dim(),
                    rhs.dim(),
                    concat!(stringify!($method), " requires equal dimensions")
                );
                Vector {
                    data: self
                        .data
                        .iter()
                        .zip(rhs.data.iter())
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait<Vector> for Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                (&self).$method(&rhs)
            }
        }

        impl $trait<&Vector> for Vector {
            type Output = Vector;
            fn $method(self, rhs: &Vector) -> Vector {
                (&self).$method(rhs)
            }
        }

        impl $trait<Vector> for &Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                self.$method(&rhs)
            }
        }
    };
}

impl_binary_op!(Add, add, +);
impl_binary_op!(Sub, sub, -);

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Mul<&Vector> for f64 {
    type Output = Vector;
    fn mul(self, rhs: &Vector) -> Vector {
        rhs.scale(self)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(
            Vector::from_fn(3, |i| i as f64).as_slice(),
            &[0.0, 1.0, 2.0]
        );
        assert_eq!(Vector::basis(3, 1).as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "basis index")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
    }

    #[test]
    fn arithmetic() {
        let x = Vector::from(vec![1.0, 2.0]);
        let y = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&x + &y).as_slice(), &[4.0, 7.0]);
        assert_eq!((&y - &x).as_slice(), &[2.0, 3.0]);
        assert_eq!((&x * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((2.0 * &x).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&x).as_slice(), &[-1.0, -2.0]);
        let mut z = x.clone();
        z += &y;
        assert_eq!(z.as_slice(), &[4.0, 7.0]);
        z -= &y;
        assert_eq!(z.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn owned_op_variants() {
        let x = Vector::from(vec![1.0]);
        let y = Vector::from(vec![2.0]);
        assert_eq!((x.clone() + y.clone()).as_slice(), &[3.0]);
        assert_eq!((x.clone() + &y).as_slice(), &[3.0]);
        assert_eq!((&x + y.clone()).as_slice(), &[3.0]);
        assert_eq!((x.clone() - &y).as_slice(), &[-1.0]);
        assert_eq!((x * 3.0).as_slice(), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn add_dimension_mismatch_panics() {
        let _ = Vector::zeros(2) + Vector::zeros(3);
    }

    #[test]
    fn dot_products() {
        let x = Vector::from(vec![1.0, 2.0, 3.0]);
        let y = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(x.dot(&y), 32.0);
    }

    #[test]
    fn distances() {
        let x = Vector::from(vec![1.0, 1.0]);
        let y = Vector::from(vec![4.0, 5.0]);
        assert_eq!(x.dist(&y), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut x = Vector::from(vec![1.0, 1.0]);
        x.axpy(2.0, &Vector::from(vec![3.0, 4.0]));
        assert_eq!(x.as_slice(), &[7.0, 9.0]);
    }

    #[test]
    fn clamp_box_projects() {
        let mut x = Vector::from(vec![-2000.0, 0.5, 1500.0]);
        x.clamp_box_mut(-1000.0, 1000.0);
        assert_eq!(x.as_slice(), &[-1000.0, 0.5, 1000.0]);
    }

    #[test]
    fn normalized_unit_norm() {
        let x = Vector::from(vec![3.0, 4.0]).normalized().unwrap();
        assert!((x.norm() - 1.0).abs() < 1e-12);
        assert!(Vector::zeros(3).normalized().is_err());
    }

    #[test]
    fn aggregation_helpers() {
        let vs = vec![
            Vector::from(vec![1.0, 2.0]),
            Vector::from(vec![3.0, 4.0]),
            Vector::from(vec![5.0, 6.0]),
        ];
        assert_eq!(Vector::sum_of(&vs).unwrap().as_slice(), &[9.0, 12.0]);
        assert_eq!(Vector::mean_of(&vs).unwrap().as_slice(), &[3.0, 4.0]);
        assert!(Vector::mean_of(&[]).is_err());
        let ragged = vec![Vector::zeros(1), Vector::zeros(2)];
        assert!(Vector::sum_of(&ragged).is_err());
    }

    #[test]
    fn statistics() {
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.sum(), 6.0);
        assert_eq!(v.mean(), 2.0);
    }

    #[test]
    fn approx_eq_tolerates() {
        let x = Vector::from(vec![1.0, 2.0]);
        let y = Vector::from(vec![1.0 + 1e-12, 2.0]);
        assert!(x.approx_eq(&y, 1e-9));
        assert!(!x.approx_eq(&Vector::zeros(2), 1e-9));
        assert!(!x.approx_eq(&Vector::zeros(3), 1e9));
    }

    #[test]
    fn non_finite_detection() {
        assert!(!Vector::from(vec![1.0, 2.0]).has_non_finite());
        assert!(Vector::from(vec![f64::NAN]).has_non_finite());
        assert!(Vector::from(vec![f64::INFINITY]).has_non_finite());
    }

    #[test]
    fn indexing_and_iteration() {
        let mut v = Vector::from(vec![1.0, 2.0]);
        v[0] = 9.0;
        assert_eq!(v[0], 9.0);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![9.0, 2.0]);
    }

    #[test]
    fn display_is_bracketed() {
        let v = Vector::from(vec![1.0, -2.5]);
        assert_eq!(v.to_string(), "[1.000000, -2.500000]");
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
