//! Quadratic cost families.
//!
//! The paper's numerical experiments (Section 5 / Appendix J) use the scalar
//! regression cost `Q_i(x) = (B_i − A_i x)²` with a row vector `A_i` and a
//! scalar observation `B_i`. [`ScalarRegressionCost`] implements exactly
//! that; [`QuadraticCost`] is the general PSD quadratic
//! `½ xᵀP x + qᵀx + c` used by tests and extension experiments.

use crate::cost::CostFunction;
use crate::error::ProblemError;
use abft_linalg::{rowops, Matrix, Vector};

/// An agent's regression cost `Q_i(x) = (B_i − A_i x)²` (Appendix J).
///
/// The gradient is `∇Q_i(x) = 2 A_iᵀ (A_i x − B_i)`. Note the factor 2: the
/// paper's Section 5 reports the smoothness constant `µ = 2` for unit-norm
/// rows, consistent with this calculus convention (Appendix J's `µ = 1`
/// drops the factor; the code follows Section 5).
///
/// # Example
///
/// ```
/// use abft_problems::{CostFunction, ScalarRegressionCost};
/// use abft_linalg::Vector;
///
/// let cost = ScalarRegressionCost::new(Vector::from(vec![1.0, 0.0]), 0.9108);
/// let x = Vector::from(vec![1.0, 1.0]);
/// // (0.9108 − 1.0)² = 0.00795664
/// assert!((cost.value(&x) - 0.00795664).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarRegressionCost {
    row: Vector,
    observation: f64,
}

impl ScalarRegressionCost {
    /// Creates the cost from the agent's data row `A_i` and observation `B_i`.
    pub fn new(row: Vector, observation: f64) -> Self {
        ScalarRegressionCost { row, observation }
    }

    /// The data row `A_i`.
    pub fn row(&self) -> &Vector {
        &self.row
    }

    /// The observation `B_i`.
    pub fn observation(&self) -> f64 {
        self.observation
    }

    /// The residual `B_i − A_i x`.
    pub fn residual(&self, x: &Vector) -> f64 {
        self.observation - self.row.dot(x)
    }

    /// Smoothness (gradient Lipschitz) constant of this single cost:
    /// `2‖A_i‖² = 2·λ_max(A_iᵀA_i)`.
    pub fn smoothness(&self) -> f64 {
        2.0 * self.row.norm_sq()
    }
}

impl CostFunction for ScalarRegressionCost {
    fn dim(&self) -> usize {
        self.row.dim()
    }

    fn value(&self, x: &Vector) -> f64 {
        let r = self.residual(x);
        r * r
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        // ∇(B − A·x)² = −2(B − A·x)·A = 2(A·x − B)·A — the gradient the
        // paper's regression experiments compute n times per DGD round.
        let factor = -2.0 * self.residual(x);
        for (slot, a) in out.iter_mut().zip(self.row.iter()) {
            *slot = a * factor;
        }
    }
}

/// A general convex quadratic `Q(x) = ½ xᵀP x + qᵀx + c` with symmetric
/// positive-semidefinite `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticCost {
    p: Matrix,
    q: Vector,
    c: f64,
}

impl QuadraticCost {
    /// Creates the quadratic from its coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Shape`] when `P` is not square of the same
    /// dimension as `q`, or not symmetric.
    pub fn new(p: Matrix, q: Vector, c: f64) -> Result<Self, ProblemError> {
        if !p.is_square() || p.rows() != q.dim() {
            return Err(ProblemError::Shape {
                expected: format!("square P matching q (dim {})", q.dim()),
                actual: format!("{}x{} P", p.rows(), p.cols()),
            });
        }
        if !p.is_symmetric(1e-9) {
            return Err(ProblemError::Shape {
                expected: "symmetric P".to_string(),
                actual: "asymmetric P".to_string(),
            });
        }
        Ok(QuadraticCost { p, q, c })
    }
}

impl CostFunction for QuadraticCost {
    fn dim(&self) -> usize {
        self.q.dim()
    }

    // LINT-ALLOW(panic-reach): `matvec` only errs on a dimension mismatch,
    // which the constructor rules out.
    fn value(&self, x: &Vector) -> f64 {
        0.5 * x.dot(&self.p.matvec(x).expect("dimension checked at construction"))
            + self.q.dot(x)
            + self.c
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        // P·x + q, one row of `P` at a time (`Matrix::matvec`'s order);
        // the constructor checked that `P` has `q.dim()` rows.
        for (i, (slot, qi)) in out.iter_mut().zip(self.q.iter()).enumerate() {
            *slot = rowops::dot(self.p.row(i), x.as_slice()) + qi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::finite_difference_gradient;
    use abft_linalg::solve_spd;

    #[test]
    fn regression_cost_value_and_gradient() {
        let cost = ScalarRegressionCost::new(Vector::from(vec![0.8, 0.5]), 1.3349);
        let x = Vector::from(vec![1.0, 1.0]);
        // residual = 1.3349 − 1.3 = 0.0349
        assert!((cost.residual(&x) - 0.0349).abs() < 1e-12);
        assert!((cost.value(&x) - 0.0349f64.powi(2)).abs() < 1e-12);
        let fd = finite_difference_gradient(&cost, &x, 1e-6);
        assert!(fd.approx_eq(&cost.gradient(&x), 1e-6));
    }

    #[test]
    fn regression_gradient_vanishes_at_exact_fit() {
        let cost = ScalarRegressionCost::new(Vector::from(vec![2.0, -1.0]), 3.0);
        // A·x = 2·2 − 1·1 = 3 = B.
        let x = Vector::from(vec![2.0, 1.0]);
        assert_eq!(cost.value(&x), 0.0);
        assert!(cost.gradient(&x).norm() < 1e-12);
    }

    #[test]
    fn regression_smoothness_is_twice_row_norm_sq() {
        let cost = ScalarRegressionCost::new(Vector::from(vec![1.0, 0.0]), 0.0);
        assert_eq!(cost.smoothness(), 2.0);
        let cost = ScalarRegressionCost::new(Vector::from(vec![0.8, 0.5]), 0.0);
        assert!((cost.smoothness() - 2.0 * 0.89).abs() < 1e-12);
    }

    #[test]
    fn regression_gradient_is_lipschitz_with_smoothness() {
        let cost = ScalarRegressionCost::new(Vector::from(vec![0.5, 0.8]), 1.0);
        let x = Vector::from(vec![0.2, -0.4]);
        let y = Vector::from(vec![-1.0, 2.0]);
        let lhs = (&cost.gradient(&x) - &cost.gradient(&y)).norm();
        let rhs = cost.smoothness() * (&x - &y).norm();
        assert!(lhs <= rhs + 1e-12);
    }

    #[test]
    fn gradient_into_matches_gradient() {
        let cost = ScalarRegressionCost::new(Vector::from(vec![0.8, 0.5]), 1.3349);
        let x = Vector::from(vec![1.0, -0.3]);
        let mut out = [0.0; 2];
        cost.gradient_into(&x, &mut out);
        assert_eq!(out, cost.gradient(&x).as_slice());
        let p = Matrix::identity(2).scale(2.0);
        let q = QuadraticCost::new(p, Vector::from(vec![-2.0, -4.0]), 5.0).unwrap();
        let mut out = [0.0; 2];
        q.gradient_into(&x, &mut out);
        assert_eq!(out, q.gradient(&x).as_slice());
    }

    #[test]
    fn quadratic_construction_validates() {
        let p = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]).unwrap();
        assert!(QuadraticCost::new(p.clone(), Vector::zeros(2), 0.0).is_ok());
        assert!(QuadraticCost::new(p.clone(), Vector::zeros(3), 0.0).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        assert!(QuadraticCost::new(asym, Vector::zeros(2), 0.0).is_err());
    }

    #[test]
    fn quadratic_gradient_matches_finite_difference() {
        let p = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let cost = QuadraticCost::new(p, Vector::from(vec![-1.0, 0.5]), 2.0).unwrap();
        let x = Vector::from(vec![0.7, -0.3]);
        let fd = finite_difference_gradient(&cost, &x, 1e-6);
        assert!(fd.approx_eq(&cost.gradient(&x), 1e-5));
    }

    #[test]
    fn quadratic_minimizer_zeroes_gradient() {
        let p = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let q = Vector::from(vec![1.0, -2.0]);
        // The unique minimizer `−P⁻¹q` (`P` is positive definite).
        let xmin = solve_spd(&p, &q.scale(-1.0)).unwrap();
        let cost = QuadraticCost::new(p, q, 0.0).unwrap();
        assert!(cost.gradient(&xmin).norm() < 1e-10);
        // Any perturbation increases the value.
        let perturbed = &xmin + &Vector::from(vec![0.1, -0.1]);
        assert!(cost.value(&perturbed) > cost.value(&xmin));
    }
}
