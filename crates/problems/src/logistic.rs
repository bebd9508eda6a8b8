//! Regularized logistic-regression costs.
//!
//! Used by extension experiments: a differentiable, strongly convex (thanks
//! to the L2 term) cost family beyond the paper's quadratics, exercising the
//! DGD + gradient-filter machinery on a non-quadratic landscape.

use crate::cost::CostFunction;
use crate::error::ProblemError;
use abft_linalg::{rowops, Matrix, Vector};

/// Binary logistic regression with L2 regularization:
///
/// `Q(x) = (1/m)·Σ_k log(1 + exp(−y_k ⟨z_k, x⟩)) + (reg/2)·‖x‖²`
///
/// with features `z_k ∈ ℝᵈ` and labels `y_k ∈ {−1, +1}`.
///
/// The gradient is `(1/m)·Σ_k −y_k·σ(−y_k⟨z_k,x⟩)·z_k + reg·x` where `σ` is
/// the logistic sigmoid. The cost is `reg`-strongly convex and has
/// `(λ_max(ZᵀZ)/(4m) + reg)`-Lipschitz gradients.
#[derive(Debug, Clone)]
pub struct LogisticCost {
    features: Matrix,
    labels: Vec<f64>,
    reg: f64,
}

impl LogisticCost {
    /// Creates the cost from a feature matrix (one row per sample), ±1
    /// labels, and a regularization strength.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Shape`] when the label count mismatches the
    /// row count, a label is not ±1, `reg < 0`, or there are no samples.
    pub fn new(features: Matrix, labels: Vec<f64>, reg: f64) -> Result<Self, ProblemError> {
        if features.rows() == 0 {
            return Err(ProblemError::Shape {
                expected: "at least one sample".into(),
                actual: "0 samples".into(),
            });
        }
        if labels.len() != features.rows() {
            return Err(ProblemError::Shape {
                expected: format!("{} labels", features.rows()),
                actual: format!("{} labels", labels.len()),
            });
        }
        if labels.iter().any(|&y| y != 1.0 && y != -1.0) {
            return Err(ProblemError::Shape {
                expected: "labels in {-1, +1}".into(),
                actual: "other label values".into(),
            });
        }
        if reg < 0.0 {
            return Err(ProblemError::Shape {
                expected: "reg >= 0".into(),
                actual: format!("reg = {reg}"),
            });
        }
        Ok(LogisticCost {
            features,
            labels,
            reg,
        })
    }

    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.features.rows()
    }

    /// `log(1 + exp(t))` computed without overflow.
    fn log1p_exp(t: f64) -> f64 {
        if t > 0.0 {
            t + (1.0 + (-t).exp()).ln()
        } else {
            (1.0 + t.exp()).ln()
        }
    }

    /// The logistic sigmoid `1/(1 + exp(−t))` computed without overflow.
    fn sigmoid(t: f64) -> f64 {
        if t >= 0.0 {
            1.0 / (1.0 + (-t).exp())
        } else {
            let e = t.exp();
            e / (1.0 + e)
        }
    }
}

impl CostFunction for LogisticCost {
    fn dim(&self) -> usize {
        self.features.cols()
    }

    // LINT-ALLOW(panic-reach): `k` enumerates `0..samples()`, and labels
    // and feature rows share that length by construction.
    fn value(&self, x: &Vector) -> f64 {
        let m = self.samples() as f64;
        let mut total = 0.0;
        for k in 0..self.samples() {
            let margin = self.labels[k] * self.features.row_vector(k).dot(x);
            total += Self::log1p_exp(-margin);
        }
        total / m + 0.5 * self.reg * x.norm_sq()
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        let m = self.samples() as f64;
        for (slot, xi) in out.iter_mut().zip(x.iter()) {
            *slot = xi * self.reg;
        }
        // One feature row per label, by construction.
        for (k, &y) in self.labels.iter().enumerate() {
            let z = self.features.row(k);
            let margin = y * rowops::dot(z, x.as_slice());
            // d/dx log(1+exp(−y⟨z,x⟩)) = −y σ(−y⟨z,x⟩) z.
            let weight = -y * Self::sigmoid(-margin) / m;
            for (slot, zj) in out.iter_mut().zip(z) {
                *slot += weight * zj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::finite_difference_gradient;

    fn toy_cost() -> LogisticCost {
        let features =
            Matrix::from_rows(&[&[1.0, 0.2], &[0.9, -0.1], &[-1.1, 0.3], &[-0.8, -0.4]]).unwrap();
        let labels = vec![1.0, 1.0, -1.0, -1.0];
        LogisticCost::new(features, labels, 0.1).unwrap()
    }

    #[test]
    fn construction_validates() {
        let f = Matrix::identity(2);
        assert!(LogisticCost::new(f.clone(), vec![1.0], 0.1).is_err()); // label count
        assert!(LogisticCost::new(f.clone(), vec![1.0, 0.5], 0.1).is_err()); // label values
        assert!(LogisticCost::new(f.clone(), vec![1.0, -1.0], -0.1).is_err()); // negative reg
        assert!(LogisticCost::new(f, vec![1.0, -1.0], 0.1).is_ok());
        assert!(LogisticCost::new(Matrix::zeros(0, 2), vec![], 0.1).is_err()); // empty
    }

    #[test]
    fn value_at_zero_is_log_two_plus_reg() {
        let cost = toy_cost();
        let x = Vector::zeros(2);
        // Each term is log 2 at x = 0; regularizer vanishes.
        assert!((cost.value(&x) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let cost = toy_cost();
        for probe in [
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![1.5, -0.7]),
            Vector::from(vec![-20.0, 30.0]), // stresses the overflow-safe forms
        ] {
            let fd = finite_difference_gradient(&cost, &probe, 1e-6);
            let analytic = cost.gradient(&probe);
            assert!(
                fd.approx_eq(&analytic, 1e-5),
                "fd {fd} vs analytic {analytic} at {probe}"
            );
        }
    }

    #[test]
    fn descent_reduces_value() {
        let cost = toy_cost();
        let mut x = Vector::zeros(2);
        let v0 = cost.value(&x);
        for _ in 0..200 {
            let g = cost.gradient(&x);
            x.axpy(-0.5, &g);
        }
        let v1 = cost.value(&x);
        assert!(v1 < v0, "descent failed: {v0} -> {v1}");
        // The separable toy data should be classified correctly.
        assert!(x[0] > 0.0);
    }

    #[test]
    fn overflow_safe_helpers() {
        assert!((LogisticCost::log1p_exp(1000.0) - 1000.0).abs() < 1e-9);
        assert!(LogisticCost::log1p_exp(-1000.0).abs() < 1e-9);
        assert!((LogisticCost::sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(LogisticCost::sigmoid(-1000.0).abs() < 1e-12);
        assert!((LogisticCost::sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
