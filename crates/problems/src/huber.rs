//! Huber-loss regression costs.
//!
//! A smooth (Lipschitz-gradient) but only weakly convex family used by
//! extension experiments — it violates Assumption 3 globally, which lets the
//! test suite probe how the DGD + filter machinery degrades when strong
//! convexity holds only near the minimizer.

use crate::cost::CostFunction;
use crate::error::ProblemError;
use abft_linalg::Vector;

/// Huber regression cost for one data row:
///
/// `Q(x) = ρ_δ(B − A·x)` with
/// `ρ_δ(r) = r²/2` for `|r| ≤ δ`, and `δ(|r| − δ/2)` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct HuberCost {
    row: Vector,
    observation: f64,
    delta: f64,
}

impl HuberCost {
    /// Creates the cost from a data row, observation, and transition width.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Shape`] when `delta <= 0`.
    pub fn new(row: Vector, observation: f64, delta: f64) -> Result<Self, ProblemError> {
        if delta <= 0.0 {
            return Err(ProblemError::Shape {
                expected: "delta > 0".into(),
                actual: format!("delta = {delta}"),
            });
        }
        Ok(HuberCost {
            row,
            observation,
            delta,
        })
    }

    /// The Huber function `ρ_δ`.
    fn rho(&self, r: f64) -> f64 {
        if r.abs() <= self.delta {
            0.5 * r * r
        } else {
            self.delta * (r.abs() - 0.5 * self.delta)
        }
    }

    /// The derivative `ρ'_δ` (the clipped residual).
    fn rho_prime(&self, r: f64) -> f64 {
        r.clamp(-self.delta, self.delta)
    }
}

impl CostFunction for HuberCost {
    fn dim(&self) -> usize {
        self.row.dim()
    }

    fn value(&self, x: &Vector) -> f64 {
        self.rho(self.observation - self.row.dot(x))
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        let r = self.observation - self.row.dot(x);
        // d/dx ρ(B − A·x) = −ρ'(r)·A.
        let factor = -self.rho_prime(r);
        for (slot, a) in out.iter_mut().zip(self.row.iter()) {
            *slot = a * factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::finite_difference_gradient;

    #[test]
    fn construction_validates_delta() {
        assert!(HuberCost::new(Vector::ones(2), 0.0, 0.0).is_err());
        assert!(HuberCost::new(Vector::ones(2), 0.0, -1.0).is_err());
        assert!(HuberCost::new(Vector::ones(2), 0.0, 1.0).is_ok());
    }

    #[test]
    fn quadratic_inside_linear_outside() {
        let cost = HuberCost::new(Vector::from(vec![1.0]), 0.0, 1.0).unwrap();
        // Inside: |r| = 0.5 ≤ δ, value = r²/2.
        assert!((cost.value(&Vector::from(vec![0.5])) - 0.125).abs() < 1e-12);
        // Outside: |r| = 3, value = δ(|r| − δ/2) = 2.5.
        assert!((cost.value(&Vector::from(vec![3.0])) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let cost = HuberCost::new(Vector::from(vec![0.8, -0.5]), 1.2, 0.7).unwrap();
        for probe in [
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![5.0, 5.0]),  // linear regime
            Vector::from(vec![1.0, -0.2]), // quadratic regime
        ] {
            let fd = finite_difference_gradient(&cost, &probe, 1e-6);
            assert!(fd.approx_eq(&cost.gradient(&probe), 1e-5));
        }
    }

    #[test]
    fn gradient_norm_is_bounded() {
        // Huber gradients are bounded by δ·‖A‖ regardless of x — unlike the
        // quadratic costs. This boundedness is what makes Huber interesting
        // for filter stress tests.
        let row = Vector::from(vec![0.6, 0.8]);
        let cost = HuberCost::new(row.clone(), 0.0, 2.0).unwrap();
        for scale in [1.0, 10.0, 1e6] {
            let x = Vector::from(vec![scale, scale]);
            assert!(cost.gradient(&x).norm() <= 2.0 * row.norm() + 1e-12);
        }
    }

    #[test]
    fn continuous_at_transition() {
        let cost = HuberCost::new(Vector::from(vec![1.0]), 0.0, 1.0).unwrap();
        let inside = cost.value(&Vector::from(vec![1.0 - 1e-9]));
        let outside = cost.value(&Vector::from(vec![1.0 + 1e-9]));
        assert!((inside - outside).abs() < 1e-6);
    }
}
