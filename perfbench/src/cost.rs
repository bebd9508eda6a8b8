//! The wide workloads' cost family: `Q_i(x) = ½‖x − c_i‖²`.
//!
//! The paper's regression cost is fixed at `d = 2`; the learning-side
//! shapes (`d = 10⁴`) need a cost whose gradient is one pass over `d`
//! and allocates nothing, so the filter kernels — not the gradient fill —
//! are what a wide round spends its time in. With `c_i = x* + N(0, σ²)`
//! the honest minimizer `x_H` is the honest agents' centroid, so the
//! distance `‖x_out − x_H‖` keeps its paper meaning.

use abft_linalg::rng::{fill_gaussian, seeded_rng};
use abft_linalg::Vector;
use abft_problems::{CostFunction, SharedCost};
use std::sync::Arc;

/// `Q(x) = ½‖x − center‖²`, so `∇Q(x) = x − center`.
#[derive(Debug, Clone)]
pub struct IsotropicCost {
    center: Vec<f64>,
}

impl IsotropicCost {
    pub fn new(center: Vec<f64>) -> Self {
        IsotropicCost { center }
    }
}

// Iterator-only bodies (no indexing, no unwrap, no assert): the impl is
// reachable from the drivers' hot loops through trait dispatch, which is
// what the repository's `abft-lint` panic-reach rule follows.
impl CostFunction for IsotropicCost {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn value(&self, x: &Vector) -> f64 {
        0.5 * x
            .iter()
            .zip(&self.center)
            .map(|(xi, ci)| (xi - ci) * (xi - ci))
            .sum::<f64>()
    }

    fn gradient(&self, x: &Vector) -> Vector {
        Vector::new(x.iter().zip(&self.center).map(|(xi, ci)| xi - ci).collect())
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        for ((o, xi), ci) in out.iter_mut().zip(x.iter()).zip(&self.center) {
            *o = xi - ci;
        }
    }
}

/// `n` isotropic costs with centers `x* + N(0, σ²)` around `x* = 1`,
/// and the centroid of the centers of `honest` — the honest minimizer.
pub fn isotropic_problem(
    n: usize,
    dim: usize,
    sigma: f64,
    honest: std::ops::Range<usize>,
    seed: u64,
) -> (Vec<SharedCost>, Vector) {
    let mut rng = seeded_rng(seed);
    let mut x_h = vec![0.0; dim];
    let honest_count = honest.len().max(1) as f64;
    let costs = (0..n)
        .map(|i| {
            let mut center = vec![0.0; dim];
            fill_gaussian(&mut rng, &mut center, 1.0, sigma);
            if honest.contains(&i) {
                for (acc, c) in x_h.iter_mut().zip(&center) {
                    *acc += c / honest_count;
                }
            }
            Arc::new(IsotropicCost::new(center)) as SharedCost
        })
        .collect();
    (costs, Vector::new(x_h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_problems::cost::finite_difference_gradient;

    #[test]
    fn gradient_matches_finite_differences_and_gradient_into() {
        let cost = IsotropicCost::new(vec![1.0, -2.0, 0.5]);
        let x = Vector::new(vec![0.3, 0.1, -0.7]);
        let g = cost.gradient(&x);
        let fd = finite_difference_gradient(&cost, &x, 1e-6);
        assert!(g.approx_eq(&fd, 1e-6));
        let mut row = [0.0; 3];
        cost.gradient_into(&x, &mut row);
        assert_eq!(row, [g[0], g[1], g[2]]);
        assert_eq!(cost.value(&Vector::new(vec![1.0, -2.0, 0.5])), 0.0);
    }

    #[test]
    fn problem_is_a_pure_function_of_the_seed() {
        let (a, xa) = isotropic_problem(5, 8, 0.1, 1..5, 11);
        let (b, xb) = isotropic_problem(5, 8, 0.1, 1..5, 11);
        let (c, xc) = isotropic_problem(5, 8, 0.1, 1..5, 12);
        let x = Vector::zeros(8);
        assert_eq!(a[2].gradient(&x), b[2].gradient(&x));
        assert_eq!(xa, xb);
        assert_ne!(a[2].gradient(&x), c[2].gradient(&x));
        assert_ne!(xa, xc);
    }

    #[test]
    fn honest_minimizer_is_the_honest_centroid() {
        let (costs, x_h) = isotropic_problem(4, 3, 0.5, 1..4, 3);
        // The honest aggregate's gradient vanishes at x_H.
        let mut total = Vector::zeros(3);
        for cost in &costs[1..] {
            total += &cost.gradient(&x_h);
        }
        assert!(total.norm() < 1e-12);
    }
}
