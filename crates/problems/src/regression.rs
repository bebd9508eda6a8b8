//! Distributed linear regression problems, including the paper's exact
//! Appendix-J instance and a generator for random instances with
//! redundancy-by-construction.

use crate::cost::SharedCost;
use crate::error::ProblemError;
use crate::quadratic::ScalarRegressionCost;
use abft_core::subsets::KSubsets;
use abft_core::SystemConfig;
use abft_linalg::rng::{gaussian_vector, random_unit_vector, seeded_rng};
use abft_linalg::solve::rank;
use abft_linalg::{least_squares, Matrix, Vector};
use std::sync::Arc;

/// Retry budget for random instance generation.
const GENERATION_ATTEMPTS: usize = 32;

/// A distributed linear regression problem: agent `i` holds the row `A_i`
/// and observation `B_i`, and its cost is `Q_i(x) = (B_i − A_i x)²`.
///
/// # Example
///
/// ```
/// use abft_problems::RegressionProblem;
///
/// # fn main() -> Result<(), abft_problems::ProblemError> {
/// let p = RegressionProblem::paper_instance();
/// assert_eq!(p.config().n(), 6);
/// assert_eq!(p.dim(), 2);
/// // Every subset of ≥ n−2f = 4 agents has a full-rank stack.
/// assert!(p.all_redundancy_stacks_full_rank()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RegressionProblem {
    config: SystemConfig,
    a: Matrix,
    b: Vector,
}

impl RegressionProblem {
    /// Creates a problem from the stacked data `(A, B)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Shape`] when `A` does not have `config.n()`
    /// rows or `B` a matching length.
    pub fn new(config: SystemConfig, a: Matrix, b: Vector) -> Result<Self, ProblemError> {
        if a.rows() != config.n() || b.dim() != config.n() {
            return Err(ProblemError::Shape {
                expected: format!("{} rows in A and entries in B", config.n()),
                actual: format!("{} rows, {} entries", a.rows(), b.dim()),
            });
        }
        Ok(RegressionProblem { config, a, b })
    }

    /// The exact instance of the paper's Appendix J: `n = 6`, `d = 2`,
    /// `f = 1`, with `B = A·(1,1)ᵀ + N` for the fixed noise `N` (eq. 132).
    pub fn paper_instance() -> Self {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.8, 0.5],
            &[0.5, 0.8],
            &[0.0, 1.0],
            &[-0.5, 0.8],
            &[-0.8, 0.5],
        ])
        .expect("paper matrix is well-formed");
        let b = Vector::from(vec![0.9108, 1.3349, 1.3376, 1.0033, 0.2142, -0.3615]);
        let config = SystemConfig::new(6, 1).expect("n=6, f=1 is admissible");
        RegressionProblem { config, a, b }
    }

    /// Generates a random instance with redundancy by construction:
    /// unit-norm rows `A_i`, `B = A·x* + N(0, noise_std²)` noise, retrying
    /// until every `(n − 2f)`-subset stack has full column rank (which holds
    /// almost surely for continuous rows).
    ///
    /// With `noise_std = 0` the instance satisfies exact `2f`-redundancy:
    /// every large-enough subset recovers `x*` exactly, so the measured
    /// `(2f, ε)`-redundancy has `ε = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::GenerationFailed`] if no full-rank instance is
    /// found within the retry budget (practically impossible for `n ≥ d`),
    /// or [`ProblemError::Shape`] when `x_star.dim() != dim` or
    /// `config.redundancy_quorum() < dim`.
    pub fn random(
        config: SystemConfig,
        dim: usize,
        x_star: &Vector,
        noise_std: f64,
        seed: u64,
    ) -> Result<Self, ProblemError> {
        if x_star.dim() != dim {
            return Err(ProblemError::Shape {
                expected: format!("x_star of dim {dim}"),
                actual: format!("dim {}", x_star.dim()),
            });
        }
        if config.redundancy_quorum() < dim {
            return Err(ProblemError::Shape {
                expected: format!("n - 2f >= d = {dim} (else no subset stack can be full rank)"),
                actual: format!("n - 2f = {}", config.redundancy_quorum()),
            });
        }
        let mut rng = seeded_rng(seed);
        for attempt in 0..GENERATION_ATTEMPTS {
            let rows: Vec<Vector> = (0..config.n())
                .map(|_| random_unit_vector(&mut rng, dim))
                .collect();
            let a = Matrix::from_row_vectors(&rows).expect("consistent rows");
            let noise = gaussian_vector(&mut rng, config.n(), 0.0, noise_std);
            let b = &a.matvec(x_star).expect("dims match") + &noise;
            let candidate = RegressionProblem { config, a, b };
            if candidate.all_redundancy_stacks_full_rank()? {
                return Ok(candidate);
            }
            let _ = attempt;
        }
        Err(ProblemError::GenerationFailed {
            reason: "could not draw rows with all (n-2f)-subset stacks full rank".into(),
            attempts: GENERATION_ATTEMPTS,
        })
    }

    /// Generates a "fan" instance generalizing the paper's geometry to any
    /// `n`: the rows are unit vectors `(cos θ_i, sin θ_i)` with angles evenly
    /// spread over `[0, spread_degrees]`, and `B = A·(1,1)ᵀ + N(0, σ²)`.
    ///
    /// The paper's own 6 rows are exactly this fan with a 150° spread. The
    /// geometry balances the two theory conditions: angles spread enough for
    /// strong convexity (CGE's `α > 0`) yet coherent enough for moderate
    /// gradient diversity (CWTM's `λ` requirement). Always `d = 2`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Shape`] when `n − 2f < 2` or
    /// `spread_degrees` lies outside `(0, 180)` (beyond which rows repeat
    /// directions and subset stacks can degenerate).
    pub fn fan(
        config: SystemConfig,
        spread_degrees: f64,
        noise_std: f64,
        seed: u64,
    ) -> Result<Self, ProblemError> {
        if config.redundancy_quorum() < 2 {
            return Err(ProblemError::Shape {
                expected: "n - 2f >= d = 2".to_string(),
                actual: format!("n - 2f = {}", config.redundancy_quorum()),
            });
        }
        if !(spread_degrees > 0.0 && spread_degrees < 180.0) {
            return Err(ProblemError::Shape {
                expected: "spread in (0, 180) degrees".to_string(),
                actual: format!("{spread_degrees}"),
            });
        }
        let n = config.n();
        let rows: Vec<Vector> = (0..n)
            .map(|i| {
                let theta = if n == 1 {
                    0.0
                } else {
                    spread_degrees.to_radians() * i as f64 / (n - 1) as f64
                };
                Vector::from(vec![theta.cos(), theta.sin()])
            })
            .collect();
        let a = Matrix::from_row_vectors(&rows).expect("consistent rows");
        let mut rng = seeded_rng(seed);
        let noise = gaussian_vector(&mut rng, n, 0.0, noise_std);
        let x_star = Vector::from(vec![1.0, 1.0]);
        let b = &a.matvec(&x_star).expect("dims match") + &noise;
        Ok(RegressionProblem { config, a, b })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Decision dimension `d`.
    pub fn dim(&self) -> usize {
        self.a.cols()
    }

    /// The stacked data matrix `A` (one row per agent).
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// The stacked observations `B`.
    pub fn observations(&self) -> &Vector {
        &self.b
    }

    /// Agent `i`'s cost `Q_i(x) = (B_i − A_i x)²`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= n`.
    // LINT-ALLOW(panic-reach): documented panic contract — the assert
    // bounds `i` before the row and label lookups.
    pub fn agent_cost(&self, i: usize) -> ScalarRegressionCost {
        assert!(i < self.config.n(), "agent index out of range");
        ScalarRegressionCost::new(self.a.row_vector(i), self.b[i])
    }

    /// All agents' costs as shareable handles.
    pub fn costs(&self) -> Vec<SharedCost> {
        (0..self.config.n())
            .map(|i| Arc::new(self.agent_cost(i)) as SharedCost)
            .collect()
    }

    /// The unique minimizer `x_S = argmin Σ_{i∈S}(B_i − A_i x)²` of a subset
    /// aggregate, via least squares on the stack `(A_S, B_S)` (eq. 137).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Linalg`] when the stack is rank-deficient
    /// (subset too small or degenerate).
    pub fn subset_minimizer(&self, subset: &[usize]) -> Result<Vector, ProblemError> {
        let a_s = self.a.select_rows(subset);
        let b_s = Vector::from_fn(subset.len(), |k| self.b[subset[k]]);
        Ok(least_squares(&a_s, &b_s)?)
    }

    /// Aggregate loss `Σ_{i∈subset} (B_i − A_i x)² = ‖B_S − A_S x‖²`.
    pub fn subset_loss(&self, subset: &[usize], x: &Vector) -> f64 {
        subset
            .iter()
            .map(|&i| {
                let r = self.b[i] - self.a.row_vector(i).dot(x);
                r * r
            })
            .sum()
    }

    /// Checks that every subset of size ≥ `n − 2f` yields a full-column-rank
    /// stack `A_S` — the rank condition (eq. 135) under which all subset
    /// minimizers are unique.
    ///
    /// It suffices to check the subsets of size exactly `n − 2f`: adding
    /// rows never reduces rank.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::Linalg`] if a rank computation fails (stack
    /// with fewer rows than columns).
    pub fn all_redundancy_stacks_full_rank(&self) -> Result<bool, ProblemError> {
        let k = self.config.redundancy_quorum();
        if k < self.dim() {
            return Ok(false);
        }
        for subset in KSubsets::new(self.config.n(), k) {
            let a_s = self.a.select_rows(&subset);
            if rank(&a_s, 1e-9)? < self.dim() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;

    #[test]
    fn paper_instance_shape() {
        let p = RegressionProblem::paper_instance();
        assert_eq!(p.config().n(), 6);
        assert_eq!(p.config().f(), 1);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.costs().len(), 6);
    }

    #[test]
    fn paper_observations_decompose_as_ax_plus_noise() {
        // Eq. 132: B = A·x* + N with x* = (1, 1)ᵀ and the paper's fixed N.
        let p = RegressionProblem::paper_instance();
        let noise = Vector::from(vec![-0.0892, 0.0349, 0.0376, 0.0033, -0.0858, -0.0615]);
        let reconstructed = &p.matrix().matvec(&Vector::ones(2)).unwrap() + &noise;
        assert!(reconstructed.approx_eq(p.observations(), 1e-12));
    }

    #[test]
    fn paper_honest_minimizer_matches_reported_value() {
        let p = RegressionProblem::paper_instance();
        // H = {2,…,6} in the paper's 1-based indexing = {1,…,5} here.
        let x_h = p.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        assert!(
            (x_h[0] - 1.0780).abs() < 5e-4,
            "x_H[0] = {} vs paper 1.0780",
            x_h[0]
        );
        assert!(
            (x_h[1] - 0.9825).abs() < 5e-4,
            "x_H[1] = {} vs paper 0.9825",
            x_h[1]
        );
    }

    #[test]
    fn paper_rank_condition_holds() {
        let p = RegressionProblem::paper_instance();
        assert!(p.all_redundancy_stacks_full_rank().unwrap());
    }

    #[test]
    fn agent_costs_match_subset_loss() {
        let p = RegressionProblem::paper_instance();
        let x = Vector::from(vec![0.5, -0.5]);
        let direct: f64 = (0..6).map(|i| p.agent_cost(i).value(&x)).sum();
        let via_subset = p.subset_loss(&[0, 1, 2, 3, 4, 5], &x);
        assert!((direct - via_subset).abs() < 1e-12);
    }

    #[test]
    fn subset_minimizer_zeroes_aggregate_gradient() {
        let p = RegressionProblem::paper_instance();
        let subset = vec![1, 2, 3, 4, 5];
        let x_s = p.subset_minimizer(&subset).unwrap();
        let mut grad = Vector::zeros(2);
        for &i in &subset {
            grad += &p.agent_cost(i).gradient(&x_s);
        }
        assert!(grad.norm() < 1e-9, "gradient at minimizer: {grad}");
    }

    #[test]
    fn minimizer_of_too_small_subset_fails() {
        let p = RegressionProblem::paper_instance();
        // One row cannot determine two parameters.
        assert!(p.subset_minimizer(&[0]).is_err());
    }

    #[test]
    fn construction_validates_shapes() {
        let config = SystemConfig::new(3, 1).unwrap();
        let a = Matrix::zeros(2, 2); // wrong: 2 rows for 3 agents
        assert!(RegressionProblem::new(config, a, Vector::zeros(3)).is_err());
    }

    #[test]
    fn random_instance_is_reproducible_and_full_rank() {
        let config = SystemConfig::new(8, 2).unwrap();
        let x_star = Vector::from(vec![1.0, -2.0, 0.5]);
        let p1 = RegressionProblem::random(config, 3, &x_star, 0.05, 99).unwrap();
        let p2 = RegressionProblem::random(config, 3, &x_star, 0.05, 99).unwrap();
        assert!(p1.matrix().approx_eq(p2.matrix(), 0.0));
        assert!(p1.observations().approx_eq(p2.observations(), 0.0));
        assert!(p1.all_redundancy_stacks_full_rank().unwrap());
    }

    #[test]
    fn noiseless_random_instance_recovers_ground_truth_from_every_quorum() {
        let config = SystemConfig::new(7, 2).unwrap();
        let x_star = Vector::from(vec![2.0, -1.0]);
        let p = RegressionProblem::random(config, 2, &x_star, 0.0, 7).unwrap();
        // Every (n−2f) = 3 subset recovers x* exactly: 2f-redundancy.
        for subset in KSubsets::new(7, 3) {
            let x_s = p.subset_minimizer(&subset).unwrap();
            assert!(x_s.approx_eq(&x_star, 1e-8), "subset {subset:?} gave {x_s}");
        }
    }

    #[test]
    fn fan_with_six_agents_matches_paper_geometry() {
        let config = SystemConfig::new(6, 1).unwrap();
        let fan = RegressionProblem::fan(config, 150.0, 0.0, 0).unwrap();
        let paper = RegressionProblem::paper_instance();
        // The paper's rows are the 150°-spread fan (up to rounding of the
        // published 0.8/0.5 entries to one decimal).
        for i in 0..6 {
            let fan_row = fan.matrix().row_vector(i);
            let paper_row = paper.matrix().row_vector(i);
            assert!(
                fan_row.approx_eq(&paper_row, 0.07),
                "row {i}: fan {fan_row} vs paper {paper_row}"
            );
        }
        // Noiseless fan recovers x* = (1, 1) from every quorum.
        for subset in KSubsets::new(6, 4) {
            let x = fan.subset_minimizer(&subset).unwrap();
            assert!(x.approx_eq(&Vector::ones(2), 1e-9));
        }
    }

    #[test]
    fn fan_validates_inputs() {
        let config = SystemConfig::new(9, 1).unwrap();
        assert!(RegressionProblem::fan(config, 0.0, 0.0, 0).is_err());
        assert!(RegressionProblem::fan(config, 180.0, 0.0, 0).is_err());
        assert!(RegressionProblem::fan(config, 160.0, 0.01, 0).is_ok());
        let tight = SystemConfig::new(5, 2).unwrap(); // n − 2f = 1 < 2
        assert!(RegressionProblem::fan(tight, 150.0, 0.0, 0).is_err());
    }

    #[test]
    fn fan_stacks_are_full_rank() {
        let config = SystemConfig::new(9, 2).unwrap();
        let fan = RegressionProblem::fan(config, 160.0, 0.05, 3).unwrap();
        assert!(fan.all_redundancy_stacks_full_rank().unwrap());
    }

    #[test]
    fn random_generation_validates_inputs() {
        let config = SystemConfig::new(5, 2).unwrap();
        // n − 2f = 1 < d = 2: impossible to have full-rank stacks.
        assert!(
            RegressionProblem::random(config, 2, &Vector::from(vec![1.0, 1.0]), 0.0, 1).is_err()
        );
        // Mismatched x_star dimension.
        let config = SystemConfig::new(6, 1).unwrap();
        assert!(RegressionProblem::random(config, 2, &Vector::zeros(3), 0.0, 1).is_err());
    }
}
