//! Smoothness and strong-convexity analysis (Assumptions 2 and 3).
//!
//! Appendix J derives, for the regression costs `Q_i(x) = (B_i − A_i x)²`:
//!
//! * smoothness: `∇Q_i` is Lipschitz with constant `µ_i = 2·λ_max(A_iᵀA_i)`,
//! * strong convexity: the *average* cost over a set `S`,
//!   `(1/|S|)·Σ_{i∈S} Q_i`, is strongly convex with
//!   `γ_S = 2·λ_min(A_SᵀA_S)/|S|`.
//!
//! The paper quotes these with and without the calculus factor 2 (Section 5
//! vs Appendix J); this module computes the *true* constants of the actual
//! gradients (factor 2 included), which are the ones that make the Section-5
//! values `µ = 2`, `γ = 0.712` come out.

use crate::cost::CostFunction;
use crate::error::ProblemError;
use crate::regression::RegressionProblem;
use abft_core::subsets::KSubsets;
use abft_linalg::sym_eigenvalues;

/// The `(µ, γ)` pair of Assumptions 2–3 for a concrete problem instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvexityConstants {
    /// Lipschitz-smoothness constant `µ` (Assumption 2): max over agents.
    pub mu: f64,
    /// Strong-convexity constant `γ` (Assumption 3): min over all
    /// `(n−f)`-subsets of the average-cost convexity.
    pub gamma: f64,
}

/// Smoothness constant `µ = max_i 2·λ_max(A_iᵀA_i) = max_i 2‖A_i‖²`.
///
/// For the paper's unit-norm leading rows this evaluates to `2`, matching
/// Section 5.
fn smoothness_constant(problem: &RegressionProblem) -> f64 {
    (0..problem.config().n())
        .map(|i| problem.agent_cost(i).smoothness())
        .fold(0.0, f64::max)
}

/// Strong-convexity constant
/// `γ = min_{|S| = n−f} 2·λ_min(A_SᵀA_S) / |S|`
/// of the average cost over any honest quorum (Assumption 3).
///
/// For the paper's instance this evaluates to `0.712`, matching Section 5.
///
/// # Errors
///
/// Returns [`ProblemError::Linalg`] if an eigendecomposition fails
/// (degenerate input shapes).
fn strong_convexity_constant(problem: &RegressionProblem) -> Result<f64, ProblemError> {
    let n = problem.config().n();
    let quorum = problem.config().honest_quorum();
    let mut gamma = f64::INFINITY;
    for subset in KSubsets::new(n, quorum) {
        let a_s = problem.matrix().select_rows(&subset);
        let eig = sym_eigenvalues(&a_s.gram())?;
        let gamma_s = 2.0 * eig.min() / quorum as f64;
        gamma = gamma.min(gamma_s);
    }
    Ok(gamma)
}

/// Computes both constants of Assumptions 2–3 for a regression instance.
///
/// # Errors
///
/// Returns [`ProblemError::Linalg`] if an eigendecomposition fails.
pub fn convexity_constants(
    problem: &RegressionProblem,
) -> Result<ConvexityConstants, ProblemError> {
    Ok(ConvexityConstants {
        mu: smoothness_constant(problem),
        gamma: strong_convexity_constant(problem)?,
    })
}

/// The gradient-diversity constant `λ` of Assumption 5, estimated
/// empirically: the smallest `λ` such that
/// `‖∇Q_i(x) − ∇Q_j(x)‖ ≤ λ·max(‖∇Q_i(x)‖, ‖∇Q_j(x)‖)` over all honest
/// pairs `(i, j)` and all probe points. By the triangle inequality `λ ≤ 2`
/// always; the CWTM guarantee of Theorem 6 needs `λ < γ/(µ√d)`.
///
/// Probes are the corners and center of the box `[-probe_radius, probe_radius]^d`.
pub fn gradient_diversity(problem: &RegressionProblem, honest: &[usize], probe_radius: f64) -> f64 {
    use abft_linalg::Vector;
    let d = problem.dim();
    // Probe points: center plus the 2^d corners of the box (capped for high d).
    let mut probes = vec![Vector::zeros(d)];
    let corner_count = 1usize << d.min(10);
    for mask in 0..corner_count {
        probes.push(Vector::from_fn(d, |j| {
            if mask >> j & 1 == 1 {
                probe_radius
            } else {
                -probe_radius
            }
        }));
    }

    let mut lambda: f64 = 0.0;
    for x in &probes {
        let grads: Vec<Vector> = honest
            .iter()
            .map(|&i| problem.agent_cost(i).gradient(x))
            .collect();
        for (p, gi) in grads.iter().enumerate() {
            for gj in grads.iter().skip(p + 1) {
                let denom = gi.norm().max(gj.norm());
                if denom > 1e-12 {
                    lambda = lambda.max((gi - gj).norm() / denom);
                }
            }
        }
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::rowops;

    #[test]
    fn paper_smoothness_is_two() {
        let p = RegressionProblem::paper_instance();
        let mu = smoothness_constant(&p);
        assert!((mu - 2.0).abs() < 1e-12, "mu = {mu}, paper says 2");
    }

    #[test]
    fn paper_strong_convexity_matches_section_5() {
        let p = RegressionProblem::paper_instance();
        let gamma = strong_convexity_constant(&p).unwrap();
        assert!(
            (gamma - 0.712).abs() < 5e-4,
            "gamma = {gamma}, paper says 0.712"
        );
    }

    #[test]
    fn gamma_never_exceeds_mu() {
        // Appendix C: under Assumptions 2 and 3 simultaneously, γ ≤ µ.
        let p = RegressionProblem::paper_instance();
        let c = convexity_constants(&p).unwrap();
        assert!(c.gamma <= c.mu);
    }

    #[test]
    fn constants_scale_with_data() {
        let p = RegressionProblem::paper_instance();
        let scaled = RegressionProblem::new(
            *p.config(),
            p.matrix().scale(2.0),
            p.observations().scale(2.0),
        )
        .unwrap();
        // Rows scaled by 2 ⇒ AᵀA scales by 4 ⇒ µ and γ scale by 4.
        let c = convexity_constants(&p).unwrap();
        let cs = convexity_constants(&scaled).unwrap();
        assert!((cs.mu - 4.0 * c.mu).abs() < 1e-9);
        assert!((cs.gamma - 4.0 * c.gamma).abs() < 1e-9);
    }

    #[test]
    fn strong_convexity_is_the_minimum_over_quorums() {
        // With f = 0 there is a single subset (everyone) and γ is just
        // 2 λ_min(AᵀA)/n.
        let p = RegressionProblem::paper_instance();
        let cfg0 = abft_core::SystemConfig::new(6, 0).unwrap();
        let p0 =
            RegressionProblem::new(cfg0, p.matrix().clone(), p.observations().clone()).unwrap();
        let gamma0 = strong_convexity_constant(&p0).unwrap();
        let eig = abft_linalg::sym_eigenvalues(&p.matrix().gram()).unwrap();
        assert!((gamma0 - 2.0 * eig.min() / 6.0).abs() < 1e-10);
        // Tolerating a fault can only shrink γ (minimum over more, smaller sets).
        let gamma1 = strong_convexity_constant(&p).unwrap();
        assert!(gamma1 <= gamma0 + 1e-12);
    }

    #[test]
    fn empirical_strong_convexity_inequality_holds() {
        // ⟨∇Q_H(x) − ∇Q_H(y), x − y⟩ ≥ γ ‖x − y‖² on probe pairs.
        use abft_linalg::Vector;
        let p = RegressionProblem::paper_instance();
        let gamma = strong_convexity_constant(&p).unwrap();
        let honest = [1usize, 2, 3, 4, 5];
        let pairs = [
            (Vector::from(vec![0.0, 0.0]), Vector::from(vec![1.0, 1.0])),
            (Vector::from(vec![-3.0, 2.0]), Vector::from(vec![0.5, -1.5])),
            (
                Vector::from(vec![10.0, -10.0]),
                Vector::from(vec![-10.0, 10.0]),
            ),
        ];
        for (x, y) in &pairs {
            let mut gx = Vector::zeros(2);
            let mut gy = Vector::zeros(2);
            for &i in &honest {
                gx += &p.agent_cost(i).gradient(x);
                gy += &p.agent_cost(i).gradient(y);
            }
            // Assumption 3 is about the average cost: divide by |H|.
            rowops::scale(gx.as_mut_slice(), 1.0 / honest.len() as f64);
            rowops::scale(gy.as_mut_slice(), 1.0 / honest.len() as f64);
            let lhs = (&gx - &gy).dot(&(x - y));
            let rhs = gamma * (x - y).norm_sq();
            assert!(
                lhs >= rhs - 1e-9,
                "strong convexity violated: {lhs} < {rhs}"
            );
        }
    }

    #[test]
    fn gradient_diversity_is_at_most_two() {
        let p = RegressionProblem::paper_instance();
        let lambda = gradient_diversity(&p, &[1, 2, 3, 4, 5], 10.0);
        assert!(lambda <= 2.0 + 1e-9, "triangle inequality bound violated");
        assert!(lambda > 0.0);
    }
}
