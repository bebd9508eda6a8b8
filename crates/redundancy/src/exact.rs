//! The constructive `(f, 2ε)`-resilient algorithm from the proof of
//! Theorem 2.
//!
//! Given the full cost functions of all `n` agents (honest ones send their
//! true costs, Byzantine ones arbitrary costs), the algorithm:
//!
//! 1. for each candidate set `T` with `|T| = n − f`, picks
//!    `x_T ∈ argmin Σ_{i∈T} Q_i` and computes
//!    `r_T = max_{T̂ ⊂ T, |T̂| = n − 2f} dist(x_T, argmin Σ_{i∈T̂} Q_i)`;
//! 2. outputs `x_S` for the `S` minimizing `r_S`.
//!
//! Under `(2f, ε)`-redundancy of the honest costs, Theorem 2 proves the
//! output is within `2ε` of a minimizer of *every* `(n − f)`-subset of
//! honest agents — regardless of what the Byzantine agents submitted.
//!
//! The enumeration is `C(n, f)` outer × `C(n−f, f)` inner subsets, so it
//! walks `C(n, f) · C(n − f, f)` pairs `(T, T̂)`, one argmin each: 30 at the
//! paper's `n = 6, f = 1`, but 900 900 at `n = 16, f = 4`. That is the
//! combinatorial cost the paper concedes makes the algorithm "not very
//! practical".

use crate::error::RedundancyError;
use crate::measure::MinimizerOracle;
use abft_core::subsets::{k_subsets_of, KSubsets};
use abft_core::SystemConfig;
use abft_linalg::Vector;

/// The output of the exact algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOutput {
    /// The chosen point `x_S`.
    pub output: Vector,
    /// The winning candidate set `S`.
    pub chosen_subset: Vec<usize>,
    /// Its score `r_S` (eq. 11). Under `(2f, ε)`-redundancy of the honest
    /// costs, `r_S ≤ ε` (eq. 16).
    pub score: f64,
    /// Every candidate's `(T, r_T)` pair, for diagnostics.
    pub all_scores: Vec<(Vec<usize>, f64)>,
}

/// Runs the exact algorithm of Theorem 2 over the submitted costs.
///
/// # Errors
///
/// Propagates oracle failures; returns [`RedundancyError::InvalidInput`]
/// when the oracle disagrees with `config` and
/// [`RedundancyError::EmptyFamily`] when no candidate subsets exist.
pub fn exact_resilient_output(
    oracle: &dyn MinimizerOracle,
    config: SystemConfig,
) -> Result<ExactOutput, RedundancyError> {
    if oracle.n() != config.n() {
        return Err(RedundancyError::InvalidInput {
            reason: format!(
                "oracle has {} agents but config says {}",
                oracle.n(),
                config.n()
            ),
        });
    }
    let n = config.n();
    let outer_size = config.honest_quorum();
    let inner_size = config.redundancy_quorum();

    let mut best: Option<(Vec<usize>, Vector, f64)> = None;
    let mut all_scores = Vec::new();

    for candidate in KSubsets::new(n, outer_size) {
        // Step 2: x_T ∈ argmin Σ_{i∈T} Q_i.
        let x_t = oracle.argmin(&candidate)?.representative();
        // r_T = max over T̂ ⊂ T of dist(x_T, argmin Σ_{T̂}).
        let mut r_t: f64 = 0.0;
        for inner in k_subsets_of(&candidate, inner_size) {
            let inner_set = oracle.argmin(&inner)?;
            r_t = r_t.max(inner_set.dist_to_point(&x_t));
        }
        all_scores.push((candidate.clone(), r_t));
        let better = match &best {
            None => true,
            Some((_, _, best_score)) => r_t < *best_score,
        };
        if better {
            best = Some((candidate, x_t, r_t));
        }
    }

    let (chosen_subset, output, score) = best.ok_or(RedundancyError::EmptyFamily {
        what: "candidate (n-f)-subsets".to_string(),
    })?;
    Ok(ExactOutput {
        output,
        chosen_subset,
        score,
        all_scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure_redundancy, MedianOracle, RegressionOracle};
    use abft_problems::RegressionProblem;

    #[test]
    fn fault_free_instance_returns_global_minimizer() {
        // With f = 0 there is one candidate (everyone) and r = 0 trivially
        // relative to itself only if inner == outer; here inner size = n.
        let problem = RegressionProblem::paper_instance();
        let cfg0 = abft_core::SystemConfig::new(6, 0).unwrap();
        let p0 = RegressionProblem::new(
            cfg0,
            problem.matrix().clone(),
            problem.observations().clone(),
        )
        .unwrap();
        let oracle = RegressionOracle::new(&p0);
        let out = exact_resilient_output(&oracle, cfg0).unwrap();
        let global = p0.subset_minimizer(&[0, 1, 2, 3, 4, 5]).unwrap();
        assert!(out.output.approx_eq(&global, 1e-9));
        assert!(out.score < 1e-9);
    }

    #[test]
    fn theorem_2_guarantee_on_paper_instance() {
        // Submit the paper's costs as-is (all "honest"): the output must be
        // within 2ε of every (n−f)-honest-subset minimizer.
        let problem = RegressionProblem::paper_instance();
        let config = *problem.config();
        let oracle = RegressionOracle::new(&problem);
        let eps = measure_redundancy(&oracle, config).unwrap().epsilon;
        let out = exact_resilient_output(&oracle, config).unwrap();
        assert!(out.score <= eps + 1e-9, "r_S = {} > eps = {eps}", out.score);
        for subset in abft_core::subsets::KSubsets::new(6, 5) {
            let x_s = problem.subset_minimizer(&subset).unwrap();
            let d = out.output.dist(&x_s);
            assert!(
                d <= 2.0 * eps + 1e-9,
                "output {} is {d} from subset {subset:?} minimizer (2eps = {})",
                out.output,
                2.0 * eps
            );
        }
    }

    #[test]
    fn byzantine_costs_cannot_break_the_guarantee() {
        // Corrupt agent 0's data wildly; honest agents are 1..=5. The output
        // must stay within 2ε of every honest-subset minimizer, where ε is
        // measured over the honest costs only.
        let honest = RegressionProblem::paper_instance();
        let config = *honest.config();

        let mut corrupted_matrix = honest.matrix().clone();
        corrupted_matrix.set(0, 0, 3.0);
        corrupted_matrix.set(0, 1, -5.0);
        let mut corrupted_obs = honest.observations().clone();
        corrupted_obs[0] = 1e4;
        let submitted = RegressionProblem::new(config, corrupted_matrix, corrupted_obs).unwrap();

        // ε of the honest instance (the guarantee's premise).
        let eps = measure_redundancy(&RegressionOracle::new(&honest), config)
            .unwrap()
            .epsilon;

        let out = exact_resilient_output(&RegressionOracle::new(&submitted), config).unwrap();

        // The only all-honest (n−f)-subset is {1,…,5}.
        let x_h = honest.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let d = out.output.dist(&x_h);
        assert!(
            d <= 2.0 * eps + 1e-9,
            "Byzantine data pushed output {d} away (2eps = {})",
            2.0 * eps
        );
    }

    #[test]
    fn score_table_is_complete() {
        let problem = RegressionProblem::paper_instance();
        let oracle = RegressionOracle::new(&problem);
        let out = exact_resilient_output(&oracle, *problem.config()).unwrap();
        assert_eq!(out.all_scores.len(), 6); // C(6,5)
        assert_eq!(out.chosen_subset.len(), 5);
        // The chosen score is the minimum of the table.
        let min_score = out
            .all_scores
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::INFINITY, f64::min);
        assert!((out.score - min_score).abs() < 1e-15);
    }

    #[test]
    fn works_with_set_valued_minimizers() {
        // Non-differentiable absolute-value costs: minimizers are intervals.
        // n = 5, f = 1; centers clustered around 1.
        let oracle = MedianOracle::new(vec![0.9, 1.0, 1.1, 1.05, 0.95]);
        let config = abft_core::SystemConfig::new(5, 1).unwrap();
        let out = exact_resilient_output(&oracle, config).unwrap();
        // Output is near the cluster.
        assert!((out.output[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn rejects_mismatched_oracle() {
        let oracle = MedianOracle::new(vec![0.0; 4]);
        let config = abft_core::SystemConfig::new(5, 1).unwrap();
        assert!(exact_resilient_output(&oracle, config).is_err());
    }
}
