//! Property-based tests for cost functions and instance generators.

use abft_core::subsets::KSubsets;
use abft_core::SystemConfig;
use abft_linalg::{Matrix, Vector};
use abft_problems::absval::AbsoluteCost;
use abft_problems::analysis::convexity_constants;
use abft_problems::huber::HuberCost;
use abft_problems::logistic::LogisticCost;
use abft_problems::{
    finite_difference_gradient, total_gradient, total_value, AggregateCost, CostFunction,
    QuadraticCost, RegressionProblem, ScalarRegressionCost, SharedCost,
};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The subset minimizer is optimal: no probe point achieves a smaller
    /// subset loss.
    #[test]
    fn subset_minimizer_is_optimal(
        seed in 0u64..300,
        noise in 0.0..0.3f64,
        dx in -1.0..1.0f64,
        dy in -1.0..1.0f64,
    ) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, noise, seed).expect("generable");
        for subset in KSubsets::new(6, 5) {
            let x_s = problem.subset_minimizer(&subset).expect("full rank");
            let at_min = problem.subset_loss(&subset, &x_s);
            let probe = &x_s + &Vector::from(vec![dx, dy]);
            prop_assert!(problem.subset_loss(&subset, &probe) >= at_min - 1e-9);
        }
    }

    /// Analytic gradients of every agent cost match finite differences at
    /// random probe points.
    #[test]
    fn agent_gradients_match_finite_differences(
        seed in 0u64..300,
        px in -3.0..3.0f64,
        py in -3.0..3.0f64,
    ) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, 0.1, seed).expect("generable");
        let probe = Vector::from(vec![px, py]);
        for i in 0..6 {
            let cost = problem.agent_cost(i);
            let fd = finite_difference_gradient(&cost, &probe, 1e-6);
            prop_assert!(fd.approx_eq(&cost.gradient(&probe), 1e-5));
        }
    }

    /// `gradient_into` — the required method, the one the drivers call —
    /// matches finite differences for every cost family at random probe
    /// points, and overwrites whatever the row held.
    #[test]
    fn every_family_gradient_into_matches_finite_differences(
        a in -2.0..2.0f64,
        b in -2.0..2.0f64,
        c in 0.1..2.0f64,
        px in -3.0..3.0f64,
        py in -3.0..3.0f64,
    ) {
        let row = Vector::from(vec![a, b]);
        // c·I + rowᵀrow: symmetric positive definite.
        let p = Matrix::from_rows(&[&[c + a * a, a * b], &[a * b, c + b * b]]).expect("2x2");
        let features = Matrix::from_rows(&[&[a, b], &[b, -a], &[c, a]]).expect("3x2");
        let mut costs: Vec<SharedCost> = vec![
            Arc::new(ScalarRegressionCost::new(row.clone(), c)),
            Arc::new(QuadraticCost::new(p, row.clone(), c).expect("symmetric")),
            Arc::new(HuberCost::new(row, b, c).expect("delta > 0")),
            Arc::new(LogisticCost::new(features, vec![1.0, -1.0, 1.0], c).expect("valid")),
        ];
        costs.push(Arc::new(AggregateCost::new(costs.clone(), vec![3, 0, 2, 1])));
        let probe = Vector::from(vec![px, py]);
        for cost in &costs {
            let mut out = [f64::NAN; 2];
            cost.gradient_into(&probe, &mut out);
            let fd = finite_difference_gradient(cost.as_ref(), &probe, 1e-6);
            prop_assert!(fd.approx_eq(&Vector::from(&out[..]), 1e-5), "{fd} vs {out:?}");
        }

        // The scalar family, away from its kink.
        prop_assume!((px - a).abs() > 1e-3);
        let absolute = AbsoluteCost::new(a);
        let probe = Vector::from(vec![px]);
        let mut out = [f64::NAN];
        absolute.gradient_into(&probe, &mut out);
        let fd = finite_difference_gradient(&absolute, &probe, 1e-6);
        prop_assert!(fd.approx_eq(&Vector::from(&out[..]), 1e-5), "{fd} vs {out:?}");
    }

    /// Aggregate helpers are linear: value/gradient over a subset equal the
    /// sums of the members'.
    #[test]
    fn aggregation_is_linear(seed in 0u64..300, px in -2.0..2.0f64, py in -2.0..2.0f64) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, 0.05, seed).expect("generable");
        let costs = problem.costs();
        let probe = Vector::from(vec![px, py]);
        let subset = [0usize, 2, 4];
        let direct_v: f64 = subset.iter().map(|&i| costs[i].value(&probe)).sum();
        prop_assert!((total_value(&costs, &subset, &probe) - direct_v).abs() < 1e-12);
        let mut direct_g = Vector::zeros(2);
        for &i in &subset {
            direct_g += &costs[i].gradient(&probe);
        }
        prop_assert!(total_gradient(&costs, &subset, &probe).approx_eq(&direct_g, 1e-12));
    }

    /// Appendix C, executable: γ ≤ µ on every generated instance.
    #[test]
    fn gamma_never_exceeds_mu(seed in 0u64..300, noise in 0.0..0.5f64) {
        let config = SystemConfig::new(7, 2).expect("valid");
        let problem = RegressionProblem::fan(config, 160.0, noise, seed).expect("generable");
        let c = convexity_constants(&problem).expect("computable");
        prop_assert!(c.gamma <= c.mu + 1e-12, "gamma {} > mu {}", c.gamma, c.mu);
        prop_assert!(c.gamma > 0.0);
    }

    /// Random redundant instances keep every (n−2f)-stack full rank, so all
    /// subset minimizers exist.
    #[test]
    fn random_instances_have_unique_subset_minimizers(seed in 0u64..100) {
        let config = SystemConfig::new(8, 2).expect("valid");
        let x_star = Vector::from(vec![1.0, -1.0]);
        let problem =
            RegressionProblem::random(config, 2, &x_star, 0.1, seed).expect("generable");
        prop_assert!(problem.all_redundancy_stacks_full_rank().expect("computable"));
        for subset in KSubsets::new(8, 4) {
            prop_assert!(problem.subset_minimizer(&subset).is_ok());
        }
    }
}
