//! Cross-crate checks that the implemented theory hangs together:
//! Theorems 1, 2, 4/5/6 and Lemma 1 against the executable artifacts.

use approx_bft::core::subsets::KSubsets;
use approx_bft::core::SystemConfig;
use approx_bft::linalg::Vector;
use approx_bft::problems::analysis::convexity_constants;
use approx_bft::problems::RegressionProblem;
use approx_bft::redundancy::{
    cge_alpha, cge_resilience_factor, cge_v2_resilience_factor, cwtm_lambda_threshold,
    exact_resilient_output, measure_redundancy, NecessityScenario, RegressionOracle,
};

#[test]
fn lemma_1_configurations_are_unrepresentable() {
    // f >= n/2 cannot even be constructed.
    for (n, f) in [(2usize, 1usize), (4, 2), (6, 3), (10, 5)] {
        assert!(SystemConfig::new(n, f).is_err(), "({n}, {f}) accepted");
    }
}

#[test]
fn theorem_2_guarantee_on_the_paper_instance_with_byzantine_costs() {
    let honest = RegressionProblem::paper_instance();
    let config = *honest.config();
    let eps = measure_redundancy(&RegressionOracle::new(&honest), config)
        .expect("measurable")
        .epsilon;

    // Three different Byzantine submissions from agent 0.
    let corruptions: [(f64, f64, f64); 3] = [
        (10.0, -3.0, 100.0), // absurd row + observation
        (1.0, 0.0, -50.0),   // plausible row, absurd observation
        (0.5, 0.8, 1.34),    // a full stealth clone of agent 2's data
    ];
    for (a0, a1, b0) in corruptions {
        let mut matrix = honest.matrix().clone();
        matrix.set(0, 0, a0);
        matrix.set(0, 1, a1);
        let mut obs = honest.observations().clone();
        obs[0] = b0;
        let submitted = RegressionProblem::new(config, matrix, obs).expect("shapes");
        let out =
            exact_resilient_output(&RegressionOracle::new(&submitted), config).expect("computable");
        // Every all-honest quorum is {1..5}; the guarantee must hold for it.
        let x_h = honest
            .subset_minimizer(&[1, 2, 3, 4, 5])
            .expect("full rank");
        let d = out.output.dist(&x_h);
        assert!(
            d <= 2.0 * eps + 1e-9,
            "corruption ({a0},{a1},{b0}) pushed exact output {d} > 2eps = {}",
            2.0 * eps
        );
    }
}

#[test]
fn theorem_1_no_output_survives_both_scenarios() {
    let config = SystemConfig::new(7, 2).expect("valid");
    let scenario = NecessityScenario::build(config, 0.25, 0.05).expect("buildable");
    // Sweep candidate outputs densely across the relevant interval.
    let span = scenario.x_bs() - scenario.x_s();
    for k in 0..=200 {
        let x = scenario.x_s() - 0.5 * span + span * 2.0 * k as f64 / 200.0;
        let (d1, d2) = scenario.judge(x);
        assert!(
            d1 > scenario.epsilon() || d2 > scenario.epsilon(),
            "output {x} is simultaneously eps-close to both scenario minimizers"
        );
    }
}

#[test]
fn theorem_5_certifies_the_observed_cge_error() {
    use approx_bft::attacks::GradientReverse;
    use approx_bft::dgd::{RoundWorkspace, RunOptions};
    use approx_bft::filters::Cge;
    use approx_bft::runtime::{DgdTask, Launch};

    let problem = RegressionProblem::paper_instance();
    let config = *problem.config();
    let c = convexity_constants(&problem).expect("computable");
    let eps = measure_redundancy(&RegressionOracle::new(&problem), config)
        .expect("measurable")
        .epsilon;

    // Theorem 4 is vacuous on the paper instance; Theorem 5 is not.
    assert!(cge_resilience_factor(config.n(), config.f(), c.mu, c.gamma).is_none());
    let d5 = cge_v2_resilience_factor(config.n(), config.f(), c.mu, c.gamma)
        .expect("Theorem 5 margin is positive on the paper instance");
    let certified_radius = d5 * eps;

    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let sim = DgdTask::new(config, problem.costs()).byzantine(0, Box::new(GradientReverse::new()));
    let run = sim
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &RunOptions::paper_defaults(x_h),
        )
        .expect("runs")
        .run;
    assert!(
        run.final_distance() <= certified_radius,
        "observed error {} exceeds the Theorem-5 certified radius {certified_radius}",
        run.final_distance()
    );
}

#[test]
fn alpha_thresholds_are_monotone_in_f() {
    // Larger f can only shrink the admissibility margins.
    let (mu, gamma) = (2.0, 0.712);
    let mut last4 = f64::INFINITY;
    for f in 0..5 {
        let a4 = cge_alpha(12, f, mu, gamma);
        assert!(a4 < last4 + 1e-12);
        last4 = a4;
    }
    // f = 0 margins are exactly 1.
    assert!((cge_alpha(12, 0, mu, gamma) - 1.0).abs() < 1e-12);
}

#[test]
fn cwtm_threshold_and_diversity_are_consistent() {
    use approx_bft::problems::analysis::gradient_diversity;
    let problem = RegressionProblem::paper_instance();
    let c = convexity_constants(&problem).expect("computable");
    let lambda = gradient_diversity(&problem, &[1, 2, 3, 4, 5], 10.0);
    // λ obeys the triangle-inequality cap the paper notes.
    assert!(lambda <= 2.0 + 1e-9);
    // d = 2: the threshold matches the closed form γ/(µ√2).
    let threshold = cwtm_lambda_threshold(2, c.mu, c.gamma);
    assert!((threshold - c.gamma / (c.mu * 2f64.sqrt())).abs() < 1e-12);
}

#[test]
fn noiseless_fan_instances_are_exactly_resilient() {
    // ε = 0 ⟹ the exact algorithm recovers the common minimizer exactly,
    // and every subset minimizer coincides: the (f, 0)-resilience ⇔ exact
    // fault-tolerance equivalence of Appendix B, executable.
    for n in [5usize, 6, 8] {
        let config = SystemConfig::new(n, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, 0.0, 3).expect("generable");
        let eps = measure_redundancy(&RegressionOracle::new(&problem), config)
            .expect("measurable")
            .epsilon;
        assert!(eps < 1e-8, "noiseless eps = {eps}");
        let out =
            exact_resilient_output(&RegressionOracle::new(&problem), config).expect("computable");
        let truth = Vector::from(vec![1.0, 1.0]);
        assert!(out.output.approx_eq(&truth, 1e-6));
        for subset in KSubsets::new(n, n - 1) {
            let x_s = problem.subset_minimizer(&subset).expect("full rank");
            assert!(x_s.approx_eq(&truth, 1e-6));
        }
    }
}
