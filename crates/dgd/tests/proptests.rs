//! Property-based tests for the DGD driver on random strongly convex
//! instances.

use abft_attacks::{GradientReverse, ScaledReverse, ZeroGradient};
use abft_core::SystemConfig;
use abft_dgd::{ProjectionSet, RoundWorkspace, RunOptions, StepSchedule};
use abft_filters::{Cge, Mean};
use abft_linalg::Vector;
use abft_problems::RegressionProblem;
use abft_runtime::{DgdTask, Launch};
use proptest::prelude::*;

fn options(x_h: Vector, iterations: usize) -> RunOptions {
    RunOptions {
        x0: Vector::zeros(2),
        iterations,
        schedule: StepSchedule::paper(),
        projection: ProjectionSet::paper(),
        reference: x_h,
        aggregation_threads: RunOptions::default_aggregation_threads(),
        fleet_workers: RunOptions::default_fleet_workers(),
        telemetry: abft_telemetry::TelemetryConfig::Off,
        staleness_ns: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free DGD with plain averaging converges on every random
    /// redundant instance.
    #[test]
    fn fault_free_convergence(seed in 0u64..500, noise in 0.0..0.2f64) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, noise, seed).expect("generable");
        let x_all = problem
            .subset_minimizer(&[0, 1, 2, 3, 4, 5])
            .expect("full rank");
        let sim = DgdTask::new(config, problem.costs());
        let run = sim.run_dense(Launch::InProcess(&mut RoundWorkspace::new()), &Mean::new(), &options(x_all, 400)).expect("runs").run;
        prop_assert!(
            run.final_distance() < 1e-2,
            "fault-free run ended at {}",
            run.final_distance()
        );
    }

    /// CGE under a full gradient reversal honours its own Theorem-5
    /// certificate on every random redundant instance: the final error is
    /// at most `D₅·ε` for the instance's measured ε (when the admissibility
    /// margin is positive).
    #[test]
    fn cge_error_within_its_theorem_5_certificate(
        seed in 0u64..200,
        noise in 0.0..0.1f64,
    ) {
        use abft_problems::analysis::convexity_constants;
        use abft_redundancy::{cge_v2_resilience_factor, measure_redundancy, RegressionOracle};

        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, noise, seed).expect("generable");
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
        let c = convexity_constants(&problem).expect("computable");
        let Some(d5) = cge_v2_resilience_factor(6, 1, c.mu, c.gamma) else {
            // Margin closed on this draw: Theorem 5 certifies nothing.
            return Ok(());
        };
        let eps = measure_redundancy(&RegressionOracle::new(&problem), config)
            .expect("measurable")
            .epsilon;

        let sim = DgdTask::new(config, problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()));
        let run = sim.run_dense(Launch::InProcess(&mut RoundWorkspace::new()), &Cge::new(), &options(x_h, 800)).expect("runs").run;
        prop_assert!(
            run.final_distance() <= d5 * eps + 0.02,
            "CGE ended at {} > certificate {} (eps = {eps}, D5 = {d5})",
            run.final_distance(),
            d5 * eps
        );
    }

    /// Every iterate stays inside the projection set W, whatever the fault.
    #[test]
    fn estimates_remain_in_w(seed in 0u64..200, factor in 0.1..50.0f64) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, 0.05, seed).expect("generable");
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
        let w = ProjectionSet::centered_box(-3.0, 3.0);
        let sim = DgdTask::new(config, problem.costs())
            .byzantine(0, Box::new(ScaledReverse::new(factor)));
        let opts = RunOptions {
            x0: Vector::from(vec![2.9, -2.9]),
            iterations: 60,
            schedule: StepSchedule::paper(),
            projection: w.clone(),
            reference: x_h,
            aggregation_threads: RunOptions::default_aggregation_threads(),
            fleet_workers: RunOptions::default_fleet_workers(),
            telemetry: abft_telemetry::TelemetryConfig::Off,
            staleness_ns: None,
        };
        let run = sim.run_dense(Launch::InProcess(&mut RoundWorkspace::new()), &Mean::new(), &opts).expect("runs").run;
        prop_assert!(w.contains(&run.final_estimate));
    }

    /// Trace bookkeeping invariants: length, iteration numbering, and the
    /// φ/distance consistency identity |φ_t| ≤ distance · grad_norm
    /// (Cauchy–Schwarz).
    #[test]
    fn trace_invariants(seed in 0u64..200, iterations in 1usize..40) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, 0.05, seed).expect("generable");
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
        let sim = DgdTask::new(config, problem.costs())
            .byzantine(0, Box::new(ZeroGradient::new()));
        let run = sim.run_dense(Launch::InProcess(&mut RoundWorkspace::new()), &Cge::new(), &options(x_h, iterations)).expect("runs").run;
        prop_assert_eq!(run.trace.len(), iterations + 1);
        for (k, r) in run.trace.records().iter().enumerate() {
            prop_assert_eq!(r.iteration, k);
            prop_assert!(r.loss >= 0.0);
            prop_assert!(r.distance >= 0.0);
            prop_assert!(
                r.phi.abs() <= r.distance * r.grad_norm + 1e-9,
                "Cauchy-Schwarz violated at t = {k}"
            );
        }
    }

    /// Theorem 3's conclusion, empirically: whenever the recorded φ_t is
    /// eventually positive outside a ball, the trajectory settles inside a
    /// comparable ball.
    #[test]
    fn settles_where_phi_is_positive(seed in 0u64..100) {
        let config = SystemConfig::new(6, 1).expect("valid");
        let problem = RegressionProblem::fan(config, 150.0, 0.02, seed).expect("generable");
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
        let sim = DgdTask::new(config, problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()));
        let run = sim.run_dense(Launch::InProcess(&mut RoundWorkspace::new()), &Cge::new(), &options(x_h, 600)).expect("runs").run;
        // Find the smallest radius such that phi > 0 outside it (over the
        // recorded trajectory), then check the tail settles within ~that.
        let radius = run
            .trace
            .records()
            .iter()
            .filter(|r| r.phi <= 0.0)
            .map(|r| r.distance)
            .fold(0.0f64, f64::max);
        let settled = abft_dgd::settles_within(&run.trace, radius.max(0.02), 0.05, 50);
        prop_assert!(settled, "did not settle within phi-positive radius {radius}");
    }
}
