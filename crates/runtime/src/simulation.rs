//! The lockstep server in process ([`Launch::InProcess`](crate::Launch))
//! on the paper's instance: fault-assignment validation at launch, the
//! Table-1 outcomes, crash elimination and the omniscient view. These are
//! the unit tests of the in-process driver `abft-dgd` used to carry, kept
//! under their module path (`simulation::tests`) on the launch that
//! replaced it.

#[cfg(test)]
mod tests {
    use crate::{DgdTask, Launch, RuntimeError};
    use abft_attacks::{ByzantineStrategy, GradientReverse, RandomGaussian, ZeroGradient};
    use abft_core::SystemConfig;
    use abft_dgd::{DgdError, ProjectionSet, RoundWorkspace, RunOptions, RunResult, StepSchedule};
    use abft_filters::{Cge, Cwtm, GradientFilter, Mean};
    use abft_linalg::Vector;
    use abft_problems::RegressionProblem;
    use abft_telemetry::TelemetryConfig;

    fn paper_setup() -> (DgdTask, Vector) {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let sim = DgdTask::new(*problem.config(), problem.costs());
        (sim, x_h)
    }

    /// One dense in-process run on a fresh workspace.
    fn run(
        sim: DgdTask,
        filter: &dyn GradientFilter,
        options: &RunOptions,
    ) -> Result<RunResult, RuntimeError> {
        let mut workspace = RoundWorkspace::new();
        let out = sim.run_dense(Launch::InProcess(&mut workspace), filter, options)?;
        Ok(out.run)
    }

    #[test]
    fn construction_validates() {
        let problem = RegressionProblem::paper_instance();
        let config = *problem.config();
        let mut costs = problem.costs();
        costs.pop();
        let options = RunOptions::paper_defaults(Vector::zeros(2));
        assert!(run(DgdTask::new(config, costs), &Cge::new(), &options).is_err());
    }

    #[test]
    fn fault_budget_is_enforced() {
        let (sim, x_h) = paper_setup();
        let options = RunOptions::paper_defaults_with_iterations(x_h, 1);
        // f = 1: the first assignment is fine, the second must fail.
        let sim = sim.byzantine(0, Box::new(GradientReverse::new()));
        run(sim, &Cge::new(), &options).unwrap();
        let (sim, _) = paper_setup();
        let sim = sim
            .byzantine(0, Box::new(GradientReverse::new()))
            .byzantine(1, Box::new(GradientReverse::new()));
        assert!(run(sim, &Cge::new(), &options).is_err());
    }

    #[test]
    fn duplicate_and_out_of_range_assignments_rejected() {
        let (sim, x_h) = paper_setup();
        let options = RunOptions::paper_defaults_with_iterations(x_h, 1);
        assert!(run(
            sim.byzantine(9, Box::new(GradientReverse::new())),
            &Cge::new(),
            &options
        )
        .is_err());
        let (sim, _) = paper_setup();
        let sim = sim.crash(2, 10);
        // f budget of 1 is used up by the crash.
        assert!(run(
            sim.byzantine(2, Box::new(ZeroGradient::new())),
            &Cge::new(),
            &options
        )
        .is_err());
    }

    #[test]
    fn honest_agents_excludes_faulty() {
        let (sim, _) = paper_setup();
        let sim = sim.byzantine(0, Box::new(GradientReverse::new()));
        let plan = sim.fault_plan(&[], 6, &Launch::Threaded).unwrap();
        assert_eq!(plan.honest, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fault_free_dgd_converges_to_global_minimizer() {
        let problem = RegressionProblem::paper_instance();
        let x_all = problem.subset_minimizer(&[0, 1, 2, 3, 4, 5]).unwrap();
        let sim = DgdTask::new(*problem.config(), problem.costs());
        let options = RunOptions::paper_defaults(x_all.clone());
        let result = run(sim, &Mean::new(), &options).unwrap();
        assert!(
            result.final_distance() < 1e-2,
            "fault-free distance = {}",
            result.final_distance()
        );
        // Trace covers x_0..x_500.
        assert_eq!(result.trace.len(), 501);
    }

    #[test]
    fn cge_survives_gradient_reverse() {
        let (sim, x_h) = paper_setup();
        let sim = sim.byzantine(0, Box::new(GradientReverse::new()));
        let options = RunOptions::paper_defaults(x_h.clone());
        let result = run(sim, &Cge::new(), &options).unwrap();
        // Paper Table 1: dist = 0.0239 < eps = 0.0890.
        assert!(
            result.final_distance() < 0.089,
            "CGE distance = {}",
            result.final_distance()
        );
    }

    #[test]
    fn cwtm_survives_random_attack() {
        let (sim, x_h) = paper_setup();
        let sim = sim.byzantine(0, Box::new(RandomGaussian::paper(42)));
        let options = RunOptions::paper_defaults(x_h.clone());
        let result = run(sim, &Cwtm::new(), &options).unwrap();
        assert!(
            result.final_distance() < 0.089,
            "CWTM distance = {}",
            result.final_distance()
        );
    }

    #[test]
    fn plain_mean_fails_under_attack() {
        let (sim, x_h) = paper_setup();
        let sim = sim.byzantine(0, Box::new(GradientReverse::new()));
        let options = RunOptions::paper_defaults(x_h.clone());
        let robust = run(sim, &Cge::new(), &options).unwrap().final_distance();
        let sim2 = {
            let (s, _) = paper_setup();
            s.byzantine(0, Box::new(GradientReverse::new()))
        };
        let naive = run(sim2, &Mean::new(), &options).unwrap().final_distance();
        assert!(
            naive > 5.0 * robust,
            "mean ({naive}) should be far worse than CGE ({robust})"
        );
    }

    #[test]
    fn crashed_agent_is_eliminated_not_fatal() {
        let (sim, x_h) = paper_setup();
        let sim = sim.crash(0, 5);
        let options = RunOptions::paper_defaults(x_h.clone());
        let result = run(sim, &Cge::new(), &options).unwrap();
        // After elimination the system is fault-free: convergence to x_H.
        assert!(
            result.final_distance() < 1e-2,
            "distance after crash-elimination = {}",
            result.final_distance()
        );
    }

    #[test]
    fn omniscient_view_excludes_crash_scheduled_agents() {
        use abft_attacks::{AttackContext, HonestGradients};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Records how many honest gradients each corrupt call could see.
        struct SpyOmniscient {
            seen: Arc<AtomicUsize>,
        }

        impl ByzantineStrategy for SpyOmniscient {
            fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
                assert!(matches!(ctx.honest, HonestGradients::Rows { .. }));
                self.seen.store(ctx.honest.len(), Ordering::Relaxed);
                out.fill(0.0);
            }
            fn name(&self) -> &'static str {
                "spy"
            }
            fn is_omniscient(&self) -> bool {
                true
            }
        }

        // n = 6, f = 2: agent 0 is omniscient-Byzantine, agent 1 is
        // crash-scheduled far beyond the horizon (so it replies honestly
        // every round). The omniscient view must cover only the truly
        // honest agents {2, 3, 4, 5} — crash-scheduled agents are faulty
        // and were never exposed by the pre-batch driver either.
        let config = SystemConfig::new(6, 2).unwrap();
        let problem = RegressionProblem::fan(config, 150.0, 0.02, 3).unwrap();
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let sim = DgdTask::new(config, problem.costs())
            .byzantine(0, Box::new(SpyOmniscient { seen: seen.clone() }))
            .crash(1, 10_000);
        let x_h = problem.subset_minimizer(&[2, 3, 4, 5]).unwrap();
        let mut options = RunOptions::paper_defaults(x_h);
        options.iterations = 3;
        run(sim, &Cge::new(), &options).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn estimates_stay_inside_w() {
        let (sim, x_h) = paper_setup();
        let sim = sim.byzantine(0, Box::new(RandomGaussian::new(1e6, 1)));
        let mut options = RunOptions::paper_defaults(x_h);
        options.projection = ProjectionSet::centered_box(-2.0, 2.0);
        options.iterations = 50;
        let result = run(sim, &Mean::new(), &options).unwrap();
        assert!(options.projection.contains(&result.final_estimate));
    }

    #[test]
    fn run_validates_dimensions() {
        let (sim, _) = paper_setup();
        let options = RunOptions {
            x0: Vector::zeros(3), // wrong dim
            iterations: 1,
            schedule: StepSchedule::paper(),
            projection: ProjectionSet::paper(),
            reference: Vector::zeros(2),
            aggregation_threads: 1,
            fleet_workers: 1,
            telemetry: TelemetryConfig::Off,
            staleness_ns: None,
        };
        assert!(matches!(
            run(sim, &Cge::new(), &options),
            Err(RuntimeError::Dgd(DgdError::Dimension { .. }))
        ));
    }

    #[test]
    fn run_validates_the_projection_centre() {
        let (sim, x_h) = paper_setup();
        let mut options = RunOptions::paper_defaults_with_iterations(x_h, 1);
        options.projection = ProjectionSet::ball(Vector::zeros(3), 1.0);
        assert!(matches!(
            run(sim, &Cge::new(), &options),
            Err(RuntimeError::Dgd(DgdError::Dimension { .. }))
        ));
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed: u64, filter: &dyn abft_filters::GradientFilter| {
            let (sim, x_h) = paper_setup();
            let sim = sim.byzantine(0, Box::new(RandomGaussian::paper(seed)));
            let mut options = RunOptions::paper_defaults(x_h);
            options.iterations = 50;
            run(sim, filter, &options).unwrap().final_estimate
        };
        assert!(run(7, &Cge::new()).approx_eq(&run(7, &Cge::new()), 0.0));
        // Seed differences are visible through the non-robust mean (CGE
        // eliminates the huge random vectors, making it seed-insensitive —
        // which is exactly its job).
        assert!(!run(7, &Mean::new()).approx_eq(&run(8, &Mean::new()), 1e-12));
    }
}
