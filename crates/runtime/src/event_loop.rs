//! The lockstep server execution behind [`Launch::InProcess`],
//! [`Launch::Threaded`] and [`Launch::Fleet`].
//!
//! The paper's Figure-1 server as an event loop: one iteration is one
//! synchronous round of the server loop ([`abft_dgd::RowSource::serve`])
//! over the lockstep row source, [`RoundWorkspace::run_rounds`]. The
//! "broadcast" is a round event dispatched to
//! [`AgentCell`](abft_dgd::AgentCell) state machines multiplexed over a
//! worker pool, the "reply" is the cell writing its loaned batch row, and a
//! cell past its crash point sends nothing — step S1's elimination.
//!
//! The three launches are this one function, so they agree by
//! construction. A run is *threaded* rather than *in process* by
//! configuration: the fill is sharded over [`RunOptions::fleet_workers`]
//! (the pool's **fixed schedule** keeps the rows bit-identical at any
//! count), omniscient strategies are rejected (an agent cannot see other
//! agents' in-flight gradients), and the messages passed are reported.

use crate::error::RuntimeError;
use crate::task::{DgdTask, FaultPlan, Launch};
use abft_core::observe::RunObserver;
use abft_dgd::{Outcome, RoundEngine, RoundWorkspace, RunCounters, RunOptions};
use abft_filters::GradientFilter;
use abft_net::NetMetrics;
use abft_telemetry::Telemetry;

/// The lockstep server execution of `launch`: in process on the caller's
/// workspace, or as an event loop on the caller's or a transient one.
pub(crate) fn execute(
    task: DgdTask,
    launch: Launch<'_>,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    let n = task.config().n();
    let FaultPlan {
        config,
        mut cells,
        honest,
        ..
    } = task.fault_plan(&[], n, &launch)?;
    let mut transient = None;
    let (workspace, in_process) = match launch {
        Launch::InProcess(kept) => (kept, true),
        Launch::Fleet(kept) => (kept, false),
        // `Threaded`: an event loop on a workspace of the run's own.
        _ => (transient.insert(RoundWorkspace::new()), false),
    };
    // Observational only: a disabled handle never reads the clock, so the
    // loop stays bit-identical and allocation-free with telemetry off.
    let telemetry = Telemetry::wall(options.telemetry);
    let mut engine = RoundEngine::new(&cells, &honest, filter, options, observer, telemetry)?;
    let fill_workers = if in_process { 1 } else { options.fleet_workers };
    let passed = workspace.run_rounds(&mut cells, fill_workers, config.f(), &mut engine)?;
    // No messages pass in process: the rounds are all there is to count.
    if !in_process {
        engine.counters = RunCounters {
            rounds: engine.counters.rounds,
            ..passed
        };
    }
    Ok(engine.finish(NetMetrics::default())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_attacks::{GradientReverse, LittleIsEnough, RandomGaussian};
    use abft_filters::{Cge, Cwtm};
    use abft_problems::RegressionProblem;

    fn paper_options(iterations: usize) -> (RegressionProblem, RunOptions) {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let options = RunOptions::paper_defaults_with_iterations(x_h, iterations);
        (problem, options)
    }

    #[test]
    fn event_loop_matches_in_process_driver_exactly() {
        let (problem, options) = paper_options(100);

        let threaded = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::Threaded, &Cge::new(), &options)
            .unwrap();

        let mut workspace = RoundWorkspace::new();
        let in_process = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::InProcess(&mut workspace), &Cge::new(), &options)
            .unwrap()
            .run;

        assert!(threaded
            .run
            .final_estimate
            .approx_eq(&in_process.final_estimate, 0.0));
        assert_eq!(threaded.run.trace.records(), in_process.trace.records());
    }

    #[test]
    fn event_loop_matches_with_seeded_random_attack_at_every_worker_count() {
        let (problem, options) = paper_options(60);
        let mut workspace = RoundWorkspace::new();
        let in_process = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(RandomGaussian::paper(99)))
            .run_dense(Launch::InProcess(&mut workspace), &Cwtm::new(), &options)
            .unwrap()
            .run;
        for workers in [1usize, 2, 4] {
            let mut fleet = RoundWorkspace::new();
            let options = options.clone().with_fleet_workers(workers);
            let threaded = DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(RandomGaussian::paper(99)))
                .run_dense(Launch::Fleet(&mut fleet), &Cwtm::new(), &options)
                .unwrap();
            assert!(
                threaded
                    .run
                    .final_estimate
                    .approx_eq(&in_process.final_estimate, 0.0),
                "diverged at {workers} workers"
            );
            assert_eq!(threaded.run.trace.records(), in_process.trace.records());
        }
    }

    #[test]
    fn crash_is_eliminated_and_run_completes() {
        let (problem, options) = paper_options(120);
        let out = DgdTask::new(*problem.config(), problem.costs())
            .crash(3, 10)
            .run_dense(Launch::Threaded, &Cge::new(), &options)
            .unwrap();
        assert!(
            out.run.final_distance() < 0.15,
            "d = {}",
            out.run.final_distance()
        );
        assert_eq!(out.counters.agents_eliminated, 1);
        assert_eq!(out.counters.rounds, 121);
    }

    #[test]
    fn a_reused_fleet_reproduces_the_fresh_fleet_run() {
        let (problem, options) = paper_options(50);
        let options = options.with_fleet_workers(2);
        let run = |fleet: &mut RoundWorkspace| {
            DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(RandomGaussian::paper(7)))
                .run_dense(Launch::Fleet(fleet), &Cge::new(), &options)
                .unwrap()
        };
        let mut reused = RoundWorkspace::new();
        let first = run(&mut reused);
        assert_eq!(first.counters.fleet_reuse_hits, 0);
        let second = run(&mut reused);
        assert_eq!(second.counters.fleet_reuse_hits, 1);
        let fresh = run(&mut RoundWorkspace::new());
        assert_eq!(first.run.trace.records(), second.run.trace.records());
        assert_eq!(first.run.trace.records(), fresh.run.trace.records());
        assert_eq!(reused.runs_served(), 2);
    }

    #[test]
    fn omniscient_strategies_are_rejected() {
        let (problem, options) = paper_options(5);
        let err = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(LittleIsEnough::new(1.0)))
            .run_dense(Launch::Threaded, &Cge::new(), &options)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Config(_)));
    }

    #[test]
    fn fault_budget_is_enforced() {
        let (problem, options) = paper_options(5);
        let err = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .byzantine(1, Box::new(GradientReverse::new()))
            .run_dense(Launch::Threaded, &Cge::new(), &options)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Config(_)));
    }

    #[test]
    fn metrics_count_events() {
        let (problem, options) = paper_options(10);
        let s = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Threaded, &Cge::new(), &options)
            .unwrap()
            .counters;
        // 11 rounds (10 iterations + final record) × 6 agents.
        assert_eq!(s.rounds, 11);
        assert_eq!(s.broadcasts_sent, 66);
        assert_eq!(s.replies_received, 66);
        assert_eq!(s.agents_eliminated, 0);
        // Scheduler counters: one dispatch cycle per round, one RoundStart
        // event per active agent per round, no fleet reuse (fresh fleet).
        assert_eq!(s.rounds_dispatched, 11);
        assert_eq!(s.events_processed, 66);
        assert_eq!(s.fleet_reuse_hits, 0);
    }
}
