//! The event-driven server runtime behind [`Launch::Threaded`] and
//! [`Launch::Fleet`](crate::Launch::Fleet).
//!
//! This realizes the paper's Figure-1 server architecture as a persistent
//! event loop instead of the historical thread-per-agent topology: one DGD
//! iteration is still one synchronous round — broadcast, collect, filter,
//! update — but the "broadcast" is a `RoundStart` event dispatched to
//! [`AgentCell`](crate::fleet::AgentCell) state machines multiplexed over
//! the fleet's worker pool, and the "reply" is the cell writing its
//! gradient straight into its loaned batch row. A cell whose crash
//! schedule fires goes silent, which the server treats as the "no gradient
//! received" case of step S1 and eliminates the agent (updating its
//! `(n, f)` view) — exactly as the thread-per-agent runtime treated a
//! disconnected channel.
//!
//! The OS-thread round-trip per agent per round — the scheduling cost that
//! made the threaded backend ~15× slower than the in-process driver — is
//! gone: a 1-worker fleet runs every agent inline with no threads at all,
//! and a k-worker fleet pays one pool dispatch per round. Because the
//! pool's **fixed schedule** makes agent→worker assignment a pure function
//! of `(active agents, workers)`, the rows see the same floating-point
//! operations in the same order at any worker count, and the server step
//! is the in-process driver's ([`RoundEngine::step`]), so the traces are
//! bit-identical to it.
//!
//! [`Launch::Threaded`]: crate::Launch::Threaded

use crate::error::RuntimeError;
use crate::fleet::Fleet;
use crate::task::{DgdTask, FaultPlan};
use abft_core::observe::RunObserver;
use abft_dgd::{Outcome, RoundEngine, RunOptions};
use abft_filters::GradientFilter;
use abft_net::NetMetrics;
use abft_telemetry::{Phase, Telemetry};

/// The event-loop server execution, driving a caller-supplied (and
/// caller-reused) [`Fleet`]: this file is how rows arrive — a fleet
/// dispatch per round, silent cells eliminated and their rows compacted
/// away.
pub(crate) fn execute(
    task: DgdTask,
    fleet: &mut Fleet,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    let n = task.config().n();
    let FaultPlan {
        config,
        costs,
        strategies,
        crash_at,
        honest,
        ..
    } = task.fault_plan(&[], n, "threaded")?;
    // Observational only: a disabled handle never reads the clock, so the
    // event loop stays bit-identical and allocation-free with telemetry
    // off.
    let telemetry = Telemetry::wall(options.telemetry);
    let mut engine = RoundEngine::new(n, &costs, honest, filter, options, observer, telemetry)?;

    // Program the fleet: agent cells, the round batch, and the aggregation
    // pool are installed (or reused) here. Everything after this line is
    // the per-round hot path.
    let warm = fleet.load(
        &costs,
        strategies,
        &crash_at,
        engine.x().dim(),
        options.aggregation_threads,
    );
    engine.counters.fleet_reuse_hits = usize::from(warm);
    engine.instrument(fleet.batch_mut());

    for t in 0..=options.iterations {
        // S1 broadcast: one RoundStart event per non-eliminated agent,
        // dispatched across the fleet's workers; every cell streams its
        // gradient into its loaned row (rows in agent-id order). Collect:
        // a silent cell is the no-reply case of step S1 — eliminated, its
        // row vacated, the server's `(n, f)` view updated.
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        let events = fleet.dispatch_round(t, engine.x());
        let eliminated = fleet.eliminate_silent();
        let batch = fleet.batch_mut();
        let counters = &mut engine.counters;
        counters.broadcasts_sent += events;
        counters.events_processed += events;
        counters.rounds_dispatched += 1;
        counters.agents_eliminated += eliminated;
        counters.replies_received += batch.len();
        let server_f = config.f().saturating_sub(counters.agents_eliminated);
        engine.telemetry.end(fill_span);

        if engine.step(t, batch, server_f)?.is_halt() {
            break;
        }
    }
    engine.absorb(fleet.batch_mut());
    Ok(engine.finish(NetMetrics::default())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Launch;
    use abft_attacks::{GradientReverse, LittleIsEnough, RandomGaussian};
    use abft_dgd::DgdSimulation;
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

        let mut sim = DgdSimulation::new(*problem.config(), problem.costs())
            .unwrap()
            .with_byzantine(0, Box::new(GradientReverse::new()))
            .unwrap();
        let in_process = sim.run(&Cge::new(), &options).unwrap();

        assert!(threaded
            .run
            .final_estimate
            .approx_eq(&in_process.final_estimate, 0.0));
        assert_eq!(threaded.run.trace.records(), in_process.trace.records());
    }

    #[test]
    fn event_loop_matches_with_seeded_random_attack_at_every_worker_count() {
        let (problem, options) = paper_options(60);
        let mut sim = DgdSimulation::new(*problem.config(), problem.costs())
            .unwrap()
            .with_byzantine(0, Box::new(RandomGaussian::paper(99)))
            .unwrap();
        let in_process = sim.run(&Cwtm::new(), &options).unwrap();
        for workers in [1usize, 2, 4] {
            let mut fleet = Fleet::new(workers);
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
        let run = |fleet: &mut Fleet| {
            DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(RandomGaussian::paper(7)))
                .run_dense(Launch::Fleet(fleet), &Cge::new(), &options)
                .unwrap()
        };
        let mut reused = Fleet::new(2);
        let first = run(&mut reused);
        assert_eq!(first.counters.fleet_reuse_hits, 0);
        let second = run(&mut reused);
        assert_eq!(second.counters.fleet_reuse_hits, 1);
        let fresh = run(&mut Fleet::new(2));
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
