//! The S1 collector (`RoundWorkspace::run_rounds` over `AgentCell`s) in
//! the configurations no backend reaches: an omniscient attack with the
//! fill sharded over several workers (the threaded backend rejects
//! omniscient strategies, the in-process one fills on one thread), and a
//! stateful strategy carried from one run of a simulation into the next.

use abft_attacks::{
    attack_by_name, attack_names, AttackContext, ByzantineStrategy, HonestGradients, RandomGaussian,
};
use abft_core::observe::{NullObserver, TraceRecorder};
use abft_core::{IterationRecord, SystemConfig};
use abft_dgd::{AgentCell, RoundEngine, RoundWorkspace, RunOptions};
use abft_filters::{batch_of, Cwtm, GradientFilter, Mean};
use abft_linalg::Vector;
use abft_net::NetMetrics;
use abft_problems::{RegressionProblem, SharedCost};
use abft_telemetry::{Telemetry, TelemetryConfig};
use std::sync::{Arc, Mutex};

/// What one corrupt call of the wrapped strategy was shown: how many
/// honest rows, and whether each was the gradient of the agent it should
/// belong to.
type Seen = Arc<Mutex<Vec<(usize, bool)>>>;

/// A registered omniscient strategy with a window on its context.
struct Spy {
    inner: Box<dyn ByzantineStrategy>,
    /// The truly honest agents' costs, in agent-id order.
    honest: Vec<SharedCost>,
    seen: Seen,
}

impl ByzantineStrategy for Spy {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        assert!(matches!(ctx.honest, HonestGradients::Rows { .. }));
        let rows_match = ctx.honest.len() == self.honest.len()
            && ctx.honest.iter().zip(&self.honest).all(|(row, cost)| {
                let expected = cost.gradient(ctx.estimate);
                row.iter()
                    .zip(expected.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
        let mut seen = self.seen.lock().expect("spy log");
        seen.push((ctx.honest.len(), rows_match));
        self.inner.corrupt_into(ctx, out);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_omniscient(&self) -> bool {
        self.inner.is_omniscient()
    }
}

struct CollectorRun {
    records: Vec<IterationRecord>,
    final_estimate: Vector,
    last_rows: Vec<Vec<u64>>,
    seen: Vec<(usize, bool)>,
}

const ITERATIONS: usize = 8;
const CRASH_AT: usize = 4;

/// `n = 6, f = 2`: agent 0 forges with the omniscient `attack`, agent 1
/// replies honestly until it crashes at `CRASH_AT`, agents 2–5 are honest.
fn collector_run(attack: &str, workers: usize) -> CollectorRun {
    let config = SystemConfig::new(6, 2).expect("valid");
    let problem = RegressionProblem::fan(config, 150.0, 0.02, 3).expect("fan");
    let honest = [2usize, 3, 4, 5];
    let x_h = problem.subset_minimizer(&honest).expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h, ITERATIONS)
        .with_aggregation_threads(1)
        .with_telemetry(TelemetryConfig::Off);

    let costs = problem.costs();
    let seen = Seen::default();
    let spy = Spy {
        inner: attack_by_name(attack, 11).expect("registered"),
        honest: honest.iter().map(|&i| costs[i].clone()).collect(),
        seen: seen.clone(),
    };
    let mut cells: Vec<AgentCell> = costs.into_iter().map(AgentCell::new).collect();
    cells[0].forge(Box::new(spy));
    cells[1].crash_at(CRASH_AT);

    let filter = Cwtm::new();
    let mut recorder = TraceRecorder::dense(filter.name());
    let telemetry = Telemetry::wall(options.telemetry);
    let mut engine = RoundEngine::new(&cells, &honest, &filter, &options, &mut recorder, telemetry)
        .expect("engine builds");
    let mut workspace = RoundWorkspace::new();
    let passed = workspace
        .run_rounds(&mut cells, workers, config.f(), &mut engine)
        .expect("runs");
    let outcome = engine.finish(NetMetrics::default()).expect("finished");

    // Every round sends the estimate to the active agents: all six up to
    // and including the crash round, five after it.
    let rounds = ITERATIONS + 1;
    assert_eq!(passed.agents_eliminated, 1);
    assert_eq!(
        passed.broadcasts_sent,
        6 * (CRASH_AT + 1) + 5 * (rounds - CRASH_AT - 1)
    );
    assert_eq!(
        passed.replies_received,
        6 * CRASH_AT + 5 * (rounds - CRASH_AT)
    );

    let last_rows = workspace
        .batch()
        .rows_iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect();
    let seen = seen.lock().expect("spy log").clone();
    CollectorRun {
        records: recorder.into_trace().records().to_vec(),
        final_estimate: outcome.run.final_estimate,
        last_rows,
        seen,
    }
}

#[test]
fn omniscient_attacks_are_bit_identical_at_every_fill_worker_count() {
    let omniscient: Vec<&str> = attack_names()
        .iter()
        .copied()
        .filter(|name| attack_by_name(name, 0).expect("registered").is_omniscient())
        .collect();
    assert!(omniscient.len() >= 2, "ALIE and IPM are registered");

    for attack in omniscient {
        let reference = collector_run(attack, 1);
        assert_eq!(reference.records.len(), ITERATIONS + 1);
        assert_eq!(reference.last_rows.len(), 5, "agent 1 was eliminated");
        // One forgery per round, each shown exactly the four truly honest
        // rows — never the crash-scheduled agent's, before or after it
        // crashes — and each row the gradient of the agent it stands for.
        assert_eq!(reference.seen, vec![(4, true); ITERATIONS + 1], "{attack}");

        for workers in [2usize, 4] {
            let sharded = collector_run(attack, workers);
            assert_eq!(sharded.records, reference.records, "{attack} at {workers}");
            assert_eq!(
                sharded.last_rows, reference.last_rows,
                "{attack} at {workers}"
            );
            assert_eq!(sharded.seen, reference.seen, "{attack} at {workers}");
            assert!(
                sharded
                    .final_estimate
                    .approx_eq(&reference.final_estimate, 0.0),
                "{attack} at {workers} workers"
            );
        }
    }
}

/// The in-process driver's rounds written out by hand, for one Byzantine
/// agent 0: every round — the final record round included — asks every
/// agent for its report, so the strategy is called `T + 1` times a run.
fn hand_run(
    costs: &[SharedCost],
    f: usize,
    strategy: &mut dyn ByzantineStrategy,
    options: &RunOptions,
) -> Vector {
    let filter = Mean::new();
    let mut x = options.projection.project(&options.x0);
    for t in 0..=options.iterations {
        let round: Vec<Vector> = costs
            .iter()
            .enumerate()
            .map(|(i, cost)| {
                let true_gradient = cost.gradient(&x);
                if i == 0 {
                    let mut forged = Vector::zeros(x.dim());
                    let ctx = AttackContext::new(t, &true_gradient, &x);
                    strategy.corrupt_into(&ctx, forged.as_mut_slice());
                    forged
                } else {
                    true_gradient
                }
            })
            .collect();
        let batch = batch_of(&round).expect("well-formed round");
        let mut aggregated = Vector::zeros(x.dim());
        filter
            .aggregate_into(&batch, f, &mut aggregated)
            .expect("aggregates");
        if t < options.iterations {
            options.descend(t, &mut x, &aggregated);
        }
    }
    x
}

#[test]
fn a_seeded_strategy_continues_its_stream_across_runs_of_one_simulation() {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h, 40);
    // The plain mean lets the random vectors through, so the estimate
    // depends on every draw.
    let filter = Mean::new();

    // One set of cells driven through the round loop twice: the strategy
    // lives in agent 0's cell, which outlives both runs.
    let mut cells: Vec<AgentCell> = problem.costs().into_iter().map(AgentCell::new).collect();
    cells[0].forge(Box::new(RandomGaussian::paper(7)));
    let mut workspace = RoundWorkspace::new();
    let mut run = || {
        let mut observer = NullObserver;
        let telemetry = Telemetry::wall(options.telemetry);
        let honest = [1, 2, 3, 4, 5];
        let mut engine =
            RoundEngine::new(&cells, &honest, &filter, &options, &mut observer, telemetry)
                .expect("engine builds");
        workspace
            .run_rounds(&mut cells, 1, problem.config().f(), &mut engine)
            .expect("runs");
        let outcome = engine.finish(NetMetrics::default()).expect("finished");
        outcome.run.final_estimate
    };
    let first = run();
    let second = run();

    // One strategy value driving two hand-written runs back to back: the
    // second run starts where the first one's draws stopped.
    let mut strategy = RandomGaussian::paper(7);
    let f = problem.config().f();
    let first_by_hand = hand_run(&problem.costs(), f, &mut strategy, &options);
    let second_by_hand = hand_run(&problem.costs(), f, &mut strategy, &options);

    assert!(
        first.approx_eq(&first_by_hand, 0.0),
        "{first} != {first_by_hand}"
    );
    assert!(
        second.approx_eq(&second_by_hand, 0.0),
        "{second} != {second_by_hand}"
    );
    assert!(
        !second.approx_eq(&first, 1e-12),
        "a restarted stream would repeat the first run"
    );
}
