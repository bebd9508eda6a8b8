//! Driver-level observer semantics: dense recording reproduces `run`
//! bit-for-bit, lazy instrumentation really is lazy (a summary-only run
//! evaluates the honest costs once, not once per round), and an observer
//! halt freezes the estimate at the halt round.

use abft_core::observe::{
    ControlFlow, ConvergenceHalt, HaltReason, NullObserver, RoundView, RunObserver, TraceRecorder,
};
use abft_dgd::{RoundWorkspace, RunOptions};
use abft_filters::Cge;
use abft_linalg::Vector;
use abft_problems::{CostFunction, RegressionProblem, SharedCost};
use abft_runtime::{DgdTask, Launch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps a cost and counts `value()` calls — the honest-cost pass behind
/// the `loss` metric is exactly one `value()` call per honest agent.
struct CountingCost {
    inner: SharedCost,
    value_calls: Arc<AtomicUsize>,
}

impl CostFunction for CountingCost {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &Vector) -> f64 {
        self.value_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.value(x)
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        self.inner.gradient_into(x, out);
    }
}

fn counting_setup() -> (impl Fn() -> DgdTask, Vector, Arc<AtomicUsize>) {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[0, 1, 2, 3, 4, 5])
        .expect("full rank");
    let value_calls = Arc::new(AtomicUsize::new(0));
    let costs: Vec<SharedCost> = problem
        .costs()
        .into_iter()
        .map(|inner| {
            Arc::new(CountingCost {
                inner,
                value_calls: value_calls.clone(),
            }) as SharedCost
        })
        .collect();
    let sim = move || DgdTask::new(*problem.config(), costs.clone());
    (sim, x_h, value_calls)
}

fn paper_setup() -> (DgdTask, Vector) {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let sim = DgdTask::new(*problem.config(), problem.costs());
    (sim, x_h)
}

/// One dense in-process CGE run on a fresh workspace.
fn dense_run(sim: DgdTask, options: &RunOptions) -> abft_dgd::RunResult {
    let mut workspace = RoundWorkspace::new();
    sim.run_dense(Launch::InProcess(&mut workspace), &Cge::new(), options)
        .expect("runs")
        .run
}

#[test]
fn dense_recorder_reproduces_run_bit_for_bit() {
    let (sim, x_h) = paper_setup();
    let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), 60);
    let reference = dense_run(sim, &options);

    let (sim2, _) = paper_setup();
    let mut recorder = TraceRecorder::dense("cge");
    let run = sim2
        .run(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
            &mut recorder,
        )
        .expect("runs")
        .run;
    assert_eq!(reference.trace.records(), recorder.trace().records());
    assert!(reference.final_estimate.approx_eq(&run.final_estimate, 0.0));
    assert_eq!(reference.summary, run.summary);
    assert_eq!(run.summary.rounds, 61);
    assert_eq!(run.summary.halt, HaltReason::Completed);
    assert_eq!(
        run.summary.final_record,
        *reference.trace.final_record().expect("dense trace")
    );
}

#[test]
fn summary_only_run_evaluates_costs_once_not_per_round() {
    let (sim, x_h, value_calls) = counting_setup();
    let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), 200);

    // Dense recording pays the honest-cost pass every round: 6 honest
    // agents × 201 rounds.
    value_calls.store(0, Ordering::Relaxed);
    let dense = dense_run(sim(), &options);
    assert_eq!(value_calls.load(Ordering::Relaxed), 6 * 201);

    // A pure-throughput observer pays it exactly once — for the final
    // summary record — no matter how long the run.
    value_calls.store(0, Ordering::Relaxed);
    let summary_only = sim()
        .run(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
            &mut NullObserver,
        )
        .expect("runs")
        .run;
    assert_eq!(
        value_calls.load(Ordering::Relaxed),
        6,
        "one honest-cost pass for the final record, zero per round"
    );
    // Observation never perturbs the run.
    assert!(dense
        .final_estimate
        .approx_eq(&summary_only.final_estimate, 0.0));
    assert_eq!(dense.summary, summary_only.summary);
}

#[test]
fn convergence_halt_freezes_the_estimate_at_the_halt_round() {
    let (sim, x_h) = paper_setup();
    let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), 500);
    let dense = dense_run(sim, &options);

    let (sim2, _) = paper_setup();
    let mut observer = (
        TraceRecorder::dense("cge"),
        ConvergenceHalt::new(0.05, 0.0, 10),
    );
    let run = sim2
        .run(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
            &mut observer,
        )
        .expect("runs")
        .run;
    let halt_at = match run.summary.halt {
        HaltReason::Observer { at_iteration } => at_iteration,
        HaltReason::Completed => panic!("a converging run must halt early"),
    };
    assert!(halt_at < 500, "halted at {halt_at}");
    assert_eq!(run.summary.rounds, halt_at + 1);

    // The halted run's trace is exactly the dense run's prefix, and its
    // final record is the halt round's record.
    let recorded = observer.0.trace();
    assert_eq!(recorded.len(), halt_at + 1);
    assert_eq!(recorded.records(), &dense.trace.records()[..halt_at + 1]);
    assert_eq!(run.summary.final_record, recorded.records()[halt_at]);

    // The last `window` recorded distances all sit inside the ball, and
    // the round before the streak does not.
    for record in &recorded.records()[halt_at + 1 - 10..] {
        assert!(record.distance <= 0.05);
    }
    assert!(
        abft_dgd::settles_within(recorded, 0.05, 0.0, 10),
        "streaming halt agrees with the trace-level settles_within"
    );
}

#[test]
fn probe_none_observer_can_still_halt_on_iteration_alone() {
    /// Halts at a fixed iteration without reading any metric.
    struct HaltAt(usize);
    impl RunObserver for HaltAt {
        fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
            if view.iteration() >= self.0 {
                ControlFlow::Halt
            } else {
                ControlFlow::Continue
            }
        }
    }

    let (sim, x_h) = paper_setup();
    let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), 100);
    let dense = dense_run(sim, &options);
    let (sim2, _) = paper_setup();
    let run = sim2
        .run(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
            &mut HaltAt(17),
        )
        .expect("runs")
        .run;
    assert_eq!(run.summary.halt, HaltReason::Observer { at_iteration: 17 });
    // The final record equals the dense run's record at the halt round —
    // the estimate was never updated past x_17.
    assert_eq!(run.summary.final_record, dense.trace.records()[17]);
}
