//! `Launch::InProcess` against the other lockstep launches: it is the
//! event loop's execution in another configuration, so the two agree bit
//! for bit wherever both run, and differ exactly where the configuration
//! says — omniscient strategies, message counters — and in nothing else.

use abft_attacks::{attack_by_name, attack_names};
use abft_core::observe::{ControlFlow, NullObserver, RoundView, RunObserver};
use abft_core::SystemConfig;
use abft_dgd::RunOptions;
use abft_filters::{Cwtm, FilterError, GradientFilter};
use abft_linalg::{GradientBatch, Vector};
use abft_ml::{train_distributed, DatasetSpec, DsgdConfig, MlFault, Mlp};
use abft_net::{LinkModel, NetworkModel};
use abft_problems::RegressionProblem;
use abft_runtime::{
    AsyncConfig, DgdTask, Launch, RoundWorkspace, RunCounters, RuntimeError, SimulatedRun,
};
use std::sync::Mutex;

const ITERATIONS: usize = 12;
const CRASH_AT: usize = 5;

/// `n = 6, f = 2` on a fan instance: agent 0 forges with the registry
/// attack `attack`, agent 1 replies honestly until it crashes at
/// `CRASH_AT`, agents 2–5 are honest.
fn task(attack: &str) -> (DgdTask, RunOptions) {
    let config = SystemConfig::new(6, 2).expect("valid");
    let problem = RegressionProblem::fan(config, 150.0, 0.02, 3).expect("fan");
    let x_h = problem.subset_minimizer(&[2, 3, 4, 5]).expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h, ITERATIONS);
    let task = DgdTask::new(config, problem.costs())
        .byzantine(0, attack_by_name(attack, 11).expect("registered"))
        .crash(1, CRASH_AT);
    (task, options)
}

/// Registry attacks split by whether they read the honest rows.
fn registry_attacks(omniscient: bool) -> Vec<&'static str> {
    let reads_rows = |name: &&str| attack_by_name(name, 0).expect("registered").is_omniscient();
    let attacks: Vec<_> = attack_names()
        .iter()
        .copied()
        .filter(|name| reads_rows(name) == omniscient)
        .collect();
    assert!(!attacks.is_empty(), "the registry has both kinds");
    attacks
}

#[test]
fn in_process_matches_the_fleet_at_every_worker_count() {
    for attack in registry_attacks(false) {
        let (in_process, options) = task(attack);
        let reference = in_process
            .run_dense(
                Launch::InProcess(&mut RoundWorkspace::new()),
                &Cwtm::new(),
                &options,
            )
            .expect("in-process runs");
        assert_eq!(reference.run.trace.len(), ITERATIONS + 1);
        for workers in [1usize, 2, 4] {
            let (fleet, options) = task(attack);
            let options = options.with_fleet_workers(workers);
            let threaded = fleet
                .run_dense(
                    Launch::Fleet(&mut RoundWorkspace::new()),
                    &Cwtm::new(),
                    &options,
                )
                .expect("fleet runs");
            assert_eq!(
                threaded.run.trace.records(),
                reference.run.trace.records(),
                "{attack} at {workers} workers"
            );
            assert!(
                threaded
                    .run
                    .final_estimate
                    .approx_eq(&reference.run.final_estimate, 0.0),
                "{attack} at {workers} workers"
            );
            assert_eq!(threaded.counters.agents_eliminated, 1);
        }
    }
}

#[test]
fn in_process_serves_omniscient_attacks_and_threaded_rejects_them() {
    for attack in registry_attacks(true) {
        let (served, options) = task(attack);
        let out = served
            .run_dense(
                Launch::InProcess(&mut RoundWorkspace::new()),
                &Cwtm::new(),
                &options,
            )
            .unwrap_or_else(|e| panic!("{attack} in process: {e}"));
        assert_eq!(out.run.trace.len(), ITERATIONS + 1, "{attack}");

        let (rejected, options) = task(attack);
        let err = rejected
            .run_dense(Launch::Threaded, &Cwtm::new(), &options)
            .expect_err("threaded agents cannot see in-flight gradients");
        assert!(
            matches!(err, RuntimeError::Config(_)),
            "{attack} threaded: {err}"
        );
    }
}

#[test]
fn in_process_counts_rounds_and_no_messages() {
    let (in_process, options) = task("gradient-reverse");
    let mut workspace = RoundWorkspace::new();
    let out = in_process
        .run_dense(Launch::InProcess(&mut workspace), &Cwtm::new(), &options)
        .expect("runs");
    let rounds_only = RunCounters {
        rounds: ITERATIONS + 1,
        ..RunCounters::default()
    };
    assert_eq!(out.counters, rounds_only);

    // The same task on the same workspace as an event loop: the same
    // rounds, and the messages they passed.
    let (fleet, options) = task("gradient-reverse");
    let out = fleet
        .run_dense(Launch::Fleet(&mut workspace), &Cwtm::new(), &options)
        .expect("runs");
    assert_eq!(out.counters.rounds, ITERATIONS + 1);
    assert_eq!(out.counters.rounds_dispatched, ITERATIONS + 1);
    assert_eq!(
        out.counters.broadcasts_sent,
        6 * (CRASH_AT + 1) + 5 * (ITERATIONS - CRASH_AT)
    );
    assert_eq!(workspace.runs_served(), 2);
}

#[test]
fn every_lockstep_launch_rejects_a_staleness_bound() {
    let server = SimulatedRun::server(NetworkModel::ideal());
    let p2p = SimulatedRun::peer_to_peer(NetworkModel::ideal());
    let (mut kept, mut fleet) = (RoundWorkspace::new(), RoundWorkspace::new());
    let lockstep: [(&str, Launch<'_>); 6] = [
        ("in-process", Launch::InProcess(&mut kept)),
        ("threaded", Launch::Threaded),
        ("fleet", Launch::Fleet(&mut fleet)),
        ("peer-to-peer", Launch::PeerToPeer { equivocate: false }),
        ("simulated server", Launch::Simulated(&server)),
        ("simulated peer-to-peer", Launch::Simulated(&p2p)),
    ];
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h, 3)
        .with_staleness_ns(AsyncConfig::UNBOUNDED);
    for (name, launch) in lockstep {
        let err = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(launch, &Cwtm::new(), &options)
            .expect_err("lockstep rounds have no row age");
        assert!(matches!(err, RuntimeError::Config(_)), "{name}: {err}");
    }

    // The one launch the knob belongs to takes it.
    let asynchronous = SimulatedRun::async_server(NetworkModel::ideal(), AsyncConfig::new());
    DgdTask::new(*problem.config(), problem.costs())
        .run_dense(Launch::Simulated(&asynchronous), &Cwtm::new(), &options)
        .expect("the asynchronous server reads the bound");
}

/// CWTM that logs `(rows, f)` — the batch size and the fault budget it is
/// handed — on every call.
#[derive(Default)]
struct BudgetLog {
    calls: Mutex<Vec<(usize, usize)>>,
}

impl BudgetLog {
    fn calls(&self) -> Vec<(usize, usize)> {
        self.calls.lock().expect("unpoisoned").clone()
    }
}

impl GradientFilter for BudgetLog {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        self.calls
            .lock()
            .expect("unpoisoned")
            .push((batch.len(), f));
        Cwtm::new().aggregate_into(batch, f, out)
    }

    fn name(&self) -> &'static str {
        "budget-log"
    }
}

/// Runs `task("gradient-reverse")` — agent 1 crashes at `CRASH_AT` — on
/// `launch` through a [`BudgetLog`], and checks step S1's budget on every
/// call: an agent the server has no row from counts against `f`, so the
/// filter runs with `f − (n − rows)`, floored at zero.
fn logged_budget(
    launch: Launch<'_>,
    options: impl Fn(RunOptions) -> RunOptions,
) -> (Vec<(usize, usize)>, RunCounters) {
    let (task, base) = task("gradient-reverse");
    let (n, f) = (task.config().n(), task.config().f());
    let log = BudgetLog::default();
    let out = task
        .run_dense(launch, &log, &options(base))
        .expect("the run completes");
    let calls = log.calls();
    assert!(!calls.is_empty());
    for &(rows, budget) in &calls {
        assert_eq!(budget, f.saturating_sub(n - rows), "{rows} rows");
    }
    (calls, out.counters)
}

#[test]
fn every_server_hands_the_filter_the_s1_budget() {
    let (in_process, _) = logged_budget(Launch::InProcess(&mut RoundWorkspace::new()), |o| o);
    let (threaded, _) = logged_budget(Launch::Threaded, |o| o);
    let ideal = SimulatedRun::server(NetworkModel::ideal());
    let (simulated, _) = logged_budget(Launch::Simulated(&ideal), |o| o);
    let timing = AsyncConfig::new();
    let asynchronous = SimulatedRun::async_server(NetworkModel::ideal(), timing);
    let one_interval = |o: RunOptions| o.with_staleness_ns(timing.step_interval_ns);
    let (stepped, _) = logged_budget(Launch::Simulated(&asynchronous), one_interval);
    // Over ideal links the crash is the only absent row: six rows with the
    // full budget until `CRASH_AT`, then five with one less — everywhere.
    let expected: Vec<_> = (0..=ITERATIONS)
        .map(|t| if t < CRASH_AT { (6, 2) } else { (5, 1) })
        .collect();
    assert_eq!(in_process, expected);
    assert_eq!(threaded, expected);
    assert_eq!(simulated, expected);
    assert_eq!(stepped, expected);

    let link = LinkModel::ideal().with_drop(0.2).with_reorder_ns(2_000);
    let lossy = SimulatedRun::server(NetworkModel::seeded(7).with_default_link(link));
    let (_, counters) = logged_budget(Launch::Simulated(&lossy), |o| o);
    assert!(counters.stragglers > 0, "{counters:?}");

    let jittered = AsyncConfig::new()
        .with_compute_jitter_ns(400_000)
        .with_clock_seed(7);
    let link = LinkModel::ideal().with_drop(0.1).with_reorder_ns(50_000);
    let network = NetworkModel::seeded(13).with_default_link(link);
    let stale = SimulatedRun::async_server(network, jittered);
    let bounded = |o: RunOptions| o.with_staleness_ns(2 * timing.step_interval_ns);
    let (_, counters) = logged_budget(Launch::Simulated(&stale), bounded);
    assert!(counters.stale_rows > 0, "{counters:?}");
}

/// Halts the run at iteration `.0` without reading any metric.
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

/// Every honest perspective of a peer-to-peer run filters its own decided
/// multiset each round, with the full budget: `n` rows (EIG decides one
/// per sender) and `f`. A completed run steps every perspective on every
/// round, the final record round included — that last aggregation is what
/// surfaces a filter error in any honest agent's multiset — while an
/// observer halt at `h` stops after the leader's step at `h`.
#[test]
fn every_peer_to_peer_perspective_filters_each_round_with_the_full_budget() {
    let problem = RegressionProblem::paper_instance();
    let (n, f) = (problem.config().n(), problem.config().f());
    assert_eq!((n, f), (6, 1));
    let honest = n - f;
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h, ITERATIONS);
    let ideal = SimulatedRun::peer_to_peer(NetworkModel::ideal());
    let launches = || {
        [
            ("peer-to-peer", Launch::PeerToPeer { equivocate: false }),
            ("simulated peer-to-peer", Launch::Simulated(&ideal)),
        ]
    };
    let run = |launch: Launch<'_>, observer: &mut dyn RunObserver| {
        let (log, reverse) = (BudgetLog::default(), attack_by_name("gradient-reverse", 3));
        DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, reverse.expect("registered"))
            .run(launch, &log, &options, observer)
            .expect("the run completes");
        log.calls()
    };
    for (name, launch) in launches() {
        let calls = run(launch, &mut NullObserver);
        assert_eq!(calls, vec![(n, f); honest * (ITERATIONS + 1)], "{name}");
    }
    let halt = ITERATIONS / 2;
    for (name, launch) in launches() {
        let calls = run(launch, &mut HaltAt(halt));
        assert_eq!(calls, vec![(n, f); honest * halt + 1], "{name} halted");
    }
}

/// Robust D-SGD filters one batch per round — a row from every agent,
/// the full budget — on each of its `T + 1` rounds.
#[test]
fn dsgd_filters_each_round_with_the_full_budget() {
    let (train, test) = DatasetSpec::tiny().generate(13);
    let (n, f) = (5, 1);
    let shards = train.shard(n, 1).expect("shards");
    let config = DsgdConfig {
        batch_size: 16,
        iterations: ITERATIONS,
        eval_every: 4,
        ..DsgdConfig::paper(5)
    };
    let mut model = Mlp::new(&[16, 8, 10], 1).expect("layers");
    let log = BudgetLog::default();
    train_distributed(
        &mut model,
        &shards,
        &[0],
        MlFault::GradientReverse,
        &log,
        &test,
        &config,
    )
    .expect("training completes");
    assert_eq!(log.calls(), vec![(n, f); ITERATIONS + 1]);
}
