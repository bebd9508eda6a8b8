//! Telemetry contract tests: enabling instrumentation never changes a
//! run, and virtual-time reports are pure functions of the simulation
//! schedule.

use abft_attacks::GradientReverse;
use abft_core::observe::NullObserver;
use abft_dgd::{RoundWorkspace, RunOptions};
use abft_filters::Cge;
use abft_net::{LinkModel, NetworkModel};
use abft_problems::RegressionProblem;
use abft_runtime::{AsyncConfig, DgdTask, Launch, RunCounters, SimulatedRun};
use abft_telemetry::TelemetryConfig;

fn paper_options(iterations: usize, telemetry: TelemetryConfig) -> (RegressionProblem, RunOptions) {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
    let options =
        RunOptions::paper_defaults_with_iterations(x_h, iterations).with_telemetry(telemetry);
    (problem, options)
}

/// Telemetry on produces bit-for-bit the trace telemetry off does, on
/// every backend: the instrumentation is observational only.
#[test]
fn telemetry_on_is_bit_identical_to_off_on_every_backend() {
    let (problem, off) = paper_options(40, TelemetryConfig::Off);
    let on = off.clone().with_telemetry(TelemetryConfig::On);

    // In-process driver.
    let run_in_process = |options: &RunOptions| {
        let mut workspace = RoundWorkspace::new();
        DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::InProcess(&mut workspace), &Cge::new(), options)
            .unwrap()
            .run
    };
    let a = run_in_process(&off);
    let b = run_in_process(&on);
    assert_eq!(a.trace.records(), b.trace.records());
    assert!(a.final_estimate.approx_eq(&b.final_estimate, 0.0));

    // Event-loop (threaded) runtime.
    let run_threaded = |options: &RunOptions| {
        DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::Threaded, &Cge::new(), options)
            .unwrap()
    };
    let a = run_threaded(&off);
    let b = run_threaded(&on);
    assert_eq!(a.run.trace.records(), b.run.trace.records());

    // Peer-to-peer runtime.
    let run_p2p = |options: &RunOptions| {
        DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                options,
            )
            .unwrap()
    };
    let a = run_p2p(&off);
    let b = run_p2p(&on);
    assert_eq!(a.run.trace.records(), b.run.trace.records());

    // Simulated server and simulated peer-to-peer, over a *lossy* seeded
    // network (the regime where a telemetry-induced perturbation of the
    // event schedule would be most visible).
    for sim in [
        SimulatedRun::server(
            NetworkModel::seeded(7)
                .with_default_link(LinkModel::ideal().with_drop(0.05).with_reorder_ns(500)),
        ),
        SimulatedRun::peer_to_peer(
            NetworkModel::seeded(7)
                .with_default_link(LinkModel::ideal().with_drop(0.05).with_reorder_ns(500)),
        ),
    ] {
        let run_sim = |options: &RunOptions| {
            DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(GradientReverse::new()))
                .run_dense(Launch::Simulated(&sim), &Cge::new(), options)
                .unwrap()
        };
        let a = run_sim(&off);
        let b = run_sim(&on);
        assert_eq!(a.run.trace.records(), b.run.trace.records());
        assert_eq!(
            a.counters.net, b.counters.net,
            "telemetry must not perturb the schedule"
        );
    }
}

/// Disabled runs carry no report; enabled runs carry one with the
/// expected per-round span counts.
#[test]
fn reports_are_present_exactly_when_enabled() {
    let (problem, off) = paper_options(10, TelemetryConfig::Off);
    let on = off.clone().with_telemetry(TelemetryConfig::On);

    let run = |options: &RunOptions| {
        DgdTask::new(*problem.config(), problem.costs())
            .run(Launch::Threaded, &Cge::new(), options, &mut NullObserver)
            .unwrap()
            .run
    };
    assert!(run(&off).telemetry.is_none());
    let report = run(&on).telemetry.expect("enabled runs carry a report");
    // 11 rounds: 10 iterations + the final record round.
    assert_eq!(report.phase("round").expect("round spans").count(), 11);
    assert_eq!(report.counter("rounds"), 11);
    assert_eq!(report.counter("broadcasts"), 66);
    assert_eq!(report.counter("replies"), 66);
    assert!(report.phase_total_ns("round") > 0, "wall spans advance");
}

/// Two identical seeded simulated runs produce *identical* virtual-time
/// reports: simulated telemetry is a pure function of the event schedule.
#[test]
fn seeded_simulated_runs_reproduce_identical_virtual_reports() {
    let (problem, on) = paper_options(30, TelemetryConfig::On);
    for sim in [
        SimulatedRun::server(
            NetworkModel::seeded(42)
                .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(2_000)),
        ),
        SimulatedRun::peer_to_peer(
            NetworkModel::seeded(42)
                .with_default_link(LinkModel::ideal().with_drop(0.02).with_reorder_ns(500)),
        ),
    ] {
        let run = || {
            DgdTask::new(*problem.config(), problem.costs())
                .run(Launch::Simulated(&sim), &Cge::new(), &on, &mut NullObserver)
                .unwrap()
        };
        let a = run().run.telemetry.expect("enabled");
        let b = run().run.telemetry.expect("enabled");
        assert_eq!(a, b, "virtual-time reports must reproduce exactly");
        assert_eq!(a.clock.name(), "virtual");
        assert!(a.counter("net-sent") > 0);
        assert!(
            a.phase_total_ns("net-delivery") > 0,
            "virtual spans advance with the network clock"
        );
    }
}

/// The asynchronous driver keeps the same contract: two identically
/// seeded bounded-staleness runs (lossy links, jittered agent clocks)
/// produce `==` virtual-time reports, stamped with the async counter
/// vocabulary.
#[test]
fn seeded_async_runs_reproduce_identical_virtual_reports() {
    let (problem, on) = paper_options(30, TelemetryConfig::On);
    let on = on.with_staleness_ns(2 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS);
    let sim = SimulatedRun::async_server(
        NetworkModel::seeded(42)
            .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(2_000)),
        AsyncConfig::new()
            .with_compute_jitter_ns(300_000)
            .with_clock_seed(9),
    );
    let run = || {
        DgdTask::new(*problem.config(), problem.costs())
            .run(Launch::Simulated(&sim), &Cge::new(), &on, &mut NullObserver)
            .unwrap()
    };
    let a = run();
    let b = run();
    let report_a = a.run.telemetry.expect("enabled");
    let report_b = b.run.telemetry.expect("enabled");
    assert_eq!(report_a, report_b, "async virtual reports must reproduce");
    assert_eq!(report_a.clock.name(), "virtual");
    assert_eq!(report_a.counter("async-steps"), 31, "one per step");
    assert_eq!(
        report_a.counter("stale-rows-dropped") as usize,
        a.counters.stale_rows,
        "the report and the outcome agree on staleness"
    );
    assert!(
        report_a.phase_total_ns("gradient-fill") > 0,
        "fill spans cover the agents' virtual compute time"
    );
}

/// One source of counters: with telemetry on, every [`RunCounters`] field
/// that has a telemetry counter equals it, on each of the five DGD
/// backends — the report's counter map is a copy of the struct the driver
/// counted into, made once at run end.
#[test]
fn run_counters_and_the_telemetry_report_agree_on_every_backend() {
    let (problem, on) = paper_options(30, TelemetryConfig::On);
    let lossy = || {
        NetworkModel::seeded(11)
            .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(2_000))
    };
    // τ is a run option, and only the asynchronous server takes one.
    let bounded = on
        .clone()
        .with_staleness_ns(2 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS);
    let sim_server = SimulatedRun::server(lossy());
    let sim_p2p = SimulatedRun::peer_to_peer(lossy());
    let sim_async = SimulatedRun::async_server(
        lossy(),
        AsyncConfig::new()
            .with_compute_jitter_ns(300_000)
            .with_clock_seed(5),
    );
    let task = |crash: bool| {
        let task = DgdTask::new(*problem.config(), problem.costs());
        if crash {
            task.crash(3, 10)
        } else {
            task.byzantine(0, Box::new(GradientReverse::new()))
        }
    };

    // In-process first: its only counter is `rounds`.
    let in_process = DgdTask::new(*problem.config(), problem.costs())
        .run(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &on,
            &mut NullObserver,
        )
        .unwrap()
        .run;
    let report = in_process.telemetry.expect("enabled");
    assert_eq!(report.counter("rounds"), in_process.summary.rounds as u64);
    assert_eq!(report.counter("replies") + report.counter("broadcasts"), 0);

    // `(backend, crash schedule?, launch, a counter that must be live)`.
    type Live = fn(&RunCounters) -> usize;
    let cases: [(&str, bool, Launch<'_>, Live); 5] = [
        ("threaded", true, Launch::Threaded, |c| c.agents_eliminated),
        (
            "peer-to-peer",
            false,
            Launch::PeerToPeer { equivocate: false },
            |c| c.eig_broadcasts,
        ),
        (
            "simulated-server",
            false,
            Launch::Simulated(&sim_server),
            |c| c.stragglers,
        ),
        ("simulated-p2p", false, Launch::Simulated(&sim_p2p), |c| {
            c.net.dropped as usize
        }),
        (
            "simulated-async",
            false,
            Launch::Simulated(&sim_async),
            |c| c.stale_rows,
        ),
    ];
    for (backend, crash, launch, live) in cases {
        let options = if backend == "simulated-async" {
            &bounded
        } else {
            &on
        };
        let out = task(crash)
            .run(launch, &Cge::new(), options, &mut NullObserver)
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        let c = out.counters;
        let report = out.run.telemetry.expect("enabled");
        assert!(live(&c) > 0, "{backend}: the case exercises nothing: {c:?}");
        let expected = [
            ("rounds", c.rounds as u64),
            ("broadcasts", (c.broadcasts_sent + c.eig_broadcasts) as u64),
            ("replies", c.replies_received as u64),
            ("eliminations", c.agents_eliminated as u64),
            ("stragglers", c.stragglers as u64),
            ("stale-rows-dropped", c.stale_rows as u64),
            ("async-steps", c.async_steps as u64),
            ("net-sent", c.net.sent),
            ("net-delivered", c.net.delivered),
            ("net-dropped", c.net.dropped),
            ("net-late", c.net.late),
        ];
        for (name, value) in expected {
            assert_eq!(report.counter(name), value, "{backend}: counter {name}");
        }
        assert_eq!(c.rounds, out.run.summary.rounds, "{backend}: rounds");
    }
}
