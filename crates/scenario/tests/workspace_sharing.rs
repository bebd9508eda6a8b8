//! One `SuiteWorkspace` serving both server backends in turn, with the
//! fill-worker and aggregation-thread counts changing between runs: the
//! in-process and threaded backends run one loop over one workspace, so
//! every report must equal its fresh-workspace twin and a thread-count
//! change must swap a pool handle — never reallocate the round batch.

use abft_dgd::{ProjectionSet, RunOptions, StepSchedule};
use abft_linalg::Vector;
use abft_problems::{ScalarRegressionCost, SharedCost};
use abft_scenario::{Backend, InProcess, RunReport, Scenario, SuiteWorkspace, Threaded};
use abft_telemetry::TelemetryConfig;
use std::sync::Arc;

const N: usize = 40;
const DIM: usize = 256;

/// `n = 40, d = 256`: one scalar-regression cost per agent over
/// deterministic, non-degenerate rows.
fn costs() -> Vec<SharedCost> {
    (0..N)
        .map(|i| {
            let row = Vector::from_fn(DIM, |k| (((i * 31 + k * 17) % 23) as f64 - 11.0) / 16.0);
            Arc::new(ScalarRegressionCost::new(row, 0.25 * i as f64 - 3.0)) as SharedCost
        })
        .collect()
}

fn scenario(fleet_workers: usize, aggregation_threads: usize) -> Scenario {
    let options = RunOptions {
        x0: Vector::zeros(DIM),
        iterations: 6,
        schedule: StepSchedule::paper(),
        projection: ProjectionSet::paper(),
        reference: Vector::zeros(DIM),
        aggregation_threads,
        fleet_workers,
        telemetry: TelemetryConfig::Off,
        staleness_ns: None,
    };
    // A seeded stateful attack and a crash inside the horizon, so the
    // shared workspace also carries an elimination from run to run.
    Scenario::builder()
        .problem(costs())
        .faults(4)
        .attack_seeded(0, "random", 5)
        .crash(1, 3)
        .filter("cwtm")
        .options(options)
        .build()
        .expect("builds")
}

/// Everything a report observes except wall-clock time and
/// `fleet_reuse_hits`, which is *about* the workspace being shared.
fn assert_same_report(shared: &RunReport, fresh: &RunReport, context: &str) {
    assert_eq!(shared.backend, fresh.backend, "{context}");
    assert_eq!(shared.trace, fresh.trace, "trace diverged: {context}");
    assert_eq!(shared.summary, fresh.summary, "summary diverged: {context}");
    assert!(
        shared.final_estimate.approx_eq(&fresh.final_estimate, 0.0),
        "estimate diverged: {context}"
    );
    let mut counted = shared.metrics;
    counted.fleet_reuse_hits = fresh.metrics.fleet_reuse_hits;
    assert_eq!(counted, fresh.metrics, "counters diverged: {context}");
}

#[test]
fn one_workspace_serves_both_backends_across_thread_count_changes() {
    // (backend, fleet_workers, aggregation_threads, reuse hit expected)
    let in_process: &dyn Backend = &InProcess;
    let threaded: &dyn Backend = &Threaded;
    let sequence = [
        (in_process, 1usize, 1usize, 0usize),
        // First sharded fill on this workspace: a cold 2-worker fleet.
        (threaded, 2, 1, 0),
        (in_process, 1, 2, 0),
        // The in-process run before it filled on one thread over the same
        // batch — the very configuration a 1-worker fleet runs in — so the
        // fleet finds the workspace warm.
        (threaded, 1, 1, 1),
    ];

    let mut workspace = SuiteWorkspace::new();
    let mut storage = None;
    for (step, (backend, workers, threads, reuse_hits)) in sequence.into_iter().enumerate() {
        let scenario = scenario(workers, threads);
        let context = format!(
            "step {step}: {} at fleet_workers = {workers}, aggregation_threads = {threads}",
            backend.name()
        );
        let shared = backend
            .run_with_workspace(&scenario, &mut workspace)
            .expect("shared-workspace run");
        let fresh = backend.run(&scenario).expect("fresh-workspace run");
        assert_same_report(&shared, &fresh, &context);
        assert_eq!(shared.metrics.agents_eliminated, usize::from(step % 2 == 1));
        assert_eq!(shared.metrics.fleet_reuse_hits, reuse_hits, "{context}");
        assert_eq!(fresh.metrics.fleet_reuse_hits, 0, "{context}");

        // Sized by the first run, never reallocated after it.
        let batch = workspace.batch().as_flat().as_ptr();
        assert_eq!(*storage.get_or_insert(batch), batch, "{context}");
    }
    assert_eq!(workspace.runs_served(), sequence.len());
}
