//! Proves the headline property of the `GradientBatch` refactor: the DGD
//! inner loop performs **no per-iteration gradient allocations**. A
//! counting global allocator measures two runs that differ only in their
//! iteration count; the marginal allocations per extra iteration must be
//! (amortized) zero — before the refactor every iteration allocated at
//! least `n` gradient vectors plus filter temporaries.

use abft_attacks::{GradientReverse, LittleIsEnough};
use abft_core::SystemConfig;
use abft_dgd::{AgentCell, RoundEngine, RoundWorkspace, RunOptions};
use abft_filters::{batch_of, by_name};
use abft_linalg::{Matrix, Vector, WorkerPool};
use abft_problems::absval::AbsoluteCost;
use abft_problems::huber::HuberCost;
use abft_problems::logistic::LogisticCost;
use abft_problems::{QuadraticCost, RegressionProblem, SharedCost};
use abft_runtime::{DgdTask, Launch};
use abft_telemetry::{Counter, Phase, Telemetry, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Allocations made *by this thread*. The harness runs the tests below
    /// on parallel threads, so a process-wide counter would charge one
    /// test's set-up to another's measured window; every measured section
    /// here (serial aggregation, telemetry off or wall) stays on its own
    /// thread. Const-initialized and `Drop`-free, so touching it from
    /// inside the allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread.
fn count_allocation() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// The calling thread's allocation count so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe `GlobalAlloc` trait"
)]
// SAFETY: every method delegates to `System`, preserving its guarantees.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer and layout to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwards the caller's pointer and layout to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation count of one full run at the given iteration budget.
fn allocations_for_run(filter_name: &str, byzantine: bool, iterations: usize) -> usize {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let mut sim = DgdTask::new(*problem.config(), problem.costs());
    if byzantine {
        sim = sim.byzantine(0, Box::new(GradientReverse::new()));
    }
    // The zero-per-iteration-allocation property is a contract of the
    // *serial* default; the parallel path trades a handful of dispatch
    // allocations per round for wall-clock. Pin serial explicitly so a CI
    // run with ABFT_AGGREGATION_THREADS set still measures the contract —
    // and pin telemetry off so an ABFT_TELEMETRY override can't either.
    let options = RunOptions::paper_defaults_with_iterations(x_h, iterations)
        .with_aggregation_threads(1)
        .with_telemetry(TelemetryConfig::Off);
    let filter = by_name(filter_name).expect("registered");

    let before = allocations();
    let mut workspace = RoundWorkspace::new();
    let result = sim
        .run_dense(Launch::InProcess(&mut workspace), filter.as_ref(), &options)
        .expect("runs")
        .run;
    let after = allocations();
    assert_eq!(result.trace.len(), iterations + 1, "sanity");
    after - before
}

#[test]
fn dgd_inner_loop_allocates_nothing_per_iteration() {
    for (filter, byzantine) in [
        ("cge", true),
        ("cwtm", true),
        ("cwmed", true),
        ("mean", false),
        ("faba", true),
        ("norm-clipping", true),
    ] {
        // Warm-up run so lazy process-level allocations don't count.
        let _ = allocations_for_run(filter, byzantine, 5);
        let short = allocations_for_run(filter, byzantine, 10);
        let long = allocations_for_run(filter, byzantine, 210);
        let marginal = long.saturating_sub(short);
        // 200 extra iterations may only grow the trace (amortized Vec
        // doubling: a handful of reallocations). Before the refactor this
        // margin was ≥ n·200 = 1200 gradient allocations alone.
        assert!(
            marginal <= 32,
            "{filter}: {marginal} allocations across 200 extra iterations \
             (short run: {short}, long run: {long})"
        );
    }
}

#[test]
fn summary_only_observation_memory_does_not_grow_with_t() {
    // A `SummaryOnly` run records nothing per round: unlike the dense
    // trace (which grows a Vec with T), its allocation count must be
    // *independent* of the horizon — not merely amortized-constant.
    let run = |iterations: usize| {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem
            .subset_minimizer(&[1, 2, 3, 4, 5])
            .expect("full rank");
        let sim = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()));
        let options = RunOptions::paper_defaults_with_iterations(x_h, iterations)
            .with_aggregation_threads(1) // serial contract; see above
            .with_telemetry(TelemetryConfig::Off);
        let filter = by_name("cge").expect("registered");
        let mut workspace = abft_dgd::RoundWorkspace::new();
        let before = allocations();
        sim.run(
            Launch::InProcess(&mut workspace),
            filter.as_ref(),
            &options,
            &mut abft_core::observe::NullObserver,
        )
        .expect("runs");
        allocations() - before
    };
    let _ = run(5);
    let short = run(10);
    let long = run(410);
    assert_eq!(
        long, short,
        "a summary-only run's allocations must not scale with T \
         ({short} at T = 10 vs {long} at T = 410)"
    );
}

#[test]
fn every_cost_family_fills_its_row_in_place() {
    // The pins above only ever run the paper's regression cost. The
    // contract is the trait's: `gradient_into` is the required method, so
    // a summary-only run allocates the same at any horizon whichever
    // family produces the rows (a family that answered through a fresh
    // `Vector` would add one allocation per agent per round).
    let row = |a: f64, b: f64| Vector::from(vec![a, b]);
    let p = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).expect("rectangular");
    let features = Matrix::from_rows(&[&[1.0, 0.2], &[-0.9, 0.1]]).expect("rectangular");
    let families: [(&str, SharedCost); 4] = [
        (
            "quadratic",
            Arc::new(QuadraticCost::new(p, row(-1.0, 0.5), 0.0).expect("symmetric")),
        ),
        (
            "huber",
            Arc::new(HuberCost::new(row(0.8, -0.5), 1.2, 0.7).expect("delta > 0")),
        ),
        ("absolute", Arc::new(AbsoluteCost::new(0.3))),
        (
            "logistic",
            Arc::new(LogisticCost::new(features, vec![1.0, -1.0], 0.1).expect("valid")),
        ),
    ];
    let counts = families.map(|(family, cost)| {
        let dim = cost.dim();
        let config = SystemConfig::new(4, 1).expect("valid (n, f)");
        let filter = by_name("cge").expect("registered");
        let run = |iterations: usize| {
            let sim = DgdTask::new(config, vec![cost.clone(); 4]);
            let mut options =
                RunOptions::paper_defaults_with_iterations(Vector::zeros(dim), iterations)
                    .with_aggregation_threads(1) // serial contract; see above
                    .with_telemetry(TelemetryConfig::Off);
            options.x0 = Vector::from(vec![0.5; dim]);
            let mut workspace = RoundWorkspace::new();
            let before = allocations();
            sim.run(
                Launch::InProcess(&mut workspace),
                filter.as_ref(),
                &options,
                &mut abft_core::observe::NullObserver,
            )
            .expect("runs");
            allocations() - before
        };
        let _ = run(5);
        (family, run(10), run(410))
    });
    // (family, allocations at T = 10, at T = 410): exact equality, and
    // every offending family named at once.
    let scaling: Vec<_> = counts
        .iter()
        .filter(|(_, short, long)| long != short)
        .collect();
    assert!(scaling.is_empty(), "allocations scale with T: {scaling:?}");
}

#[test]
fn sharded_fill_allocates_nothing_per_iteration_after_warm_up() {
    // The same pin with the fill sharded over two workers — the threaded
    // backend's configuration of the loop. The first run on a workspace
    // spawns the pool's thread and sizes its queues; after that a round's
    // dispatch must cost the dispatching thread no allocation at all (each
    // chunk's piece waits for its worker on the dispatching thread's
    // stack), so the count cannot depend on the horizon.
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let filter = by_name("cge").expect("registered");
    let mut workspace = RoundWorkspace::new();
    let mut run = |iterations: usize| {
        let mut cells: Vec<AgentCell> = problem.costs().into_iter().map(AgentCell::new).collect();
        cells[0].forge(Box::new(GradientReverse::new()));
        let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), iterations)
            .with_aggregation_threads(1) // serial contract; see above
            .with_telemetry(TelemetryConfig::Off);
        let before = allocations();
        let mut observer = abft_core::observe::NullObserver;
        let telemetry = Telemetry::wall(options.telemetry);
        let honest = [1, 2, 3, 4, 5];
        let mut engine = RoundEngine::new(
            &cells,
            &honest,
            filter.as_ref(),
            &options,
            &mut observer,
            telemetry,
        )
        .expect("engine builds");
        let passed = workspace
            .run_rounds(&mut cells, 2, 1, &mut engine)
            .expect("runs");
        assert_eq!(passed.rounds_dispatched, iterations + 1, "sanity");
        allocations() - before
    };
    let _ = run(5);
    let short = run(10);
    let long = run(410);
    assert_eq!(
        long, short,
        "a sharded fill's allocations must not scale with T \
         ({short} at T = 10 vs {long} at T = 410)"
    );
}

#[test]
fn telemetry_hot_path_allocates_nothing() {
    // A disabled handle must be free: no clock reads is a contract checked
    // elsewhere; here we pin *no allocator traffic at all*.
    let mut off = Telemetry::wall(TelemetryConfig::Off);
    let before = allocations();
    for _ in 0..10_000 {
        let round = off.begin(Phase::Round);
        let fill = off.begin(Phase::GradientFill);
        off.end(fill);
        off.add(Counter::Rounds, 1);
        off.end(round);
    }
    assert!(off.finish().is_none(), "disabled handles produce no report");
    let disabled = allocations() - before;
    assert_eq!(disabled, 0, "disabled telemetry touched the allocator");

    // An enabled handle allocates once up front (the preallocated span
    // ring); its begin/end/add hot path must then stay allocation-free
    // even past ring wrap-around.
    let mut on = Telemetry::wall(TelemetryConfig::On);
    let before = allocations();
    for _ in 0..100_000 {
        let round = on.begin(Phase::Round);
        let fill = on.begin(Phase::GradientFill);
        on.end(fill);
        on.add(Counter::Rounds, 1);
        on.end(round);
    }
    let enabled = allocations() - before;
    assert_eq!(enabled, 0, "enabled hot path touched the allocator");
    let report = on.finish().expect("enabled handles report");
    assert_eq!(report.counter("rounds"), 100_000);
}

#[test]
fn omniscient_attacks_stay_on_the_zero_copy_path() {
    // ALIE reads honest gradients as batch rows; its forgery is staged in
    // a reused scratch vector. Marginal allocations must still be ~zero.
    let run = |iterations: usize| {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem
            .subset_minimizer(&[1, 2, 3, 4, 5])
            .expect("full rank");
        let sim = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(LittleIsEnough::new(1.0)));
        let options = RunOptions::paper_defaults_with_iterations(x_h, iterations)
            .with_aggregation_threads(1) // serial contract; see above
            .with_telemetry(TelemetryConfig::Off);
        let filter = by_name("cwtm").expect("registered");
        let before = allocations();
        let mut workspace = RoundWorkspace::new();
        sim.run_dense(Launch::InProcess(&mut workspace), filter.as_ref(), &options)
            .expect("runs");
        allocations() - before
    };
    let _ = run(5);
    let short = run(10);
    let long = run(210);
    assert!(
        long.saturating_sub(short) <= 32,
        "ALIE path allocates per iteration: {short} vs {long}"
    );
}

#[test]
fn krum_family_aggregation_allocates_nothing_after_warm_up() {
    // The Krum family works out of the batch's scratch arena — the n × n
    // distance matrix included: the first call at a shape sizes the
    // buffers, every later one must reuse them (n = 11 admits Bulyan's
    // f = 2).
    let rows: Vec<Vector> = (0..11)
        .map(|i| Vector::from_fn(64, |k| ((i * 7 + k * 3) % 11) as f64 + 0.1 * i as f64))
        .collect();
    let batch = batch_of(&rows).expect("batch builds");
    let mut out = Vector::zeros(64);
    for name in ["krum", "multi-krum", "bulyan"] {
        let filter = by_name(name).expect("registered");
        filter.aggregate_into(&batch, 2, &mut out).expect("warm-up");
        let before = allocations();
        for _ in 0..10 {
            filter
                .aggregate_into(&batch, 2, &mut out)
                .expect("aggregates");
        }
        assert_eq!(allocations() - before, 0, "{name} allocated after warm-up");
    }
}

#[test]
fn coordinate_wise_aggregation_allocates_nothing_after_warm_up() {
    // The column-tile filters work out of the scratch arena too: the
    // first call at a shape builds the sorting schedule and sizes the
    // row-major tile, every later one reuses both. Serial first, then
    // sharded over two workers, where warming up also spawns the pool's
    // thread and after it a dispatch costs the caller nothing (1100
    // columns clear the sharding floor and leave a partial tile).
    let rows: Vec<Vector> = (0..11)
        .map(|i| {
            Vector::from_fn(1100, |k| {
                ((i * 7 + k * 3) % 11) as f64 - 5.0 + 0.1 * i as f64
            })
        })
        .collect();
    let mut batch = batch_of(&rows).expect("batch builds");
    let mut out = Vector::zeros(1100);
    for threads in [1usize, 2] {
        batch.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
        for name in ["cwtm", "cwmed", "sign-majority", "bulyan"] {
            let filter = by_name(name).expect("registered");
            let mut calls = |count: usize| {
                let before = allocations();
                for _ in 0..count {
                    filter
                        .aggregate_into(&batch, 2, &mut out)
                        .expect("aggregates");
                }
                allocations() - before
            };
            calls(1);
            // Three windows, one of which must be clean: `std`'s channels
            // allocate (a parking context per thread, a waiter slot per
            // channel) the first time a dispatch's caller has to *wait*
            // for its worker, and which dispatch that is, is timing. Those
            // can dirty two windows at most; an allocation per call
            // dirties all three.
            let windows = [calls(10), calls(10), calls(10)];
            assert!(
                windows.contains(&0),
                "{name}, {threads} thread(s): {windows:?} allocations per 10 calls"
            );
        }
    }
}

#[test]
fn row_distance_aggregation_allocates_nothing_after_warm_up() {
    // The row-distance filters at a width past one column block (1100
    // columns: eight 128-column blocks and a partial one), where the Krum
    // family's pair matrix comes from the column-block kernel and every
    // row-to-centre pass walks four rows at a time. The block lives past
    // the distance matrix on the caller and in the pool's persistent
    // buffer on a worker; 11 × 1100 clears the sharding floor, so at two
    // threads the centre passes shard too. Same three windows as above.
    let rows: Vec<Vector> = (0..11)
        .map(|i| {
            Vector::from_fn(1100, |k| {
                ((i * 7 + k * 3) % 11) as f64 - 5.0 + 0.1 * i as f64
            })
        })
        .collect();
    let mut batch = batch_of(&rows).expect("batch builds");
    let mut out = Vector::zeros(1100);
    let filters = [
        "krum",
        "multi-krum",
        "bulyan",
        "geomed",
        "faba",
        "centered-clipping",
        "cge",
        "norm-clipping",
    ];
    for threads in [1usize, 2] {
        batch.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
        for name in filters {
            let filter = by_name(name).expect("registered");
            let mut calls = |count: usize| {
                let before = allocations();
                for _ in 0..count {
                    filter
                        .aggregate_into(&batch, 2, &mut out)
                        .expect("aggregates");
                }
                allocations() - before
            };
            calls(1);
            let windows = [calls(10), calls(10), calls(10)];
            assert!(
                windows.contains(&0),
                "{name}, {threads} thread(s): {windows:?} allocations per 10 calls"
            );
        }
    }
}
