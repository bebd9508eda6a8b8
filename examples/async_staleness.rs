//! Asynchronous bounded-staleness execution.
//!
//! The paper's system model is synchronous: every iteration is a lockstep
//! round in which the server hears every live agent before it moves. The
//! `Simulated::async_server` backend drops that assumption — agents fire
//! gradient computations on their own (seeded, jittered) clocks while the
//! server aggregates on a fixed step cadence, keeping only the rows whose
//! age in virtual time is at most the staleness bound τ and shrinking the
//! filter's trim budget to `f − #excluded` for the rows it lost.
//!
//! Three studies on the paper instance (CGE vs a gradient-reversing
//! Byzantine agent):
//!
//! 1. the equivalence anchor — at unbounded τ over ideal links with zero
//!    clock jitter, the async server IS the synchronous server, bit for
//!    bit;
//! 2. a τ × drop-probability sweep under jittered agent clocks, showing
//!    how tighter bounds trade stale-row exclusions against staleness in
//!    the estimate;
//! 3. a constant-memory `CsvStreamer` recording of one lossy async run.
//!
//! Run with: `cargo run --release --example async_staleness`

use approx_bft::core::observe::CsvStreamer;
use approx_bft::dgd::RunOptions;
use approx_bft::filters::Cge;
use approx_bft::problems::RegressionProblem;
use approx_bft::runtime::{DgdTask, Launch, SimulatedRun};
use approx_bft::scenario::{
    AsyncConfig, Backend, LinkModel, NetworkModel, Scenario, Simulated, Threaded,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = RegressionProblem::paper_instance(); // n = 6, f = 1
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;
    const ITERATIONS: usize = 300;
    const STEP: u64 = NetworkModel::DEFAULT_ROUND_TIMEOUT_NS;

    let scenario = Scenario::builder()
        .problem(&problem)
        .faults(1)
        .attack(0, "gradient-reverse")
        .filter("cge")
        .options(RunOptions::paper_defaults_with_iterations(
            x_h.clone(),
            ITERATIONS,
        ))
        .build()?;

    // ── 1. The equivalence anchor ────────────────────────────────────────
    // Unbounded τ, ideal links, zero clock jitter: every agent's
    // iteration-t gradient is fresh at step t, so the async server
    // reproduces the synchronous round exactly.
    let asynchronous = Simulated::async_server(NetworkModel::ideal(), AsyncConfig::new());
    let anchor = asynchronous.run(&scenario)?;
    let threaded = Threaded.run(&scenario)?;
    println!(
        "unbounded-τ async server matches the threaded server bit-for-bit: {}",
        anchor.trace == threaded.trace
    );
    println!(
        "  {} aggregation steps, {} stale rows, clock skew {} ns\n",
        anchor.metrics.async_steps, anchor.metrics.stale_rows, anchor.metrics.clock_skew_ns
    );

    // ── 2. τ × drop sweep under jittered clocks ──────────────────────────
    // Agents' compute times now jitter by up to 0.3 ms around the step
    // interval of 1 ms, and links drop replies. A tighter τ excludes more
    // rows (each exclusion shrinks the trim budget that step); an
    // unbounded τ instead aggregates whatever old row is parked.
    println!("τ × drop sweep (seed 7, clock jitter 0.3 ms, CGE vs gradient-reverse):");
    println!(
        "{:>8}  {:>6}  {:>10}  {:>11}  {:>10}  {:>12}",
        "tau", "drop", "dist", "stale rows", "dropped", "skew (ms)"
    );
    let taus: [(&str, u64); 3] = [("inf", u64::MAX), ("2 step", 2 * STEP), ("1 step", STEP)];
    for (tau_label, tau) in taus {
        for drop in [0.0, 0.1, 0.2] {
            let bounded = Scenario::builder()
                .problem(&problem)
                .faults(1)
                .attack(0, "gradient-reverse")
                .filter("cge")
                .staleness(tau)
                .options(RunOptions::paper_defaults_with_iterations(
                    x_h.clone(),
                    ITERATIONS,
                ))
                .build()?;
            let model = NetworkModel::seeded(7)
                .with_default_link(LinkModel::ideal().with_drop(drop).with_reorder_ns(2_000));
            let report = Simulated::async_server(
                model,
                AsyncConfig::new()
                    .with_compute_jitter_ns(300_000)
                    .with_clock_seed(7),
            )
            .run(&bounded)?;
            println!(
                "{:>8}  {:>6.2}  {:>10.5}  {:>11}  {:>10}  {:>12.3}",
                tau_label,
                drop,
                report.final_distance(),
                report.metrics.stale_rows,
                report.metrics.net.dropped,
                report.metrics.clock_skew_ns as f64 / 1e6,
            );
        }
    }

    // ── 3. Constant-memory CSV of one lossy async run ────────────────────
    // The observation layer works per aggregation step, so the driver-level
    // streaming observers compose with the async server unchanged.
    let dir = std::env::temp_dir().join("abft_async_staleness");
    std::fs::create_dir_all(&dir)?;
    let csv_path = dir.join("cge_async_tau2.csv");
    let sim = SimulatedRun::async_server(
        NetworkModel::seeded(7).with_default_link(LinkModel::ideal().with_drop(0.1)),
        AsyncConfig::new()
            .with_compute_jitter_ns(300_000)
            .with_clock_seed(7),
    );
    let mut streamer = CsvStreamer::create(&csv_path)?.subsample(10);
    let outcome = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(approx_bft::attacks::GradientReverse::new()))
        .run(
            Launch::Simulated(&sim),
            &Cge::new(),
            &RunOptions::paper_defaults_with_iterations(x_h, ITERATIONS)
                .with_staleness_ns(2 * STEP),
            &mut streamer,
        )?;
    streamer.finish()?;
    println!(
        "\nstreamed every-10th step to {} ({} steps, {} stale rows, dist = {:.5})",
        csv_path.display(),
        outcome.counters.async_steps,
        outcome.counters.stale_rows,
        outcome.run.summary.final_distance(),
    );
    Ok(())
}
