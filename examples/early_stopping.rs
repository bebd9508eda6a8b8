//! Streaming observation and convergence-triggered early stopping.
//!
//! The paper's guarantees are `lim sup` statements — the estimate *settles
//! inside* a ball around the honest minimizer — so running a fixed horizon
//! `T` is usually wasted work: once the estimate has demonstrably settled,
//! every further round is throughput spent confirming what is already
//! known. This example shows the observation API end to end:
//!
//! 1. `HaltRule::Converged` on a `Scenario` stops the run — at the *same*
//!    round on every backend, deterministically — once the distance has
//!    stayed inside the ball for a full window.
//! 2. `Recording::SummaryOnly` turns per-round instrumentation off for
//!    pure-throughput runs: no honest-cost pass per round, no memory
//!    growth with `T`, yet the always-present `RunSummary` still reports
//!    the final record and why the run stopped.
//! 3. At the driver level, observers compose as tuples: a `CsvStreamer`
//!    writes the (subsampled) trace to disk in constant memory while a
//!    `ConvergenceHalt` decides when to stop.
//!
//! Run with: `cargo run --release --example early_stopping`

use approx_bft::core::observe::{ConvergenceHalt, CsvStreamer, HaltReason};
use approx_bft::dgd::{RoundWorkspace, RunOptions};
use approx_bft::filters::Cge;
use approx_bft::problems::RegressionProblem;
use approx_bft::runtime::{DgdTask, Launch};
use approx_bft::scenario::{
    Backend, HaltRule, InProcess, NetworkModel, PeerToPeer, Recording, Scenario, Simulated,
    Threaded,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;
    const HORIZON: usize = 5_000;

    // ── 1. Convergence-triggered termination, identical on every backend ─
    // Stop once ‖x_t − x_H‖ ≤ 0.05 has held for 25 consecutive rounds.
    let scenario = Scenario::builder()
        .problem(&problem)
        .faults(1)
        .attack(0, "gradient-reverse")
        .filter("cge")
        .options(RunOptions::paper_defaults_with_iterations(
            x_h.clone(),
            HORIZON,
        ))
        .halt(HaltRule::Converged {
            radius: 0.05,
            slack: 0.0,
            window: 25,
        })
        .build()?;

    println!("halt rule: distance ≤ 0.05 for 25 consecutive rounds (T = {HORIZON})\n");
    let backends: Vec<(&str, Box<dyn Backend>)> = vec![
        ("in-process", Box::new(InProcess)),
        ("threaded", Box::new(Threaded)),
        ("peer-to-peer", Box::new(PeerToPeer::default())),
        (
            "simulated-server",
            Box::new(Simulated::server(NetworkModel::ideal())),
        ),
    ];
    for (name, backend) in &backends {
        let report = backend.run(&scenario)?;
        let halted = match report.summary.halt {
            HaltReason::Observer { at_iteration } => format!("halted at t = {at_iteration}"),
            HaltReason::Completed => "ran the full horizon".to_string(),
        };
        println!(
            "{name:<17} {halted}  dist = {:.2e}  rounds = {} / {}",
            report.final_distance(),
            report.summary.rounds,
            HORIZON + 1,
        );
    }

    // ── 2. Instrumentation off: SummaryOnly throughput mode ──────────────
    // Same scenario, no halt rule, no per-round recording: the run skips
    // the honest-cost pass entirely and allocates nothing that grows with
    // T — the summary still carries the final record.
    let throughput = Scenario::builder()
        .problem(&problem)
        .faults(1)
        .attack(0, "gradient-reverse")
        .filter("cge")
        .options(RunOptions::paper_defaults_with_iterations(
            x_h.clone(),
            HORIZON,
        ))
        .record(Recording::SummaryOnly)
        .build()?;
    let report = InProcess.run(&throughput)?;
    println!(
        "\nSummaryOnly over the full horizon: trace recorded = {}, \
         final dist = {:.2e}, rounds = {}",
        report.trace.is_some(),
        report.final_distance(),
        report.summary.rounds,
    );

    // ── 3. Constant-memory CSV streaming at the driver level ─────────────
    // Observers compose as tuples: stream every 10th record to disk
    // through a BufWriter while the halt rule watches the distance.
    let dir = std::env::temp_dir().join("abft_early_stopping");
    std::fs::create_dir_all(&dir)?;
    let csv_path = dir.join("cge_gradient_reverse.csv");
    let sim = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(approx_bft::attacks::GradientReverse::new()));
    let options = RunOptions::paper_defaults_with_iterations(x_h, HORIZON);
    let mut observer = (
        CsvStreamer::create(&csv_path)?.subsample(10),
        ConvergenceHalt::new(0.05, 0.0, 25),
    );
    let run = sim
        .run(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
            &mut observer,
        )?
        .run;
    let (streamer, halt) = observer;
    streamer.finish()?;
    println!(
        "\nstreamed every-10th record to {} ({} rounds executed, streak = {})",
        csv_path.display(),
        run.summary.rounds,
        halt.streak(),
    );
    let bytes = std::fs::metadata(&csv_path)?.len();
    println!("file size: {bytes} bytes — constant memory no matter the horizon");
    Ok(())
}
