//! Table 1 and Figures 2–3: the distributed linear regression experiments.
//!
//! Every execution here is one [`Scenario`] on the in-process backend; the
//! historical hand-wired driver setup lives inside the builder.

use abft_core::csv::CsvTable;
use abft_dgd::RunOptions;
use abft_linalg::Vector;
use abft_problems::RegressionProblem;
use abft_redundancy::{measure_redundancy, RegressionOracle};
use abft_scenario::{Backend, InProcess, RunReport, Scenario};
use std::error::Error;
use std::path::Path;

/// The paper's two simulated fault behaviours (registry names).
const ATTACKS: [&str; 2] = ["gradient-reverse", "random"];

/// Seed for the random attack (fixed across runs for reproducibility).
const ATTACK_SEED: u64 = 2021;

/// Runs one execution with agent 0 Byzantine (or fault-free with the agent
/// omitted when `attack` is `None` — the paper's blue baseline).
fn run_execution(
    problem: &RegressionProblem,
    x_h: &Vector,
    attack: Option<&str>,
    filter: &str,
    iterations: usize,
) -> Result<RunReport, Box<dyn Error>> {
    let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), iterations);
    let scenario = match attack {
        Some(name) => Scenario::builder()
            .problem(problem)
            .faults(1)
            .attack_seeded(0, name, ATTACK_SEED)
            .filter(filter)
            .options(options)
            .build()?,
        None => {
            // Fault-free: the faulty agent is omitted entirely (n = 5, f = 0).
            let config = abft_core::SystemConfig::new(5, 0)?;
            let a = problem.matrix().select_rows(&[1, 2, 3, 4, 5]);
            let b = Vector::from_fn(5, |k| problem.observations()[k + 1]);
            let sub = RegressionProblem::new(config, a, b)?;
            Scenario::builder()
                .problem(&sub)
                .filter(filter)
                .options(options)
                .build()?
        }
    };
    Ok(InProcess.run(&scenario)?)
}

/// Reproduces Table 1: `x_out = x_500` and `dist(x_H, x_out)` for CGE and
/// CWTM under the gradient-reverse and random faults.
pub fn table1(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;
    let eps = measure_redundancy(&RegressionOracle::new(&problem), *problem.config())?.epsilon;

    let mut table = CsvTable::new(vec![
        "filter".into(),
        "attack".into(),
        "x_out[0]".into(),
        "x_out[1]".into(),
        "dist(x_H, x_out)".into(),
        "< eps".into(),
    ]);
    for (name, filter) in [("CGE", "cge"), ("CWTM", "cwtm")] {
        for attack in ATTACKS {
            let result = run_execution(&problem, &x_h, Some(attack), filter, 500)?;
            let d = result.final_distance();
            table.push_row(vec![
                name.to_string(),
                attack.to_string(),
                format!("{:.4}", result.final_estimate[0]),
                format!("{:.4}", result.final_estimate[1]),
                format!("{d:.3e}"),
                (d < eps).to_string(),
            ])?;
        }
    }

    println!("=== Table 1: x_out and approximation error after 500 iterations ===");
    println!("(x_H = {x_h}, eps = {eps:.4})\n");
    print!("{}", table.to_aligned_string());
    table.write_to_path(out_dir.join("table1.csv"))?;
    println!("\nwrote {}", out_dir.join("table1.csv").display());
    Ok(())
}

/// Reproduces the Figure 2 / Figure 3 series: honest aggregate loss and
/// distance to `x_H` per iteration, for fault-free DGD, DGD+CGE, DGD+CWTM
/// and plain averaging, under both fault behaviours.
pub fn figure2(out_dir: &Path, iterations: usize, tag: &str) -> Result<(), Box<dyn Error>> {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;

    println!("=== {tag}: loss & distance series over {iterations} iterations ===\n");
    let mut summary = CsvTable::new(vec![
        "attack".into(),
        "algorithm".into(),
        "final loss".into(),
        "final distance".into(),
    ]);

    for attack in ATTACKS {
        // The four curves of the figure.
        let runs: [(&str, Option<&str>, &str); 4] = [
            ("fault-free", None, "mean"),
            ("CWTM", Some(attack), "cwtm"),
            ("CGE", Some(attack), "cge"),
            ("plain-gd", Some(attack), "mean"),
        ];
        let mut series = CsvTable::new(vec![
            "iteration".into(),
            "algorithm".into(),
            "loss".into(),
            "distance".into(),
        ]);
        for (label, maybe_attack, filter) in &runs {
            let result = run_execution(&problem, &x_h, *maybe_attack, filter, iterations)?;
            let trace = result
                .trace
                .as_ref()
                .expect("experiments record full traces");
            for r in trace.records() {
                series.push_row(vec![
                    r.iteration.to_string(),
                    label.to_string(),
                    format!("{:.6e}", r.loss),
                    format!("{:.6e}", r.distance),
                ])?;
            }
            let last = trace.final_record().expect("non-empty trace");
            summary.push_row(vec![
                attack.to_string(),
                label.to_string(),
                format!("{:.3e}", last.loss),
                format!("{:.3e}", last.distance),
            ])?;
        }
        let path = out_dir.join(format!("{tag}_{attack}.csv"));
        series.write_to_path(&path)?;
        println!("wrote {}", path.display());
    }

    println!("\nfinal values (the figure's annotated endpoints):\n");
    print!("{}", summary.to_aligned_string());
    summary.write_to_path(out_dir.join(format!("{tag}_summary.csv")))?;
    Ok(())
}
