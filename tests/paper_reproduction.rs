//! End-to-end reproduction checks for the paper's reported numbers:
//! Section 5 scalars, Table 1, and the qualitative shape of Figures 2–3.

use approx_bft::attacks::{GradientReverse, RandomGaussian};
use approx_bft::core::SystemConfig;
use approx_bft::dgd::{RoundWorkspace, RunOptions};
use approx_bft::filters::{Cge, Cwtm, GradientFilter, Mean};
use approx_bft::linalg::Vector;
use approx_bft::problems::analysis::convexity_constants;
use approx_bft::problems::RegressionProblem;
use approx_bft::redundancy::{measure_redundancy, RegressionOracle};
use approx_bft::runtime::{DgdTask, Launch};

const HONEST: [usize; 5] = [1, 2, 3, 4, 5];

fn paper_epsilon(problem: &RegressionProblem) -> f64 {
    measure_redundancy(&RegressionOracle::new(problem), *problem.config())
        .expect("measurable")
        .epsilon
}

#[test]
fn section_5_scalars_match_the_paper() {
    let problem = RegressionProblem::paper_instance();
    let eps = paper_epsilon(&problem);
    assert!((eps - 0.0890).abs() < 5e-4, "eps = {eps} vs paper 0.0890");

    let x_h = problem.subset_minimizer(&HONEST).expect("full rank");
    assert!((x_h[0] - 1.0780).abs() < 5e-4, "x_H[0] = {}", x_h[0]);
    assert!((x_h[1] - 0.9825).abs() < 5e-4, "x_H[1] = {}", x_h[1]);

    let c = convexity_constants(&problem).expect("computable");
    assert!((c.mu - 2.0).abs() < 1e-9, "mu = {} vs paper 2", c.mu);
    assert!(
        (c.gamma - 0.712).abs() < 5e-4,
        "gamma = {} vs paper 0.712",
        c.gamma
    );
}

/// Runs one Table-1 cell and returns the final distance to x_H.
fn table1_cell(filter: &dyn GradientFilter, random_attack: bool) -> f64 {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&HONEST).expect("full rank");
    let attack: Box<dyn approx_bft::attacks::ByzantineStrategy> = if random_attack {
        Box::new(RandomGaussian::paper(2021))
    } else {
        Box::new(GradientReverse::new())
    };
    let sim = DgdTask::new(*problem.config(), problem.costs()).byzantine(0, attack);
    sim.run_dense(
        Launch::InProcess(&mut RoundWorkspace::new()),
        filter,
        &RunOptions::paper_defaults(x_h),
    )
    .expect("cell runs")
    .run
    .final_distance()
}

#[test]
fn table_1_all_cells_within_epsilon() {
    let problem = RegressionProblem::paper_instance();
    let eps = paper_epsilon(&problem);
    // The paper's headline claim: in all executions dist(x_H, x_out) < eps.
    for (filter, attack) in [(true, true), (true, false), (false, true), (false, false)] {
        let d = if filter {
            table1_cell(&Cge::new(), attack)
        } else {
            table1_cell(&Cwtm::new(), attack)
        };
        assert!(
            d < eps,
            "{} under {} ended at {d} >= eps = {eps}",
            if filter { "CGE" } else { "CWTM" },
            if attack { "random" } else { "gradient-reverse" }
        );
    }
}

#[test]
fn plain_averaging_is_visibly_worse() {
    let robust = table1_cell(&Cge::new(), false);
    let naive = table1_cell(&Mean::new(), false);
    assert!(
        naive > 10.0 * robust.max(1e-4),
        "plain GD ({naive}) should be far worse than CGE ({robust})"
    );
}

#[test]
fn figure_2_shapes_hold() {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&HONEST).expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), 1500);

    // CGE curve: distance shrinks by orders of magnitude and the loss
    // approaches the honest optimum.
    let sim = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()));
    let run = sim
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
        )
        .expect("runs")
        .run;
    let first = run.trace.records().first().expect("non-empty");
    let last = run.trace.final_record().expect("non-empty");
    assert!(last.distance < 1e-3 * first.distance.max(1e-9) + 1e-6);
    // Honest loss at x_H is the noise floor; the run must reach within 1%.
    let loss_floor = problem.subset_loss(&HONEST, &x_h);
    assert!(last.loss <= loss_floor * 1.01 + 1e-9);

    // Plain-GD curve under the same fault settles strictly farther away.
    let naive = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()));
    let naive_run = naive
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Mean::new(),
            &options,
        )
        .expect("runs")
        .run;
    assert!(naive_run.final_distance() > 10.0 * run.final_distance().max(1e-4));
}

#[test]
fn figure_3_zoom_is_a_prefix_of_figure_2() {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&HONEST).expect("full rank");
    let sim = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()));
    let long = sim
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cwtm::new(),
            &RunOptions::paper_defaults_with_iterations(x_h.clone(), 1500),
        )
        .expect("runs")
        .run;
    let sim2 = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()));
    let short = sim2
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cwtm::new(),
            &RunOptions::paper_defaults_with_iterations(x_h, 80),
        )
        .expect("runs")
        .run;
    // Determinism: the 80-iteration run is exactly the long run's prefix.
    for (a, b) in short.trace.records()[..80]
        .iter()
        .zip(&long.trace.records()[..80])
    {
        assert_eq!(a, b);
    }
}

#[test]
fn fault_free_dgd_reaches_the_global_minimizer() {
    // The blue baseline of Figures 2–3: the faulty agent omitted, plain
    // averaging over the five honest agents.
    let config = SystemConfig::new(5, 0).expect("valid");
    let paper = RegressionProblem::paper_instance();
    let a = paper.matrix().select_rows(&[1, 2, 3, 4, 5]);
    let b = Vector::from_fn(5, |k| paper.observations()[k + 1]);
    let problem = RegressionProblem::new(config, a, b).expect("shapes match");
    let x_h = problem
        .subset_minimizer(&[0, 1, 2, 3, 4])
        .expect("full rank");
    let sim = DgdTask::new(config, problem.costs());
    let run = sim
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Mean::new(),
            &RunOptions::paper_defaults(x_h),
        )
        .expect("runs")
        .run;
    assert!(run.final_distance() < 1e-2, "d = {}", run.final_distance());
}
