//! Resilience of every registered filter against every registered attack on
//! a paper-like fan instance — the integration-level filter grid.

use approx_bft::attacks::{attack_by_name, ScaledReverse, ATTACK_NAMES};
use approx_bft::core::SystemConfig;
use approx_bft::dgd::{RoundWorkspace, RunOptions};
use approx_bft::filters::by_name;
use approx_bft::linalg::Vector;
use approx_bft::problems::RegressionProblem;
use approx_bft::redundancy::{measure_redundancy, RegressionOracle};
use approx_bft::runtime::{DgdTask, Launch};

/// Builds the shared test instance: n = 9 agents (so even Bulyan's
/// n ≥ 4f + 3 holds at f = 1), fan geometry, small noise.
fn instance() -> (RegressionProblem, Vector, f64) {
    let config = SystemConfig::new(9, 1).expect("valid");
    let problem = RegressionProblem::fan(config, 160.0, 0.02, 424242).expect("generable");
    let honest: Vec<usize> = (1..9).collect();
    let x_h = problem.subset_minimizer(&honest).expect("full rank");
    let eps = measure_redundancy(&RegressionOracle::new(&problem), config)
        .expect("measurable")
        .epsilon;
    (problem, x_h, eps)
}

fn run_cell(problem: &RegressionProblem, x_h: &Vector, filter: &str, attack: &str) -> f64 {
    let filter = by_name(filter).expect("registered filter");
    let attack = attack_by_name(attack, 7).expect("registered attack");
    let sim = DgdTask::new(*problem.config(), problem.costs()).byzantine(0, attack);
    let mut options = RunOptions::paper_defaults(x_h.clone());
    options.x0 = Vector::zeros(2);
    options.iterations = 1000;
    sim.run_dense(
        Launch::InProcess(&mut RoundWorkspace::new()),
        filter.as_ref(),
        &options,
    )
    .expect("cell runs")
    .run
    .final_distance()
}

/// Filters with a hull/selection guarantee: their error should stay within a
/// small multiple of the redundancy gap on this well-conditioned instance.
const TIGHT_FILTERS: [&str; 6] = ["cge", "cge-avg", "cwtm", "cwmed", "geomed", "bulyan"];

#[test]
fn tight_filters_stay_near_epsilon_under_every_attack() {
    let (problem, x_h, eps) = instance();
    for filter in TIGHT_FILTERS {
        for attack in ATTACK_NAMES {
            let d = run_cell(&problem, &x_h, filter, attack);
            assert!(
                d <= 10.0 * eps,
                "{filter} under {attack}: d = {d} > 10eps = {}",
                10.0 * eps
            );
        }
    }
}

#[test]
fn selection_filters_are_bounded_but_looser() {
    // Krum-family filters select whole gradients; they stay bounded (no
    // blow-up) but pay a heterogeneity floor above eps.
    let (problem, x_h, _) = instance();
    for filter in ["krum", "multi-krum", "gmom", "sign-majority"] {
        for attack in ATTACK_NAMES {
            let d = run_cell(&problem, &x_h, filter, attack);
            assert!(d <= 5.0, "{filter} under {attack}: d = {d} unbounded");
        }
    }
}

#[test]
fn mean_explodes_under_scaled_reverse() {
    let (problem, x_h, eps) = instance();
    let d = run_cell(&problem, &x_h, "mean", "scaled-reverse");
    assert!(
        d > 100.0 * eps,
        "mean should be destroyed by scaled-reverse, got {d}"
    );
}

#[test]
fn robust_filters_beat_mean_under_strong_attacks() {
    let (problem, x_h, _) = instance();
    for attack in ["scaled-reverse", "random"] {
        let naive = run_cell(&problem, &x_h, "mean", attack);
        for filter in ["cge", "cwtm"] {
            let robust = run_cell(&problem, &x_h, filter, attack);
            assert!(
                robust < naive,
                "{filter} ({robust}) not better than mean ({naive}) under {attack}"
            );
        }
    }
}

#[test]
fn multiple_scaled_reverse_attackers_within_the_alpha_margin() {
    // n = 12, f = 2 keeps Theorem 4's margin α ≈ 0 but empirically safe:
    // CGE and CWTM still land near x_H with two colluding low-norm
    // reversers.
    let config = SystemConfig::new(12, 2).expect("valid");
    let problem = RegressionProblem::fan(config, 160.0, 0.02, 99).expect("generable");
    let honest: Vec<usize> = (2..12).collect();
    let x_h = problem.subset_minimizer(&honest).expect("full rank");
    let eps = measure_redundancy(&RegressionOracle::new(&problem), config)
        .expect("measurable")
        .epsilon;
    for filter_name in ["cge", "cwtm"] {
        let filter = by_name(filter_name).expect("registered");
        let mut sim = DgdTask::new(config, problem.costs());
        for agent in 0..2 {
            sim = sim.byzantine(agent, Box::new(ScaledReverse::new(0.5)));
        }
        let mut options = RunOptions::paper_defaults(x_h.clone());
        options.x0 = Vector::zeros(2);
        options.iterations = 1000;
        let d = sim
            .run_dense(
                Launch::InProcess(&mut RoundWorkspace::new()),
                filter.as_ref(),
                &options,
            )
            .expect("runs")
            .run
            .final_distance();
        assert!(
            d <= 20.0 * eps + 0.05,
            "{filter_name} with 2 attackers: d = {d}, eps = {eps}"
        );
    }
}

#[test]
fn cge_loses_its_guarantee_past_the_alpha_threshold() {
    // The same setup at f = 3 crosses Theorem 4's admissibility threshold
    // (α = 1 − (f/n)(1 + 2µ/γ) < 0 on this geometry) and CGE demonstrably
    // fails — the fault-tolerance boundary is real, not slack in the proof.
    let config = SystemConfig::new(12, 3).expect("valid");
    let problem = RegressionProblem::fan(config, 160.0, 0.02, 99).expect("generable");
    let honest: Vec<usize> = (3..12).collect();
    let x_h = problem.subset_minimizer(&honest).expect("full rank");

    let constants =
        approx_bft::problems::analysis::convexity_constants(&problem).expect("computable");
    let alpha = approx_bft::redundancy::cge_alpha(12, 3, constants.mu, constants.gamma);
    assert!(alpha < 0.0, "this instance should violate the alpha margin");

    let mut sim = DgdTask::new(config, problem.costs());
    for agent in 0..3 {
        sim = sim.byzantine(agent, Box::new(ScaledReverse::new(0.5)));
    }
    let mut options = RunOptions::paper_defaults(x_h);
    options.x0 = Vector::zeros(2);
    options.iterations = 1000;
    let d = sim
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &approx_bft::filters::Cge::new(),
            &options,
        )
        .expect("runs")
        .run
        .final_distance();
    assert!(
        d > 1.0,
        "expected CGE to fail past the threshold, got d = {d}"
    );
}

#[test]
fn crash_faults_are_tolerated_by_every_robust_filter() {
    let (problem, x_h, _) = instance();
    for filter_name in TIGHT_FILTERS {
        let filter = by_name(filter_name).expect("registered");
        let sim = DgdTask::new(*problem.config(), problem.costs()).crash(4, 25);
        let mut options = RunOptions::paper_defaults(x_h.clone());
        options.x0 = Vector::zeros(2);
        options.iterations = 600;
        let result = sim
            .run_dense(
                Launch::InProcess(&mut RoundWorkspace::new()),
                filter.as_ref(),
                &options,
            )
            .expect("runs")
            .run;
        // After elimination the system is fault-free; remaining agents still
        // have (2f)-redundant data, so convergence lands near x_H. The
        // reference x_H excludes agent 0 but includes the crashed agent 4 —
        // allow the per-subset spread.
        assert!(
            result.final_distance() < 0.1,
            "{filter_name} after crash: d = {}",
            result.final_distance()
        );
    }
}
