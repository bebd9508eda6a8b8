//! Extension beyond the paper's quadratic evaluation: DGD + gradient
//! filters on logistic-regression and Huber costs, exercising the generic
//! `CostFunction` path of Section 4 on non-quadratic landscapes.

use approx_bft::attacks::GradientReverse;
use approx_bft::core::SystemConfig;
use approx_bft::dgd::{ProjectionSet, RoundWorkspace, RunOptions, StepSchedule};
use approx_bft::filters::{Cge, Cwtm, GradientFilter, Mean};
use approx_bft::linalg::rng::{gaussian_vector, seeded_rng};
use approx_bft::linalg::{Matrix, Vector};
use approx_bft::problems::huber::HuberCost;
use approx_bft::problems::logistic::LogisticCost;
use approx_bft::problems::SharedCost;
use approx_bft::runtime::{DgdTask, Launch};
use std::sync::Arc;

/// Builds n logistic agents over a common separable concept `w* = (2, −1)`,
/// each with its own locally-sampled data (heterogeneous but redundant).
fn logistic_costs(n: usize, samples_per_agent: usize, seed: u64) -> Vec<SharedCost> {
    let mut rng = seeded_rng(seed);
    let w_star = Vector::from(vec![2.0, -1.0]);
    (0..n)
        .map(|_| {
            let mut rows = Vec::with_capacity(samples_per_agent);
            let mut labels = Vec::with_capacity(samples_per_agent);
            for _ in 0..samples_per_agent {
                let z = gaussian_vector(&mut rng, 2, 0.0, 1.0);
                labels.push(if z.dot(&w_star) >= 0.0 { 1.0 } else { -1.0 });
                rows.push(z);
            }
            let features = Matrix::from_row_vectors(&rows).expect("consistent rows");
            Arc::new(LogisticCost::new(features, labels, 0.05).expect("valid")) as SharedCost
        })
        .collect()
}

fn run_logistic(filter: &dyn GradientFilter, byzantine: bool) -> Vector {
    let config = SystemConfig::new(7, 1).expect("valid");
    let costs = logistic_costs(7, 40, 11);
    let mut sim = DgdTask::new(config, costs);
    if byzantine {
        sim = sim.byzantine(0, Box::new(GradientReverse::new()));
    }
    let options = RunOptions {
        x0: Vector::zeros(2),
        iterations: 800,
        schedule: StepSchedule::Harmonic { numerator: 3.0 },
        projection: ProjectionSet::centered_box(-50.0, 50.0),
        reference: Vector::zeros(2), // distance series unused here
        aggregation_threads: RunOptions::default_aggregation_threads(),
        fleet_workers: RunOptions::default_fleet_workers(),
        telemetry: Default::default(),
        staleness_ns: None,
    };
    sim.run_dense(
        Launch::InProcess(&mut RoundWorkspace::new()),
        filter,
        &options,
    )
    .expect("runs")
    .run
    .final_estimate
}

#[test]
fn logistic_dgd_learns_the_separator_fault_free() {
    let w = run_logistic(&Mean::new(), false);
    // The learned direction must align with w* = (2, −1): positive first
    // coordinate, negative second, correct ratio within slack.
    assert!(w[0] > 0.0 && w[1] < 0.0, "wrong orientation: {w}");
    let ratio = w[0] / -w[1];
    assert!((1.0..4.0).contains(&ratio), "direction off: {w}");
}

#[test]
fn robust_filters_preserve_the_separator_under_reversal() {
    let reference = run_logistic(&Mean::new(), false);
    for filter in [&Cge::averaged() as &dyn GradientFilter, &Cwtm::new()] {
        let w = run_logistic(filter, true);
        // Same halfspace orientation as the fault-free solution.
        assert!(
            w.dot(&reference) > 0.0,
            "{} flipped the separator: {w} vs {reference}",
            filter.name()
        );
        assert!(w[0] > 0.0 && w[1] < 0.0, "{}: {w}", filter.name());
    }
}

#[test]
fn huber_regression_with_a_byzantine_agent() {
    // Huber agents share the paper's fan geometry; gradients are bounded,
    // which stresses CGE's norm sort differently from quadratics.
    let config = SystemConfig::new(6, 1).expect("valid");
    let paper = approx_bft::problems::RegressionProblem::paper_instance();
    let costs: Vec<SharedCost> = (0..6)
        .map(|i| {
            Arc::new(
                HuberCost::new(paper.matrix().row_vector(i), paper.observations()[i], 0.5)
                    .expect("valid delta"),
            ) as SharedCost
        })
        .collect();

    // Ground truth for the distance series: the quadratic x_H (Huber with
    // small residuals behaves quadratically near it).
    let x_h = paper.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
    let sim = DgdTask::new(config, costs).byzantine(0, Box::new(GradientReverse::new()));
    let options = RunOptions {
        x0: Vector::zeros(2),
        iterations: 1500,
        schedule: StepSchedule::Harmonic { numerator: 3.0 },
        projection: ProjectionSet::paper(),
        reference: x_h.clone(),
        aggregation_threads: RunOptions::default_aggregation_threads(),
        fleet_workers: RunOptions::default_fleet_workers(),
        telemetry: Default::default(),
        staleness_ns: None,
    };
    let run = sim
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
        )
        .expect("runs")
        .run;
    assert!(
        run.final_distance() < 0.15,
        "Huber + CGE ended at {}",
        run.final_distance()
    );
}

#[test]
fn logistic_gradients_are_bounded_on_the_box() {
    // Sanity for the filter preconditions: logistic gradients stay finite
    // and bounded over the projection set, so Theorem 3's ‖GradFilter‖ < ∞
    // hypothesis holds structurally.
    let costs = logistic_costs(3, 20, 5);
    for probe in [
        Vector::from(vec![0.0, 0.0]),
        Vector::from(vec![50.0, -50.0]),
        Vector::from(vec![-50.0, 50.0]),
    ] {
        for cost in &costs {
            let g = cost.gradient(&probe);
            assert!(!g.has_non_finite());
            // (1/m)Σ‖z‖·1 + reg·‖x‖ is a crude bound; just check magnitude.
            assert!(g.norm() < 100.0, "unexpectedly large gradient {g}");
        }
    }
}
