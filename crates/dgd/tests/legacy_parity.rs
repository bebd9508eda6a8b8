//! Trajectory parity with the pre-refactor driver: the `GradientBatch`
//! pipeline must reproduce the seed's per-`Vector` DGD loop **bit for
//! bit**. This test reimplements the legacy loop verbatim (scattered
//! `Vec<Vector>` rounds, allocating CGE, `x − η·g` materialized per
//! step) and compares final estimates and whole traces exactly.

use abft_attacks::{AttackContext, ByzantineStrategy, GradientReverse, RandomGaussian};
use abft_dgd::{RoundWorkspace, RunOptions};
use abft_filters::Cge;
use abft_linalg::Vector;
use abft_problems::RegressionProblem;
use abft_runtime::{DgdTask, Launch};

/// The seed's CGE: full index sort by norm, `Vector` accumulation.
fn legacy_cge(gradients: &[Vector], f: usize) -> Vector {
    let mut order: Vec<usize> = (0..gradients.len()).collect();
    order.sort_by(|&i, &j| {
        gradients[i]
            .norm()
            .total_cmp(&gradients[j].norm())
            .then(i.cmp(&j))
    });
    order.truncate(gradients.len() - f);
    let mut acc = Vector::zeros(gradients[0].dim());
    for &i in &order {
        acc += &gradients[i];
    }
    acc
}

/// The seed's driver loop for a single Byzantine agent 0 and no crashes:
/// honest gradients collected as fresh `Vector`s in agent order, the
/// update materialized as `[x − η·CGE(round)]_W`.
fn legacy_run(
    problem: &RegressionProblem,
    mut strategy: Box<dyn ByzantineStrategy>,
    options: &RunOptions,
) -> Vector {
    let costs = problem.costs();
    let f = problem.config().f();
    let mut x = options.projection.project(&options.x0);
    for t in 0..options.iterations {
        let mut round = Vec::with_capacity(costs.len());
        for (i, cost) in costs.iter().enumerate() {
            let mut true_gradient = Vector::zeros(x.dim());
            cost.gradient_into(&x, true_gradient.as_mut_slice());
            if i == 0 {
                let ctx = AttackContext::new(t, &true_gradient, &x);
                let mut forged = Vector::zeros(x.dim());
                strategy.corrupt_into(&ctx, forged.as_mut_slice());
                round.push(forged);
            } else {
                round.push(true_gradient);
            }
        }
        let aggregated = legacy_cge(&round, f);
        let eta = options.schedule.eta(t);
        let step = &x - &aggregated.scale(eta);
        x = options.projection.project(&step);
    }
    x
}

#[test]
fn batch_driver_reproduces_legacy_trajectory_bit_for_bit() {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");

    type MakeStrategy = fn() -> Box<dyn ByzantineStrategy>;
    let strategies: [(&str, MakeStrategy); 2] = [
        ("gradient-reverse", || Box::new(GradientReverse::new())),
        ("random", || Box::new(RandomGaussian::paper(7))),
    ];
    for (label, make_strategy) in strategies {
        let options = RunOptions::paper_defaults_with_iterations(x_h.clone(), 200);
        let legacy = legacy_run(&problem, make_strategy(), &options);

        let sim = DgdTask::new(*problem.config(), problem.costs()).byzantine(0, make_strategy());
        let batch = sim
            .run_dense(
                Launch::InProcess(&mut RoundWorkspace::new()),
                &Cge::new(),
                &options,
            )
            .expect("runs")
            .run;

        assert!(
            batch.final_estimate.approx_eq(&legacy, 0.0),
            "{label}: batch driver {} != legacy driver {legacy}",
            batch.final_estimate
        );
    }
}
