//! Adversarial non-finite input, end to end: a Byzantine agent forging
//! NaN/∞ gradients must surface as a clean `ScenarioError` (the filters'
//! `FilterError::NonFinite` entry guard) on **every** backend — never as a
//! process abort — including when the aggregation path is sharded across
//! worker threads. The aggregator is the trusted core of the robust-DGD
//! architecture; an input a Byzantine agent controls must not be able to
//! panic it.

use abft_attacks::{AttackContext, ByzantineStrategy};
use abft_dgd::{DgdError, RunOptions};
use abft_problems::RegressionProblem;
use abft_runtime::RuntimeError;
use abft_scenario::{
    AsyncConfig, Backend, InProcess, NetworkModel, PeerToPeer, Scenario, ScenarioError, Simulated,
    Threaded,
};

/// Forges `NaN` in every coordinate (with one `∞` for variety) from a
/// chosen iteration on, behaving honestly before it — so the run is past
/// validation and mid-descent when the poison arrives.
struct NonFiniteForge {
    from_iteration: usize,
}

impl ByzantineStrategy for NonFiniteForge {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        if ctx.iteration < self.from_iteration {
            out.copy_from_slice(ctx.true_gradient.as_slice());
        } else {
            out.fill(f64::NAN);
            if let Some(first) = out.first_mut() {
                *first = f64::INFINITY;
            }
        }
    }

    fn name(&self) -> &'static str {
        "non-finite-forge"
    }
}

fn scenario(threads: usize, from_iteration: usize) -> Scenario {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    Scenario::builder()
        .problem(&problem)
        .faults(1)
        .attack_with(0, "non-finite-forge", move || {
            Box::new(NonFiniteForge { from_iteration })
        })
        .filter("cge")
        .options(
            RunOptions::paper_defaults_with_iterations(x_h, 30).with_aggregation_threads(threads),
        )
        .label(format!("nan-forge@{threads}t"))
        .build()
        .expect("builds")
}

fn backends() -> Vec<(&'static str, Box<dyn Backend>)> {
    vec![
        ("in-process", Box::new(InProcess)),
        ("threaded", Box::new(Threaded)),
        ("peer-to-peer", Box::new(PeerToPeer::default())),
        (
            "simulated-server",
            Box::new(Simulated::server(NetworkModel::ideal())),
        ),
        (
            "simulated-p2p",
            Box::new(Simulated::peer_to_peer(NetworkModel::ideal())),
        ),
    ]
}

#[test]
fn nan_forgery_surfaces_as_a_clean_error_on_every_backend() {
    for threads in [1usize, 4] {
        for (name, backend) in backends() {
            let err = backend
                .run(&scenario(threads, 3))
                .expect_err("a NaN round must fail the run, not the process");
            let message = err.to_string();
            assert!(
                message.contains("NaN or infinite"),
                "{name} at {threads} threads: expected the NonFinite guard, got: {message}"
            );
        }
    }
}

#[test]
fn nan_forgery_in_the_first_round_is_also_clean() {
    // Poison before any descent step: the very first aggregation must
    // reject it (no partially-initialized state paths).
    for (name, backend) in backends() {
        let err = backend
            .run(&scenario(4, 0))
            .expect_err("first-round NaN must fail cleanly");
        assert!(
            err.to_string().contains("NaN or infinite"),
            "{name}: unexpected error {err}"
        );
    }
}

#[test]
fn every_registered_filter_rejects_the_nan_round_cleanly() {
    // The guard is per-filter (validate_batch); sweep the registry on the
    // in-process backend to pin that no filter reaches its kernels with
    // adversarial non-finite rows. n = 9 admits every registered filter.
    let problem = {
        let config = abft_core::SystemConfig::new(9, 1).expect("valid");
        RegressionProblem::fan(config, 150.0, 0.02, 7).expect("generable")
    };
    let x_h = problem
        .subset_minimizer(&(1..9).collect::<Vec<_>>())
        .expect("full rank");
    for filter in abft_filters::filter_names() {
        let scenario = Scenario::builder()
            .problem(&problem)
            .faults(1)
            .attack_with(0, "non-finite-forge", || {
                Box::new(NonFiniteForge { from_iteration: 2 })
            })
            .filter(*filter)
            .options(
                RunOptions::paper_defaults_with_iterations(x_h.clone(), 10)
                    .with_aggregation_threads(4),
            )
            .build()
            .expect("builds");
        let err = InProcess
            .run(&scenario)
            .expect_err("NaN round must fail cleanly");
        assert!(
            err.to_string().contains("NaN or infinite"),
            "{filter}: unexpected error {err}"
        );
    }
}

/// Forges the hostile-but-*finite* row `(1e200, −1e200, …)`: it passes the
/// filters' non-finite entry guard, and `geomed`/`gmom` answer it with
/// `Ok([NaN, NaN])` (squared norms overflow inside Weiszfeld — ROADMAP
/// Open item 3, not fixed here).
struct HugeFiniteForge;

impl ByzantineStrategy for HugeFiniteForge {
    fn corrupt_into(&mut self, _ctx: &AttackContext<'_>, out: &mut [f64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if i % 2 == 0 { 1e200 } else { -1e200 };
        }
    }

    fn name(&self) -> &'static str {
        "huge-finite-forge"
    }
}

#[test]
fn a_poisoned_aggregate_is_the_same_divergence_on_every_backend() {
    // One server step, one answer: the non-finite aggregate is caught
    // where it is produced — iteration 0, before it reaches the estimate —
    // and every backend reports it as `Diverged { iteration: 0 }`, wrapped
    // in its own error type. A driver that skipped the check would blame
    // an honest agent's NaN gradient one round late (`NonFinite`), or call
    // `NaN ≠ NaN` a peer-to-peer lockstep violation.
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let mut all = backends();
    all.push((
        "simulated-async",
        Box::new(Simulated::async_server(
            NetworkModel::ideal(),
            AsyncConfig::new(),
        )),
    ));
    for filter in ["geomed", "gmom"] {
        for threads in [1usize, 4] {
            let scenario = Scenario::builder()
                .problem(&problem)
                .faults(1)
                .attack_with(0, "huge-finite-forge", || Box::new(HugeFiniteForge))
                .filter(filter)
                .options(
                    RunOptions::paper_defaults_with_iterations(x_h.clone(), 20)
                        .with_aggregation_threads(threads),
                )
                .build()
                .expect("builds");
            for (name, backend) in &all {
                let err = backend
                    .run(&scenario)
                    .expect_err("a NaN aggregate must fail the run");
                let inner = match &err {
                    ScenarioError::Dgd(e) | ScenarioError::Runtime(RuntimeError::Dgd(e)) => e,
                    other => panic!("{name}/{filter}@{threads}t: not a DGD failure: {other}"),
                };
                assert_eq!(
                    inner,
                    &DgdError::Diverged { iteration: 0 },
                    "{name}/{filter}@{threads}t"
                );
            }
        }
    }
}
