//! Cross-runtime equivalence: the in-process driver, the event-loop
//! server runtime, and the EIG-based peer-to-peer runtime must agree.

use approx_bft::attacks::{GradientReverse, RandomGaussian};
use approx_bft::core::SystemConfig;
use approx_bft::dgd::{RoundWorkspace, RunOptions};
use approx_bft::filters::{Cge, Cwtm};
use approx_bft::problems::RegressionProblem;
use approx_bft::runtime::eig::EquivocationPlan;
use approx_bft::runtime::{eig_broadcast, DgdTask, Launch};
use std::collections::BTreeMap;

fn setup(iterations: usize) -> (RegressionProblem, RunOptions) {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem
        .subset_minimizer(&[1, 2, 3, 4, 5])
        .expect("full rank");
    let options = RunOptions::paper_defaults_with_iterations(x_h, iterations);
    (problem, options)
}

#[test]
fn three_runtimes_agree_bit_for_bit() {
    let (problem, options) = setup(80);

    let in_process = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()));
    let reference = in_process
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
        )
        .expect("runs")
        .run;

    let threaded = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()))
        .run_dense(Launch::Threaded, &Cge::new(), &options)
        .expect("threaded runs");

    let p2p = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()))
        .run_dense(
            Launch::PeerToPeer { equivocate: false },
            &Cge::new(),
            &options,
        )
        .expect("p2p runs");

    assert_eq!(reference.trace.records(), threaded.run.trace.records());
    assert_eq!(reference.trace.records(), p2p.run.trace.records());
    assert!(reference
        .final_estimate
        .approx_eq(&threaded.run.final_estimate, 0.0));
    assert!(reference
        .final_estimate
        .approx_eq(&p2p.run.final_estimate, 0.0));
}

#[test]
fn seeded_random_attack_is_identical_across_runtimes() {
    let (problem, options) = setup(40);
    let in_process = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(RandomGaussian::paper(5)));
    let reference = in_process
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cwtm::new(),
            &options,
        )
        .expect("runs")
        .run;
    let threaded = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(RandomGaussian::paper(5)))
        .run_dense(Launch::Threaded, &Cwtm::new(), &options)
        .expect("threaded runs");
    assert_eq!(reference.trace.records(), threaded.run.trace.records());
}

#[test]
fn crash_elimination_matches_across_runtimes() {
    let (problem, options) = setup(60);
    let in_process = DgdTask::new(*problem.config(), problem.costs()).crash(2, 10);
    let reference = in_process
        .run_dense(
            Launch::InProcess(&mut RoundWorkspace::new()),
            &Cge::new(),
            &options,
        )
        .expect("runs")
        .run;
    let threaded = DgdTask::new(*problem.config(), problem.costs())
        .crash(2, 10)
        .run_dense(Launch::Threaded, &Cge::new(), &options)
        .expect("threaded runs");
    assert!(reference
        .final_estimate
        .approx_eq(&threaded.run.final_estimate, 0.0));
    assert_eq!(reference.trace.records(), threaded.run.trace.records());
}

#[test]
fn equivocating_p2p_still_converges_and_stays_in_lockstep() {
    let (problem, options) = setup(120);
    let p2p = DgdTask::new(*problem.config(), problem.costs())
        .byzantine(0, Box::new(GradientReverse::new()))
        // equivocate: v to one half, −v to the other
        .run_dense(
            Launch::PeerToPeer { equivocate: true },
            &Cge::new(),
            &options,
        )
        .expect("no lockstep violation");
    assert!(
        p2p.run.final_distance() < 0.089,
        "equivocation pushed d to {}",
        p2p.run.final_distance()
    );
}

#[test]
fn eig_agreement_fuzz_over_adversary_space() {
    // Exhaustive-ish sweep: every sender, every split boundary, two value
    // pairs, n = 4, f = 1 — agreement must always hold among honest nodes.
    let config = SystemConfig::new_peer_to_peer(4, 1).expect("valid");
    for sender in 0..4 {
        for boundary in 0..=4 {
            for (low, high) in [(1u64, 2u64), (9, 9)] {
                let mut faulty = BTreeMap::new();
                faulty.insert(
                    sender,
                    EquivocationPlan::Split {
                        low,
                        high,
                        boundary,
                    },
                );
                let outcome =
                    eig_broadcast(config, sender, 42u64, 0, &faulty).expect("broadcast runs");
                let honest: Vec<usize> = (0..4).filter(|&p| p != sender).collect();
                assert!(
                    outcome.honest_agree(&honest),
                    "agreement broke: sender {sender}, boundary {boundary}, ({low},{high})"
                );
            }
        }
    }
}

#[test]
fn eig_validity_fuzz_with_faulty_relayers() {
    // Honest sender, each other node in turn equivocating while relaying:
    // validity (deciding the sender's value) must always hold.
    let config = SystemConfig::new_peer_to_peer(7, 2).expect("valid");
    for relayer_a in 1..7usize {
        for relayer_b in (relayer_a + 1)..7 {
            let mut faulty = BTreeMap::new();
            faulty.insert(
                relayer_a,
                EquivocationPlan::Split {
                    low: 1u64,
                    high: 2,
                    boundary: 3,
                },
            );
            faulty.insert(relayer_b, EquivocationPlan::Consistent(77));
            let outcome = eig_broadcast(config, 0, 42u64, 0, &faulty).expect("broadcast runs");
            let honest: Vec<usize> = (0..7)
                .filter(|p| *p != relayer_a && *p != relayer_b)
                .collect();
            assert!(
                outcome.honest_decided(&honest, &42),
                "validity broke with relayers {relayer_a}, {relayer_b}: {:?}",
                outcome.decisions
            );
        }
    }
}
