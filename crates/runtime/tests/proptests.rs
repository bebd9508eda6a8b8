//! Property-based tests for the EIG Byzantine-broadcast primitive: agreement
//! and validity over randomized adversary configurations.

use abft_core::SystemConfig;
use abft_runtime::eig::EquivocationPlan;
use abft_runtime::eig_broadcast;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: one adversary plan over u64 values.
fn plan_strategy() -> impl Strategy<Value = EquivocationPlan<u64>> {
    prop_oneof![
        (0u64..100).prop_map(EquivocationPlan::Consistent),
        (0u64..100, 0u64..100, 0usize..14).prop_map(|(low, high, boundary)| {
            EquivocationPlan::Split {
                low,
                high,
                boundary,
            }
        }),
        Just(EquivocationPlan::Silent),
        Just(EquivocationPlan::Honest),
    ]
}

/// Valid (n, f, sender) triples for the peer-to-peer regime.
fn config_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (4usize..=10).prop_flat_map(|n| {
        let f_max = (n - 1) / 3;
        (Just(n), 1..=f_max).prop_flat_map(move |(n, f)| (Just(n), Just(f), 0..n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Agreement: whatever the adversary does (including a faulty,
    /// equivocating sender), all honest processes decide the same value.
    #[test]
    fn agreement_under_random_adversaries(
        (n, f, sender) in config_strategy(),
        plans in prop::collection::vec(plan_strategy(), 4),
        value in 0u64..100,
    ) {
        let config = SystemConfig::new_peer_to_peer(n, f).expect("3f < n by construction");
        // Assign up to f faulty processes deterministically from the plans:
        // the sender first, then low indices.
        let mut faulty: BTreeMap<usize, EquivocationPlan<u64>> = BTreeMap::new();
        let mut plan_iter = plans.into_iter();
        faulty.insert(sender, plan_iter.next().expect("4 plans supplied"));
        for p in 0..n {
            if faulty.len() >= f {
                break;
            }
            if p != sender {
                if let Some(plan) = plan_iter.next() {
                    faulty.insert(p, plan);
                } else {
                    break;
                }
            }
        }
        prop_assume!(faulty.len() <= f);

        let outcome = eig_broadcast(config, sender, value, 0u64, &faulty)
            .expect("valid configuration");
        let honest: Vec<usize> = (0..n).filter(|p| !faulty.contains_key(p)).collect();
        prop_assert!(
            outcome.honest_agree(&honest),
            "agreement violated: n={n}, f={f}, sender={sender}, decisions={:?}",
            outcome.decisions
        );
    }

    /// Validity: with an HONEST sender, every honest process decides the
    /// sender's value no matter what the faulty relayers do.
    #[test]
    fn validity_under_random_faulty_relayers(
        (n, f, sender) in config_strategy(),
        plans in prop::collection::vec(plan_strategy(), 3),
        value in 0u64..100,
    ) {
        let config = SystemConfig::new_peer_to_peer(n, f).expect("3f < n by construction");
        let mut faulty: BTreeMap<usize, EquivocationPlan<u64>> = BTreeMap::new();
        let mut plan_iter = plans.into_iter();
        for p in 0..n {
            if faulty.len() >= f {
                break;
            }
            if p != sender {
                if let Some(plan) = plan_iter.next() {
                    faulty.insert(p, plan);
                } else {
                    break;
                }
            }
        }

        let outcome = eig_broadcast(config, sender, value, 0u64, &faulty)
            .expect("valid configuration");
        let honest: Vec<usize> = (0..n).filter(|p| !faulty.contains_key(p)).collect();
        prop_assert!(
            outcome.honest_decided(&honest, &value),
            "validity violated: n={n}, f={f}, sender={sender}, decisions={:?}",
            outcome.decisions
        );
    }

    /// Message complexity is exactly n + Σ_{r=2}^{f+1} (paths at level r−1)
    /// × relayers × n — deterministic for a given (n, f).
    #[test]
    fn message_count_depends_only_on_n_and_f(
        (n, f, sender) in config_strategy(),
        value in 0u64..100,
    ) {
        let config = SystemConfig::new_peer_to_peer(n, f).expect("valid");
        let a = eig_broadcast(config, sender, value, 0, &BTreeMap::new()).expect("runs");
        let mut faulty = BTreeMap::new();
        faulty.insert(sender, EquivocationPlan::Consistent(7u64));
        let b = eig_broadcast(config, sender, value, 0, &faulty).expect("runs");
        prop_assert_eq!(a.messages, b.messages, "adversary changed message count");
    }
}

proptest! {
    // Each case is a pair of full DGD runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The asynchronous equivalence pin as a property: at unbounded τ over
    /// ideal links with zero clock jitter, the async server reproduces the
    /// synchronous simulated server bit-for-bit across random attacks,
    /// filters, horizon lengths, and aggregation-thread counts.
    #[test]
    fn async_unbounded_tau_matches_sync_server_for_random_tasks(
        attack_sel in 0usize..4,
        filter_sel in 0usize..2,
        iterations in 5usize..40,
        threads_sel in 0usize..2,
    ) {
        use abft_filters::{Cge, Cwtm, GradientFilter};
        use abft_net::NetworkModel;
        use abft_problems::RegressionProblem;
        use abft_runtime::{AsyncConfig, DgdTask, Launch, SimulatedRun};

        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("honest subset");
        let options = abft_dgd::RunOptions::paper_defaults_with_iterations(x_h, iterations)
            .with_aggregation_threads([1, 4][threads_sel]);
        let filter: Box<dyn GradientFilter> = match filter_sel {
            0 => Box::new(Cge::new()),
            _ => Box::new(Cwtm::new()),
        };
        // Attack 0 is "fault-free"; the rest come seeded off the registry,
        // so the async and sync task each get an identically seeded
        // instance.
        let attacks = ["gradient-reverse", "random", "scaled-reverse"];
        let task = || {
            let task = DgdTask::new(*problem.config(), problem.costs());
            match attack_sel {
                0 => task,
                sel => task.byzantine(
                    0,
                    abft_attacks::attack_by_name(attacks[sel - 1], 7).expect("registered"),
                ),
            }
        };
        let asynchronous = task()
            .run_dense(
                Launch::Simulated(&SimulatedRun::async_server(
                    NetworkModel::ideal(),
                    AsyncConfig::new(),
                )),
                filter.as_ref(),
                &options,
            )
            .expect("async run succeeds");
        let synchronous = task()
            .run_dense(
                Launch::Simulated(&SimulatedRun::server(NetworkModel::ideal())),
                filter.as_ref(),
                &options,
            )
            .expect("sync run succeeds");
        prop_assert_eq!(
            asynchronous.run.trace.records(),
            synchronous.run.trace.records()
        );
        prop_assert_eq!(asynchronous.counters.stale_rows, 0);
        prop_assert_eq!(asynchronous.counters.stragglers, 0);
    }
}
