//! EIG by node number and value handle against the path-keyed reference.
//!
//! `eig_broadcast_on` numbers the EIG tree once per call, carries values
//! as handles into an interned table and keeps each process's tree as a
//! row of one flat table. The reference below is the implementation it
//! replaced, kept verbatim apart from the configuration checks: every
//! message owns its relay path and value, every recipient files it into a
//! path-keyed `BTreeMap`, and resolution recurses over freshly built child
//! paths. The two must agree on every decision, on the message count and
//! on every `NetMetrics` field — over `n ∈ 4..=10`, every legal `f`, every
//! sender, all five plan kinds, and values drawn from a tiny range so that
//! forged, default and honest values collide — both on a `PerfectBus` and
//! on a seeded `SimulatedNetwork` that drops, delays past the deadline and
//! partitions, so omissions reach the relays and the resolution.

use abft_core::SystemConfig;
use abft_net::{LinkModel, MessageBus, NetworkModel, Partition, PerfectBus};
use abft_runtime::eig::{eig_broadcast_on, BroadcastOutcome, EigMessage, EquivocationPlan};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference's wire format: the relay path and the value itself.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PathMessage<V> {
    path: Vec<usize>,
    value: Option<V>,
}

/// The value a faulty process sends to `recipient`, given the value an
/// honest process would have sent.
fn transmit<V: Clone>(
    plan: &EquivocationPlan<V>,
    recipient: usize,
    honest_value: Option<&V>,
) -> Option<V> {
    match plan {
        EquivocationPlan::Consistent(v) => Some(v.clone()),
        EquivocationPlan::Split {
            low,
            high,
            boundary,
        } => {
            if recipient < *boundary {
                Some(low.clone())
            } else {
                Some(high.clone())
            }
        }
        EquivocationPlan::Silent => None,
        EquivocationPlan::Selective { victims } => {
            if victims.contains(&recipient) {
                None
            } else {
                honest_value.cloned()
            }
        }
        EquivocationPlan::Honest => honest_value.cloned(),
    }
}

/// The path-keyed EIG broadcast (the callers pass valid configurations).
#[expect(
    clippy::needless_range_loop,
    reason = "kept as written: the reference is the old implementation verbatim"
)]
fn reference_broadcast_on<V: Clone + Eq, B: MessageBus<PathMessage<V>>>(
    config: SystemConfig,
    sender: usize,
    sender_value: V,
    default: V,
    faulty: &BTreeMap<usize, EquivocationPlan<V>>,
    bus: &mut B,
) -> BroadcastOutcome<V> {
    let n = config.n();
    let f = config.f();

    // trees[p] maps a relay path (first element = sender) to the value p
    // heard for it. `None` records an omission; a path with *no* entry is
    // a transmission the bus never delivered, which resolves identically.
    let mut trees: Vec<BTreeMap<Vec<usize>, Option<V>>> = vec![BTreeMap::new(); n];
    let mut messages = 0usize;

    // Round 1: the sender transmits to everyone.
    let root = vec![sender];
    for p in 0..n {
        let value = match faulty.get(&sender) {
            Some(plan) => transmit(plan, p, Some(&sender_value)),
            None => Some(sender_value.clone()),
        };
        bus.send(
            sender,
            p,
            PathMessage {
                path: root.clone(),
                value,
            },
        );
        messages += 1;
    }
    collect_round(bus, &mut trees);

    // Rounds 2..=f+1: relay every path of the previous level.
    let mut level_paths = vec![root.clone()];
    for _round in 2..=(f + 1) {
        let mut next_level: Vec<Vec<usize>> = Vec::new();
        for path in &level_paths {
            for relayer in 0..n {
                if path.contains(&relayer) {
                    continue;
                }
                let heard = trees[relayer].get(path).cloned().flatten();
                let mut extended = path.clone();
                extended.push(relayer);
                for p in 0..n {
                    let value = match faulty.get(&relayer) {
                        Some(plan) => transmit(plan, p, heard.as_ref()),
                        None => heard.clone(),
                    };
                    bus.send(
                        relayer,
                        p,
                        PathMessage {
                            path: extended.clone(),
                            value,
                        },
                    );
                    messages += 1;
                }
                next_level.push(extended);
            }
        }
        collect_round(bus, &mut trees);
        level_paths = next_level;
    }

    // Resolution: recursive strict majority from the leaves up.
    let decisions: Vec<V> = (0..n)
        .map(|p| resolve(&trees[p], &root, n, f + 1, &default))
        .collect();
    BroadcastOutcome {
        decisions,
        messages,
    }
}

/// Ends the bus round and files every delivered transmission into its
/// recipient's EIG tree.
fn collect_round<V, B: MessageBus<PathMessage<V>>>(
    bus: &mut B,
    trees: &mut [BTreeMap<Vec<usize>, Option<V>>],
) {
    let mut delivered = Vec::new();
    bus.end_round(&mut delivered);
    for delivery in delivered {
        if let Some(tree) = trees.get_mut(delivery.to) {
            tree.insert(delivery.payload.path, delivery.payload.value);
        }
    }
}

/// Resolves one EIG-tree node for a process: leaves report their stored
/// value; interior nodes take the strict majority of their children.
fn resolve<V: Clone + Eq>(
    tree: &BTreeMap<Vec<usize>, Option<V>>,
    path: &[usize],
    n: usize,
    max_depth: usize,
    default: &V,
) -> V {
    let stored = tree
        .get(path)
        .cloned()
        .flatten()
        .unwrap_or_else(|| default.clone());
    if path.len() == max_depth {
        return stored;
    }
    let children: Vec<V> = (0..n)
        .filter(|q| !path.contains(q))
        .map(|q| {
            let mut child = path.to_vec();
            child.push(q);
            resolve(tree, &child, n, max_depth, default)
        })
        .collect();
    if children.is_empty() {
        return stored;
    }
    // Strict majority vote over the resolved children.
    for candidate in &children {
        let count = children.iter().filter(|c| *c == candidate).count();
        if 2 * count > children.len() {
            return candidate.clone();
        }
    }
    default.clone()
}

/// Broadcasts from every sender in turn, on one bus per implementation
/// (as the peer-to-peer loop does), asserting after each broadcast that
/// the decisions, the message count and the bus counters agree.
fn assert_matches_reference<V, B, R>(
    config: SystemConfig,
    values: &[V],
    default: &V,
    faulty: &BTreeMap<usize, EquivocationPlan<V>>,
    bus: &mut B,
    reference_bus: &mut R,
) where
    V: Clone + Eq + std::fmt::Debug,
    B: MessageBus<EigMessage>,
    R: MessageBus<PathMessage<V>>,
{
    for (sender, value) in values.iter().enumerate() {
        let label = format!(
            "n={} f={} sender={sender} faulty={faulty:?}",
            config.n(),
            config.f()
        );
        let got = eig_broadcast_on(config, sender, value.clone(), default.clone(), faulty, bus)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let want = reference_broadcast_on(
            config,
            sender,
            value.clone(),
            default.clone(),
            faulty,
            reference_bus,
        );
        assert_eq!(got, want, "{label}");
        assert_eq!(bus.metrics(), reference_bus.metrics(), "{label}");
    }
}

/// One plan of each of the five kinds, over values in `0..3`.
fn plan_strategy(n: usize) -> impl Strategy<Value = EquivocationPlan<u64>> {
    prop_oneof![
        (0u64..3).prop_map(EquivocationPlan::Consistent),
        (0u64..3, 0u64..3, 0..=n + 1).prop_map(|(low, high, boundary)| {
            EquivocationPlan::Split {
                low,
                high,
                boundary,
            }
        }),
        Just(EquivocationPlan::Silent),
        prop::collection::vec(0..n, 0..=n)
            .prop_map(|victims| EquivocationPlan::Selective { victims }),
        Just(EquivocationPlan::Honest),
    ]
}

/// `(n, f, faulty assignments, per-sender values)` with `3f < n`.
type Case = (usize, usize, Vec<(usize, EquivocationPlan<u64>)>, Vec<u64>);

fn case_strategy() -> impl Strategy<Value = Case> {
    (4usize..=10).prop_flat_map(|n| {
        (Just(n), 0..=(n - 1) / 3).prop_flat_map(|(n, f)| {
            let faulty = prop::collection::vec((0..n, plan_strategy(n)), 0..=f);
            (Just(n), Just(f), faulty, prop::collection::vec(0u64..3, n))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a reliable bus: identical decisions, message counts and counters.
    #[test]
    fn handle_eig_matches_the_path_reference_on_a_perfect_bus(
        (n, f, assignments, values) in case_strategy(),
        default in 0u64..3,
    ) {
        let config = SystemConfig::new_peer_to_peer(n, f).expect("3f < n by construction");
        let faulty: BTreeMap<_, _> = assignments.into_iter().collect();
        assert_matches_reference(
            config,
            &values,
            &default,
            &faulty,
            &mut PerfectBus::new(n),
            &mut PerfectBus::new(n),
        );
    }

    /// On a seeded lossy simulator: the same messages are dropped, late or
    /// cut by the partition on both sides, so the omissions match too.
    #[test]
    fn handle_eig_matches_the_path_reference_on_a_lossy_network(
        (n, f, assignments, values) in case_strategy(),
        default in 0u64..3,
        (seed, drop, isolated) in (0u64..1 << 32, 0.0..0.4f64, 0usize..12),
    ) {
        let config = SystemConfig::new_peer_to_peer(n, f).expect("3f < n by construction");
        let faulty: BTreeMap<_, _> = assignments.into_iter().collect();
        // A reorder window past the 1 ms deadline makes some messages late;
        // an out-of-range `isolated` leaves the network whole.
        let mut model = NetworkModel::seeded(seed).with_default_link(
            LinkModel::ideal()
                .with_drop(drop)
                .with_reorder_ns(NetworkModel::DEFAULT_ROUND_TIMEOUT_NS * 5 / 4),
        );
        if isolated < n {
            model = model.with_partition(Partition::isolate(vec![isolated], 0, 1));
        }
        assert_matches_reference(
            config,
            &values,
            &default,
            &faulty,
            &mut model.build(n),
            &mut model.build(n),
        );
    }
}

#[test]
fn vector_values_match_the_path_reference() {
    // The peer-to-peer runtime broadcasts gradients as bit vectors: values
    // that are compared whole and cloned into every decision.
    let config = SystemConfig::new_peer_to_peer(7, 2).expect("valid");
    let value = |k: u64| vec![k, k.wrapping_mul(31), 7];
    let values: Vec<Vec<u64>> = (0..7).map(|k| value(k % 3)).collect();
    let faulty = BTreeMap::from([
        (
            1,
            EquivocationPlan::Split {
                low: value(1),
                high: value(2),
                boundary: 3,
            },
        ),
        (4, EquivocationPlan::Consistent(value(0))),
    ]);
    let model = NetworkModel::seeded(3).with_default_link(LinkModel::ideal().with_drop(0.1));
    assert_matches_reference(
        config,
        &values,
        &value(9),
        &faulty,
        &mut model.build(7),
        &mut model.build(7),
    );
    assert_matches_reference(
        config,
        &values,
        &value(0),
        &faulty,
        &mut PerfectBus::new(7),
        &mut PerfectBus::new(7),
    );
}
