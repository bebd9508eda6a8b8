//! Exponential information gathering (EIG) Byzantine broadcast.
//!
//! The paper's Section 1.4 notes that for `f < n/3` the server-based
//! algorithm can be simulated on a complete peer-to-peer network using the
//! classic Byzantine broadcast primitive (Lynch, *Distributed Algorithms*).
//! This module implements the synchronous `f + 1`-round EIG protocol:
//!
//! * round 1 — the sender transmits its value to everyone;
//! * round `r ≥ 2` — every process relays what it heard along each path of
//!   `r − 1` distinct relayers;
//! * after `f + 1` rounds each process resolves its EIG tree bottom-up with
//!   recursive strict majority.
//!
//! For `3f < n` the protocol guarantees **agreement** (all honest processes
//! decide the same value) and **validity** (if the sender is honest, they
//! decide its value) — both asserted by this module's tests under
//! equivocating adversaries.
//!
//! Since the `abft-net` port, every transmission travels through a
//! [`MessageBus`]: [`eig_broadcast`] drives a reliable [`PerfectBus`] (the
//! historical behaviour, bit for bit), while [`eig_broadcast_on`] accepts
//! any bus — in particular `abft_net::SimulatedNetwork`, whose links may
//! drop, delay, or reorder the protocol's messages. A message lost or late
//! on the wire is simply absent from the recipient's EIG tree, which the
//! resolution step already treats as an omission.
//!
//! # Nodes and handles
//!
//! A broadcast moves no heap data per message. The EIG tree of a sender is
//! numbered once, in level order: node 0 is the root path `[sender]`, and
//! the children of every interior node — one per process not yet on its
//! path, ascending — are contiguous and follow the children of the node
//! before it. The relay paths sit in one arena with a fixed stride of
//! `f + 1` slots, and the numbering is the order the relays are sent in,
//! so the `(from, to)` send sequence is the one the path-keyed
//! implementation produced. Values travel as handles into a value table
//! whose equal handles are exactly its equal values. An [`EigMessage`] is
//! therefore a `Copy` pair of numbers; each process's tree is one row of a
//! flat `n × nodes` table of heard handles, and resolution votes on
//! handles bottom-up over the child ranges. The bus never reads a payload
//! — it schedules, drops and stamps messages by `(from, to)` alone — so the
//! change of payload leaves every delivery, drop and `schedule_digest` as
//! it was.
//!
//! There is one broadcast routine, `EigTree::broadcast`: a tree, each
//! process's relay behaviour over handles, and reused working tables in;
//! each process's decided handle out. The peer-to-peer runtime numbers
//! one tree per sender and keeps one set of tables for the whole run, and
//! its value table is the round's wire values, so a round allocates
//! nothing. [`eig_broadcast_on`] wraps the same routine for a single
//! broadcast of any `V`: it numbers one tree, interns the caller's values,
//! runs the routine and maps the decided handles back.

use crate::error::RuntimeError;
use abft_core::SystemConfig;
use abft_net::{Delivery, MessageBus, PerfectBus};
use std::collections::BTreeMap;
use std::ops::Range;

/// How a faulty process misbehaves when (re)transmitting a value.
#[derive(Debug, Clone)]
pub enum EquivocationPlan<V> {
    /// Relays a fixed forged value to everyone (consistent lying).
    Consistent(V),
    /// Sends `low` to recipients with index `< boundary` and `high` to the
    /// rest (classic equivocation).
    Split {
        /// Value for low-indexed recipients.
        low: V,
        /// Value for high-indexed recipients.
        high: V,
        /// First recipient index that receives `high`.
        boundary: usize,
    },
    /// Never transmits (crash-like omission).
    Silent,
    /// Selective sending: omits every transmission to the listed
    /// recipients, behaving faithfully to the rest — the network-level
    /// Byzantine fault the simulator layers on top of value-forging
    /// attacks.
    Selective {
        /// Recipients that never hear from this process.
        victims: Vec<usize>,
    },
    /// Follows the protocol faithfully (a "faulty" process that happens to
    /// behave — the hardest case for accusation-based designs, trivial for
    /// EIG).
    Honest,
}

/// One EIG transmission as carried by a [`MessageBus`]: the EIG-tree node
/// the value was heard along and a handle to the value itself. Both are
/// numbers of the broadcast that sent the message — its sender's tree and
/// its value table (see the module docs); neither means anything outside
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EigMessage {
    /// The relay path's number in the broadcast's level-order node table.
    pub node: u32,
    /// The relayed value's handle in the broadcast's value table; `None`
    /// encodes "I heard nothing for this path".
    pub value: Option<u32>,
}

/// The per-process decisions of one broadcast instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOutcome<V> {
    /// `decisions[p]` is process `p`'s decided value (faulty processes'
    /// entries are computed but meaningless).
    pub decisions: Vec<V>,
    /// Number of point-to-point messages simulated.
    pub messages: usize,
}

impl<V: Clone + Eq> BroadcastOutcome<V> {
    /// `true` when every process in `honest` decided `value`.
    pub fn honest_decided(&self, honest: &[usize], value: &V) -> bool {
        honest.iter().all(|&p| &self.decisions[p] == value)
    }

    /// `true` when all processes in `honest` agree with each other.
    pub fn honest_agree(&self, honest: &[usize]) -> bool {
        match honest.first() {
            Some(&first) => honest
                .iter()
                .all(|&p| self.decisions[p] == self.decisions[first]),
            None => true,
        }
    }
}

/// Runs one synchronous EIG Byzantine-broadcast instance over a reliable
/// bus — the historical entry point, bit-identical to the pre-bus
/// implementation.
///
/// `sender_value` is what the sender transmits if honest; faulty processes
/// (including a faulty sender) follow their [`EquivocationPlan`]s. `default`
/// is the fallback value used when a majority is absent during resolution.
///
/// # Errors
///
/// Returns [`RuntimeError::Config`] when `3f ≥ n` (EIG's agreement bound),
/// the sender is out of range, or a faulty index is out of range.
pub fn eig_broadcast<V: Clone + Eq>(
    config: SystemConfig,
    sender: usize,
    sender_value: V,
    default: V,
    faulty: &BTreeMap<usize, EquivocationPlan<V>>,
) -> Result<BroadcastOutcome<V>, RuntimeError> {
    let mut bus = PerfectBus::new(config.n());
    eig_broadcast_on(config, sender, sender_value, default, faulty, &mut bus)
}

/// Runs one synchronous EIG Byzantine-broadcast instance over an arbitrary
/// [`MessageBus`] — the message path of the network simulator's
/// peer-to-peer topology, one broadcast at a time.
///
/// On a faulty bus, transmissions can be dropped, delayed past the round
/// deadline, or reordered; a missing transmission leaves no entry in the
/// recipient's EIG tree and resolves as an omission (honest relayers relay
/// "heard nothing", resolution falls back to `default`). On a reliable bus
/// the decisions — and the message count — are exactly those of the
/// historical in-memory implementation.
///
/// # Errors
///
/// See [`eig_broadcast`]; additionally rejects a bus with fewer than `n`
/// processes, and an `(n, f)` whose EIG tree has more nodes than a `u32`
/// numbers.
pub fn eig_broadcast_on<V: Clone + Eq, B: MessageBus<EigMessage>>(
    config: SystemConfig,
    sender: usize,
    sender_value: V,
    default: V,
    faulty: &BTreeMap<usize, EquivocationPlan<V>>,
    bus: &mut B,
) -> Result<BroadcastOutcome<V>, RuntimeError> {
    let n = config.n();
    check_plans(config, bus.processes(), faulty.len())?;
    if sender >= n {
        return Err(RuntimeError::Config(format!(
            "sender {sender} out of range"
        )));
    }
    if let Some(&bad) = faulty.keys().find(|&&i| i >= n) {
        return Err(RuntimeError::Config(format!(
            "faulty agent {bad} out of range"
        )));
    }
    let tree = EigTree::new(config, sender)?;

    // The value table: handle 0 is the sender's value, and every value a
    // plan can put on the wire is interned next to the default.
    let mut values: Vec<&V> = Vec::with_capacity(2 + 2 * faulty.len());
    values.push(&sender_value);
    let default_handle = intern(&mut values, &default);
    let mut relays = vec![Relay::Faithful; n];
    for (&process, plan) in faulty {
        let relay = Relay::new(plan, |v| intern(&mut values, v));
        if let Some(slot) = relays.get_mut(process) {
            *slot = relay;
        }
    }

    let mut tables = EigTables::default();
    tree.broadcast(&relays, SENDER_VALUE, default_handle, &mut tables, bus);
    let decisions = tables
        .decisions()
        .iter()
        .map(|&handle| {
            let value = values.get(handle as usize).copied().unwrap_or(&default);
            value.clone()
        })
        .collect();
    Ok(BroadcastOutcome {
        decisions,
        messages: n * tree.nodes(),
    })
}

/// The checks a run of broadcasts passes once, before its first: `3f < n`
/// (EIG's agreement bound), a bus spanning all `n` processes, and at most
/// `f` processes with a plan.
///
/// # Errors
///
/// [`RuntimeError::Config`] naming the failed check.
pub(crate) fn check_plans(
    config: SystemConfig,
    bus_processes: usize,
    planned: usize,
) -> Result<(), RuntimeError> {
    let (n, f) = (config.n(), config.f());
    if bus_processes < n {
        return Err(RuntimeError::Config(format!(
            "bus spans {bus_processes} processes but the broadcast needs {n}"
        )));
    }
    if !config.supports_peer_to_peer() {
        return Err(RuntimeError::Config(format!(
            "EIG broadcast requires 3f < n, got n = {n}, f = {f}"
        )));
    }
    if planned > f {
        return Err(RuntimeError::Config(format!(
            "{planned} faulty processes assigned but f = {f}"
        )));
    }
    Ok(())
}

/// The sender's value is always handle 0 of [`eig_broadcast_on`]'s value
/// table.
const SENDER_VALUE: u32 = 0;

/// The handle of `value` in `values`, appending it if no equal value is
/// there yet — so equal handles mean equal values.
fn intern<'a, V: Eq>(values: &mut Vec<&'a V>, value: &'a V) -> u32 {
    let handle = values.iter().position(|&v| v == value).unwrap_or_else(|| {
        values.push(value);
        values.len() - 1
    });
    // The table holds at most 2 + 2f values.
    handle as u32
}

/// One process's relay behaviour in a broadcast, over value handles: its
/// [`EquivocationPlan`] with the values replaced by their handles.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Relay<'a> {
    /// Relays what it heard (honest processes and [`EquivocationPlan::Honest`]).
    Faithful,
    /// [`EquivocationPlan::Consistent`].
    Fixed(u32),
    /// [`EquivocationPlan::Split`].
    Split {
        low: u32,
        high: u32,
        boundary: usize,
    },
    /// [`EquivocationPlan::Silent`].
    Silent,
    /// [`EquivocationPlan::Selective`], by victim list.
    Selective(&'a [usize]),
}

impl<'a> Relay<'a> {
    /// `plan` over handles: `handle` maps each value the plan sends to
    /// its handle.
    pub(crate) fn new<V>(
        plan: &'a EquivocationPlan<V>,
        mut handle: impl FnMut(&'a V) -> u32,
    ) -> Self {
        match plan {
            EquivocationPlan::Consistent(v) => Relay::Fixed(handle(v)),
            EquivocationPlan::Split {
                low,
                high,
                boundary,
            } => Relay::Split {
                low: handle(low),
                high: handle(high),
                boundary: *boundary,
            },
            EquivocationPlan::Silent => Relay::Silent,
            EquivocationPlan::Selective { victims } => Relay::Selective(victims),
            EquivocationPlan::Honest => Relay::Faithful,
        }
    }

    /// The handle this process sends to `recipient`, given the handle an
    /// honest process would have sent.
    fn transmit(self, recipient: usize, heard: Option<u32>) -> Option<u32> {
        match self {
            Relay::Faithful => heard,
            Relay::Fixed(v) => Some(v),
            Relay::Split {
                low,
                high,
                boundary,
            } => Some(if recipient < boundary { low } else { high }),
            Relay::Silent => None,
            Relay::Selective(victims) => heard.filter(|_| !victims.contains(&recipient)),
        }
    }
}

/// The working tables of a broadcast, reused from one broadcast to the
/// next: every process's heard handles, the resolution scratch, the bus's
/// delivery buffer and every process's decided handle. They are sized by
/// the broadcast that uses them, so one set serves every sender's tree of
/// a run and stops allocating once its first broadcast has sized it.
#[derive(Default)]
pub(crate) struct EigTables {
    /// `heard[p · nodes + v]` is the handle `p` heard along node `v`.
    /// `None` records an omission — or a transmission the bus never
    /// delivered, which resolves identically.
    heard: Vec<Option<u32>>,
    resolved: Vec<u32>,
    delivered: Vec<Delivery<EigMessage>>,
    decided: Vec<u32>,
}

impl EigTables {
    /// Each process's decided handle in the latest broadcast, in process
    /// order (faulty processes' entries are computed but meaningless).
    pub(crate) fn decisions(&self) -> &[u32] {
        &self.decided
    }
}

/// The EIG tree of one sender, numbered in level order (see the module
/// docs): the children of every depth-`r` node form a contiguous run of
/// `n − r` nodes, and those runs follow their parents' order, so
/// `chunks_exact(n − r)` over level `r + 1` walks level `r`'s child ranges.
pub(crate) struct EigTree {
    /// Relay paths, `stride` slots per node; a depth-`r` node fills the
    /// first `r` and pads the rest with [`EigTree::PAD`].
    paths: Vec<usize>,
    /// `stride = f + 1`, the depth of a leaf.
    stride: usize,
    /// The node range of each depth `1..=f + 1`.
    levels: Vec<Range<usize>>,
    /// Processes taking part, `n`.
    processes: usize,
    /// The root path's only process.
    sender: usize,
}

impl EigTree {
    /// Pads a path past its depth; never a process id.
    const PAD: usize = usize::MAX;

    /// Numbers the tree rooted at `[sender]` for `config`, which has
    /// passed [`check_plans`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] when the tree has more nodes than a `u32`
    /// numbers.
    pub(crate) fn new(config: SystemConfig, sender: usize) -> Result<Self, RuntimeError> {
        let (n, f) = (config.n(), config.f());
        let too_big = || {
            RuntimeError::Config(format!(
                "the EIG tree for n = {n}, f = {f} has more nodes than u32 numbers"
            ))
        };
        let stride = f + 1;
        let mut levels = Vec::with_capacity(stride);
        levels.push(0..1);
        let (mut end, mut width) = (1usize, 1usize);
        for depth in 1..=f {
            width = width.checked_mul(n - depth).ok_or_else(too_big)?;
            let start = end;
            end = end.checked_add(width).ok_or_else(too_big)?;
            levels.push(start..end);
        }
        u32::try_from(end).map_err(|_| too_big())?;
        let mut paths = vec![Self::PAD; end.checked_mul(stride).ok_or_else(too_big)?];
        if let Some(root) = paths.first_mut() {
            *root = sender;
        }
        for (depth, parents, children) in interior_levels(&levels) {
            let (done, todo) = paths.split_at_mut(children.start * stride);
            // Each parent path, once per process not on it, ascending.
            let extensions = done
                .chunks_exact(stride)
                .skip(parents.start)
                .flat_map(|parent| {
                    let relayers = (0..n).filter(|q| !parent.contains(q));
                    relayers.map(move |relayer| (parent, relayer))
                });
            for (child, (parent, relayer)) in todo.chunks_exact_mut(stride).zip(extensions) {
                child.copy_from_slice(parent);
                if let Some(slot) = child.get_mut(depth) {
                    *slot = relayer;
                }
            }
        }
        Ok(EigTree {
            paths,
            stride,
            levels,
            processes: n,
            sender,
        })
    }

    /// Total node count.
    fn nodes(&self) -> usize {
        self.levels.last().map_or(0, |leaves| leaves.end)
    }

    /// Runs one broadcast of the sender's value `handle` over `bus` and
    /// leaves each process's decided handle in [`EigTables::decisions`].
    /// `relays[p]` is process `p`'s behaviour (a process past the slice
    /// relays faithfully); `default` is what an omission resolves to.
    /// Every node is sent to all `n` processes, so a broadcast sends
    /// `n · nodes` messages.
    pub(crate) fn broadcast<B: MessageBus<EigMessage>>(
        &self,
        relays: &[Relay<'_>],
        handle: u32,
        default: u32,
        tables: &mut EigTables,
        bus: &mut B,
    ) {
        let (n, nodes) = (self.processes, self.nodes());
        let relay_of = |process: usize| relays.get(process).copied().unwrap_or(Relay::Faithful);
        let EigTables {
            heard,
            resolved,
            delivered,
            decided,
        } = tables;
        heard.clear();
        heard.resize(n * nodes, None);

        // Round 1: the sender transmits to everyone.
        let sender_relay = relay_of(self.sender);
        for p in 0..n {
            let value = sender_relay.transmit(p, Some(handle));
            bus.send(self.sender, p, EigMessage { node: 0, value });
        }
        collect_round(bus, delivered, heard, nodes);

        // Rounds 2..=f+1: relay every node of the previous level, in node
        // order. Nodes are enumerated structurally (not from any one
        // process's tree), so a process that missed a transmission still
        // relays — it relays the omission. The bus's round barrier
        // provides the synchronous lockstep the in-memory version got from
        // its collect-then-apply split.
        for (depth, parents, children) in interior_levels(&self.levels) {
            let family = n - depth;
            let paths = self.paths.chunks_exact(self.stride).skip(children.start);
            for (child, path) in children.clone().zip(paths) {
                let parent = parents.start + (child - children.start) / family;
                // A depth-`depth` node's last relayer sits in slot `depth`.
                let Some(&relayer) = path.get(depth) else {
                    continue;
                };
                let relayed = heard.get(relayer * nodes + parent).copied().flatten();
                let relay = relay_of(relayer);
                // `EigTree::new` keeps every node number within `u32`.
                let node = child as u32;
                for p in 0..n {
                    let value = relay.transmit(p, relayed);
                    bus.send(relayer, p, EigMessage { node, value });
                }
            }
            collect_round(bus, delivered, heard, nodes);
        }

        // Resolution: recursive strict majority from the leaves up.
        resolved.clear();
        resolved.resize(nodes, default);
        decided.clear();
        let rows = heard.chunks_exact(nodes);
        decided.extend(rows.map(|row| self.resolve(row, default, resolved)));
    }

    /// One process's decision handle: leaves report the handle heard
    /// (`default` for an omission), interior nodes the strict majority of
    /// their children (`default` when there is none), deepest level first.
    /// `heard` is the process's row, `resolved` a `nodes()`-long scratch.
    fn resolve(&self, heard: &[Option<u32>], default: u32, resolved: &mut [u32]) -> u32 {
        if let Some(leaves) = self.levels.last() {
            let slots = resolved.iter_mut().zip(heard).skip(leaves.start);
            for (slot, value) in slots {
                *slot = value.unwrap_or(default);
            }
        }
        for (depth, parents, children) in interior_levels(&self.levels).rev() {
            let (upper, lower) = resolved.split_at_mut(children.start);
            let families = lower.chunks_exact(self.processes - depth);
            for (slot, family) in upper.iter_mut().skip(parents.start).zip(families) {
                *slot = majority(family).unwrap_or(default);
            }
        }
        resolved.first().copied().unwrap_or(default)
    }
}

/// `(depth, level depth, level depth + 1)` for every interior depth
/// `1..=f` of a tree's `levels`, shallowest first.
fn interior_levels(
    levels: &[Range<usize>],
) -> impl DoubleEndedIterator<Item = (usize, Range<usize>, Range<usize>)> + '_ {
    let pairs = levels.windows(2).enumerate();
    pairs.filter_map(|(index, pair)| match pair {
        [parents, children] => Some((index + 1, parents.clone(), children.clone())),
        _ => None,
    })
}

/// The strict-majority handle of `votes`, if there is one. A strict
/// majority is unique, so Boyer–Moore's pairing pass finds the only
/// candidate and one count confirms it.
fn majority(votes: &[u32]) -> Option<u32> {
    let mut candidate = *votes.first()?;
    let mut lead = 0usize;
    for &vote in votes {
        if lead == 0 {
            candidate = vote;
        }
        if vote == candidate {
            lead += 1;
        } else {
            lead -= 1;
        }
    }
    let count = votes.iter().filter(|&&vote| vote == candidate).count();
    (2 * count > votes.len()).then_some(candidate)
}

/// Ends the bus round into `delivered` and files every delivered
/// transmission into its recipient's row of `heard`. Each
/// `(recipient, node)` pair is transmitted at most once per round, so
/// delivery order cannot influence the rows.
fn collect_round<B: MessageBus<EigMessage>>(
    bus: &mut B,
    delivered: &mut Vec<Delivery<EigMessage>>,
    heard: &mut [Option<u32>],
    nodes: usize,
) {
    bus.end_round(delivered);
    for delivery in delivered.iter() {
        let EigMessage { node, value } = delivery.payload;
        let slot = heard
            .chunks_exact_mut(nodes)
            .nth(delivery.to)
            .and_then(|row| row.get_mut(node as usize));
        if let Some(slot) = slot {
            *slot = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2p_config(n: usize, f: usize) -> SystemConfig {
        SystemConfig::new_peer_to_peer(n, f).expect("valid p2p config")
    }

    fn honest_set(n: usize, faulty: &BTreeMap<usize, EquivocationPlan<u64>>) -> Vec<usize> {
        (0..n).filter(|i| !faulty.contains_key(i)).collect()
    }

    #[test]
    fn fault_free_broadcast_delivers_value() {
        let outcome = eig_broadcast(p2p_config(4, 1), 0, 42u64, 0, &BTreeMap::new()).unwrap();
        assert!(outcome.honest_decided(&[0, 1, 2, 3], &42));
    }

    #[test]
    fn validity_with_faulty_relayer() {
        // Honest sender 0; process 2 equivocates while relaying.
        let mut faulty = BTreeMap::new();
        faulty.insert(
            2,
            EquivocationPlan::Split {
                low: 7u64,
                high: 9,
                boundary: 2,
            },
        );
        let outcome = eig_broadcast(p2p_config(4, 1), 0, 42u64, 0, &faulty).unwrap();
        let honest = honest_set(4, &faulty);
        assert!(
            outcome.honest_decided(&honest, &42),
            "validity violated: {:?}",
            outcome.decisions
        );
    }

    #[test]
    fn agreement_with_equivocating_sender() {
        // Faulty sender splits 7/9 between halves; honest processes must
        // still agree on SOME common value.
        let mut faulty = BTreeMap::new();
        faulty.insert(
            0,
            EquivocationPlan::Split {
                low: 7u64,
                high: 9,
                boundary: 2,
            },
        );
        let outcome = eig_broadcast(p2p_config(4, 1), 0, 42u64, 0, &faulty).unwrap();
        let honest = honest_set(4, &faulty);
        assert!(
            outcome.honest_agree(&honest),
            "agreement violated: {:?}",
            outcome.decisions
        );
    }

    #[test]
    fn agreement_with_silent_sender() {
        let mut faulty = BTreeMap::new();
        faulty.insert(0, EquivocationPlan::Silent);
        let outcome = eig_broadcast(p2p_config(4, 1), 0, 42u64, 5, &faulty).unwrap();
        let honest = honest_set(4, &faulty);
        assert!(outcome.honest_agree(&honest));
        // Everyone falls through to the default.
        assert_eq!(outcome.decisions[1], 5);
    }

    #[test]
    fn two_faults_need_seven_processes() {
        // n = 7, f = 2: sender equivocates AND a relayer lies consistently.
        let mut faulty = BTreeMap::new();
        faulty.insert(
            0,
            EquivocationPlan::Split {
                low: 1u64,
                high: 2,
                boundary: 3,
            },
        );
        faulty.insert(4, EquivocationPlan::Consistent(99));
        let outcome = eig_broadcast(p2p_config(7, 2), 0, 42u64, 0, &faulty).unwrap();
        let honest = honest_set(7, &faulty);
        assert!(
            outcome.honest_agree(&honest),
            "agreement violated: {:?}",
            outcome.decisions
        );
    }

    #[test]
    fn validity_with_two_faulty_relayers() {
        let mut faulty = BTreeMap::new();
        faulty.insert(3, EquivocationPlan::Consistent(0u64));
        faulty.insert(
            5,
            EquivocationPlan::Split {
                low: 11,
                high: 13,
                boundary: 4,
            },
        );
        let outcome = eig_broadcast(p2p_config(7, 2), 1, 42u64, 0, &faulty).unwrap();
        let honest = honest_set(7, &faulty);
        assert!(
            outcome.honest_decided(&honest, &42),
            "validity violated: {:?}",
            outcome.decisions
        );
    }

    #[test]
    fn behaving_faulty_process_is_harmless() {
        let mut faulty = BTreeMap::new();
        faulty.insert(2, EquivocationPlan::Honest);
        let outcome = eig_broadcast(p2p_config(4, 1), 0, 42u64, 0, &faulty).unwrap();
        assert!(outcome.honest_decided(&[0, 1, 2, 3], &42));
    }

    #[test]
    fn configuration_is_validated() {
        // 3f >= n.
        let cfg = SystemConfig::new(6, 2).unwrap();
        assert!(eig_broadcast(cfg, 0, 1u64, 0, &BTreeMap::new()).is_err());
        // Sender out of range.
        assert!(eig_broadcast(p2p_config(4, 1), 4, 1u64, 0, &BTreeMap::new()).is_err());
        // Faulty index out of range.
        let mut faulty = BTreeMap::new();
        faulty.insert(9, EquivocationPlan::Consistent(1u64));
        assert!(eig_broadcast(p2p_config(4, 1), 0, 1u64, 0, &faulty).is_err());
        // Too many faults.
        let mut faulty = BTreeMap::new();
        faulty.insert(1, EquivocationPlan::Consistent(1u64));
        faulty.insert(2, EquivocationPlan::Consistent(1u64));
        assert!(eig_broadcast(p2p_config(4, 1), 0, 1u64, 0, &faulty).is_err());
    }

    #[test]
    fn message_count_is_deterministic() {
        let a = eig_broadcast(p2p_config(4, 1), 0, 1u64, 0, &BTreeMap::new()).unwrap();
        let b = eig_broadcast(p2p_config(4, 1), 0, 1u64, 0, &BTreeMap::new()).unwrap();
        assert_eq!(a.messages, b.messages);
        // Round 1: 4 messages. Round 2: 3 relayers × 4 recipients = 12.
        assert_eq!(a.messages, 16);
    }

    #[test]
    fn exhaustive_split_adversaries_never_break_agreement() {
        // Sweep all sender split boundaries and value pairs for n = 4, f = 1.
        for boundary in 0..=4 {
            for (low, high) in [(1u64, 2u64), (0, 9), (7, 7)] {
                let mut faulty = BTreeMap::new();
                faulty.insert(
                    0,
                    EquivocationPlan::Split {
                        low,
                        high,
                        boundary,
                    },
                );
                let outcome = eig_broadcast(p2p_config(4, 1), 0, 42u64, 0, &faulty).unwrap();
                assert!(
                    outcome.honest_agree(&[1, 2, 3]),
                    "boundary {boundary} values ({low},{high}): {:?}",
                    outcome.decisions
                );
            }
        }
    }
}
