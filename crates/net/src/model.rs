//! The declarative description of a simulated network.

use crate::link::{LinkModel, Partition};
use crate::sim::SimulatedNetwork;
use std::collections::BTreeMap;

/// Everything that defines a simulated network's behaviour: the seed for
/// its fault sampling, the synchronous round deadline, a default
/// [`LinkModel`], per-link overrides, and scheduled [`Partition`]s.
///
/// This is plain, cloneable data — the network analogue of a scenario
/// spec. Build a live simulator with [`NetworkModel::build`]; building
/// twice from the same model yields bit-identical behaviour.
///
/// # Example
///
/// ```
/// use abft_net::{LinkModel, MessageBus, NetworkModel, Partition};
///
/// let model = NetworkModel::seeded(42)
///     .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(500))
///     .with_link(0, 1, LinkModel::ideal()) // one clean link override
///     .with_partition(Partition::isolate(vec![0], 5, 10));
/// let mut net = model.build::<u32>(4);
/// net.begin_iteration(0);
/// net.send(0, 1, 7);
/// let mut delivered = Vec::new();
/// net.end_round(&mut delivered);
/// assert_eq!(delivered.len(), 1, "the overridden link is lossless");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Seed deriving every link's independent randomness stream.
    pub seed: u64,
    /// Synchronous round deadline: a message whose delay exceeds this many
    /// virtual nanoseconds misses its round.
    pub round_timeout_ns: u64,
    default_link: LinkModel,
    overrides: BTreeMap<(usize, usize), LinkModel>,
    partitions: Vec<Partition>,
}

impl NetworkModel {
    /// Default round deadline: 1 ms of virtual time — 1000× the ideal link
    /// delay, so ideal links never straggle.
    pub const DEFAULT_ROUND_TIMEOUT_NS: u64 = 1_000_000;

    /// A fault-free network (all links [`LinkModel::ideal`], no
    /// partitions), seed 0.
    pub fn ideal() -> Self {
        Self::seeded(0)
    }

    /// A fault-free network with an explicit seed (only matters once
    /// non-ideal links are configured).
    pub fn seeded(seed: u64) -> Self {
        NetworkModel {
            seed,
            round_timeout_ns: Self::DEFAULT_ROUND_TIMEOUT_NS,
            default_link: LinkModel::ideal(),
            overrides: BTreeMap::new(),
            partitions: Vec::new(),
        }
    }

    /// Replaces the model every link uses unless overridden.
    #[must_use]
    pub fn with_default_link(mut self, link: LinkModel) -> Self {
        self.default_link = link;
        self
    }

    /// Overrides the directed link `from → to`.
    #[must_use]
    pub fn with_link(mut self, from: usize, to: usize, link: LinkModel) -> Self {
        self.overrides.insert((from, to), link);
        self
    }

    /// Adds a scheduled partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Replaces the synchronous round deadline.
    #[must_use]
    pub fn with_round_timeout_ns(mut self, round_timeout_ns: u64) -> Self {
        self.round_timeout_ns = round_timeout_ns;
        self
    }

    /// The model governing the directed link `from → to`.
    pub fn link(&self, from: usize, to: usize) -> &LinkModel {
        self.overrides
            .get(&(from, to))
            .unwrap_or(&self.default_link)
    }

    /// `true` when some partition severs `from → to` during `iteration`.
    pub fn severed(&self, from: usize, to: usize, iteration: usize) -> bool {
        self.partitions
            .iter()
            .any(|p| p.severs(from, to, iteration))
    }

    /// `true` when no link can drop, delay past the deadline, or reorder —
    /// the regime in which the simulator is bit-identical to a
    /// [`PerfectBus`](crate::PerfectBus)-driven run.
    pub fn is_fault_free(&self) -> bool {
        self.partitions.is_empty()
            && std::iter::once(&self.default_link)
                .chain(self.overrides.values())
                .all(|l| l.is_ideal_behaviour() && l.base_delay_ns <= self.round_timeout_ns)
    }

    /// Instantiates a live simulator over `processes` peers.
    pub fn build<P>(&self, processes: usize) -> SimulatedNetwork<P> {
        SimulatedNetwork::new(self.clone(), processes)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_take_precedence() {
        let lossy = LinkModel::ideal().with_drop(0.5);
        let model =
            NetworkModel::ideal()
                .with_default_link(lossy)
                .with_link(1, 2, LinkModel::ideal());
        assert_eq!(model.link(0, 1).drop_probability, 0.5);
        assert_eq!(model.link(1, 2).drop_probability, 0.0);
    }

    #[test]
    fn fault_freedom_accounts_for_every_knob() {
        assert!(NetworkModel::ideal().is_fault_free());
        assert!(!NetworkModel::ideal()
            .with_default_link(LinkModel::ideal().with_drop(0.01))
            .is_fault_free());
        assert!(!NetworkModel::ideal()
            .with_link(0, 1, LinkModel::ideal().with_reorder_ns(10))
            .is_fault_free());
        assert!(!NetworkModel::ideal()
            .with_partition(Partition::isolate(vec![0], 0, 1))
            .is_fault_free());
        // A base delay beyond the deadline makes every message late.
        assert!(!NetworkModel::ideal()
            .with_default_link(LinkModel::ideal().with_delay_ns(2_000_000))
            .is_fault_free());
    }

    #[test]
    fn severed_consults_all_partitions() {
        let model = NetworkModel::ideal()
            .with_partition(Partition::isolate(vec![0], 0, 2))
            .with_partition(Partition::isolate(vec![1], 5, 6));
        assert!(model.severed(0, 1, 1));
        assert!(model.severed(1, 2, 5));
        assert!(!model.severed(0, 1, 3));
    }
}
