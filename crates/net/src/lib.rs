//! Deterministic network simulation with link-level fault injection.
//!
//! The paper's system model (Section 1.4) assumes a *synchronous, reliable*
//! network: every message arrives, on time, in order. Real deployments
//! face delayed, dropped, reordered, and partitioned messages on top of
//! Byzantine agents. This crate makes that gap explorable without giving
//! up reproducibility:
//!
//! * [`MessageBus`] — the timestamped message path both the real runtimes
//!   and the simulator implement, with two views of time: the synchronous
//!   round view ("send, then collect what arrived by the deadline" via
//!   [`end_round`](MessageBus::end_round)) and the continuous event-pull
//!   view ([`advance_until`](MessageBus::advance_until) /
//!   [`next_event_at`](MessageBus::next_event_at)) that the asynchronous
//!   bounded-staleness drivers build on. A protocol written against either
//!   view runs unmodified on any bus; both deliver into a buffer the
//!   caller keeps and reuses. [`PerfectBus`] is the reliable reference
//!   implementation.
//! * [`SimulatedNetwork`] — a seeded discrete-event simulator: virtual
//!   clock, an event queue in `(delivered_at, send sequence)` order (two
//!   send-order lanes, loopbacks and link messages, merged on delivery;
//!   the link lane is sorted in place only when a send lands out of
//!   order), per-link [`LinkModel`]s (fixed delay
//!   plus a uniform reorder window, drop probability) and scheduled
//!   [`Partition`]s. The full event schedule is a pure function of the
//!   [`NetworkModel`] and the call sequence; per-link randomness streams
//!   are derived from `(seed, from, to)` so links never perturb each
//!   other.
//! * [`NetMetrics`] — uniform counters (sent / delivered / dropped / late,
//!   virtual time, an order-sensitive schedule digest) every bus reports.
//! * [`NetFault`] — declarative network-level Byzantine behaviours
//!   (selective sending, per-link equivocation) that runtimes layer on
//!   top of the attack registry.
//!
//! Straggler semantics: a message that misses its round deadline is
//! discarded, so a late gradient is indistinguishable from a crashed
//! sender for that round — the timeout rule the server architecture's S1
//! step prescribes.
//!
//! # Example
//!
//! ```
//! use abft_net::{LinkModel, MessageBus, NetworkModel};
//!
//! // 10% loss and a 500 ns reorder window on every link, seed 42.
//! let model = NetworkModel::seeded(42)
//!     .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(500));
//! let mut net = model.build::<&'static str>(4);
//! net.begin_iteration(0);
//! net.send(0, 1, "gradient");
//! net.send(2, 3, "gradient");
//! let mut delivered = Vec::new();
//! net.end_round(&mut delivered);
//! let metrics = net.metrics();
//! assert!(metrics.is_balanced());
//! assert_eq!(metrics.sent, 2);
//! assert_eq!(delivered.len() as u64, metrics.delivered);
//! ```

pub mod bus;
pub mod fault;
pub mod link;
pub mod metrics;
pub mod model;
pub mod rng;
pub mod sim;

pub use bus::{Delivery, MessageBus, PerfectBus};
pub use fault::{validate_net_faults, NetFault};
pub use link::{LinkModel, Partition};
pub use metrics::NetMetrics;
pub use model::NetworkModel;
pub use sim::SimulatedNetwork;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::bus::{Delivery, MessageBus, PerfectBus};
    pub use crate::fault::NetFault;
    pub use crate::link::{LinkModel, Partition};
    pub use crate::metrics::NetMetrics;
    pub use crate::model::NetworkModel;
    pub use crate::sim::SimulatedNetwork;
}
