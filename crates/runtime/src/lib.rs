//! Distributed-system substrate: the runtimes one [`DgdTask`] can be
//! launched on, and the exponential-information-gathering (EIG)
//! Byzantine-broadcast primitive behind the peer-to-peer architecture of
//! Figure 1.
//!
//! A run is `task.run(launch, filter, options, observer)`: the
//! [`DgdTask`] is the declarative description of the system, costs, and
//! fault plan, and the [`Launch`] names where it executes. Every runtime
//! asks the same [`AgentCell`] what an agent reports (step S1) and calls
//! the same server step ([`abft_dgd::RoundEngine::step`], step S2); they
//! differ only in how a round's rows travel from the cells to the batch
//! that step aggregates. Every launch shares even the loop
//! ([`abft_dgd::RowSource::serve`]: rows, S1 budget, step) and differs
//! only in its [`abft_dgd::RowSource`]:
//!
//! * [`Launch::InProcess`] / [`Launch::Threaded`] / [`Launch::Fleet`] —
//!   the **server-based** architecture (a trustworthy server and `n`
//!   agents, up to `f` Byzantine) in lockstep: dispatch a round event to
//!   every agent cell (broadcast `x_t`), collect the rows they streamed
//!   into the gradient batch, eliminate silent agents. One execution
//!   ([`event_loop`]) over the lockstep source
//!   ([`RoundWorkspace::run_rounds`]) in two configurations. In process
//!   the cells fill on the caller's thread, omniscient strategies are
//!   served and only rounds are counted; as an event loop the fill is
//!   sharded over `fleet_workers` of a fixed-schedule worker pool — traces
//!   bit-identical at any worker count — and the messages passed are
//!   reported. A [`RoundWorkspace`] survives across runs, so scenario
//!   grids pay setup once.
//! * [`Launch::PeerToPeer`] — a complete network of `n` agents,
//!   `f < n/3` faulty, where the server algorithm is simulated with
//!   Byzantine broadcast. [`eig_broadcast`] implements the classic
//!   `f + 1`-round EIG protocol (agreement + validity for `3f < n`); one
//!   broadcast instance per agent per iteration gives every honest agent
//!   the same multiset, and every honest agent steps its own
//!   [`abft_dgd::RoundEngine`] over it, so the same server step keeps
//!   them in lockstep. The leader's engine runs the loop; the row source
//!   is every honest perspective, the others stepping inside it
//!   ([`peer_to_peer`]).
//! * [`Launch::Simulated`] — either architecture, or the asynchronous
//!   bounded-staleness server ([`async_server`]), over a seeded
//!   `abft_net::SimulatedNetwork` whose links can delay, drop, reorder,
//!   and partition messages. Both simulated servers are one execution
//!   ([`simulated`]): the row source under a round deadline, or the one
//!   under a staleness bound. All message traffic — real or simulated —
//!   travels through the same [`abft_net::MessageBus`] abstraction, so the
//!   protocols are written once.
//!
//! Every launch returns one [`Outcome`]: the observed run plus its
//! [`RunCounters`]. The `abft-scenario` crate is the high-level way to
//! build and run these.
//!
//! # Example
//!
//! ```
//! use abft_dgd::RunOptions;
//! use abft_filters::Cge;
//! use abft_problems::RegressionProblem;
//! use abft_runtime::{DgdTask, Launch};
//!
//! # fn main() -> Result<(), abft_runtime::RuntimeError> {
//! let problem = RegressionProblem::paper_instance();
//! let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
//! let mut options = RunOptions::paper_defaults(x_h);
//! options.iterations = 50;
//! // All-honest run on the event loop: six agent cells, one synchronous
//! // round per iteration.
//! let out = DgdTask::new(*problem.config(), problem.costs())
//!     .run_dense(Launch::Threaded, &Cge::new(), &options)?;
//! assert_eq!(out.run.trace.len(), 51);
//! assert_eq!(out.counters.replies_received, 6 * 51);
//! # Ok(())
//! # }
//! ```

// The aggregation path must not panic on adversarial input: clippy rejects
// every panicking call outside tests, and `abft-lint`'s `panic-reach` adds
// the asserts and indexing a hot-path root reaches in any crate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod async_server;
pub mod eig;
pub mod error;
pub mod event_loop;
pub mod message;
pub mod peer_to_peer;
pub mod simulated;
mod simulation;
pub mod task;

pub use abft_dgd::{AgentCell, Outcome, RoundWorkspace, RunCounters};
pub use async_server::AsyncConfig;
pub use eig::{eig_broadcast, eig_broadcast_on, BroadcastOutcome, EigMessage, EquivocationPlan};
pub use error::RuntimeError;
pub use message::ServerWire;
pub use simulated::{SimTopology, SimulatedRun};
pub use task::{DgdTask, Launch};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::async_server::AsyncConfig;
    pub use crate::eig::eig_broadcast;
    pub use crate::error::RuntimeError;
    pub use crate::simulated::{SimTopology, SimulatedRun};
    pub use crate::task::{DgdTask, Launch};
    pub use abft_dgd::{Outcome, RoundWorkspace, RunCounters};
}
