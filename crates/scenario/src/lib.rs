//! The scenario layer: one declarative spec, any backend, one report.
//!
//! The paper's claims (Theorems 3–6, Figures 2–5) are all instances of a
//! single experiment shape — `n` agents of which `f` are Byzantine, an
//! attack, a gradient filter, a runtime, `T` iterations. This crate makes
//! that shape a first-class value:
//!
//! * [`Scenario`] — an immutable, validated spec built with
//!   [`Scenario::builder`]. Filters and attacks are resolved through the
//!   workspace registries ([`abft_filters::by_name`],
//!   [`abft_attacks::attack_by_name`]), so specs are plain data: names,
//!   seeds, and run options.
//! * [`Backend`] — where the spec runs, each one a
//!   [`Launch`](abft_runtime::Launch) of the same [`abft_runtime::DgdTask`]:
//!   [`InProcess`] the synchronous server loop on the caller's thread,
//!   [`Threaded`] the same loop as an event-loop server runtime,
//!   [`PeerToPeer`] the EIG-broadcast runtime, and [`Simulated`]
//!   a seeded discrete-event network simulator (either architecture over
//!   links that can delay, drop, reorder, and partition messages — see
//!   [`NetworkModel`]). The same scenario value produces the identical
//!   trace on every reliable backend, and on the simulator whenever its
//!   network model is fault-free.
//! * [`RunReport`] — the unified result: the recorded [`trace`]
//!   (`iteration, loss, distance, grad_norm, phi`; `None` for
//!   summary-only runs), the always-present [`RunSummary`], the final
//!   estimate, wall-clock timing, and [`BackendMetrics`].
//! * [`Recording`] / [`HaltRule`] — the observation plan:
//!   `builder().record(Recording::Every(10)).halt(HaltRule::Converged
//!   { .. })` subsamples the trace and stops the run — deterministically,
//!   at the same round on every backend — once the estimate has settled.
//!   `Recording::SummaryOnly` turns per-round instrumentation off
//!   entirely (no honest-cost pass, no memory growth with `T`).
//! * [`ScenarioSuite`] — a filters × attacks grid (or any scenario list)
//!   fanned out across worker threads, each worker reusing one gradient
//!   batch, with deterministic scenario-ordered reports and CSV output.
//!
//! [`trace`]: abft_core::Trace
//!
//! # Example
//!
//! ```
//! use abft_dgd::RunOptions;
//! use abft_problems::RegressionProblem;
//! use abft_scenario::{Backend, InProcess, PeerToPeer, Scenario, Threaded};
//!
//! # fn main() -> Result<(), abft_scenario::ScenarioError> {
//! let problem = RegressionProblem::paper_instance();
//! let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
//!
//! // One spec…
//! let scenario = Scenario::builder()
//!     .problem(&problem)
//!     .faults(1)
//!     .attack(0, "gradient-reverse")
//!     .filter("cge")
//!     .options(RunOptions::paper_defaults_with_iterations(x_h, 60))
//!     .build()?;
//!
//! // …runs unmodified on every runtime, with identical traces.
//! let a = InProcess.run(&scenario)?;
//! let b = Threaded.run(&scenario)?;
//! let c = PeerToPeer::default().run(&scenario)?;
//! assert_eq!(a.trace, b.trace);
//! assert_eq!(a.trace, c.trace);
//! assert_eq!(a.summary, b.summary);
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod error;
pub mod spec;
pub mod suite;

pub use backend::{
    Backend, BackendMetrics, InProcess, PeerToPeer, RunReport, Simulated, SuiteWorkspace, Threaded,
};
pub use error::ScenarioError;
pub use spec::{HaltRule, IntoCosts, Recording, Scenario, ScenarioBuilder};
pub use suite::{ScenarioSuite, SuiteOutcomes, SuiteReport};

// The observation vocabulary reports are described with, re-exported so
// scenario consumers need no direct `abft-core` dependency.
pub use abft_core::observe::{HaltReason, RunSummary};

// The network vocabulary a simulated scenario is described with, re-
// exported so scenario authors need no direct `abft-net` dependency.
pub use abft_net::{LinkModel, NetFault, NetMetrics, NetworkModel, Partition};
pub use abft_runtime::{AsyncConfig, SimTopology};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::backend::{Backend, InProcess, PeerToPeer, RunReport, Simulated, Threaded};
    pub use crate::error::ScenarioError;
    pub use crate::spec::{HaltRule, Recording, Scenario, ScenarioBuilder};
    pub use crate::suite::{ScenarioSuite, SuiteReport};
    pub use abft_core::observe::{HaltReason, RunSummary};
    pub use abft_net::{LinkModel, NetFault, NetworkModel, Partition};
    pub use abft_runtime::AsyncConfig;
}
