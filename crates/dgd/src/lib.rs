//! The distributed gradient-descent (DGD) method of Section 4, with
//! gradient filtering.
//!
//! Each iteration implements the paper's two steps:
//!
//! * **S1** — the server broadcasts `x_t`; honest agents reply with
//!   `∇Q_i(x_t)`, Byzantine agents with arbitrary vectors (an
//!   [`abft_attacks::ByzantineStrategy`]), and agents that fail to reply are
//!   eliminated from the system;
//! * **S2** — the server aggregates with a gradient filter and updates
//!   `x_{t+1} = [x_t − η_t·GradFilter(g_1, …, g_n)]_W` (eq. 21), projecting
//!   onto a compact convex set `W`.
//!
//! Both steps are written once. S1 is [`AgentCell::reply_into`] — what one
//! agent reports, the only code that calls a cost's gradient or a
//! strategy's forgery on a driver path — collected a round at a time by a
//! [`RoundWorkspace`] (one persistent batch, one pool cache); S2 —
//! aggregate, check, observe, halt or update — is [`RoundEngine::step`],
//! which knows nothing of agents: what a run's records measure is a
//! [`RoundMetrics`], and it is also the step of every honest agent of the
//! peer-to-peer runtime and of robust D-SGD (`abft-ml`).
//! [`RoundWorkspace::run_rounds`] is the `for t { S1; S2 }` loop the
//! in-process driver and the event-loop runtime share: [`DgdSimulation`]
//! is that loop filling on the caller's thread, with omniscient attacks
//! allowed, recording the paper's plotted series (loss, distance) plus
//! Theorem 3's `φ_t` for convergence-condition checks ([`convergence`]).
//!
//! # Example
//!
//! ```
//! use abft_attacks::GradientReverse;
//! use abft_dgd::{DgdSimulation, ProjectionSet, RunOptions, StepSchedule};
//! use abft_filters::Cge;
//! use abft_problems::RegressionProblem;
//!
//! # fn main() -> Result<(), abft_dgd::DgdError> {
//! let problem = RegressionProblem::paper_instance();
//! let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
//!
//! let mut sim = DgdSimulation::new(*problem.config(), problem.costs())?
//!     .with_byzantine(0, Box::new(GradientReverse::new()))?;
//! let options = RunOptions::paper_defaults(x_h.clone());
//! let result = sim.run(&Cge::new(), &options)?;
//! // DGD + CGE converges to within the measured redundancy eps = 0.0890.
//! assert!(result.final_estimate.dist(&x_h) < 0.0890);
//! # Ok(())
//! # }
//! ```

pub mod convergence;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod projection;
pub mod schedule;
pub mod simulation;

pub use convergence::{phi_lower_bound_holds, settles_within};
pub use engine::{Outcome, RoundEngine, RoundMetrics, RunCounters};
pub use error::DgdError;
pub use fleet::{AgentCell, RoundWorkspace};
pub use projection::ProjectionSet;
pub use schedule::StepSchedule;
pub use simulation::{DgdSimulation, ObservedRun, RunOptions, RunResult};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::error::DgdError;
    pub use crate::fleet::RoundWorkspace;
    pub use crate::projection::ProjectionSet;
    pub use crate::schedule::StepSchedule;
    pub use crate::simulation::{DgdSimulation, ObservedRun, RunOptions, RunResult};
}
