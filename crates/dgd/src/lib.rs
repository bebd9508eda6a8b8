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
//! The step itself — aggregate, check, observe, halt or update — is
//! [`RoundEngine::step`], written once and called by every driver in the
//! workspace. [`DgdSimulation`] is the in-process driver: it fills the
//! round's batch by calling the costs directly, and records the paper's
//! plotted series (loss, distance) plus Theorem 3's `φ_t` for
//! convergence-condition checks ([`convergence`]).
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
pub mod projection;
pub mod schedule;
pub mod simulation;

pub use convergence::{phi_lower_bound_holds, settles_within};
pub use engine::{Outcome, RoundEngine, RunCounters};
pub use error::DgdError;
pub use projection::ProjectionSet;
pub use schedule::StepSchedule;
pub use simulation::{DgdSimulation, ObservedRun, RoundWorkspace, RunOptions, RunResult};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::error::DgdError;
    pub use crate::projection::ProjectionSet;
    pub use crate::schedule::StepSchedule;
    pub use crate::simulation::{
        DgdSimulation, ObservedRun, RoundWorkspace, RunOptions, RunResult,
    };
}
