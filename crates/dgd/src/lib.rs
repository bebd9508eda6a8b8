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
//! [`RowSource::serve`] is the one `for t { S1; S2 }` loop of every
//! driver — [`RoundWorkspace::run_rounds`] runs it over the lockstep
//! cells, `abft-runtime` over its bus and peer-to-peer sources, `abft-ml`
//! over D-SGD's mini-batches — recording the paper's plotted series (loss,
//! distance) plus Theorem 3's `φ_t` for convergence-condition checks
//! ([`convergence`]).
//!
//! This crate holds the steps, not a way to launch them: the launch value
//! is `abft_runtime::DgdTask`, whose `Launch::InProcess` is the loop below
//! behind validated fault assignment (the fault budget, agent ranges, the
//! honest set) — and `Launch::Threaded` is the same loop with the fill
//! sharded over worker threads.
//!
//! # Example
//!
//! The primitives, wired by hand: one cell per agent, one engine, one loop.
//!
//! ```
//! use abft_attacks::GradientReverse;
//! use abft_core::observe::NullObserver;
//! use abft_dgd::{AgentCell, RoundEngine, RoundWorkspace, RunOptions};
//! use abft_filters::Cge;
//! use abft_net::NetMetrics;
//! use abft_problems::RegressionProblem;
//! use abft_telemetry::Telemetry;
//!
//! # fn main() -> Result<(), abft_dgd::DgdError> {
//! let problem = RegressionProblem::paper_instance();
//! let honest = [1, 2, 3, 4, 5];
//! let x_h = problem.subset_minimizer(&honest).expect("full rank");
//!
//! // S1: what each agent reports — agent 0 reverses its gradient.
//! let mut cells: Vec<AgentCell> = problem.costs().into_iter().map(AgentCell::new).collect();
//! cells[0].forge(Box::new(GradientReverse::new()));
//!
//! // S2: the engine owns the estimate and steps it through the filter.
//! let options = RunOptions::paper_defaults(x_h.clone());
//! let (filter, mut observer) = (Cge::new(), NullObserver);
//! let telemetry = Telemetry::wall(options.telemetry);
//! let mut engine = RoundEngine::new(&cells, &honest, &filter, &options, &mut observer, telemetry)?;
//! let f = problem.config().f();
//! RoundWorkspace::new().run_rounds(&mut cells, 1, f, &mut engine)?;
//! let run = engine.finish(NetMetrics::default())?.run;
//! // DGD + CGE converges to within the measured redundancy eps = 0.0890.
//! assert!(run.final_estimate.dist(&x_h) < 0.0890);
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

pub mod convergence;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod projection;
pub mod schedule;
pub mod simulation;

pub use convergence::{phi_lower_bound_holds, settles_within};
pub use engine::{Outcome, RoundEngine, RoundMetrics, RowSource, RunCounters};
pub use error::DgdError;
pub use fleet::{AgentCell, RoundWorkspace};
pub use projection::ProjectionSet;
pub use schedule::StepSchedule;
pub use simulation::{ObservedRun, RunOptions, RunResult};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::error::DgdError;
    pub use crate::fleet::RoundWorkspace;
    pub use crate::projection::ProjectionSet;
    pub use crate::schedule::StepSchedule;
    pub use crate::simulation::{ObservedRun, RunOptions, RunResult};
}
