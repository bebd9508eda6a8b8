//! Shared vocabulary types for the `approx-bft` workspace.
//!
//! This crate holds the types that every other crate in the workspace speaks:
//! the `(n, f)` system configuration of the paper ([`SystemConfig`]), error
//! types ([`CoreError`]), per-iteration convergence records
//! ([`trace::Trace`]), the run-observation contract ([`observe`]), and a tiny
//! CSV writer used by the experiment harness ([`csv`]).
//!
//! The paper considers a synchronous system of `n` agents of which up to `f`
//! may be Byzantine faulty. [`SystemConfig`] encodes the two admissibility
//! regimes that appear throughout the paper:
//!
//! * `f < n/2` — required for any deterministic `(f, ε)`-resilient algorithm
//!   to exist at all (Lemma 1),
//! * `f < n/3` — required to simulate the server-based architecture on a
//!   peer-to-peer network via Byzantine broadcast (Section 1.4), and also the
//!   regime in which the CGE bound of Theorem 4 is non-vacuous.
//!
//! # Example
//!
//! ```
//! use abft_core::SystemConfig;
//!
//! # fn main() -> Result<(), abft_core::CoreError> {
//! let cfg = SystemConfig::new(6, 1)?;
//! assert_eq!(cfg.honest_quorum(), 5);     // n - f
//! assert_eq!(cfg.redundancy_quorum(), 4); // n - 2f
//! assert!(cfg.supports_peer_to_peer());   // 3·1 < 6
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod csv;
pub mod error;
pub mod observe;
pub mod subsets;
pub mod trace;
pub mod validate;

pub use config::SystemConfig;
pub use error::CoreError;
pub use observe::{
    observe_round, ControlFlow, ConvergenceHalt, CsvStreamer, HaltReason, MetricSource,
    NullObserver, RoundView, RunObserver, RunSummary, TraceRecorder,
};
pub use trace::{IterationRecord, Trace};
pub use validate::ValidationError;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::error::CoreError;
    pub use crate::observe::{
        ControlFlow, ConvergenceHalt, HaltReason, RunObserver, RunSummary, TraceRecorder,
    };
    pub use crate::trace::{IterationRecord, Trace};
}
