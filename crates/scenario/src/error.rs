//! Error type for the scenario layer.

use abft_attacks::UnknownAttack;
use abft_core::{CoreError, ValidationError};
use abft_dgd::DgdError;
use abft_filters::FilterError;
use abft_runtime::RuntimeError;
use std::fmt;

/// Errors produced while building or running a [`crate::Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The builder was finalized without a problem (agent costs).
    MissingProblem,
    /// The builder was finalized without a gradient filter.
    MissingFilter,
    /// The builder was finalized without run options.
    MissingOptions,
    /// The `(n, f)` pair violates a core admissibility rule (Lemma 1).
    Core(CoreError),
    /// A structural problem with the spec (cost dimensions, fault budget…).
    Validation(ValidationError),
    /// The filter name did not resolve, or the filter rejected a round.
    Filter(FilterError),
    /// The attack name did not resolve.
    Attack(UnknownAttack),
    /// A DGD step failed outside a runtime launch. Every backend launches
    /// through `abft_runtime::DgdTask`, so a run's DGD failures (a filter
    /// error, a diverged estimate) arrive as
    /// `Runtime(RuntimeError::Dgd(_))`.
    Dgd(DgdError),
    /// The in-process, threaded, peer-to-peer, or simulated runtime failed.
    Runtime(RuntimeError),
    /// The scenario asks for something its backend (or the spec itself)
    /// cannot express — e.g. network-level faults on a backend without a
    /// simulated network.
    Unsupported(String),
    /// The observation plan is malformed (zero subsampling stride,
    /// non-finite or zero-window halt rule), or a report was asked for a
    /// trace its recording mode never produced.
    InvalidObservation(String),
    /// Writing a report to disk failed.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::MissingProblem => {
                write!(f, "scenario has no problem: call builder().problem(costs)")
            }
            ScenarioError::MissingFilter => {
                write!(f, "scenario has no filter: call .filter(name)")
            }
            ScenarioError::MissingOptions => {
                write!(f, "scenario has no run options: call .options(RunOptions)")
            }
            ScenarioError::Core(e) => write!(f, "core failure: {e}"),
            ScenarioError::Validation(e) => write!(f, "invalid scenario: {e}"),
            ScenarioError::Filter(e) => write!(f, "filter failure: {e}"),
            ScenarioError::Attack(e) => write!(f, "attack failure: {e}"),
            ScenarioError::Dgd(e) => write!(f, "dgd failure: {e}"),
            ScenarioError::Runtime(e) => write!(f, "runtime failure: {e}"),
            ScenarioError::Unsupported(msg) => write!(f, "unsupported scenario: {msg}"),
            ScenarioError::InvalidObservation(msg) => {
                write!(f, "invalid observation plan: {msg}")
            }
            ScenarioError::Io(msg) => write!(f, "i/o failure: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Core(e) => Some(e),
            ScenarioError::Validation(e) => Some(e),
            ScenarioError::Filter(e) => Some(e),
            ScenarioError::Attack(e) => Some(e),
            ScenarioError::Dgd(e) => Some(e),
            ScenarioError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ScenarioError {
    fn from(e: CoreError) -> Self {
        ScenarioError::Core(e)
    }
}

impl From<ValidationError> for ScenarioError {
    fn from(e: ValidationError) -> Self {
        ScenarioError::Validation(e)
    }
}

impl From<FilterError> for ScenarioError {
    fn from(e: FilterError) -> Self {
        ScenarioError::Filter(e)
    }
}

impl From<UnknownAttack> for ScenarioError {
    fn from(e: UnknownAttack) -> Self {
        ScenarioError::Attack(e)
    }
}

impl From<DgdError> for ScenarioError {
    fn from(e: DgdError) -> Self {
        ScenarioError::Dgd(e)
    }
}

impl From<RuntimeError> for ScenarioError {
    fn from(e: RuntimeError) -> Self {
        ScenarioError::Runtime(e)
    }
}
