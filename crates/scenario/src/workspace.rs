//! Per-worker working memory a suite threads through every backend run.

use abft_dgd::RoundWorkspace;

/// The reusable state one suite worker owns across all its runs: one
/// [`RoundWorkspace`] — the round batch and the worker pools — shared by
/// the in-process and threaded backends, which run the same round loop
/// over it.
///
/// Threading this through [`Backend::run_with_workspace`] is what lets a
/// 14×6 grid pay batch and thread setup once instead of per cell — on the
/// threaded backend every run after the first is a
/// [fleet-reuse hit](crate::BackendMetrics::fleet_reuse_hits).
/// Message-passing backends ignore it entirely.
///
/// [`Backend::run_with_workspace`]: crate::Backend::run_with_workspace
#[derive(Debug, Default)]
pub struct SuiteWorkspace {
    round: RoundWorkspace,
}

impl SuiteWorkspace {
    /// An empty workspace; buffers and pools materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The round workspace the in-process and threaded backends run on
    /// (and a suite installs its shared worker pool in).
    pub fn round_mut(&mut self) -> &mut RoundWorkspace {
        &mut self.round
    }
}
