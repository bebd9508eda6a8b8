//! Fan a grid of scenarios out across worker threads.

use crate::backend::{Backend, RunReport, SuiteWorkspace};
use crate::error::ScenarioError;
use crate::spec::{Scenario, ScenarioBuilder};
use abft_core::csv::CsvTable;
use abft_linalg::WorkerPool;
use abft_telemetry::clock::Stopwatch;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// A batch of scenarios executed on one backend, serially or across worker
/// threads, producing one [`SuiteReport`].
///
/// Parallel execution is deterministic: reports come back in scenario
/// order regardless of thread scheduling (each scenario materializes its
/// own seeded strategies, so execution order cannot leak into results —
/// asserted by the suite determinism test). Each worker thread owns one
/// [`SuiteWorkspace`]: in-process and threaded grids alike reuse a single
/// gradient batch and one set of worker pools per worker across all their
/// runs (preserving the zero-per-iteration-allocation property of the
/// batch pipeline) instead of rebuilding them per cell.
///
/// # Example
///
/// ```
/// use abft_dgd::RunOptions;
/// use abft_problems::RegressionProblem;
/// use abft_scenario::{InProcess, Scenario, ScenarioSuite};
///
/// # fn main() -> Result<(), abft_scenario::ScenarioError> {
/// let problem = RegressionProblem::paper_instance();
/// let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
/// let template = Scenario::builder()
///     .problem(&problem)
///     .faults(1)
///     .options(RunOptions::paper_defaults_with_iterations(x_h, 50));
/// let suite = ScenarioSuite::grid(&template, 0, &["cge", "cwtm"], &["gradient-reverse", "zero"])?;
/// let report = suite.run_parallel(&InProcess, 2)?;
/// assert_eq!(report.reports().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct ScenarioSuite {
    scenarios: Vec<Scenario>,
}

impl std::fmt::Debug for ScenarioSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.scenarios.iter().map(Scenario::label))
            .finish()
    }
}

impl ScenarioSuite {
    /// An empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// A suite over the given scenarios.
    pub fn from_scenarios(scenarios: Vec<Scenario>) -> Self {
        ScenarioSuite { scenarios }
    }

    /// Appends a scenario.
    pub fn push(&mut self, scenario: Scenario) {
        self.scenarios.push(scenario);
    }

    /// Builds a filters × attacks grid from a template builder: every cell
    /// clones the template, assigns `attack` to `byzantine_agent`, selects
    /// `filter`, and labels itself `"<filter>+<attack>@<agent>"`.
    ///
    /// The template normally carries the problem, `f`, and options; cells
    /// are laid out filter-major (all attacks for the first filter, then
    /// the next filter), so chunking the reports by `attacks.len()` yields
    /// one table row per filter — how the experiment tables print.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioBuilder::build`] failures — in particular
    /// unknown filter/attack names, reported with the full list of valid
    /// names.
    pub fn grid(
        template: &ScenarioBuilder,
        byzantine_agent: usize,
        filters: &[&str],
        attacks: &[&str],
    ) -> Result<Self, ScenarioError> {
        Self::grid_seeded(template, byzantine_agent, filters, attacks, 0)
    }

    /// [`ScenarioSuite::grid`] with an explicit seed for every cell's
    /// attack randomness.
    ///
    /// # Errors
    ///
    /// See [`ScenarioSuite::grid`].
    pub fn grid_seeded(
        template: &ScenarioBuilder,
        byzantine_agent: usize,
        filters: &[&str],
        attacks: &[&str],
        seed: u64,
    ) -> Result<Self, ScenarioError> {
        let mut suite = ScenarioSuite::new();
        for filter in filters {
            for attack in attacks {
                suite.push(
                    template
                        .clone()
                        .filter(*filter)
                        .attack_seeded(byzantine_agent, *attack, seed)
                        .build()?,
                );
            }
        }
        Ok(suite)
    }

    /// The scenarios, in execution/report order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios in the suite.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the suite holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The default worker count for parallel runs: the machine's available
    /// parallelism, falling back to 4 when it cannot be queried. The one
    /// policy every grid call site shares.
    pub fn auto_workers() -> usize {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }

    /// The one aggregation pool a suite run shares: sized to the largest
    /// `aggregation_threads` any scenario requests, `None` when every
    /// scenario is serial. Suite workers install it in their workspaces,
    /// so in-process and threaded grids share one set of threads — for
    /// aggregation, and for a fleet of as many workers — instead of
    /// spawning a pool per worker. (The message-passing backends own
    /// their round state and build their own per-run pool — lazily, so a
    /// pool whose rounds stay below the kernels' sharding floor costs
    /// nothing.)
    fn shared_aggregation_pool(&self) -> Option<Arc<WorkerPool>> {
        let threads = self
            .scenarios
            .iter()
            .map(|scenario| scenario.options().aggregation_threads)
            .max()
            .unwrap_or(1);
        (threads > 1).then(|| Arc::new(WorkerPool::new(threads)))
    }

    /// Runs every scenario serially on `backend`, reusing one workspace
    /// across the whole suite.
    ///
    /// # Errors
    ///
    /// Returns the first scenario's failure, if any.
    pub fn run(&self, backend: &dyn Backend) -> Result<SuiteReport, ScenarioError> {
        let started = Stopwatch::start();
        let mut workspace = SuiteWorkspace::new();
        if let Some(pool) = self.shared_aggregation_pool() {
            workspace.set_shared_pool(pool);
        }
        let mut reports = Vec::with_capacity(self.scenarios.len());
        for scenario in &self.scenarios {
            reports.push(backend.run_with_workspace(scenario, &mut workspace)?);
        }
        Ok(SuiteReport {
            reports,
            elapsed: started.elapsed(),
        })
    }

    /// Runs the suite across `workers` threads (clamped to the suite size;
    /// `workers = 1` degenerates to [`ScenarioSuite::run`]).
    ///
    /// Scenarios are pulled from a shared work queue, each worker owns one
    /// reused [`SuiteWorkspace`], and reports are returned in scenario
    /// order — bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Returns the failure of the earliest-indexed failing scenario, if
    /// any. Use [`ScenarioSuite::run_parallel_collect`] when individual
    /// cell failures should not abort the rest of the grid.
    pub fn run_parallel(
        &self,
        backend: &dyn Backend,
        workers: usize,
    ) -> Result<SuiteReport, ScenarioError> {
        let workers = workers.clamp(1, self.scenarios.len().max(1));
        if workers <= 1 {
            return self.run(backend);
        }
        let SuiteOutcomes { outcomes, elapsed } = self.run_parallel_collect(backend, workers);
        let mut reports = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            reports.push(outcome?);
        }
        Ok(SuiteReport { reports, elapsed })
    }

    /// Like [`ScenarioSuite::run_parallel`], but fault-tolerant: every
    /// scenario executes regardless of other cells' failures, and the
    /// result carries one `Result` per scenario (in scenario order).
    ///
    /// This is what grid experiments use to print `n/a` for a failing
    /// cell — e.g. a filter whose `(n, f)` precondition the instance
    /// violates — while the remaining cells still report.
    pub fn run_parallel_collect(&self, backend: &dyn Backend, workers: usize) -> SuiteOutcomes {
        let workers = workers.clamp(1, self.scenarios.len().max(1));
        let started = Stopwatch::start();
        // One aggregation pool for the whole run — workers *share* it, so
        // `suite workers × aggregation threads` never multiplies.
        let shared_pool = self.shared_aggregation_pool();
        if workers <= 1 {
            let mut workspace = SuiteWorkspace::new();
            if let Some(pool) = shared_pool {
                workspace.set_shared_pool(pool);
            }
            let outcomes = self
                .scenarios
                .iter()
                .map(|scenario| backend.run_with_workspace(scenario, &mut workspace))
                .collect();
            return SuiteOutcomes {
                outcomes,
                elapsed: started.elapsed(),
            };
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<RunReport, ScenarioError>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let scenarios = &self.scenarios;
                let shared_pool = shared_pool.clone();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "results carry their scenario index and are reassembled in order"
                )]
                scope.spawn(move || {
                    let mut workspace = SuiteWorkspace::new();
                    if let Some(pool) = shared_pool {
                        workspace.set_shared_pool(pool);
                    }
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(index) else {
                            break;
                        };
                        let outcome = backend.run_with_workspace(scenario, &mut workspace);
                        if tx.send((index, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        drop(tx);

        // Re-order completions into scenario order (deterministic no
        // matter how the workers interleaved).
        let mut slots: Vec<Option<Result<RunReport, ScenarioError>>> =
            (0..self.scenarios.len()).map(|_| None).collect();
        for (index, outcome) in rx {
            slots[index] = Some(outcome);
        }
        SuiteOutcomes {
            outcomes: slots
                .into_iter()
                .map(|slot| slot.expect("every scenario index is claimed exactly once"))
                .collect(),
            elapsed: started.elapsed(),
        }
    }
}

/// Per-scenario outcomes of a fault-tolerant suite run
/// ([`ScenarioSuite::run_parallel_collect`]), in scenario order.
#[derive(Debug)]
pub struct SuiteOutcomes {
    /// One result per scenario, index-aligned with
    /// [`ScenarioSuite::scenarios`].
    pub outcomes: Vec<Result<RunReport, ScenarioError>>,
    /// Total wall-clock duration of the run.
    pub elapsed: Duration,
}

/// The result of running a [`ScenarioSuite`]: one [`RunReport`] per
/// scenario, in scenario order, plus total wall-clock time.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    reports: Vec<RunReport>,
    /// Total wall-clock duration of the suite run.
    pub elapsed: Duration,
}

impl SuiteReport {
    /// The per-scenario reports, in scenario order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// A summary table with one row per scenario (scenario, backend,
    /// filter, final distance, rounds, milliseconds).
    pub fn summary_table(&self) -> CsvTable {
        let mut table = CsvTable::new(RunReport::summary_header());
        for report in &self.reports {
            table
                .push_row(report.summary_row())
                .expect("summary rows have a fixed width");
        }
        table
    }

    /// Writes every scenario's recorded trace under `dir` in the
    /// workspace's standard CSV format, as `<scenario>_<backend>.csv`
    /// (label sanitized for the filesystem; colliding names get a
    /// `_<index>` suffix so no trace silently overwrites another).
    /// Reports without a trace (`Recording::SummaryOnly`) are skipped.
    /// Returns the written paths, one per recorded report.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] when a file cannot be written.
    pub fn write_traces(
        &self,
        dir: impl AsRef<Path>,
    ) -> Result<Vec<std::path::PathBuf>, ScenarioError> {
        let dir = dir.as_ref();
        let mut taken = std::collections::BTreeSet::new();
        let mut written = Vec::with_capacity(self.reports.len());
        for (index, report) in self.reports.iter().enumerate() {
            if report.trace.is_none() {
                continue;
            }
            let stem = format!(
                "{}_{}",
                sanitize(&report.scenario),
                sanitize(report.backend)
            );
            let stem = if taken.insert(stem.clone()) {
                stem
            } else {
                format!("{stem}_{index}")
            };
            let path = dir.join(format!("{stem}.csv"));
            report.write_trace_csv(&path)?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Maps a scenario label to a safe file stem.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InProcess;
    use abft_dgd::RunOptions;
    use abft_problems::RegressionProblem;

    fn template(iterations: usize) -> ScenarioBuilder {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        Scenario::builder()
            .problem(&problem)
            .faults(1)
            .options(RunOptions::paper_defaults_with_iterations(x_h, iterations))
    }

    #[test]
    fn grid_enumerates_filter_major() {
        let suite =
            ScenarioSuite::grid(&template(5), 0, &["cge", "cwtm"], &["zero", "random"]).unwrap();
        let labels: Vec<&str> = suite.scenarios().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["cge+zero@0", "cge+random@0", "cwtm+zero@0", "cwtm+random@0"]
        );
    }

    #[test]
    fn collect_runs_every_cell_despite_failures() {
        // Bulyan needs n ≥ 4f + 3 = 7 > 6, so its cells fail at run time;
        // the surviving cells must still report.
        let suite =
            ScenarioSuite::grid(&template(5), 0, &["bulyan", "cge"], &["zero", "random"]).unwrap();
        for workers in [1, 3] {
            let outcome = suite.run_parallel_collect(&InProcess, workers);
            assert_eq!(outcome.outcomes.len(), 4);
            assert!(outcome.outcomes[0].is_err() && outcome.outcomes[1].is_err());
            assert!(outcome.outcomes[2].is_ok() && outcome.outcomes[3].is_ok());
        }
    }

    #[test]
    fn empty_suite_runs_to_an_empty_report() {
        let report = ScenarioSuite::new().run_parallel(&InProcess, 4).unwrap();
        assert!(report.reports().is_empty());
    }

    #[test]
    fn grid_misses_name_the_known_registries() {
        let err = ScenarioSuite::grid(&template(5), 0, &["not-a-filter"], &["zero"]).unwrap_err();
        assert!(err.to_string().contains("cwtm"));
    }

    #[test]
    fn summary_table_has_one_row_per_cell() {
        let suite = ScenarioSuite::grid(&template(5), 0, &["cge"], &["zero", "random"]).unwrap();
        let report = suite.run(&InProcess).unwrap();
        assert_eq!(report.summary_table().row_count(), 2);
    }

    #[test]
    fn traces_are_written_with_sanitized_names() {
        let suite = ScenarioSuite::grid(&template(3), 0, &["cge"], &["zero"]).unwrap();
        let report = suite.run(&InProcess).unwrap();
        let dir = std::env::temp_dir().join("abft_scenario_suite_test");
        let paths = report.write_traces(&dir).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0]
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("cge_zero_0_in-process"));
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(text.starts_with("iteration,loss,distance,grad_norm,phi"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
