//! Runtimes a [`Scenario`] can execute on, and the unified [`RunReport`].

use crate::error::ScenarioError;
use crate::spec::{HaltRule, Recording, Scenario};
use abft_core::csv::CsvTable;
use abft_core::observe::{
    ControlFlow, ConvergenceHalt, RoundView, RunObserver, RunSummary, TraceRecorder,
};
use abft_core::{CoreError, Trace};
use abft_linalg::Vector;
use abft_net::NetworkModel;
use abft_runtime::{AsyncConfig, DgdTask, Launch, SimTopology, SimulatedRun};
use abft_telemetry::clock::Stopwatch;
use abft_telemetry::TelemetryReport;
use std::path::Path;
use std::time::Duration;

/// Backend-level counters, unified across runtimes: the very struct the
/// drivers count into while they run (see [`abft_dgd::RunCounters`] for
/// the fields). Fields that a backend does not produce stay zero (e.g. the
/// in-process driver passes no messages; the server runtimes run no EIG
/// broadcasts).
pub use abft_dgd::RunCounters as BackendMetrics;

/// The reusable state one suite worker owns across all its runs: the
/// [`abft_dgd::RoundWorkspace`] — the round batch and the worker pools —
/// shared by the in-process and threaded backends, which run the same
/// round loop over it.
///
/// Threading this through [`Backend::run_with_workspace`] is what lets a
/// 14×6 grid pay batch and thread setup once instead of per cell — on the
/// threaded backend every run after the first is a
/// [fleet-reuse hit](BackendMetrics::fleet_reuse_hits). Message-passing
/// backends ignore it entirely.
pub type SuiteWorkspace = abft_dgd::RoundWorkspace;

/// The unified result of running one [`Scenario`] on one [`Backend`]: the
/// recorded trace (if the scenario's [`Recording`] mode kept one), the
/// always-present [`RunSummary`], the final estimate, wall-clock timing,
/// and backend-level counters.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The scenario's label.
    pub scenario: String,
    /// The backend that produced this report.
    pub backend: &'static str,
    /// The gradient filter's registry name.
    pub filter: String,
    /// The recorded per-iteration trace: `Some` with `rounds` records for
    /// [`Recording::Full`] (bit-identical to the historical dense traces),
    /// `Some` with the subsampled records for [`Recording::Every`], and
    /// `None` for [`Recording::SummaryOnly`].
    pub trace: Option<Trace>,
    /// The always-present run summary: the final record (computed once, at
    /// the last executed round), the number of rounds executed, and why
    /// the run stopped (completed vs. halted by a [`HaltRule`]).
    pub summary: RunSummary,
    /// The final estimate — the paper's `x_out` (the halt round's estimate
    /// when a halt rule fired).
    pub final_estimate: Vector,
    /// Wall-clock duration of the execution (excluding scenario
    /// materialization).
    pub elapsed: Duration,
    /// Backend-level counters.
    pub metrics: BackendMetrics,
    /// Phase timings and counters from the run's instrumented driver,
    /// present when the scenario's [`RunOptions`](abft_dgd::RunOptions)
    /// enabled telemetry. Wall-clock on the real backends, virtual-time on
    /// the simulated ones.
    pub telemetry: Option<TelemetryReport>,
}

impl RunReport {
    /// Final approximation error `‖x_out − reference‖` — infallible: read
    /// from the [`RunSummary`], which every recording mode produces.
    pub fn final_distance(&self) -> f64 {
        self.summary.final_distance()
    }

    /// Writes the recorded trace in the workspace's standard CSV format
    /// (`iteration,loss,distance,grad_norm,phi`).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidObservation`] when the scenario ran
    /// with [`Recording::SummaryOnly`] (there is no trace to write) and
    /// [`ScenarioError::Io`] when the file cannot be written.
    pub fn write_trace_csv(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        let trace = self.trace.as_ref().ok_or_else(|| {
            ScenarioError::InvalidObservation(format!(
                "scenario '{}' recorded no trace (Recording::SummaryOnly); \
                 use Recording::Full or Recording::Every to keep one",
                self.scenario
            ))
        })?;
        trace
            .write_csv(path)
            .map_err(|e: CoreError| ScenarioError::Io(e.to_string()))
    }

    /// One summary row (scenario, backend, filter, final distance, rounds,
    /// milliseconds) for [`CsvTable`]-based reports.
    pub fn summary_row(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.backend.to_string(),
            self.filter.clone(),
            format!("{:.6e}", self.final_distance()),
            self.metrics.rounds.to_string(),
            format!("{:.1}", self.elapsed.as_secs_f64() * 1e3),
        ]
    }

    /// The header matching [`RunReport::summary_row`].
    pub fn summary_header() -> Vec<String> {
        [
            "scenario",
            "backend",
            "filter",
            "final distance",
            "rounds",
            "ms",
        ]
        .into_iter()
        .map(str::to_string)
        .collect()
    }

    /// A one-report summary table (suites concatenate rows themselves).
    pub fn summary_table(&self) -> CsvTable {
        let mut table = CsvTable::new(Self::summary_header());
        table
            .push_row(self.summary_row())
            .expect("row width matches header");
        table
    }
}

/// A runtime that can execute a [`Scenario`].
///
/// All backends consume the *same* scenario value and produce the same
/// trace for it (bit-for-bit, asserted by the cross-backend equivalence
/// tests), differing only in how the rounds physically happen and which
/// [`BackendMetrics`] fields they fill in.
pub trait Backend: Send + Sync {
    /// A stable display name (`"in-process"`, `"threaded"`,
    /// `"peer-to-peer"`).
    fn name(&self) -> &'static str;

    /// Runs the scenario with caller-owned working memory.
    ///
    /// The in-process and threaded backends reuse `workspace`'s gradient
    /// batch and worker pools across runs (one workspace per suite
    /// worker). Message-passing backends own their round state and ignore
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates the backend's configuration/filter/runtime failures as
    /// [`ScenarioError`].
    fn run_with_workspace(
        &self,
        scenario: &Scenario,
        workspace: &mut SuiteWorkspace,
    ) -> Result<RunReport, ScenarioError>;

    /// Runs the scenario with a fresh workspace.
    ///
    /// # Errors
    ///
    /// See [`Backend::run_with_workspace`].
    fn run(&self, scenario: &Scenario) -> Result<RunReport, ScenarioError> {
        self.run_with_workspace(scenario, &mut SuiteWorkspace::new())
    }
}

/// Rejects what only a simulated network executes: network-level faults
/// need links to choose, and a staleness bound only means something to the
/// asynchronous simulated server, whose agents run on their own clocks.
/// ([`DgdTask::run`] rejects a staleness bound on every lockstep launch
/// with the same contract; the check here names the scenario.)
fn require_lockstep_scenario(
    backend: &'static str,
    scenario: &Scenario,
) -> Result<(), ScenarioError> {
    if !scenario.net_faults().is_empty() {
        return Err(ScenarioError::Unsupported(format!(
            "scenario '{}' carries network-level faults, which only the \
             simulated backend executes (backend: {backend})",
            scenario.label()
        )));
    }
    if scenario.options().staleness_ns.is_some() {
        return Err(ScenarioError::Unsupported(format!(
            "scenario '{}' carries a staleness bound, which only the \
             asynchronous simulated-server backend executes — the {backend} \
             backend runs in round lockstep",
            scenario.label()
        )));
    }
    Ok(())
}

/// The observer a scenario's [`Recording`] mode and [`HaltRule`] compose
/// to — the one sink every backend drives, so recording and halting
/// behave identically everywhere.
struct ScenarioObserver {
    recorder: Option<TraceRecorder>,
    halt: Option<ConvergenceHalt>,
}

impl ScenarioObserver {
    fn for_scenario(scenario: &Scenario) -> Self {
        let name = scenario.filter().name();
        let recorder = match scenario.recording() {
            Recording::Full => Some(TraceRecorder::dense(name)),
            Recording::Every(k) => Some(TraceRecorder::every(name, k)),
            Recording::SummaryOnly => None,
        };
        let halt = scenario.halt_rule().map(|rule| match rule {
            HaltRule::Converged {
                radius,
                slack,
                window,
            } => ConvergenceHalt::new(radius, slack, window),
        });
        ScenarioObserver { recorder, halt }
    }

    fn into_trace(self) -> Option<Trace> {
        self.recorder.map(TraceRecorder::into_trace)
    }
}

impl RunObserver for ScenarioObserver {
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        let mut flow = ControlFlow::Continue;
        if let Some(recorder) = &mut self.recorder {
            flow = flow.merge(recorder.observe(view));
        }
        if let Some(halt) = &mut self.halt {
            flow = flow.merge(halt.observe(view));
        }
        flow
    }
}

/// Runs `scenario`'s task on the runtime `target` names, under the
/// scenario's observer and a stopwatch, and assembles the report — the
/// body every backend shares.
fn launch(
    scenario: &Scenario,
    backend: &'static str,
    target: Launch<'_>,
) -> Result<RunReport, ScenarioError> {
    let mut observer = ScenarioObserver::for_scenario(scenario);
    let (filter, options) = (scenario.filter(), scenario.options());
    let started = Stopwatch::start();
    let out = task_for(scenario).run(target, filter, options, &mut observer)?;
    let elapsed = started.elapsed();
    Ok(RunReport {
        scenario: scenario.label().to_string(),
        backend,
        filter: filter.name().to_string(),
        trace: observer.into_trace(),
        summary: out.run.summary,
        final_estimate: out.run.final_estimate,
        elapsed,
        metrics: out.counters,
        telemetry: out.run.telemetry,
    })
}

/// Materializes a scenario's fault plan onto a [`DgdTask`] — the single
/// mapping every backend launches from, so they cannot diverge on
/// assignment order (which the bit-exactness contract relies on).
fn task_for(scenario: &Scenario) -> DgdTask {
    let mut task = DgdTask::new(*scenario.config(), scenario.costs().to_vec());
    for (agent, strategy) in scenario.byzantine_assignments() {
        task = task.byzantine(agent, strategy);
    }
    for (agent, at_iteration) in scenario.crash_assignments() {
        task = task.crash(agent, at_iteration);
    }
    task
}

/// The synchronous server loop in process ([`Launch::InProcess`]) —
/// fastest, and the only backend that supports *omniscient* attacks (which
/// need visibility of honest gradients within a round).
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl Backend for InProcess {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn run_with_workspace(
        &self,
        scenario: &Scenario,
        workspace: &mut SuiteWorkspace,
    ) -> Result<RunReport, ScenarioError> {
        require_lockstep_scenario(self.name(), scenario)?;
        launch(scenario, self.name(), Launch::InProcess(workspace))
    }
}

/// The event-loop server runtime: agent state machines multiplexed over a
/// persistent worker pool, with S1 crash elimination — the in-process
/// round loop with the fill sharded over [`RunOptions::fleet_workers`]
/// and the messages it passes reported. Batch and pools live in the
/// [`SuiteWorkspace`], so consecutive runs on one workspace reuse them
/// (reported as [`BackendMetrics::fleet_reuse_hits`]).
///
/// [`RunOptions::fleet_workers`]: abft_dgd::RunOptions::fleet_workers
#[derive(Debug, Clone, Copy, Default)]
pub struct Threaded;

impl Backend for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run_with_workspace(
        &self,
        scenario: &Scenario,
        workspace: &mut SuiteWorkspace,
    ) -> Result<RunReport, ScenarioError> {
        require_lockstep_scenario(self.name(), scenario)?;
        launch(scenario, self.name(), Launch::Fleet(workspace))
    }
}

/// The EIG-broadcast peer-to-peer runtime (no trusted server; requires
/// `3f < n`). With `equivocate`, Byzantine agents send different values to
/// different halves of the network — agreement still holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeerToPeer {
    /// Whether Byzantine agents split their forged gradients across the
    /// network halves.
    pub equivocate: bool,
}

impl Backend for PeerToPeer {
    fn name(&self) -> &'static str {
        "peer-to-peer"
    }

    fn run_with_workspace(
        &self,
        scenario: &Scenario,
        _workspace: &mut SuiteWorkspace,
    ) -> Result<RunReport, ScenarioError> {
        require_lockstep_scenario(self.name(), scenario)?;
        let equivocate = self.equivocate;
        launch(scenario, self.name(), Launch::PeerToPeer { equivocate })
    }
}

/// The discrete-event network simulator backend: either architecture over
/// seeded faulty links ([`abft_net::SimulatedNetwork`]). The only backend
/// that executes scenarios with network-level faults
/// ([`Scenario`]`::net_fault`), and the only one whose network can delay,
/// drop, reorder, and partition messages — deterministically, so the same
/// scenario and network seed reproduce the identical [`RunReport`], event
/// schedule included.
///
/// With a fault-free [`NetworkModel`] the traces are bit-identical to the
/// corresponding real backend ([`PeerToPeer`], or [`InProcess`] /
/// [`Threaded`] for the server topology) — pinned by the cross-backend
/// tests.
#[derive(Debug, Clone)]
pub struct Simulated {
    /// The execution plan template — topology and network model. Any
    /// net faults listed here apply to every scenario this backend runs;
    /// the scenario's own [`Scenario::net_faults`] are appended per run.
    pub plan: SimulatedRun,
}

impl Simulated {
    /// Peer-to-peer over `network`.
    pub fn peer_to_peer(network: NetworkModel) -> Self {
        Simulated {
            plan: SimulatedRun::peer_to_peer(network),
        }
    }

    /// Server-based over `network`.
    pub fn server(network: NetworkModel) -> Self {
        Simulated {
            plan: SimulatedRun::server(network),
        }
    }

    /// Asynchronous bounded-staleness server over `network` — agents fire
    /// gradient computations on their own (seeded) clocks and the server
    /// aggregates on a fixed step cadence, keeping only rows fresher than
    /// the staleness bound τ. The only backend that executes scenarios
    /// built with [`ScenarioBuilder::staleness`](crate::ScenarioBuilder),
    /// the one place τ is set (a scenario without a bound runs at
    /// unbounded τ); reports as `"simulated-async"`. At unbounded τ over
    /// ideal links with zero clock jitter it reproduces the synchronous
    /// server backends bit-for-bit (pinned by the equivalence tests).
    pub fn async_server(network: NetworkModel, config: AsyncConfig) -> Self {
        Simulated {
            plan: SimulatedRun::async_server(network, config),
        }
    }
}

impl Default for Simulated {
    /// Peer-to-peer over an ideal network — the configuration that is
    /// bit-identical to the [`PeerToPeer`] backend.
    fn default() -> Self {
        Simulated::peer_to_peer(NetworkModel::ideal())
    }
}

impl Backend for Simulated {
    fn name(&self) -> &'static str {
        match self.plan.topology {
            SimTopology::AsyncServer(_) => "simulated-async",
            SimTopology::PeerToPeer { .. } | SimTopology::Server => "simulated",
        }
    }

    fn run_with_workspace(
        &self,
        scenario: &Scenario,
        _workspace: &mut SuiteWorkspace,
    ) -> Result<RunReport, ScenarioError> {
        let mut sim = self.plan.clone();
        sim.net_faults.extend(scenario.net_faults().iter().cloned());
        launch(scenario, self.name(), Launch::Simulated(&sim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_dgd::RunOptions;
    use abft_problems::RegressionProblem;

    fn scenario(iterations: usize) -> Scenario {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        Scenario::builder()
            .problem(&problem)
            .faults(1)
            .attack(0, "gradient-reverse")
            .filter("cge")
            .options(RunOptions::paper_defaults_with_iterations(x_h, iterations))
            .build()
            .unwrap()
    }

    fn records(report: &RunReport) -> &[abft_core::IterationRecord] {
        report.trace.as_ref().expect("dense recording").records()
    }

    #[test]
    fn one_scenario_runs_on_all_three_backends() {
        let scenario = scenario(40);
        let reference = InProcess.run(&scenario).unwrap();
        let threaded = Threaded.run(&scenario).unwrap();
        let p2p = PeerToPeer::default().run(&scenario).unwrap();
        assert_eq!(records(&reference), records(&threaded));
        assert_eq!(records(&reference), records(&p2p));
        assert!(reference
            .final_estimate
            .approx_eq(&threaded.final_estimate, 0.0));
        assert!(reference.final_estimate.approx_eq(&p2p.final_estimate, 0.0));
    }

    #[test]
    fn metrics_reflect_each_backend() {
        let scenario = scenario(10);
        let in_process = InProcess.run(&scenario).unwrap();
        assert_eq!(in_process.metrics.rounds, 11);
        assert_eq!(in_process.metrics.broadcasts_sent, 0);

        let threaded = Threaded.run(&scenario).unwrap();
        assert_eq!(threaded.metrics.rounds, 11);
        assert_eq!(threaded.metrics.broadcasts_sent, 66);
        assert_eq!(threaded.metrics.replies_received, 66);
        assert_eq!(threaded.metrics.rounds_dispatched, 11);
        assert_eq!(threaded.metrics.events_processed, 66);
        assert_eq!(threaded.metrics.fleet_reuse_hits, 0);

        let p2p = PeerToPeer::default().run(&scenario).unwrap();
        assert_eq!(p2p.metrics.eig_broadcasts, 66);
        assert!(p2p.metrics.eig_messages > 0);
    }

    #[test]
    fn in_process_reuses_one_workspace_across_runs() {
        let scenario = scenario(5);
        let mut workspace = SuiteWorkspace::new();
        let a = InProcess
            .run_with_workspace(&scenario, &mut workspace)
            .unwrap();
        let b = InProcess
            .run_with_workspace(&scenario, &mut workspace)
            .unwrap();
        // Fresh strategy instances per run → identical traces.
        assert_eq!(records(&a), records(&b));
    }

    #[test]
    fn report_summary_row_matches_header() {
        let report = InProcess.run(&scenario(3)).unwrap();
        assert_eq!(
            report.summary_row().len(),
            RunReport::summary_header().len()
        );
        assert_eq!(report.summary_table().row_count(), 1);
    }
}
