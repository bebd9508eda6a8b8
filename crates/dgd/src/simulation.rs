//! The synchronous DGD driver (steps S1/S2 of Section 4.1).

use crate::engine::RoundEngine;
use crate::error::DgdError;
use crate::fleet::{AgentCell, RoundWorkspace};
use crate::projection::ProjectionSet;
use crate::schedule::StepSchedule;
use abft_attacks::ByzantineStrategy;
use abft_core::observe::{RunObserver, RunSummary, TraceRecorder};
use abft_core::validate::{self, FaultBudget};
use abft_core::{SystemConfig, Trace};
use abft_filters::GradientFilter;
use abft_linalg::Vector;
use abft_net::NetMetrics;
use abft_problems::SharedCost;
use abft_telemetry::{Telemetry, TelemetryConfig, TelemetryReport};

/// Options for one DGD execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Initial estimate `x_0` (chosen arbitrarily by the server).
    pub x0: Vector,
    /// Number of iterations `T`.
    pub iterations: usize,
    /// Step-size schedule `η_t`.
    pub schedule: StepSchedule,
    /// The compact convex constraint set `W`.
    pub projection: ProjectionSet,
    /// The reference point for the recorded `distance`/`φ_t` series —
    /// normally the honest minimizer `x_H`.
    pub reference: Vector,
    /// Worker threads for sharded batch aggregation (default 1 = serial).
    /// Parallel output is **bit-identical** to serial by the pool's fixed
    /// tile schedule (see [`abft_linalg::WorkerPool`]), so this knob is
    /// pure throughput: traces, estimates, and equivalence guarantees are
    /// unchanged at any value.
    pub aggregation_threads: usize,
    /// Event-loop workers the server runtime's agent fleet is multiplexed
    /// over (default 1 = every agent runs inline on the server's thread).
    /// Only the threaded backend reads this. Like `aggregation_threads`
    /// it is pure throughput: the fleet's fixed agent→worker schedule
    /// keeps traces bit-identical at any worker count.
    pub fleet_workers: usize,
    /// Instrumentation switch (default [`TelemetryConfig::Off`], overridden
    /// by the `ABFT_TELEMETRY` environment variable in the paper-default
    /// constructors). Telemetry is observational only: enabling it never
    /// changes traces, estimates, or the per-round schedule.
    pub telemetry: TelemetryConfig,
    /// Bounded-staleness override τ for the asynchronous simulated-server
    /// driver, in virtual nanoseconds: a gradient row older than τ at an
    /// aggregation step is excluded and counted stale (`u64::MAX` means
    /// unbounded — every known row stays eligible). `None` (the default)
    /// keeps the driver's configured bound. Only the asynchronous backend
    /// consults it; the synchronous drivers reject runs that set it, since
    /// round-lockstep execution has no notion of row age.
    pub staleness_ns: Option<u64>,
}

impl RunOptions {
    /// The paper's Section-5 configuration: `x_0 = (−0.0085, −0.5643)ᵀ`,
    /// 500 iterations, `η_t = 1.5/(t+1)`, `W = [−1000, 1000]²`, with the
    /// caller-supplied reference (normally `x_H`).
    ///
    /// (Appendix J quotes `x_0 = (0, 0)ᵀ` for the same experiment — one of
    /// the paper's two internal inconsistencies; see `EXPERIMENTS.md`. The
    /// Section-5 value is used here.)
    pub fn paper_defaults(reference: Vector) -> Self {
        RunOptions {
            x0: Vector::from(vec![-0.0085, -0.5643]),
            iterations: 500,
            schedule: StepSchedule::paper(),
            projection: ProjectionSet::paper(),
            reference,
            aggregation_threads: Self::default_aggregation_threads(),
            fleet_workers: Self::default_fleet_workers(),
            telemetry: TelemetryConfig::from_env(),
            staleness_ns: None,
        }
    }

    /// Same as [`RunOptions::paper_defaults`] but with the iteration count
    /// overridden (Figure 2 runs 1500 iterations).
    pub fn paper_defaults_with_iterations(reference: Vector, iterations: usize) -> Self {
        let mut opts = Self::paper_defaults(reference);
        opts.iterations = iterations;
        opts
    }

    /// The default worker count for sharded aggregation: 1 (serial) unless
    /// the `ABFT_AGGREGATION_THREADS` environment variable overrides it —
    /// which is how CI forces the whole tier-1 suite through the parallel
    /// path without a feature flag.
    pub fn default_aggregation_threads() -> usize {
        abft_linalg::pool::env_aggregation_threads(1)
    }

    /// Overrides the aggregation worker count (clamped to at least 1).
    #[must_use]
    pub fn with_aggregation_threads(mut self, threads: usize) -> Self {
        self.aggregation_threads = threads.max(1);
        self
    }

    /// The default event-loop worker count for the server runtime's agent
    /// fleet: 1 (inline) unless the `ABFT_FLEET_WORKERS` environment
    /// variable overrides it — how CI forces the tier-1 suite through the
    /// multi-worker event loop without a feature flag.
    pub fn default_fleet_workers() -> usize {
        std::env::var("ABFT_FLEET_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(1)
    }

    /// Overrides the fleet's event-loop worker count (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_fleet_workers(mut self, workers: usize) -> Self {
        self.fleet_workers = workers.max(1);
        self
    }

    /// Overrides the telemetry switch.
    #[must_use]
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Sets the bounded-staleness override τ (virtual nanoseconds) for the
    /// asynchronous simulated-server driver. `u64::MAX` means unbounded.
    #[must_use]
    pub fn with_staleness_ns(mut self, tau_ns: u64) -> Self {
        self.staleness_ns = Some(tau_ns);
        self
    }

    /// The update of step S2 (eq. 21): `x ← Proj_W(x − η_t · g)`.
    #[inline]
    pub fn descend(&self, t: usize, x: &mut Vector, g: &Vector) {
        x.axpy(-self.schedule.eta(t), g);
        self.projection.project_in_place(x);
    }
}

/// The result of one DGD execution with dense recording.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-iteration records: `iterations + 1` entries, one per visited
    /// estimate `x_0, …, x_T` (the final record's gradient fields are
    /// computed at `x_T`).
    pub trace: Trace,
    /// The final estimate `x_T` — the paper's `x_out`.
    pub final_estimate: Vector,
    /// The always-present run summary (final record, rounds, halt reason).
    pub summary: RunSummary,
}

impl RunResult {
    /// Attaches a dense recorder's trace to the run it observed.
    pub fn dense(recorder: TraceRecorder, run: ObservedRun) -> Self {
        RunResult {
            trace: recorder.into_trace(),
            final_estimate: run.final_estimate,
            summary: run.summary,
        }
    }

    /// Final approximation error `‖x_T − reference‖`.
    ///
    /// Infallible: reads the [`RunSummary`]'s final record, which every
    /// run carries, rather than unwrapping a trace that observers may not
    /// have recorded.
    pub fn final_distance(&self) -> f64 {
        self.summary.final_distance()
    }
}

/// The result of one *observed* DGD execution: whatever the caller's
/// [`RunObserver`]s captured lives with them; the run itself yields only
/// the final estimate and the always-present [`RunSummary`].
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The final estimate — the paper's `x_out` (the estimate of the
    /// round the run halted on, when it halted early).
    pub final_estimate: Vector,
    /// Final record, rounds executed, and halt reason.
    pub summary: RunSummary,
    /// Phase timings and counters, present when the run options enabled
    /// telemetry.
    pub telemetry: Option<TelemetryReport>,
}

/// A synchronous server-based DGD simulation: `n` agents, of which some are
/// Byzantine, driven through steps S1/S2 (Section 4.1).
///
/// Agents hold their *true* costs; Byzantine agents additionally carry a
/// [`ByzantineStrategy`] that forges what they report. Agents can also be
/// configured to crash (stop replying), exercising the S1 elimination rule.
/// The agents are [`AgentCell`]s that live as long as the simulation, so a
/// stateful strategy continues its stream from one run into the next.
pub struct DgdSimulation {
    config: SystemConfig,
    cells: Vec<AgentCell>,
    budget: FaultBudget,
}

impl DgdSimulation {
    /// Creates an all-honest simulation over the agents' true costs.
    ///
    /// # Errors
    ///
    /// Returns [`DgdError::Config`] when the cost count differs from
    /// `config.n()` or the costs disagree on dimension.
    pub fn new(config: SystemConfig, costs: Vec<SharedCost>) -> Result<Self, DgdError> {
        validate::cost_dimension(config.n(), costs.iter().map(|c| c.dim()))?;
        Ok(DgdSimulation {
            config,
            cells: costs.into_iter().map(AgentCell::new).collect(),
            budget: FaultBudget::new(&config),
        })
    }

    /// Marks `agent` as Byzantine with the given behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`DgdError::Config`] when the index is out of range, the
    /// agent is already faulty, or the fault budget `f` would be exceeded.
    pub fn with_byzantine(
        mut self,
        agent: usize,
        strategy: Box<dyn ByzantineStrategy>,
    ) -> Result<Self, DgdError> {
        self.cell_to_fault(agent)?.forge(strategy);
        Ok(self)
    }

    /// Marks `agent` as crashing: it behaves honestly before iteration
    /// `at_iteration` and sends nothing from then on, triggering the S1
    /// elimination rule.
    ///
    /// # Errors
    ///
    /// Returns [`DgdError::Config`] under the same conditions as
    /// [`DgdSimulation::with_byzantine`].
    pub fn with_crash(mut self, agent: usize, at_iteration: usize) -> Result<Self, DgdError> {
        self.cell_to_fault(agent)?.crash_at(at_iteration);
        Ok(self)
    }

    /// Charges `agent` to the fault budget and hands back its cell.
    // LINT-ALLOW(panic-reach): `FaultBudget::assign` bounds `agent` by `n`,
    // and `new` made exactly `n` cells.
    fn cell_to_fault(&mut self, agent: usize) -> Result<&mut AgentCell, DgdError> {
        self.budget.assign(agent)?;
        Ok(&mut self.cells[agent])
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Indices of the honest agents (ground truth, unknown to the server).
    pub fn honest_agents(&self) -> Vec<usize> {
        (0..self.config.n())
            .filter(|&agent| !self.budget.is_faulty(agent))
            .collect()
    }

    /// Runs DGD with the given filter and dense in-memory recording.
    ///
    /// The returned trace records, at each visited estimate: the honest
    /// aggregate loss `Σ_{i∈H} Q_i(x_t)`, the distance `‖x_t − reference‖`,
    /// the filtered gradient norm, and `φ_t = ⟨x_t − reference, filtered⟩`.
    ///
    /// # Errors
    ///
    /// Propagates filter failures ([`DgdError::Filter`]), reports dimension
    /// mismatches, and returns [`DgdError::Diverged`] if the aggregate or
    /// the estimate leaves the finite range (possible only with a filter
    /// that lets a huge forgery through, since `W` is compact).
    pub fn run(
        &mut self,
        filter: &dyn GradientFilter,
        options: &RunOptions,
    ) -> Result<RunResult, DgdError> {
        let mut recorder = TraceRecorder::dense(filter.name());
        let run = self.run_observed(filter, options, &mut RoundWorkspace::new(), &mut recorder)?;
        Ok(RunResult::dense(recorder, run))
    }

    /// Runs DGD with a caller-supplied [`RunObserver`] and caller-owned
    /// round state — the streaming entry point [`DgdSimulation::run`] is
    /// built on.
    ///
    /// Per round the observer receives a lazy
    /// [`RoundView`](abft_core::observe::RoundView); metrics it
    /// does not read are never computed, so a pure-throughput observer
    /// (e.g. [`abft_core::observe::NullObserver`]) skips the per-round
    /// honest-cost pass entirely. Returning
    /// [`abft_core::observe::ControlFlow::Halt`] stops the run with the
    /// observed round as its final record — the estimate is not updated
    /// again. The returned [`RunSummary`] is always present and its final
    /// record is computed exactly once, at the last executed round.
    ///
    /// The workspace (gradient batch and per-round scratch) is sized on
    /// entry and reused across all `T` iterations, so the inner loop
    /// allocates nothing on the serial path; callers that drive many
    /// simulations of the same shape — a scenario suite worker — pass the
    /// same workspace to every run. With `aggregation_threads > 1` the
    /// workspace attaches its (cached or suite-shared) worker pool so the
    /// filters shard their kernels. The round loop itself is
    /// [`RoundWorkspace::run_rounds`], the one the event-loop runtime runs.
    ///
    /// # Errors
    ///
    /// See [`DgdSimulation::run`].
    pub fn run_observed(
        &mut self,
        filter: &dyn GradientFilter,
        options: &RunOptions,
        workspace: &mut RoundWorkspace,
        observer: &mut dyn RunObserver,
    ) -> Result<ObservedRun, DgdError> {
        // Telemetry is observational: a disabled handle reads no clock and
        // allocates nothing, so the loop below is bit-identical either way.
        let telemetry = Telemetry::wall(options.telemetry);
        let honest = self.honest_agents();
        let mut engine =
            RoundEngine::new(&self.cells, &honest, filter, options, observer, telemetry)?;
        // Fill on this thread; no messages pass, so only `rounds` is kept.
        workspace.run_rounds(&mut self.cells, 1, self.config.f(), &mut engine)?;
        Ok(engine.finish(NetMetrics::default())?.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_attacks::{GradientReverse, RandomGaussian, ZeroGradient};
    use abft_filters::{Cge, Cwtm, Mean};
    use abft_problems::RegressionProblem;

    fn paper_setup() -> (DgdSimulation, Vector) {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let sim = DgdSimulation::new(*problem.config(), problem.costs()).unwrap();
        (sim, x_h)
    }

    #[test]
    fn construction_validates() {
        let problem = RegressionProblem::paper_instance();
        let config = *problem.config();
        let mut costs = problem.costs();
        costs.pop();
        assert!(DgdSimulation::new(config, costs).is_err());
    }

    #[test]
    fn fault_budget_is_enforced() {
        let (sim, _) = paper_setup();
        // f = 1: the first assignment is fine, the second must fail.
        let sim = sim
            .with_byzantine(0, Box::new(GradientReverse::new()))
            .unwrap();
        assert!(sim
            .with_byzantine(1, Box::new(GradientReverse::new()))
            .is_err());
    }

    #[test]
    fn duplicate_and_out_of_range_assignments_rejected() {
        let (sim, _) = paper_setup();
        assert!(sim
            .with_byzantine(9, Box::new(GradientReverse::new()))
            .is_err());
        let (sim, _) = paper_setup();
        let sim = sim.with_crash(2, 10).unwrap();
        // f budget of 1 is used up by the crash.
        assert!(sim
            .with_byzantine(2, Box::new(ZeroGradient::new()))
            .is_err());
    }

    #[test]
    fn honest_agents_excludes_faulty() {
        let (sim, _) = paper_setup();
        let sim = sim
            .with_byzantine(0, Box::new(GradientReverse::new()))
            .unwrap();
        assert_eq!(sim.honest_agents(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fault_free_dgd_converges_to_global_minimizer() {
        let problem = RegressionProblem::paper_instance();
        let x_all = problem.subset_minimizer(&[0, 1, 2, 3, 4, 5]).unwrap();
        let mut sim = DgdSimulation::new(*problem.config(), problem.costs()).unwrap();
        let options = RunOptions::paper_defaults(x_all.clone());
        let result = sim.run(&Mean::new(), &options).unwrap();
        assert!(
            result.final_distance() < 1e-2,
            "fault-free distance = {}",
            result.final_distance()
        );
        // Trace covers x_0..x_500.
        assert_eq!(result.trace.len(), 501);
    }

    #[test]
    fn cge_survives_gradient_reverse() {
        let (sim, x_h) = paper_setup();
        let mut sim = sim
            .with_byzantine(0, Box::new(GradientReverse::new()))
            .unwrap();
        let options = RunOptions::paper_defaults(x_h.clone());
        let result = sim.run(&Cge::new(), &options).unwrap();
        // Paper Table 1: dist = 0.0239 < eps = 0.0890.
        assert!(
            result.final_distance() < 0.089,
            "CGE distance = {}",
            result.final_distance()
        );
    }

    #[test]
    fn cwtm_survives_random_attack() {
        let (sim, x_h) = paper_setup();
        let mut sim = sim
            .with_byzantine(0, Box::new(RandomGaussian::paper(42)))
            .unwrap();
        let options = RunOptions::paper_defaults(x_h.clone());
        let result = sim.run(&Cwtm::new(), &options).unwrap();
        assert!(
            result.final_distance() < 0.089,
            "CWTM distance = {}",
            result.final_distance()
        );
    }

    #[test]
    fn plain_mean_fails_under_attack() {
        let (sim, x_h) = paper_setup();
        let mut sim = sim
            .with_byzantine(0, Box::new(GradientReverse::new()))
            .unwrap();
        let options = RunOptions::paper_defaults(x_h.clone());
        let robust = sim.run(&Cge::new(), &options).unwrap().final_distance();
        let mut sim2 = {
            let (s, _) = paper_setup();
            s.with_byzantine(0, Box::new(GradientReverse::new()))
                .unwrap()
        };
        let naive = sim2.run(&Mean::new(), &options).unwrap().final_distance();
        assert!(
            naive > 5.0 * robust,
            "mean ({naive}) should be far worse than CGE ({robust})"
        );
    }

    #[test]
    fn crashed_agent_is_eliminated_not_fatal() {
        let (sim, x_h) = paper_setup();
        let mut sim = sim.with_crash(0, 5).unwrap();
        let options = RunOptions::paper_defaults(x_h.clone());
        let result = sim.run(&Cge::new(), &options).unwrap();
        // After elimination the system is fault-free: convergence to x_H.
        assert!(
            result.final_distance() < 1e-2,
            "distance after crash-elimination = {}",
            result.final_distance()
        );
    }

    #[test]
    fn omniscient_view_excludes_crash_scheduled_agents() {
        use abft_attacks::{AttackContext, HonestGradients};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Records how many honest gradients each corrupt call could see.
        struct SpyOmniscient {
            seen: Arc<AtomicUsize>,
        }

        impl ByzantineStrategy for SpyOmniscient {
            fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
                assert!(matches!(ctx.honest, HonestGradients::Rows { .. }));
                self.seen.store(ctx.honest.len(), Ordering::Relaxed);
                out.fill(0.0);
            }
            fn name(&self) -> &'static str {
                "spy"
            }
            fn is_omniscient(&self) -> bool {
                true
            }
        }

        // n = 6, f = 2: agent 0 is omniscient-Byzantine, agent 1 is
        // crash-scheduled far beyond the horizon (so it replies honestly
        // every round). The omniscient view must cover only the truly
        // honest agents {2, 3, 4, 5} — crash-scheduled agents are faulty
        // and were never exposed by the pre-batch driver either.
        let config = SystemConfig::new(6, 2).unwrap();
        let problem = RegressionProblem::fan(config, 150.0, 0.02, 3).unwrap();
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let mut sim = DgdSimulation::new(config, problem.costs())
            .unwrap()
            .with_byzantine(0, Box::new(SpyOmniscient { seen: seen.clone() }))
            .unwrap()
            .with_crash(1, 10_000)
            .unwrap();
        let x_h = problem.subset_minimizer(&[2, 3, 4, 5]).unwrap();
        let mut options = RunOptions::paper_defaults(x_h);
        options.iterations = 3;
        sim.run(&Cge::new(), &options).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn estimates_stay_inside_w() {
        let (sim, x_h) = paper_setup();
        let mut sim = sim
            .with_byzantine(0, Box::new(RandomGaussian::new(1e6, 1)))
            .unwrap();
        let mut options = RunOptions::paper_defaults(x_h);
        options.projection = ProjectionSet::centered_box(-2.0, 2.0);
        options.iterations = 50;
        let result = sim.run(&Mean::new(), &options).unwrap();
        assert!(options.projection.contains(&result.final_estimate));
    }

    #[test]
    fn run_validates_dimensions() {
        let (mut sim, _) = paper_setup();
        let options = RunOptions {
            x0: Vector::zeros(3), // wrong dim
            iterations: 1,
            schedule: StepSchedule::paper(),
            projection: ProjectionSet::paper(),
            reference: Vector::zeros(2),
            aggregation_threads: 1,
            fleet_workers: 1,
            telemetry: TelemetryConfig::Off,
            staleness_ns: None,
        };
        assert!(matches!(
            sim.run(&Cge::new(), &options),
            Err(DgdError::Dimension { .. })
        ));
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed: u64, filter: &dyn abft_filters::GradientFilter| {
            let (sim, x_h) = paper_setup();
            let mut sim = sim
                .with_byzantine(0, Box::new(RandomGaussian::paper(seed)))
                .unwrap();
            let mut options = RunOptions::paper_defaults(x_h);
            options.iterations = 50;
            sim.run(filter, &options).unwrap().final_estimate
        };
        assert!(run(7, &Cge::new()).approx_eq(&run(7, &Cge::new()), 0.0));
        // Seed differences are visible through the non-robust mean (CGE
        // eliminates the huge random vectors, making it seed-insensitive —
        // which is exactly its job).
        assert!(!run(7, &Mean::new()).approx_eq(&run(8, &Mean::new()), 1e-12));
    }
}
