//! What one DGD execution (steps S1/S2 of Section 4.1) is configured with
//! and what it returns — the option and result types every driver shares.

use crate::projection::ProjectionSet;
use crate::schedule::StepSchedule;
use abft_core::observe::{RunSummary, TraceRecorder};
use abft_core::Trace;
use abft_linalg::Vector;
use abft_telemetry::{TelemetryConfig, TelemetryReport};

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
    /// The staleness bound τ of the asynchronous simulated-server driver,
    /// in virtual nanoseconds — the one place τ is set: a gradient row
    /// older than τ at an aggregation step is excluded and counted stale.
    /// `None` (the default) and `Some(u64::MAX)` both mean unbounded —
    /// every known row stays eligible. Only the asynchronous backend
    /// consults it; every round-lockstep launch rejects runs that set it,
    /// since lockstep execution has no notion of row age.
    pub staleness_ns: Option<u64>,
}

impl RunOptions {
    /// The paper's Section-5 configuration: `x_0 = (−0.0085, −0.5643)ᵀ`,
    /// 500 iterations, `η_t = 1.5/(t+1)`, `W = [−1000, 1000]²`, with the
    /// caller-supplied reference (normally `x_H`).
    ///
    /// (Appendix J quotes `x_0 = (0, 0)ᵀ` for the same experiment — one of
    /// the paper's two internal inconsistencies; the other is Appendix J's
    /// smoothness constant, see `abft_problems::ScalarRegressionCost`. The
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
        let raw = std::env::var("ABFT_FLEET_WORKERS").ok();
        abft_linalg::pool::parse_worker_count(raw.as_deref()).unwrap_or(1)
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

    /// Sets the staleness bound τ (virtual nanoseconds) of the
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
/// [`RunObserver`](abft_core::observe::RunObserver)s captured lives with them; the run itself yields only
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
