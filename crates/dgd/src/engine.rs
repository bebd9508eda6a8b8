//! The one server step (S2 of Section 4.1) every driver calls, and the one
//! server loop around it.
//!
//! `x ← Proj_W(x − η_t · GradFilter(g_1…g_n))` is written here once: the
//! three server topologies, every honest agent of the peer-to-peer
//! simulation and robust D-SGD (`abft_ml::train_distributed`) differ only
//! in how the agents' rows travel into the batch they hand to
//! [`RoundEngine::step`], so they agree on aggregation, the divergence
//! check, observation, halting, the update, the phase spans and the
//! counters by construction. They share the loop around it too
//! ([`RowSource::serve`]) and differ only in their [`RowSource`]: a
//! peer-to-peer run serves its leader's decided multisets (the followers
//! step inside the source), D-SGD its agents' mini-batch gradients. The
//! engine knows nothing about agents: what a run's records *measure* is
//! the [`RoundMetrics`] it is built with.

use crate::error::DgdError;
use crate::fleet::AgentCell;
use crate::projection::ProjectionSet;
use crate::simulation::{ObservedRun, RunOptions};
use abft_core::observe::{
    observe_round, ControlFlow, MetricSource, RoundView, RunObserver, RunSummary,
};
use abft_core::validate;
use abft_filters::GradientFilter;
use abft_linalg::{GradientBatch, Vector, WorkerPool};
use abft_net::NetMetrics;
use abft_problems::SharedCost;
use abft_telemetry::{Counter, Phase, SpanToken, Telemetry};
use std::sync::Arc;

/// What one run counted, unified across drivers: plain integers bumped in
/// the round loop. Fields a driver does not produce stay zero (the
/// in-process driver passes no messages; the server drivers run no EIG
/// broadcasts). `abft_scenario::BackendMetrics` is this type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Aggregation rounds executed (iterations + the final record round).
    pub rounds: usize,
    /// Estimate broadcasts sent by the server, one per addressed agent.
    pub broadcasts_sent: usize,
    /// Gradient replies that reached the server.
    pub replies_received: usize,
    /// Agents eliminated via the S1 no-reply rule (event-loop runtime).
    pub agents_eliminated: usize,
    /// Scheduler dispatch cycles, one per round (event-loop runtime).
    pub rounds_dispatched: usize,
    /// Round events processed by agent cells — one per active agent per
    /// round, the cells that crash that round included (event-loop
    /// runtime).
    pub events_processed: usize,
    /// 1 when the run found its workspace already warm at its fleet-worker
    /// count — the latest run on it filled with as many workers — reusing
    /// worker threads and batch instead of building them (event-loop
    /// runtime).
    pub fleet_reuse_hits: usize,
    /// EIG broadcast instances executed (peer-to-peer topologies).
    pub eig_broadcasts: usize,
    /// Point-to-point messages inside EIG broadcasts (peer-to-peer
    /// topologies).
    pub eig_messages: usize,
    /// Rounds × agents whose expected gradient missed the deadline or was
    /// lost (simulated server); steps × agents the server had no row from
    /// at all (asynchronous server).
    pub stragglers: usize,
    /// Steps × agents whose freshest row was older than the staleness
    /// bound τ and was excluded (asynchronous server).
    pub stale_rows: usize,
    /// Largest spread of send timestamps inside one aggregated batch, in
    /// virtual nanoseconds (asynchronous server).
    pub clock_skew_ns: u64,
    /// Aggregation steps the asynchronous server executed.
    pub async_steps: usize,
    /// Network counters — sent / delivered / dropped / late totals, virtual
    /// time elapsed, and the order-sensitive schedule digest — of the
    /// `abft_net` bus the run moved its messages over.
    pub net: NetMetrics,
}

impl RunCounters {
    /// The telemetry counter each field reports under (`broadcasts` covers
    /// both server broadcasts and EIG roots).
    fn telemetry(&self) -> [(Counter, u64); 11] {
        [
            (Counter::Rounds, self.rounds as u64),
            (
                Counter::Broadcasts,
                (self.broadcasts_sent + self.eig_broadcasts) as u64,
            ),
            (Counter::Replies, self.replies_received as u64),
            (Counter::Eliminations, self.agents_eliminated as u64),
            (Counter::Stragglers, self.stragglers as u64),
            (Counter::StaleRows, self.stale_rows as u64),
            (Counter::AsyncSteps, self.async_steps as u64),
            (Counter::NetSent, self.net.sent),
            (Counter::NetDelivered, self.net.delivered),
            (Counter::NetDropped, self.net.dropped),
            (Counter::NetLate, self.net.late),
        ]
    }
}

/// The result of one run on any runtime: the run itself (`R` is
/// [`ObservedRun`], or [`RunResult`](crate::RunResult) from the
/// dense-trace convenience) plus what it counted.
#[derive(Debug, Clone)]
pub struct Outcome<R = ObservedRun> {
    /// Final estimate + always-present summary (the first honest agent's
    /// perspective on a peer-to-peer topology, the server's otherwise).
    pub run: R,
    /// The run's counters.
    pub counters: RunCounters,
    /// Largest final pairwise distance between honest agents' estimates:
    /// exactly `0` wherever there is one shared estimate or a reliable
    /// network keeps lockstep, and a measure of how far link faults pushed
    /// the honest agents apart on a simulated peer-to-peer network.
    pub final_spread: f64,
}

/// What a run's records measure: the driver-specific half of a round's
/// [`IterationRecord`](abft_core::IterationRecord), evaluated lazily at the
/// engine's estimate `x` and filtered gradient `g` (the gradient norm is
/// always `‖g‖`). DGD measures the honest costs against a reference point;
/// D-SGD, which has no reference, the round's mini-batch loss and `‖g‖`.
pub trait RoundMetrics {
    /// The recorded loss at `x` — the expensive pass, never evaluated for
    /// an observer that does not read it until the run's final record.
    fn loss(&self, x: &Vector) -> f64;
    /// The recorded approximation error.
    fn distance(&self, x: &Vector, g: &Vector) -> f64;
    /// The recorded `φ_t` of Theorem 3.
    fn phi(&self, x: &Vector, g: &Vector) -> f64;
}

/// How a driver's rows arrive: cells writing loaned rows
/// (`RoundWorkspace`), bus replies under a round deadline or the freshest
/// bus rows within a staleness bound (both in `abft_runtime`), the
/// leader's decided EIG multiset of a peer-to-peer run (`abft_runtime`),
/// or the agents' mini-batch gradients of robust D-SGD (`abft_ml`).
pub trait RowSource {
    /// What the source's rounds fail with; the server step's own errors
    /// convert into it.
    type Error: From<DgdError>;

    /// Step S1 for iteration `t`, the budget aside: send `x_t` (read from
    /// `engine`, where the counters and spans go too) and return the
    /// round's rows in agent-id order. An agent the server has no row from
    /// — crashed, straggling or stale — has none.
    ///
    /// # Errors
    ///
    /// The source's own; a server source's is [`DgdError::Dimension`] for
    /// a reply of the wrong dimension.
    fn round_rows(
        &mut self,
        t: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<&GradientBatch, Self::Error>;

    /// The server loop of Section 4.1 over `n` agents with fault budget
    /// `f`: per iteration the source's rows, an agent without one
    /// eliminated for the round (the filter runs with `f` less the absent
    /// agents), then [`RoundEngine::step`] — until a step halts. The caller
    /// finishes the engine.
    ///
    /// # Errors
    ///
    /// See [`RowSource::round_rows`] and [`RoundEngine::step`].
    fn serve(
        &mut self,
        n: usize,
        f: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<(), Self::Error> {
        for t in 0..=engine.options().iterations {
            let batch = self.round_rows(t, engine)?;
            let f_round = f.saturating_sub(n - batch.len());
            if engine.step(t, batch, f_round)?.is_halt() {
                break;
            }
        }
        Ok(())
    }
}

/// One run's server state and the step that advances it.
///
/// A driver hands the engine to its [`RowSource`]'s loop; once a step
/// halts, it calls [`RoundEngine::finish`].
pub struct RoundEngine<'a> {
    x: Vector,
    aggregated: Vector,
    metrics: Box<dyn RoundMetrics + 'a>,
    filter: &'a dyn GradientFilter,
    options: &'a RunOptions,
    observer: &'a mut dyn RunObserver,
    round_span: SpanToken,
    summary: Option<RunSummary>,
    /// The run's aggregation pool, created by the first
    /// [`RoundEngine::round_batch`] of a run that shards aggregation.
    pool: Option<Arc<WorkerPool>>,
    /// The run's instrumentation handle; drivers open their own
    /// `gradient-fill` / `net-delivery` spans (and feed the virtual clock)
    /// through it.
    pub telemetry: Telemetry,
    /// The run's counters; drivers bump the message-level fields, the
    /// engine counts `rounds`.
    pub counters: RunCounters,
}

impl<'a> RoundEngine<'a> {
    /// The DGD engine over agent cells: [`RoundEngine::with_metrics`] with
    /// records that measure the loss summed over the costs of `honest` —
    /// the ground-truth honest agents among `cells` — and distance/φ
    /// against `options.reference`.
    ///
    /// # Errors
    ///
    /// [`DgdError::Config`] when there are no agents, and
    /// [`DgdError::Dimension`] when the costs, `x0`, the reference or a
    /// ball projection's centre disagree on dimension.
    pub fn new(
        cells: &[AgentCell],
        honest: &[usize],
        filter: &'a dyn GradientFilter,
        options: &'a RunOptions,
        observer: &'a mut dyn RunObserver,
        telemetry: Telemetry,
    ) -> Result<Self, DgdError> {
        let dims = cells.iter().map(|cell| cell.cost().dim());
        let dim = validate::cost_dimension(cells.len(), dims)?;
        validate::run_point_dimensions(dim, options.x0.dim(), options.reference.dim())?;
        if let ProjectionSet::Ball { center, .. } = &options.projection {
            if center.dim() != dim {
                return Err(DgdError::Dimension {
                    expected: format!("projection centre of dim {dim}"),
                    actual: format!("projection centre of dim {}", center.dim()),
                });
            }
        }
        let honest_costs = honest.iter().filter_map(|&agent| cells.get(agent));
        let metrics = HonestCosts {
            costs: honest_costs.map(|cell| cell.cost().clone()).collect(),
            reference: &options.reference,
        };
        let engine = Self::with_metrics(metrics, filter, options, observer, telemetry);
        Ok(engine)
    }

    /// The engine at `x_0` projected onto `W` — whose dimension is the
    /// run's — with the first round's span open; `metrics` is what the
    /// run's records measure and `telemetry` is in the driver's clock
    /// domain.
    pub fn with_metrics(
        metrics: impl RoundMetrics + 'a,
        filter: &'a dyn GradientFilter,
        options: &'a RunOptions,
        observer: &'a mut dyn RunObserver,
        telemetry: Telemetry,
    ) -> Self {
        RoundEngine {
            x: options.projection.project(&options.x0),
            aggregated: Vector::zeros(options.x0.dim()),
            metrics: Box::new(metrics),
            filter,
            options,
            observer,
            round_span: telemetry.begin(Phase::Round),
            summary: None,
            pool: None,
            telemetry,
            counters: RunCounters::default(),
        }
    }

    /// The current estimate `x_t`.
    pub fn x(&self) -> &Vector {
        &self.x
    }

    /// The options the run was started with.
    pub fn options(&self) -> &'a RunOptions {
        self.options
    }

    /// A batch for a driver to fill and [`step`](RoundEngine::step) over:
    /// capacity for `rows` rows of the run's dimension, the run's
    /// aggregation pool attached when `options.aggregation_threads > 1` —
    /// one pool per run, shared by every batch handed out, its workers
    /// spawning lazily — and the pool-dispatch profile installed.
    pub fn round_batch(&mut self, rows: usize) -> GradientBatch {
        let mut batch = GradientBatch::with_capacity(rows, self.x.dim());
        let threads = self.options.aggregation_threads;
        if threads > 1 {
            let pool = self
                .pool
                .get_or_insert_with(|| Arc::new(WorkerPool::new(threads)));
            batch.set_worker_pool(Some(pool.clone()));
        }
        self.instrument(&mut batch);
        batch
    }

    /// Installs this run's pool-dispatch profile on a batch the driver
    /// aggregates from (a no-op unless wall-clock telemetry is on).
    pub fn instrument(&self, batch: &mut GradientBatch) {
        batch.set_dispatch_profile(self.telemetry.dispatch_profile());
    }

    /// Takes the dispatch profile back off `batch` and folds it into the
    /// run's report.
    pub fn absorb(&mut self, batch: &mut GradientBatch) {
        if let Some(profile) = batch.take_dispatch_profile() {
            self.telemetry.absorb_dispatch(&profile.snapshot());
        }
    }

    /// One server step at iteration `t` over the rows the driver
    /// collected, with the round's S1 fault budget `f_round`: aggregate
    /// (an empty batch carries no gradient information and holds the
    /// estimate), check for divergence, show the round to the observer,
    /// then either halt — the estimate stays at `x_t` — or update and open
    /// the next round's span.
    ///
    /// # Errors
    ///
    /// [`DgdError::Filter`] when the filter rejects the batch, and
    /// [`DgdError::Diverged`] when the aggregate or the estimate is
    /// non-finite on a round that would update.
    #[inline]
    pub fn step(
        &mut self,
        t: usize,
        batch: &GradientBatch,
        f_round: usize,
    ) -> Result<ControlFlow, DgdError> {
        let advance = t < self.options.iterations;
        let span = self.telemetry.begin(Phase::Aggregate);
        if batch.is_empty() {
            self.aggregated.as_mut_slice().fill(0.0);
        } else {
            self.filter
                .aggregate_into(batch, f_round, &mut self.aggregated)?;
        }
        self.telemetry.end(span);
        if advance && (self.aggregated.has_non_finite() || self.x.has_non_finite()) {
            return Err(DgdError::Diverged { iteration: t });
        }

        let span = self.telemetry.begin(Phase::Observe);
        let source = StepMetrics {
            metrics: self.metrics.as_ref(),
            x: &self.x,
            aggregated: &self.aggregated,
        };
        let (x, aggregated) = (self.x.as_slice(), self.aggregated.as_slice());
        let view = RoundView::new(t, x, aggregated, &source);
        self.summary = observe_round(self.observer, &view, advance);
        self.telemetry.end(span);
        self.counters.rounds += 1;

        let flow = if self.summary.is_some() {
            ControlFlow::Halt
        } else {
            self.options.descend(t, &mut self.x, &self.aggregated);
            ControlFlow::Continue
        };
        self.telemetry.end(self.round_span);
        if !flow.is_halt() {
            self.round_span = self.telemetry.begin(Phase::Round);
        }
        Ok(flow)
    }

    /// Ends the run: records `net` (the bus's counters; default for a
    /// driver without one), copies the counters into the telemetry report,
    /// and hands back the outcome.
    ///
    /// # Errors
    ///
    /// [`DgdError::Config`] when no step has halted yet — a driver
    /// invariant violation, not a reachable state of a correct driver.
    pub fn finish(mut self, net: NetMetrics) -> Result<Outcome, DgdError> {
        let summary = self.summary.ok_or_else(|| {
            DgdError::Config("run ended before a step observed its final round".into())
        })?;
        self.counters.net = net;
        self.telemetry.record(&self.counters.telemetry());
        Ok(Outcome {
            run: ObservedRun {
                final_estimate: self.x,
                summary,
                telemetry: self.telemetry.finish(),
            },
            counters: self.counters,
            final_spread: 0.0,
        })
    }
}

/// What a DGD run's records measure: loss is the honest-cost pass
/// `Σ_{i∈H} Q_i(x_t)`, distance/φ are measured against the options'
/// reference point. Field-for-field the historical `IterationRecord`
/// construction, computed lazily.
struct HonestCosts<'a> {
    /// The honest agents' costs, in agent-id order.
    costs: Vec<SharedCost>,
    reference: &'a Vector,
}

impl RoundMetrics for HonestCosts<'_> {
    fn loss(&self, x: &Vector) -> f64 {
        self.costs.iter().map(|c| c.value(x)).sum()
    }

    fn distance(&self, x: &Vector, _g: &Vector) -> f64 {
        x.dist(self.reference)
    }

    /// `⟨x − reference, g⟩` without materializing the offset.
    fn phi(&self, x: &Vector, g: &Vector) -> f64 {
        x.iter()
            .zip(self.reference.iter())
            .zip(g.iter())
            .map(|((xi, ri), gi)| (xi - ri) * gi)
            .sum()
    }
}

/// One step's [`MetricSource`]: the run's [`RoundMetrics`] at this step's
/// estimate and filtered gradient — a stack value, built per step.
struct StepMetrics<'s> {
    metrics: &'s dyn RoundMetrics,
    x: &'s Vector,
    aggregated: &'s Vector,
}

impl MetricSource for StepMetrics<'_> {
    fn loss(&self) -> f64 {
        self.metrics.loss(self.x)
    }

    fn distance(&self) -> f64 {
        self.metrics.distance(self.x, self.aggregated)
    }

    fn grad_norm(&self) -> f64 {
        self.aggregated.norm()
    }

    fn phi(&self) -> f64 {
        self.metrics.phi(self.x, self.aggregated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepSchedule;
    use abft_core::observe::NullObserver;
    use abft_filters::Mean;
    use abft_telemetry::TelemetryConfig;
    use std::cell::Cell;

    /// Counts its loss evaluations; distance is `‖x‖`.
    struct CountingLoss<'a>(&'a Cell<usize>);

    impl RoundMetrics for CountingLoss<'_> {
        fn loss(&self, _x: &Vector) -> f64 {
            self.0.set(self.0.get() + 1);
            7.0
        }

        fn distance(&self, x: &Vector, _g: &Vector) -> f64 {
            x.norm()
        }

        fn phi(&self, _x: &Vector, _g: &Vector) -> f64 {
            0.0
        }
    }

    fn options(x0: Vector) -> RunOptions {
        RunOptions {
            x0,
            iterations: 2,
            schedule: StepSchedule::Constant(0.5),
            projection: ProjectionSet::paper(),
            reference: Vector::zeros(0),
            aggregation_threads: 1,
            fleet_workers: 1,
            telemetry: TelemetryConfig::Off,
            staleness_ns: None,
        }
    }

    #[test]
    fn a_cell_free_engine_evaluates_loss_only_for_the_final_record() {
        let options = options(Vector::from(vec![1.0, -1.0]));
        let evaluations = Cell::new(0);
        let filter = Mean::new();
        let mut observer = NullObserver;
        let mut engine = RoundEngine::with_metrics(
            CountingLoss(&evaluations),
            &filter,
            &options,
            &mut observer,
            Telemetry::disabled(),
        );
        let mut batch = engine.round_batch(2);
        for t in 0..=2 {
            batch.clear();
            batch.push_row(&[2.0, 0.0]);
            batch.push_row(&[0.0, 2.0]);
            let flow = engine.step(t, &batch, 0).unwrap();
            assert_eq!(flow.is_halt(), t == 2);
            assert_eq!(evaluations.get(), usize::from(t == 2));
        }
        // Two updates of −0.5 · mean = −(0.5, 0.5) from (1, −1).
        let outcome = engine.finish(NetMetrics::default()).unwrap();
        assert_eq!(outcome.run.final_estimate.as_slice(), &[0.0, -2.0]);
        assert_eq!(outcome.counters.rounds, 3);
        let record = outcome.run.summary.final_record;
        assert_eq!((record.iteration, record.loss), (2, 7.0));
        assert_eq!((record.distance, record.phi), (2.0, 0.0));
        assert_eq!(record.grad_norm, 2.0f64.sqrt());
    }
}
