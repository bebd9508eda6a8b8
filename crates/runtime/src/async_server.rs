//! The asynchronous bounded-staleness simulated-server driver.
//!
//! The synchronous drivers run the paper's round lockstep: broadcast,
//! collect what made the deadline, aggregate. This driver drops the
//! lockstep. Agents fire gradient computations on their own per-agent
//! clocks (base compute time plus seeded jitter, derived with the
//! simulator's SplitMix64 discipline), replies cross the simulated network
//! whenever they cross it, and the server aggregates on a fixed cadence:
//! every [`AsyncConfig::step_interval_ns`] virtual nanoseconds it takes,
//! per agent, the freshest gradient row it has heard — provided the row is
//! no older than the staleness bound τ — and runs the filter with the
//! per-step fault budget `f − #excluded`, the continuous-time
//! generalization of the synchronous per-round S1 straggler rule.
//!
//! Determinism: the driver owns a seeded event queue (server steps and
//! agent fires, ordered by `(virtual time, schedule sequence)`) and
//! interleaves it with the network's own event queue through the bus's
//! continuous [`advance_until`](MessageBus::advance_until) /
//! [`next_event_at`](MessageBus::next_event_at) view — deliveries due at a
//! driver event's time are processed first. Everything is a pure function
//! of the task, the [`abft_net::NetworkModel`], and the
//! [`AsyncConfig`], so two identically seeded runs produce bit-identical
//! traces, schedules, and telemetry reports (pinned by tests).
//!
//! The staleness bound τ is the run's [`RunOptions::staleness_ns`]; `None`
//! means unbounded ([`AsyncConfig::UNBOUNDED`]).
//!
//! Synchronous anchor: with τ unbounded, ideal links, and zero compute
//! jitter, every agent's round-`t` gradient lands well before server step
//! `t`, each step aggregates exactly the synchronous round-`t` batch in
//! agent order with the full budget `f`, and the trace is bit-identical to
//! [`SimTopology::Server`](crate::SimTopology::Server) — the equivalence
//! pin that anchors the asynchronous family to the paper's model. (One
//! deliberate asymmetry: under *unbounded* τ a crashed agent's final
//! gradient row never ages out, so crash parity with the synchronous
//! drivers needs a finite τ of one step interval — then the stale-row rule
//! reproduces the synchronous `f − #silent` elimination exactly.)

use crate::error::RuntimeError;
use crate::message::ServerWire;
use crate::simulated::{broadcast_estimate, check_reply_dim, wire_reply, SimulatedRun};
use crate::task::{DgdTask, FaultPlan, Launch};
use abft_core::observe::RunObserver;
use abft_dgd::{AgentCell, Outcome, RoundEngine, RunOptions};
use abft_filters::GradientFilter;
use abft_linalg::Vector;
use abft_net::rng::{mix, SplitMix64};
use abft_net::{MessageBus, NetworkModel, SimulatedNetwork};
use abft_telemetry::{Phase, Telemetry};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Timing model of an asynchronous simulated-server run. All fields are
/// virtual nanoseconds on the simulator's clock (or a seed); the whole
/// struct is plain data so [`SimTopology`](crate::SimTopology) stays
/// `Copy + Eq`.
///
/// The staleness bound τ is not part of it: τ is a property of the run,
/// set once as [`RunOptions::staleness_ns`] (`None` = unbounded). At an
/// aggregation step, a gradient row whose age (`step time − sent_at`)
/// exceeds τ is excluded and counted stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncConfig {
    /// Cadence of server aggregation steps: step `t` runs at virtual time
    /// `(t + 1) · step_interval_ns`. Must be positive.
    pub step_interval_ns: u64,
    /// Base time an agent spends computing one gradient before its reply
    /// hits the network.
    pub compute_ns: u64,
    /// Seeded per-compute jitter: each computation takes `compute_ns`
    /// plus a uniform draw from `[0, compute_jitter_ns]` off the agent's
    /// own SplitMix64 stream. Zero (the default) keeps agent clocks
    /// perfectly regular — the synchronous-equivalence regime.
    pub compute_jitter_ns: u64,
    /// Seed for the per-agent clock streams, mixed with the agent id the
    /// same way the simulator derives per-link streams — so one agent's
    /// jitter never perturbs another's.
    pub clock_seed: u64,
}

impl AsyncConfig {
    /// The τ value meaning "no staleness bound": every known row stays
    /// eligible, however old. A run whose [`RunOptions::staleness_ns`] is
    /// `None` uses it.
    pub const UNBOUNDED: u64 = u64::MAX;

    /// Defaults anchored to the synchronous drivers: one aggregation step
    /// per default round timeout, a 10 µs gradient compute, zero jitter,
    /// seed 0. Over ideal links and at unbounded τ this configuration
    /// reproduces the synchronous simulated server bit-for-bit.
    pub fn new() -> Self {
        AsyncConfig {
            step_interval_ns: NetworkModel::DEFAULT_ROUND_TIMEOUT_NS,
            compute_ns: 10_000,
            compute_jitter_ns: 0,
            clock_seed: 0,
        }
    }

    /// Sets the aggregation-step cadence in virtual nanoseconds.
    #[must_use]
    pub fn with_step_interval_ns(mut self, interval_ns: u64) -> Self {
        self.step_interval_ns = interval_ns;
        self
    }

    /// Sets the base per-gradient compute time in virtual nanoseconds.
    #[must_use]
    pub fn with_compute_ns(mut self, compute_ns: u64) -> Self {
        self.compute_ns = compute_ns;
        self
    }

    /// Sets the per-compute jitter window in virtual nanoseconds.
    #[must_use]
    pub fn with_compute_jitter_ns(mut self, jitter_ns: u64) -> Self {
        self.compute_jitter_ns = jitter_ns;
        self
    }

    /// Sets the seed of the per-agent clock streams.
    #[must_use]
    pub fn with_clock_seed(mut self, seed: u64) -> Self {
        self.clock_seed = seed;
        self
    }
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One entry of the driver's own event queue. Network deliveries are not
/// queued here — they live in the simulator's heap and are interleaved by
/// time through the bus's continuous view, deliveries first on ties.
#[derive(Debug, Clone, Copy)]
enum DriverEvent {
    /// Server aggregation step `step` fires.
    ServerStep { step: usize },
    /// Agent `agent` finishes its in-progress gradient computation.
    AgentFire { agent: usize },
}

/// One queued driver event, ordered by `(virtual time, schedule
/// sequence)` alone — `seq` is unique, so the order is total and never
/// looks at the event.
struct Scheduled {
    at: u64,
    seq: u64,
    event: DriverEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The driver's own deterministic event queue: a min-heap over
/// `(virtual time, schedule sequence)`, the same total order the
/// simulator uses for deliveries.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at: u64, event: DriverEvent) {
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Virtual time of the earliest queued event.
    fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|next| next.at)
    }

    fn pop(&mut self) -> Option<(u64, DriverEvent)> {
        self.heap.pop().map(|next| (next.at, next.event))
    }
}

/// The freshest gradient row the server has heard from one agent.
struct LatestRow {
    sent_at: u64,
    gradient: Vector,
}

/// Per-agent asynchronous state.
struct AgentState {
    /// Newest estimate heard: `(iteration, x)`.
    known: Option<(usize, Vector)>,
    /// In-progress computation: `(iteration, captured estimate, started)`.
    computing: Option<(usize, Vector, u64)>,
    /// Newest iteration already computed and sent.
    fired: Option<usize>,
    /// Permanently silent (crash schedule reached).
    crashed: bool,
    /// This agent's own clock-jitter stream.
    stream: SplitMix64,
}

/// Entry point behind [`SimTopology::AsyncServer`](crate::SimTopology):
/// the bounded-staleness server loop over the simulated network.
// LINT-ALLOW(panic-reach): every index is an agent address < n — the
// per-agent tables (cells, agents, latest) are all allocated with length n
// up front, and delivery addresses come from the simulator, which only
// routes to registered endpoints.
pub(crate) fn execute_async_server(
    task: DgdTask,
    sim: &SimulatedRun,
    config: AsyncConfig,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    let n = task.config().n();
    let server = SimulatedRun::server_address(n);
    let tau = options.staleness_ns.unwrap_or(AsyncConfig::UNBOUNDED);
    if config.step_interval_ns == 0 {
        return Err(RuntimeError::Config(
            "async step_interval_ns must be positive: a zero cadence never advances \
             virtual time, so no gradient could ever arrive before a step"
                .into(),
        ));
    }
    // Fault assignment is the synchronous simulated server's, exactly.
    let FaultPlan {
        config: sys,
        mut cells,
        net_faults,
        honest,
    } = task.fault_plan(&sim.net_faults, n + 1, &Launch::Simulated(sim))?;

    let mut net: SimulatedNetwork<ServerWire> = sim.network.build(n + 1);
    // Async runs profile in virtual time, like every simulated driver.
    let telemetry = Telemetry::for_bus(options.telemetry, Some(net.now()));
    let mut engine = RoundEngine::new(&cells, &honest, filter, options, observer, telemetry)?;
    let dim = engine.x().dim();
    let mut batch = engine.round_batch(n);
    let mut staging = Vector::zeros(dim);

    // Per-agent clock streams: same derivation discipline as the
    // simulator's per-link streams, one independent stream per agent.
    let mut agents: Vec<AgentState> = (0..n)
        .map(|agent| AgentState {
            known: None,
            computing: None,
            fired: None,
            crashed: false,
            stream: SplitMix64::new(mix(config.clock_seed, agent as u64)),
        })
        .collect();
    let mut latest: Vec<Option<LatestRow>> = (0..n).map(|_| None).collect();

    let mut queue = EventQueue::default();

    // Kick-off at virtual time 0: broadcast x_0 and arm the first step.
    broadcast_estimate(&mut net, &mut engine, n, 0);
    queue.push(config.step_interval_ns, DriverEvent::ServerStep { step: 0 });

    'run: while let Some(at) = queue.next_at() {
        // Interleave: every delivery due at or before the next driver
        // event is processed first, one event time per hop. Handling a
        // delivery may start a computation, i.e. push a driver event that
        // precedes `at` — re-peeking each iteration keeps the merge exact.
        if let Some(net_at) = net.next_event_at() {
            if net_at <= at {
                let span = engine.telemetry.begin(Phase::NetDelivery);
                let deliveries = net.advance_until(net_at);
                engine.telemetry.set_virtual_ns(net.now());
                engine.telemetry.end(span);
                for delivery in deliveries {
                    match delivery.payload {
                        ServerWire::Estimate {
                            iteration,
                            estimate,
                        } => {
                            let state = &mut agents[delivery.to];
                            if state.crashed {
                                continue;
                            }
                            let newer = match &state.known {
                                Some((known, _)) => iteration > *known,
                                None => true,
                            };
                            if newer {
                                state.known = Some((iteration, estimate));
                            }
                            start_compute(
                                &mut agents[delivery.to],
                                &cells[delivery.to],
                                &config,
                                net_at,
                                delivery.to,
                                &mut queue,
                            );
                        }
                        ServerWire::Gradient { gradient, .. } => {
                            check_reply_dim(dim, delivery.from, &gradient)?;
                            engine.counters.replies_received += 1;
                            let slot = &mut latest[delivery.from];
                            let fresher = match slot {
                                // `>=` so reordered duplicates resolve to
                                // the later *delivery*, deterministically.
                                Some(row) => delivery.sent_at >= row.sent_at,
                                None => true,
                            };
                            if fresher {
                                *slot = Some(LatestRow {
                                    sent_at: delivery.sent_at,
                                    gradient,
                                });
                            }
                        }
                    }
                }
                continue 'run;
            }
        }

        let Some((at, event)) = queue.pop() else {
            break;
        };
        // Advance the shared clock to the event (no deliveries remain at
        // or before `at` — the merge above pulled them all).
        let _ = net.advance_until(at);
        engine.telemetry.set_virtual_ns(net.now());

        match event {
            DriverEvent::AgentFire { agent } => {
                let Some((iteration, estimate, started)) = agents[agent].computing.take() else {
                    continue;
                };
                agents[agent].fired = Some(iteration);
                // Back-date the span to the compute's start: the fill
                // phase occupies `[started, at]` on the virtual timeline.
                engine.telemetry.set_virtual_ns(started);
                let fill_span = engine.telemetry.begin(Phase::GradientFill);
                engine.telemetry.set_virtual_ns(at);
                let reply = wire_reply(
                    &mut cells[agent],
                    net_faults.get(&agent),
                    server,
                    iteration,
                    &estimate,
                    &mut staging,
                );
                engine.telemetry.end(fill_span);
                if let Some(reply) = reply {
                    net.send(agent, server, reply);
                }
                // A newer estimate may have arrived mid-compute.
                start_compute(
                    &mut agents[agent],
                    &cells[agent],
                    &config,
                    at,
                    agent,
                    &mut queue,
                );
            }
            DriverEvent::ServerStep { step } => {
                // Bounded staleness: per agent, the freshest row no older
                // than τ joins the batch (agent-id order — the shared
                // filter-input order); older rows are stale, absent rows
                // missing, and both shrink this step's fault budget.
                batch.clear();
                let mut oldest = u64::MAX;
                let mut newest = 0u64;
                let counters = &mut engine.counters;
                for slot in &latest {
                    match slot {
                        Some(row) if at.saturating_sub(row.sent_at) <= tau => {
                            batch.push_row(row.gradient.as_slice());
                            oldest = oldest.min(row.sent_at);
                            newest = newest.max(row.sent_at);
                        }
                        Some(_) => counters.stale_rows += 1,
                        None => counters.stragglers += 1,
                    }
                }
                counters.async_steps += 1;
                if !batch.is_empty() {
                    // Clock skew: how far apart in virtual time the rows
                    // aggregated together were produced (maximum over
                    // steps).
                    counters.clock_skew_ns = counters.clock_skew_ns.max(newest - oldest);
                }
                // No eligible row at all holds the estimate, exactly like
                // a fully silent synchronous round (the engine's rule).
                let f_step = sys.f().saturating_sub(n - batch.len());
                if engine.step(step, &batch, f_step)?.is_halt() {
                    break 'run;
                }

                // Broadcast the new estimate and arm the next step.
                broadcast_estimate(&mut net, &mut engine, n, step + 1);
                queue.push(
                    at + config.step_interval_ns,
                    DriverEvent::ServerStep { step: step + 1 },
                );
            }
        }
    }

    // Messages abandoned in flight at shutdown stay accounted as late, so
    // the sent/delivered/dropped/late balance holds for async runs too.
    net.drain_in_flight();
    Ok(engine.finish(net.metrics())?)
}

/// Starts the next computation for `agent` at virtual time `now` when it
/// is idle and a not-yet-computed estimate is known — honoring the crash
/// schedule (an agent crashes the moment it would start working on an
/// iteration at or past its crash point, matching the synchronous "no
/// reply from iteration `c` on" semantics).
fn start_compute(
    state: &mut AgentState,
    cell: &AgentCell,
    config: &AsyncConfig,
    now: u64,
    agent: usize,
    queue: &mut EventQueue,
) {
    if state.crashed || state.computing.is_some() {
        return;
    }
    let (iteration, estimate) = match &state.known {
        Some((iteration, estimate)) => (*iteration, estimate.clone()),
        None => return,
    };
    if state.fired.is_some_and(|done| iteration <= done) {
        return;
    }
    if cell.silent_at(iteration) {
        state.crashed = true;
        return;
    }
    let jitter = if config.compute_jitter_ns > 0 {
        state.stream.next_below_inclusive(config.compute_jitter_ns)
    } else {
        0
    };
    state.computing = Some((iteration, estimate, now));
    queue.push(
        now + config.compute_ns + jitter,
        DriverEvent::AgentFire { agent },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedRun;
    use crate::Launch;
    use abft_attacks::GradientReverse;
    use abft_filters::{Cge, Cwtm};
    use abft_net::LinkModel;
    use abft_problems::RegressionProblem;

    fn paper_options(iterations: usize) -> (RegressionProblem, RunOptions) {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let options = RunOptions::paper_defaults_with_iterations(x_h, iterations);
        (problem, options)
    }

    #[test]
    fn unbounded_tau_over_ideal_links_matches_sync_server_exactly() {
        // The equivalence pin: τ = ∞, ideal links, zero jitter — every
        // step-t batch is the synchronous round-t batch, so the traces are
        // bit-identical, serial and parallel aggregation alike.
        let (problem, base) = paper_options(80);
        for threads in [1, 4] {
            let options = base.clone().with_aggregation_threads(threads);
            let run_async = SimulatedRun::async_server(NetworkModel::ideal(), AsyncConfig::new());
            let asynchronous = DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(GradientReverse::new()))
                .run_dense(Launch::Simulated(&run_async), &Cge::new(), &options)
                .unwrap();
            let run_sync = SimulatedRun::server(NetworkModel::ideal());
            let synchronous = DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(GradientReverse::new()))
                .run_dense(Launch::Simulated(&run_sync), &Cge::new(), &options)
                .unwrap();
            assert_eq!(
                asynchronous.run.trace.records(),
                synchronous.run.trace.records(),
                "threads = {threads}"
            );
            assert!(asynchronous
                .run
                .final_estimate
                .approx_eq(&synchronous.run.final_estimate, 0.0));
            assert_eq!(asynchronous.counters.stale_rows, 0);
            assert_eq!(
                asynchronous.counters.stragglers, 0,
                "every agent's iteration-0 gradient lands before step 0"
            );
            assert_eq!(asynchronous.counters.async_steps, 81);
            assert_eq!(
                asynchronous.counters.clock_skew_ns, 0,
                "identical agent clocks"
            );
            assert!(asynchronous.counters.net.is_balanced());
        }
    }

    #[test]
    fn one_interval_tau_reproduces_sync_crash_elimination() {
        // Under unbounded τ a crashed agent's last row lingers forever;
        // with τ = one step interval the stale-row rule ages it out at
        // exactly the synchronous elimination round, reproducing the
        // lockstep `f − #silent` trace bit-for-bit.
        let (problem, options) = paper_options(60);
        let config = AsyncConfig::new();
        let bounded = options.clone().with_staleness_ns(config.step_interval_ns);
        let run_async = SimulatedRun::async_server(NetworkModel::ideal(), config);
        let asynchronous = DgdTask::new(*problem.config(), problem.costs())
            .crash(3, 10)
            .run_dense(Launch::Simulated(&run_async), &Cge::new(), &bounded)
            .unwrap();
        let run_sync = SimulatedRun::server(NetworkModel::ideal());
        let synchronous = DgdTask::new(*problem.config(), problem.costs())
            .crash(3, 10)
            .run_dense(Launch::Simulated(&run_sync), &Cge::new(), &options)
            .unwrap();
        assert_eq!(
            asynchronous.run.trace.records(),
            synchronous.run.trace.records()
        );
        // Steps 10..=60 each see agent 3's parked iteration-9 row as stale.
        assert_eq!(asynchronous.counters.stale_rows, 51);
    }

    #[test]
    fn identically_seeded_lossy_jittered_runs_are_bit_identical() {
        let (problem, options) = paper_options(50);
        let options = options.with_staleness_ns(3 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS);
        let run = || {
            let config = AsyncConfig::new()
                .with_compute_jitter_ns(400_000)
                .with_clock_seed(7);
            let sim = SimulatedRun::async_server(
                NetworkModel::seeded(13)
                    .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(50_000)),
                config,
            );
            DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(GradientReverse::new()))
                .run_dense(Launch::Simulated(&sim), &Cwtm::new(), &options)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.run.trace.records(), b.run.trace.records());
        assert_eq!(
            a.counters.net, b.counters.net,
            "full event schedule (and digest) reproduced"
        );
        assert_eq!(a.counters.stale_rows, b.counters.stale_rows);
        assert_eq!(a.counters.clock_skew_ns, b.counters.clock_skew_ns);
        assert!(
            a.counters.clock_skew_ns > 0,
            "jittered clocks actually drift"
        );
        assert!(
            a.counters.net.is_balanced(),
            "drained in-flight stays accounted"
        );
    }

    #[test]
    fn bounded_tau_with_slow_agents_shrinks_the_step_budget_not_the_run() {
        // Agents whose compute takes longer than a step interval miss
        // steps; bounded τ excludes their old rows instead of aggregating
        // them, and the run still completes.
        let (problem, options) = paper_options(40);
        let options = options.with_staleness_ns(NetworkModel::DEFAULT_ROUND_TIMEOUT_NS);
        let config =
            AsyncConfig::new().with_compute_ns(3 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS / 2);
        let sim = SimulatedRun::async_server(NetworkModel::ideal(), config);
        let outcome = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        assert!(
            outcome.counters.stale_rows + outcome.counters.stragglers > 0,
            "slow agents miss steps: stale = {}, missing = {}",
            outcome.counters.stale_rows,
            outcome.counters.stragglers
        );
        assert_eq!(outcome.counters.async_steps, 41);
    }

    #[test]
    fn staleness_override_is_rejected_by_lockstep_topologies() {
        let (problem, options) = paper_options(5);
        let options = options.with_staleness_ns(AsyncConfig::UNBOUNDED);
        for sim in [
            SimulatedRun::server(NetworkModel::ideal()),
            SimulatedRun::peer_to_peer(NetworkModel::ideal()),
        ] {
            let err = DgdTask::new(*problem.config(), problem.costs())
                .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
                .unwrap_err();
            assert!(
                err.to_string().contains("round lockstep"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn staleness_override_reaches_the_async_driver() {
        // The same plan, run once with a τ so tight every row has aged out
        // by its aggregation step: the estimate never moves.
        let (problem, options) = paper_options(10);
        let sim = SimulatedRun::async_server(NetworkModel::ideal(), AsyncConfig::new());
        let frozen = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(
                Launch::Simulated(&sim),
                &Cge::new(),
                &options.clone().with_staleness_ns(0),
            )
            .unwrap();
        let n = problem.config().n();
        assert_eq!(
            frozen.counters.stale_rows,
            n * 11,
            "all rows stale at all 11 steps"
        );
        let x0 = options.projection.project(&options.x0);
        assert!(frozen.run.final_estimate.approx_eq(&x0, 0.0));
        let live = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        assert!(live.run.final_distance() < frozen.run.final_distance());
    }

    #[test]
    fn zero_step_interval_is_a_config_error() {
        let (problem, options) = paper_options(5);
        let sim = SimulatedRun::async_server(
            NetworkModel::ideal(),
            AsyncConfig::new().with_step_interval_ns(0),
        );
        assert!(DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .is_err());
    }
}
