//! The asynchronous bounded-staleness row source of the simulated server.
//!
//! The lockstep sources wait for a round: broadcast, collect, aggregate.
//! This one does not. Agents fire gradient computations on their own
//! clocks (base compute time plus seeded jitter off per-agent SplitMix64
//! streams), replies cross the simulated network whenever they cross it,
//! and server step `t` fires at virtual time
//! `(t + 1) · `[`AsyncConfig::step_interval_ns`]. Its rows are, per agent,
//! the freshest gradient heard — if no older than the staleness bound τ
//! ([`RunOptions::staleness_ns`]; `None` is [`AsyncConfig::UNBOUNDED`]).
//! A stale or missing row is an absent row, so the server loop
//! ([`RowSource::serve`]) runs the filter with `f − #excluded`: the
//! synchronous per-round S1 rule, in continuous time.
//!
//! Determinism: the source's own event queue (server steps and agent
//! fires, ordered by `(virtual time, schedule sequence)`) is merged with
//! the network's through the bus's continuous
//! [`advance_until`](MessageBus::advance_until) /
//! [`next_event_at`](MessageBus::next_event_at) view, deliveries first on
//! ties. A run is a pure function of the task, the network model and the
//! [`AsyncConfig`]: identically seeded runs produce bit-identical traces,
//! schedules and telemetry reports (pinned by tests).
//!
//! Synchronous anchor: at unbounded τ over ideal links with zero jitter,
//! every round-`t` gradient lands before step `t`, so each step aggregates
//! the synchronous round-`t` batch and the trace is bit-identical to
//! [`SimTopology::Server`](crate::SimTopology::Server). (Under unbounded τ
//! a crashed agent's last row never ages out; τ = one step interval
//! reproduces the synchronous crash elimination exactly.)
//!
//! [`RunOptions::staleness_ns`]: abft_dgd::RunOptions::staleness_ns

use crate::message::ServerWire;
use crate::simulated::ServerBus;
#[cfg(test)]
use crate::task::DgdTask;
use abft_dgd::{DgdError, RoundEngine, RowSource, RunOptions};
use abft_linalg::{GradientBatch, Vector};
use abft_net::rng::{mix, SplitMix64};
use abft_net::{MessageBus, NetworkModel};
use abft_telemetry::Phase;
use std::cmp::Reverse;
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
///
/// [`RunOptions::staleness_ns`]: abft_dgd::RunOptions::staleness_ns
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
    ///
    /// [`RunOptions::staleness_ns`]: abft_dgd::RunOptions::staleness_ns
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

/// The source's own deterministic event queue: a min-heap over
/// `(virtual time, schedule sequence)`, the same total order the
/// simulator uses for deliveries (`seq` is unique, so the order never
/// looks further). An event is the agent whose computation finishes, or
/// `None` for the pending server step. Network deliveries are not queued
/// here — they live in the simulator's queue and are interleaved by time
/// through the bus's continuous view, deliveries first on ties.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u64, Option<usize>)>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at: u64, fires: Option<usize>) {
        self.heap.push(Reverse((at, self.seq, fires)));
        self.seq += 1;
    }

    /// Virtual time of the earliest queued event.
    fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    fn pop(&mut self) -> Option<(u64, Option<usize>)> {
        self.heap.pop().map(|Reverse((at, _, fires))| (at, fires))
    }
}

/// Per-agent asynchronous state, and the server's view of the agent.
/// Every vector is a buffer of the agent's own, copied into from the
/// wire, so no agent holds a slab row.
struct AgentState {
    /// Iteration of the newest estimate heard, which `known_x` holds.
    known: Option<usize>,
    known_x: Vector,
    /// In-progress computation: `(iteration, started)`, on the estimate
    /// `computing_x` captured when it started.
    computing: Option<(usize, u64)>,
    computing_x: Vector,
    /// Newest iteration already computed and sent.
    fired: Option<usize>,
    /// Permanently silent (crash schedule reached).
    crashed: bool,
    /// This agent's own clock-jitter stream.
    stream: SplitMix64,
    /// When the freshest gradient row the server has heard from the agent
    /// was sent; `latest_row` holds the row.
    latest: Option<u64>,
    latest_row: Vector,
}

/// The row source of [`SimTopology::AsyncServer`](crate::SimTopology):
/// the event merge, run until each server step comes due, and the
/// freshest row per agent within τ at that step.
pub(crate) struct Staleness<'b> {
    bus: &'b mut ServerBus,
    timing: AsyncConfig,
    /// The staleness bound τ.
    tau: u64,
    agents: Vec<AgentState>,
    queue: EventQueue,
    /// Virtual time of the latest armed server step.
    step_at: u64,
}

impl<'b> Staleness<'b> {
    /// The source over `bus` under `timing` and the run's τ: per-agent
    /// clock streams on the simulator's derivation discipline, one
    /// independent stream per agent, and no row heard yet.
    pub(crate) fn new(bus: &'b mut ServerBus, timing: AsyncConfig, options: &RunOptions) -> Self {
        let dim = bus.batch.dim();
        let agents = (0..bus.cells.len())
            .map(|agent| AgentState {
                known: None,
                known_x: Vector::zeros(dim),
                computing: None,
                computing_x: Vector::zeros(dim),
                fired: None,
                crashed: false,
                stream: SplitMix64::new(mix(timing.clock_seed, agent as u64)),
                latest: None,
                latest_row: Vector::zeros(dim),
            })
            .collect();
        Staleness {
            bus,
            timing,
            tau: options.staleness_ns.unwrap_or(AsyncConfig::UNBOUNDED),
            agents,
            queue: EventQueue::default(),
            step_at: 0,
        }
    }

    /// Pops the next driver event, first delivering every message due at
    /// or before it, one event time per hop. Handling a delivery may start
    /// a computation, i.e. push a driver event that precedes the one peeked
    /// — re-peeking each hop keeps the merge exact.
    fn next_event(&mut self, engine: &mut RoundEngine<'_>) -> Option<(u64, Option<usize>)> {
        while let Some(at) = self.queue.next_at() {
            match self.bus.net.next_event_at() {
                Some(net_at) if net_at <= at => self.deliver(net_at, engine),
                _ => {
                    // Advance the shared clock to the event (no deliveries
                    // remain at or before `at`).
                    self.bus.net.advance_until(at, &mut self.bus.delivered);
                    debug_assert!(
                        self.bus.delivered.is_empty(),
                        "nothing is due at or before the event"
                    );
                    engine.telemetry.set_virtual_ns(self.bus.net.now());
                    return self.queue.pop();
                }
            }
        }
        None
    }

    /// Processes every delivery due at `net_at`: an estimate an agent may
    /// start computing on, or a gradient row the server keeps when it is
    /// the sender's freshest. Both are copied off the wire, which releases
    /// their slab rows.
    fn deliver(&mut self, net_at: u64, engine: &mut RoundEngine<'_>) {
        let span = engine.telemetry.begin(Phase::NetDelivery);
        // The buffer leaves the bus while its deliveries are handled, and
        // returns with its capacity.
        let mut deliveries = std::mem::take(&mut self.bus.delivered);
        self.bus.net.advance_until(net_at, &mut deliveries);
        engine.telemetry.set_virtual_ns(self.bus.net.now());
        engine.telemetry.end(span);
        for delivery in deliveries.drain(..) {
            match delivery.payload {
                ServerWire::Estimate {
                    iteration,
                    estimate,
                } => {
                    let Some(state) = self.agents.get_mut(delivery.to) else {
                        continue;
                    };
                    if state.known.is_none_or(|known| known < iteration) {
                        state.known = Some(iteration);
                        state
                            .known_x
                            .as_mut_slice()
                            .copy_from_slice(estimate.as_slice());
                    }
                    self.start_compute(delivery.to, net_at);
                }
                ServerWire::Gradient { gradient, .. } => {
                    engine.counters.replies_received += 1;
                    let Some(state) = self.agents.get_mut(delivery.from) else {
                        continue;
                    };
                    // `>=` so reordered duplicates resolve to the later
                    // *delivery*, deterministically.
                    let sent_at = delivery.sent_at;
                    if state.latest.is_none_or(|at| sent_at >= at) {
                        state.latest = Some(sent_at);
                        state
                            .latest_row
                            .as_mut_slice()
                            .copy_from_slice(gradient.as_slice());
                    }
                }
            }
        }
        self.bus.delivered = deliveries;
    }

    /// `agent` finishes its computation at `at`: its reply goes on the wire
    /// and, if a newer estimate arrived mid-compute, the next one starts.
    fn fire(&mut self, agent: usize, at: u64, engine: &mut RoundEngine<'_>) {
        let Some(state) = self.agents.get_mut(agent) else {
            return;
        };
        let Some((iteration, started)) = state.computing.take() else {
            return;
        };
        state.fired = Some(iteration);
        // Back-date the span to the compute's start: the fill phase
        // occupies `[started, at]` on the virtual timeline.
        engine.telemetry.set_virtual_ns(started);
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        engine.telemetry.set_virtual_ns(at);
        self.bus.reply(agent, iteration, &state.computing_x);
        engine.telemetry.end(fill_span);
        self.start_compute(agent, at);
    }

    /// Starts the next computation for `agent` at virtual time `now` when
    /// it is idle and a not-yet-computed estimate is known — honoring the
    /// crash schedule (an agent crashes the moment it would start working
    /// on an iteration at or past its crash point, matching the
    /// synchronous "no reply from iteration `c` on" semantics).
    fn start_compute(&mut self, agent: usize, now: u64) {
        let (Some(state), Some(cell)) = (self.agents.get_mut(agent), self.bus.cells.get(agent))
        else {
            return;
        };
        if state.crashed || state.computing.is_some() {
            return;
        }
        let Some(iteration) = state.known else {
            return;
        };
        if state.fired.is_some_and(|done| iteration <= done) {
            return;
        }
        if cell.silent_at(iteration) {
            state.crashed = true;
            return;
        }
        state
            .computing_x
            .as_mut_slice()
            .copy_from_slice(state.known_x.as_slice());
        let jitter = match self.timing.compute_jitter_ns {
            0 => 0,
            window => state.stream.next_below_inclusive(window),
        };
        state.computing = Some((iteration, now));
        let done = now + self.timing.compute_ns + jitter;
        self.queue.push(done, Some(agent));
    }
}

impl RowSource for Staleness<'_> {
    type Error = DgdError;

    /// Broadcasts `x_t` as iteration `t` — the kick-off at virtual time 0
    /// for `t = 0`, right after step `t − 1` otherwise — arms server step
    /// `t` one interval after the last, and merges events until it comes
    /// due. (No eligible row at all holds the estimate, exactly like a
    /// fully silent synchronous round.)
    fn round_rows(
        &mut self,
        t: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<&GradientBatch, DgdError> {
        self.bus.broadcast(engine, t);
        self.step_at += self.timing.step_interval_ns;
        self.queue.push(self.step_at, None);
        while let Some((at, Some(agent))) = self.next_event(engine) {
            self.fire(agent, at, engine);
        }
        // Per agent, the freshest row no older than τ, in agent-id order:
        // an older row is stale, a missing one straggles, and either way
        // the agent has no row this step.
        let at = self.step_at;
        let batch = &mut self.bus.batch;
        batch.clear();
        let (mut oldest, mut newest) = (u64::MAX, 0u64);
        let counters = &mut engine.counters;
        for state in &self.agents {
            match state.latest {
                Some(sent_at) if at.saturating_sub(sent_at) <= self.tau => {
                    batch.push_row(state.latest_row.as_slice());
                    oldest = oldest.min(sent_at);
                    newest = newest.max(sent_at);
                }
                Some(_) => counters.stale_rows += 1,
                None => counters.stragglers += 1,
            }
        }
        counters.async_steps += 1;
        if !batch.is_empty() {
            // Clock skew: how far apart in virtual time the rows
            // aggregated together were produced (maximum over steps).
            counters.clock_skew_ns = counters.clock_skew_ns.max(newest - oldest);
        }
        Ok(batch)
    }
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
        let config = AsyncConfig {
            compute_ns: 3 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS / 2,
            ..AsyncConfig::new()
        };
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
            AsyncConfig {
                step_interval_ns: 0,
                ..AsyncConfig::new()
            },
        );
        assert!(DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .is_err());
    }
}
