//! DGD over a simulated network: the same protocols, faulty links.
//!
//! [`Launch::Simulated`] executes a task on an
//! [`abft_net::SimulatedNetwork`] — a seeded discrete-event simulator whose
//! links can delay, drop, reorder, and partition messages — in either of
//! the paper's two architectures:
//!
//! * [`SimTopology::Server`] — the Figure-1 server loop over simulated
//!   links: the server (bus address `n`) broadcasts `x_t` to the agents,
//!   collects the gradients that arrive *within the round deadline*, and
//!   aggregates. A reply that is lost or late is treated exactly like a
//!   crash for that round: the agent's row is absent and the server
//!   applies the per-round S1 rule (its fault budget for the round shrinks
//!   by the number of silent agents). Over ideal links this reproduces the
//!   in-process and threaded drivers bit-for-bit, crashes included.
//! * [`SimTopology::PeerToPeer`] — the EIG-broadcast row source of
//!   [`crate::peer_to_peer`] over simulated links. Lost or late
//!   transmissions become EIG omissions; with enough of them, honest
//!   agents fall out of lockstep — reported, not asserted, via
//!   [`Outcome::final_spread`]. Over ideal links this is bit-identical to
//!   [`Launch::PeerToPeer`].
//!
//! Every topology runs the one server loop ([`RowSource::serve`]) over
//! its row source; the lockstep server and the asynchronous one
//! ([`SimTopology::AsyncServer`]) share one set-up and finish around it
//! too.
//!
//! Network-level Byzantine behaviours ([`NetFault`]: selective sending,
//! per-link equivocation) layer on top of the value-forging attack
//! registry: the attack decides *what* a faulty agent claims, the net
//! fault decides *which links* hear it (or its negation).

use crate::async_server::{AsyncConfig, Staleness};
use crate::error::RuntimeError;
use crate::message::{RowSlab, ServerWire};
use crate::peer_to_peer::{self, P2pLink};
use crate::task::{DgdTask, FaultPlan, Launch};
use abft_attacks::HonestGradients;
use abft_core::observe::RunObserver;
use abft_dgd::{AgentCell, DgdError, Outcome, RoundEngine, RowSource, RunOptions};
use abft_filters::GradientFilter;
use abft_linalg::{GradientBatch, Vector};
use abft_net::{Delivery, MessageBus, NetFault, NetworkModel, SimulatedNetwork};
use abft_telemetry::{Phase, Telemetry};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which architecture the simulated network carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTopology {
    /// Trusted server + `n` agents; the server is bus address `n`.
    Server,
    /// EIG-broadcast peer-to-peer network (requires `3f < n`).
    PeerToPeer {
        /// When set, every Byzantine agent splits its forged gradient
        /// across the network halves (the legacy equivocation mode; use
        /// [`NetFault::EquivocateSplit`] for per-agent boundaries).
        equivocate: bool,
    },
    /// Trusted server + `n` agents with **no round lockstep**: agents fire
    /// gradient computations on their own seeded clocks and the server
    /// aggregates bounded-staleness rows on a fixed virtual-time cadence
    /// (see [`crate::async_server`]). The server is bus address `n`.
    AsyncServer(AsyncConfig),
}

/// A simulated execution plan: topology, network behaviour, and
/// network-level Byzantine faults.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// The architecture to simulate.
    pub topology: SimTopology,
    /// The network's declarative model (links, partitions, seed, round
    /// deadline).
    pub network: NetworkModel,
    /// Per-agent network-level behaviours, layered on the task's attacks.
    pub net_faults: Vec<(usize, NetFault)>,
}

impl SimulatedRun {
    /// A peer-to-peer plan over `network`.
    pub fn peer_to_peer(network: NetworkModel) -> Self {
        SimulatedRun {
            topology: SimTopology::PeerToPeer { equivocate: false },
            network,
            net_faults: Vec::new(),
        }
    }

    /// A server-based plan over `network`.
    pub fn server(network: NetworkModel) -> Self {
        SimulatedRun {
            topology: SimTopology::Server,
            network,
            net_faults: Vec::new(),
        }
    }

    /// An asynchronous bounded-staleness server plan over `network`.
    pub fn async_server(network: NetworkModel, config: AsyncConfig) -> Self {
        SimulatedRun {
            topology: SimTopology::AsyncServer(config),
            network,
            net_faults: Vec::new(),
        }
    }

    /// The server's bus address in a [`SimTopology::Server`] run over `n`
    /// agents.
    fn server_address(n: usize) -> usize {
        n
    }
}

/// Peer-to-peer over the simulator: the shared loop of
/// [`crate::peer_to_peer`] on a faulty bus, lockstep measured instead of
/// asserted.
pub(crate) fn execute_p2p(
    task: DgdTask,
    sim: &SimulatedRun,
    equivocate: bool,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    let n = task.config().n();
    let mut net: SimulatedNetwork<_> = sim.network.build(n);
    let link = P2pLink {
        equivocate,
        net_faults: &sim.net_faults,
        enforce_lockstep: false,
    };
    peer_to_peer::execute_on(task, filter, options, &mut net, link, observer)
}

/// The server architecture over the simulator, in round lockstep
/// ([`SimTopology::Server`]) or not ([`SimTopology::AsyncServer`]): one
/// set-up, the server loop over the topology's row source, one finish.
pub(crate) fn execute_server(
    task: DgdTask,
    sim: &SimulatedRun,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    if matches!(sim.topology, SimTopology::AsyncServer(timing) if timing.step_interval_ns == 0) {
        return Err(RuntimeError::Config(
            "async step_interval_ns must be positive: a zero cadence never advances \
             virtual time, so no gradient could ever arrive before a step"
                .into(),
        ));
    }
    let n = task.config().n();
    // The server's address participates in the bus, so victim lists and
    // equivocation boundaries may reference it.
    let FaultPlan {
        config,
        cells,
        net_faults,
        honest,
    } = task.fault_plan(&sim.net_faults, n + 1, &Launch::Simulated(sim))?;

    let net: SimulatedNetwork<ServerWire> = sim.network.build(n + 1);
    // Simulated runs profile in *virtual* time: spans advance only when
    // the network's schedule-driven clock does, so two identical seeded
    // runs produce identical reports (pinned by the determinism tests).
    let telemetry = Telemetry::for_bus(options.telemetry, Some(net.now()));
    let mut engine = RoundEngine::new(&cells, &honest, filter, options, observer, telemetry)?;
    let mut bus = ServerBus {
        batch: engine.round_batch(n),
        // Room for a lockstep round's traffic: the estimate and one reply
        // per agent. A run only grows it while every slot is held.
        slab: RowSlab::new(engine.x().dim(), n + 1),
        net,
        delivered: Vec::new(),
        cells,
        net_faults,
    };
    if let SimTopology::AsyncServer(timing) = sim.topology {
        Staleness::new(&mut bus, timing, options).serve(n, config.f(), &mut engine)?;
    } else {
        Deadline {
            bus: &mut bus,
            heard: vec![false; n],
            replies: vec![None; n],
        }
        .serve(n, config.f(), &mut engine)?;
    }
    // Messages abandoned in flight at shutdown stay accounted as late, so
    // the sent/delivered/dropped/late balance holds for every run (a
    // deadline round leaves nothing in flight).
    bus.net.drain_in_flight();
    Ok(engine.finish(bus.net.metrics())?)
}

/// What both simulated servers run on: the bus with the server at address
/// `n` and the buffer its deliveries land in, one cell per agent and its
/// net fault, the round batch, and the slab of rows the payloads point
/// into.
pub(crate) struct ServerBus {
    pub(crate) net: SimulatedNetwork<ServerWire>,
    /// The latest `end_round` or `advance_until`'s deliveries, reused
    /// across calls.
    pub(crate) delivered: Vec<Delivery<ServerWire>>,
    pub(crate) cells: Vec<AgentCell>,
    net_faults: BTreeMap<usize, NetFault>,
    pub(crate) batch: GradientBatch,
    slab: RowSlab,
}

impl ServerBus {
    /// Announces `iteration` to the bus and sends the server's estimate
    /// entering it to every agent: one slab row, shared by every message.
    pub(crate) fn broadcast(&mut self, engine: &mut RoundEngine<'_>, iteration: usize) {
        let server = SimulatedRun::server_address(self.cells.len());
        self.net.begin_iteration(iteration);
        let estimate = self
            .slab
            .share(|row| row.copy_from_slice(engine.x().as_slice()));
        for agent in 0..server {
            self.net.send(
                server,
                agent,
                ServerWire::Estimate {
                    iteration,
                    estimate: Rc::clone(&estimate),
                },
            );
        }
        engine.counters.broadcasts_sent += server;
    }

    /// `agent`'s reply to the estimate `x` of `iteration`: what its cell
    /// reports, as seen from the server's side of any net fault — negated
    /// when the server sits past an equivocation boundary, and nothing at
    /// all when a selective sender lists the server among its victims.
    /// Returns whether a reply went on the wire. This is where a row enters
    /// the bus: the report is written straight into a slab row, which is
    /// `d` wide by construction, and the message carries a handle to it.
    pub(crate) fn reply(&mut self, agent: usize, iteration: usize, x: &Vector) -> bool {
        let server = SimulatedRun::server_address(self.cells.len());
        let Some(cell) = self.cells.get_mut(agent) else {
            return false;
        };
        let fault = self.net_faults.get(&agent);
        let negate =
            matches!(fault, Some(NetFault::EquivocateSplit { boundary }) if server >= *boundary);
        let gradient = self.slab.share(|row| {
            cell.reply_into(iteration, x, HonestGradients::Hidden, row);
            if negate {
                row.iter_mut().for_each(|value| *value *= -1.0);
            }
        });
        if matches!(fault, Some(NetFault::SelectiveSend(victims)) if victims.contains(&server)) {
            // Computed, never sent: the row goes straight back to the slab.
            return false;
        }
        self.net.send(
            agent,
            server,
            ServerWire::Gradient {
                iteration,
                gradient,
            },
        );
        true
    }
}

/// The row source of [`SimTopology::Server`]: one iteration is two bus
/// rounds — the estimate down, the replies up — and the rows are the
/// replies that made the round deadline.
struct Deadline<'b> {
    bus: &'b mut ServerBus,
    /// Which agents heard this round's estimate; reset every round.
    heard: Vec<bool>,
    /// Per agent, the reply that made this round's deadline; emptied as
    /// the rows are laid out.
    replies: Vec<Option<Rc<Vector>>>,
}

impl RowSource for Deadline<'_> {
    type Error = DgdError;

    fn round_rows(
        &mut self,
        t: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<&GradientBatch, DgdError> {
        let bus = &mut *self.bus;
        // Phase 1 — S1 broadcast: the server sends x_t to every agent.
        let down_span = engine.telemetry.begin(Phase::NetDelivery);
        bus.broadcast(engine, t);
        // Agents that heard the estimate this round compute a reply.
        self.heard.fill(false);
        bus.net.end_round(&mut bus.delivered);
        for delivery in &bus.delivered {
            if let ServerWire::Estimate { iteration, .. } = delivery.payload {
                debug_assert_eq!(iteration, t, "rounds drain fully");
                if let Some(heard) = self.heard.get_mut(delivery.to) {
                    *heard = true;
                }
            }
        }
        engine.telemetry.set_virtual_ns(bus.net.now());
        engine.telemetry.end(down_span);

        // Phase 2 — replies: honest gradient, forged gradient, or silence
        // (a crashed agent is permanently silent: no reply expected).
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        let x = engine.x();
        let mut expected = 0usize;
        for (agent, _) in self.heard.iter().enumerate().filter(|(_, heard)| **heard) {
            let live = bus.cells.get(agent).is_some_and(|cell| !cell.silent_at(t));
            if live && bus.reply(agent, t, x) {
                expected += 1;
            }
        }
        engine.telemetry.end(fill_span);

        // Collect what made the deadline: each reply takes its sender's
        // place (at most one reply per agent per round), so rows land in
        // agent-id order, the filter-input order every backend shares. A
        // reply that never arrived leaves its agent without a row for the
        // round.
        let up_span = engine.telemetry.begin(Phase::NetDelivery);
        bus.net.end_round(&mut bus.delivered);
        engine.telemetry.set_virtual_ns(bus.net.now());
        engine.telemetry.end(up_span);
        for delivery in &bus.delivered {
            if let ServerWire::Gradient {
                iteration,
                gradient,
            } = &delivery.payload
            {
                debug_assert_eq!(*iteration, t, "rounds drain fully");
                if let Some(place) = self.replies.get_mut(delivery.from) {
                    debug_assert!(place.is_none(), "one reply per agent per round");
                    *place = Some(Rc::clone(gradient));
                }
            }
        }
        bus.batch.clear();
        for gradient in self.replies.iter_mut().filter_map(Option::take) {
            bus.batch.push_row(gradient.as_slice());
        }
        engine.counters.replies_received += bus.batch.len();
        engine.counters.stragglers += expected - bus.batch.len();
        Ok(&bus.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Launch;
    use abft_attacks::GradientReverse;
    use abft_dgd::RoundWorkspace;
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
    fn ideal_server_topology_matches_in_process_driver_exactly() {
        let (problem, options) = paper_options(80);
        let sim = SimulatedRun::server(NetworkModel::ideal());
        let simulated = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        let mut workspace = RoundWorkspace::new();
        let in_process = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::InProcess(&mut workspace), &Cge::new(), &options)
            .unwrap()
            .run;
        assert_eq!(simulated.run.trace.records(), in_process.trace.records());
        assert!(simulated
            .run
            .final_estimate
            .approx_eq(&in_process.final_estimate, 0.0));
        assert_eq!(simulated.counters.stragglers, 0);
        assert!(simulated.counters.net.is_balanced());
    }

    #[test]
    fn ideal_server_topology_matches_threaded_under_crash() {
        // The per-round S1 rule degenerates to the threaded runtime's
        // permanent elimination when links are ideal.
        let (problem, options) = paper_options(60);
        let sim = SimulatedRun::server(NetworkModel::ideal());
        let simulated = DgdTask::new(*problem.config(), problem.costs())
            .crash(3, 10)
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        let threaded = DgdTask::new(*problem.config(), problem.costs())
            .crash(3, 10)
            .run_dense(Launch::Threaded, &Cge::new(), &options)
            .unwrap();
        assert_eq!(simulated.run.trace.records(), threaded.run.trace.records());
    }

    #[test]
    fn ideal_p2p_topology_matches_real_p2p_exactly() {
        let (problem, options) = paper_options(50);
        let sim = SimulatedRun::peer_to_peer(NetworkModel::ideal());
        let simulated = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        let real = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                &options,
            )
            .unwrap();
        assert_eq!(simulated.run.trace.records(), real.run.trace.records());
        assert_eq!(
            simulated.counters.eig_broadcasts,
            real.counters.eig_broadcasts
        );
        // Same protocol, same message count; only the wire differs.
        assert_eq!(simulated.counters.net.sent, real.counters.net.sent);
        assert_eq!(simulated.final_spread, 0.0);
    }

    #[test]
    fn lossy_server_still_converges_and_counts_stragglers() {
        let (problem, options) = paper_options(120);
        let sim = SimulatedRun::server(
            NetworkModel::seeded(7)
                .with_default_link(LinkModel::ideal().with_drop(0.1).with_reorder_ns(2_000)),
        );
        let outcome = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        assert!(
            outcome.counters.net.dropped > 0,
            "losses occurred: {:?}",
            outcome.counters.net
        );
        assert!(outcome.counters.stragglers > 0);
        assert!(
            outcome.run.final_distance() < 0.3,
            "d = {}",
            outcome.run.final_distance()
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_lossy_runs() {
        let (problem, options) = paper_options(40);
        let run = || {
            let sim = SimulatedRun::peer_to_peer(
                NetworkModel::seeded(99)
                    .with_default_link(LinkModel::ideal().with_drop(0.05).with_reorder_ns(500)),
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
            "full event schedule reproduced"
        );
        assert_eq!(a.final_spread, b.final_spread);
    }

    #[test]
    fn selective_send_to_server_silences_the_agent() {
        let (problem, options) = paper_options(50);
        let server = SimulatedRun::server_address(problem.config().n());
        let mut sim = SimulatedRun::server(NetworkModel::ideal());
        sim.net_faults
            .push((0, NetFault::SelectiveSend(vec![server])));
        let outcome = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        // The agent computes a reply but never sends it: not a straggler,
        // simply fewer sends on the bus.
        assert_eq!(outcome.counters.stragglers, 0);
        assert!(outcome.run.final_distance() < 0.2);
    }

    #[test]
    fn duplicate_net_faults_are_rejected() {
        let (problem, options) = paper_options(5);
        let mut sim = SimulatedRun::server(NetworkModel::ideal());
        sim.net_faults
            .push((0, NetFault::EquivocateSplit { boundary: 1 }));
        sim.net_faults.push((0, NetFault::SelectiveSend(vec![1])));
        assert!(DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .is_err());
    }

    #[test]
    fn heavy_loss_degrades_but_never_panics() {
        // Sanity: even absurd loss rates produce a Result, not a panic.
        let (problem, options) = paper_options(10);
        let sim = SimulatedRun::server(
            NetworkModel::seeded(3).with_default_link(LinkModel::ideal().with_drop(0.9)),
        );
        let _ = DgdTask::new(*problem.config(), problem.costs()).run_dense(
            Launch::Simulated(&sim),
            &Cge::new(),
            &options,
        );
    }

    #[test]
    fn fully_silent_rounds_hold_the_estimate() {
        // Every message exceeds the round deadline: no estimate ever
        // reaches an agent, no reply ever reaches the server. The run
        // completes with the estimate parked at the projected x0.
        let (problem, options) = paper_options(8);
        let sim = SimulatedRun::server(
            NetworkModel::ideal()
                .with_default_link(LinkModel::ideal().with_delay_ns(5_000_000))
                .with_round_timeout_ns(1_000),
        );
        let outcome = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::Simulated(&sim), &Cge::new(), &options)
            .unwrap();
        assert_eq!(outcome.counters.net.delivered, 0);
        assert_eq!(outcome.counters.net.late, outcome.counters.net.sent);
        assert_eq!(outcome.run.trace.len(), 9);
        let x0 = options.projection.project(&options.x0);
        assert!(outcome.run.final_estimate.approx_eq(&x0, 0.0));
    }
}
