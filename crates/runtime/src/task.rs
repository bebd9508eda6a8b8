//! A declarative description of one distributed DGD execution.
//!
//! [`DgdTask`] is the single buildable launch value of this crate: which
//! `(n, f)` system, which costs, which agents misbehave and how. The same
//! task value runs on any runtime — [`DgdTask::run`] takes a [`Launch`]
//! naming the lockstep server (in process, or as an event loop on a
//! transient or a caller-kept [`RoundWorkspace`]), the EIG peer-to-peer
//! network, or a [`SimulatedRun`] over faulty links; the `abft-scenario`
//! crate builds these tasks from declarative `Scenario` specs.
//!
//! # Example
//!
//! ```
//! use abft_attacks::GradientReverse;
//! use abft_dgd::RunOptions;
//! use abft_filters::Cge;
//! use abft_problems::RegressionProblem;
//! use abft_runtime::{DgdTask, Launch};
//!
//! # fn main() -> Result<(), abft_runtime::RuntimeError> {
//! let problem = RegressionProblem::paper_instance();
//! let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
//! let mut options = RunOptions::paper_defaults(x_h);
//! options.iterations = 30;
//! let out = DgdTask::new(*problem.config(), problem.costs())
//!     .byzantine(0, Box::new(GradientReverse::new()))
//!     .run_dense(Launch::Threaded, &Cge::new(), &options)?;
//! assert_eq!(out.run.trace.len(), 31);
//! assert_eq!(out.counters.rounds, 31);
//! # Ok(())
//! # }
//! ```

use crate::error::RuntimeError;
use crate::simulated::{SimTopology, SimulatedRun};
use abft_attacks::ByzantineStrategy;
use abft_core::observe::{RunObserver, TraceRecorder};
use abft_core::validate::{self, FaultBudget};
use abft_core::SystemConfig;
use abft_dgd::{AgentCell, DgdError, Outcome, RoundWorkspace, RunOptions, RunResult};
use abft_filters::GradientFilter;
use abft_net::NetFault;
use abft_problems::SharedCost;
use std::collections::BTreeMap;

/// One distributed DGD execution: the `(n, f)` system, the agents' costs,
/// and the fault plan (Byzantine strategies and crash schedules).
///
/// Construction is infallible; all structural validation (cost counts and
/// dimensions, agent ranges, the fault budget, omniscient-strategy
/// restrictions) happens when the task is launched on a runtime.
pub struct DgdTask {
    config: SystemConfig,
    costs: Vec<SharedCost>,
    byzantine: Vec<(usize, Box<dyn ByzantineStrategy>)>,
    crashes: Vec<(usize, usize)>,
}

/// Where a [`DgdTask`] runs.
pub enum Launch<'a> {
    /// The synchronous server loop in process, on a caller-owned
    /// [`RoundWorkspace`]: every agent fills its row on the caller's
    /// thread and no message passes, so only
    /// [`RunCounters::rounds`](abft_dgd::RunCounters) is counted. The one
    /// launch that serves *omniscient* strategies — they forge in a second
    /// pass with the truly honest agents' rows in view.
    InProcess(&'a mut RoundWorkspace),
    /// The event-loop server runtime — the agent fleet multiplexed over
    /// [`RunOptions::fleet_workers`] workers — on a transient
    /// [`RoundWorkspace`].
    Threaded,
    /// The event-loop server runtime on a caller-owned persistent
    /// [`RoundWorkspace`]: its worker pools and gradient batch survive the
    /// run and are reused by the next one, so a grid of tasks pays fleet
    /// setup once (each reuse is counted in
    /// [`RunCounters::fleet_reuse_hits`](abft_dgd::RunCounters)).
    Fleet(&'a mut RoundWorkspace),
    /// The peer-to-peer runtime on a reliable bus: one EIG broadcast per
    /// agent per iteration, every honest agent filtering locally
    /// (requires `3f < n`; crash schedules are rejected). With
    /// `equivocate`, each Byzantine agent sends its forged gradient `v` to
    /// half the network and `−v` to the other half; EIG agreement still
    /// forces a consistent view.
    PeerToPeer {
        /// Whether Byzantine agents split their forgeries.
        equivocate: bool,
    },
    /// Either architecture (or the asynchronous server) over a seeded
    /// network simulator whose links delay, drop, reorder and partition
    /// messages, with the plan's network-level Byzantine faults layered on
    /// the task's attacks. Over a fault-free [`abft_net::NetworkModel`]
    /// this is bit-identical to the corresponding real runtime.
    Simulated(&'a SimulatedRun),
}

impl Launch<'_> {
    /// What error messages call the runtime's agents.
    fn agents(&self) -> &'static str {
        match self {
            Launch::InProcess(_) => "in-process",
            Launch::Threaded | Launch::Fleet(_) => "threaded",
            Launch::PeerToPeer { .. } => "peer-to-peer",
            Launch::Simulated(_) => "simulated",
        }
    }
}

/// A task's fault plan indexed by agent id — what every driver needs
/// before its first round.
pub(crate) struct FaultPlan {
    pub(crate) config: SystemConfig,
    /// One cell per agent: its cost, its strategy, its crash point.
    pub(crate) cells: Vec<AgentCell>,
    pub(crate) net_faults: BTreeMap<usize, NetFault>,
    /// Agents with no strategy, no crash schedule and no net fault.
    pub(crate) honest: Vec<usize>,
}

impl DgdTask {
    /// A fault-free task over the agents' true costs.
    pub fn new(config: SystemConfig, costs: Vec<SharedCost>) -> Self {
        DgdTask {
            config,
            costs,
            byzantine: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Marks `agent` as Byzantine with the given behaviour.
    #[must_use]
    pub fn byzantine(mut self, agent: usize, strategy: Box<dyn ByzantineStrategy>) -> Self {
        self.byzantine.push((agent, strategy));
        self
    }

    /// Marks `agent` as crashing at iteration `at_iteration` (it behaves
    /// honestly before, and goes silent from then on).
    #[must_use]
    pub fn crash(mut self, agent: usize, at_iteration: usize) -> Self {
        self.crashes.push((agent, at_iteration));
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Validates the fault assignments against the budget and indexes
    /// them by agent: the agent cells, the net faults
    /// (validated against a bus of `addresses` endpoints; a net-faulty
    /// agent consumes budget unless a strategy or crash already did), and
    /// the honest set. Only [`Launch::InProcess`] serves omniscient
    /// strategies; for every other `launch` they are rejected — its agents
    /// cannot observe the other agents' in-flight gradients.
    // LINT-ALLOW(panic-reach): there are n cells (checked first) and every
    // index has passed `FaultBudget::assign`'s `agent < n` check.
    pub(crate) fn fault_plan(
        self,
        net_faults: &[(usize, NetFault)],
        addresses: usize,
        launch: &Launch<'_>,
    ) -> Result<FaultPlan, RuntimeError> {
        let n = self.config.n();
        validate::cost_dimension(n, self.costs.iter().map(|c| c.dim())).map_err(DgdError::from)?;
        let mut cells: Vec<AgentCell> = self.costs.into_iter().map(AgentCell::new).collect();
        let mut budget = FaultBudget::new(&self.config);
        for (agent, strategy) in self.byzantine {
            budget.assign(agent)?;
            if strategy.is_omniscient() && !matches!(launch, Launch::InProcess(_)) {
                return Err(RuntimeError::Config(format!(
                    "strategy '{}' is omniscient; {} agents cannot observe \
                     other agents' in-flight gradients",
                    strategy.name(),
                    launch.agents()
                )));
            }
            cells[agent].forge(strategy);
        }
        for (agent, iteration) in self.crashes {
            budget.assign(agent)?;
            cells[agent].crash_at(iteration);
        }
        let net_faults = abft_net::validate_net_faults(net_faults, n, addresses)
            .map_err(RuntimeError::Config)?;
        for &agent in net_faults.keys() {
            if !budget.is_faulty(agent) {
                budget.assign(agent)?;
            }
        }
        let honest = (0..n).filter(|&i| !budget.is_faulty(i)).collect();
        Ok(FaultPlan {
            config: self.config,
            cells,
            net_faults,
            honest,
        })
    }

    /// Runs the task on the runtime `launch` names, reporting each round
    /// to `observer`. The observer sees one lazy round view per
    /// aggregation round (the leader's — first honest agent's —
    /// perspective on a peer-to-peer topology) and can stop the run by
    /// returning [`abft_core::observe::ControlFlow::Halt`]: no estimate of
    /// that round moves, and the halt round is bit-identical on every
    /// runtime over ideal links.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] for invalid fault or net-fault assignments,
    /// omniscient strategies, `3f ≥ n` or crash schedules on a
    /// peer-to-peer topology, and a staleness bound on a round-lockstep
    /// one; [`RuntimeError::Dgd`] for dimension mismatches, filter
    /// failures (heavy message loss can leave a round with fewer
    /// gradients than the filter needs) and a diverged estimate; and
    /// [`RuntimeError::LockstepViolation`] if honest peer-to-peer agents
    /// disagree on a reliable bus (an internal consistency check).
    pub fn run(
        self,
        launch: Launch<'_>,
        filter: &dyn GradientFilter,
        options: &RunOptions,
        observer: &mut dyn RunObserver,
    ) -> Result<Outcome, RuntimeError> {
        // Only the asynchronous server's rows have ages: on every lockstep
        // launch a staleness bound is a configuration error, not a silent
        // no-op.
        let aged = matches!(
            launch,
            Launch::Simulated(SimulatedRun {
                topology: SimTopology::AsyncServer(_),
                ..
            })
        );
        if options.staleness_ns.is_some() && !aged {
            return Err(RuntimeError::Config(format!(
                "staleness_ns is an asynchronous-driver knob; the {} launch runs in \
                 round lockstep (use SimTopology::AsyncServer)",
                launch.agents()
            )));
        }
        match launch {
            Launch::InProcess(_) | Launch::Threaded | Launch::Fleet(_) => {
                crate::event_loop::execute(self, launch, filter, options, observer)
            }
            Launch::PeerToPeer { equivocate } => {
                crate::peer_to_peer::execute(self, equivocate, filter, options, observer)
            }
            Launch::Simulated(sim) => match sim.topology {
                SimTopology::PeerToPeer { equivocate } => {
                    crate::simulated::execute_p2p(self, sim, equivocate, filter, options, observer)
                }
                SimTopology::Server | SimTopology::AsyncServer(_) => {
                    crate::simulated::execute_server(self, sim, filter, options, observer)
                }
            },
        }
    }

    /// [`DgdTask::run`] with dense in-memory recording: the outcome's run
    /// carries the full trace (`iterations + 1` records).
    ///
    /// # Errors
    ///
    /// See [`DgdTask::run`].
    pub fn run_dense(
        self,
        launch: Launch<'_>,
        filter: &dyn GradientFilter,
        options: &RunOptions,
    ) -> Result<Outcome<RunResult>, RuntimeError> {
        let mut recorder = TraceRecorder::dense(filter.name());
        let out = self.run(launch, filter, options, &mut recorder)?;
        Ok(Outcome {
            run: RunResult::dense(recorder, out.run),
            counters: out.counters,
            final_spread: out.final_spread,
        })
    }
}
