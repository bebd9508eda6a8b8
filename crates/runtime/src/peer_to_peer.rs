//! Peer-to-peer DGD via Byzantine broadcast (Figure 1, right).
//!
//! In the peer-to-peer architecture there is no trusted server: every agent
//! broadcasts its gradient by EIG Byzantine broadcast ([`crate::eig`]), so
//! all honest agents observe the *same* multiset of `n` reported gradients
//! (agreement), run the same deterministic server step over it — an
//! [`abft_dgd::RoundEngine`] each — and therefore maintain identical
//! estimates in lockstep: the simulation argument of Section 1.4, which
//! requires `f < n/3`.
//!
//! The code has the same shape: the leader's engine runs the server loop
//! ([`RowSource::serve`]) over a row source of every honest perspective.
//!
//! A round sends its messages and allocates nothing else: the EIG trees
//! (one per sender) and their working tables are built at set-up, the
//! values on the wire are the rows of one per-round table, messages carry
//! handles into it, and every decision is copied from it into a
//! perspective's batch row.
//!
//! All broadcast traffic travels through an [`abft_net::MessageBus`]. The
//! real runtime ([`Launch::PeerToPeer`]) drives a
//! reliable [`PerfectBus`] and keeps the historical bit-exact behaviour; the
//! `Simulated` backend drives the same loop over an
//! `abft_net::SimulatedNetwork`, where lost or late transmissions become
//! EIG omissions and honest agents may (measurably) fall out of lockstep —
//! the phenomenon the link-fault studies quantify.

use crate::eig::{check_plans, EigMessage, EigTables, EigTree, EquivocationPlan, Relay};
use crate::error::RuntimeError;
use crate::task::{DgdTask, FaultPlan, Launch};
use abft_attacks::HonestGradients;
use abft_core::observe::{NullObserver, RunObserver};
use abft_core::SystemConfig;
use abft_dgd::{AgentCell, Outcome, RoundEngine, RowSource, RunOptions};
use abft_filters::GradientFilter;
use abft_linalg::GradientBatch;
use abft_net::{MessageBus, NetFault, PerfectBus};
use abft_telemetry::{Phase, Telemetry};

/// The EIG-broadcast lockstep loop behind [`Launch::PeerToPeer`],
/// on a reliable in-memory bus.
///
/// When `equivocate` is set, each Byzantine agent *splits* its forged
/// gradient (sending `v` to half the network and `−v` to the other half);
/// EIG agreement still forces a consistent view — exercised by the lockstep
/// assertion.
pub(crate) fn execute(
    task: DgdTask,
    equivocate: bool,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    let mut bus = PerfectBus::new(task.config().n());
    let link = P2pLink {
        equivocate,
        net_faults: &[],
        enforce_lockstep: true,
    };
    execute_on(task, filter, options, &mut bus, link, observer)
}

/// How the peer-to-peer loop is wired to its network: legacy equivocation
/// mode, network-level Byzantine faults, and whether lockstep is asserted
/// (reliable bus) or merely measured (simulator).
#[derive(Debug, Clone, Copy)]
pub(crate) struct P2pLink<'a> {
    pub(crate) equivocate: bool,
    pub(crate) net_faults: &'a [(usize, NetFault)],
    pub(crate) enforce_lockstep: bool,
}

/// Peer-to-peer DGD over an arbitrary [`MessageBus`] — shared by the real
/// runtime (reliable bus, lockstep asserted) and the network simulator
/// (faulty bus, lockstep *measured*).
///
/// Every honest agent maintains its own protocol state — a
/// [`RoundEngine`] each: it evaluates its gradient at its *own* estimate,
/// broadcasts, and steps over its *own* decided multiset. The first
/// honest agent — the leader — carries the caller's observer and the
/// run's telemetry, and its engine runs the server loop
/// ([`RowSource::serve`]) over the [`Perspectives`]; the others run
/// unobserved inside that source. Byzantine agents forge from the
/// leader's estimate — exactly the historical common-estimate behaviour,
/// so a reliable bus reproduces the pre-bus loop bit for bit in every
/// regime. On a faulty bus honest trajectories may drift apart; the
/// recorded trace follows the leader and the final spread is reported.
///
/// `net_faults` layers network-level Byzantine behaviours (selective
/// sending, per-link equivocation) on top of the agents' value-forging
/// strategies; a net-faulty agent counts against the fault budget even if
/// it forges nothing.
///
/// Omniscient strategies are rejected (no agent can see others' in-flight
/// gradients before sending its own in a broadcast round), and so are crash
/// schedules (the peer-to-peer round structure has no S1 elimination rule).
pub(crate) fn execute_on<B: MessageBus<EigMessage>>(
    task: DgdTask,
    filter: &dyn GradientFilter,
    options: &RunOptions,
    bus: &mut B,
    link: P2pLink<'_>,
    observer: &mut dyn RunObserver,
) -> Result<Outcome, RuntimeError> {
    let P2pLink {
        equivocate,
        net_faults,
        enforce_lockstep,
    } = link;
    let config = *task.config();
    let n = config.n();
    if !config.supports_peer_to_peer() {
        return Err(RuntimeError::Config(format!(
            "peer-to-peer DGD requires 3f < n, got {config}"
        )));
    }
    // A net-faulty agent is Byzantine; it consumes budget unless its
    // value-forging strategy already did.
    let FaultPlan {
        cells,
        mut net_faults,
        honest,
        ..
    } = task.fault_plan(net_faults, n, &Launch::PeerToPeer { equivocate })?;
    let crash = |(agent, cell): (usize, &AgentCell)| cell.crash_point().map(|at| (agent, at));
    if let Some((agent, at)) = cells.iter().enumerate().find_map(crash) {
        return Err(RuntimeError::Config(format!(
            "agent {agent} scheduled to crash at iteration {at}, but the \
             peer-to-peer runtime does not model crash faults"
        )));
    }
    // The legacy equivocation mode is a net fault: every forging agent
    // without one of its own splits its value across the network halves.
    if equivocate {
        for (agent, cell) in cells.iter().enumerate() {
            if cell.is_forging() {
                let split = NetFault::EquivocateSplit { boundary: n / 2 };
                net_faults.entry(agent).or_insert(split);
            }
        }
    }
    // Every agent's plan, fixed for the run, over wire rows (see
    // `Perspectives::wire`): the `n` values sent, one negation per
    // splitting agent, then the zero row an omission resolves to. A
    // faulty agent's plan layers its net fault over the value it sends.
    let mut rows = n;
    let plans: Vec<EquivocationPlan<usize>> = (0..n)
        .zip(&cells)
        .map(|(agent, cell)| match net_faults.get(&agent) {
            Some(NetFault::SelectiveSend(victims)) => EquivocationPlan::Selective {
                victims: victims.clone(),
            },
            Some(NetFault::EquivocateSplit { boundary }) => {
                rows += 1;
                EquivocationPlan::Split {
                    low: agent,
                    high: rows - 1,
                    boundary: *boundary,
                }
            }
            None if cell.is_forging() => EquivocationPlan::Consistent(agent),
            None => EquivocationPlan::Honest,
        })
        .collect();
    let planned = plans
        .iter()
        .filter(|plan| !matches!(plan, EquivocationPlan::Honest));
    check_plans(config, bus.processes(), planned.count())?;
    let trees = (0..n)
        .map(|sender| EigTree::new(config, sender))
        .collect::<Result<Vec<_>, _>>()?;

    // Profile in the bus's clock domain: a simulated bus keeps a virtual
    // clock (deterministic reports, pinned by the determinism tests), the
    // reliable bus does not, so the real runtime profiles on the wall
    // clock. Disabled handles are pure no-ops either way.
    let telemetry = Telemetry::for_bus(options.telemetry, bus.virtual_time());
    let mut unobserved = vec![NullObserver; honest.len().saturating_sub(1)];
    let mut engine = RoundEngine::new(&cells, &honest, filter, options, observer, telemetry)?;
    let followers = unobserved
        .iter_mut()
        .map(|observer| {
            let telemetry = Telemetry::disabled();
            RoundEngine::new(&cells, &honest, filter, options, observer, telemetry)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let dim = engine.x().dim();
    // Every honest agent maintains its own estimate: the leader's is
    // `engine`'s, the rest are the followers'. On a reliable bus these
    // stay bit-identical; on a faulty one they may drift, which is
    // measured.
    let mut perspectives = Perspectives {
        config,
        // One decided-gradient batch per honest perspective, reused across
        // iterations, all handed out by the leader's engine: one pool
        // serves every perspective's aggregation — the perspectives run
        // serially, so sharing threads is free — and the run's report
        // profiles them all.
        decided: honest.iter().map(|_| engine.round_batch(n)).collect(),
        slot_of: (0..n)
            .map(|i| honest.iter().position(|&h| h == i))
            .collect(),
        cells,
        relays: vec![Relay::Faithful; n],
        plans: &plans,
        followers,
        trees,
        tables: EigTables::default(),
        wire: vec![0.0; (rows + 1) * dim],
        dim,
        handles: vec![0; rows + 1],
        bus,
        enforce_lockstep,
    };
    perspectives.serve(n, config.f(), &mut engine)?;
    // Only an observer *halt* skips the followers' last step (the protocol
    // stops mid-round there by design); on the natural final round they
    // still aggregate — no update follows — so a filter failure in any
    // honest agent's decided multiset surfaces.
    if engine.counters.rounds > options.iterations {
        perspectives.step_followers(options.iterations)?;
    }

    let followers = &perspectives.followers;
    let estimates = || {
        std::iter::once(&engine)
            .chain(followers)
            .map(RoundEngine::x)
    };
    let final_spread = estimates()
        .enumerate()
        .flat_map(|(p, a)| estimates().skip(p + 1).map(move |b| a.dist(b)))
        .fold(0.0f64, f64::max);

    for batch in perspectives.decided.iter_mut() {
        engine.absorb(batch);
    }
    let net = perspectives.bus.metrics();
    engine.counters.eig_messages = net.sent as usize;
    let mut outcome = engine.finish(net)?;
    outcome.final_spread = final_spread;
    Ok(outcome)
}

/// The peer-to-peer row source: every honest agent's perspective on the
/// run, the leader's served. A round is the followers catching up on the
/// previous one, then `n` EIG broadcasts of the gradients every agent
/// computes at its own estimate; its rows are the leader's decided
/// multiset — one row per sender, so the budget is always the full `f`.
struct Perspectives<'a, B> {
    config: SystemConfig,
    cells: Vec<AgentCell>,
    /// Each agent's plan over wire rows; honest agents' are
    /// [`EquivocationPlan::Honest`].
    plans: &'a [EquivocationPlan<usize>],
    /// Each agent's slot in `honest`: 0 for the leader, `k` for
    /// `followers[k − 1]`, none for a faulty agent.
    slot_of: Vec<Option<usize>>,
    /// The honest agents after the leader, each stepping its own engine.
    followers: Vec<RoundEngine<'a>>,
    /// Each slot's decided multiset, rows in sender (agent-id) order —
    /// the server drivers' order.
    decided: Vec<GradientBatch>,
    /// Each sender's EIG tree, and the tables every broadcast works in.
    trees: Vec<EigTree>,
    tables: EigTables,
    /// The round's wire values, `dim` per row: the value each agent sends
    /// (row = agent id), the negation of each splitting agent's (its
    /// plan's `high` row), and a zero row last — what a process decides
    /// for a sender it heard nothing from. Every value a round puts on the
    /// wire is one of these rows.
    wire: Vec<f64>,
    dim: usize,
    /// Each wire row's handle: the first row with equal bits, so equal
    /// handles mean bit-equal values.
    handles: Vec<u32>,
    /// Each agent's plan over this round's handles.
    relays: Vec<Relay<'a>>,
    bus: &'a mut B,
    enforce_lockstep: bool,
}

impl<B> Perspectives<'_, B> {
    /// Every follower's server step at `t` over its own decided multiset.
    /// Unobserved, a follower halts on the final round only — with the
    /// leader, whose step at `t` came first, so the observer saw the round
    /// *before* any estimate moved.
    fn step_followers(&mut self, t: usize) -> Result<(), RuntimeError> {
        let f = self.config.f();
        for (follower, decided) in self.followers.iter_mut().zip(self.decided.iter().skip(1)) {
            let flow = follower.step(t, decided, f)?;
            let last = t == follower.options().iterations;
            debug_assert_eq!(flow.is_halt(), last, "followers halt with the leader");
        }
        Ok(())
    }

    /// Completes the round's wire table once the agents have written their
    /// rows: the splitting agents' negations (sign-bit flips, so exact),
    /// every row's handle, and every agent's relay over the handles.
    fn encode_wire(&mut self) {
        let dim = self.dim;
        for plan in self.plans {
            let EquivocationPlan::Split { low, high, .. } = *plan else {
                continue;
            };
            // `high` is a negation row, past every agent's row `low`.
            let Some((sent, rest)) = self.wire.split_at_mut_checked(high * dim) else {
                continue;
            };
            let value = sent.chunks_exact(dim).nth(low).unwrap_or_default();
            let negation = rest.chunks_exact_mut(dim).next().unwrap_or_default();
            for (slot, &x) in negation.iter_mut().zip(value) {
                *slot = -x;
            }
        }
        let rows = self.wire.chunks_exact(dim);
        for (row, handle) in rows.clone().zip(self.handles.iter_mut()) {
            let first = rows.clone().position(|other| same_bits(other, row));
            // At most `2n + 1` rows.
            *handle = first.unwrap_or_default() as u32;
        }
        let handles = &self.handles;
        for (relay, plan) in self.relays.iter_mut().zip(self.plans) {
            *relay = Relay::new(plan, |&row| handles.get(row).copied().unwrap_or_default());
        }
    }
}

/// `a` and `b` hold the same bits — the equality EIG decides by.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl<B: MessageBus<EigMessage>> RowSource for Perspectives<'_, B> {
    type Error = RuntimeError;

    fn round_rows(
        &mut self,
        t: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<&GradientBatch, RuntimeError> {
        // The leader did not halt at `t − 1`: every other honest agent
        // filters and updates locally too, and on a reliable network its
        // estimate must then match the leader's bit for bit.
        if let Some(previous) = t.checked_sub(1) {
            self.step_followers(previous)?;
            let leader = engine.x();
            let apart = |f: &RoundEngine<'_>| !f.x().approx_eq(leader, 0.0);
            if self.enforce_lockstep && self.followers.iter().any(apart) {
                return Err(RuntimeError::LockstepViolation {
                    iteration: previous,
                });
            }
        }
        let n = self.cells.len();
        self.bus.begin_iteration(t);

        // Each honest agent broadcasts the gradient at its own estimate;
        // a faulty agent forges from the leader's estimate (the historical
        // behaviour) and its plan layers any net fault over the forged
        // value. Each writes straight into its wire row.
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        let rows = self.wire.chunks_exact_mut(self.dim);
        for ((cell, slot), row) in self.cells.iter_mut().zip(&self.slot_of).zip(rows) {
            let follower = slot.and_then(|slot| self.followers.get(slot.checked_sub(1)?));
            let at = follower.map_or(engine.x(), RoundEngine::x);
            cell.reply_into(t, at, HonestGradients::Hidden, row);
        }
        self.encode_wire();
        engine.telemetry.end(fill_span);

        // One broadcast instance per agent; every process records the
        // decided gradient multiset — straight into its reused batch.
        let net_span = engine.telemetry.begin(Phase::NetDelivery);
        for batch in self.decided.iter_mut() {
            batch.reset_rows(n);
        }
        let default = self.handles.last().copied().unwrap_or_default();
        for (sender, tree) in self.trees.iter().enumerate() {
            let value = self.handles.get(sender).copied().unwrap_or(default);
            tree.broadcast(&self.relays, value, default, &mut self.tables, self.bus);
            engine.counters.eig_broadcasts += 1;
            for (&handle, slot) in self.tables.decisions().iter().zip(&self.slot_of) {
                let Some(batch) = slot.and_then(|slot| self.decided.get_mut(slot)) else {
                    continue;
                };
                let decided = self.wire.chunks_exact(self.dim).nth(handle as usize);
                let row = batch.row_mut(sender);
                for (out, &x) in row.iter_mut().zip(decided.unwrap_or_default()) {
                    *out = x;
                }
            }
        }
        if let Some(now) = self.bus.virtual_time() {
            engine.telemetry.set_virtual_ns(now);
        }
        engine.telemetry.end(net_span);
        self.decided
            .first()
            .ok_or_else(|| RuntimeError::Config("peer-to-peer DGD needs an honest agent".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Launch;
    use abft_attacks::{GradientReverse, LittleIsEnough};
    use abft_core::SystemConfig;
    use abft_dgd::RoundWorkspace;
    use abft_filters::{Cge, Cwtm};
    use abft_problems::RegressionProblem;

    fn paper_options(iterations: usize) -> (RegressionProblem, RunOptions) {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let options = RunOptions::paper_defaults_with_iterations(x_h, iterations);
        (problem, options)
    }

    #[test]
    fn fault_free_p2p_matches_server_based() {
        let (problem, options) = paper_options(60);
        let p2p = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                &options,
            )
            .unwrap();
        let mut workspace = RoundWorkspace::new();
        let server = DgdTask::new(*problem.config(), problem.costs())
            .run_dense(Launch::InProcess(&mut workspace), &Cge::new(), &options)
            .unwrap()
            .run;
        assert!(p2p
            .run
            .final_estimate
            .approx_eq(&server.final_estimate, 0.0));
        assert_eq!(p2p.run.trace.records(), server.trace.records());
        // n broadcasts per round, 61 rounds.
        assert_eq!(p2p.counters.eig_broadcasts, 6 * 61);
        // On the reliable bus every transmission is delivered, and the
        // honest agents end in perfect lockstep.
        assert_eq!(p2p.counters.net.delivered, p2p.counters.net.sent);
        assert_eq!(p2p.final_spread, 0.0);
    }

    #[test]
    fn consistent_byzantine_p2p_matches_server_based() {
        // A consistently-lying Byzantine agent is indistinguishable from the
        // server-based run with the same strategy.
        let (problem, options) = paper_options(60);
        let p2p = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                &options,
            )
            .unwrap();
        let mut workspace = RoundWorkspace::new();
        let server = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            .run_dense(Launch::InProcess(&mut workspace), &Cge::new(), &options)
            .unwrap()
            .run;
        assert!(p2p
            .run
            .final_estimate
            .approx_eq(&server.final_estimate, 0.0));
    }

    #[test]
    fn equivocating_byzantine_cannot_break_lockstep() {
        let (problem, options) = paper_options(40);
        let p2p = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()))
            // split v / −v between network halves
            .run_dense(
                Launch::PeerToPeer { equivocate: true },
                &Cwtm::new(),
                &options,
            )
            .unwrap();
        // Lockstep held (no LockstepViolation) and convergence survived.
        assert!(
            p2p.run.final_distance() < 0.2,
            "distance = {}",
            p2p.run.final_distance()
        );
        assert_eq!(p2p.final_spread, 0.0);
    }

    #[test]
    fn sharded_aggregation_matches_serial_p2p() {
        // The shared pool only changes *where* each honest perspective's
        // rows are summed, never the per-row operation order — traces are
        // bit-identical to the serial path.
        let (problem, options) = paper_options(40);
        let run = |threads: usize| {
            let options = options.clone().with_aggregation_threads(threads);
            DgdTask::new(*problem.config(), problem.costs())
                .byzantine(0, Box::new(GradientReverse::new()))
                .run_dense(
                    Launch::PeerToPeer { equivocate: false },
                    &Cge::new(),
                    &options,
                )
                .unwrap()
        };
        let serial = run(1);
        let sharded = run(4);
        assert_eq!(serial.run.trace.records(), sharded.run.trace.records());
        assert!(serial
            .run
            .final_estimate
            .approx_eq(&sharded.run.final_estimate, 0.0));
    }

    #[test]
    fn rejects_invalid_configurations() {
        let (problem, options) = paper_options(5);
        // n = 6, f = 2 violates 3f < n.
        let bad = SystemConfig::new(6, 2).unwrap();
        assert!(DgdTask::new(bad, problem.costs())
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                &options
            )
            .is_err());
        // Omniscient strategy.
        assert!(DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(LittleIsEnough::new(1.0)))
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                &options
            )
            .is_err());
        // Crash schedules are a server-architecture concept.
        assert!(DgdTask::new(*problem.config(), problem.costs())
            .crash(2, 10)
            .run_dense(
                Launch::PeerToPeer { equivocate: false },
                &Cge::new(),
                &options
            )
            .is_err());
    }

    #[test]
    fn net_fault_assignments_are_validated() {
        let (problem, options) = paper_options(5);
        let run = |net_faults: &[(usize, NetFault)]| {
            let task = DgdTask::new(*problem.config(), problem.costs());
            let mut bus = PerfectBus::new(task.config().n());
            let link = P2pLink {
                equivocate: false,
                net_faults,
                enforce_lockstep: true,
            };
            execute_on(
                task,
                &Cge::new(),
                &options,
                &mut bus,
                link,
                &mut abft_core::observe::NullObserver,
            )
        };
        // Out-of-range agent.
        assert!(run(&[(9, NetFault::EquivocateSplit { boundary: 3 })]).is_err());
        // Out-of-range victim.
        assert!(run(&[(0, NetFault::SelectiveSend(vec![11]))]).is_err());
        // Out-of-range equivocation boundary (would silently degenerate).
        assert!(run(&[(0, NetFault::EquivocateSplit { boundary: 30 })]).is_err());
        // Two net-faulty agents blow the f = 1 budget.
        assert!(run(&[
            (0, NetFault::EquivocateSplit { boundary: 3 }),
            (1, NetFault::EquivocateSplit { boundary: 3 }),
        ])
        .is_err());
    }

    #[test]
    fn per_link_equivocation_on_reliable_bus_keeps_lockstep() {
        // A net-level equivocator on a *reliable* bus is exactly the
        // legacy `equivocate` mode with a custom boundary: EIG contains it.
        let (problem, options) = paper_options(40);
        let task = DgdTask::new(*problem.config(), problem.costs())
            .byzantine(0, Box::new(GradientReverse::new()));
        let mut bus = PerfectBus::new(task.config().n());
        let faults = [(0, NetFault::EquivocateSplit { boundary: 2 })];
        let link = P2pLink {
            equivocate: false,
            net_faults: &faults,
            enforce_lockstep: true,
        };
        let outcome = execute_on(
            task,
            &Cwtm::new(),
            &options,
            &mut bus,
            link,
            &mut abft_core::observe::NullObserver,
        )
        .unwrap();
        assert_eq!(outcome.final_spread, 0.0);
        assert!(
            outcome.run.summary.final_distance() < 0.2,
            "distance = {}",
            outcome.run.summary.final_distance()
        );
    }

    #[test]
    fn selective_sender_on_reliable_bus_keeps_lockstep() {
        let (problem, options) = paper_options(40);
        let task = DgdTask::new(*problem.config(), problem.costs());
        let mut bus = PerfectBus::new(task.config().n());
        // Agent 0 never sends to agents 1 and 2 (and forges nothing).
        let faults = [(0, NetFault::SelectiveSend(vec![1, 2]))];
        let link = P2pLink {
            equivocate: false,
            net_faults: &faults,
            enforce_lockstep: true,
        };
        let outcome = execute_on(
            task,
            &Cge::new(),
            &options,
            &mut bus,
            link,
            &mut abft_core::observe::NullObserver,
        )
        .unwrap();
        assert_eq!(outcome.final_spread, 0.0, "EIG absorbs selective sending");
        assert!(outcome.run.summary.final_distance() < 0.2);
    }
}
