//! The declarative [`Scenario`] spec and its builder.

use crate::error::ScenarioError;
use abft_attacks::{attack_by_name, ByzantineStrategy};
use abft_core::validate::{self, FaultBudget};
use abft_core::SystemConfig;
use abft_dgd::RunOptions;
use abft_filters::{by_name, GradientFilter};
use abft_net::NetFault;
use abft_problems::{RegressionProblem, SharedCost};
use std::sync::Arc;

/// Produces a fresh, independently-seeded strategy instance per run, so one
/// scenario can be executed on several backends (or several times) with
/// bit-identical behaviour.
type AttackFactory = Arc<dyn Fn() -> Box<dyn ByzantineStrategy> + Send + Sync>;

/// What a scenario records while it runs.
///
/// Recording is pure observation: the estimate trajectory is bit-identical
/// across all modes (pinned by the observation tests). What changes is the
/// cost — [`Recording::Full`] pays the per-round honest-cost pass and grows
/// a dense in-memory trace with `T`; [`Recording::SummaryOnly`] pays
/// neither, computing the full record once at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recording {
    /// Record every round — the historical dense trace
    /// (`RunReport::trace` is `Some`, with `rounds` records).
    #[default]
    Full,
    /// Record iterations `0, k, 2k, …` only. The records present are
    /// bit-identical to the dense trace's records at those iterations.
    Every(usize),
    /// Record nothing per round (`RunReport::trace` is `None`); only the
    /// always-present `RunSummary` is produced. Zero per-round loss/φ cost
    /// evaluations, zero allocations that scale with `T`.
    SummaryOnly,
}

/// When a scenario stops before its iteration budget.
///
/// Halting is deterministic: the triggering series is bit-identical across
/// backends and aggregation thread counts, so the halt round is too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HaltRule {
    /// Stop once the distance `‖x_t − reference‖` has stayed at or below
    /// `radius + slack` for `window` consecutive rounds — the streaming
    /// form of the paper's "settles inside the ball" guarantees
    /// (`abft_dgd::convergence::settles_within`).
    Converged {
        /// The ball radius (normally the theorem's `D*` or measured `ε`).
        radius: f64,
        /// Numerical tolerance added to the radius.
        slack: f64,
        /// Consecutive in-ball rounds required before halting (≥ 1).
        window: usize,
    },
}

/// One agent's fault behaviour inside a scenario.
#[derive(Clone)]
pub(crate) enum FaultKind {
    /// The agent reports forged gradients built by `factory`.
    Attack {
        /// Display name (registry name or caller-supplied label).
        name: String,
        factory: AttackFactory,
    },
    /// The agent behaves honestly and then goes silent at `at_iteration`.
    Crash { at_iteration: usize },
}

/// A fault assignment: which agent, and what it does.
#[derive(Clone)]
pub(crate) struct FaultSpec {
    pub(crate) agent: usize,
    pub(crate) kind: FaultKind,
}

/// A complete, validated description of one Byzantine-resilient DGD
/// experiment: `n` agents with their costs, `f` tolerated faults, concrete
/// fault behaviours, a gradient filter, and the run options (`x0`, `T`,
/// step schedule, projection set, reference point).
///
/// A `Scenario` is runtime-agnostic: hand the same value to any
/// [`Backend`](crate::Backend) — in-process, event-loop server, or
/// peer-to-peer — and it produces one [`RunReport`](crate::RunReport) with
/// the identical trace (asserted by the cross-backend equivalence tests).
/// Scenarios are cheap to clone (costs and filters are shared behind
/// `Arc`s) and `Send + Sync`, so suites fan them out across worker threads.
///
/// # Example
///
/// ```
/// use abft_dgd::RunOptions;
/// use abft_problems::RegressionProblem;
/// use abft_scenario::{Backend, InProcess, Scenario};
///
/// # fn main() -> Result<(), abft_scenario::ScenarioError> {
/// let problem = RegressionProblem::paper_instance();
/// let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).expect("full rank");
/// let scenario = Scenario::builder()
///     .problem(&problem)
///     .faults(1)
///     .attack(0, "gradient-reverse")
///     .filter("cge")
///     .options(RunOptions::paper_defaults_with_iterations(x_h.clone(), 100))
///     .build()?;
/// let report = InProcess.run(&scenario)?;
/// assert!(report.final_distance() < 0.089); // within the paper's eps
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Scenario {
    pub(crate) label: String,
    pub(crate) config: SystemConfig,
    pub(crate) costs: Vec<SharedCost>,
    pub(crate) faults: Vec<FaultSpec>,
    pub(crate) net_faults: Vec<(usize, NetFault)>,
    pub(crate) filter: Arc<dyn GradientFilter>,
    pub(crate) options: RunOptions,
    pub(crate) recording: Recording,
    pub(crate) halt: Option<HaltRule>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .field("config", &self.config)
            .field("filter", &self.filter.name())
            .field("faults", &self.fault_summary())
            .field("iterations", &self.options.iterations)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Starts an empty builder.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// A human-readable label (defaults to `"<filter>+<faults>"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The `(n, f)` system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The agents' true cost functions, in agent-id order.
    pub fn costs(&self) -> &[SharedCost] {
        &self.costs
    }

    /// The gradient filter this scenario aggregates with.
    pub fn filter(&self) -> &dyn GradientFilter {
        self.filter.as_ref()
    }

    /// The run options (`x0`, iteration count, schedule, projection,
    /// reference point).
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Indices of the truly honest agents (no attack, no crash schedule,
    /// no network-level fault).
    pub fn honest_agents(&self) -> Vec<usize> {
        (0..self.config.n())
            .filter(|&i| {
                self.faults.iter().all(|fault| fault.agent != i)
                    && self.net_faults.iter().all(|(agent, _)| *agent != i)
            })
            .collect()
    }

    /// The network-level Byzantine behaviours, in assignment order. Only
    /// the `Simulated` backend executes these; the other backends reject
    /// scenarios that carry any.
    pub fn net_faults(&self) -> &[(usize, NetFault)] {
        &self.net_faults
    }

    /// What this scenario records per round (default [`Recording::Full`]).
    pub fn recording(&self) -> Recording {
        self.recording
    }

    /// The early-stop rule, if any.
    pub fn halt_rule(&self) -> Option<HaltRule> {
        self.halt
    }

    /// Materializes fresh Byzantine strategy instances, in assignment order.
    pub(crate) fn byzantine_assignments(&self) -> Vec<(usize, Box<dyn ByzantineStrategy>)> {
        self.faults
            .iter()
            .filter_map(|fault| match &fault.kind {
                FaultKind::Attack { factory, .. } => Some((fault.agent, factory())),
                FaultKind::Crash { .. } => None,
            })
            .collect()
    }

    /// The crash schedule, in assignment order.
    pub(crate) fn crash_assignments(&self) -> Vec<(usize, usize)> {
        self.faults
            .iter()
            .filter_map(|fault| match fault.kind {
                FaultKind::Crash { at_iteration } => Some((fault.agent, at_iteration)),
                FaultKind::Attack { .. } => None,
            })
            .collect()
    }

    /// A short description of the fault plan, e.g. `"gradient-reverse@0"`,
    /// `"zero@0+selective[1,2]@0"`, or `"fault-free"`.
    pub fn fault_summary(&self) -> String {
        if self.faults.is_empty() && self.net_faults.is_empty() {
            return "fault-free".to_string();
        }
        self.faults
            .iter()
            .map(|fault| match &fault.kind {
                FaultKind::Attack { name, .. } => format!("{name}@{}", fault.agent),
                FaultKind::Crash { at_iteration } => {
                    format!("crash(t={at_iteration})@{}", fault.agent)
                }
            })
            .chain(
                self.net_faults
                    .iter()
                    .map(|(agent, fault)| format!("{}@{agent}", fault.summary())),
            )
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Anything that can supply the agents' cost functions to a builder.
///
/// Implemented for plain cost vectors and for [`RegressionProblem`], so
/// `builder().problem(&problem)` and `builder().problem(costs)` both read
/// naturally.
pub trait IntoCosts {
    /// The costs, in agent-id order.
    fn into_costs(self) -> Vec<SharedCost>;
}

impl IntoCosts for Vec<SharedCost> {
    fn into_costs(self) -> Vec<SharedCost> {
        self
    }
}

impl IntoCosts for &RegressionProblem {
    fn into_costs(self) -> Vec<SharedCost> {
        self.costs()
    }
}

/// A pending (not yet validated) fault entry.
#[derive(Clone)]
enum PendingFault {
    Named {
        name: String,
        seed: u64,
    },
    Custom {
        name: String,
        factory: AttackFactory,
    },
    Crash {
        at_iteration: usize,
    },
}

/// Builder for [`Scenario`]; finalize with [`ScenarioBuilder::build`].
///
/// The builder is `Clone`, which is how grids are expressed: clone a
/// template, override the filter/attack per cell, build each cell
/// (see [`ScenarioSuite::grid`](crate::ScenarioSuite::grid)).
///
/// All setters are infallible; every structural rule — cost dimensions,
/// the Lemma-1 bound on `(n, f)`, the fault budget, registry name
/// resolution, option dimensions — is checked once in `build`.
#[derive(Clone, Default)]
pub struct ScenarioBuilder {
    label: Option<String>,
    costs: Vec<SharedCost>,
    f: usize,
    faults: Vec<(usize, PendingFault)>,
    net_faults: Vec<(usize, NetFault)>,
    filter: Option<String>,
    options: Option<RunOptions>,
    staleness_ns: Option<u64>,
    recording: Recording,
    halt: Option<HaltRule>,
}

impl ScenarioBuilder {
    /// Sets the agents' cost functions (`n` is inferred from their count).
    #[must_use]
    pub fn problem(mut self, costs: impl IntoCosts) -> Self {
        self.costs = costs.into_costs();
        self
    }

    /// Sets the fault-tolerance parameter `f` (defaults to 0).
    #[must_use]
    pub fn faults(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Marks `agent` Byzantine with the registry attack `name`
    /// (case-insensitive; see [`abft_attacks::attack_by_name`]), seeded
    /// with the default seed 0.
    #[must_use]
    pub fn attack(self, agent: usize, name: impl Into<String>) -> Self {
        self.attack_seeded(agent, name, 0)
    }

    /// [`ScenarioBuilder::attack`] with an explicit seed for the attack's
    /// internal randomness.
    #[must_use]
    pub fn attack_seeded(mut self, agent: usize, name: impl Into<String>, seed: u64) -> Self {
        self.faults.push((
            agent,
            PendingFault::Named {
                name: name.into(),
                seed,
            },
        ));
        self
    }

    /// Marks `agent` Byzantine with a custom strategy. The factory is
    /// invoked once per run so repeated executions (and different
    /// backends) observe identical fresh strategy state.
    #[must_use]
    pub fn attack_with(
        mut self,
        agent: usize,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn ByzantineStrategy> + Send + Sync + 'static,
    ) -> Self {
        self.faults.push((
            agent,
            PendingFault::Custom {
                name: name.into(),
                factory: Arc::new(factory),
            },
        ));
        self
    }

    /// Schedules `agent` to crash (stop replying) at `at_iteration`.
    #[must_use]
    pub fn crash(mut self, agent: usize, at_iteration: usize) -> Self {
        self.faults
            .push((agent, PendingFault::Crash { at_iteration }));
        self
    }

    /// Gives `agent` a network-level Byzantine behaviour (selective
    /// sending or per-link equivocation), layered on any attack already
    /// assigned to it. Net faults make the agent Byzantine — a net-faulty
    /// agent with no attack still consumes fault budget — and only the
    /// `Simulated` backend executes them.
    #[must_use]
    pub fn net_fault(mut self, agent: usize, fault: NetFault) -> Self {
        self.net_faults.push((agent, fault));
        self
    }

    /// Selects the gradient filter by registry name (case-insensitive; see
    /// [`abft_filters::by_name`]).
    #[must_use]
    pub fn filter(mut self, name: impl Into<String>) -> Self {
        self.filter = Some(name.into());
        self
    }

    /// Sets the run options.
    #[must_use]
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Bounds the scenario's staleness: the asynchronous simulated-server
    /// backend only aggregates gradient rows younger than `tau_ns` of
    /// virtual time at each aggregation step ([`u64::MAX`] means
    /// unbounded). Equivalent to setting
    /// [`RunOptions::staleness_ns`](abft_dgd::RunOptions::staleness_ns) on
    /// the options directly. Scenarios carrying a staleness bound only run
    /// on the asynchronous backend — every round-lockstep backend rejects
    /// them, exactly as it rejects network-level faults it cannot execute.
    #[must_use]
    pub fn staleness(mut self, tau_ns: u64) -> Self {
        self.staleness_ns = Some(tau_ns);
        self
    }

    /// Selects what the run records per round (default
    /// [`Recording::Full`]): dense, every-`k` subsampled, or summary-only.
    /// Pure observation — the estimate trajectory is identical in every
    /// mode.
    #[must_use]
    pub fn record(mut self, recording: Recording) -> Self {
        self.recording = recording;
        self
    }

    /// Installs an early-stop rule: the run halts as soon as the rule
    /// fires (deterministically — same round on every backend and at any
    /// aggregation thread count), recording the halt round and reason in
    /// the report's `RunSummary`.
    #[must_use]
    pub fn halt(mut self, rule: HaltRule) -> Self {
        self.halt = Some(rule);
        self
    }

    /// Overrides the auto-generated label.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Validates the spec and produces an immutable [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::MissingProblem`] /
    /// [`ScenarioError::MissingFilter`] / [`ScenarioError::MissingOptions`]
    /// for an incomplete spec; [`ScenarioError::Core`] when `(n, f)`
    /// violates Lemma 1; [`ScenarioError::Validation`] for cost/option
    /// dimension problems or fault-budget violations; and
    /// [`ScenarioError::Filter`] / [`ScenarioError::Attack`] when a
    /// registry name does not resolve (the error lists the valid names).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if self.costs.is_empty() {
            return Err(ScenarioError::MissingProblem);
        }
        let config = SystemConfig::new(self.costs.len(), self.f)?;
        let dim = validate::cost_dimension(config.n(), self.costs.iter().map(|c| c.dim()))?;

        let mut options = self.options.ok_or(ScenarioError::MissingOptions)?;
        if let Some(tau_ns) = self.staleness_ns {
            options.staleness_ns = Some(tau_ns);
        }
        validate::run_point_dimensions(dim, options.x0.dim(), options.reference.dim())?;

        if matches!(self.recording, Recording::Every(0)) {
            return Err(ScenarioError::InvalidObservation(
                "Recording::Every(0) is undefined: the subsampling stride must be ≥ 1".into(),
            ));
        }
        if let Some(HaltRule::Converged {
            radius,
            slack,
            window,
        }) = self.halt
        {
            if !radius.is_finite() || !slack.is_finite() || radius < 0.0 || slack < 0.0 {
                return Err(ScenarioError::InvalidObservation(format!(
                    "HaltRule::Converged needs finite, non-negative radius and slack \
                     (got radius = {radius}, slack = {slack})"
                )));
            }
            if window == 0 {
                return Err(ScenarioError::InvalidObservation(
                    "HaltRule::Converged needs window ≥ 1 (a zero-round window would halt \
                     before observing anything)"
                        .into(),
                ));
            }
        }

        let name = self.filter.ok_or(ScenarioError::MissingFilter)?;
        let filter: Arc<dyn GradientFilter> = Arc::from(by_name(&name)?);

        let mut budget = FaultBudget::new(&config);
        let mut fault_agents = std::collections::BTreeSet::new();
        let mut faults = Vec::with_capacity(self.faults.len());
        for (agent, pending) in self.faults {
            budget.assign(agent)?;
            fault_agents.insert(agent);
            let kind = match pending {
                PendingFault::Named { name, seed } => {
                    // Resolve now so typos fail at build time, then bake the
                    // (name, seed) pair into a factory producing fresh
                    // instances per run.
                    attack_by_name(&name, seed)?;
                    let factory_name = name.clone();
                    FaultKind::Attack {
                        name,
                        factory: Arc::new(move || {
                            // LINT-ALLOW(panic-reach): the same (name, seed) pair resolved
                            // successfully a few lines above, at build time.
                            attack_by_name(&factory_name, seed).expect("validated at build time")
                        }),
                    }
                }
                PendingFault::Custom { name, factory } => FaultKind::Attack { name, factory },
                PendingFault::Crash { at_iteration } => FaultKind::Crash { at_iteration },
            };
            faults.push(FaultSpec { agent, kind });
        }
        // Net faults make their agent Byzantine too; one that already has
        // an attack or crash consumes no extra budget, one without does.
        // Addresses span `n + 1` here because the spec is topology-
        // agnostic: a server-topology victim list may name the server
        // (address `n`); the peer-to-peer runtime re-validates at `n`.
        let validated = abft_net::validate_net_faults(&self.net_faults, config.n(), config.n() + 1)
            .map_err(ScenarioError::Unsupported)?;
        for agent in validated.keys() {
            if !fault_agents.contains(agent) {
                budget.assign(*agent)?;
            }
        }

        let mut scenario = Scenario {
            label: String::new(),
            config,
            costs: self.costs,
            faults,
            net_faults: self.net_faults,
            filter,
            options,
            recording: self.recording,
            halt: self.halt,
        };
        scenario.label = self
            .label
            .unwrap_or_else(|| format!("{}+{}", scenario.filter.name(), scenario.fault_summary()));
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ScenarioError;
    use abft_problems::RegressionProblem;

    fn base() -> (RegressionProblem, RunOptions) {
        let problem = RegressionProblem::paper_instance();
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5]).unwrap();
        let options = RunOptions::paper_defaults_with_iterations(x_h, 10);
        (problem, options)
    }

    #[test]
    fn builds_and_labels_a_full_spec() {
        let (problem, options) = base();
        let scenario = Scenario::builder()
            .problem(&problem)
            .faults(1)
            .attack(0, "gradient-reverse")
            .filter("cge")
            .options(options)
            .build()
            .unwrap();
        assert_eq!(scenario.label(), "cge+gradient-reverse@0");
        assert_eq!(scenario.config().n(), 6);
        assert_eq!(scenario.config().f(), 1);
        assert_eq!(scenario.honest_agents(), vec![1, 2, 3, 4, 5]);
        assert_eq!(scenario.byzantine_assignments().len(), 1);
        assert!(scenario.crash_assignments().is_empty());
    }

    #[test]
    fn missing_pieces_are_reported() {
        let (problem, options) = base();
        assert!(matches!(
            Scenario::builder().build(),
            Err(ScenarioError::MissingProblem)
        ));
        assert!(matches!(
            Scenario::builder().problem(&problem).build(),
            Err(ScenarioError::MissingOptions)
        ));
        assert!(matches!(
            Scenario::builder()
                .problem(&problem)
                .options(options)
                .build(),
            Err(ScenarioError::MissingFilter)
        ));
    }

    #[test]
    fn registry_misses_fail_at_build_time_with_names() {
        let (problem, options) = base();
        let err = Scenario::builder()
            .problem(&problem)
            .faults(1)
            .attack(0, "no-such-attack")
            .filter("cge")
            .options(options.clone())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("gradient-reverse"));

        let err = Scenario::builder()
            .problem(&problem)
            .filter("no-such-filter")
            .options(options)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cwtm"));
    }

    #[test]
    fn fault_budget_and_lemma_1_are_enforced() {
        let (problem, options) = base();
        // Two faults against f = 1.
        let err = Scenario::builder()
            .problem(&problem)
            .faults(1)
            .attack(0, "zero")
            .crash(1, 5)
            .filter("cge")
            .options(options.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Validation(_)));
        // f = 3 of n = 6 violates Lemma 1 outright.
        let err = Scenario::builder()
            .problem(&problem)
            .faults(3)
            .filter("cge")
            .options(options)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Core(_)));
    }

    #[test]
    fn builder_clone_supports_grid_templates() {
        let (problem, options) = base();
        let template = Scenario::builder()
            .problem(&problem)
            .faults(1)
            .options(options);
        let a = template
            .clone()
            .filter("cge")
            .attack(0, "zero")
            .build()
            .unwrap();
        let b = template.filter("cwtm").attack(0, "random").build().unwrap();
        assert_eq!(a.label(), "cge+zero@0");
        assert_eq!(b.label(), "cwtm+random@0");
    }

    #[test]
    fn scenario_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<Scenario>();
    }
}
