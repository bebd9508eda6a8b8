//! The six workloads: what each one runs, and why.
//!
//! A workload is a list of *cells*. A cell is one scenario on one backend
//! (or one `train_distributed` call); one *pass* runs every timed cell
//! once through a single reused [`SuiteWorkspace`], the way a researcher's
//! sweep does. All inputs — regression noise, attack seeds, network seed,
//! async clock seed, dataset and batch seeds — are a pure function of the
//! workload seed; the program under test receives only the generated
//! inputs.

use crate::cost::isotropic_problem;
use abft_core::SystemConfig;
use abft_dgd::{ProjectionSet, RunOptions, StepSchedule};
use abft_filters::GradientFilter;
use abft_linalg::{GradientBatch, Vector};
use abft_ml::{train_distributed, Dataset, DatasetSpec, DsgdConfig, MlFault, Mlp, Model as _};
use abft_net::rng::mix;
use abft_problems::{RegressionProblem, SharedCost};
use abft_scenario::{
    AsyncConfig, Backend, BackendMetrics, InProcess, LinkModel, NetworkModel, PeerToPeer,
    Recording, Scenario, ScenarioBuilder, ScenarioSuite, Simulated, SuiteWorkspace, Threaded,
};
use abft_telemetry::TelemetryConfig;
use std::time::Duration;

/// Every workload name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "paper-grid",
    "message-passing",
    "wide-coordinate",
    "wide-distance",
    "parallel-paths",
    "dsgd-mlp",
];

/// Filters whose one call at the paper's shape costs as much as a whole
/// round of driver work or more (the iterative ones, and the two that
/// compute all pairwise distances); `paper-grid` leaves them to its
/// per-layer replay so the workload stays driver-bound.
pub const PAPER_GRID_SKIPPED: [&str; 5] = ["geomed", "gmom", "bulyan", "krum", "multi-krum"];

/// Full-size runs, or the reduced sizes the unit tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// The input streams one workload seed fans out into, derived with the
/// simulator's own `mix(seed, key)` discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub noise: u64,
    pub attack: u64,
    pub net: u64,
    pub clock: u64,
    pub data: u64,
    pub batch: u64,
    pub model: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        Seeds {
            noise: mix(seed, 1),
            attack: mix(seed, 2),
            net: mix(seed, 3),
            clock: mix(seed, 4),
            data: mix(seed, 5),
            batch: mix(seed, 6),
            model: mix(seed, 7),
        }
    }
}

/// `(n, f, d)` of the gradient batches a workload aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub n: usize,
    pub f: usize,
    pub d: usize,
}

/// One D-SGD training call.
pub struct DsgdJob {
    pub filter: Box<dyn GradientFilter>,
    pub faulty: Vec<usize>,
    pub fault: MlFault,
}

/// What a cell runs.
pub enum Job {
    /// `backends[backend].run_with_workspace(scenario, ..)`.
    Dgd {
        backend: usize,
        scenario: Box<Scenario>,
    },
    /// `train_distributed` from the fixture's initial model.
    Dsgd(DsgdJob),
}

/// One scenario on one backend.
pub struct Cell {
    /// `<backend>:<filter>+<attack>`.
    pub label: String,
    pub filter: String,
    pub job: Job,
    /// Aggregation rounds one run completes (DGD iterations, async steps,
    /// or SGD steps).
    pub rounds: usize,
    /// CGE or CWTM on a lockstep topology: the final error must stay
    /// inside [`Workload::error_bound`].
    pub resilient: bool,
    /// `false` for reference cells that are run once after the timed
    /// section (the serial twin of a parallel cell).
    pub timed: bool,
    /// The cell whose final estimate this one must reproduce bit for bit
    /// (`in-process ≡ threaded` on ideal links, `parallel ≡ serial`).
    pub same_bits_as: Option<usize>,
}

/// The shared data of the D-SGD workload.
pub struct DsgdFixture {
    pub model: Mlp,
    pub shards: Vec<Dataset>,
    pub test: Dataset,
    pub config: DsgdConfig,
}

/// What one run of a cell returned, before the benchmark digests it —
/// kept apart so that hashing a `d = 10⁴` estimate is not timed as part
/// of the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RawOutcome {
    rounds: usize,
    estimate: Vector,
    /// The final loss/distance record was finite.
    record_finite: bool,
    error: f64,
    inner: Duration,
    metrics: BackendMetrics,
}

impl RawOutcome {
    pub fn digest(self) -> Outcome {
        Outcome {
            rounds: self.rounds,
            digest: fnv1a(FNV_OFFSET, self.estimate.as_slice()),
            finite: self.record_finite && !self.estimate.has_non_finite(),
            error: self.error,
            inner: self.inner,
            metrics: self.metrics,
        }
    }
}

/// What one run of a cell produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub rounds: usize,
    /// FNV-1a over the final estimate's bits.
    pub digest: u64,
    pub finite: bool,
    /// `‖x_out − x_H‖`, or `1 − accuracy` for D-SGD.
    pub error: f64,
    /// The program's own `RunReport::elapsed` (zero for D-SGD).
    pub inner: Duration,
    pub metrics: BackendMetrics,
}

pub struct Workload {
    pub name: &'static str,
    pub backends: Vec<Box<dyn Backend>>,
    pub cells: Vec<Cell>,
    /// The stated bound on a resilient cell's final error.
    pub error_bound: f64,
    /// How the bound was derived, for the printed report.
    pub bound_note: String,
    pub shape: Shape,
    /// The problem the per-layer replays rebuild rounds and scenario
    /// variants from (`None` for D-SGD, whose gradients come from the
    /// model), and the attack seed its cells were built with.
    pub problem: Option<Problem>,
    pub attack_seed: u64,
    /// The problem and variant the fleet-dispatch delta of a traced run
    /// uses (`parallel-paths` only; see [`parallel_paths`]).
    pub fleet_probe: Option<(Problem, Variant)>,
    pub dsgd: Option<DsgdFixture>,
    /// Worker threads the workload's parallel cells use (1 = none do).
    pub threads: usize,
}

/// FNV-1a over the bit patterns of `values`, chained from `state`.
pub fn fnv1a(state: u64, values: &[f64]) -> u64 {
    let mut hash = state;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Workload {
    /// Runs cell `index` once.
    ///
    /// # Errors
    ///
    /// The program's own error, rendered — counted as a failed scenario.
    pub fn run_cell(
        &self,
        index: usize,
        workspace: &mut SuiteWorkspace,
    ) -> Result<RawOutcome, String> {
        let cell = self.cells.get(index).ok_or("cell index out of range")?;
        match &cell.job {
            Job::Dgd { backend, scenario } => {
                let backend = self.backends.get(*backend).ok_or("backend out of range")?;
                let report = backend
                    .run_with_workspace(scenario, workspace)
                    .map_err(|e| e.to_string())?;
                // The asynchronous server counts aggregation steps, the
                // lockstep drivers rounds; both include the final record
                // round, which aggregates like any other.
                let rounds = report.metrics.async_steps.max(report.metrics.rounds);
                Ok(RawOutcome {
                    rounds,
                    record_finite: report.final_distance().is_finite(),
                    error: report.final_distance(),
                    inner: report.elapsed,
                    metrics: report.metrics,
                    estimate: report.final_estimate,
                })
            }
            Job::Dsgd(job) => {
                let fixture = self.dsgd.as_ref().ok_or("D-SGD cell without a fixture")?;
                let mut model = fixture.model.clone();
                let records = train_distributed(
                    &mut model,
                    &fixture.shards,
                    &job.faulty,
                    job.fault,
                    job.filter.as_ref(),
                    &fixture.test,
                    &fixture.config,
                )
                .map_err(|e| e.to_string())?;
                let last = records.last().ok_or("training produced no record")?;
                Ok(RawOutcome {
                    rounds: fixture.config.iterations + 1,
                    estimate: model.params(),
                    record_finite: last.loss.is_finite(),
                    error: 1.0 - last.accuracy,
                    inner: Duration::ZERO,
                    metrics: BackendMetrics::default(),
                })
            }
        }
    }

    /// Indices of the cells one timed pass runs.
    pub fn timed_cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, cell)| cell.timed)
            .map(|(i, _)| i)
    }
}

/// Registered attacks a message-passing backend can run (the omniscient
/// ones need same-round visibility only the in-process driver grants).
pub fn observable_attacks() -> Vec<&'static str> {
    abft_attacks::attack_names()
        .iter()
        .copied()
        .filter(|name| {
            abft_attacks::attack_by_name(name, 0).is_ok_and(|attack| !attack.is_omniscient())
        })
        .collect()
}

/// Run options that ignore the `ABFT_*` process environment: the
/// benchmark sets every knob it measures explicitly.
fn options(x0: Vector, reference: Vector, schedule: StepSchedule, variant: Variant) -> RunOptions {
    let dim = x0.dim();
    RunOptions {
        x0,
        iterations: variant.iterations,
        schedule,
        projection: if dim == 2 {
            ProjectionSet::paper()
        } else {
            ProjectionSet::centered_box(-1000.0, 1000.0)
        },
        reference,
        aggregation_threads: variant.threads.aggregation,
        fleet_workers: variant.threads.fleet,
        telemetry: variant.telemetry,
        staleness_ns: variant.staleness_ns,
    }
}

/// The two thread axes of a run; [`Threads::SERIAL`] everywhere except
/// `parallel-paths`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    pub aggregation: usize,
    pub fleet: usize,
}

impl Threads {
    pub const SERIAL: Threads = Threads {
        aggregation: 1,
        fleet: 1,
    };
}

/// Everything about a scenario that is not the problem, the filter or
/// the attack: the axes the per-layer deltas vary one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub iterations: usize,
    pub recording: Recording,
    pub threads: Threads,
    pub telemetry: TelemetryConfig,
    /// A staleness bound, which only the asynchronous backend accepts.
    pub staleness_ns: Option<u64>,
}

impl Variant {
    pub fn new(iterations: usize, recording: Recording) -> Self {
        Variant {
            iterations,
            recording,
            threads: Threads::SERIAL,
            telemetry: TelemetryConfig::Off,
            staleness_ns: None,
        }
    }

    #[must_use]
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }
}

/// A generated problem: what scenarios are built from.
#[derive(Clone)]
pub enum Problem {
    Paper(PaperProblem),
    Wide(WideProblem),
}

impl Problem {
    pub fn costs(&self) -> Vec<SharedCost> {
        match self {
            Problem::Paper(paper) => paper.problem.costs(),
            Problem::Wide(wide) => wide.costs.clone(),
        }
    }

    /// The estimate runs start from.
    pub fn x0(&self) -> Vector {
        match self {
            Problem::Paper(_) => PaperProblem::x0(),
            Problem::Wide(wide) => wide.x0(),
        }
    }

    /// The builder of the cell `filter` × `attack` under `variant`,
    /// complete except for `build()`.
    ///
    /// # Errors
    ///
    /// An unknown filter name.
    pub fn builder(
        &self,
        filter: &str,
        attack: &str,
        attack_seed: u64,
        variant: Variant,
    ) -> Result<ScenarioBuilder, String> {
        match self {
            Problem::Paper(paper) => {
                Ok(paper
                    .template(variant)
                    .filter(filter)
                    .attack_seeded(0, attack, attack_seed))
            }
            Problem::Wide(wide) => wide.builder(filter, attack, attack_seed, variant),
        }
    }

    /// # Errors
    ///
    /// An unknown filter or attack name, or a spec the program rejects.
    pub fn scenario(
        &self,
        filter: &str,
        attack: &str,
        attack_seed: u64,
        variant: Variant,
    ) -> Result<Scenario, String> {
        self.builder(filter, attack, attack_seed, variant)?
            .build()
            .map_err(suite_error)
    }
}

/// The paper's geometry at `n = 9, f = 1`: a 160° fan with σ = 0.02
/// observation noise (so redundancy is approximate), agent 0 Byzantine.
#[derive(Clone)]
pub struct PaperProblem {
    pub problem: RegressionProblem,
    pub x_h: Vector,
}

pub const PAPER_SHAPE: Shape = Shape { n: 9, f: 1, d: 2 };

/// Observation noise of the paper-shape instances.
const PAPER_SIGMA: f64 = 0.02;

/// The resilient cells' bound at the paper's shape. The theorems bound the
/// error by a problem-dependent multiple of ε, and ε scales with the
/// observation noise; 5σ is nearly three times the largest error seen over forty
/// seeds while sizing (0.035), and far below what an unfiltered mean ends at under the
/// same attacks.
const PAPER_ERROR_BOUND: f64 = 5.0 * PAPER_SIGMA;
const PAPER_BOUND_NOTE: &str = "5 x observation noise sigma";

impl PaperProblem {
    pub fn generate(noise_seed: u64) -> Result<Self, String> {
        let config = SystemConfig::new(PAPER_SHAPE.n, PAPER_SHAPE.f).map_err(|e| e.to_string())?;
        let problem = RegressionProblem::fan(config, 160.0, PAPER_SIGMA, noise_seed)
            .map_err(|e| e.to_string())?;
        let honest: Vec<usize> = (PAPER_SHAPE.f..PAPER_SHAPE.n).collect();
        let x_h = problem
            .subset_minimizer(&honest)
            .map_err(|e| e.to_string())?;
        Ok(PaperProblem { problem, x_h })
    }

    /// The paper's Section-5 starting point.
    pub fn x0() -> Vector {
        Vector::from(vec![-0.0085, -0.5643])
    }

    /// A grid template with the Section-5 run options (`x_0`,
    /// `η_t = 1.5/(t+1)`, `W = [−1000, 1000]²`).
    pub fn template(&self, variant: Variant) -> ScenarioBuilder {
        Scenario::builder()
            .problem(&self.problem)
            .faults(PAPER_SHAPE.f)
            .options(options(
                Self::x0(),
                self.x_h.clone(),
                StepSchedule::paper(),
                variant,
            ))
            .record(variant.recording)
    }
}

/// The learning-side shape: `n = 40, f = 4, d = 10⁴`.
pub const WIDE_SHAPE: Shape = Shape {
    n: 40,
    f: 4,
    d: 10_000,
};
const WIDE_SIGMA: f64 = 0.1;

/// The wide problem: isotropic costs around `x* = 1`, agents `0..f`
/// Byzantine.
#[derive(Clone)]
pub struct WideProblem {
    pub shape: Shape,
    pub costs: Vec<SharedCost>,
    pub x_h: Vector,
}

impl WideProblem {
    pub fn generate(shape: Shape, noise_seed: u64) -> Self {
        let honest = shape.f..shape.n;
        let (costs, x_h) = isotropic_problem(shape.n, shape.d, WIDE_SIGMA, honest, noise_seed);
        WideProblem { shape, costs, x_h }
    }

    /// Runs start at `x* = 1`: the regime the paper's asymptotic bound
    /// speaks about. A filter that lets an attack through is pushed out of
    /// the ball within a round; one that does not stays inside it.
    pub fn x0(&self) -> Vector {
        Vector::ones(self.shape.d)
    }

    /// The distance from `x*` to one agent's own minimizer, `σ√d`: a
    /// resilient filter's output must end closer to `x_H` than that.
    pub fn error_bound(&self) -> f64 {
        WIDE_SIGMA * (self.shape.d as f64).sqrt()
    }

    /// A cell of this problem: every agent in `0..f` runs `attack`.
    ///
    /// The step is `1 / gain` with `gain = ‖Filter(g, …, g)‖ / ‖g‖`
    /// measured on the filter itself, so filters that sum the surviving
    /// gradients (CGE) and filters that average them take the same step:
    /// on these quadratic costs one update lands at the filter's fixed
    /// point, and the runs can be as short as the kernels are slow.
    ///
    /// # Errors
    ///
    /// An unknown filter name.
    pub fn builder(
        &self,
        filter: &str,
        attack: &str,
        attack_seed: u64,
        variant: Variant,
    ) -> Result<ScenarioBuilder, String> {
        let instance = abft_filters::by_name(filter).map_err(|e| e.to_string())?;
        let gain = filter_gain(instance.as_ref(), self.shape);
        let mut builder = Scenario::builder()
            .problem(self.costs.clone())
            .faults(self.shape.f)
            .filter(filter)
            .options(options(
                self.x0(),
                self.x_h.clone(),
                StepSchedule::Constant(1.0 / gain),
                variant,
            ))
            .record(variant.recording);
        for agent in 0..self.shape.f {
            builder = builder.attack_seeded(agent, attack, mix(attack_seed, agent as u64));
        }
        Ok(builder)
    }
}

/// `‖Filter(g, …, g)‖ / ‖g‖` on `n` identical rows: `n − f` for a filter
/// that sums what it keeps, 1 for one that averages. Falls back to 1 when
/// the filter rejects the shape or returns nothing usable.
pub fn filter_gain(filter: &dyn GradientFilter, shape: Shape) -> f64 {
    const PROBE_DIM: usize = 8;
    let row = [1.0; PROBE_DIM];
    let mut batch = GradientBatch::with_capacity(shape.n, PROBE_DIM);
    for _ in 0..shape.n {
        batch.push_row(&row);
    }
    let mut out = Vector::zeros(PROBE_DIM);
    match filter.aggregate_into(&batch, shape.f, &mut out) {
        Ok(()) => {
            let gain = out.norm() / (PROBE_DIM as f64).sqrt();
            if gain.is_finite() && gain > 0.0 {
                gain
            } else {
                1.0
            }
        }
        Err(_) => 1.0,
    }
}

fn is_resilient_filter(filter: &str) -> bool {
    matches!(filter, "cge" | "cwtm")
}

fn suite_error(e: abft_scenario::ScenarioError) -> String {
    e.to_string()
}

/// One timed cell running `scenario` on `backends[backend]`.
fn dgd_cell(backend: usize, label: String, scenario: Scenario, resilient: bool) -> Cell {
    Cell {
        label,
        filter: scenario.filter().name().to_string(),
        rounds: scenario.options().iterations + 1,
        resilient,
        job: Job::Dgd {
            backend,
            scenario: Box::new(scenario),
        },
        timed: true,
        same_bits_as: None,
    }
}

/// Appends one cell per scenario of `suite`, all on `backend`.
fn push_suite(
    cells: &mut Vec<Cell>,
    backend: usize,
    backend_label: &str,
    suite: &ScenarioSuite,
    resilient_topology: bool,
) {
    for scenario in suite.scenarios() {
        let resilient = resilient_topology && is_resilient_filter(scenario.filter().name());
        cells.push(dgd_cell(
            backend,
            format!("{backend_label}:{}", scenario.label()),
            scenario.clone(),
            resilient,
        ));
    }
}

/// Builds workload `name` from `seed`.
///
/// `threads` is the worker-thread count parallel cells may use, already
/// clamped by the caller to `min(2, nproc)`.
///
/// # Errors
///
/// An unknown name, or a generation/validation failure from the program.
pub fn build(name: &str, seed: u64, size: Size, threads: usize) -> Result<Workload, String> {
    let seeds = Seeds::derive(seed);
    let mut workload = match name {
        "paper-grid" => paper_grid(seeds, size),
        "message-passing" => message_passing(seeds, size),
        "wide-coordinate" => wide(
            "wide-coordinate",
            seeds,
            // `mean` and `sign-majority` are left to the per-layer replay:
            // at under 2 ns an element a round of either is mostly
            // gradient fill, and the workload exists to be ≥ 85% kernel.
            &["cwtm", "cwmed"],
            size.pick(5, 2),
            size,
        ),
        "wide-distance" => wide(
            "wide-distance",
            seeds,
            // The row-distance family. `gmom` is a fixed skip, not a
            // failure: at its registry configuration (3 buckets) it
            // rejects `f = 4`.
            &[
                "cge",
                "cge-avg",
                "norm-clipping",
                "centered-clipping",
                "faba",
                "geomed",
                "krum",
                "multi-krum",
                "bulyan",
            ],
            // One Bulyan call at this shape costs as much as 14 Krum
            // calls, so a scenario is one update plus the record round.
            1,
            size,
        ),
        "parallel-paths" => parallel_paths(seeds, size, threads),
        "dsgd-mlp" => dsgd_mlp(seeds, size),
        other => Err(format!(
            "unknown workload '{other}'; workloads: {}",
            WORKLOADS.join(", ")
        )),
    }?;
    if size == Size::Smoke {
        // A smoke run is a handful of rounds: it checks the plumbing, and
        // is over long before any filter has converged.
        workload.error_bound = f64::INFINITY;
        workload.bound_note = "not applied at smoke size".to_string();
    }
    Ok(workload)
}

/// Rounds a `paper-grid` scenario runs (the paper's `T`).
fn paper_iterations(size: Size) -> usize {
    size.pick(500, 20)
}

/// 1. The paper's geometry, the nine cheap single-pass filters × every attack on
///    `in-process`, × observable attacks on `threaded`, dense recording.
fn paper_grid(seeds: Seeds, size: Size) -> Result<Workload, String> {
    let paper = PaperProblem::generate(seeds.noise)?;
    let template = paper.template(Variant::new(paper_iterations(size), Recording::Full));
    let filters: Vec<&str> = abft_filters::filter_names()
        .iter()
        .copied()
        .filter(|name| !PAPER_GRID_SKIPPED.contains(name))
        .collect();
    let observable = observable_attacks();

    let full = ScenarioSuite::grid_seeded(
        &template,
        0,
        &filters,
        abft_attacks::attack_names(),
        seeds.attack,
    )
    .map_err(suite_error)?;
    let wire = ScenarioSuite::grid_seeded(&template, 0, &filters, &observable, seeds.attack)
        .map_err(suite_error)?;

    let mut cells = Vec::new();
    push_suite(&mut cells, 0, "in-process", &full, true);
    let threaded_from = cells.len();
    push_suite(&mut cells, 1, "threaded", &wire, true);
    // Ideal links: the threaded run of a scenario must reproduce the
    // in-process run's final estimate bit for bit.
    let (in_process, threaded) = cells.split_at_mut(threaded_from);
    for cell in threaded {
        let scenario_label = cell.label.strip_prefix("threaded:");
        cell.same_bits_as = in_process
            .iter()
            .position(|twin| twin.label.strip_prefix("in-process:") == scenario_label);
    }

    Ok(Workload {
        name: "paper-grid",
        backends: vec![Box::new(InProcess), Box::new(Threaded)],
        cells,
        error_bound: PAPER_ERROR_BOUND,
        bound_note: PAPER_BOUND_NOTE.to_string(),
        shape: PAPER_SHAPE,
        problem: Some(Problem::Paper(paper)),
        attack_seed: seeds.attack,
        fleet_probe: None,
        dsgd: None,
        threads: 1,
    })
}

/// The lossy link of `message-passing`: 0.2 ms delay, a 0.1 ms reorder
/// window and 5% drops under the default 1 ms round deadline.
pub fn lossy_link() -> LinkModel {
    LinkModel::ideal()
        .with_delay_ns(200_000)
        .with_reorder_ns(100_000)
        .with_drop(0.05)
}

/// The async server of `message-passing`: jittered agent clocks.
fn async_config(clock_seed: u64) -> AsyncConfig {
    AsyncConfig::new()
        .with_compute_jitter_ns(200_000)
        .with_clock_seed(clock_seed)
}

/// The async cells' staleness bound τ: two step intervals.
pub const ASYNC_STALENESS_NS: u64 = 2 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS;

/// 2. Same problem, {cge, cwtm} × observable attacks over the four
///    message-moving paths.
fn message_passing(seeds: Seeds, size: Size) -> Result<Workload, String> {
    let paper = PaperProblem::generate(seeds.noise)?;
    // One EIG round moves ~n³ messages where a server round moves 2n, so
    // the peer-to-peer cells run a fifth of the rounds: every path then
    // contributes a comparable share of a pass.
    let p2p_iterations = size.pick(60, 4);
    let filters = ["cge", "cwtm"];
    let observable = observable_attacks();
    let grid = |variant: Variant| {
        ScenarioSuite::grid_seeded(
            &paper.template(variant),
            0,
            &filters,
            &observable,
            seeds.attack,
        )
        .map_err(suite_error)
    };
    let server = Variant::new(size.pick(300, 10), Recording::Full);
    let lockstep = grid(server)?;
    let stale = grid(Variant {
        staleness_ns: Some(ASYNC_STALENESS_NS),
        ..server
    })?;
    let p2p = grid(Variant::new(p2p_iterations, Recording::Full))?;

    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(Simulated::server(
            NetworkModel::seeded(seeds.net).with_default_link(lossy_link()),
        )),
        Box::new(Simulated::async_server(
            NetworkModel::seeded(seeds.net).with_default_link(LinkModel::ideal().with_drop(0.05)),
            async_config(seeds.clock),
        )),
        Box::new(Simulated::peer_to_peer(NetworkModel::ideal())),
        Box::new(PeerToPeer::default()),
    ];
    let mut cells = Vec::new();
    // Lossy and asynchronous cells lose honest gradients by design, so
    // only the two reliable peer-to-peer paths carry the distance bound.
    push_suite(&mut cells, 0, "sim-server-lossy", &lockstep, false);
    push_suite(&mut cells, 1, "sim-async", &stale, false);
    let sim_p2p_from = cells.len();
    push_suite(&mut cells, 2, "sim-p2p", &p2p, true);
    let p2p_from = cells.len();
    push_suite(&mut cells, 3, "p2p", &p2p, true);
    // The simulator over ideal links is the EIG runtime bit for bit.
    for (offset, cell) in cells.iter_mut().skip(p2p_from).enumerate() {
        cell.same_bits_as = Some(sim_p2p_from + offset);
    }

    Ok(Workload {
        name: "message-passing",
        backends,
        cells,
        error_bound: PAPER_ERROR_BOUND,
        bound_note: PAPER_BOUND_NOTE.to_string(),
        shape: PAPER_SHAPE,
        problem: Some(Problem::Paper(paper)),
        attack_seed: seeds.attack,
        fleet_probe: None,
        dsgd: None,
        threads: 1,
    })
}

/// The wide workloads' attacks: both one pass over the row, so the
/// filter kernels stay what a round spends its time in. (`random` draws
/// `f·d` Gaussians a round, which at `d = 10⁴` costs as much as CWMed;
/// the seeded attack is exercised at the paper's shape instead.)
const WIDE_ATTACKS: [&str; 2] = ["gradient-reverse", "scaled-reverse"];

fn wide_shape(size: Size) -> Shape {
    match size {
        Size::Full => WIDE_SHAPE,
        Size::Smoke => Shape {
            d: 64,
            ..WIDE_SHAPE
        },
    }
}

/// 3 and 4. The learning-side shape on `in-process`, serial aggregation:
///    the column order-statistics family, or the row-distance family.
fn wide(
    name: &'static str,
    seeds: Seeds,
    filters: &[&str],
    iterations: usize,
    size: Size,
) -> Result<Workload, String> {
    let problem = WideProblem::generate(wide_shape(size), seeds.noise);
    let variant = Variant::new(iterations, Recording::SummaryOnly);
    let mut cells = Vec::new();
    for filter in filters {
        for attack in WIDE_ATTACKS {
            let scenario = problem
                .builder(filter, attack, seeds.attack, variant)?
                .build()
                .map_err(suite_error)?;
            cells.push(dgd_cell(
                0,
                format!("in-process:{filter}+{attack}"),
                scenario,
                is_resilient_filter(filter),
            ));
        }
    }
    Ok(Workload {
        name,
        backends: vec![Box::new(InProcess)],
        cells,
        error_bound: problem.error_bound(),
        bound_note: "sigma * sqrt(d), one agent's own distance from x*".to_string(),
        shape: problem.shape,
        problem: Some(Problem::Wide(problem)),
        attack_seed: seeds.attack,
        fleet_probe: None,
        dsgd: None,
        threads: 1,
    })
}

/// 5. The only workload with helper threads: sharded aggregation and the
///    multi-worker fleet at the wide shape, each checked bit for bit
///    against its serial twin.
///
/// The fleet at the *paper's* shape is deliberately not a timed cell. Its
/// per-round handoff is bistable on a two-core machine — about 4 µs a
/// round while both threads stay in their spin phase, about 40 µs once
/// they start parking, and a run stays in whichever mode it fell into —
/// so a cell of it reads 2 ms or 20 ms from one run to the next and no
/// end-to-end number built on it can hold a bound. The traced run still
/// measures it, as `runtime.fleet_dispatch_us_per_round`.
fn parallel_paths(seeds: Seeds, size: Size, threads: usize) -> Result<Workload, String> {
    let wide_problem = WideProblem::generate(wide_shape(size), seeds.noise);
    let (shape, error_bound) = (wide_problem.shape, wide_problem.error_bound());
    let wide = Problem::Wide(wide_problem);
    let paper = Problem::Paper(PaperProblem::generate(seeds.noise)?);
    let wide_variant = Variant::new(size.pick(3, 1), Recording::SummaryOnly);
    let paper_variant = Variant::new(paper_iterations(size), Recording::Full);
    let sharded = Threads {
        aggregation: threads,
        fleet: 1,
    };
    let fleet = Threads {
        aggregation: 1,
        fleet: threads,
    };

    // (label, backend, problem, filter, base variant, thread axes, bound)
    let mut plans: Vec<(String, usize, &Problem, &str, Variant, Threads, bool)> = Vec::new();
    for filter in ["cwtm", "cge", "krum", "geomed"] {
        plans.push((
            format!("in-process:wide:{filter}"),
            0,
            &wide,
            filter,
            wide_variant,
            sharded,
            is_resilient_filter(filter),
        ));
    }
    for filter in ["cwtm", "cge"] {
        plans.push((
            format!("threaded:wide:{filter}"),
            1,
            &wide,
            filter,
            wide_variant,
            fleet,
            true,
        ));
    }

    let mut cells = Vec::new();
    for (label, backend, problem, filter, variant, axes, resilient) in plans {
        let attack = "gradient-reverse";
        let parallel =
            problem.scenario(filter, attack, seeds.attack, variant.with_threads(axes))?;
        let serial = problem.scenario(filter, attack, seeds.attack, variant)?;
        let parallel_index = cells.len();
        cells.push(dgd_cell(
            backend,
            format!("{label}+{attack}"),
            parallel,
            resilient,
        ));
        // The serial reference always runs in-process, so a fleet cell
        // is checked against the other driver as well.
        cells.push(Cell {
            timed: false,
            same_bits_as: Some(parallel_index),
            ..dgd_cell(
                0,
                format!("{label}+{attack}:serial-reference"),
                serial,
                false,
            )
        });
    }

    Ok(Workload {
        name: "parallel-paths",
        backends: vec![Box::new(InProcess), Box::new(Threaded)],
        cells,
        error_bound,
        bound_note: "sigma * sqrt(d) on the wide cells".to_string(),
        shape,
        problem: Some(wide),
        attack_seed: seeds.attack,
        fleet_probe: Some((paper, paper_variant)),
        dsgd: None,
        threads,
    })
}

/// 6. Robust D-SGD: the sixth round loop, filters at mid-`d` with
///    stochastic gradients.
fn dsgd_mlp(seeds: Seeds, size: Size) -> Result<Workload, String> {
    let spec = DatasetSpec {
        train: size.pick(2000, 200),
        test: size.pick(500, 50),
        ..DatasetSpec::synthetic_mnist()
    };
    let (train, test) = spec.generate(seeds.data);
    let shards = train.shard(10, seeds.data).map_err(|e| e.to_string())?;
    let model = Mlp::new(&[spec.dim, 32, 10], seeds.model).map_err(|e| e.to_string())?;
    let iterations = size.pick(40, 2);
    let config = DsgdConfig {
        batch_size: size.pick(32, 16),
        learning_rate_milli: 1000,
        iterations,
        eval_every: iterations,
        seed: seeds.batch,
        aggregation_threads: 1,
        telemetry: TelemetryConfig::Off,
    };
    let faulty = vec![0, 1, 2];
    let shape = Shape {
        n: shards.len(),
        f: faulty.len(),
        d: model.param_dim(),
    };
    let mut cells = vec![Cell {
        label: "dsgd:mean+fault-free".to_string(),
        filter: "mean".to_string(),
        rounds: iterations + 1,
        resilient: false,
        job: Job::Dsgd(DsgdJob {
            filter: abft_filters::by_name("mean").map_err(|e| e.to_string())?,
            faulty: Vec::new(),
            fault: MlFault::None,
        }),
        timed: true,
        same_bits_as: None,
    }];
    for filter in ["cge", "cwtm"] {
        for (fault_name, fault) in [
            ("label-flip", MlFault::LabelFlip),
            ("gradient-reverse", MlFault::GradientReverse),
        ] {
            cells.push(Cell {
                label: format!("dsgd:{filter}+{fault_name}"),
                filter: filter.to_string(),
                rounds: iterations + 1,
                resilient: true,
                job: Job::Dsgd(DsgdJob {
                    filter: abft_filters::by_name(filter).map_err(|e| e.to_string())?,
                    faulty: faulty.clone(),
                    fault,
                }),
                timed: true,
                same_bits_as: None,
            });
        }
    }
    Ok(Workload {
        name: "dsgd-mlp",
        backends: Vec::new(),
        cells,
        error_bound: 0.5,
        bound_note: "1 - accuracy under f = 3 of 10 faulty agents".to_string(),
        shape,
        problem: None,
        attack_seed: seeds.attack,
        fleet_probe: None,
        dsgd: Some(DsgdFixture {
            model,
            shards,
            test,
            config,
        }),
        threads: 1,
    })
}
