//! Per-layer metrics of a traced run.
//!
//! Layer = crate name. Every timing here is the benchmark's own clock
//! around a public call into that layer:
//!
//! * a **replay** rebuilds one round's inputs at the workload's shape and
//!   times the call in a loop, reporting the quiet value over chunks of
//!   calls; every replay is taken twice, seconds apart, and the quieter
//!   reading kept;
//! * a **delta** (`Δ`) runs the same scenario under two configurations,
//!   alternating them, and reports the difference of the quiet run times.
//!
//! *Quiet* is [`stats::quiet`]: the first decile, what the work costs when
//! no other tenant of the host interferes.
//!
//! A metric whose layer the workload bypasses is reported as 0 — that is
//! the workload design (one workload exercises a mechanism, another
//! bypasses it), and `pool/fleet dispatch is 0 outside parallel-paths`
//! is one of the things a reader checks.

use crate::report::Metric;
use crate::run::{self, LoopResult, Prepared};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, lossy_link, Job, Problem, Shape, Threads, Variant, Workload};
use abft_attacks::AttackContext;
use abft_core::SystemConfig;
use abft_linalg::rng::seeded_rng;
use abft_linalg::{GradientBatch, Vector, WorkerPool};
use abft_ml::Model as _;
use abft_runtime::{eig_broadcast, EquivocationPlan};
use abft_scenario::{
    AsyncConfig, Backend, InProcess, NetworkModel, Recording, RunReport, Scenario, Simulated,
    SuiteWorkspace, Threaded,
};
use abft_telemetry::{TelemetryConfig, TelemetryReport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The per-layer metrics and what else the replays learned.
pub struct LayerResult {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (filters that reject the shape, …).
    pub notes: String,
    /// Scenario runs the deltas made, and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
}

/// The filter and attack every delta runs: cheap, resilient, registered
/// on every backend.
const PROBE_FILTER: &str = "cge";
const PROBE_ATTACK: &str = "gradient-reverse";

/// The fixed per-layer metrics, `(name, unit)`; `filters.<name>.ns_per_elem`
/// for every registered filter is spliced in after `attacks.*`.
const BEFORE_FILTERS: [(&str, &str); 2] = [
    ("problems.gradient_ns_per_elem", "ns"),
    ("attacks.corrupt_ns_per_elem", "ns"),
];
const AFTER_FILTERS: [(&str, &str); 39] = [
    ("linalg.memcpy_ns_per_elem", "ns"),
    ("linalg.colsum_ns_per_elem", "ns"),
    ("linalg.pool_dispatch_us", "us"),
    ("dgd.round_self_ns", "ns"),
    ("dgd.aggregate_share", "ratio"),
    ("dgd.rounds", "count"),
    ("core.observe_ns_per_round", "ns"),
    ("runtime.threaded_over_inprocess_ns_per_round", "ns"),
    ("runtime.fleet_dispatch_us_per_round", "us"),
    ("runtime.fleet_cold_load_us", "us"),
    ("runtime.fleet_reuse_hits", "count"),
    ("runtime.simserver_over_inprocess_ns_per_msg", "ns"),
    ("runtime.async_over_simserver_ns_per_step", "ns"),
    ("net.lossy_over_ideal_ns_per_msg", "ns"),
    ("runtime.eig_broadcast_us", "us"),
    ("runtime.p2p_ns_per_round", "ns"),
    ("runtime.message_share", "ratio"),
    ("net.msgs_sent", "count"),
    ("net.msgs_dropped", "count"),
    ("net.msgs_late", "count"),
    ("runtime.stragglers", "count"),
    ("runtime.stale_rows", "count"),
    ("net.schedule_digest", "count"),
    ("scenario.build_us", "us"),
    ("scenario.suite_overhead_us", "us"),
    ("scenario.resilience_err", "distance"),
    ("scenario.failed_frac", "ratio"),
    ("telemetry.share.gradient-fill", "ratio"),
    ("telemetry.share.aggregate", "ratio"),
    ("telemetry.share.observe", "ratio"),
    ("telemetry.share.pool-dispatch", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
    ("ml.gradient_ms_per_round", "ms"),
    ("ml.aggregate_ms_per_round", "ms"),
    ("ml.eval_ms", "ms"),
    ("ml.round_self_ms", "ms"),
    ("ml.gradient_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("digest.final_estimates", "count"),
];

fn filter_metric(filter: &str) -> String {
    format!("filters.{filter}.ns_per_elem")
}

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|(n, u)| ((*n).to_string(), *u)).collect()
    };
    let mut all = fixed(&BEFORE_FILTERS);
    all.extend(
        abft_filters::filter_names()
            .iter()
            .map(|name| (filter_metric(name), "ns")),
    );
    all.extend(fixed(&AFTER_FILTERS));
    all
}

/// Quiet nanoseconds per call of `work`, measured in chunks of calls
/// (each chunk ≥ ~50 µs, so the clock's own cost vanishes) for at least
/// `budget` and at least two chunks.
fn time_calls(budget: Duration, mut work: impl FnMut()) -> f64 {
    let started = Instant::now();
    work();
    let first = started.elapsed().as_nanos().max(1);
    let per_chunk = (50_000 / first).clamp(1, 1 << 16) as usize;
    let mut chunks = Vec::new();
    while chunks.len() < 2 || started.elapsed() < budget {
        let chunk_started = Instant::now();
        for _ in 0..per_chunk {
            work();
        }
        chunks.push(chunk_started.elapsed().as_nanos() as f64 / per_chunk as f64);
    }
    stats::quiet(&chunks)
}

/// Working state of one traced run's per-layer measurements.
struct Bench<'a> {
    workload: &'a Workload,
    tracer: &'a mut Tracer,
    values: BTreeMap<String, f64>,
    notes: String,
    replay_budget: Duration,
    delta_budget: Duration,
    attempted: usize,
    failed: usize,
    /// Nanoseconds per call of every replay so far, by key: a replay taken
    /// again keeps the quieter reading.
    replays: BTreeMap<String, f64>,
    /// `corrupt_into` cost of the probe's own attack (the mean over all
    /// attacks is the reported metric; the round-self delta needs this one).
    probe_corrupt_ns_per_elem: f64,
    /// The probe scenario's in-process, summary-only nanoseconds per round.
    probe_round_ns: f64,
}

impl Bench<'_> {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// A replay: `work` timed in a loop inside one span. The replays run
    /// twice, seconds apart (see [`measure`]); `key` names this one, and
    /// the quieter of its readings is returned.
    fn replay(&mut self, key: &str, span: &'static str, work: impl FnMut()) -> f64 {
        let id = self.tracer.begin(span, 0);
        let ns = time_calls(self.replay_budget, work);
        self.tracer.end(id);
        let kept = self.replays.entry(key.to_string()).or_insert(ns);
        *kept = kept.min(ns);
        *kept
    }

    /// Quiet run time in nanoseconds of each configuration, alternating
    /// them so drift hits both alike, plus each one's last report.
    fn time_pair(
        &mut self,
        span: &'static str,
        mut a: impl FnMut() -> Result<RunReport, String>,
        mut b: impl FnMut() -> Result<RunReport, String>,
    ) -> Option<((f64, RunReport), (f64, RunReport))> {
        let id = self.tracer.begin(span, 0);
        let started = Instant::now();
        let (mut a_ns, mut b_ns) = (Vec::new(), Vec::new());
        let (mut a_last, mut b_last) = (None, None);
        while a_ns.len() < 3 || started.elapsed() < self.delta_budget {
            for (work, samples, last) in [
                (
                    &mut a as &mut dyn FnMut() -> Result<RunReport, String>,
                    &mut a_ns,
                    &mut a_last,
                ),
                (&mut b, &mut b_ns, &mut b_last),
            ] {
                let run_started = Instant::now();
                let outcome = work();
                samples.push(run_started.elapsed().as_nanos() as f64);
                self.attempted += 1;
                match outcome {
                    Ok(report) => *last = Some(report),
                    Err(error) => {
                        self.failed += 1;
                        let _ = writeln!(self.notes, "  note: {span}: {error}");
                        self.tracer.end(id);
                        return None;
                    }
                }
            }
        }
        self.tracer.end(id);
        Some((
            (stats::quiet(&a_ns), a_last?),
            (stats::quiet(&b_ns), b_last?),
        ))
    }
}

fn run_on<'a>(
    backend: &'a dyn Backend,
    scenario: &'a Scenario,
    workspace: &'a mut SuiteWorkspace,
) -> impl FnMut() -> Result<RunReport, String> + 'a {
    move || {
        backend
            .run_with_workspace(scenario, workspace)
            .map_err(|e| e.to_string())
    }
}

/// One round's batch at the workload's shape: every agent's gradient at
/// `x0`, the first `f` rows reversed (what `gradient-reverse` reports).
fn round_batch(problem: &Problem, shape: Shape, x0: &Vector) -> GradientBatch {
    let mut batch = GradientBatch::with_capacity(shape.n, shape.d);
    batch.reset_rows(shape.n);
    for (i, cost) in problem.costs().iter().enumerate() {
        cost.gradient_into(x0, batch.row_mut(i));
    }
    for i in 0..shape.f {
        for v in batch.row_mut(i) {
            *v = -*v;
        }
    }
    batch
}

/// `problems`, `attacks`, `filters`, `linalg`: replays at the shape.
fn replay_kernels(bench: &mut Bench<'_>, problem: &Problem) {
    let shape = bench.workload.shape;
    let elems = (shape.n * shape.d) as f64;
    let costs = problem.costs();
    let x0 = problem.x0();
    let batch = round_batch(problem, shape, &x0);

    let mut scratch = GradientBatch::with_capacity(shape.n, shape.d);
    scratch.reset_rows(shape.n);
    let ns = bench.replay("gradient", "problems.gradient_into", || {
        for (i, cost) in costs.iter().enumerate() {
            cost.gradient_into(&x0, scratch.row_mut(i));
        }
        std::hint::black_box(scratch.as_flat());
    });
    bench.set("problems.gradient_ns_per_elem", ns / elems);

    // One forged row per call, per registered attack; the mean over
    // attacks is what a grid over all of them pays per element.
    let true_gradient = Vector::new(scratch.row(0).to_vec());
    let honest_rows: Vec<usize> = (shape.f..shape.n).collect();
    let mut forged = vec![0.0; shape.d];
    let mut per_attack = Vec::new();
    for name in abft_attacks::attack_names().iter().copied() {
        let Ok(mut attack) = abft_attacks::attack_by_name(name, bench.workload.attack_seed) else {
            continue;
        };
        let ctx = if attack.is_omniscient() {
            AttackContext::omniscient_rows(0, &true_gradient, &x0, &scratch, &honest_rows)
        } else {
            AttackContext::new(0, &true_gradient, &x0)
        };
        let ns = bench.replay(&format!("attack.{name}"), "attacks.corrupt_into", || {
            attack.corrupt_into(&ctx, &mut forged);
            std::hint::black_box(&forged);
        });
        per_attack.push(ns / shape.d as f64);
        if name == PROBE_ATTACK {
            bench.probe_corrupt_ns_per_elem = ns / shape.d as f64;
        }
    }
    let mean = per_attack.iter().sum::<f64>() / per_attack.len().max(1) as f64;
    bench.set("attacks.corrupt_ns_per_elem", mean);

    let mut out = Vector::zeros(shape.d);
    for name in abft_filters::filter_names() {
        let Ok(filter) = abft_filters::by_name(name) else {
            continue;
        };
        if let Err(error) = filter.aggregate_into(&batch, shape.f, &mut out) {
            let note =
                format!("  note: {name} rejects this shape ({error}); its ns_per_elem is 0\n");
            if !bench.notes.contains(&note) {
                bench.notes.push_str(&note);
            }
            continue;
        }
        let ns = bench.replay(&format!("filter.{name}"), "filters.aggregate_into", || {
            let _ = filter.aggregate_into(&batch, shape.f, &mut out);
            std::hint::black_box(out.as_slice());
        });
        bench.set(&filter_metric(name), ns / elems);
    }

    // The same-run roofline on the same n × d buffer: one copy, and one
    // pass of column sums (what `mean` must at least do).
    let flat = batch.as_flat();
    let mut copy = vec![0.0; flat.len()];
    let ns = bench.replay("memcpy", "linalg.memcpy", || {
        copy.copy_from_slice(flat);
        std::hint::black_box(&copy);
    });
    bench.set("linalg.memcpy_ns_per_elem", ns / elems);
    let mut sums = vec![0.0; shape.d];
    let ns = bench.replay("colsum", "linalg.colsum", || {
        sums.fill(0.0);
        for row in batch.rows_iter() {
            for (acc, v) in sums.iter_mut().zip(row) {
                *acc += v;
            }
        }
        std::hint::black_box(&sums);
    });
    bench.set("linalg.colsum_ns_per_elem", ns / elems);

    if bench.workload.threads > 1 {
        let pool = WorkerPool::new(bench.workload.threads);
        let units = bench.workload.threads;
        let ns = bench.replay("pool", "linalg.pool_run", || pool.run(units, &|_range| {}));
        bench.set("linalg.pool_dispatch_us", ns / 1e3);
    }
}

/// The workload's base variant for delta scenarios.
fn probe_variant(workload: &Workload) -> Option<Variant> {
    workload.cells.iter().find_map(|cell| match &cell.job {
        Job::Dgd { scenario, .. } if cell.timed => Some(Variant::new(
            scenario.options().iterations,
            scenario.recording(),
        )),
        _ => None,
    })
}

/// `dgd`, `core`, `scenario`, `telemetry`: deltas every scenario-based
/// workload takes on the in-process driver.
fn in_process_deltas(bench: &mut Bench<'_>, problem: &Problem, base: Variant) {
    let seed = bench.workload.attack_seed;
    let scenario_of =
        |variant: Variant| problem.scenario(PROBE_FILTER, PROBE_ATTACK, seed, variant);
    let (Ok(full), Ok(summary), Ok(telemetry_on), Ok(plain)) = (
        scenario_of(Variant {
            recording: Recording::Full,
            ..base
        }),
        scenario_of(Variant {
            recording: Recording::SummaryOnly,
            ..base
        }),
        scenario_of(Variant {
            telemetry: TelemetryConfig::On,
            ..base
        }),
        scenario_of(base),
    ) else {
        bench
            .notes
            .push_str("  note: the probe scenario does not build\n");
        return;
    };
    let rounds = (base.iterations + 1) as f64;
    let (mut ws_a, mut ws_b) = (SuiteWorkspace::new(), SuiteWorkspace::new());

    if let Some(((full_ns, _), (summary_ns, _))) = bench.time_pair(
        "core.observe_delta",
        run_on(&InProcess, &full, &mut ws_a),
        run_on(&InProcess, &summary, &mut ws_b),
    ) {
        bench.set("core.observe_ns_per_round", (full_ns - summary_ns) / rounds);
        bench.probe_round_ns = summary_ns / rounds;
    }

    if let Some(((on_ns, _), (off_ns, _))) = bench.time_pair(
        "telemetry.overhead_delta",
        run_on(&InProcess, &telemetry_on, &mut ws_a),
        run_on(&InProcess, &plain, &mut ws_b),
    ) {
        bench.set("telemetry.overhead_frac", (on_ns - off_ns) / off_ns);
    }

    // The program's own phase totals, over one run of every filter the
    // workload times — a cross-check of the replays above.
    let filters: BTreeSet<&str> = bench
        .workload
        .cells
        .iter()
        .filter(|cell| cell.timed)
        .map(|cell| cell.filter.as_str())
        .collect();
    let mut merged: Option<TelemetryReport> = None;
    for filter in filters {
        // Sharded where the workload's cells are, so that `pool-dispatch`
        // shows on `parallel-paths` and nowhere else.
        let variant = Variant {
            telemetry: TelemetryConfig::On,
            ..base.with_threads(Threads {
                aggregation: bench.workload.threads,
                fleet: 1,
            })
        };
        let Ok(scenario) = problem.scenario(filter, PROBE_ATTACK, seed, variant) else {
            continue;
        };
        let id = bench.tracer.begin("telemetry.instrumented_run", 0);
        let report = InProcess.run_with_workspace(&scenario, &mut ws_a);
        bench.tracer.end(id);
        bench.attempted += 1;
        match report {
            Ok(RunReport {
                telemetry: Some(telemetry),
                ..
            }) => match &mut merged {
                Some(acc) => acc.merge(&telemetry),
                None => merged = Some(telemetry),
            },
            Ok(_) => {}
            Err(_) => bench.failed += 1,
        }
    }
    if let Some(report) = merged {
        let round = report.phase_total_ns("round").max(1) as f64;
        for phase in ["gradient-fill", "aggregate", "observe", "pool-dispatch"] {
            bench.set(
                &format!("telemetry.share.{phase}"),
                report.phase_total_ns(phase) as f64 / round,
            );
        }
    }

    let ns = bench.replay("build", "scenario.build", || {
        let built = problem
            .builder(PROBE_FILTER, PROBE_ATTACK, seed, base)
            .and_then(|builder| builder.build().map_err(|e| e.to_string()));
        std::hint::black_box(built.is_ok());
    });
    bench.set("scenario.build_us", ns / 1e3);
}

/// What the replays and the runs say together, once both are in: the round
/// loop's own cost, and aggregation's share of the workload's rounds.
fn replay_shares(bench: &mut Bench<'_>, untraced: &LoopResult) {
    let shape = bench.workload.shape;
    let elems = (shape.n * shape.d) as f64;
    if bench.probe_round_ns > 0.0 {
        // The summary-only run minus the replayed gradient fill, forgeries
        // and aggregation.
        let replayed = bench.get("problems.gradient_ns_per_elem") * elems
            + bench.probe_corrupt_ns_per_elem * (shape.f * shape.d) as f64
            + bench.get(&filter_metric(PROBE_FILTER)) * elems;
        bench.set("dgd.round_self_ns", bench.probe_round_ns - replayed);
    }
    // Replayed filter time over the measured scenario time, across the
    // timed cells at this shape.
    let (mut filter_ns, mut wall_ns) = (0.0, 0.0);
    for (cell, stats) in bench.workload.cells.iter().zip(&untraced.cells) {
        let Job::Dgd { scenario, .. } = &cell.job else {
            continue;
        };
        if !cell.timed || scenario.options().x0.dim() != shape.d {
            continue;
        }
        filter_ns += cell.rounds as f64 * bench.get(&filter_metric(&cell.filter)) * elems;
        wall_ns += stats::quiet(&stats.samples_ms) * 1e6;
    }
    if wall_ns > 0.0 {
        bench.set("dgd.aggregate_share", filter_ns / wall_ns);
    }
}

/// `runtime` deltas of the threaded backend (paper-grid, parallel-paths).
fn threaded_deltas(bench: &mut Bench<'_>, problem: &Problem, base: Variant) {
    let seed = bench.workload.attack_seed;
    let Ok(serial) = problem.scenario(PROBE_FILTER, PROBE_ATTACK, seed, base) else {
        return;
    };
    let rounds = (base.iterations + 1) as f64;
    let (mut ws_a, mut ws_b) = (SuiteWorkspace::new(), SuiteWorkspace::new());

    if let Some(((threaded_ns, _), (in_process_ns, _))) = bench.time_pair(
        "runtime.threaded_delta",
        run_on(&Threaded, &serial, &mut ws_a),
        run_on(&InProcess, &serial, &mut ws_b),
    ) {
        bench.set(
            "runtime.threaded_over_inprocess_ns_per_round",
            (threaded_ns - in_process_ns) / rounds,
        );
    }

    // A fresh workspace builds the fleet (agent cells, batch, workers);
    // a reused one finds it warm.
    let cold = || {
        Threaded
            .run_with_workspace(&serial, &mut SuiteWorkspace::new())
            .map_err(|e| e.to_string())
    };
    if let Some(((cold_ns, _), (warm_ns, _))) = bench.time_pair(
        "runtime.fleet_cold_delta",
        cold,
        run_on(&Threaded, &serial, &mut ws_a),
    ) {
        bench.set("runtime.fleet_cold_load_us", (cold_ns - warm_ns) / 1e3);
    }

    // Fleet dispatch is measured where a round is small enough for the
    // handoff to show: at the paper's shape.
    let threads = bench.workload.threads;
    let Some((problem, base)) = &bench.workload.fleet_probe else {
        return;
    };
    let fleet = Threads {
        aggregation: 1,
        fleet: threads,
    };
    let scenario_of = |variant| problem.scenario(PROBE_FILTER, PROBE_ATTACK, seed, variant);
    let (Ok(single), Ok(multi)) = (scenario_of(*base), scenario_of(base.with_threads(fleet)))
    else {
        return;
    };
    let rounds = (base.iterations + 1) as f64;
    if let Some(((multi_ns, _), (single_ns, _))) = bench.time_pair(
        "runtime.fleet_dispatch_delta",
        run_on(&Threaded, &multi, &mut ws_b),
        run_on(&Threaded, &single, &mut ws_a),
    ) {
        bench.set(
            "runtime.fleet_dispatch_us_per_round",
            (multi_ns - single_ns) / rounds / 1e3,
        );
    }
}

/// `runtime` and `net` deltas of the message-moving backends.
fn message_deltas(bench: &mut Bench<'_>, problem: &Problem, base: Variant, untraced: &LoopResult) {
    let seed = bench.workload.attack_seed;
    let Ok(scenario) = problem.scenario(PROBE_FILTER, PROBE_ATTACK, seed, base) else {
        return;
    };
    let rounds = (base.iterations + 1) as f64;
    let ideal_server = Simulated::server(NetworkModel::ideal());
    let lossy_server =
        Simulated::server(NetworkModel::seeded(seed).with_default_link(lossy_link()));
    let ideal_async = Simulated::async_server(NetworkModel::ideal(), AsyncConfig::new());
    let (mut ws_a, mut ws_b) = (SuiteWorkspace::new(), SuiteWorkspace::new());

    let mut in_process_ns_per_round = 0.0;
    if let Some(((sim_ns, sim), (in_process_ns, _))) = bench.time_pair(
        "runtime.simserver_delta",
        run_on(&ideal_server, &scenario, &mut ws_a),
        run_on(&InProcess, &scenario, &mut ws_b),
    ) {
        in_process_ns_per_round = in_process_ns / rounds;
        bench.set(
            "runtime.simserver_over_inprocess_ns_per_msg",
            (sim_ns - in_process_ns) / sim.metrics.net.sent.max(1) as f64,
        );
    }
    if let Some(((async_ns, asynchronous), (sim_ns, _))) = bench.time_pair(
        "runtime.async_delta",
        run_on(&ideal_async, &scenario, &mut ws_a),
        run_on(&ideal_server, &scenario, &mut ws_b),
    ) {
        bench.set(
            "runtime.async_over_simserver_ns_per_step",
            (async_ns - sim_ns) / asynchronous.metrics.async_steps.max(1) as f64,
        );
    }
    if let Some(((lossy_ns, lossy), (ideal_ns, _))) = bench.time_pair(
        "net.lossy_delta",
        run_on(&lossy_server, &scenario, &mut ws_a),
        run_on(&ideal_server, &scenario, &mut ws_b),
    ) {
        bench.set(
            "net.lossy_over_ideal_ns_per_msg",
            (lossy_ns - ideal_ns) / lossy.metrics.net.sent.max(1) as f64,
        );
    }

    // One EIG broadcast of a d-vector's bits with one consistent liar.
    let shape = bench.workload.shape;
    if let Ok(config) = SystemConfig::new(shape.n, shape.f) {
        let value: Vec<u64> = (0..shape.d as u64)
            .map(|i| (i as f64 + 0.5).to_bits())
            .collect();
        let default = vec![0u64; shape.d];
        let faulty = BTreeMap::from([(0usize, EquivocationPlan::Consistent(default.clone()))]);
        let ns = bench.replay("eig", "runtime.eig_broadcast", || {
            let outcome = eig_broadcast(config, 1, value.clone(), default.clone(), &faulty);
            std::hint::black_box(outcome.is_ok());
        });
        bench.set("runtime.eig_broadcast_us", ns / 1e3);
    }

    let (mut p2p_ns, mut p2p_rounds) = (0.0, 0.0);
    let (mut moved_ns, mut wall_ns) = (0.0, 0.0);
    for (cell, stats) in bench.workload.cells.iter().zip(&untraced.cells) {
        if !cell.timed {
            continue;
        }
        let cell_ns = stats::quiet(&stats.samples_ms) * 1e6;
        if cell.label.starts_with("p2p:") {
            p2p_ns += cell_ns;
            p2p_rounds += cell.rounds as f64;
        }
        // Everything a cell costs beyond the same rounds in-process is
        // message movement: the event heap, per-message allocation,
        // sort-by-sender, EIG relays.
        moved_ns += (cell_ns - cell.rounds as f64 * in_process_ns_per_round).max(0.0);
        wall_ns += cell_ns;
    }
    if p2p_rounds > 0.0 {
        bench.set("runtime.p2p_ns_per_round", p2p_ns / p2p_rounds);
    }
    if wall_ns > 0.0 && in_process_ns_per_round > 0.0 {
        bench.set("runtime.message_share", moved_ns / wall_ns);
    }
}

/// `ml`: replays of one D-SGD round's parts.
fn ml_replays(bench: &mut Bench<'_>, untraced: &LoopResult) {
    let Some(fixture) = &bench.workload.dsgd else {
        return;
    };
    let shape = bench.workload.shape;
    let model = fixture.model.clone();
    let mut rng = seeded_rng(fixture.config.seed);
    let batches: Vec<Vec<usize>> = fixture
        .shards
        .iter()
        .map(|shard| shard.sample_batch(&mut rng, fixture.config.batch_size))
        .collect();
    let mut round = GradientBatch::with_capacity(shape.n, shape.d);
    round.reset_rows(shape.n);
    let ns = bench.replay("ml.gradient", "ml.loss_and_gradient", || {
        for (i, (shard, batch)) in fixture.shards.iter().zip(&batches).enumerate() {
            let loss = model.loss_and_gradient_into(shard, batch, round.row_mut(i));
            std::hint::black_box(loss);
        }
    });
    let gradient_ms = ns / 1e6;
    bench.set("ml.gradient_ms_per_round", gradient_ms);

    // The filters of the timed cells, each with the `f` its cell uses
    // (two cells sharing a filter replay it twice; the later reading stays).
    let mut out = Vector::zeros(shape.d);
    let mut aggregate_ms = Vec::new();
    for cell in &bench.workload.cells {
        let Job::Dsgd(job) = &cell.job else {
            continue;
        };
        let f = job.faulty.len();
        let filter = job.filter.as_ref();
        let batch = &round;
        let ns = bench.replay(
            &format!("ml.{}", cell.label),
            "filters.aggregate_into",
            || {
                let _ = filter.aggregate_into(batch, f, &mut out);
                std::hint::black_box(out.as_slice());
            },
        );
        aggregate_ms.push(ns / 1e6);
        bench.set(
            &filter_metric(&cell.filter),
            ns / (shape.n * shape.d) as f64,
        );
    }
    let aggregate_ms = aggregate_ms.iter().sum::<f64>() / aggregate_ms.len().max(1) as f64;
    bench.set("ml.aggregate_ms_per_round", aggregate_ms);

    let ns = bench.replay("ml.accuracy", "ml.accuracy", || {
        std::hint::black_box(model.accuracy(&fixture.test));
    });
    let eval_ms = ns / 1e6;
    bench.set("ml.eval_ms", eval_ms);

    let scenario_ms = untraced.scenario_p50_ms();
    let rounds = (fixture.config.iterations + 1) as f64;
    // A run evaluates twice (iteration 0 and the final record).
    let round_ms = (scenario_ms - 2.0 * eval_ms) / rounds;
    if round_ms > 0.0 {
        bench.set("ml.round_self_ms", round_ms - gradient_ms - aggregate_ms);
        bench.set("ml.gradient_share", gradient_ms / round_ms);
    }
}

/// Counts that repeat exactly: sums over one pass's runs.
fn pass_counts(bench: &mut Bench<'_>, prepared: &Prepared, traced: &LoopResult) {
    let (mut sent, mut dropped, mut late, mut stragglers, mut stale, mut hits) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut schedule = workloads::FNV_OFFSET;
    for (reference, stats) in prepared.reference.iter().zip(&traced.cells) {
        let Some(Ok(outcome)) = reference else {
            continue;
        };
        let m = &outcome.metrics;
        sent += m.net.sent;
        dropped += m.net.dropped;
        late += m.net.late;
        stragglers += m.stragglers as u64;
        stale += m.stale_rows as u64;
        schedule = workloads::fnv1a(schedule, &[f64::from_bits(m.net.schedule_digest)]);
        hits += stats.last_fleet_reuse_hits as u64;
    }
    bench.set("net.msgs_sent", sent as f64);
    bench.set("net.msgs_dropped", dropped as f64);
    bench.set("net.msgs_late", late as f64);
    bench.set("runtime.stragglers", stragglers as f64);
    bench.set("runtime.stale_rows", stale as f64);
    if sent > 0 {
        bench.set("net.schedule_digest", run::fold48(schedule) as f64);
    }
    bench.set("runtime.fleet_reuse_hits", hits as f64);
    bench.set("dgd.rounds", traced.rounds_per_pass as f64);
}

/// Runs every replay and delta the workload's layers call for.
///
/// `seconds` is the time the replays and deltas may take together; it is
/// split into per-measurement budgets, each with a floor, so very short
/// runs still measure everything once.
pub fn measure(
    prepared: &Prepared,
    untraced: &LoopResult,
    traced: &LoopResult,
    seconds: f64,
    tracer: &mut Tracer,
) -> LayerResult {
    let whole = tracer.begin("benchmark.layers", 0);
    let mut bench = Bench {
        workload: &prepared.workload,
        tracer,
        values: BTreeMap::new(),
        notes: String::new(),
        replay_budget: Duration::from_secs_f64((seconds / 120.0).max(0.01)),
        delta_budget: Duration::from_secs_f64((seconds / 12.0).max(0.02)),
        attempted: 0,
        failed: 0,
        replays: BTreeMap::new(),
        probe_corrupt_ns_per_elem: 0.0,
        probe_round_ns: 0.0,
    };

    if let (Some(problem), Some(base)) = (
        &prepared.workload.problem,
        probe_variant(&prepared.workload),
    ) {
        // The replays run before and after the deltas, seconds apart, so
        // that one busy stretch of the host cannot colour them all.
        replay_kernels(&mut bench, problem);
        in_process_deltas(&mut bench, problem, base);
        match prepared.workload.name {
            "paper-grid" | "parallel-paths" => threaded_deltas(&mut bench, problem, base),
            "message-passing" => message_deltas(&mut bench, problem, base, untraced),
            _ => {}
        }
        replay_kernels(&mut bench, problem);
        replay_shares(&mut bench, untraced);
    }
    ml_replays(&mut bench, untraced);
    ml_replays(&mut bench, untraced);
    pass_counts(&mut bench, prepared, traced);

    let overhead: Vec<f64> = traced
        .cells
        .iter()
        .flat_map(|c| c.overhead_us.iter().copied())
        .collect();
    bench.set("scenario.suite_overhead_us", stats::quiet(&overhead));
    bench.set("scenario.resilience_err", run::resilience_err(prepared));
    let attempted = untraced.attempted() + traced.attempted();
    bench.set(
        "scenario.failed_frac",
        (untraced.failed() + traced.failed()) as f64 / attempted.max(1) as f64,
    );
    let base_rate = untraced.rounds_per_s();
    if base_rate > 0.0 {
        bench.set(
            "trace.overhead_frac",
            1.0 - traced.rounds_per_s() / base_rate,
        );
    }
    bench.set(
        "digest.final_estimates",
        run::digest_final_estimates(prepared) as f64,
    );

    let Bench {
        tracer,
        values,
        notes,
        attempted,
        failed,
        ..
    } = bench;
    tracer.end(whole);
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, unit, value)
        })
        .collect();
    LayerResult {
        metrics,
        notes,
        attempted,
        failed,
    }
}
