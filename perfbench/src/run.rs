//! Set-up, the closed measurement loop, and the correctness checks.
//!
//! Load is a closed loop with one client: the next scenario starts when
//! the last one returns, through one reused [`SuiteWorkspace`]. The loop
//! runs whole passes over the workload's timed cells until the requested
//! time has gone by, so every cell is sampled equally often.

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, fnv1a, Outcome, RawOutcome, Size, Workload, FNV_OFFSET};
use abft_scenario::SuiteWorkspace;
use std::time::{Duration, Instant};

/// A built workload with its workspace warm and every timed cell run once.
pub struct Prepared {
    pub workload: Workload,
    pub workspace: SuiteWorkspace,
    /// The warm-up pass's outcome per cell (`None` for reference cells,
    /// which run after the timed section). Every later run of the cell
    /// must reproduce it exactly.
    pub reference: Vec<Option<Result<Outcome, String>>>,
}

/// Problem generation, scenario building, and one untimed warm-up pass
/// (pool spawn, fleet load, scratch arena fill).
///
/// # Errors
///
/// A workload that cannot be built. A cell that fails in the warm-up is
/// not an error here: it is kept and counted as failed by the loop.
pub fn set_up(
    name: &str,
    seed: u64,
    size: Size,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let whole = tracer.begin("benchmark.set_up", 0);
    let build = tracer.begin("scenario.build_workload", 0);
    let workload = workloads::build(name, seed, size, threads);
    tracer.end(build);
    let workload = workload?;
    let mut workspace = SuiteWorkspace::new();
    let mut reference: Vec<Option<Result<Outcome, String>>> =
        workload.cells.iter().map(|_| None).collect();
    for index in workload.timed_cells() {
        let span = tracer.begin("benchmark.warm_up", index as u32);
        let outcome = workload.run_cell(index, &mut workspace);
        tracer.end(span);
        let outcome = outcome.map(RawOutcome::digest);
        if let Some(slot) = reference.get_mut(index) {
            *slot = Some(outcome);
        }
    }
    tracer.end(whole);
    Ok(Prepared {
        workload,
        workspace,
        reference,
    })
}

/// What the loop learned about one cell.
#[derive(Debug, Clone, Default)]
pub struct CellStats {
    /// Wall time of each run, in milliseconds.
    pub samples_ms: Vec<f64>,
    /// `sample − RunReport::elapsed`: what the scenario layer adds around
    /// the driver, in microseconds. Kept by traced loops only, so that an
    /// untraced run's `peak_rss_mib` carries one number per sample, not two.
    pub overhead_us: Vec<f64>,
    pub failed: usize,
    /// `fleet_reuse_hits` of the cell's latest run (1 once the workspace's
    /// fleet is warm, 0 on backends without one).
    pub last_fleet_reuse_hits: usize,
    /// The first failure's reason, for the printed report.
    pub first_failure: Option<String>,
}

/// Sample slots reserved per timed cell before the loop starts (several
/// times what the fastest workload fills in a run).
const SAMPLES_RESERVED: usize = 4096;

/// Samples a tail window must hold.
pub const TAIL_WINDOW_SAMPLES: usize = 100;

/// [`LoopResult::scenario_tail`]'s value and how it was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub windows: usize,
    pub passes_per_window: usize,
}

/// The result of a measurement loop.
///
/// Every timing it reports is built from [`stats::quiet`] values — what a
/// run costs when no other tenant of the host interferes — because that,
/// not the host's load during the run, is what two commits differ in.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    pub cells: Vec<CellStats>,
    /// Wall time of each whole pass, in seconds.
    pub pass_s: Vec<f64>,
    /// Aggregation rounds one pass completes.
    pub rounds_per_pass: usize,
}

impl LoopResult {
    pub fn attempted(&self) -> usize {
        self.cells.iter().map(|c| c.samples_ms.len()).sum()
    }

    pub fn failed(&self) -> usize {
        self.cells.iter().map(|c| c.failed).sum()
    }

    fn sampled_cells(&self) -> impl Iterator<Item = &CellStats> {
        self.cells.iter().filter(|c| !c.samples_ms.is_empty())
    }

    /// Each sampled cell's quiet run time, in milliseconds.
    fn quiet_ms(&self) -> Vec<f64> {
        self.sampled_cells()
            .map(|c| stats::quiet(&c.samples_ms))
            .collect()
    }

    /// Rounds per second of a quiet pass: the rounds one pass completes
    /// over the sum of its cells' quiet run times (so the benchmark's own
    /// work between two scenarios is not counted as the program's).
    pub fn rounds_per_s(&self) -> f64 {
        let pass_ms: f64 = self.quiet_ms().iter().sum();
        if pass_ms > 0.0 {
            self.rounds_per_pass as f64 / (pass_ms / 1e3)
        } else {
            0.0
        }
    }

    /// The median over cells of each cell's quiet run time: the typical
    /// scenario of the mix, unmoved by which side of a gap between two
    /// cells' clusters a pooled median would fall on.
    pub fn scenario_p50_ms(&self) -> f64 {
        stats::median(&self.quiet_ms())
    }

    /// How much the host added to this run: the sum of the cells' median
    /// run times over the sum of their quiet ones (1.0 on an idle host).
    pub fn interference(&self) -> f64 {
        let median_ms: f64 = self
            .sampled_cells()
            .map(|c| stats::median(&c.samples_ms))
            .sum();
        let quiet_ms: f64 = self.quiet_ms().iter().sum();
        if quiet_ms > 0.0 {
            median_ms / quiet_ms
        } else {
            1.0
        }
    }

    /// Whole passes per tail window: the fewest that give
    /// [`TAIL_WINDOW_SAMPLES`] samples.
    pub fn passes_per_window(&self) -> usize {
        TAIL_WINDOW_SAMPLES.div_ceil(self.sampled_cells().count().max(1))
    }

    /// The tail of the scenario wall times.
    ///
    /// A window of [`LoopResult::passes_per_window`] whole passes slides
    /// over the run one pass at a time; each position's tail is the
    /// highest percentile of its samples that still has ten beyond it, and
    /// the reported value is the quiet one over positions. The percentile
    /// is therefore fixed per workload however long the run is, and the
    /// value is the tail of the run's least disturbed stretch. A run
    /// shorter than one window uses all its samples as one.
    pub fn scenario_tail(&self) -> Option<TailSummary> {
        let passes = self.pass_s.len();
        let per_window = self.passes_per_window().min(passes);
        let mut tails = Vec::with_capacity(passes + 1 - per_window);
        for start in 0..=passes - per_window {
            let pooled: Vec<f64> = self
                .cells
                .iter()
                .filter_map(|c| c.samples_ms.get(start..start + per_window))
                .flatten()
                .copied()
                .collect();
            tails.push(stats::tail(&pooled)?);
        }
        let first = *tails.first()?;
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        Some(TailSummary {
            value: stats::quiet(&values),
            percentile: first.percentile,
            beyond: first.beyond,
            windows: tails.len(),
            passes_per_window: per_window,
        })
    }
}

/// Compares one run of a cell against its warm-up reference and the
/// workload's bound. `None` means the run passed every check.
pub fn check(
    workload: &Workload,
    index: usize,
    outcome: &Result<Outcome, String>,
    reference: Option<&Result<Outcome, String>>,
) -> Option<String> {
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => return Some(format!("error: {error}")),
    };
    if !outcome.finite {
        return Some("non-finite final estimate".to_string());
    }
    let cell = workload.cells.get(index)?;
    if cell.resilient && outcome.error > workload.error_bound {
        return Some(format!(
            "resilient cell outside its bound: {} > {}",
            outcome.error, workload.error_bound
        ));
    }
    if let Some(Ok(reference)) = reference {
        // Same seed, same scenario: the estimate's bits, every message
        // count and the simulator's schedule digest must repeat exactly.
        if reference.digest != outcome.digest
            || repeatable_counts(reference) != repeatable_counts(outcome)
        {
            return Some("run did not reproduce its same-seed reference".to_string());
        }
    }
    None
}

/// The counts of a run that are a pure function of the seed: rounds,
/// every message count, and the simulator's order-sensitive schedule
/// digest. (`fleet_reuse_hits` is left out: it tells a cold fleet from a
/// warm one, which is the workspace's history, not the scenario's.)
pub fn repeatable_counts(outcome: &Outcome) -> [u64; 10] {
    let m = &outcome.metrics;
    [
        outcome.rounds as u64,
        m.net.sent,
        m.net.delivered,
        m.net.dropped,
        m.net.late,
        m.net.schedule_digest,
        m.stragglers as u64,
        m.stale_rows as u64,
        m.eig_broadcasts as u64,
        m.replies_received as u64,
    ]
}

/// Runs whole passes until `seconds` have elapsed (at least one pass).
pub fn measure(prepared: &mut Prepared, seconds: f64, tracer: &mut Tracer) -> LoopResult {
    let Prepared {
        workload,
        workspace,
        reference,
    } = prepared;
    let mut result = LoopResult {
        cells: workload
            .cells
            .iter()
            .map(|cell| CellStats {
                // Reserved, not touched: growing by reallocation would
                // leave freed copies behind in the heap and tie
                // `peak_rss_mib` to the sample count twice over.
                samples_ms: Vec::with_capacity(if cell.timed { SAMPLES_RESERVED } else { 0 }),
                ..CellStats::default()
            })
            .collect(),
        ..LoopResult::default()
    };
    let timed: Vec<usize> = workload.timed_cells().collect();
    result.rounds_per_pass = timed
        .iter()
        .filter_map(|&i| workload.cells.get(i))
        .map(|cell| cell.rounds)
        .sum();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        for &index in &timed {
            let span = tracer.begin("scenario.run", index as u32);
            let run_started = Instant::now();
            let outcome = workload.run_cell(index, workspace);
            let wall = run_started.elapsed();
            tracer.end(span);
            let outcome = outcome.map(RawOutcome::digest);
            let Some(stats) = result.cells.get_mut(index) else {
                continue;
            };
            stats.samples_ms.push(wall.as_secs_f64() * 1e3);
            if let Ok(outcome) = &outcome {
                // D-SGD has no scenario layer around it and reports no
                // inner time.
                if tracer.is_enabled() && !outcome.inner.is_zero() {
                    stats
                        .overhead_us
                        .push(wall.saturating_sub(outcome.inner).as_secs_f64() * 1e6);
                }
                stats.last_fleet_reuse_hits = outcome.metrics.fleet_reuse_hits;
            }
            let reference = reference.get(index).and_then(Option::as_ref);
            if let Some(reason) = check(workload, index, &outcome, reference) {
                stats.failed += 1;
                stats.first_failure.get_or_insert(reason);
            }
        }
        result.pass_s.push(pass_started.elapsed().as_secs_f64());
        if started.elapsed() >= budget {
            break;
        }
    }
    result
}

/// The checks that need a second cell: runs every reference cell once,
/// then compares each `same_bits_as` pair's final-estimate bits. A broken
/// pair fails every sample its timed member produced.
///
/// Returns `(attempted, failed)` for the reference runs themselves.
pub fn verify_pairs(prepared: &mut Prepared, result: &mut LoopResult) -> (usize, usize) {
    let Prepared {
        workload,
        workspace,
        reference,
    } = prepared;
    let mut attempted = 0;
    let mut failed = 0;
    for (index, cell) in workload.cells.iter().enumerate() {
        if cell.timed {
            continue;
        }
        attempted += 1;
        let outcome = workload.run_cell(index, workspace).map(RawOutcome::digest);
        if check(workload, index, &outcome, None).is_some() {
            failed += 1;
        }
        if let Some(slot) = reference.get_mut(index) {
            *slot = Some(outcome);
        }
    }
    let digest_of = |index: usize| match reference.get(index) {
        Some(Some(Ok(outcome))) => Some(outcome.digest),
        _ => None,
    };
    for (index, cell) in workload.cells.iter().enumerate() {
        let Some(twin) = cell.same_bits_as else {
            continue;
        };
        if digest_of(index).is_some() && digest_of(index) == digest_of(twin) {
            continue;
        }
        for member in [index, twin] {
            let Some(stats) = result.cells.get_mut(member) else {
                continue;
            };
            stats.failed = stats.samples_ms.len();
            stats.first_failure.get_or_insert_with(|| {
                format!(
                    "final estimate differs from its twin's bits ({} vs {})",
                    workload.cells.get(index).map_or("?", |c| c.label.as_str()),
                    workload.cells.get(twin).map_or("?", |c| c.label.as_str()),
                )
            });
        }
    }
    (attempted, failed)
}

/// FNV-1a over every cell's reference final-estimate digest, in cell
/// order, folded to 48 bits so it survives a trip through an `f64`.
pub fn digest_final_estimates(prepared: &Prepared) -> u64 {
    let digests: Vec<f64> = prepared
        .reference
        .iter()
        .map(|slot| match slot {
            Some(Ok(outcome)) => f64::from_bits(outcome.digest),
            _ => 0.0,
        })
        .collect();
    fold48(fnv1a(FNV_OFFSET, &digests))
}

/// Folds a 64-bit digest to 48 bits (exactly representable as `f64`).
pub fn fold48(digest: u64) -> u64 {
    (digest ^ (digest >> 48)) & 0xffff_ffff_ffff
}

/// The largest final error among the resilient cells' reference runs.
pub fn resilience_err(prepared: &Prepared) -> f64 {
    prepared
        .workload
        .cells
        .iter()
        .zip(&prepared.reference)
        .filter(|(cell, _)| cell.resilient)
        .filter_map(|(_, slot)| match slot {
            Some(Ok(outcome)) => Some(outcome.error),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// `VmHWM` — the process's peak resident set — in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads the parallel cells may use: two clients' worth of
/// cores, never more than the machine has.
pub fn thread_budget() -> usize {
    parallelism().min(2)
}

/// The machine's available parallelism (1 when it cannot be queried).
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cells, `passes` passes: a fast cluster near 1 ms and a slow one
    /// near 10 ms, each sample nudged by its pass number.
    fn synthetic(passes: usize) -> LoopResult {
        let cell = |base: f64| CellStats {
            samples_ms: (0..passes).map(|p| base + p as f64 * 1e-3).collect(),
            ..CellStats::default()
        };
        LoopResult {
            cells: vec![cell(1.0), cell(10.0)],
            pass_s: vec![0.011; passes],
            rounds_per_pass: 22,
        }
    }

    #[test]
    fn throughput_and_median_come_from_the_cells_quiet_times() {
        let result = synthetic(5);
        assert_eq!(result.attempted(), 10);
        // Quiet times 1 ms and 10 ms: 22 rounds in 11 ms.
        assert!((result.rounds_per_s() - 2000.0).abs() < 1e-9);
        // Median over cells of per-cell quiet times: midway between clusters.
        assert!((result.scenario_p50_ms() - 5.5).abs() < 1e-9);
        // Medians 1.002 and 10.002 over quiet 1 and 10.
        assert!((result.interference() - 11.004 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn a_disturbed_stretch_moves_no_metric() {
        let quiet = synthetic(240);
        let mut noisy = synthetic(240);
        // Other tenants triple every run of forty passes in the middle.
        for cell in &mut noisy.cells {
            for sample in &mut cell.samples_ms[100..140] {
                *sample *= 3.0;
            }
        }
        assert!((noisy.rounds_per_s() / quiet.rounds_per_s() - 1.0).abs() < 0.01);
        assert!((noisy.scenario_p50_ms() / quiet.scenario_p50_ms() - 1.0).abs() < 0.01);
        let (a, b) = (
            quiet.scenario_tail().unwrap(),
            noisy.scenario_tail().unwrap(),
        );
        assert!((b.value / a.value - 1.0).abs() < 0.01);
        assert!(noisy.interference() > quiet.interference());
    }

    #[test]
    fn the_tail_is_taken_per_window_of_whole_passes() {
        // 2 samples a pass: a window is 50 passes = 100 samples, and 120
        // passes hold 71 positions of it.
        let result = synthetic(120);
        assert_eq!(result.passes_per_window(), 50);
        let tail = result.scenario_tail().expect("samples exist");
        assert_eq!(
            (tail.windows, tail.passes_per_window, tail.beyond),
            (71, 50, 10)
        );
        assert!((tail.percentile - 90.0).abs() < 1e-9);
        // The window starting at pass s holds slow samples 10 + s/1000 ..
        // 10 + (s + 49)/1000, ten of them beyond 10 + (s + 39)/1000; the
        // first decile over s = 0..=70 is s = 7.
        assert!((tail.value - 10.046).abs() < 1e-9);
    }

    #[test]
    fn a_run_shorter_than_one_window_is_one_window() {
        let tail = synthetic(8).scenario_tail().expect("samples exist");
        assert_eq!((tail.windows, tail.passes_per_window), (1, 8));
        // 16 samples, ten beyond rank 5 (the sixth smallest).
        assert_eq!(tail.beyond, 10);
        assert!((tail.value - 1.005).abs() < 1e-9);
        assert!(LoopResult::default().scenario_tail().is_none());
    }
}
