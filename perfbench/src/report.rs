//! The `benchmark` run command: argument parsing, the untraced and traced
//! runs, and the printed report.

use crate::layers;
use crate::run::{self, LoopResult, Prepared};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Size, WORKLOADS};
use crate::{json, trace};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPETITIONS: usize = 5;

/// One named, united number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The end-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("rounds_per_s", "rounds/s"),
    ("scenario_p50_ms", "ms"),
    ("scenario_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Parsed command-line options of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub verbose: bool,
    pub record: Option<String>,
}

impl Options {
    /// # Errors
    ///
    /// A usage message naming the offending argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = Options {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            smoke: false,
            verbose: false,
            record: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => options.workload = value("a workload name")?,
                "--seed" => {
                    options.seed = value("a u64")?
                        .parse()
                        .map_err(|_| format!("--seed needs a u64\n{USAGE}"))?;
                }
                "--seconds" => {
                    options.seconds = value("a number")?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds needs a number >= 0\n{USAGE}"))?;
                }
                "--trace" => {
                    options.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace needs 0 or 1\n{USAGE}")),
                    };
                }
                "--record" => options.record = Some(value("a file")?),
                "--smoke" => options.smoke = true,
                "--verbose" => options.verbose = true,
                other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
            }
        }
        if !WORKLOADS.contains(&options.workload.as_str()) {
            return Err(format!(
                "--workload must be one of: {}\n{USAGE}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(options)
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

const USAGE: &str = "usage: benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> \
                     [--record <file>] [--smoke] [--verbose]\n       \
                     benchmark compare <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]";

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// The human-readable report printed above the result line.
    pub text: String,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &metric.name);
            out.push_str(": {\"value\": ");
            json::write_num(&mut out, metric.value);
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, metric.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn header(options: &Options, prepared: &Prepared) -> String {
    let workload = &prepared.workload;
    let timed = workload.timed_cells().count();
    format!(
        "benchmark: workload={} seed={} seconds={} trace={} size={:?}\n\
         machine: parallelism={} worker-threads={} (clamped to min(2, nproc)); closed loop, 1 client\n\
         shape: n={} f={} d={}; cells: {} timed + {} reference; resilient-cell bound: {:.6} ({})\n",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.size(),
        run::parallelism(),
        workload.threads,
        workload.shape.n,
        workload.shape.f,
        workload.shape.d,
        timed,
        workload.cells.len() - timed,
        workload.error_bound,
        workload.bound_note,
    )
}

fn metric_table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for metric in metrics {
        let _ = writeln!(
            out,
            "  {:<width$}  {:>16.6}  {}",
            metric.name, metric.value, metric.unit
        );
    }
    out
}

fn cell_table(prepared: &Prepared, result: &LoopResult) -> String {
    let mut out = format!(
        "  {:<58} {:>5} {:>10} {:>10} {:>6} {:>12}\n",
        "cell", "runs", "quiet_ms", "median_ms", "failed", "final_error"
    );
    let rows = prepared.workload.cells.iter().zip(&result.cells);
    for ((cell, stats), reference) in rows.zip(&prepared.reference) {
        let error = match reference {
            Some(Ok(outcome)) => outcome.error,
            _ => f64::NAN,
        };
        let _ = writeln!(
            out,
            "  {:<58} {:>5} {:>10.4} {:>10.4} {:>6} {:>12.6}",
            cell.label,
            stats.samples_ms.len(),
            stats::quiet(&stats.samples_ms),
            stats::median(&stats.samples_ms),
            stats.failed,
            error
        );
    }
    out
}

fn failure_lines(prepared: &Prepared, result: &LoopResult) -> String {
    let mut out = String::new();
    for (cell, stats) in prepared.workload.cells.iter().zip(&result.cells) {
        if let Some(reason) = &stats.first_failure {
            let _ = writeln!(out, "  FAILED {}: {reason}", cell.label);
        }
    }
    out
}

/// The untraced run: set-up (repeated, median reported), the timed
/// closed loop, the pair checks, and the end-to-end metrics.
///
/// # Errors
///
/// A workload that cannot be built.
pub fn untraced(options: &Options, process_started: Instant) -> Result<RunResult, String> {
    let mut tracer = Tracer::disabled();
    let threads = run::thread_budget();
    let mut setup_s = Vec::with_capacity(SETUP_REPETITIONS);
    let mut prepared: Option<Prepared> = None;
    for repetition in 0..SETUP_REPETITIONS {
        // Tear the previous set-up down (pool and fleet threads included)
        // outside the timed interval.
        drop(prepared.take());
        // The first set-up is timed from process start, the way a user
        // pays for it.
        let started = if repetition == 0 {
            process_started
        } else {
            Instant::now()
        };
        prepared = Some(run::set_up(
            &options.workload,
            options.seed,
            options.size(),
            threads,
            &mut tracer,
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.ok_or("no set-up ran")?;
    let mut result = run::measure(&mut prepared, options.seconds, &mut tracer);
    let (reference_attempted, reference_failed) = run::verify_pairs(&mut prepared, &mut result);

    let tail = result
        .scenario_tail()
        .ok_or("the timed loop produced no sample")?;
    let values = [
        result.rounds_per_s(),
        result.scenario_p50_ms(),
        tail.value,
        stats::median(&setup_s),
        run::peak_rss_mib(),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric::new(*name, unit, value))
        .collect();

    let attempted = result.attempted() + reference_attempted;
    let failed = result.failed() + reference_failed;
    let mut text = header(options, &prepared);
    let _ = writeln!(
        text,
        "timed section: {} passes, {} scenario samples, {:.3} s; host interference (median over \
         quiet run time): {:.3}; scenario_tail_ms is the quiet one of {} window(s) of {} passes \
         of p{:.2} ({} samples beyond); set-ups: {:?} s\n\
         failed_frac: {} / {} = {}; resilience_err (max over resilient cells): {:.6}; \
         digest.final_estimates: {}",
        result.pass_s.len(),
        result.attempted(),
        result.pass_s.iter().sum::<f64>(),
        result.interference(),
        tail.windows,
        tail.passes_per_window,
        tail.percentile,
        tail.beyond,
        setup_s,
        failed,
        attempted,
        failed as f64 / attempted.max(1) as f64,
        run::resilience_err(&prepared),
        run::digest_final_estimates(&prepared),
    );
    text.push_str("end-to-end metrics:\n");
    text.push_str(&metric_table(&metrics));
    if options.verbose {
        text.push_str(&cell_table(&prepared, &result));
    }
    text.push_str(&failure_lines(&prepared, &result));
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        text,
    })
}

/// Where the traced run writes its Chrome trace-event file, relative to
/// the directory the benchmark is run from (the checkout root).
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new("perfbench")
        .join("out")
        .join(format!("{workload}.trace.json"))
}

/// The traced run: one set-up, the same closed loop with and without
/// spans (their difference is the tracing overhead), then the per-layer
/// replays and configuration deltas.
///
/// Returns the result and the Chrome trace-event document of its spans.
///
/// # Errors
///
/// A workload that cannot be built.
pub fn traced(options: &Options) -> Result<(RunResult, String), String> {
    let mut tracer = Tracer::enabled();
    let threads = run::thread_budget();
    let mut prepared = run::set_up(
        &options.workload,
        options.seed,
        options.size(),
        threads,
        &mut tracer,
    )?;
    // A third of the time each for the untraced loop, the traced loop,
    // and (inside `layers`) the replays.
    let share = options.seconds / 3.0;
    let mut untraced = run::measure(&mut prepared, share, &mut Tracer::disabled());
    let mut with_spans = run::measure(&mut prepared, share, &mut tracer);
    let (reference_attempted, reference_failed) = run::verify_pairs(&mut prepared, &mut with_spans);
    // Pair failures belong to the cells, not to one of the two loops.
    for (a, b) in untraced.cells.iter_mut().zip(&with_spans.cells) {
        if b.failed == b.samples_ms.len() && b.failed > 0 {
            a.failed = a.samples_ms.len();
        }
    }

    let layer = layers::measure(&prepared, &untraced, &with_spans, share, &mut tracer);

    let attempted =
        untraced.attempted() + with_spans.attempted() + reference_attempted + layer.attempted;
    let failed = untraced.failed() + with_spans.failed() + reference_failed + layer.failed;
    let mut text = header(options, &prepared);
    let _ = writeln!(
        text,
        "traced loop: {} passes, {} spans kept ({} dropped); Chrome trace: {}",
        with_spans.pass_s.len(),
        tracer.spans().len(),
        tracer.dropped(),
        trace_path(&options.workload).display()
    );
    text.push_str("span self times (benchmark's own spans):\n");
    text.push_str(&self_time_table(&tracer));
    text.push_str("per-layer metrics:\n");
    text.push_str(&metric_table(&layer.metrics));
    text.push_str(&layer.notes);
    if options.verbose {
        text.push_str(&cell_table(&prepared, &with_spans));
    }
    text.push_str(&failure_lines(&prepared, &untraced));
    text.push_str(&failure_lines(&prepared, &with_spans));
    let result = RunResult {
        attempted,
        failed,
        metrics: layer.metrics,
        text,
    };
    Ok((result, tracer.chrome_trace()))
}

fn self_time_table(tracer: &trace::Tracer) -> String {
    let mut out = String::new();
    for (name, row) in tracer.self_times() {
        let _ = writeln!(
            out,
            "  {:<28} calls {:>8}  total {:>12.3} ms  self {:>12.3} ms",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    out
}

/// Appends one line to a results file `benchmark compare` reads.
fn record(path: &str, options: &Options, result: &RunResult) -> Result<(), String> {
    let mut line = String::from("{\"workload\": ");
    json::write_str(&mut line, &options.workload);
    let _ = writeln!(
        line,
        ", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
        options.seed,
        u8::from(options.trace),
        result.to_json()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(line.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

/// Runs the benchmark as the command line asks and prints the report,
/// the result line last.
///
/// # Errors
///
/// Usage errors and workloads that cannot be built; nothing is printed to
/// standard output in either case.
pub fn main(args: &[String], process_started: Instant) -> Result<ExitCode, String> {
    let options = Options::parse(args)?;
    let result = if options.trace {
        let (result, chrome_trace) = traced(&options)?;
        let path = trace_path(&options.workload);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, chrome_trace).map_err(|e| format!("{}: {e}", path.display()))?;
        result
    } else {
        untraced(&options, process_started)?
    };
    if let Some(path) = &options.record {
        record(path, &options, &result)?;
    }
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(result.text.as_bytes())
        .and_then(|()| writeln!(stdout, "{}", result.to_json()))
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let options = Options::parse(&args(&[
            "--workload",
            "wide-distance",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload, "wide-distance");
        assert_eq!(options.seed, u64::MAX);
        assert_eq!(options.seconds, 12.0);
        assert!(options.trace && !options.smoke && options.record.is_none());
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            &["--workload", "no-such-workload"][..],
            &["--seed", "1"],
            &["--workload", "paper-grid", "--trace", "2"],
            &["--workload", "paper-grid", "--seconds", "-1"],
            &["--workload", "paper-grid", "--seed"],
            &["--workload", "paper-grid", "--frobnicate"],
        ] {
            let error = Options::parse(&args(bad)).unwrap_err();
            assert!(error.contains("usage:"), "{bad:?}: {error}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let result = RunResult {
            attempted: 7,
            failed: 1,
            metrics: vec![
                Metric::new("a.b", "ms", 1.25),
                Metric::new("c", "1/s", f64::NAN),
            ],
            text: String::new(),
        };
        let doc = json::parse(&result.to_json()).expect("parses");
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        let metric = doc.get("metrics").unwrap().get("a.b").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ms"));
    }
}
