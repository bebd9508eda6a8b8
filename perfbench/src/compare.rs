//! `benchmark compare <a.jsonl> <b.jsonl>`: the A/B verdict.
//!
//! Each input is a file written by `benchmark … --record <file>`: one line
//! per run. For every (workload, end-to-end metric) pair the tool takes
//! each side's median and quartiles, applies the metric's bound from
//! `BENCHMARK.json`, and prints one row:
//!
//! * **worse** — `b`'s median is worse than `a`'s by more than the bound;
//! * **unresolved** — the run-to-run spread is wider than the bound, so
//!   the runs cannot tell (unless every run of one side beats every run of
//!   the other, which settles it);
//! * **better** — `b` improved by more than the spread;
//! * **within** — anything else.
//!
//! It exits non-zero on any *worse* row or a higher failed fraction, which
//! is how two back-to-back sets of runs of one commit are checked against
//! the benchmark's own bounds, and how a later change is checked against
//! its parent.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// An end-to-end metric's comparison rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub rules: Vec<Rule>,
}

impl Spec {
    /// # Errors
    ///
    /// A document that is not the `BENCHMARK.json` format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no '{key}' list"))
        };
        let workloads = list("workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        let rules = list("end_to_end")?
            .iter()
            .map(|metric| {
                let name = metric.get("name").and_then(Json::as_str);
                let better = metric.get("better").and_then(Json::as_str);
                let bound = metric.get("bound").and_then(Json::as_f64);
                match (name, better, bound) {
                    (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Rule {
                        name: name.to_string(),
                        higher_is_better: better == "higher",
                        bound,
                    }),
                    _ => Err("an end_to_end entry lacks name, better or bound".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec { workloads, rules })
    }
}

/// One side's recorded untraced runs: per workload, per metric, the
/// values; plus failed and attempted totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorded {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: BTreeMap<String, (f64, f64)>,
}

impl Recorded {
    /// Parses a `--record` file. Traced runs are skipped: end-to-end
    /// metrics are never taken from them.
    ///
    /// # Errors
    ///
    /// A line that is not a recorded run.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut recorded = Recorded::default();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| format!("line {}: {what}", number + 1);
            let doc = json::parse(line).map_err(|e| bad(&e))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?;
            if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
                continue;
            }
            let result = doc.get("result").ok_or_else(|| bad("no result"))?;
            let count = |key: &str| {
                result
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(key))
            };
            let totals = recorded.failed.entry(workload.to_string()).or_default();
            totals.0 += count("failed")?;
            totals.1 += count("attempted")?;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| bad("no metrics"))?;
            let per_metric = recorded.values.entry(workload.to_string()).or_default();
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("a metric without a value"))?;
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
        Ok(recorded)
    }

    fn failed_frac(&self, workload: &str) -> f64 {
        self.failed
            .get(workload)
            .map_or(0.0, |(failed, attempted)| failed / attempted.max(1.0))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for one metric.
pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    if median_a == 0.0 {
        return if median_b == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = b is worse, as a share of a's median.
    let sign = if rule.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (median_b - median_a) / median_a.abs();
    let spread = stats::relative_iqr(a).max(stats::relative_iqr(b));
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let every_b_beats_a = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let every_a_beats_b = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    if spread > rule.bound {
        return if every_b_beats_a {
            Verdict::Better
        } else if every_a_beats_b && worse_by > rule.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > rule.bound {
        Verdict::Worse
    } else if -worse_by > spread && every_b_beats_a {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The comparison table and whether it holds a regression.
pub fn compare(spec: &Spec, a: &Recorded, b: &Recorded) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict"
    );
    let mut regressed = false;
    let empty = BTreeMap::new();
    for workload in &spec.workloads {
        let (va, vb) = (
            a.values.get(workload).unwrap_or(&empty),
            b.values.get(workload).unwrap_or(&empty),
        );
        for rule in &spec.rules {
            let (Some(xa), Some(xb)) = (va.get(&rule.name), vb.get(&rule.name)) else {
                let _ = writeln!(
                    out,
                    "{workload:<16} {:<18} missing on one side  unresolved",
                    rule.name
                );
                continue;
            };
            let verdict = judge(rule, xa, xb);
            regressed |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(xa), stats::median(xb));
            let _ = writeln!(
                out,
                "{workload:<16} {:<18} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                rule.name,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * stats::relative_iqr(xa).max(stats::relative_iqr(xb)),
                100.0 * rule.bound,
                verdict.label(),
            );
        }
        let (fa, fb) = (a.failed_frac(workload), b.failed_frac(workload));
        let failed_worse = fb > fa;
        regressed |= failed_worse;
        let _ = writeln!(
            out,
            "{workload:<16} {:<18} {fa:>14.6} {fb:>14.6} {:>34}",
            "failed_frac",
            if failed_worse { "WORSE" } else { "within" },
        );
    }
    (out, regressed)
}

/// The `compare` subcommand.
///
/// # Errors
///
/// Usage errors and unreadable or malformed files.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--benchmark" {
            spec_path = args.next().cloned().ok_or("--benchmark needs a file")?;
        } else {
            files.push(arg.as_str());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(
            "usage: benchmark compare <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]"
                .to_string(),
        );
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = Spec::parse(&read(&spec_path)?)?;
    let (a, b) = (Recorded::parse(&read(a)?)?, Recorded::parse(&read(b)?)?);
    let (table, regressed) = compare(&spec, &a, &b);
    print!("{table}");
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool, bound: f64) -> Rule {
        Rule {
            name: "m".to_string(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn a_metric_inside_its_bound_is_within() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [103.0, 104.0, 102.0, 103.5];
        assert_eq!(judge(&rule(false, 0.10), &a, &b), Verdict::Within);
        assert_eq!(judge(&rule(true, 0.10), &b, &a), Verdict::Within);
    }

    #[test]
    fn a_median_past_the_bound_is_worse_in_the_metrics_direction() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [120.0, 121.0, 119.0, 120.5];
        assert_eq!(judge(&rule(false, 0.10), &a, &b), Verdict::Worse);
        // The same numbers for a higher-is-better metric are a gain.
        assert_eq!(judge(&rule(true, 0.10), &a, &b), Verdict::Better);
        assert_eq!(judge(&rule(true, 0.10), &b, &a), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let a = [100.0, 140.0, 80.0, 120.0];
        let b = [110.0, 150.0, 90.0, 135.0];
        assert_eq!(judge(&rule(false, 0.10), &a, &b), Verdict::Unresolved);
        // Every run of b below every run of a settles it despite the spread.
        let b = [40.0, 60.0, 50.0, 70.0];
        assert_eq!(judge(&rule(false, 0.10), &a, &b), Verdict::Better);
        let b = [400.0, 600.0, 500.0, 700.0];
        assert_eq!(judge(&rule(false, 0.10), &a, &b), Verdict::Worse);
    }

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ]
    }"#;

    fn line(rate: f64, setup: f64, failed: u32, trace: u8) -> String {
        format!(
            "{{\"workload\": \"w\", \"seed\": 1, \"trace\": {trace}, \"result\": {{\"correct\": true, \
             \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\"rate\": {{\"value\": {rate}, \
             \"unit\": \"1/s\"}}, \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}}}}}}}\n"
        )
    }

    #[test]
    fn recorded_files_parse_and_traced_lines_are_skipped() {
        let text = line(100.0, 1.0, 0, 0) + &line(5.0, 9.0, 0, 1) + &line(102.0, 1.1, 0, 0);
        let recorded = Recorded::parse(&text).unwrap();
        assert_eq!(recorded.values["w"]["rate"], vec![100.0, 102.0]);
        assert_eq!(recorded.failed["w"], (0.0, 20.0));
        assert!(Recorded::parse("{\"workload\": 3}").is_err());
    }

    #[test]
    fn compare_flags_a_regression_and_a_higher_failed_fraction() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.workloads, vec!["w"]);
        let a = Recorded::parse(&(line(100.0, 1.0, 0, 0) + &line(101.0, 1.0, 0, 0))).unwrap();
        let same = Recorded::parse(&(line(99.0, 1.1, 0, 0) + &line(100.0, 1.05, 0, 0))).unwrap();
        let (table, regressed) = compare(&spec, &a, &same);
        assert!(!regressed, "{table}");
        let slow = Recorded::parse(&(line(80.0, 1.0, 0, 0) + &line(81.0, 1.0, 0, 0))).unwrap();
        let (table, regressed) = compare(&spec, &a, &slow);
        assert!(regressed && table.contains("WORSE"), "{table}");
        let failing = Recorded::parse(&(line(100.0, 1.0, 1, 0) + &line(101.0, 1.0, 0, 0))).unwrap();
        let (_, regressed) = compare(&spec, &a, &failing);
        assert!(regressed);
    }
}
