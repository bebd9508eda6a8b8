//! The benchmark's own contract: names, JSON, determinism, and a smoke
//! size of every workload.

use abft_perfbench::json::{self, Json};
use abft_perfbench::layers::per_layer_metrics;
use abft_perfbench::report::{self, Options, END_TO_END};
use abft_perfbench::run;
use abft_perfbench::trace::Tracer;
use abft_perfbench::workloads::{Job, Size, WORKLOADS};
use std::time::Instant;

fn options(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        verbose: false,
        record: None,
    }
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn every_name_and_unit_is_inside_the_contracts_charset() {
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS {
        assert!(name_ok(name), "workload {name}");
        assert!(seen.insert(name.to_string()), "duplicate {name}");
    }
    for (name, unit) in END_TO_END {
        assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
        assert!(seen.insert(name.to_string()), "duplicate {name}");
    }
    let per_layer = per_layer_metrics();
    assert!(per_layer.len() <= 128);
    for (name, unit) in &per_layer {
        assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
        assert!(seen.insert(name.clone()), "duplicate {name}");
    }
    assert!(!name_ok("bad name") && !name_ok("-lead") && !name_ok(""));
}

/// `BENCHMARK.json` and the program must name the same things.
#[test]
fn benchmark_json_matches_what_the_program_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    for entry in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let paths = doc.get("paths").and_then(Json::as_array).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("perfbench"));
}

fn result_keys(line: &str) -> (Json, Vec<String>) {
    let doc = json::parse(line).expect("the result line parses");
    let keys = doc.as_object().unwrap().keys().cloned().collect();
    (doc, keys)
}

/// Every workload at its smoke size, untraced and traced: no failure, the
/// result line has exactly the contract's keys and every metric of its
/// mode, and the whole lot stays quick.
#[test]
fn every_workload_runs_at_smoke_size_and_prints_the_contracts_result() {
    let started = Instant::now();
    for workload in WORKLOADS {
        let result = report::untraced(&options(workload, 7, false), Instant::now())
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(result.failed, 0, "{workload}:\n{}", result.text);
        assert!(result.attempted >= 1);
        let (doc, keys) = result_keys(&result.to_json());
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, unit) in END_TO_END {
            let metric = &metrics[name];
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(unit));
            let value = metric.get("value").unwrap().as_f64().unwrap();
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
    let untraced_s = started.elapsed().as_secs_f64();

    for workload in WORKLOADS {
        let (result, chrome_trace) = report::traced(&options(workload, 7, true))
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(result.failed, 0, "{workload}:\n{}", result.text);
        let (doc, _) = result_keys(&result.to_json());
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        let expected = per_layer_metrics();
        assert_eq!(metrics.len(), expected.len());
        for (name, _) in &expected {
            assert!(metrics.contains_key(name), "{workload} lacks {name}");
        }
        let events = json::parse(&chrome_trace).expect("the Chrome trace parses");
        assert!(!events
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
    // Optimised builds only: a debug build is several times slower.
    if !cfg!(debug_assertions) {
        assert!(untraced_s < 2.0, "smoke sizes took {untraced_s:.2} s");
    }
}

fn prepared(workload: &str, seed: u64) -> run::Prepared {
    run::set_up(workload, seed, Size::Smoke, 1, &mut Tracer::disabled()).expect("set-up")
}

fn message_counts(prepared: &run::Prepared) -> Vec<[u64; 10]> {
    prepared
        .reference
        .iter()
        .flatten()
        .map(|outcome| run::repeatable_counts(outcome.as_ref().expect("cell runs")))
        .collect()
}

#[test]
fn the_same_seed_repeats_exactly_and_another_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        let (a, b, c) = (
            prepared(workload, 3),
            prepared(workload, 3),
            prepared(workload, 4),
        );
        assert_eq!(
            run::digest_final_estimates(&a),
            run::digest_final_estimates(&b),
            "{workload}"
        );
        assert_eq!(message_counts(&a), message_counts(&b), "{workload}");
        assert_ne!(
            run::digest_final_estimates(&a),
            run::digest_final_estimates(&c),
            "{workload}: a different seed must give different inputs"
        );
    }
    // The lossy simulator's schedule is part of what repeats.
    let a = prepared("message-passing", 3);
    assert!(message_counts(&a).iter().any(|counts| counts[3] > 0));
}

#[test]
fn parallel_paths_checks_every_parallel_cell_against_a_serial_twin() {
    let mut prepared =
        run::set_up("parallel-paths", 5, Size::Smoke, 2, &mut Tracer::disabled()).expect("set-up");
    let timed = prepared.workload.timed_cells().count();
    let twins = prepared
        .workload
        .cells
        .iter()
        .filter(|cell| !cell.timed && cell.same_bits_as.is_some())
        .count();
    assert_eq!(timed, twins);
    for cell in &prepared.workload.cells {
        if let (true, Job::Dgd { scenario, .. }) = (cell.timed, &cell.job) {
            let options = scenario.options();
            assert!(options.aggregation_threads == 2 || options.fleet_workers == 2);
        }
    }
    let mut result = run::measure(&mut prepared, 0.0, &mut Tracer::disabled());
    let (attempted, failed) = run::verify_pairs(&mut prepared, &mut result);
    assert_eq!((attempted, failed), (twins, 0));
    assert_eq!(result.failed(), 0);
}

#[test]
fn a_broken_twin_fails_every_sample_of_the_pair() {
    let mut prepared = prepared("paper-grid", 9);
    let mut result = run::measure(&mut prepared, 0.0, &mut Tracer::disabled());
    let (index, twin) = prepared
        .workload
        .cells
        .iter()
        .enumerate()
        .find_map(|(i, cell)| cell.same_bits_as.map(|t| (i, t)))
        .expect("paper-grid pairs threaded cells with in-process cells");
    if let Some(Some(Ok(outcome))) = prepared.reference.get_mut(twin) {
        outcome.digest ^= 1;
    }
    run::verify_pairs(&mut prepared, &mut result);
    assert_eq!(
        result.cells[index].failed,
        result.cells[index].samples_ms.len()
    );
    assert_eq!(
        result.cells[twin].failed,
        result.cells[twin].samples_ms.len()
    );
    assert!(result.failed() >= 2);
}
