//! The whole-stack benchmark described by the repository's
//! `BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--record <file>]
//! benchmark compare <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans from the benchmark's own code around
//! each call into a layer and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use abft_perfbench::{compare, report};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => report::main(&args, process_started),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
