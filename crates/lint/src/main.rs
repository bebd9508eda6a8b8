//! The `abft-lint` binary: walk the workspace's `src/` trees for panics a
//! hot-path root reaches, print diagnostics, exit non-zero on any
//! unjustified violation.
//!
//! ```text
//! cargo run -p abft-lint              # human-readable diagnostics
//! cargo run -p abft-lint -- --json    # {"pragmas": N, "violations": [...]}
//! cargo run -p abft-lint -- PATH      # lint a different workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: abft-lint [ROOT] [--json]");
                println!("rules: {}", abft_lint::RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("abft-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(abft_lint::default_root);

    let report = match abft_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("abft-lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let abft_lint::Report {
        violations,
        scanned,
        pragmas,
    } = report;

    if json {
        let objects: Vec<String> = violations.iter().map(|v| v.to_json()).collect();
        println!(
            r#"{{"pragmas":{pragmas},"violations":[{}]}}"#,
            objects.join(",")
        );
    } else {
        for violation in &violations {
            println!("{violation}");
        }
        if violations.is_empty() {
            println!(
                "abft-lint: workspace clean ({scanned} files scanned, \
                 {pragmas} LINT-ALLOW pragmas honoured)"
            );
        } else {
            println!(
                "abft-lint: {} violation(s) in {scanned} scanned files \
                 ({pragmas} LINT-ALLOW pragmas honoured)",
                violations.len()
            );
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
