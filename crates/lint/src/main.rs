//! The `nshd-lint` command — a thin driver over the [`nshd_lint`]
//! analyzer library.
//!
//! ```text
//! cargo run -q -p nshd-lint -- lint            # human-readable gate
//! cargo run -q -p nshd-lint -- lint --json     # stable nshd-lint/v1 report
//! cargo run -q -p nshd-lint -- ledgers         # validate the allowlists
//! ```
//!
//! `lint` runs all ten rule passes (`NSHD-L001`…`NSHD-L010` — see
//! `docs/lint-rules.md`) over every `crates/*/src` tree and reconciles
//! the ledgered rules against the shrink-only allowlists in
//! `crates/lint/`. `ledgers` just parses and validates the five
//! allowlist files: no zero-count entries, no duplicates, rationales
//! present where required — the CI step that keeps the ledgers honest
//! even when the gate itself is green.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let json = match args.next().as_deref() {
                None => false,
                Some("--json") => true,
                Some(other) => {
                    eprintln!(
                        "unknown flag `{other}`; usage: cargo run -p nshd-lint -- lint [--json]"
                    );
                    return ExitCode::FAILURE;
                }
            };
            lint(json)
        }
        Some("ledgers") => ledgers(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: lint, ledgers");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p nshd-lint -- <lint [--json] | ledgers>");
            ExitCode::FAILURE
        }
    }
}

/// Locates the workspace root: the nearest ancestor of this crate's
/// manifest directory containing a top-level `Cargo.toml` with a
/// `[workspace]` table (falls back to the current directory).
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while dir.pop() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
    }
    PathBuf::from(".")
}

fn lint(json: bool) -> ExitCode {
    let config = nshd_lint::Config::for_root(workspace_root());
    let report = match nshd_lint::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nshd-lint lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", report.to_json());
        return if report.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if report.is_clean() {
        eprintln!(
            "nshd-lint lint: OK ({} files, {} rules)",
            report.files,
            nshd_lint::RuleCode::ALL.len()
        );
        return ExitCode::SUCCESS;
    }
    for d in &report.diagnostics {
        eprintln!("{}", d.render());
    }
    eprintln!("nshd-lint lint: {} violation(s)", report.diagnostics.len());
    ExitCode::FAILURE
}

fn ledgers() -> ExitCode {
    let config = nshd_lint::Config::for_root(workspace_root());
    match nshd_lint::validate_ledgers(&config.ledger_dir) {
        Ok(summary) => {
            for (file, entries) in summary {
                eprintln!("nshd-lint ledgers: {file}: {entries} entr{} OK", plural_y(entries));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nshd-lint ledgers: {e}");
            ExitCode::FAILURE
        }
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}
