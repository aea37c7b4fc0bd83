//! nshd-lint — the workspace's concurrency & determinism static
//! analyzer.
//!
//! The paper's end-to-end claims rest on properties no unit test can
//! establish: the serving tier never deadlocks (lock acquisition order
//! is globally acyclic), every atomic memory-ordering choice is a
//! reviewed decision, `unsafe` stays out of the proof surface, and the
//! determinism-critical kernels never fold floats in hash order. This
//! crate checks those properties statically on every CI run.
//!
//! The pipeline: each `crates/*/src` file is lexed losslessly
//! ([`lexer`]), `#[cfg(test)]` items are masked ([`source`]), the rule
//! passes ([`rules`]) match token sequences and emit structured
//! [`Diagnostic`]s with stable `NSHD-L001`…`NSHD-L010` codes
//! ([`diag`]), and the ledgered rules are reconciled against the
//! shrink-only allowlists ([`ledger`]). The crate's binary
//! (`cargo run -p nshd-lint -- lint`) is a thin driver over [`run`];
//! `--json` renders the stable `nshd-lint/v1` report CI archives.

pub mod diag;
pub mod ledger;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::{Diagnostic, Report, RuleCode, Severity};
pub use ledger::{Ledger, LedgerSpec, LEDGERS};
pub use source::SourceFile;

use rules::SiteCounts;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Where to analyze: the workspace root (containing `crates/`) and the
/// directory holding the five allowlist ledgers.
pub struct Config {
    /// Workspace root; diagnostics report paths relative to it.
    pub root: PathBuf,
    /// Directory containing the ledger files (the real workspace keeps
    /// them in `crates/lint/`; fixture trees bring their own).
    pub ledger_dir: PathBuf,
}

impl Config {
    /// The workspace convention: ledgers live in `crates/lint/`.
    pub fn for_root(root: impl Into<PathBuf>) -> Config {
        let root = root.into();
        let ledger_dir = root.join("crates").join("lint");
        Config { root, ledger_dir }
    }
}

/// Collects every `crates/*/src/**/*.rs` under `root` in sorted order,
/// returning workspace-relative paths with file contents.
pub fn collect_sources(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() {
            crate_names.push(name);
        }
    }
    crate_names.sort();
    let mut rels: Vec<PathBuf> = Vec::new();
    for name in &crate_names {
        let src = crates_dir.join(name).join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut rels, root)?;
        }
    }
    rels.sort();
    let mut out = Vec::new();
    for rel in rels {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("cannot read {}: {e}", rel.display()))?;
        out.push((rel, text));
    }
    Ok(out)
}

/// Recursively gathers `.rs` files under `dir` as root-relative paths.
fn collect_rs_files(dir: &Path, rels: &mut Vec<PathBuf>, root: &Path) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, rels, root)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the root", path.display()))?;
            rels.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// The crate name of a `crates/<name>/…` path.
fn crate_of(rel: &Path) -> Option<String> {
    let mut parts = rel.components();
    let first = parts.next()?.as_os_str().to_string_lossy().into_owned();
    (first == "crates").then(|| parts.next())??.as_os_str().to_str().map(str::to_owned)
}

/// Runs the full analysis: every pass over every source file, then
/// ledger reconciliation. Ledger syntax errors (zero counts,
/// duplicates, missing rationales) are hard `Err`s — a gate that
/// cannot read its own ledgers must not report green.
pub fn run(config: &Config) -> Result<Report, String> {
    let sources = collect_sources(&config.root)?;
    let files: Vec<SourceFile> =
        sources.into_iter().map(|(rel, text)| SourceFile::parse(rel, &text)).collect();

    let mut counts = SiteCounts::default();
    let mut out: Vec<Diagnostic> = Vec::new();
    for f in &files {
        rules::basic::scan_file(f, &mut counts, &mut out);
        rules::atomics::scan_file(f, &mut counts);
        rules::unsafe_audit::scan_file(f, &mut counts, &mut out);
    }

    // Determinism pass: hash-collection names are pooled per crate
    // (a field declared in one file is recognized when iterated in
    // another), then every file in the crate is scanned.
    let mut pools: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &files {
        if rules::in_crates(&f.rel, &rules::DETERMINISM_CRATES) {
            if let Some(krate) = crate_of(&f.rel) {
                rules::determinism::collect_hash_names(f, pools.entry(krate).or_default());
            }
        }
    }
    for f in &files {
        if let Some(names) = crate_of(&f.rel).and_then(|k| pools.get(&k)) {
            rules::determinism::scan_file(f, names, &mut counts, &mut out);
        }
    }

    rules::lock_order::run(&files, &mut out);

    // Reconcile the ledgered rules against their allowlists. The
    // ledger's display path is root-relative so diagnostics stay
    // stable regardless of where the gate runs from.
    let ledger_rel = config
        .ledger_dir
        .strip_prefix(&config.root)
        .map_or_else(|_| config.ledger_dir.clone(), Path::to_path_buf);
    for spec in &LEDGERS {
        let sites: &[(PathBuf, Vec<usize>)] = match spec.code {
            RuleCode::L001UnwrapExpect => &counts.unwrap,
            RuleCode::L005ClockOutsideObs => &counts.instant,
            RuleCode::L006AdHocThread => &counts.thread,
            RuleCode::L008UnledgeredAtomic => &counts.atomic,
            RuleCode::L009UnsafeAudit => &counts.unsafe_sites,
            _ => continue,
        };
        let parsed = ledger::parse_ledger(&config.ledger_dir, spec)?;
        ledger::check_ledger(&parsed, spec, sites, &ledger_rel.join(spec.file), &mut out);
    }

    out.sort_by(|a, b| (&a.path, a.line, a.code).cmp(&(&b.path, b.line, b.code)));
    Ok(Report { files: files.len(), diagnostics: out })
}

/// Parses all five ledgers under `dir`, returning `(file name, entry
/// count)` per ledger — the `nshd-lint ledgers` validation: every ledger
/// must parse with no zero-count, duplicate, or rationale-less
/// entries.
pub fn validate_ledgers(dir: &Path) -> Result<Vec<(&'static str, usize)>, String> {
    let mut out = Vec::new();
    for spec in &LEDGERS {
        let parsed = ledger::parse_ledger(dir, spec)?;
        out.push((spec.file, parsed.entries.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("root").to_path_buf()
    }

    #[test]
    fn config_for_root_uses_the_lint_ledger_dir() {
        let c = Config::for_root("/w");
        assert_eq!(c.ledger_dir, Path::new("/w/crates/lint"));
    }

    #[test]
    fn sources_cover_the_workspace() {
        let sources = collect_sources(&workspace_root()).expect("collect");
        let rels: Vec<String> =
            sources.iter().map(|(r, _)| r.to_string_lossy().replace('\\', "/")).collect();
        assert!(rels.iter().any(|r| r.starts_with("crates/tensor/src/")), "{rels:?}");
        assert!(rels.iter().any(|r| r.starts_with("crates/lint/src/")), "lint scans itself");
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "deterministic order");
    }

    #[test]
    fn the_workspace_passes_its_own_gate() {
        let report = run(&Config::for_root(workspace_root())).expect("run");
        let rendered: Vec<String> = report.diagnostics.iter().map(Diagnostic::render).collect();
        assert!(report.is_clean(), "{}", rendered.join("\n"));
        assert!(report.files > 20, "expected a real workspace, saw {} files", report.files);
    }
}
