//! The run record printed with every result (machine, SIMD and thread
//! state, seed, commit) plus the process figures read from
//! `/proc/self/status`.

use crate::stats::json_str;
use nshd_tensor::par;

/// A `/proc/self/status` field's leading number (`VmHWM`, `Threads`, …).
fn proc_status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads currently alive in this process.
pub fn process_threads() -> f64 {
    proc_status_field("Threads").unwrap_or(0.0)
}

/// Online CPUs.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured, read from `./.git` only (never from a
/// repository above the working directory); `unknown` when there is
/// none.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The run record as one JSON object.
pub fn run_record(workload: &str, seed: u64, seconds: u64, trace: bool, samples: usize) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"record\": \"nshd-perfbench/v1\", \"workload\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {trace}, \"commit\": {}, \"nproc\": {}, \
         \"avx2\": {}, \"simd_enabled\": {}, \"NSHD_SIMD\": {}, \"par_threads\": {}, \
         \"NSHD_THREADS\": {}, \"latency_samples\": {samples}}}",
        json_str(workload),
        json_str(&git_commit()),
        nproc(),
        nshd_tensor::simd_available(),
        nshd_tensor::simd_enabled(),
        json_str(&env("NSHD_SIMD")),
        par::threads(),
        json_str(&env("NSHD_THREADS")),
    )
}
