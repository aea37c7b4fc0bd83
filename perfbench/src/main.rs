//! End-to-end and per-layer benchmark of the NSHD stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_images --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a report, a run-record JSON line, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero on a wrong reply, an error frame, a
//! transport fault or an accuracy mismatch. See `perfbench/README.md`.

mod layers;
mod models;
mod record;
mod serve;
mod stats;
mod train;
mod workloads;

use workloads::{Args, WORKLOADS};

const USAGE: &str =
    "usage: nshd-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} expects a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(out) = workloads::run(&args) else {
        eprintln!("unknown workload {}", args.workload);
        std::process::exit(2);
    };
    println!("# {} seed={} trace={}", args.workload, args.seed, u8::from(args.trace));
    for line in &out.report {
        println!("# {line}");
    }
    for m in out.metrics.iter() {
        println!("# {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        record::run_record(&args.workload, args.seed, args.seconds, args.trace, out.samples)
    );
    println!("{}", stats::result_line(&out.tally, &out.metrics));
    if out.tally.failed() > 0 || out.tally.attempted() == 0 {
        eprintln!(
            "FAILED: {} of {} operations failed ({} wrong, {} error frames, {} transport)",
            out.tally.failed(),
            out.tally.attempted(),
            out.tally.wrong,
            out.tally.error_frames,
            out.tally.transport
        );
        std::process::exit(1);
    }
}
