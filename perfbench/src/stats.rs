//! Harness arithmetic: percentiles with their sample counts, the
//! tail-percentile rule, metric-name validation, failure accounting and
//! the result line the benchmark prints last.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it. `None` on an
/// empty slice.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (nearest-rank, lower middle for even
/// counts). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Indices of the better half (rounded up) of `scores`: the highest
/// scores, best first.
///
/// The machine is shared, and other tenants only ever slow this program,
/// in phases of seconds. Of several equal repetitions of the same work,
/// the better half drops the phases they hit, yet still covers half of
/// the work, so a cost the program pays in every repetition shows.
pub fn better_half(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    order.truncate(scores.len().div_ceil(2));
    order
}

/// Mean of the faster half (rounded up) of `times`; see
/// [`better_half`]. `None` when empty.
pub fn faster_half_mean(times: &[f64]) -> Option<f64> {
    let keep = better_half(&times.iter().map(|t| -t).collect::<Vec<_>>());
    let sum: f64 = keep.iter().map(|&i| times[i]).sum();
    (!keep.is_empty()).then(|| sum / keep.len() as f64)
}

/// Tail percentiles the report may quote, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// The highest tail percentile that still has at least 10 samples
/// strictly beyond it, for `n` samples: p99 needs 1000 samples, p95 200,
/// p90 100 and p50 20. `None` below 20 samples, where no tail is
/// reported at all.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// A latency distribution summarised with its sample count, so no
/// percentile is ever quoted without the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_quantile`] (as a fraction).
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarises unsorted samples; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 0.5)?;
        let tail_q = tail_quantile(sorted.len()).unwrap_or(0.5);
        let tail = percentile(&sorted, tail_q)?;
        Some(Summary { n: sorted.len(), p50, tail_q, tail })
    }

    /// `p50=… p99=… (n=…)` in the given unit and scale.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "p50={:.3}{unit} p{}={:.3}{unit} (n={})",
            self.p50 * scale,
            self.tail_q * 100.0,
            self.tail * scale,
            self.n
        )
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// How one issued operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A reply that passed the correctness check.
    Correct,
    /// A reply whose answer differs from the in-process oracle.
    Wrong,
    /// A typed error frame from the server.
    ErrorFrame,
    /// The connection failed (I/O error, protocol violation or
    /// disconnect); the traffic phase stops after one.
    Transport,
}

/// Counts operations and failures; every operation lands in exactly one
/// bucket, so each failure counts once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Correct replies.
    pub correct: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// Typed error frames.
    pub error_frames: u64,
    /// Transport faults.
    pub transport: u64,
}

impl Tally {
    /// Records one outcome.
    pub fn note(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Correct => self.correct += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::ErrorFrame => self.error_frames += 1,
            Outcome::Transport => self.transport += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.error_frames += other.error_frames;
        self.transport += other.transport;
    }

    /// Operations that failed in any way.
    pub fn failed(&self) -> u64 {
        self.wrong + self.error_frames + self.transport
    }

    /// Every operation counted.
    pub fn attempted(&self) -> u64 {
        self.correct + self.failed()
    }

    /// Failed share of attempted operations (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (validated by [`valid_metric_name`]).
    pub name: String,
    /// Unit string, e.g. `ms`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Ordered list of metrics with name validation on insert.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name, or a non-finite value:
    /// both are harness bugs, never data-dependent.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.items.push(Metric { name: name.to_string(), unit, value });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float with all its significant digits (Rust's shortest
/// round-trip form), always as a JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0 && tally.attempted() > 0,
        tally.attempted().max(1),
        tally.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // The rule itself, checked exhaustively over a range of counts.
        for n in 20..5_000usize {
            let q = tail_quantile(n).unwrap();
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} q={q}");
            if let Some(&higher) = TAILS.iter().rev().find(|&&t| t > q) {
                let r = (higher * n as f64).ceil() as usize;
                assert!(n < r + 10, "n={n}: p{} would also qualify", higher * 100.0);
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50.0));
        assert_eq!(percentile(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        let s = Summary::of(&sorted).unwrap();
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (100, 50.0, 0.9, 90.0));
    }

    #[test]
    fn better_half_keeps_the_best_rounded_up() {
        assert_eq!(better_half(&[1.0, 5.0, 3.0, 4.0]), vec![1, 3]);
        assert_eq!(better_half(&[1.0, 5.0, 3.0]), vec![1, 2]);
        assert_eq!(better_half(&[]), Vec::<usize>::new());
        assert_eq!(faster_half_mean(&[4.0, 1.0, 9.0, 2.0]), Some(1.5));
        assert_eq!(faster_half_mean(&[7.0]), Some(7.0));
        assert_eq!(faster_half_mean(&[]), None);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["latency_p50_ms", "net.rtt_p50_us", "a", "0x", "core.encode_b16_us", "x-y"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".lead", "-lead", "has space", "ü", "a/b", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Metrics::default().put("bad name", "ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.put("a", "ms", 1.0);
        m.put("a", "ms", 2.0);
    }

    #[test]
    fn each_failure_counts_once() {
        let mut t = Tally::default();
        for o in [Outcome::Correct, Outcome::Correct, Outcome::ErrorFrame] {
            t.note(o);
        }
        assert_eq!((t.attempted(), t.failed()), (3, 1));
        t.note(Outcome::Wrong);
        assert_eq!((t.attempted(), t.failed()), (4, 2));
        t.note(Outcome::Transport);
        assert_eq!((t.attempted(), t.failed()), (5, 3));
        assert!((t.error_rate() - 0.6).abs() < 1e-12);
        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!((total.attempted(), total.failed()), (10, 6));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.note(Outcome::Correct);
        let mut m = Metrics::default();
        m.put("latency_p50_ms", "ms", 1.203_4);
        let line = result_line(&t, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
        t.note(Outcome::Wrong);
        assert!(
            result_line(&t, &m).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1")
        );
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
