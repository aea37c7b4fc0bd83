//! The three workloads: what each sets up, drives, checks and reports.

use crate::layers::{self, LayerProbe};
use crate::models::{self, ServingModel};
use crate::record;
use crate::serve::{self, Case, Stack, Traffic};
use crate::stats::{faster_half_mean, median, Metrics, Outcome, Summary, Tally};
use crate::train::{self, Job, TrainInputs};
use nshd_core::{HdDeployEngine, NshdEngine};
use nshd_hdc::{HdQuery, ScoringMode};
use nshd_net::{RequestBody, WireInput};
use nshd_obs::Recorder;
use nshd_runtime::{BatchEngine, ClusterMetrics};
use std::time::{Duration, Instant};

/// Replies checked but not measured at the start of every serve run.
const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per untraced serve run, at least; `setup_s` is the mean of
/// their faster half (see `stats::better_half`).
const SETUP_REPEATS: usize = 3;
/// Set-up-and-job rounds per untraced `train_nshd` run, at least.
const TRAIN_ROUNDS: usize = 5;
/// Cheap set-ups repeat until this much time has gone into them (at
/// most `MAX_SETUPS` times), so their figure is steady too.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 200;

/// Runs `setup` repeatedly — `SETUP_REPEATS` times, or more while under
/// `SETUP_BUDGET` — and hands every result but the last to `teardown`
/// before the next set-up's clock starts. Returns the last result with
/// every set-up's seconds.
fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (started.elapsed() < SETUP_BUDGET && times.len() < MAX_SETUPS)
    {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    match last {
        Some(value) => (value, times),
        None => panic!("at least one set-up"),
    }
}

/// Distinct images in the `serve_images` request mix (each sent in all
/// three payload kinds).
const SERVE_IMAGES: usize = 16;
/// Distinct queries in the `serve_hd_queries` request mix (each sent
/// packed and as INT8).
const SERVE_QUERIES: usize = 200;
/// Input seed of the reference traffic and training job a workload
/// runs for the layers it does not use itself.
const REFERENCE_SEED: u64 = 0x5eed_0001;
/// Length of the reference serving pass `train_nshd` makes in its
/// traced run, which has no network path of its own.
const REFERENCE_TRAFFIC: Duration = Duration::from_secs(2);

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a run hands back for printing.
pub struct RunOut {
    /// Operations and failures.
    pub tally: Tally,
    /// Metrics for the result line.
    pub metrics: Metrics,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Samples behind the latency percentiles.
    pub samples: usize,
}

/// Every workload the command runs (`BENCHMARK.json` gates all of them).
pub const WORKLOADS: [&str; 3] = ["serve_images", "serve_hd_queries", "train_nshd"];

/// Runs the named workload.
pub fn run(args: &Args) -> Option<RunOut> {
    Some(match args.workload.as_str() {
        "serve_images" => serve_workload::<ImageSubject>(args),
        "serve_hd_queries" => serve_workload::<QuerySubject>(args),
        "train_nshd" => train_workload(args),
        _ => return None,
    })
}

/// A served model and the request mix it is checked against.
trait Subject: Sized {
    type Engine: BatchEngine<Output = usize, Input = Self::Input> + Clone;
    type Input: WireInput + Clone + Send + 'static;
    /// Builds the model (the program's set-up work).
    fn build() -> Self;
    fn engine(&self) -> &Self::Engine;
    /// The request mix with each payload's oracle answer.
    fn cases(&self, seed: u64) -> Vec<Case>;
    /// Test accuracy of the served model on inputs drawn from `seed`.
    fn accuracy(&self, seed: u64, traffic: &Traffic) -> f64;
    /// Basis plus memory plus compiled backend, from shapes, in MiB.
    fn resident_mb(&self) -> f64;
    /// Payload shape and one sample, for the decode probe.
    fn decode_sample(&self) -> (Vec<usize>, Vec<f32>);
    /// The serving-profile model, when this subject is one.
    fn serving(&self) -> Option<&ServingModel> {
        None
    }
    /// The pre-encoded deployment, when this subject is one.
    fn deployment(&self) -> Option<&HdDeployEngine> {
        None
    }
    /// Payload kinds in the mix, as indices into [f32, INT8, packed].
    const KINDS: &'static [usize];
}

struct ImageSubject(ServingModel);

impl Subject for ImageSubject {
    type Engine = NshdEngine;
    type Input = nshd_tensor::Tensor;
    const KINDS: &'static [usize] = &[0, 1, 2];

    fn build() -> Self {
        ImageSubject(models::serving_model())
    }

    fn engine(&self) -> &NshdEngine {
        &self.0.engine
    }

    fn cases(&self, seed: u64) -> Vec<Case> {
        image_cases(&self.0, seed)
    }

    fn accuracy(&self, seed: u64, _traffic: &Traffic) -> f64 {
        let (_, test) = models::inputs(&self.0.teacher, seed, 1, models::TEST_IMAGES);
        f64::from(self.0.engine.evaluate(&test))
    }

    fn resident_mb(&self) -> f64 {
        let cfg = self.0.model.config();
        let features = self.0.model.teacher().feature_len_at(cfg.cut);
        let classes = self.0.engine.num_classes();
        // Dense f32 basis + dense f32 class memory; dense scoring
        // compiles no backend.
        4.0 * ((features + classes) * cfg.hv_dim) as f64 / MIB
    }

    fn decode_sample(&self) -> (Vec<usize>, Vec<f32>) {
        let image = self.0.teacher.train.sample(0).0;
        (image.dims().to_vec(), image.as_slice().to_vec())
    }

    fn serving(&self) -> Option<&ServingModel> {
        Some(&self.0)
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// `SERVE_IMAGES` images drawn from `seed`, each in all three payload
/// kinds and held to `NshdModel::predict` on its decoded tensor.
fn image_cases(serving: &ServingModel, seed: u64) -> Vec<Case> {
    let (_, images) = models::inputs(&serving.teacher, seed, 1, SERVE_IMAGES);
    let mut cases = Vec::new();
    for (image, label) in (0..images.len()).map(|i| images.sample(i)) {
        for body in [
            RequestBody::f32_from(image.dims(), image.as_slice()),
            RequestBody::int8_from(image.dims(), image.as_slice()),
            RequestBody::packed_from(image.dims(), image.as_slice()),
        ] {
            let expected = match body.to_tensor() {
                Ok(t) => serving.model.predict(&t) as u32,
                Err(e) => panic!("locally built payload must decode: {e}"),
            };
            cases.push(Case { body, expected, label: label as u32 });
        }
    }
    cases
}

struct QuerySubject(HdDeployEngine);

impl Subject for QuerySubject {
    type Engine = HdDeployEngine;
    type Input = HdQuery;
    const KINDS: &'static [usize] = &[1, 2];

    fn build() -> Self {
        QuerySubject(models::hd_deployment(ScoringMode::Packed))
    }

    fn engine(&self) -> &HdDeployEngine {
        &self.0
    }

    fn cases(&self, seed: u64) -> Vec<Case> {
        query_cases(&self.0, seed)
    }

    fn accuracy(&self, _seed: u64, traffic: &Traffic) -> f64 {
        traffic.window_on_label as f64 / traffic.window_correct.max(1) as f64
    }

    fn resident_mb(&self) -> f64 {
        let (c, d) = (self.0.num_classes(), self.0.dim());
        // Dense f32 memory + packed backend (one bit per component).
        (4 * c * d + c * d.div_ceil(64) * 8) as f64 / MIB
    }

    fn decode_sample(&self) -> (Vec<usize>, Vec<f32>) {
        (vec![self.0.dim()], self.0.memory().class(0).to_vec())
    }

    fn deployment(&self) -> Option<&HdDeployEngine> {
        Some(&self.0)
    }
}

/// `SERVE_QUERIES` noisy prototypes, each sent packed and as INT8 and
/// held to `HdDeployEngine::try_predict_batch` on the decoded query.
fn query_cases(deploy: &HdDeployEngine, seed: u64) -> Vec<Case> {
    let mut bodies = Vec::new();
    for (row, label) in models::hd_queries(deploy.memory(), seed, SERVE_QUERIES) {
        let dims = [row.len()];
        bodies.push((RequestBody::packed_from(&dims, &row), label));
        bodies.push((RequestBody::int8_from(&dims, &row), label));
    }
    let queries: Vec<HdQuery> = bodies
        .iter()
        .map(|(body, _)| match HdQuery::from_body(body) {
            Ok(q) => q,
            Err(e) => panic!("locally built payload must decode: {e}"),
        })
        .collect();
    let expected = match deploy.try_predict_batch(&queries) {
        Ok(p) => p,
        Err(e) => panic!("oracle batch must score: {e}"),
    };
    bodies
        .into_iter()
        .zip(expected)
        .map(|((body, label), e)| Case { body, expected: e as u32, label: label as u32 })
        .collect()
}

/// The serve set-up: build the model, start the replicas and the
/// server.
fn serve_setup<S: Subject>() -> (S, Stack<S::Engine>) {
    let subject = S::build();
    let stack = Stack::start(subject.engine());
    (subject, stack)
}

fn serve_workload<S: Subject>(args: &Args) -> RunOut {
    let seconds = Duration::from_secs(args.seconds);
    let mut report = Vec::new();
    if !args.trace {
        let ((subject, stack), setups) =
            repeat_setup(serve_setup::<S>, |(_, stack): (S, Stack<S::Engine>)| stack.stop());
        let cases = subject.cases(args.seed);
        let traffic = serve::drive(stack.addr(), &cases, WARMUP, seconds, &mut || {});
        stack.stop();
        let rtt = Summary::of(&traffic.rtt_us);
        let better_rtt = Summary::of(&traffic.better_rtt_us());
        let setup_s = faster_half_mean(&setups).unwrap_or(0.0);
        let mut m = Metrics::default();
        m.put("throughput_per_s", "1/s", traffic.throughput());
        m.put("latency_p50_ms", "ms", better_rtt.as_ref().map_or(0.0, |s| s.p50 / 1e3));
        m.put("test_accuracy", "ratio", subject.accuracy(args.seed, &traffic));
        m.put("setup_s", "s", setup_s);
        m.put("peak_rss_mb", "MiB", record::peak_rss_mb());
        if let Some(s) = &better_rtt {
            report.push(format!("client RTT, better slices {}", s.describe(1e-3, "ms")));
        }
        if let Some(s) = &rtt {
            report.push(format!("client RTT, whole window {}", s.describe(1e-3, "ms")));
        }
        report.push(format!("replies per {:?} slice: {:?}", serve::SLICE, traffic.slices));
        report.push(format!(
            "set-ups: {} (faster half {:.3}s, median {:.3}s, min {:.3}s, max {:.3}s)",
            setups.len(),
            setup_s,
            median(&setups).unwrap_or(0.0),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ));
        report.push(format!(
            "replies {} ({} failed: {} wrong, {} error frames, {} transport), error rate {:.6}",
            traffic.tally.attempted(),
            traffic.tally.failed(),
            traffic.tally.wrong,
            traffic.tally.error_frames,
            traffic.tally.transport,
            traffic.tally.error_rate()
        ));
        return RunOut {
            tally: traffic.tally.clone(),
            metrics: m,
            report,
            samples: better_rtt.as_ref().map_or(0, |s| s.n),
        };
    }

    let (subject, stack) = serve_setup::<S>();
    let cases = subject.cases(args.seed);
    let half = seconds / 2;
    let untraced = serve::drive(stack.addr(), &cases, WARMUP, half, &mut || {});
    let traced = traced_serve(&subject, stack, &cases, half, Some(untraced.throughput()));
    let mut tally = untraced.tally.clone();
    tally.merge(&traced.traffic.tally);

    // Layers this workload does not use are probed on the reference
    // subjects, so every traced run reports the whole table.
    let reference;
    let serving = match subject.serving() {
        Some(serving) => serving,
        None => {
            reference = models::serving_model();
            &reference
        }
    };
    let reference_deploy;
    let deploy = match subject.deployment() {
        Some(deploy) => deploy,
        None => {
            reference_deploy = models::hd_deployment(ScoringMode::Packed);
            &reference_deploy
        }
    };
    let probe = probe_layers(serving, deploy, args.seed);
    let job = train::run_job(&train::inputs_for(&serving.teacher, REFERENCE_SEED));
    tally.note(job.outcome);
    let mut m = traced.metrics;
    put_train_metrics(&mut m, &[job]);
    m.put("hdc.resident_mb", "MiB", subject.resident_mb());
    finish_trace::<S>(&mut m, &mut report, &subject, &probe, &traced.split);
    RunOut { tally, metrics: m, report, samples: traced.traffic.rtt_us.len() }
}

/// The pieces of one request's round trip, all p50 in µs.
struct RttSplit {
    rtt: f64,
    outside_server: f64,
    runtime_self: f64,
}

struct TracedServe {
    traffic: Traffic,
    metrics: Metrics,
    split: RttSplit,
}

/// The traced half of a serve run: traffic with the recorder installed,
/// the runtime counters windowed around the measured part, then the
/// in-process `ReplicaSet::predict` probe. Stops the stack.
fn traced_serve<S: Subject>(
    subject: &S,
    stack: Stack<S::Engine>,
    cases: &[Case],
    measure: Duration,
    untraced_throughput: Option<f64>,
) -> TracedServe {
    let previous = nshd_obs::install(Recorder::new());
    let mut snapshots: Vec<ClusterMetrics> = Vec::new();
    let mut threads: f64 = 0.0;
    let traffic = serve::drive(stack.addr(), cases, WARMUP / 4, measure, &mut || {
        snapshots.push(stack.set.metrics());
        threads = threads.max(record::process_threads());
    });
    nshd_obs::install(previous);

    let inputs: Vec<S::Input> =
        cases.iter().filter_map(|c| S::Input::from_body(&c.body).ok()).collect();
    let predict_p50 = in_process_predict_p50(&stack, &inputs);
    let engine_b1 = engine_b1_us(subject.engine(), &inputs);
    let front = stack.front_metrics();
    stack.stop();

    let mut m = Metrics::default();
    let rtt = Summary::of(&traffic.rtt_us);
    let outside: Vec<f64> =
        traffic.rtt_us.iter().zip(&traffic.server_us).map(|(r, s)| r - s).collect();
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    let split = RttSplit {
        rtt: p50(&traffic.rtt_us),
        outside_server: p50(&outside),
        runtime_self: predict_p50 - engine_b1,
    };
    m.put("net.rtt_p50_us", "us", split.rtt);
    m.put("net.rtt_samples", "count", traffic.rtt_us.len() as f64);
    m.put("net.server_p50_us", "us", p50(&traffic.server_us));
    m.put("net.outside_server_p50_us", "us", split.outside_server);
    let requests = front.requests.max(1) as f64;
    m.put("net.bytes_in_per_req", "B", front.bytes_in as f64 / requests);
    m.put("net.bytes_out_per_req", "B", front.bytes_out as f64 / requests);
    m.put("net.process_threads", "count", threads);
    m.put("client.tail_latency_ms", "ms", rtt.as_ref().map_or(0.0, |s| s.tail / 1e3));
    m.put("client.tail_percentile", "%", rtt.as_ref().map_or(0.0, |s| s.tail_q * 100.0));
    m.put("client.error_rate", "ratio", traffic.tally.error_rate());

    let (open, close) = match snapshots.as_slice() {
        [a, b, ..] => (a.clone(), b.clone()),
        _ => panic!("the load generator marks the window twice"),
    };
    let served = |h: &[(usize, u64)], size_gt: usize| -> f64 {
        h.iter().filter(|(s, _)| *s > size_gt).map(|&(s, c)| (s as u64 * c) as f64).sum()
    };
    let window_hist: Vec<(usize, u64)> = close
        .rollup
        .batch_histogram
        .iter()
        .map(|&(s, c)| {
            let before = open.rollup.batch_histogram.iter().find(|h| h.0 == s).map_or(0, |h| h.1);
            (s, c - before)
        })
        .collect();
    let batches = (close.rollup.batches - open.rollup.batches).max(1) as f64;
    let batched = close.rollup.requests - open.rollup.requests;
    m.put("runtime.mean_batch", "count", batched as f64 / batches);
    m.put(
        "runtime.batched_share",
        "ratio",
        served(&window_hist, 1) / served(&window_hist, 0).max(1.0),
    );
    m.put("runtime.queue_wait_p50_us", "us", close.rollup.queue_wait.p50_us);
    m.put("runtime.execute_p50_us", "us", close.rollup.execute.p50_us);
    m.put("runtime.self_p50_us", "us", split.runtime_self);
    m.put("runtime.retries", "count", close.router.retries as f64);
    m.put("runtime.shed", "count", close.router.shed as f64);
    m.put("runtime.inflight_peak", "count", close.router.inflight_peak as f64);
    if let Some(base) = untraced_throughput {
        m.put("obs.trace_overhead_pct", "%", overhead_pct(base, traffic.throughput()));
    }
    TracedServe { traffic, metrics: m, split }
}

/// Slowdown of the traced run against the untraced one, in percent of
/// the traced throughput.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if traced > 0.0 {
        100.0 * (untraced / traced - 1.0)
    } else {
        0.0
    }
}

/// Sequential in-process `ReplicaSet::predict` calls (batch 1, no
/// network): p50 µs.
fn in_process_predict_p50<E>(stack: &Stack<E>, inputs: &[E::Input]) -> f64
where
    E: BatchEngine<Output = usize> + Clone,
    E::Input: WireInput + Clone,
{
    let mut next = inputs.iter().cycle();
    layers::time_us(|| next.next().cloned(), |input| input.map(|i| stack.set.predict(i)))
}

/// The engine's own time for one batch-1 request (both stages, called
/// directly): p50 µs over the same inputs.
fn engine_b1_us<E: BatchEngine<Output = usize>>(engine: &E, inputs: &[E::Input]) -> f64
where
    E::Input: Clone,
{
    let snapshot = engine.snapshot();
    let mut next = inputs.iter().cycle();
    layers::time_us(
        || next.next().cloned(),
        |input| {
            let input = input.map(|i| vec![i]).unwrap_or_default();
            engine.extract(&snapshot, &input).and_then(|p| engine.finish(&snapshot, p))
        },
    )
}

/// Runs the layer probes, with scoring queries drawn from `seed`.
fn probe_layers(serving: &ServingModel, deploy: &HdDeployEngine, seed: u64) -> LayerProbe {
    let queries: Vec<HdQuery> = query_cases(deploy, seed)
        .iter()
        .take(64)
        .filter_map(|c| HdQuery::from_body(&c.body).ok())
        .collect();
    layers::probe(serving, deploy, &queries)
}

/// The median training-stage timings of `jobs`.
fn put_train_metrics(m: &mut Metrics, jobs: &[Job]) {
    let med = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    m.put("train.prepare_s", "s", med(|j| j.prepare_s));
    m.put("train.epoch_s", "s", med(|j| j.epoch_s));
    m.put("train.eval_s", "s", med(|j| j.eval_s));
}

/// Adds the layer probe, the resident size and the closing RTT budget,
/// and writes the traced report.
fn finish_trace<S: Subject>(
    m: &mut Metrics,
    report: &mut Vec<String>,
    subject: &S,
    probe: &LayerProbe,
    split: &RttSplit,
) {
    let (dims, sample) = subject.decode_sample();
    let decode = layers::decode_us::<S::Input>(&dims, &sample);
    for (kind, us) in ["f32", "int8", "packed"].iter().zip(decode) {
        m.put(&format!("net.decode_{kind}_us"), "us", us);
    }
    let decode_mix = S::KINDS.iter().map(|&k| decode[k]).sum::<f64>() / S::KINDS.len() as f64;
    for metric in probe.metrics.iter() {
        m.put(&metric.name, metric.unit, metric.value);
    }
    let engine_b1 = if subject.serving().is_some() { probe.image_b1_us } else { probe.query_b1_us };
    let attributed = split.outside_server + decode_mix + split.runtime_self + engine_b1;
    m.put("budget.unattributed_p50_us", "us", split.rtt - attributed);
    report.extend(rtt_split_lines(split, decode_mix, engine_b1));
    report.extend(probe.roofline());
}

fn rtt_split_lines(split: &RttSplit, decode: f64, engine_b1: f64) -> Vec<String> {
    let rest = split.rtt - split.outside_server - decode - split.runtime_self - engine_b1;
    vec![
        format!("client RTT p50                  {:>10.1} us", split.rtt),
        format!("  outside the server (socket)   {:>10.1} us", split.outside_server),
        format!("  wire decode (mix mean)        {:>10.1} us", decode),
        format!("  runtime self (b1, in-process) {:>10.1} us", split.runtime_self),
        format!("  engine stages at batch 1      {:>10.1} us", engine_b1),
        format!("  unattributed (queueing etc.)  {:>10.1} us", rest),
    ]
}

fn train_workload(args: &Args) -> RunOut {
    let seconds = Duration::from_secs(args.seconds);
    let mut report = Vec::new();
    let mut tally = Tally::default();
    let run_jobs = |inputs: &TrainInputs, budget: Duration, tally: &mut Tally| -> Vec<Job> {
        let started = Instant::now();
        let mut jobs = Vec::new();
        while jobs.len() < 2 || started.elapsed() < budget {
            let job = train::run_job(inputs);
            tally.note(job.outcome);
            jobs.push(job);
        }
        jobs
    };
    // The faster half of the jobs, as for every other figure.
    let train_s = |jobs: &[Job]| {
        faster_half_mean(&jobs.iter().map(Job::train_s).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let samples_per_s =
        |jobs: &[Job]| (train::TRAIN_SAMPLES * train::EPOCHS) as f64 / train_s(jobs);
    if !args.trace {
        // Set-up and job alternate over the whole window, so the set-ups
        // meet the same phases of the machine's load as the jobs do.
        let started = Instant::now();
        let (mut setups, mut jobs) = (Vec::new(), Vec::new());
        while jobs.len() < TRAIN_ROUNDS || started.elapsed() < seconds {
            let t = Instant::now();
            let inputs = train::setup(args.seed);
            setups.push(t.elapsed().as_secs_f64());
            let job = train::run_job(&inputs);
            tally.note(job.outcome);
            jobs.push(job);
        }
        let job_ms: Vec<f64> = jobs.iter().map(|j| j.train_s() * 1e3).collect();
        let setup_s = faster_half_mean(&setups).unwrap_or(0.0);
        let mut m = Metrics::default();
        m.put("throughput_per_s", "1/s", samples_per_s(&jobs));
        m.put("latency_p50_ms", "ms", train_s(&jobs) * 1e3);
        m.put("test_accuracy", "ratio", jobs[0].accuracy);
        m.put("setup_s", "s", setup_s);
        m.put("peak_rss_mb", "MiB", record::peak_rss_mb());
        report.push(format!(
            "set-ups: {} (faster half {:.3}s, median {:.3}s, min {:.3}s, max {:.3}s)",
            setups.len(),
            setup_s,
            median(&setups).unwrap_or(0.0),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ));
        report.push(format!(
            "{} jobs of {} samples x {} epochs; train time per job: p50 {:.1}ms (n={}), each {:.0?}",
            jobs.len(),
            train::TRAIN_SAMPLES,
            train::EPOCHS,
            median(&job_ms).unwrap_or(0.0),
            jobs.len(),
            job_ms
        ));
        return RunOut { tally, metrics: m, report, samples: jobs.len() };
    }

    let inputs = train::setup(args.seed);
    let half = seconds / 2;
    let untraced = run_jobs(&inputs, half, &mut tally);
    let previous = nshd_obs::install(Recorder::new());
    let traced = run_jobs(&inputs, half, &mut tally);
    nshd_obs::install(previous);

    // No network path of its own: serve the reference model briefly so
    // the net and runtime layers are measured in this run too.
    let reference = ImageSubject::build();
    let stack = Stack::start(reference.engine());
    let cases = reference.cases(REFERENCE_SEED);
    let served = traced_serve(&reference, stack, &cases, REFERENCE_TRAFFIC, None);
    tally.merge(&served.traffic.tally);

    let deploy = models::hd_deployment(ScoringMode::Packed);
    let probe = probe_layers(&reference.0, &deploy, args.seed);
    let mut m = served.metrics;
    m.put(
        "obs.trace_overhead_pct",
        "%",
        overhead_pct(samples_per_s(&untraced), samples_per_s(&traced)),
    );
    put_train_metrics(&mut m, &traced);
    m.put("hdc.resident_mb", "MiB", train::resident_mb());
    finish_trace::<ImageSubject>(&mut m, &mut report, &reference, &probe, &served.split);
    report.push(format!(
        "train jobs: untraced {:.1} samples/s (n={}), traced {:.1} samples/s (n={})",
        samples_per_s(&untraced),
        untraced.len(),
        samples_per_s(&traced),
        traced.len()
    ));
    let p = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    report.push(format!(
        "train stages p50: prepare {:.3}s, epoch {:.3}s, eval {:.3}s (n={})",
        p(traced.iter().map(|j| j.prepare_s).collect()),
        p(traced.iter().map(|j| j.epoch_s).collect()),
        p(traced.iter().map(|j| j.eval_s).collect()),
        traced.len()
    ));
    let outcome_ok = traced.iter().all(|j| j.outcome == Outcome::Correct);
    report.push(format!("model.evaluate == engine.evaluate on every job: {outcome_ok}"));
    RunOut { tally, metrics: m, report, samples: served.traffic.rtt_us.len() }
}
