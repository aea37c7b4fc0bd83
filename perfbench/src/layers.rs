//! Per-layer probes for the traced run: each crate's public functions
//! timed from the benchmark's own code at the shapes the workloads use,
//! plus the achieved GFLOP/s of every compute stage against the serial
//! GEMM ceiling.

use crate::models::{ServingModel, CUT};
use crate::stats::{median, Metrics};
use nshd_core::HdDeployEngine;
use nshd_hdc::{HdQuery, RandomProjection, ScoringBackend};
use nshd_net::{Frame, RequestBody, WireInput};
use nshd_nn::Mode;
use nshd_tensor::{im2col, matmul, par, ConvGeometry, Rng, Tensor};
use std::time::{Duration, Instant};

/// Time each probe runs for (it stops earlier at `MAX_REPS`).
const PROBE_BUDGET: Duration = Duration::from_millis(200);
/// Calls every probe makes at least.
const MIN_REPS: usize = 5;
/// Calls every probe makes at most.
const MAX_REPS: usize = 20_000;

/// Median wall time in µs of `run` on fresh inputs from `make` (built
/// outside the timed region), after one untimed warm-up call.
pub fn time_us<I, O>(mut make: impl FnMut() -> I, mut run: impl FnMut(I) -> O) -> f64 {
    std::hint::black_box(run(make()));
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || (started.elapsed() < PROBE_BUDGET && samples.len() < MAX_REPS)
    {
        let input = make();
        let t = Instant::now();
        let out = run(input);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    median(&samples).unwrap_or(0.0)
}

/// Median µs of `Frame::decode` plus `WireInput::from_body` for each
/// payload kind of `sample`, in the order f32, INT8, packed.
pub fn decode_us<I: WireInput>(dims: &[usize], sample: &[f32]) -> [f64; 3] {
    let bodies = [
        RequestBody::f32_from(dims, sample),
        RequestBody::int8_from(dims, sample),
        RequestBody::packed_from(dims, sample),
    ];
    bodies.map(|body| {
        let bytes = Frame::Request { id: 1, body }.encode();
        time_us(
            || (),
            |()| match Frame::decode(&bytes) {
                Ok((Frame::Request { body, .. }, _)) => I::from_body(&body).is_ok(),
                _ => false,
            },
        )
    })
}

/// One compute stage's achieved rate, for the roofline table.
pub struct Stage {
    /// Stage label.
    pub name: String,
    /// Median time per call in µs.
    pub us: f64,
    /// Floating-point operations per call (dense-equivalent for the
    /// packed and INT8 scorers).
    pub flops: f64,
    /// Operand bytes per call, computed from tensor shapes.
    pub bytes: f64,
}

impl Stage {
    fn gflops(&self) -> f64 {
        self.flops / (self.us * 1e3)
    }
}

/// Everything the layer probes measured.
pub struct LayerProbe {
    /// Metrics named by crate.
    pub metrics: Metrics,
    /// Compute stages for the roofline table.
    pub stages: Vec<Stage>,
    /// Engine time of one batch-1 image request (extract + encode +
    /// score), µs.
    pub image_b1_us: f64,
    /// Engine time of one batch-1 pre-encoded query (sign + packed
    /// score), µs.
    pub query_b1_us: f64,
}

impl LayerProbe {
    /// The roofline table: each stage's GFLOP/s against the serial GEMM
    /// peak, with operand bytes computed from shapes.
    pub fn roofline(&self) -> Vec<String> {
        let peak = self.metrics.get("tensor.gemm_peak_gflops").unwrap_or(0.0);
        let mut lines = vec![format!(
            "{:<24} {:>10} {:>9} {:>8} {:>12} {:>9}",
            "stage", "us/call", "GFLOP/s", "of peak", "bytes(shape)", "GB/s"
        )];
        for s in &self.stages {
            lines.push(format!(
                "{:<24} {:>10.1} {:>9.2} {:>7.1}% {:>12.0} {:>9.2}",
                s.name,
                s.us,
                s.gflops(),
                if peak > 0.0 { 100.0 * s.gflops() / peak } else { 0.0 },
                s.bytes,
                s.bytes / (s.us * 1e3)
            ));
        }
        lines.push(format!("serial GEMM ceiling (512^3, 1 thread): {peak:.2} GFLOP/s"));
        lines
    }
}

/// Times the `nshd-core`, `nshd-nn`, `nshd-tensor` and `nshd-hdc`
/// layers: the image path on the serving-profile engine, scoring on the
/// 100-class D = 10,000 deployment, encoding at the training shape.
pub fn probe(serving: &ServingModel, deploy: &HdDeployEngine, queries: &[HdQuery]) -> LayerProbe {
    let mut m = Metrics::default();
    let mut stages = Vec::new();
    let engine = &serving.engine;
    let images: Vec<Tensor> = (0..32).map(|i| serving.teacher.train.sample(i).0).collect();
    let teacher = serving.model.teacher();
    let extract_flops = 2.0 * teacher.macs_to_cut(CUT) as f64;
    let (features, dim) = (teacher.feature_len_at(CUT), serving.model.config().hv_dim);
    let classes = engine.num_classes();

    // nshd-core: the three engine stages at batch 1 and 16.
    let mut image_b1_us = 0.0;
    for b in [1usize, 16] {
        let batch = &images[..b];
        let extract = time_us(|| (), |()| engine.try_extract_values(batch));
        let values = match engine.try_extract_values(batch) {
            Ok(v) => v,
            Err(e) => panic!("probe images must extract: {e}"),
        };
        let encode = time_us(|| (), |()| engine.try_encode_values(&values));
        let hvs = engine.encode_values(&values);
        let score =
            time_us(|| (), |()| ScoringBackend::Dense.predict_bipolar(engine.memory(), &hvs));
        m.put(&format!("core.extract_b{b}_us"), "us", extract);
        m.put(&format!("core.encode_b{b}_us"), "us", encode);
        m.put(&format!("core.score_b{b}_us"), "us", score);
        let bf = b as f64;
        stages.push(Stage {
            name: format!("core.extract b{b}"),
            us: extract,
            flops: extract_flops * bf,
            bytes: 4.0 * bf * (3.0 * 32.0 * 32.0 + features as f64),
        });
        stages.push(Stage {
            name: format!("core.encode b{b}"),
            us: encode,
            flops: 2.0 * bf * (features * dim) as f64,
            bytes: 4.0 * (bf * features as f64 + (features * dim) as f64 + bf * dim as f64),
        });
        stages.push(Stage {
            name: format!("core.score b{b}"),
            us: score,
            flops: 2.0 * bf * (classes * dim) as f64,
            bytes: bf * dim as f64 + 4.0 * (classes * dim) as f64,
        });
        if b == 1 {
            image_b1_us = extract + encode + score;
        }
    }

    // nshd-hdc: sign extraction and scoring on the pre-encoded deployment.
    let (hd_classes, hd_dim) = (deploy.num_classes() as f64, deploy.dim() as f64);
    let packed_queries: Vec<HdQuery> =
        queries.iter().filter(|q| matches!(q, HdQuery::Packed(_))).take(16).cloned().collect();
    let int8_queries: Vec<HdQuery> =
        queries.iter().filter(|q| matches!(q, HdQuery::Int8(_))).take(16).cloned().collect();
    let signs = |d: &HdDeployEngine, q: &[HdQuery]| match d.try_sign(q) {
        Ok(s) => s,
        Err(e) => panic!("probe queries must sign: {e}"),
    };
    let sign_b1 = time_us(|| (), |()| deploy.try_sign(&packed_queries[..1]));
    m.put("hdc.sign_b1_us", "us", sign_b1);
    let int8_deploy = HdDeployEngine::new(deploy.memory().clone(), nshd_hdc::ScoringMode::Int8);
    let mut query_b1_us = sign_b1;
    for (name, d, q, b) in [
        ("hdc.score_packed_b1_us", deploy, &packed_queries, 1usize),
        ("hdc.score_packed_b16_us", deploy, &packed_queries, 16),
        ("hdc.score_int8_b16_us", &int8_deploy, &int8_queries, 16),
    ] {
        let us = time_us(|| signs(d, &q[..b]), |s| d.try_score(s));
        m.put(name, "us", us);
        let bf = b as f64;
        let bytes = if name.contains("int8") {
            bf * hd_dim + hd_classes * hd_dim
        } else {
            (bf + hd_classes) * hd_dim / 8.0
        };
        stages.push(Stage {
            name: name.trim_start_matches("hdc.").trim_end_matches("_us").replace('_', " "),
            us,
            flops: 2.0 * bf * hd_classes * hd_dim,
            bytes,
        });
        if b == 1 {
            query_b1_us += us;
        }
    }
    // Bit-serial encode of one training row at the training shape
    // (F̂ = 100 → D = 3000).
    let projection = RandomProjection::new(100, 3_000, 0x9e);
    let mut rng = Rng::new(0x9f);
    let row: Vec<f32> = (0..100).map(|_| rng.normal()).collect();
    let encode_sample = time_us(|| (), |()| projection.encode(&row));
    m.put("hdc.encode_sample_us", "us", encode_sample);
    stages.push(Stage {
        name: "hdc.encode sample".into(),
        us: encode_sample,
        flops: 2.0 * 100.0 * 3_000.0,
        bytes: 4.0 * 100.0 + 100.0 * 3_000.0 / 8.0 + 3_000.0,
    });

    // nshd-nn: the truncated teacher on a batch of 32.
    let batch32 = match Tensor::stack(&images) {
        Ok(t) => t,
        Err(e) => panic!("probe batch must stack: {e}"),
    };
    let mut teacher = teacher.clone();
    let features_us = time_us(|| (), |()| teacher.features_at(&batch32, CUT, Mode::Eval));
    m.put("nn.features_b32_ms", "ms", features_us / 1e3);
    stages.push(Stage {
        name: "nn.features b32".into(),
        us: features_us,
        flops: 32.0 * extract_flops,
        bytes: 4.0 * 32.0 * (3.0 * 32.0 * 32.0 + features as f64),
    });

    // nshd-tensor: GEMM at the encode shape, the serial ceiling, im2col.
    let mut rng = Rng::new(0xa1);
    let mut random = |r: usize, c: usize| Tensor::from_fn([r, c], |_| rng.normal());
    let basis = random(features, dim);
    for b in [1usize, 16] {
        let a = random(b, features);
        let us = time_us(|| (), |()| matmul(&a, &basis));
        let flops = 2.0 * (b * features * dim) as f64;
        m.put(&format!("tensor.matmul_b{b}_gflops"), "GFLOP/s", flops / (us * 1e3));
        stages.push(Stage {
            name: format!("tensor.matmul b{b}"),
            us,
            flops,
            bytes: 4.0 * (b * features + features * dim + b * dim) as f64,
        });
    }
    let (x, y) = (random(512, 512), random(512, 512));
    let peak_us = par::with_threads(1, || time_us(|| (), |()| matmul(&x, &y)));
    m.put("tensor.gemm_peak_gflops", "GFLOP/s", 2.0 * 512f64.powi(3) / (peak_us * 1e3));
    let geometry = ConvGeometry {
        channels: 3,
        height: 32,
        width: 32,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let im2col_us = time_us(
        || (),
        |()| images[..16].iter().map(|img| im2col(img.as_slice(), &geometry).len()).sum::<usize>(),
    );
    m.put("tensor.im2col_b16_us", "us", im2col_us);
    LayerProbe { metrics: m, stages, image_b1_us, query_b1_us }
}
