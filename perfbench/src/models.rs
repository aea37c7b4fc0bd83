//! The models and inputs the workloads serve and train, all built from
//! seeds so the same seed gives the same inputs.

use nshd_core::{HdDeployEngine, NshdConfig, NshdEngine, NshdModel};
use nshd_data::{ImageDataset, Normalizer, SynthSpec};
use nshd_hdc::{AssociativeMemory, ScoringMode};
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
    TrainConfig,
};
use nshd_tensor::Rng;

/// Layers kept from the teacher: conv → ReLU → max-pool, an 8×16×16
/// feature map (F = 2048 values).
pub const CUT: usize = 3;
/// Serving profile hypervector width.
const SERVE_HV_DIM: usize = 2_048;
/// Images the serving model is trained on. The serving cost does not
/// depend on it; it only bounds how long the model takes to build.
const SERVE_TRAIN: usize = 64;
/// Images the teacher CNN is trained on.
const TEACHER_TRAIN: usize = 400;
/// Teacher training epochs.
const TEACHER_EPOCHS: usize = 4;
/// Held-out images the accuracy of a model is measured on.
pub const TEST_IMAGES: usize = 600;
/// Classes of the pre-encoded deployment.
const HD_CLASSES: usize = 100;
/// Hypervector width of the pre-encoded deployment.
const HD_DIM: usize = 10_000;

/// The tiny conv teacher every serving bench uses.
fn tiny_teacher(rng: &mut Rng) -> Model {
    let features = Sequential::new()
        .with(Conv2d::new(3, 8, 3, 1, 1, rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier = Sequential::new().with(Flatten::new()).with(Linear::new(8 * 16 * 16, 10, rng));
    Model {
        name: "net-tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    }
}

/// Seed of everything that is part of the program rather than its
/// input: the teacher's training data, the teacher, the serving model.
/// The workload seed only draws the inputs.
pub const MODEL_SEED: u64 = 0x5eed_0071;

/// The trained teacher and the data it was trained on.
pub struct Teacher {
    /// The trained CNN.
    pub model: Model,
    /// Its (normalised) training images.
    pub train: ImageDataset,
    /// The normalisation fitted on them, applied to every input.
    pub normalizer: Normalizer,
}

/// Trains the teacher on `TEACHER_TRAIN` fixed-seed Synth10 images.
pub fn teacher() -> Teacher {
    let (mut train, _) = SynthSpec::synth10(MODEL_SEED).with_sizes(TEACHER_TRAIN, 1).generate();
    let normalizer = Normalizer::fit(&train);
    normalizer.apply(&mut train);
    let mut model = tiny_teacher(&mut Rng::new(MODEL_SEED ^ 0x7ea));
    fit(
        &mut model,
        train.images(),
        train.labels(),
        &mut Adam::new(2e-3, 1e-5),
        &TrainConfig {
            epochs: TEACHER_EPOCHS,
            batch_size: 32,
            seed: MODEL_SEED ^ 0x9,
            ..TrainConfig::default()
        },
    );
    Teacher { model, train, normalizer }
}

/// Synth10 inputs drawn from `seed` — `(train, test)` of the given sizes
/// — normalised like the teacher's data.
pub fn inputs(
    teacher: &Teacher,
    seed: u64,
    train: usize,
    test: usize,
) -> (ImageDataset, ImageDataset) {
    let (mut train, mut test) = SynthSpec::synth10(seed).with_sizes(train.max(1), test).generate();
    teacher.normalizer.apply(&mut train);
    teacher.normalizer.apply(&mut test);
    (train, test)
}

/// The first `n` samples of `data`.
fn head(data: &ImageDataset, n: usize) -> ImageDataset {
    data.take(n.min(data.len()))
}

/// The serving profile: tiny teacher cut at layer 3, manifold off,
/// F = D = 2048, dense scoring, one retraining epoch.
pub struct ServingModel {
    /// The trained model (the correctness oracle).
    pub model: NshdModel,
    /// Its serving snapshot.
    pub engine: NshdEngine,
    /// The teacher it was built from.
    pub teacher: Teacher,
}

/// Builds the serving-profile model (fixed seed: it is the program).
pub fn serving_model() -> ServingModel {
    let teacher = teacher();
    let cfg = NshdConfig::new(CUT)
        .with_hv_dim(SERVE_HV_DIM)
        .with_manifold(false)
        .with_retrain_epochs(1)
        .with_seed(MODEL_SEED ^ 0x13);
    let model = NshdModel::train(teacher.model.clone(), &head(&teacher.train, SERVE_TRAIN), cfg);
    let engine = match NshdEngine::new(&model) {
        Ok(engine) => engine,
        Err(report) => panic!("serving model failed verification: {report}"),
    };
    ServingModel { model, engine, teacher }
}

/// `n` seeded ±1 vectors of width `dim`.
fn bipolar_rows(rng: &mut Rng, n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..dim).map(|_| if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 }).collect())
        .collect()
}

/// The pre-encoded deployment: 100 random ±1 class prototypes of width
/// 10,000, compiled for `mode`. The prototypes are fixed (they are the
/// model); only the queries depend on the workload seed.
pub fn hd_deployment(mode: ScoringMode) -> HdDeployEngine {
    let rows = bipolar_rows(&mut Rng::new(0x4d_5eed), HD_CLASSES, HD_DIM);
    HdDeployEngine::new(AssociativeMemory::from_classes(rows), mode)
}

/// `n` labelled queries: class prototypes (class `i % classes`) with a
/// seeded 20% of components flipped.
pub fn hd_queries(memory: &AssociativeMemory, seed: u64, n: usize) -> Vec<(Vec<f32>, usize)> {
    let mut rng = Rng::new(seed ^ QUERY_SALT);
    (0..n)
        .map(|i| {
            let class = i % memory.num_classes();
            let row: Vec<f32> = memory
                .class(class)
                .iter()
                .map(|&v| if rng.next_u64().is_multiple_of(5) { -v } else { v })
                .collect();
            (row, class)
        })
        .collect()
}

/// Salt separating the query stream from other uses of the seed.
const QUERY_SALT: u64 = 0xf11b;
