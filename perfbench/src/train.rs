//! The NSHD training job: `NshdTrainer::prepare`, E epochs, then
//! `NshdModel::evaluate`, checked against `NshdEngine::evaluate`.

use crate::models::{self, CUT};
use crate::stats::Outcome;
use nshd_core::{NshdConfig, NshdEngine, NshdTrainer};
use nshd_data::ImageDataset;
use nshd_nn::Model;
use std::time::Instant;

/// Training samples per job.
pub const TRAIN_SAMPLES: usize = 128;
/// Retraining epochs per job.
pub const EPOCHS: usize = 3;

/// The job's inputs: a trained teacher and the data drawn from the seed.
pub struct TrainInputs {
    /// Teacher CNN (trained during set-up).
    pub teacher: Model,
    /// The `TRAIN_SAMPLES` images NSHD trains on.
    pub train: ImageDataset,
    /// Held-out images.
    pub test: ImageDataset,
}

/// The set-up: trains the teacher, then draws the training and test
/// images from `seed`.
pub fn setup(seed: u64) -> TrainInputs {
    inputs_for(&models::teacher(), seed)
}

/// The job's inputs for an already trained teacher.
pub fn inputs_for(teacher: &models::Teacher, seed: u64) -> TrainInputs {
    let (train, test) = models::inputs(teacher, seed, TRAIN_SAMPLES, models::TEST_IMAGES);
    TrainInputs { teacher: teacher.model.clone(), train, test }
}

/// Timings and result of one job.
pub struct Job {
    /// `NshdTrainer::prepare`, seconds.
    pub prepare_s: f64,
    /// Mean seconds per epoch.
    pub epoch_s: f64,
    /// `NshdModel::evaluate`, seconds.
    pub eval_s: f64,
    /// Test accuracy.
    pub accuracy: f64,
    /// Whether the model's and the engine's evaluation agree.
    pub outcome: Outcome,
}

impl Job {
    /// Wall time of prepare plus epochs.
    pub fn train_s(&self) -> f64 {
        self.prepare_s + self.epoch_s * EPOCHS as f64
    }
}

/// Projection basis plus class memory of the trained model, from the
/// configuration's shapes, in MiB (dense scoring compiles no backend).
pub fn resident_mb() -> f64 {
    let config = NshdConfig::new(CUT);
    let classes = 10;
    4.0 * ((config.manifold_features + classes) * config.hv_dim) as f64 / (1024.0 * 1024.0)
}

/// Runs one job with the paper's defaults (`NshdConfig::new`: manifold
/// F̂ = 100, KD α = 0.3, D = 3000) and `EPOCHS` epochs.
pub fn run_job(inputs: &TrainInputs) -> Job {
    let config =
        NshdConfig::new(CUT).with_retrain_epochs(EPOCHS).with_seed(models::MODEL_SEED ^ 0x51);
    let teacher = inputs.teacher.clone();
    let t0 = Instant::now();
    let mut trainer = NshdTrainer::prepare(teacher, &inputs.train, config);
    let t1 = Instant::now();
    for _ in 0..EPOCHS {
        trainer.epoch();
    }
    let t2 = Instant::now();
    let model = trainer.finish();
    let accuracy = f64::from(model.evaluate(&inputs.test));
    let t3 = Instant::now();
    let outcome = match NshdEngine::new(&model) {
        Ok(engine) if f64::from(engine.evaluate(&inputs.test)) == accuracy => Outcome::Correct,
        _ => Outcome::Wrong,
    };
    Job {
        prepare_s: (t1 - t0).as_secs_f64(),
        epoch_s: (t2 - t1).as_secs_f64() / EPOCHS as f64,
        eval_s: (t3 - t2).as_secs_f64(),
        accuracy,
        outcome,
    }
}
