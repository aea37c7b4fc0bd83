//! Fusing N trained teachers into one symbolic consensus memory.
//!
//! The HD-Glue recipe (Sutor et al. 2022), adapted to the NSHD stack:
//!
//! 1. each teacher's penultimate-layer embeddings are standardised and
//!    pushed through a **per-teacher** random projection Φ_t into a
//!    shared D-dimensional hyperspace;
//! 2. per-sample hypervectors are **weight-bundled** across teachers —
//!    each teacher's vote counts proportionally to its standalone
//!    bundling accuracy on the fusion set — and re-binarised with
//!    deterministic tie-breaking;
//! 3. the fused hypervectors initialise one consensus
//!    [`AssociativeMemory`], then **error-correcting retraining**
//!    ([`OnlineTrainer`]) re-bundles every misclassified example until
//!    the counts converge (or the epoch budget runs out).

use nshd_core::{verify_ensemble, EmbeddingClassifier, FeatureScaler, Head, PipelineError};
use nshd_data::ImageDataset;
use nshd_hdc::{
    bundle_init, sign_with_tiebreak, AssociativeMemory, BipolarHv, EpochReport, OnlineTrainer,
    RandomProjection,
};
use nshd_tensor::Tensor;
use std::fmt;
use std::sync::Arc;

/// Knobs for [`GlueEnsemble::fuse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlueConfig {
    /// Shared hyperspace dimensionality D.
    pub hv_dim: usize,
    /// Base seed; each teacher's projection derives a distinct seed
    /// from it.
    pub seed: u64,
    /// Error-correcting retraining epoch budget over the fusion set.
    pub correction_epochs: usize,
    /// Learning rate of the error-correcting [`OnlineTrainer`].
    pub learning_rate: f32,
    /// Images per forward pass while embedding the fusion set.
    pub embed_chunk: usize,
}

impl Default for GlueConfig {
    fn default() -> Self {
        GlueConfig {
            hv_dim: 4096,
            seed: 0x617C,
            correction_epochs: 5,
            learning_rate: 0.2,
            embed_chunk: 64,
        }
    }
}

impl GlueConfig {
    /// Checks the configuration can fuse at all.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when a dimension, epoch count,
    /// or rate is unusable.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.hv_dim == 0 {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "hypervector dimension must be positive".into(),
            });
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        if self.embed_chunk == 0 {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "embedding chunk size must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Per-teacher summary of a fuse: the head's name, its standalone
/// (single-teacher bundling) accuracy on the fusion set, and the weight
/// it was admitted with.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadReport {
    /// The teacher's display name.
    pub name: String,
    /// Single-teacher bundling accuracy on the fusion set.
    pub standalone_accuracy: f32,
    /// Contribution weight in the fused bundle (equals the standalone
    /// accuracy).
    pub weight: f32,
}

/// Weighted fused encode: every head extracts and encodes the batch,
/// then [`consensus`] bundles their votes.
pub(crate) fn fuse_encode(
    heads: &[Arc<Head>],
    images: &[Tensor],
) -> Result<Vec<BipolarHv>, PipelineError> {
    let Some(first) = heads.first() else {
        return Err(PipelineError::Runtime {
            stage: "glue",
            detail: "ensemble has no teacher heads".into(),
        });
    };
    if images.is_empty() {
        return Ok(Vec::new());
    }
    let _sp = nshd_obs::span("glue_encode");
    let votes = heads
        .iter()
        .map(|head| Ok((head.weight(), head.encode(&head.extract(images)?)?)))
        .collect::<Result<Vec<_>, PipelineError>>()?;
    Ok(consensus(&votes, first.dim()))
}

/// Weighted consensus bundle: for each sample, every head's hypervector
/// adds `±weight` per component (in head order), and the accumulator
/// re-binarises with deterministic position-keyed tie-breaking. `votes`
/// holds one `(weight, per-sample hypervectors)` entry per head.
fn consensus(votes: &[(f32, Vec<BipolarHv>)], dim: usize) -> Vec<BipolarHv> {
    let samples = votes.first().map_or(0, |(_, hvs)| hvs.len());
    (0..samples)
        .map(|i| {
            let mut acc = vec![0.0f32; dim];
            for (weight, hvs) in votes {
                for (a, &c) in acc.iter_mut().zip(hvs[i].components()) {
                    // Multiplication-free weighted bundling by sign.
                    if c > 0 {
                        *a += weight;
                    } else {
                        *a -= weight;
                    }
                }
            }
            sign_with_tiebreak(&acc)
        })
        .collect()
}

/// A fused multi-teacher symbolic classifier: N teacher heads voting
/// into one consensus [`AssociativeMemory`].
///
/// Built by [`GlueEnsemble::fuse`]; served (with hot-swap and live
/// class growth) through [`GlueEngine`](crate::GlueEngine). Cloning is
/// cheap on the head side (`Arc` bumps) and deep-copies the memory, so
/// replicated serving can snapshot one fuse into several engines.
#[derive(Clone)]
pub struct GlueEnsemble {
    heads: Vec<Arc<Head>>,
    memory: AssociativeMemory,
    head_reports: Vec<HeadReport>,
    correction: Vec<EpochReport>,
}

impl fmt::Debug for GlueEnsemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlueEnsemble")
            .field("heads", &self.head_reports)
            .field("classes", &self.memory.num_classes())
            .field("dim", &self.memory.dim())
            .finish()
    }
}

impl GlueEnsemble {
    /// Fuses trained teachers into one consensus memory over `train`
    /// (the fusion set): per-teacher projections, accuracy-weighted
    /// bundling, then error-correcting retraining. Deterministic for a
    /// fixed teacher list, fusion set, and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for an empty teacher list,
    /// empty fusion set, or unusable configuration, and the first
    /// teacher error (shape mismatch, non-finite embeddings) otherwise.
    #[must_use = "fusing is expensive; discarding the ensemble wastes the work"]
    pub fn fuse(
        teachers: &[&dyn EmbeddingClassifier],
        train: &ImageDataset,
        config: &GlueConfig,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        if teachers.is_empty() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "cannot fuse an empty teacher list".into(),
            });
        }
        if train.is_empty() {
            return Err(PipelineError::EmptyBatch);
        }
        let _sp = nshd_obs::span("glue_fuse");
        let labels = train.labels();
        let num_classes = train.num_classes();
        let images: Vec<Tensor> = (0..train.len()).map(|i| train.images().batch_item(i)).collect();
        let mut heads = Vec::with_capacity(teachers.len());
        let mut head_reports = Vec::with_capacity(teachers.len());
        let mut votes: Vec<(f32, Vec<BipolarHv>)> = Vec::with_capacity(teachers.len());
        for (t, teacher) in teachers.iter().enumerate() {
            // Embed the fusion set once per teacher, in chunks so the
            // NCHW activations stay modest.
            let mut embeds: Vec<Tensor> = Vec::with_capacity(train.len());
            for chunk in images.chunks(config.embed_chunk) {
                let matrix = teacher.embed_batch(chunk)?;
                for b in 0..chunk.len() {
                    embeds.push(matrix.batch_item(b));
                }
            }
            let scaler = FeatureScaler::fit(&embeds);
            let embedding = teacher.embedding_dim();
            // Distinct per-teacher seeds: heads must not share a basis,
            // or their votes would be correlated instead of independent.
            let head_seed =
                config.seed.wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let projection = RandomProjection::new(embedding, config.hv_dim, head_seed);
            let encoder = projection.batch_encoder();
            let rows: Vec<Vec<f32>> =
                embeds.iter().map(|e| scaler.transform(e).as_slice().to_vec()).collect();
            let matrix = Tensor::from_rows(&rows)?;
            let hvs = encoder.encode_batch(&matrix);
            let samples: Vec<(BipolarHv, usize)> =
                hvs.iter().cloned().zip(labels.iter().copied()).collect();
            // The head's weight is its standalone bundling accuracy on
            // the fusion set: a teacher that cannot separate the classes
            // alone gets a proportionally quieter vote.
            let standalone = bundle_init(num_classes, config.hv_dim, &samples);
            let accuracy = standalone.accuracy(&samples);
            let (model, cut) = teacher.extractor();
            let head = Head::new(teacher.name(), model, cut, scaler, None, encoder, accuracy)?;
            head_reports.push(HeadReport {
                name: head.name().to_string(),
                standalone_accuracy: accuracy,
                weight: accuracy,
            });
            heads.push(Arc::new(head));
            votes.push((accuracy, hvs));
        }

        // Weighted consensus bundle per sample, re-binarised.
        let dim = config.hv_dim;
        let fused: Vec<(BipolarHv, usize)> =
            consensus(&votes, dim).into_iter().zip(labels.iter().copied()).collect();
        let mut memory = bundle_init(num_classes, dim, &fused);
        // Error-correcting retraining on the fused representatives:
        // every misclassified example strengthens its true class and
        // weakens the false winner, with per-epoch counts recorded.
        let trainer = OnlineTrainer::new(config.learning_rate);
        let correction = trainer.train(&mut memory, &fused, config.correction_epochs);
        let ensemble = GlueEnsemble { heads, memory, head_reports, correction };
        ensemble.verify()?;
        Ok(ensemble)
    }

    /// Statically verifies head/memory dimension agreement
    /// ([`nshd_core::verify_ensemble`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] naming the first violated
    /// invariant.
    pub fn verify(&self) -> Result<(), PipelineError> {
        let dims: Vec<_> = self.heads.iter().map(|h| h.dims()).collect();
        verify_ensemble(&dims, &self.memory).map_err(PipelineError::from)
    }

    /// The teacher heads, in fuse order.
    pub fn heads(&self) -> &[Arc<Head>] {
        &self.heads
    }

    /// The fused consensus memory.
    pub fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    /// Per-teacher fuse summaries (standalone accuracy and weight), in
    /// fuse order.
    pub fn head_reports(&self) -> &[HeadReport] {
        &self.head_reports
    }

    /// Per-epoch error-correction reports from the fuse, in order.
    pub fn correction(&self) -> &[EpochReport] {
        &self.correction
    }

    /// Number of classes the consensus memory predicts over.
    pub fn num_classes(&self) -> usize {
        self.memory.num_classes()
    }

    /// Weighted fused encoding of a batch of CHW images.
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn encode_fused(&self, images: &[Tensor]) -> Result<Vec<BipolarHv>, PipelineError> {
        fuse_encode(&self.heads, images)
    }

    /// Consensus predictions for a batch of CHW images.
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn predict_batch(&self, images: &[Tensor]) -> Result<Vec<usize>, PipelineError> {
        let hvs = self.encode_fused(images)?;
        Ok(self.memory.predict_batch(&hvs))
    }

    /// Consensus classification accuracy over a labelled dataset,
    /// scored in chunks through the batched path.
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn accuracy(&self, dataset: &ImageDataset) -> Result<f32, PipelineError> {
        if dataset.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for start in (0..dataset.len()).step_by(64) {
            let end = (start + 64).min(dataset.len());
            let images: Vec<Tensor> =
                (start..end).map(|i| dataset.images().batch_item(i)).collect();
            let preds = self.predict_batch(&images)?;
            correct += preds
                .iter()
                .zip(&dataset.labels()[start..end])
                .filter(|(p, label)| p == label)
                .count();
        }
        Ok(correct as f32 / dataset.len() as f32)
    }
}
