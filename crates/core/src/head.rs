//! The symbolization head `H = Φ_P(Ψ(conv(x)))`: one teacher's path
//! from images into hyperspace.
//!
//! A [`Head`] is the encoder half of every served model. [`NshdEngine`]
//! is one head in front of one deployed class memory; an `nshd-glue`
//! ensemble is several weighted heads voting into one. Each step of the
//! path lives here once: the input check, the truncated-CNN extraction
//! (scaling plus the optional manifold), and the batch encode to dense or
//! bit-packed hypervectors.
//!
//! [`NshdEngine`]: crate::NshdEngine

use crate::manifold::ManifoldLearner;
use crate::model::NshdModel;
use crate::robust::PipelineError;
use crate::scaler::FeatureScaler;
use crate::verify::{self, AnalysisReport, EnsembleDims};
use nshd_hdc::{AssociativeMemory, BatchEncoder, BipolarHv, PackedHv};
use nshd_nn::Model;
use nshd_tensor::{Tensor, TensorError};

/// An immutable, `Send + Sync` symbolization head: the teacher CNN
/// truncated at `cut`, the fitted per-feature standardisation, the
/// optional manifold learner Ψ, and the random-projection batch encoder
/// Φ_P, plus a display name and the weight the head's hypervectors carry
/// when several heads vote into one consensus bundle.
///
/// Nothing in a head mutates after construction; re-weighting builds a
/// new head ([`Head::with_weight`]).
#[derive(Clone)]
pub struct Head {
    name: String,
    teacher: Model,
    cut: usize,
    scaler: FeatureScaler,
    manifold: Option<ManifoldLearner>,
    encoder: BatchEncoder,
    weight: f32,
}

// Heads are shared across serving worker threads; fail the build if a
// field ever loses `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Head>();
};

impl Head {
    /// Assembles a head from its parts and statically verifies the
    /// chain: the cut is in range, the teacher's shapes infer, and the
    /// scaler, manifold and encoder widths agree with the extractor.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first misconfigured
    /// stage.
    #[must_use = "the head is the constructor's only product"]
    pub fn new(
        name: impl Into<String>,
        teacher: Model,
        cut: usize,
        scaler: FeatureScaler,
        manifold: Option<ManifoldLearner>,
        encoder: BatchEncoder,
        weight: f32,
    ) -> Result<Self, AnalysisReport> {
        let head = Head { name: name.into(), teacher, cut, scaler, manifold, encoder, weight };
        head.verify()?;
        Ok(head)
    }

    /// Snapshots an already-verified model's head (weight 1).
    pub(crate) fn from_model(model: &NshdModel) -> Self {
        Head {
            name: model.teacher().name.clone(),
            teacher: model.teacher().clone(),
            cut: model.config().cut,
            scaler: model.scaler().clone(),
            manifold: model.manifold().cloned(),
            encoder: model.projection().batch_encoder(),
            weight: 1.0,
        }
    }

    /// Display name (the teacher's).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight this head's hypervectors carry in a fused bundle.
    pub fn weight(&self) -> f32 {
        self.weight
    }

    /// HD dimension the head's projection emits.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// The head's width summary for [`crate::verify_ensemble`].
    pub fn dims(&self) -> EnsembleDims {
        EnsembleDims {
            embedding: self.teacher.feature_len_at(self.cut),
            features: self.encoder.features(),
            dim: self.encoder.dim(),
            weight: self.weight,
        }
    }

    /// Re-checks the head's own hand-offs: extractor shapes and
    /// eval-readiness, then scaler, manifold and projection widths.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first inconsistent
    /// stage.
    pub(crate) fn verify(&self) -> Result<(), AnalysisReport> {
        let feat_shape = verify::verify_extractor(&self.teacher, self.cut)?;
        verify::verify_head(
            &feat_shape,
            self.scaler.len(),
            self.manifold.as_ref(),
            self.encoder.features(),
        )
    }

    /// Checks a class memory this head feeds directly: its width is the
    /// head's D, it is healthy, and it holds the teacher's classes.
    pub(crate) fn verify_memory(&self, memory: &AssociativeMemory) -> Result<(), AnalysisReport> {
        verify::verify_memory_fit(memory, self.encoder.dim(), self.teacher.num_classes)
    }

    /// CNN feature extraction: checks every image's shape and
    /// finiteness, stacks them into one NCHW batch, runs the truncated
    /// teacher once, then standardises and (optionally)
    /// manifold-compresses each sample into one value row.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when an image's shape differs
    /// from the teacher's input shape, and
    /// [`PipelineError::NonFiniteActivation`] when images or extracted
    /// values contain NaN/∞ (which would poison the argmax downstream).
    pub fn extract(&self, images: &[Tensor]) -> Result<Vec<Vec<f32>>, PipelineError> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = nshd_obs::span("extract");
        for image in images {
            if image.dims() != self.teacher.input_shape {
                return Err(TensorError::IncompatibleShapes {
                    lhs: self.teacher.input_shape.clone(),
                    rhs: image.dims().to_vec(),
                }
                .into());
            }
            // ReLU washes NaN inputs to zero, so poisoned images must be
            // caught here rather than at the output check below.
            if image.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(PipelineError::NonFiniteActivation { stage: "head input" });
            }
        }
        let batch = Tensor::stack(images)?;
        let feats = self.teacher.infer_features_at(&batch, self.cut);
        let values: Vec<Vec<f32>> = (0..images.len())
            .map(|b| {
                let feat = self.scaler.transform(&feats.batch_item(b));
                match &self.manifold {
                    Some(m) => m.forward(&feat).1,
                    None => feat.as_slice().to_vec(),
                }
            })
            .collect();
        if values.iter().flatten().any(|v| !v.is_finite()) {
            return Err(PipelineError::NonFiniteActivation { stage: "head feature extraction" });
        }
        Ok(values)
    }

    /// Encodes value rows into bipolar hypervectors with one dense GEMM,
    /// bit-identical to the bit-serial per-sample encoder.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when rows differ in length or
    /// don't match the projection's feature width.
    pub fn encode(&self, values: &[Vec<f32>]) -> Result<Vec<BipolarHv>, PipelineError> {
        match self.values_matrix(values)? {
            None => Ok(Vec::new()),
            Some(matrix) => {
                let _sp = nshd_obs::span("encode");
                Ok(self.encoder.encode_batch(&matrix))
            }
        }
    }

    /// [`Head::encode`] emitting bit-packed sign words directly: row `i`
    /// equals `encode(values)?[i].to_packed()` exactly, but no dense ±1
    /// hypervector is materialised.
    ///
    /// # Errors
    ///
    /// Same contract as [`Head::encode`].
    pub fn encode_packed(&self, values: &[Vec<f32>]) -> Result<Vec<PackedHv>, PipelineError> {
        match self.values_matrix(values)? {
            None => Ok(Vec::new()),
            Some(matrix) => {
                let _sp = nshd_obs::span("encode");
                Ok(self.encoder.encode_batch_packed(&matrix))
            }
        }
    }

    /// Validates value rows against the projection's feature width and
    /// stacks them into the `N×F` GEMM operand (`None` for an empty
    /// batch), so both encode paths reject malformed rows identically.
    fn values_matrix(&self, values: &[Vec<f32>]) -> Result<Option<Tensor>, PipelineError> {
        if values.is_empty() {
            return Ok(None);
        }
        let features = self.encoder.features();
        if let Some(row) = values.iter().find(|row| row.len() != features) {
            return Err(TensorError::IncompatibleShapes {
                lhs: vec![features],
                rhs: vec![row.len()],
            }
            .into());
        }
        Ok(Some(Tensor::from_rows(values)?))
    }

    /// Clone of this head with a different contribution weight; the
    /// original (possibly published in a serving snapshot) is untouched.
    pub fn with_weight(&self, weight: f32) -> Head {
        Head { weight, ..self.clone() }
    }
}

impl std::fmt::Debug for Head {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Head")
            .field("name", &self.name)
            .field("cut", &self.cut)
            .field("manifold", &self.manifold.is_some())
            .field("dim", &self.encoder.dim())
            .field("weight", &self.weight)
            .finish()
    }
}
