//! The engine abstraction the runtime batches over, and its
//! implementation for the NSHD pipeline.

use nshd_core::{HdDeployEngine, NshdEngine, PipelineError};
use nshd_hdc::{HdQuery, QueryHv};
use nshd_tensor::Tensor;
use std::sync::Arc;

/// A two-stage batch-inference engine the serving runtime can drive.
///
/// The split mirrors how batched NSHD inference parallelises:
///
/// - [`extract`](BatchEngine::extract) is the **data-parallel** stage.
///   The runtime may slice one collected batch into chunks and run
///   `extract` concurrently on several workers; each chunk's partials
///   are independent of every other chunk.
/// - [`finish`](BatchEngine::finish) is the **batch-level** stage, run
///   once over the reassembled partials of the whole batch (in
///   submission order) — for NSHD this is where the single encode GEMM
///   and the single memory `matmul_bt` happen.
///
/// Both stages report failures as [`PipelineError`] instead of
/// panicking: a malformed request must fail *that request's* handle,
/// not kill a worker thread. [`verify`](BatchEngine::verify) runs once
/// at [`InferenceRuntime`](crate::InferenceRuntime) construction so a
/// misconfigured engine is rejected before any thread is spawned.
///
/// Implementations must be `Send + Sync`: one engine instance is shared
/// by reference across every worker thread.
pub trait BatchEngine: Send + Sync + 'static {
    /// One inference request's payload.
    type Input: Send + 'static;
    /// Per-sample intermediate produced by the data-parallel stage.
    type Partial: Send + 'static;
    /// Per-sample final answer.
    type Output: Send + 'static;
    /// The immutable state one batch is served against. Engines whose
    /// state never changes mid-traffic use `()`; hot-swappable engines
    /// (like `nshd-glue`'s ensemble) publish a copy-on-write snapshot
    /// here. The runtime pins **exactly one** snapshot per batch
    /// ([`snapshot`](BatchEngine::snapshot) is called once, before the
    /// extract stage) and threads it through both stages, so a
    /// concurrent swap never produces a torn batch: every request in a
    /// batch is answered by the snapshot current at batch start.
    type Snapshot: Send + Sync + 'static;

    /// Pins the engine state one batch will be served against. Called
    /// once per batch, before [`extract`](BatchEngine::extract); the
    /// same snapshot is handed to every chunk of the batch and to
    /// [`finish`](BatchEngine::finish).
    fn snapshot(&self) -> Arc<Self::Snapshot>;

    /// Processes a chunk of inputs into one partial per input, in
    /// order. Must be pure with respect to chunking: splitting a batch
    /// differently must not change any sample's partial.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the chunk cannot be processed
    /// (malformed inputs); the runtime fails every handle in the batch
    /// with a clone of the error.
    fn extract(
        &self,
        snapshot: &Self::Snapshot,
        chunk: &[Self::Input],
    ) -> Result<Vec<Self::Partial>, PipelineError>;

    /// Turns the whole batch's partials (submission order) into one
    /// output per partial, in the same order.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the batch cannot be completed;
    /// the runtime fails every handle in the batch with a clone of the
    /// error.
    fn finish(
        &self,
        snapshot: &Self::Snapshot,
        partials: Vec<Self::Partial>,
    ) -> Result<Vec<Self::Output>, PipelineError>;

    /// Static self-check run once before the runtime spawns any thread.
    /// The default accepts everything; engines with internal invariants
    /// (like [`NshdEngine`]'s stage dimensions) override it.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] describing why the engine must not
    /// be served.
    fn verify(&self) -> Result<(), PipelineError> {
        Ok(())
    }
}

/// NSHD serving: inputs are CHW image tensors, the data-parallel stage
/// is truncated-CNN feature extraction (+ scaling + manifold), and the
/// batch-level stage is the GEMM encode plus associative-memory scoring.
impl BatchEngine for NshdEngine {
    type Input = Tensor;
    type Partial = Vec<f32>;
    type Output = usize;
    // The NSHD pipeline's state is immutable once constructed.
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn extract(&self, _snapshot: &(), chunk: &[Tensor]) -> Result<Vec<Vec<f32>>, PipelineError> {
        self.try_extract_values(chunk)
    }

    fn finish(&self, _snapshot: &(), partials: Vec<Vec<f32>>) -> Result<Vec<usize>, PipelineError> {
        self.try_finish_values(&partials)
    }

    fn verify(&self) -> Result<(), PipelineError> {
        NshdEngine::verify(self).map_err(PipelineError::from)
    }
}

/// Quantised HD serving: inputs arrive *already encoded* in any
/// `nshd-wire/v1` payload form ([`HdQuery`]), the data-parallel stage is
/// per-query sign extraction in the native representation (no
/// densifying), and the batch-level stage is one scoring GEMM through
/// the deployment's compiled backend (popcount / INT8 / dense).
impl BatchEngine for HdDeployEngine {
    type Input = HdQuery;
    type Partial = QueryHv;
    type Output = usize;
    // The compiled deployment is immutable once constructed.
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn extract(&self, _snapshot: &(), chunk: &[HdQuery]) -> Result<Vec<QueryHv>, PipelineError> {
        self.try_sign(chunk)
    }

    fn finish(&self, _snapshot: &(), partials: Vec<QueryHv>) -> Result<Vec<usize>, PipelineError> {
        self.try_score(partials)
    }

    fn verify(&self) -> Result<(), PipelineError> {
        HdDeployEngine::verify(self).map_err(PipelineError::from)
    }
}
