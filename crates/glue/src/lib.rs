//! # nshd-glue — HD-Glue multi-teacher symbolic fusion
//!
//! Fuses N trained teachers (anything implementing
//! [`nshd_core::EmbeddingClassifier`]) into **one** symbolic consensus
//! classifier, following the HD-Glue recipe (Sutor et al. 2022): each
//! teacher's penultimate-layer embeddings are pushed through a
//! per-teacher random projection into a shared hyperspace, bundled with
//! accuracy-proportional weights into per-sample consensus
//! hypervectors, and distilled into one
//! [`AssociativeMemory`](nshd_hdc::AssociativeMemory) refined by
//! error-correcting retraining.
//!
//! Each teacher's path into hyperspace is an [`nshd_core::Head`] — the
//! same symbolization head a single-teacher
//! [`NshdEngine`](nshd_core::NshdEngine) serves — and the consensus
//! memory is served through the one deployed-memory type,
//! [`nshd_core::HdDeployEngine`]. The crate splits along the fuse/serve
//! boundary:
//!
//! - [`GlueEnsemble::fuse`] is the **offline** half — builds the heads,
//!   weights, and consensus memory from a fusion set, deterministically.
//! - [`GlueEngine`] is the **serving** half — a hot-swappable
//!   [`BatchEngine`](nshd_runtime::BatchEngine) publishing immutable
//!   [`GlueState`] snapshots copy-on-write, so the consensus memory, a
//!   single teacher head, or the class set itself can be replaced
//!   mid-traffic while in-flight batches keep answering bit-exactly
//!   from the snapshot they pinned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod ensemble;

pub use engine::{GlueEngine, GlueState};
pub use ensemble::{GlueConfig, GlueEnsemble, HeadReport};
