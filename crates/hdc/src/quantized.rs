//! Quantised deployments of the associative memory.
//!
//! The paper compiles the trained NSHD model through Vitis-AI, which
//! quantises it to INT8, "with very minor impacts on the prediction
//! quality" (§VI-B); the GPGPU path likewise stores binary hypervectors
//! in constant memory. This module provides both deployment forms —
//! [`QuantizedMemory`] (per-class symmetric INT8) and [`PackedMemory`]
//! (sign-binarised, packed, popcount similarity) — so that claim is
//! testable in-repo.
//!
//! Both forms carry a batch scoring path (`similarities_batch` /
//! `predict_batch`): an XNOR+popcount (packed) or add/sub-by-sign
//! (INT8) scoring GEMM over query rows × class rows, row-parallel
//! across the [`nshd_tensor::par`] workers. Batch scores are
//! **bit-identical** to the pointwise `similarities` — integer
//! accumulation is exact in any order, and the float de-scaling applies
//! the same expression per element — so batch and pointwise predictions
//! can never disagree.
//!
//! **Tie-break rule:** every predictor in this crate resolves equal
//! similarity scores to the *last* maximum, i.e. the highest class
//! index (`max_by` keeps the later of equal elements, and the batch
//! paths use the same `argmax_last`). The property tests in
//! `tests/packed_scoring.rs` pin this.

use crate::hypervector::{BipolarHv, PackedHv};
use crate::memory::{argmax_last, AssociativeMemory};
use crate::similarity::cosine_packed;
use nshd_tensor::{par, Tensor};

/// An INT8-quantised class memory (symmetric per-class scaling), the
/// DPU-style deployment of a trained [`AssociativeMemory`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMemory {
    dim: usize,
    classes: Vec<Vec<i8>>,
    scales: Vec<f32>,
}

impl QuantizedMemory {
    /// Quantises a trained memory: each class hypervector is scaled by
    /// `127 / max|component|` and rounded to `i8`.
    pub fn from_memory(memory: &AssociativeMemory) -> Self {
        let dim = memory.dim();
        let mut classes = Vec::with_capacity(memory.num_classes());
        let mut scales = Vec::with_capacity(memory.num_classes());
        for c in 0..memory.num_classes() {
            let class = memory.class(c);
            let max = class.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
            classes.push(
                class.iter().map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8).collect(),
            );
            scales.push(scale);
        }
        QuantizedMemory { dim, classes, scales }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The quantised cells of one class (fault injection and tests).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: usize) -> &[i8] {
        &self.classes[class]
    }

    /// Mutable INT8 cells of one class — the hook [`crate::FaultPlan`]
    /// uses to model DPU weight-memory upsets.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_mut(&mut self, class: usize) -> &mut [i8] {
        &mut self.classes[class]
    }

    /// Cosine similarities of a bipolar query against each quantised
    /// class (integer accumulation, de-scaled at the end).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn similarities(&self, hv: &BipolarHv) -> Vec<f32> {
        assert_eq!(hv.dim(), self.dim, "dimension mismatch");
        let sqrt_d = (self.dim as f32).sqrt();
        self.classes
            .iter()
            .zip(&self.scales)
            .map(|(class, &scale)| {
                let mut acc: i64 = 0;
                let mut norm2: i64 = 0;
                for (&c, &s) in class.iter().zip(hv.components()) {
                    // Multiplication-free accumulate, as in the paper's
                    // binary kernels: add or subtract by the sign bit.
                    if s > 0 {
                        acc += c as i64;
                    } else {
                        acc -= c as i64;
                    }
                    norm2 += (c as i64) * (c as i64);
                }
                let norm = (norm2 as f32).sqrt() * scale;
                if norm == 0.0 {
                    0.0
                } else {
                    (acc as f32 * scale) / (norm * sqrt_d)
                }
            })
            .collect()
    }

    /// Predicted class: `argmax` of the quantised similarities. Ties
    /// resolve to the last maximum (highest class index).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn predict(&self, hv: &BipolarHv) -> usize {
        self.similarities(hv)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite similarities"))
            .map(|(i, _)| i)
            .expect("memory has at least one class")
    }

    /// Batch INT8 scoring GEMM: similarities of `queries.len()` bipolar
    /// query rows against all `num_classes()` quantised class rows, as
    /// an `N×num_classes` tensor.
    ///
    /// Row-parallel across the [`par`] workers for large batches, with
    /// per-class norms hoisted out of the query loop — and still
    /// **bit-identical** to calling [`Self::similarities`] per query:
    /// the integer accumulators are exact, and the hoisted norm is the
    /// very f32 expression the pointwise path computes.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality disagrees.
    pub fn similarities_batch(&self, queries: &[BipolarHv]) -> Tensor {
        for q in queries {
            assert_eq!(q.dim(), self.dim, "dimension mismatch");
        }
        let n = queries.len();
        let k = self.classes.len();
        let mut out = Tensor::zeros([n, k]);
        if n == 0 || k == 0 {
            return out;
        }
        let mut sp = nshd_obs::span("int8_score");
        sp.add_flops(2 * (n as u64) * (k as u64) * (self.dim as u64));
        sp.add_bytes((n * self.dim + k * self.dim + 4 * n * k) as u64);
        // Hoisted per-class norms: the exact f32 value the pointwise
        // path recomputes per query, so de-scaling stays bit-identical.
        let norms: Vec<f32> = self
            .classes
            .iter()
            .zip(&self.scales)
            .map(|(class, &scale)| {
                let norm2: i64 = class.iter().map(|&c| (c as i64) * (c as i64)).sum();
                (norm2 as f32).sqrt() * scale
            })
            .collect();
        if par::should_parallelize(2 * (n as u64) * (k as u64) * (self.dim as u64)) {
            par::par_row_chunks(out.as_mut_slice(), k, |row0, chunk| {
                let rows = chunk.len() / k;
                self.score_rows(&queries[row0..row0 + rows], &norms, chunk);
            });
        } else {
            self.score_rows(queries, &norms, out.as_mut_slice());
        }
        out
    }

    /// Batch predictions: row-wise `argmax` of
    /// [`Self::similarities_batch`], ties to the last maximum — the same
    /// rule as [`Self::predict`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the memory has no classes.
    pub fn predict_batch(&self, queries: &[BipolarHv]) -> Vec<usize> {
        assert!(!self.classes.is_empty(), "memory has at least one class");
        let sims = self.similarities_batch(queries);
        sims.as_slice().chunks(self.classes.len()).map(argmax_last).collect()
    }

    /// Scores one run of query rows into `out` (`queries.len()` rows of
    /// `num_classes()` scores): the pointwise accumulation loop, with
    /// the class norms supplied by the caller.
    fn score_rows(&self, queries: &[BipolarHv], norms: &[f32], out: &mut [f32]) {
        let sqrt_d = (self.dim as f32).sqrt();
        let k = self.classes.len();
        for (q, row) in queries.iter().zip(out.chunks_mut(k)) {
            for ((class, &norm), (&scale, slot)) in
                self.classes.iter().zip(norms).zip(self.scales.iter().zip(row.iter_mut()))
            {
                let mut acc: i64 = 0;
                for (&c, &s) in class.iter().zip(q.components()) {
                    // Multiplication-free accumulate, as in `similarities`.
                    if s > 0 {
                        acc += c as i64;
                    } else {
                        acc -= c as i64;
                    }
                }
                *slot = if norm == 0.0 { 0.0 } else { (acc as f32 * scale) / (norm * sqrt_d) };
            }
        }
    }

    /// Classification accuracy over labelled hypervectors.
    pub fn accuracy(&self, samples: &[(BipolarHv, usize)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples.iter().filter(|(h, l)| self.predict(h) == *l).count();
        correct as f32 / samples.len() as f32
    }

    /// The per-class dequantisation scales (one `f32` per class).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Deployment bytes: one `i8` per component plus one `f32` scale per
    /// class — vs 4 bytes per component for the f32 memory.
    pub fn size_bytes(&self) -> u64 {
        (self.classes.len() * self.dim) as u64 + (self.classes.len() * 4) as u64
    }
}

/// A fully binarised class memory: each class hypervector reduced to its
/// sign pattern and bit-packed; similarity by popcount — the paper's
/// constant-memory GPGPU representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMemory {
    dim: usize,
    classes: Vec<PackedHv>,
}

impl PackedMemory {
    /// Binarises a trained memory: `sign` of each class accumulator.
    pub fn from_memory(memory: &AssociativeMemory) -> Self {
        let classes = (0..memory.num_classes())
            .map(|c| BipolarHv::from_signs(memory.class(c)).to_packed())
            .collect();
        PackedMemory { dim: memory.dim(), classes }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed class hypervector for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: usize) -> &PackedHv {
        &self.classes[class]
    }

    /// Mutable packed class hypervector — the hook [`crate::FaultPlan`]
    /// uses to model bit upsets in the FPGA's binary class memory.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_mut(&mut self, class: usize) -> &mut PackedHv {
        &mut self.classes[class]
    }

    /// Hamming-based cosine similarities against each binary class.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn similarities(&self, hv: &PackedHv) -> Vec<f32> {
        assert_eq!(hv.dim(), self.dim, "dimension mismatch");
        self.classes.iter().map(|c| cosine_packed(c, hv)).collect()
    }

    /// Predicted class. Ties resolve to the last maximum (highest class
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn predict(&self, hv: &PackedHv) -> usize {
        self.similarities(hv)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite similarities"))
            .map(|(i, _)| i)
            .expect("memory has at least one class")
    }

    /// Batch popcount scoring GEMM: similarities of `queries.len()`
    /// packed query rows against all `num_classes()` packed class rows,
    /// as an `N×num_classes` tensor.
    ///
    /// The inner product is an XNOR+popcount over 64-bit words, tiled
    /// four words at a time across independent lanes — exact integer
    /// arithmetic, so the tiling cannot change a single bit relative to
    /// the pointwise [`Self::similarities`] (`dot / D` with the same
    /// final f32 division). Row-parallel across the [`par`] workers for
    /// large batches.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality disagrees.
    pub fn similarities_batch(&self, queries: &[PackedHv]) -> Tensor {
        for q in queries {
            assert_eq!(q.dim(), self.dim, "dimension mismatch");
        }
        let n = queries.len();
        let k = self.classes.len();
        let mut out = Tensor::zeros([n, k]);
        if n == 0 || k == 0 {
            return out;
        }
        let mut sp = nshd_obs::span("packed_score");
        sp.add_flops(2 * (n as u64) * (k as u64) * (self.dim as u64));
        sp.add_bytes(((n + k) as u64) * (self.dim as u64).div_ceil(8) + (4 * n * k) as u64);
        let work = 2 * (n as u64) * (k as u64) * (self.dim as u64);
        if par::should_parallelize(work) {
            par::par_row_chunks(out.as_mut_slice(), k, |row0, chunk| {
                let rows = chunk.len() / k;
                self.popcount_rows(&queries[row0..row0 + rows], chunk);
            });
        } else {
            self.popcount_rows(queries, out.as_mut_slice());
        }
        out
    }

    /// Batch predictions: row-wise `argmax` of
    /// [`Self::similarities_batch`], ties to the last maximum — the same
    /// rule as [`Self::predict`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the memory has no classes.
    pub fn predict_batch(&self, queries: &[PackedHv]) -> Vec<usize> {
        assert!(!self.classes.is_empty(), "memory has at least one class");
        let sims = self.similarities_batch(queries);
        sims.as_slice().chunks(self.classes.len()).map(argmax_last).collect()
    }

    /// Scores one run of query rows into `out`: XNOR+popcount word
    /// tiles, then the pointwise `dot / D` de-scale per element.
    fn popcount_rows(&self, queries: &[PackedHv], out: &mut [f32]) {
        let k = self.classes.len();
        let dim = self.dim as f32;
        for (q, row) in queries.iter().zip(out.chunks_mut(k)) {
            for (class, slot) in self.classes.iter().zip(row.iter_mut()) {
                let ham = hamming_tiled(class.words(), q.words());
                let dot = self.dim as i64 - 2 * ham as i64;
                *slot = dot as f32 / dim;
            }
        }
    }

    /// Classification accuracy over labelled bipolar hypervectors.
    pub fn accuracy(&self, samples: &[(BipolarHv, usize)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples.iter().filter(|(h, l)| self.predict(&h.to_packed()) == *l).count();
        correct as f32 / samples.len() as f32
    }

    /// Deployment bytes: one bit per component.
    pub fn size_bytes(&self) -> u64 {
        (self.classes.len() as u64) * (self.dim as u64).div_ceil(8)
    }
}

/// Hamming distance over packed words, tiled four words at a time
/// across independent accumulator lanes (XOR+popcount; the XNOR match
/// count is `dim - hamming`). Integer arithmetic is exact in any
/// association, so the tiling is bit-identical to the sequential
/// [`PackedHv::hamming`].
fn hamming_tiled(a: &[u64], b: &[u64]) -> u64 {
    let mut lanes = [0u64; 4];
    let tiles = a.len() / 4;
    for t in 0..tiles {
        let i = t * 4;
        lanes[0] += u64::from((a[i] ^ b[i]).count_ones());
        lanes[1] += u64::from((a[i + 1] ^ b[i + 1]).count_ones());
        lanes[2] += u64::from((a[i + 2] ^ b[i + 2]).count_ones());
        lanes[3] += u64::from((a[i + 3] ^ b[i + 3]).count_ones());
    }
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for i in tiles * 4..a.len() {
        total += u64::from((a[i] ^ b[i]).count_ones());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mass::{bundle_init, MassTrainer};
    use nshd_tensor::Rng;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
    }

    /// A trained memory on a noisy prototype task plus held-out queries.
    fn trained_task(dim: usize) -> (AssociativeMemory, Vec<(BipolarHv, usize)>) {
        let mut rng = Rng::new(3);
        let classes = 6;
        let prototypes: Vec<BipolarHv> = (0..classes).map(|_| random_hv(dim, &mut rng)).collect();
        let noisy = |proto: &BipolarHv, rng: &mut Rng| {
            BipolarHv::new(
                proto.components().iter().map(|&s| if rng.chance(0.25) { -s } else { s }).collect(),
            )
        };
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..10 {
                train.push((noisy(proto, &mut rng), c));
                test.push((noisy(proto, &mut rng), c));
            }
        }
        let mut memory = bundle_init(classes, dim, &train);
        let trainer = MassTrainer::new(0.2);
        for _ in 0..5 {
            trainer.epoch(&mut memory, &train);
        }
        (memory, test)
    }

    #[test]
    fn int8_quantisation_preserves_accuracy() {
        let (memory, test) = trained_task(2_048);
        let float_acc = memory.accuracy(&test);
        let quant = QuantizedMemory::from_memory(&memory);
        let quant_acc = quant.accuracy(&test);
        assert!(float_acc > 0.9, "float accuracy {float_acc}");
        // The paper's §VI-B claim: quantisation has very minor impact.
        assert!(
            (float_acc - quant_acc).abs() < 0.03,
            "quantisation changed accuracy too much: {float_acc} → {quant_acc}"
        );
    }

    #[test]
    fn binarisation_preserves_most_accuracy() {
        let (memory, test) = trained_task(4_096);
        let float_acc = memory.accuracy(&test);
        let binary = PackedMemory::from_memory(&memory);
        let bin_acc = binary.accuracy(&test);
        assert!(bin_acc > float_acc - 0.1, "binarisation lost too much: {float_acc} → {bin_acc}");
    }

    #[test]
    fn quantised_similarities_track_float_similarities() {
        let (memory, test) = trained_task(1_024);
        let quant = QuantizedMemory::from_memory(&memory);
        for (hv, _) in test.iter().take(10) {
            let f = memory.similarities(hv);
            let q = quant.similarities(hv);
            for (a, b) in f.iter().zip(&q) {
                assert!((a - b).abs() < 0.02, "similarity drift {a} vs {b}");
            }
        }
    }

    #[test]
    fn deployment_sizes_shrink() {
        let (memory, _) = trained_task(1_024);
        let float_bytes = (memory.param_count() * 4) as u64;
        let quant = QuantizedMemory::from_memory(&memory);
        let binary = PackedMemory::from_memory(&memory);
        assert!(quant.size_bytes() < float_bytes / 3);
        assert!(binary.size_bytes() < quant.size_bytes() / 7);
        assert_eq!(quant.num_classes(), memory.num_classes());
        assert_eq!(binary.dim(), memory.dim());
    }

    #[test]
    fn empty_sample_sets_score_zero() {
        let (memory, _) = trained_task(256);
        assert_eq!(QuantizedMemory::from_memory(&memory).accuracy(&[]), 0.0);
        assert_eq!(PackedMemory::from_memory(&memory).accuracy(&[]), 0.0);
    }

    #[test]
    fn all_zero_class_quantises_to_zero_without_panicking() {
        // Class 1 never receives a sample: its accumulator stays all
        // zeros and quantisation must fall back to scale 1.0 instead of
        // dividing by zero.
        let mut rng = Rng::new(31);
        let dim = 512;
        let mut memory = AssociativeMemory::new(3, dim);
        let a = random_hv(dim, &mut rng);
        let c = random_hv(dim, &mut rng);
        memory.bundle(0, &a);
        memory.bundle(2, &c);
        let quant = QuantizedMemory::from_memory(&memory);
        assert!(quant.class(1).iter().all(|&v| v == 0), "zero class must stay zero");
        let sims = quant.similarities(&a);
        assert!(sims.iter().all(|v| v.is_finite()), "{sims:?}");
        assert_eq!(sims[1], 0.0, "empty class similarity {sims:?}");
        assert_eq!(quant.predict(&a), 0);
        // The binary deployment of the same memory stays usable too.
        let binary = PackedMemory::from_memory(&memory);
        assert_eq!(binary.predict(&a.to_packed()), 0);
    }

    #[test]
    fn single_component_classes_round_trip() {
        let memory = AssociativeMemory::from_classes(vec![vec![3.0], vec![-2.0]]);
        let quant = QuantizedMemory::from_memory(&memory);
        assert_eq!(quant.dim(), 1);
        assert_eq!(quant.class(0), &[127]);
        assert_eq!(quant.class(1), &[-127]);
        let plus = BipolarHv::new(vec![1]);
        let minus = BipolarHv::new(vec![-1]);
        assert_eq!(quant.predict(&plus), memory.predict(&plus));
        assert_eq!(quant.predict(&minus), memory.predict(&minus));
    }

    #[test]
    fn quantised_predictions_agree_with_float_memory() {
        let (memory, test) = trained_task(2_048);
        let quant = QuantizedMemory::from_memory(&memory);
        let agree = test.iter().filter(|(hv, _)| quant.predict(hv) == memory.predict(hv)).count();
        // INT8 is a faithful deployment: sample-level decisions match on
        // (almost) every query, not just in aggregate accuracy.
        assert!(
            agree as f32 / test.len() as f32 > 0.95,
            "only {agree}/{} predictions agree",
            test.len()
        );
    }
}
