//! Property tests for the quantised batch scoring GEMMs.
//!
//! The claims under test, over seeded bipolar inputs:
//!
//! 1. **Batch == pointwise, bitwise.** `similarities_batch` reproduces
//!    the pointwise `similarities` to `to_bits` equality for both
//!    [`PackedMemory`] (XNOR+popcount tiles) and [`QuantizedMemory`]
//!    (hoisted class norms), at any thread count.
//! 2. **Popcount ranking == dense ranking.** For ±1 class memories, the
//!    packed/INT8/dense batch argmaxes are the same function — including
//!    tie rows, which every backend resolves to the *last* maximum (the
//!    documented tie-break rule).

use nshd_hdc::{
    AssociativeMemory, BipolarHv, PackedHv, PackedMemory, QuantizedMemory, ScoringBackend,
    ScoringMode,
};
use nshd_tensor::{par, Rng};

fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
    BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
}

/// A ±1 class memory with a deliberate duplicate pair (classes 1 and
/// `k-1`) so max-score ties genuinely occur.
fn bipolar_memory(classes: usize, dim: usize, rng: &mut Rng) -> AssociativeMemory {
    assert!(classes >= 3);
    let mut rows: Vec<Vec<f32>> = (0..classes - 1).map(|_| random_hv(dim, rng).to_f32()).collect();
    rows.push(rows[1].clone());
    AssociativeMemory::from_classes(rows)
}

#[test]
fn packed_batch_scores_match_pointwise_bitwise() {
    let mut rng = Rng::new(7);
    for &(classes, dim, n) in &[(3usize, 64usize, 1usize), (6, 256, 9), (10, 515, 33)] {
        let memory = bipolar_memory(classes, dim, &mut rng);
        let packed = PackedMemory::from_memory(&memory);
        let queries: Vec<PackedHv> = (0..n).map(|_| random_hv(dim, &mut rng).to_packed()).collect();
        for threads in [1usize, 4] {
            let batch = par::with_threads(threads, || packed.similarities_batch(&queries));
            assert_eq!(batch.dims(), &[n, classes]);
            for (i, q) in queries.iter().enumerate() {
                let pointwise = packed.similarities(q);
                for (j, want) in pointwise.iter().enumerate() {
                    let got = batch.as_slice()[i * classes + j];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "query {i} class {j} threads {threads}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn int8_batch_scores_match_pointwise_bitwise() {
    let mut rng = Rng::new(11);
    // Mix ±1 memories with a bundled (non-bipolar) one so the hoisted
    // norms see non-trivial scales.
    for &(classes, dim, n, bundled) in
        &[(4usize, 128usize, 5usize, false), (7, 300, 17, true), (3, 96, 2, true)]
    {
        let mut memory = bipolar_memory(classes, dim, &mut rng);
        if bundled {
            for c in 0..classes {
                let extra = random_hv(dim, &mut rng);
                memory.bundle(c, &extra);
                let extra2 = random_hv(dim, &mut rng);
                memory.bundle(c, &extra2);
            }
        }
        let quant = QuantizedMemory::from_memory(&memory);
        let queries: Vec<BipolarHv> = (0..n).map(|_| random_hv(dim, &mut rng)).collect();
        for threads in [1usize, 4] {
            let batch = par::with_threads(threads, || quant.similarities_batch(&queries));
            for (i, q) in queries.iter().enumerate() {
                let pointwise = quant.similarities(q);
                for (j, want) in pointwise.iter().enumerate() {
                    let got = batch.as_slice()[i * classes + j];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "query {i} class {j} threads {threads}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn popcount_ranking_agrees_with_dense_argmax_on_bipolar_memories() {
    let mut rng = Rng::new(23);
    for &(classes, dim, n) in &[(5usize, 256usize, 40usize), (8, 512, 64)] {
        let memory = bipolar_memory(classes, dim, &mut rng);
        let hvs: Vec<BipolarHv> = (0..n).map(|_| random_hv(dim, &mut rng)).collect();
        let queries: Vec<nshd_hdc::QueryHv> =
            hvs.iter().map(|h| nshd_hdc::QueryHv::Bipolar(h.clone())).collect();
        let dense = ScoringBackend::Dense.predict_queries(&memory, queries.clone());
        // Sanity: the dense batch path matches the dense pointwise path.
        for (hv, &pred) in hvs.iter().zip(&dense) {
            assert_eq!(memory.predict(hv), pred);
        }
        for mode in [ScoringMode::Packed, ScoringMode::Int8] {
            let backend = ScoringBackend::build(&memory, mode);
            let pred = backend.predict_queries(&memory, queries.clone());
            assert_eq!(pred, dense, "{} ranking diverged from dense", mode.name());
        }
    }
}

#[test]
fn tie_rows_resolve_to_last_maximum_everywhere() {
    let mut rng = Rng::new(41);
    let (classes, dim) = (6usize, 192usize);
    let memory = bipolar_memory(classes, dim, &mut rng);
    // Class 1 and class `classes-1` are identical rows, so a query equal
    // to that shared prototype maximises both similarities with exactly
    // equal scores. The documented rule — last maximum — must pick the
    // higher index in every backend, batch and pointwise alike.
    let proto = BipolarHv::from_signs(memory.class(1));
    assert_eq!(memory.class(1), memory.class(classes - 1), "test premise: duplicate rows");
    let tie_queries = vec![nshd_hdc::QueryHv::Bipolar(proto.clone())];
    assert_eq!(memory.predict(&proto), classes - 1);
    for mode in [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed] {
        let backend = ScoringBackend::build(&memory, mode);
        assert_eq!(
            backend.predict_queries(&memory, tie_queries.clone()),
            vec![classes - 1],
            "{} must resolve the tie to the last maximum",
            mode.name()
        );
    }
    // Pointwise quantised predictors follow the same rule.
    let quant = QuantizedMemory::from_memory(&memory);
    assert_eq!(quant.predict(&proto), classes - 1);
    let packed = PackedMemory::from_memory(&memory);
    assert_eq!(packed.predict(&proto.to_packed()), classes - 1);
}

#[test]
fn empty_batches_and_single_queries_are_well_formed() {
    let mut rng = Rng::new(53);
    let memory = bipolar_memory(3, 128, &mut rng);
    let packed = PackedMemory::from_memory(&memory);
    let quant = QuantizedMemory::from_memory(&memory);
    assert_eq!(packed.similarities_batch(&[]).dims(), &[0, 3]);
    assert_eq!(quant.similarities_batch(&[]).dims(), &[0, 3]);
    assert_eq!(packed.predict_batch(&[]), Vec::<usize>::new());
    assert_eq!(quant.predict_batch(&[]), Vec::<usize>::new());
    let q = random_hv(128, &mut rng);
    assert_eq!(packed.predict_batch(&[q.to_packed()]), vec![packed.predict(&q.to_packed())]);
    assert_eq!(quant.predict_batch(std::slice::from_ref(&q)), vec![quant.predict(&q)]);
}
