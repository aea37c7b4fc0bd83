//! Single-precision matrix multiplication: scalar reference + SIMD
//! micro-kernels.
//!
//! Convolution in [`nshd-nn`] lowers to GEMM via im2col, so this kernel is
//! the hot path of the entire workspace. Two backends implement one
//! numeric contract:
//!
//! - the **scalar reference** ([`gemm`]) — a classic cache-blocked ikj
//!   loop, simple enough to audit, always compiled, and the ground truth
//!   every other path must match bit-for-bit;
//! - the **AVX2 micro-kernels** ([`crate::simd`]) — packed, register-
//!   blocked 4×16 tiles selected at runtime when the CPU supports them
//!   (`simd` cargo feature, `NSHD_SIMD` override). They replay the exact
//!   per-element float sequence of the reference (single accumulator,
//!   ascending-`p` additions, separate multiply and add, `a == 0.0`
//!   skip), vectorizing only across independent output columns — so
//!   results are **bit-identical**, as
//!   `crates/tensor/tests/microkernel_conformance.rs` proves
//!   differentially.
//!
//! [`matmul_bt`] materialises `Bᵀ` once per call (a pure copy) and then
//! reuses the same drivers, so all three orientations share one
//! accumulation order and the similarity-scoring path streams `B` rows
//! contiguously instead of striding k-major per output element.
//!
//! Large products run **row-parallel** across the [`crate::par`] worker
//! set: the output's rows are split into contiguous chunks and each worker
//! runs the same serial kernel on its chunk. Because every kernel here
//! accumulates each output row independently (the row loop is the
//! outermost loop that partitions work), the per-row summation order is
//! identical at any thread count, and parallel results are **bit-identical**
//! to serial ones — `crates/tensor/tests/determinism.rs` proves it.
//!
//! [`nshd-nn`]: ../../nshd_nn/index.html

use crate::par;
use crate::simd;
use crate::tensor::Tensor;

/// Cache block edge, chosen so three `BLOCK×BLOCK` f32 tiles fit in L1.
const BLOCK: usize = 64;

/// Drives a row-partitioned GEMM-family kernel: opens the profiling span
/// `name` attributing the f32 traffic of all three operands, then runs
/// `kernel(first_row, rows, chunk)` either once over the whole output
/// (serial; FLOPs attributed to the kernel span) or row-chunked across
/// the [`crate::par`] workers, each worker recording its own `par` child
/// span carrying the FLOPs of its chunk (which roll up to the same
/// total).
fn run_rowwise<F>(name: &str, m: usize, k: usize, n: usize, c: &mut [f32], kernel: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    let mut sp = nshd_obs::span(name);
    sp.add_bytes(4 * (m * k + k * n + m * n) as u64);
    if n > 0 && par::should_parallelize(flops) {
        par::par_row_chunks(c, n, |first_row, chunk| {
            let rows = chunk.len() / n;
            let mut wsp = nshd_obs::span("par");
            wsp.add_flops(2 * (rows as u64) * (k as u64) * (n as u64));
            kernel(first_row, rows, chunk);
        });
    } else {
        sp.add_flops(flops);
        kernel(0, m, c);
    }
}

/// Shared driver for `C = A · B` over raw slices (`bv` row-major `k`×`n`):
/// zero-fills each row chunk, then hands it to the AVX2 micro-kernel
/// ([`crate::simd`]) or the blocked scalar reference. The backend is
/// decided **once per call**, before any packing, so a concurrent toggle
/// flip cannot mix backends within one output (not that it could be
/// observed — the backends are bit-identical). `matmul_bt` lands here
/// too, after materialising `Bᵀ`.
fn gemm_rowwise(name: &str, m: usize, k: usize, n: usize, av: &[f32], bv: &[f32], c: &mut [f32]) {
    if simd::simd_enabled() {
        // Pack B panels once, outside the row partition: read-only and a
        // pure copy, so every worker shares one packing with no numeric
        // or determinism consequences.
        let packed = simd::pack_b(k, n, bv);
        run_rowwise(name, m, k, n, c, |row0, rows, chunk| {
            chunk.fill(0.0);
            simd::gemm_avx2(rows, k, n, &av[row0 * k..(row0 + rows) * k], bv, &packed, chunk);
        });
    } else {
        run_rowwise(name, m, k, n, c, |row0, rows, chunk| {
            chunk.fill(0.0);
            gemm(rows, k, n, &av[row0 * k..(row0 + rows) * k], bv, chunk);
        });
    }
}

/// Materialises `Bᵀ` — `bv` row-major `n`×`k` in, row-major `k`×`n` out —
/// once per `matmul_bt` call, in cache-friendly 32² tiles. Packing the
/// transpose up front is the layout fix that lets both backends stream
/// `B` rows contiguously, instead of walking a k-major stride per output
/// element as the old per-dot kernel did.
fn transpose_to_kn(n: usize, k: usize, bv: &[f32]) -> Vec<f32> {
    const TBLOCK: usize = 32;
    let mut bt = vec![0.0f32; k * n];
    for jb in (0..n).step_by(TBLOCK) {
        let j_end = (jb + TBLOCK).min(n);
        for pb in (0..k).step_by(TBLOCK) {
            let p_end = (pb + TBLOCK).min(k);
            for j in jb..j_end {
                for p in pb..p_end {
                    bt[p * n + j] = bv[j * k + p];
                }
            }
        }
    }
    bt
}

/// Computes `C = A · B` for row-major matrices.
///
/// `a` is `m×k`, `b` is `k×n`, and the result is `m×n`.
///
/// # Panics
///
/// Panics if the operand shapes are not rank-2 or the inner dimensions
/// disagree.
///
/// # Examples
///
/// ```
/// use nshd_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
/// assert_eq!(matmul(&a, &i), a);
/// # Ok::<(), nshd_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimensions disagree: {k} vs {k2}");
    let mut c = Tensor::zeros([m, n]);
    gemm_rowwise("matmul", m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
    c
}

/// Computes `C = A · B` into a caller-provided output tensor.
///
/// `out` is overwritten (not accumulated into). The output rows are
/// partitioned across the [`crate::par`] worker set for large products,
/// each worker writing a disjoint row range of `out` with the same
/// serial per-row accumulation order — so the result is bit-identical
/// to the single-threaded product. The `_into` form exists so steady
/// callers (the serving runtime) can reuse one output allocation.
///
/// # Panics
///
/// Panics if operands are not rank-2, inner dimensions disagree, or
/// `out` is not `m×n`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = dims2(a, "matmul_into lhs");
    let (k2, n) = dims2(b, "matmul_into rhs");
    assert_eq!(k, k2, "matmul_into inner dimensions disagree: {k} vs {k2}");
    let (mo, no) = dims2(out, "matmul_into out");
    assert_eq!((mo, no), (m, n), "matmul_into output must be {m}×{n}, got {mo}×{no}");
    gemm_rowwise("matmul", m, k, n, a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// Computes `C = A · Bᵀ` for row-major matrices.
///
/// `a` is `m×k`, `b` is `n×k`, and the result is `m×n`. This variant is the
/// natural layout for similarity search (query rows against memory rows) and
/// for the backward pass of linear layers.
///
/// `Bᵀ` is materialised once per call (`transpose_to_kn`, a pure
/// copy) and the product then runs through the same drivers as
/// [`matmul`], so each output element accumulates in ascending-`p`
/// order with a single accumulator — identical to
/// `matmul(a, &b.transposed())` to the bit, and roughly 2× faster than
/// the old per-element strided-dot kernel.
///
/// # Panics
///
/// Panics if operands are not rank-2 or `k` dimensions disagree.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_bt lhs");
    let (n, k2) = dims2(b, "matmul_bt rhs");
    assert_eq!(k, k2, "matmul_bt inner dimensions disagree: {k} vs {k2}");
    let mut c = Tensor::zeros([m, n]);
    let bt = transpose_to_kn(n, k, b.as_slice());
    gemm_rowwise("matmul_bt", m, k, n, a.as_slice(), &bt, c.as_mut_slice());
    c
}

/// Computes `C = A · Bᵀ` into a caller-provided output tensor.
///
/// `out` is overwritten. Like [`matmul_into`], the row-major output lets
/// callers partition `a`'s rows across threads and write disjoint row
/// ranges of a shared result.
///
/// # Panics
///
/// Panics if operands are not rank-2, `k` dimensions disagree, or `out`
/// is not `m×n`.
pub fn matmul_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = dims2(a, "matmul_bt_into lhs");
    let (n, k2) = dims2(b, "matmul_bt_into rhs");
    assert_eq!(k, k2, "matmul_bt_into inner dimensions disagree: {k} vs {k2}");
    let (mo, no) = dims2(out, "matmul_bt_into out");
    assert_eq!((mo, no), (m, n), "matmul_bt_into output must be {m}×{n}, got {mo}×{no}");
    let bt = transpose_to_kn(n, k, b.as_slice());
    gemm_rowwise("matmul_bt", m, k, n, a.as_slice(), &bt, out.as_mut_slice());
}

/// Computes `C = Aᵀ · B` without materialising the transpose.
///
/// `a` is `k×m`, `b` is `k×n`, and the result is `m×n`. Used by weight
/// gradients (`dW = Xᵀ·dY`).
///
/// # Panics
///
/// Panics if operands are not rank-2 or `k` dimensions disagree.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at lhs");
    let (k2, n) = dims2(b, "matmul_at rhs");
    assert_eq!(k, k2, "matmul_at inner dimensions disagree: {k} vs {k2}");
    let mut c = Tensor::zeros([m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    // Accumulate rank-1 updates row by row of A/B; cache-friendly on C.
    // Each output row i sees the p index strictly ascending with the
    // same zero-skip whether the rows are chunked or not, so the
    // row-parallel path is bit-identical to the serial one. The SIMD
    // backend only vectorizes the independent per-column updates inside
    // one rank-1 step (`simd::axpy`), leaving that order untouched;
    // dispatch is pinned before the row partition so all workers agree.
    let use_simd = simd::simd_enabled();
    run_rowwise("matmul_at", m, k, n, c.as_mut_slice(), |row0, rows, chunk| {
        for p in 0..k {
            let arow = &av[p * m + row0..p * m + row0 + rows];
            let brow = &bv[p * n..(p + 1) * n];
            for (local, &aip) in arow.iter().enumerate() {
                if aip == 0.0 {
                    continue;
                }
                let crow = &mut chunk[local * n..(local + 1) * n];
                if use_simd {
                    simd::axpy(aip, brow, crow);
                } else {
                    for (c_el, &b_el) in crow.iter_mut().zip(brow) {
                        *c_el += aip * b_el;
                    }
                }
            }
        }
    });
    c
}

/// Computes `C = A · S` where `S` is a `k×n` matrix of ±1 entries held
/// as packed sign bits — the sign-select kernel behind batched HD
/// random-projection encoding.
///
/// `a` is `m×k`. Row `p` of `S` is the `n.div_ceil(64)` words
/// `signs[p * W..(p + 1) * W]`: bit `j % 64` of word `j / 64` set means
/// `S[p][j] = +1`, clear means `−1`; bits past `n` are ignored. The
/// result is `m×n`.
///
/// Every output element follows the GEMM contract with `b = ±1.0`: one
/// accumulator, terms in ascending `p`, `a == 0.0` terms skipped. Each
/// term is `a` with its sign bit flipped or kept, which equals
/// `a * ±1.0` exactly, so the result is bit-identical to [`matmul`]
/// against the unpacked ±1.0 matrix for every non-NaN input — without
/// ever storing that matrix (32× the bits). The AVX2 build is the same
/// code compiled 8-wide, chosen by [`crate::simd_enabled`] once per
/// call. Rows run in parallel across the [`crate::par`] workers for
/// large products, each row computed by the same serial code, so the
/// result is identical at any thread count.
///
/// No profiling span is opened here: the caller names the stage and
/// attributes its work.
///
/// # Panics
///
/// Panics if `a` is not rank-2 or `signs.len() != k * n.div_ceil(64)`.
///
/// # Examples
///
/// ```
/// use nshd_tensor::{matmul_signs, Tensor};
///
/// // S = [[+1, -1], [-1, -1]]: bit 0 of row 0 set, nothing else.
/// let a = Tensor::from_vec(vec![2.0, 3.0], [1, 2])?;
/// let c = matmul_signs(&a, &[0b01, 0b00], 2);
/// assert_eq!(c.as_slice(), &[2.0 - 3.0, -2.0 - 3.0]);
/// # Ok::<(), nshd_tensor::TensorError>(())
/// ```
pub fn matmul_signs(a: &Tensor, signs: &[u64], n: usize) -> Tensor {
    let (m, k) = dims2(a, "matmul_signs lhs");
    assert_eq!(
        signs.len(),
        k * n.div_ceil(64),
        "matmul_signs expects {k}×{} sign words",
        n.div_ceil(64)
    );
    let mut c = Tensor::zeros([m, n]);
    let kernel = if simd::simd_enabled() { simd::sign_select_avx2 } else { simd::sign_select_rows };
    let av = a.as_slice();
    if par::should_parallelize(2 * (m * k * n) as u64) {
        par::par_row_chunks(c.as_mut_slice(), n, |row0, chunk| {
            let rows = chunk.len() / n;
            kernel(k, n, &av[row0 * k..(row0 + rows) * k], signs, chunk);
        });
    } else {
        kernel(k, n, av, signs, c.as_mut_slice());
    }
    c
}

/// Matrix–vector product `y = A·x` for a row-major `m×k` matrix.
///
/// # Panics
///
/// Panics if `a` is not rank-2 or `x.len() != k`.
pub fn matvec(a: &Tensor, x: &[f32]) -> Vec<f32> {
    let (m, k) = dims2(a, "matvec lhs");
    assert_eq!(x.len(), k, "matvec expects a vector of length {k}");
    let av = a.as_slice();
    (0..m).map(|i| crate::ops::dot(&av[i * k..(i + 1) * k], x)).collect()
}

/// Vector–matrix product `y = xᵀ·A` for a row-major `k×n` matrix.
///
/// # Panics
///
/// Panics if `a` is not rank-2 or `x.len() != k`.
pub fn vecmat(x: &[f32], a: &Tensor) -> Vec<f32> {
    let (k, n) = dims2(a, "vecmat rhs");
    assert_eq!(x.len(), k, "vecmat expects a vector of length {k}");
    let av = a.as_slice();
    let mut y = vec![0.0f32; n];
    for (p, &xp) in x.iter().enumerate() {
        if xp == 0.0 {
            continue;
        }
        let arow = &av[p * n..(p + 1) * n];
        for (yj, &aj) in y.iter_mut().zip(arow) {
            *yj += xp * aj;
        }
    }
    y
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be rank-2, got shape {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

/// The blocked GEMM kernel: `c += a · b` over raw slices.
fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let p_end = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    for p in pb..p_end {
                        let aip = a[i * k + p];
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = &b[p * n + jb..p * n + j_end];
                        let crow = &mut c[i * n + jb..i * n + j_end];
                        for (c_el, &b_el) in crow.iter_mut().zip(brow) {
                            *c_el += aip * b_el;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *c.at_mut(&[i, j]) = s;
            }
        }
        c
    }

    fn rand_tensor(shape: [usize; 2], seed: u64) -> Tensor {
        // Small deterministic LCG; avoids a dev-dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_tensor([5, 5], 1);
        let i = Tensor::from_fn([5, 5], |idx| if idx % 6 == 0 { 1.0 } else { 0.0 });
        assert_close(&matmul(&a, &i), &a, 1e-6);
        assert_close(&matmul(&i, &a), &a, 1e-6);
    }

    #[test]
    fn blocked_matches_naive_past_block_edge() {
        // Sizes straddling the 64-wide block boundary exercise tail logic.
        for &(m, k, n) in &[(3, 70, 5), (65, 64, 66), (1, 1, 1), (7, 129, 3)] {
            let a = rand_tensor([m, k], (m * k) as u64);
            let b = rand_tensor([k, n], (k * n + 7) as u64);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-3);
        }
    }

    #[test]
    fn bt_matches_transposed_matmul_bitwise() {
        // matmul_bt materialises Bᵀ and reuses the matmul drivers, so the
        // agreement is exact, not approximate.
        for &(m, k, n) in &[(6, 9, 4), (3, 70, 5), (17, 33, 16), (1, 1, 1)] {
            let a = rand_tensor([m, k], (3 * m + k) as u64);
            let b = rand_tensor([n, k], (7 * n + k) as u64);
            assert_eq!(matmul_bt(&a, &b).as_slice(), matmul(&a, &b.transposed()).as_slice());
        }
    }

    #[test]
    fn bt_and_at_agree_with_explicit_transpose() {
        let a = rand_tensor([6, 9], 3);
        let b = rand_tensor([4, 9], 4);
        assert_close(&matmul_bt(&a, &b), &matmul(&a, &b.transposed()), 1e-4);
        let c = rand_tensor([9, 5], 5);
        let d = rand_tensor([9, 4], 6);
        assert_close(&matmul_at(&c, &d), &matmul(&c.transposed(), &d), 1e-4);
    }

    #[test]
    fn matvec_vecmat_agree_with_matmul() {
        let a = rand_tensor([4, 7], 10);
        let x: Vec<f32> = (0..7).map(|i| i as f32 * 0.5 - 1.0).collect();
        let xv = Tensor::from_vec(x.clone(), [7, 1]).unwrap();
        let y = matvec(&a, &x);
        let y2 = matmul(&a, &xv);
        for (u, v) in y.iter().zip(y2.as_slice()) {
            assert!((u - v).abs() < 1e-5);
        }
        let b = rand_tensor([7, 3], 11);
        let z = vecmat(&x, &b);
        let z2 = matmul(&xv.transposed(), &b);
        for (u, v) in z.iter().zip(z2.as_slice()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn into_variants_match_allocating_variants_bitwise() {
        let a = rand_tensor([9, 33], 21);
        let b = rand_tensor([33, 7], 22);
        let mut out = Tensor::full([9, 7], f32::NAN); // stale contents must be overwritten
        matmul_into(&a, &b, &mut out);
        assert_eq!(out.as_slice(), matmul(&a, &b).as_slice());
        let bt = rand_tensor([7, 33], 23);
        let mut out_bt = Tensor::full([9, 7], f32::NAN);
        matmul_bt_into(&a, &bt, &mut out_bt);
        assert_eq!(out_bt.as_slice(), matmul_bt(&a, &bt).as_slice());
    }

    #[test]
    fn into_variant_supports_row_partitioned_output() {
        // Splitting A's rows and writing disjoint output row ranges must
        // reproduce the monolithic product exactly.
        let a = rand_tensor([8, 17], 31);
        let b = rand_tensor([17, 5], 32);
        let whole = matmul(&a, &b);
        let mut assembled = Tensor::zeros([8, 5]);
        for (chunk, rows) in [(0usize, 3usize), (3, 3), (6, 2)] {
            let part = Tensor::from_vec(
                a.as_slice()[chunk * 17..(chunk + rows) * 17].to_vec(),
                [rows, 17],
            )
            .unwrap();
            let mut out = Tensor::zeros([rows, 5]);
            matmul_into(&part, &b, &mut out);
            assembled.write_slice(chunk * 5, out.as_slice());
        }
        assert_eq!(assembled.as_slice(), whole.as_slice());
    }

    #[test]
    #[should_panic(expected = "output must be")]
    fn into_variant_rejects_wrong_output_shape() {
        let mut out = Tensor::zeros([2, 2]);
        matmul_into(&Tensor::zeros([2, 3]), &Tensor::zeros([3, 4]), &mut out);
    }
}
