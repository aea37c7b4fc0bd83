//! AVX2 micro-kernel backend for the GEMM family, behind a runtime
//! dispatch that always has the scalar loop as its bit-exact reference.
//!
//! # Contract
//!
//! The micro-kernels are **bit-identical** to the scalar reference in
//! [`crate::matmul`], not merely close: every output element is produced
//! by the same sequence of f32 operations — a single accumulator, terms
//! added in ascending `p` order, each term a separate round-to-nearest
//! multiply then add (never contracted into an FMA, which rounds once
//! instead of twice), and the reference's `a == 0.0` skip applied per
//! `(row, p)` pair. Vectorization only runs *across* output columns
//! (`j`), where the reference performs independent sums, so lane order
//! cannot reassociate anything. This is what lets the runtime dispatch
//! flip per-call without any observable effect, and what the
//! differential conformance suite (`tests/microkernel_conformance.rs`)
//! enforces to `to_bits` equality.
//!
//! # Tiling
//!
//! The register micro-tile is [`MR`]×[`NR`] = 4×16: eight 8-lane `ymm`
//! accumulators, two panel loads, and one broadcast stay within the 16
//! architectural `ymm` registers. `B` is repacked once per call into
//! `NR`-wide column panels ([`pack_b`]) shared read-only by all row
//! workers; the `A` tile is repacked p-major per row block inside
//! [`gemm_avx2`]. Row remainders run the same 4×16 kernel on a
//! zero-padded A panel; column remainders past the last full panel fall
//! back to the scalar loop.
//!
//! # Sign-select kernel
//!
//! [`sign_select_rows`] multiplies by a ±1 matrix held as packed sign
//! bits (the HD random projection), never materialising it as f32: each
//! term `a · (±1)` is formed exactly as `a` with its sign bit flipped or
//! kept, then added under the same single-accumulator, ascending-`p`,
//! zero-skipping contract as the GEMM. One body serves both backends;
//! [`sign_select_avx2`] only recompiles it with AVX2 enabled so LLVM
//! vectorizes the per-column lanes 8-wide.
//!
//! # Dispatch
//!
//! [`simd_enabled`] gates every use: the `simd` cargo feature must be
//! compiled in, the CPU must report AVX2 (checked once, cached), and the
//! runtime flag must be on (default yes; `NSHD_SIMD=0` or
//! [`set_simd_enabled`] disable it). Dispatch is decided once per
//! matmul call, before any packing, so a mid-call toggle cannot mix
//! backends within one output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Rows per register micro-tile.
pub(crate) const MR: usize = 4;

/// Columns per register micro-tile (two 8-lane AVX vectors).
pub(crate) const NR: usize = 16;

/// Runtime kill-switch for the micro-kernels. Defaults to on; the
/// `NSHD_SIMD=0` environment override or [`set_simd_enabled`] turn it
/// off so the scalar reference serves instead.
static SIMD_RUNTIME: AtomicBool = AtomicBool::new(true);

/// Applies the `NSHD_SIMD` environment override exactly once, before
/// the first read or explicit override of the runtime flag.
fn apply_env_default() {
    static ENV_APPLIED: OnceLock<()> = OnceLock::new();
    ENV_APPLIED.get_or_init(|| {
        if std::env::var("NSHD_SIMD").is_ok_and(|v| v == "0") {
            SIMD_RUNTIME.store(false, Ordering::Relaxed);
        }
    });
}

fn runtime_flag() -> bool {
    apply_env_default();
    SIMD_RUNTIME.load(Ordering::Relaxed)
}

/// Whether GEMM dispatch will select the AVX2 micro-kernels for the
/// next call: requires the `simd` cargo feature, an x86-64 CPU that
/// reports AVX2, and the runtime flag (`NSHD_SIMD`,
/// [`set_simd_enabled`]).
#[must_use]
pub fn simd_enabled() -> bool {
    runtime_flag() && avx2_available()
}

/// Whether the micro-kernels are compiled in *and* the CPU supports
/// them, ignoring the runtime flag.
#[must_use]
pub fn simd_available() -> bool {
    avx2_available()
}

/// Turns the micro-kernels on or off at runtime, process-wide.
///
/// Exists for the differential conformance suite, which runs every GEMM
/// shape through both backends. Flipping the flag mid-run is benign
/// because the backends are bit-identical and dispatch is decided once
/// per call.
pub fn set_simd_enabled(on: bool) {
    apply_env_default();
    SIMD_RUNTIME.store(on, Ordering::Relaxed);
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn avx2_available() -> bool {
    false
}

/// `B` repacked into [`NR`]-wide column panels: panel `pj` holds columns
/// `pj*NR .. (pj+1)*NR` in p-major order (`panel[p * NR + jj]`), so the
/// micro-kernel streams it contiguously. Columns past the last full
/// panel stay in the caller's row-major `B` and are handled by the
/// scalar column tail.
pub(crate) struct PackedB {
    panels: Vec<f32>,
    /// Number of full `NR`-wide panels.
    np: usize,
}

/// Packs the first `n - n % NR` columns of the row-major `k`×`n` matrix
/// `b` into [`PackedB`] panels. A pure copy — no arithmetic — so
/// packing cannot perturb results.
pub(crate) fn pack_b(k: usize, n: usize, b: &[f32]) -> PackedB {
    debug_assert_eq!(b.len(), k * n);
    let np = n / NR;
    let mut panels = vec![0.0f32; np * k * NR];
    for pj in 0..np {
        let j0 = pj * NR;
        let base = pj * k * NR;
        for p in 0..k {
            panels[base + p * NR..base + (p + 1) * NR]
                .copy_from_slice(&b[p * n + j0..p * n + j0 + NR]);
        }
    }
    PackedB { panels, np }
}

/// Micro-kernel GEMM over one row chunk: `c += a · b`, with `a` a
/// row-major `m`×`k` block, `b` the full row-major `k`×`n` matrix,
/// `packed` its [`pack_b`] panels, and `c` the `m`×`n` destination.
/// Per-element float sequence is identical to the scalar reference.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn gemm_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    packed: &PackedB,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let mut apanel = vec![0.0f32; k * MR];
    // Scratch C tile for a ragged last row block (stride `NR`).
    let mut scratch = [0.0f32; MR * NR];
    for i0 in (0..m).step_by(MR) {
        // Repack the A tile p-major (`apanel[p * MR + r]`) so the
        // kernel broadcast-streams it. Pure copy, like `pack_b`. A
        // ragged last block keeps its missing rows at zero: the kernel's
        // `a == 0.0` skip adds no terms for them.
        let rows = MR.min(m - i0);
        if rows < MR {
            apanel.fill(0.0);
        }
        for p in 0..k {
            for r in 0..rows {
                apanel[p * MR + r] = a[(i0 + r) * k + p];
            }
        }
        for pj in 0..packed.np {
            let bpanel = &packed.panels[pj * k * NR..(pj + 1) * k * NR];
            let col0 = i0 * n + pj * NR;
            // A full block accumulates in place; a ragged one in the
            // scratch tile, holding copies of its live rows — copies
            // only, so those rows see a full tile's float sequence.
            let (stride, ctile) = if rows == MR {
                (n, &mut c[col0..])
            } else {
                for r in 0..rows {
                    scratch[r * NR..(r + 1) * NR]
                        .copy_from_slice(&c[col0 + r * n..col0 + r * n + NR]);
                }
                (NR, &mut scratch[..])
            };
            // SAFETY: dispatch (`simd_enabled`) verified AVX2 at runtime
            // before selecting this path; `ctile` spans at least
            // `(MR - 1) * stride + NR` elements — in place because
            // `i0 + MR <= m` and `(pj + 1) * NR <= n`, in scratch because
            // it holds `MR` rows of `NR` — and `apanel`/`bpanel` hold `k`
            // full tiles: the kernel's documented preconditions.
            unsafe { kernel_4x16(k, stride, &apanel, bpanel, ctile) }
            if rows < MR {
                for r in 0..rows {
                    c[col0 + r * n..col0 + r * n + NR]
                        .copy_from_slice(&scratch[r * NR..(r + 1) * NR]);
                }
            }
        }
    }
    // Scalar column tail for the `n % NR` columns past the last panel:
    // the reference's single-accumulator p-ascending loop, verbatim.
    let jt = packed.np * NR;
    if jt < n {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in jt..n {
                let mut acc = c[i * n + j];
                for (p, &aip) in arow.iter().enumerate() {
                    if aip == 0.0 {
                        continue;
                    }
                    acc += aip * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }
}

/// Scalar-build stub; never reached because [`simd_enabled`] is `false`
/// when the micro-kernels are compiled out.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn gemm_avx2(
    _m: usize,
    _k: usize,
    _n: usize,
    _a: &[f32],
    _b: &[f32],
    _packed: &PackedB,
    _c: &mut [f32],
) {
    unreachable!("micro-kernels compiled out");
}

/// Columns per sign-select register tile: one packed `u64` sign word.
const SIGN_TILE: usize = 64;

/// One byte of packed signs expanded to eight f32 sign-flip masks:
/// lane `l` of entry `b` is `0` when bit `l` of `b` is set (+1) and the
/// f32 sign bit when it is clear (−1). XOR-ing a value's bits with the
/// mask is exactly `±1.0 · a`, with no multiply.
#[repr(C, align(32))]
struct SignFlips([[u32; 8]; 256]);

static SIGN_FLIPS: SignFlips = {
    let mut table = [[0u32; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut lane = 0;
        while lane < 8 {
            if byte >> lane & 1 == 0 {
                table[byte][lane] = 0x8000_0000;
            }
            lane += 1;
        }
        byte += 1;
    }
    SignFlips(table)
};

/// Sign-select product over a block of rows: `c = a · S`, with `a` a
/// row-major `m`×`k` block, `S` the `k`×`n` ±1 matrix whose row `p` is
/// the `n.div_ceil(64)` words `signs[p * W..(p + 1) * W]` (bit `j % 64`
/// of word `j / 64` set ⇔ `S[p][j] = +1`; padding bits ignored), and
/// `c` the `m`×`n` destination, overwritten.
///
/// Per output element this is the GEMM contract with `b = ±1.0`: one
/// accumulator starting at `0.0`, terms added in ascending `p`, and
/// `a == 0.0` terms skipped — the skip done once per row by compacting
/// its nonzero entries, so the tile loop has no data-dependent branch.
/// Each term is `a` with its sign bit XOR-ed by [`SIGN_FLIPS`], which
/// equals `a * ±1.0` to the bit for every non-NaN `a`.
#[inline(always)]
pub(crate) fn sign_select_rows(k: usize, n: usize, a: &[f32], signs: &[u64], c: &mut [f32]) {
    let words = n.div_ceil(SIGN_TILE);
    debug_assert_eq!(signs.len(), k * words);
    if k == 0 || n == 0 {
        c.fill(0.0);
        return;
    }
    // (word offset of row p, bits of a[p]) for every nonzero a[p].
    let mut terms: Vec<(usize, u32)> = Vec::with_capacity(k);
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        terms.clear();
        terms.extend(
            arow.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(p, v)| (p * words, v.to_bits())),
        );
        for (w, cols) in crow.chunks_mut(SIGN_TILE).enumerate() {
            let mut acc = [0.0f32; SIGN_TILE];
            for &(row, bits) in &terms {
                let word = signs[row + w];
                // Gather the word's 64 masks first so the add below is
                // one flat 64-lane loop, which LLVM vectorizes across
                // columns; fused per byte, it vectorizes across bytes
                // instead and gathers lane by lane.
                let mut flips = [0u32; SIGN_TILE];
                for (dst, byte) in flips.chunks_exact_mut(8).zip(word.to_le_bytes()) {
                    dst.copy_from_slice(&SIGN_FLIPS.0[usize::from(byte)]);
                }
                for (x, &flip) in acc.iter_mut().zip(&flips) {
                    *x += f32::from_bits(bits ^ flip);
                }
            }
            cols.copy_from_slice(&acc[..cols.len()]);
        }
    }
}

/// [`sign_select_rows`] compiled for AVX2, selected after
/// [`simd_enabled`]. Same body, so the same per-element float sequence.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn sign_select_avx2(k: usize, n: usize, a: &[f32], signs: &[u64], c: &mut [f32]) {
    #[target_feature(enable = "avx2")]
    fn kernel(k: usize, n: usize, a: &[f32], signs: &[u64], c: &mut [f32]) {
        sign_select_rows(k, n, a, signs, c);
    }
    // SAFETY: callers select this path only after `simd_enabled`
    // verified AVX2 at runtime; `kernel` is otherwise safe code.
    unsafe { kernel(k, n, a, signs, c) }
}

/// Scalar-build stub; never reached because [`simd_enabled`] is `false`
/// when the micro-kernels are compiled out.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn sign_select_avx2(_k: usize, _n: usize, _a: &[f32], _signs: &[u64], _c: &mut [f32]) {
    unreachable!("micro-kernels compiled out");
}

/// Dispatched `c += aip * b` for `matmul_at` rank-1 row updates: the
/// plain per-column loop compiled for AVX2, which LLVM vectorizes
/// 8-wide without touching each element's multiply-then-add sequence.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn axpy(aip: f32, b: &[f32], c: &mut [f32]) {
    #[target_feature(enable = "avx2")]
    fn kernel(aip: f32, b: &[f32], c: &mut [f32]) {
        for (c_el, &b_el) in c.iter_mut().zip(b) {
            *c_el += aip * b_el;
        }
    }
    debug_assert_eq!(b.len(), c.len());
    // SAFETY: callers select this path only after `simd_enabled`
    // verified AVX2 at runtime; `kernel` is otherwise safe code.
    unsafe { kernel(aip, b, c) }
}

/// Scalar-build stub; never reached because [`simd_enabled`] is `false`
/// when the micro-kernels are compiled out.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn axpy(_aip: f32, _b: &[f32], _c: &mut [f32]) {
    unreachable!("micro-kernels compiled out");
}

/// 4×16 register micro-tile:
/// `ctile[r * n + jj] += Σ_p apanel[p * MR + r] * bpanel[p * NR + jj]`
/// for `r < MR`, `jj < NR`, with `p` ascending, separate
/// round-to-nearest multiply and add (no FMA contraction), and the
/// reference's `a == 0.0` skip per `(r, p)` — bit-identical to the
/// scalar loop.
///
/// # Safety
///
/// Caller must have verified AVX2 support and pass `apanel` of at least
/// `k * MR` elements, `bpanel` of at least `k * NR` elements, and
/// `ctile` spanning at least `(MR - 1) * n + NR` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: declaration carries the caller contract spelled out above —
// AVX2 verified by the dispatcher plus the slice-extent preconditions.
unsafe fn kernel_4x16(k: usize, n: usize, apanel: &[f32], bpanel: &[f32], ctile: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let ap = apanel.as_ptr();
    let bp = bpanel.as_ptr();
    let cp = ctile.as_mut_ptr();
    // Accumulators start from the destination tile, so `c +=` semantics
    // and the element's full addition sequence match the reference.
    let mut acc0a = _mm256_loadu_ps(cp);
    let mut acc0b = _mm256_loadu_ps(cp.add(8));
    let mut acc1a = _mm256_loadu_ps(cp.add(n));
    let mut acc1b = _mm256_loadu_ps(cp.add(n + 8));
    let mut acc2a = _mm256_loadu_ps(cp.add(2 * n));
    let mut acc2b = _mm256_loadu_ps(cp.add(2 * n + 8));
    let mut acc3a = _mm256_loadu_ps(cp.add(3 * n));
    let mut acc3b = _mm256_loadu_ps(cp.add(3 * n + 8));
    for p in 0..k {
        let b0 = _mm256_loadu_ps(bp.add(p * NR));
        let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
        let a0 = *ap.add(p * MR);
        if a0 != 0.0 {
            let av = _mm256_set1_ps(a0);
            acc0a = _mm256_add_ps(acc0a, _mm256_mul_ps(av, b0));
            acc0b = _mm256_add_ps(acc0b, _mm256_mul_ps(av, b1));
        }
        let a1 = *ap.add(p * MR + 1);
        if a1 != 0.0 {
            let av = _mm256_set1_ps(a1);
            acc1a = _mm256_add_ps(acc1a, _mm256_mul_ps(av, b0));
            acc1b = _mm256_add_ps(acc1b, _mm256_mul_ps(av, b1));
        }
        let a2 = *ap.add(p * MR + 2);
        if a2 != 0.0 {
            let av = _mm256_set1_ps(a2);
            acc2a = _mm256_add_ps(acc2a, _mm256_mul_ps(av, b0));
            acc2b = _mm256_add_ps(acc2b, _mm256_mul_ps(av, b1));
        }
        let a3 = *ap.add(p * MR + 3);
        if a3 != 0.0 {
            let av = _mm256_set1_ps(a3);
            acc3a = _mm256_add_ps(acc3a, _mm256_mul_ps(av, b0));
            acc3b = _mm256_add_ps(acc3b, _mm256_mul_ps(av, b1));
        }
    }
    _mm256_storeu_ps(cp, acc0a);
    _mm256_storeu_ps(cp.add(8), acc0b);
    _mm256_storeu_ps(cp.add(n), acc1a);
    _mm256_storeu_ps(cp.add(n + 8), acc1b);
    _mm256_storeu_ps(cp.add(2 * n), acc2a);
    _mm256_storeu_ps(cp.add(2 * n + 8), acc2b);
    _mm256_storeu_ps(cp.add(3 * n), acc3a);
    _mm256_storeu_ps(cp.add(3 * n + 8), acc3b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_b_is_p_major_per_panel() {
        let k = 3;
        let n = NR + 5; // one full panel plus a ragged tail
        let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
        let packed = pack_b(k, n, &b);
        assert_eq!(packed.np, 1);
        assert_eq!(packed.panels.len(), k * NR);
        for p in 0..k {
            for jj in 0..NR {
                assert_eq!(packed.panels[p * NR + jj], b[p * n + jj]);
            }
        }
    }

    #[test]
    fn pack_b_handles_narrow_and_empty_matrices() {
        let packed = pack_b(4, 7, &[1.0; 28]);
        assert_eq!(packed.np, 0);
        assert!(packed.panels.is_empty());
        let packed = pack_b(0, NR, &[]);
        assert_eq!(packed.np, 1);
        assert!(packed.panels.is_empty());
    }

    #[test]
    fn runtime_toggle_round_trips() {
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        assert_eq!(simd_enabled(), simd_available());
    }
}
