//! Differential conformance suite for the sign-select kernel
//! (`matmul_signs`), the batched HD random-projection encode.
//!
//! The contract: `matmul_signs(a, signs, n)` is the GEMM contract of
//! `microkernel_conformance.rs` with `B` a ±1 matrix given as packed
//! sign bits — one f32 accumulator per output element, terms added in
//! ascending `p`, `a == 0.0` terms skipped, each term exactly
//! `a * ±1.0`. This suite spells that out as a naive loop over the
//! bits and proves, to `to_bits` equality, that the shipped kernel
//! (portable build *and* AVX2 build) reproduces it and also reproduces
//! `matmul` against the unpacked ±1.0 matrix, across:
//!
//! - N ∈ {1, 2, 3, 5, 16, 17}, F ∈ {1, 3, 100, 257} and
//!   D ∈ {1, 63, 64, 65, 130, 2048} — single rows, ragged row counts,
//!   every partial and exact 64-bit sign word;
//! - SIMD on × off (runtime toggle) and worker counts 1 and 4;
//! - inputs salted with `0.0`, `-0.0`, subnormals and ±∞.
//!
//! Rows holding ±∞ can sum `+∞ + −∞`; such elements are NaN in every
//! implementation, and Rust does not pin NaN payloads, so NaN outputs
//! are compared by NaN-ness. Every other element compares bit for bit.

use std::sync::Mutex;

use nshd_tensor::{matmul, matmul_signs, par, set_simd_enabled, simd_enabled, Tensor};

const ROWS: &[usize] = &[1, 2, 3, 5, 16, 17];
const FEATURES: &[usize] = &[1, 3, 100, 257];
const DIMS: &[usize] = &[1, 63, 64, 65, 130, 2048];

/// The SIMD toggle is process-wide; serialize the tests that flip it.
static TOGGLE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TOGGLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 11
}

/// `k` rows of `n.div_ceil(64)` seeded sign words, padding bits set
/// at random too so the kernel must ignore them.
fn seeded_signs(k: usize, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed ^ 0x5151_5151;
    (0..k * n.div_ceil(64)).map(|_| lcg(&mut state) ^ (lcg(&mut state) << 32)).collect()
}

/// Seeded `m×k` values salted with exact zeros, subnormals and — in
/// every third row — one `+∞` and one `−∞`.
fn seeded_values(m: usize, k: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Tensor::from_fn([m, k], |i| {
        let (row, col) = (i / k, i % k);
        if row % 3 == 2 && col == k / 2 {
            return f32::INFINITY;
        }
        if row % 3 == 2 && k > 2 && col == k - 1 {
            return f32::NEG_INFINITY;
        }
        let r = (lcg(&mut state) >> 21) as f32 / (1u64 << 32) as f32 * 2.0 - 1.0;
        match i % 29 {
            0 => 0.0,
            11 => -0.0,
            17 => f32::MIN_POSITIVE / 3.0,
            23 => -f32::MIN_POSITIVE / 7.0,
            _ => r,
        }
    })
}

fn sign(signs: &[u64], n: usize, p: usize, j: usize) -> f32 {
    let words = n.div_ceil(64);
    if signs[p * words + j / 64] >> (j % 64) & 1 == 1 {
        1.0
    } else {
        -1.0
    }
}

/// The contract, verbatim: single accumulator, ascending p, separate
/// multiply by the ±1.0 sign and add, `a == 0.0` skip.
fn naive_sign_select(a: &Tensor, signs: &[u64], n: usize) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let av = a.as_slice();
    Tensor::from_fn([m, n], |idx| {
        let (i, j) = (idx / n, idx % n);
        let mut acc = 0.0f32;
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            acc += aip * sign(signs, n, p, j);
        }
        acc
    })
}

/// The packed signs unpacked into the dense ±1.0 `k×n` matrix.
fn unpack(signs: &[u64], k: usize, n: usize) -> Tensor {
    Tensor::from_fn([k, n], |idx| sign(signs, n, idx / n, idx % n))
}

fn assert_same(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape mismatch");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let same = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
        assert!(
            same,
            "{what}: element {i} differs: {g} ({:#010x}) vs {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs `check` under every (threads × SIMD) configuration.
fn for_each_config(check: impl Fn(&str)) {
    for &threads in &[1usize, 4] {
        for &simd_on in &[false, true] {
            set_simd_enabled(simd_on);
            let label = format!(
                "threads={threads} simd_requested={simd_on} simd_active={}",
                simd_enabled()
            );
            par::with_threads(threads, || check(&label));
        }
    }
    set_simd_enabled(true);
}

#[test]
fn sign_select_matches_reference_and_dense_gemm_on_grid() {
    let _g = lock();
    for &m in ROWS {
        for &k in FEATURES {
            for &n in DIMS {
                let seed = (m * 7919 + k * 131 + n) as u64;
                let a = seeded_values(m, k, seed);
                let signs = seeded_signs(k, n, seed);
                let want = naive_sign_select(&a, &signs, n);
                let dense = matmul(&a, &unpack(&signs, k, n));
                assert_same(&dense, &want, &format!("dense gemm {m}x{k}x{n}"));
                for_each_config(|label| {
                    let got = matmul_signs(&a, &signs, n);
                    assert_same(&got, &want, &format!("matmul_signs {m}x{k}x{n} [{label}]"));
                });
            }
        }
    }
}

#[test]
fn nan_inputs_poison_exactly_their_rows() {
    let _g = lock();
    let (m, k, n) = (5, 100, 130);
    let mut a = seeded_values(m, k, 3);
    a.as_mut_slice()[k + 40] = f32::NAN;
    let signs = seeded_signs(k, n, 3);
    let want = naive_sign_select(&a, &signs, n);
    assert!(want.as_slice()[n..2 * n].iter().all(|v| v.is_nan()), "row 1 is all NaN");
    for_each_config(|label| {
        assert_same(&matmul_signs(&a, &signs, n), &want, &format!("NaN row [{label}]"));
    });
}

#[test]
fn empty_shapes_give_empty_or_zero_outputs() {
    let _g = lock();
    for_each_config(|label| {
        let z = matmul_signs(&Tensor::zeros([3, 0]), &[], 70);
        assert!(z.as_slice().iter().all(|v| v.to_bits() == 0), "k = 0 [{label}]");
        assert_eq!(matmul_signs(&Tensor::zeros([0, 4]), &[0; 8], 128).dims(), &[0, 128]);
        assert_eq!(matmul_signs(&Tensor::zeros([2, 4]), &[], 0).dims(), &[2, 0]);
    });
}

#[test]
#[should_panic(expected = "sign words")]
fn wrong_sign_word_count_panics() {
    matmul_signs(&Tensor::zeros([1, 3]), &[0; 2], 64);
}
