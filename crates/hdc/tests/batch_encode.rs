//! Differential suite for [`BatchEncoder`], which encodes straight from
//! the projection's packed sign bits with the sign-select kernel.
//!
//! Claim: for every row, `encode_raw_batch` equals the bit-serial
//! [`RandomProjection::encode_raw`] to `to_bits`, and `encode_batch` /
//! `encode_batch_packed` equal `encode` / `encode(..).to_packed()` —
//! over N ∈ {1, 2, 3, 5, 16, 17}, F ∈ {1, 3, 100, 257},
//! D ∈ {1, 63, 64, 65, 130, 2048}, with SIMD on and off and at 1 and 4
//! workers. Inputs are salted with `0.0`, `-0.0`, subnormals and ±∞;
//! accumulators that sum `+∞ + −∞` are NaN on both sides and compare by
//! NaN-ness (Rust does not pin NaN payloads). NaN inputs are checked on
//! the binarised outputs, which must agree exactly.

use std::sync::Mutex;

use nshd_hdc::{BatchEncoder, RandomProjection};
use nshd_tensor::{par, set_simd_enabled, simd_enabled, Tensor};

const ROWS: &[usize] = &[1, 2, 3, 5, 16, 17];
const FEATURES: &[usize] = &[1, 3, 100, 257];
const DIMS: &[usize] = &[1, 63, 64, 65, 130, 2048];

/// The SIMD toggle is process-wide; serialize the tests that flip it.
static TOGGLE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TOGGLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Seeded `m×k` feature rows salted with exact zeros, subnormals and —
/// in every third row — one `+∞` and one `−∞`.
fn seeded_rows(m: usize, k: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..m)
        .map(|row| {
            (0..k)
                .map(|col| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if row % 3 == 2 && col == k / 2 {
                        return f32::INFINITY;
                    }
                    if row % 3 == 2 && k > 2 && col == k - 1 {
                        return f32::NEG_INFINITY;
                    }
                    match (row * k + col) % 29 {
                        0 => 0.0,
                        11 => -0.0,
                        17 => f32::MIN_POSITIVE / 3.0,
                        23 => -f32::MIN_POSITIVE / 7.0,
                        _ => (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0,
                    }
                })
                .collect()
        })
        .collect()
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

/// Asserts the batch encoder agrees with the bit-serial oracle on every
/// row of `rows`, under every configuration.
fn check_against_bit_serial(proj: &RandomProjection, batch: &BatchEncoder, rows: &[Vec<f32>]) {
    let (n, f, d) = (rows.len(), proj.features(), proj.dim());
    let values = Tensor::from_vec(rows.concat(), [n, f]).expect("n·f values");
    let raw_want: Vec<Vec<f32>> = rows.iter().map(|r| proj.encode_raw(r)).collect();
    for_each_config(|label| {
        let raw = batch.encode_raw_batch(&values);
        assert_eq!(raw.dims(), &[n, d]);
        let hvs = batch.encode_batch(&values);
        let packed = batch.encode_batch_packed(&values);
        for (i, row) in rows.iter().enumerate() {
            let got = &raw.as_slice()[i * d..(i + 1) * d];
            for (j, (g, w)) in got.iter().zip(&raw_want[i]).enumerate() {
                let same = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
                assert!(same, "{n}x{f}x{d} [{label}] row {i} dim {j}: {g} vs {w}");
            }
            let hv = proj.encode(row);
            assert_eq!(hvs[i], hv, "{n}x{f}x{d} [{label}] row {i} bipolar");
            assert_eq!(packed[i], hv.to_packed(), "{n}x{f}x{d} [{label}] row {i} packed");
        }
    });
}

#[test]
fn batch_encoder_matches_bit_serial_encode_on_grid() {
    let _g = lock();
    for &f in FEATURES {
        for &d in DIMS {
            let proj = RandomProjection::new(f, d, (f * 31 + d) as u64);
            let batch = proj.batch_encoder();
            assert_eq!((batch.features(), batch.dim()), (f, d));
            for &n in ROWS {
                check_against_bit_serial(&proj, &batch, &seeded_rows(n, f, (n * 7 + f + d) as u64));
            }
        }
    }
}

#[test]
fn nan_inputs_binarise_identically() {
    let _g = lock();
    let proj = RandomProjection::new(100, 130, 5);
    let batch = proj.batch_encoder();
    let mut rows = seeded_rows(5, 100, 9);
    rows[1][40] = f32::NAN;
    rows[3][0] = -f32::NAN;
    check_against_bit_serial(&proj, &batch, &rows);
}
