//! Accuracy of the fixed-point inverse DCT against an `f64` reference, in
//! the manner of IEEE 1180-1990: random pixel blocks in three ranges and
//! their sign-flipped versions go through an exact forward DCT, are
//! rounded and clipped to the 12-bit coefficient range, and come back
//! through both inverse transforms. `idct_scalar` is the arithmetic every
//! kernel matches byte for byte (`tests/simd_parity.rs`), so its accuracy
//! is the decoder's.

use media::jpeg::dct::idct_scalar;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Blocks per range and sign.
const BLOCKS: usize = 10_000;

/// `BASIS[x][u] = c(u)/2 · cos((2x+1)·u·π / 16)`: one orthonormal 1-D DCT.
fn basis() -> [[f64; 8]; 8] {
    std::array::from_fn(|x| {
        std::array::from_fn(|u| {
            let c = if u == 0 {
                std::f64::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            c / 2.0 * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
        })
    })
}

/// `out[i][k] = Σⱼ m[i][j] · t[j][k]`, or with `t` transposed.
fn matmul(m: &[f64; 64], t: &[[f64; 8]; 8], transposed: bool) -> [f64; 64] {
    std::array::from_fn(|at| {
        let (i, k) = (at / 8, at % 8);
        (0..8)
            .map(|j| m[i * 8 + j] * if transposed { t[k][j] } else { t[j][k] })
            .sum()
    })
}

/// `mᵀ`.
fn transpose(m: &[f64; 64]) -> [f64; 64] {
    std::array::from_fn(|at| m[(at % 8) * 8 + at / 8])
}

/// The exact separable forward DCT of a block, row-major in and out:
/// `Bᵀ · S · B`.
fn fdct_f64(samples: &[f64; 64], b: &[[f64; 8]; 8]) -> [f64; 64] {
    transpose(&matmul(&transpose(&matmul(samples, b, false)), b, false))
}

/// The exact separable inverse DCT: `B · F · Bᵀ`.
fn idct_f64(coefs: &[f64; 64], b: &[[f64; 8]; 8]) -> [f64; 64] {
    transpose(&matmul(&transpose(&matmul(coefs, b, true)), b, true))
}

/// Error statistics of one range and sign: per position and over all.
struct Errors {
    peak: i32,
    sum: [i64; 64],
    sq: [i64; 64],
}

impl Errors {
    fn per_position_mse(&self) -> f64 {
        self.sq
            .iter()
            .map(|&s| s as f64 / BLOCKS as f64)
            .fold(0.0, f64::max)
    }
    fn overall_mse(&self) -> f64 {
        self.sq.iter().sum::<i64>() as f64 / (64 * BLOCKS) as f64
    }
    fn per_position_mean(&self) -> f64 {
        self.sum
            .iter()
            .map(|&s| (s as f64 / BLOCKS as f64).abs())
            .fold(0.0, f64::max)
    }
    fn overall_mean(&self) -> f64 {
        (self.sum.iter().sum::<i64>() as f64 / (64 * BLOCKS) as f64).abs()
    }
}

/// Run `BLOCKS` blocks of samples in `lo..=hi`, multiplied by `sign`.
fn measure(seed: u64, lo: i32, hi: i32, sign: i32) -> Errors {
    let b = basis();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Errors {
        peak: 0,
        sum: [0; 64],
        sq: [0; 64],
    };
    for _ in 0..BLOCKS {
        let samples: [f64; 64] = std::array::from_fn(|_| (sign * rng.gen_range(lo..=hi)) as f64);
        let coefs = fdct_f64(&samples, &b).map(|c| c.round().clamp(-2048.0, 2047.0));
        let want = idct_f64(&coefs, &b).map(|s| s.round().clamp(-256.0, 255.0) as i32);
        let got = idct_scalar(&coefs.map(|c| c as i16));
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            let err = (g as i32).clamp(-256, 255) - w;
            e.peak = e.peak.max(err.abs());
            e.sum[i] += err as i64;
            e.sq[i] += (err * err) as i64;
        }
    }
    e
}

#[test]
fn idct_meets_ieee_1180_bounds() {
    for (seed, lo, hi) in [(1180, -256, 255), (1181, -5, 5), (1182, -300, 300)] {
        for sign in [1, -1] {
            let e = measure(seed, lo, hi, sign);
            let what = format!("samples {lo}..={hi}, sign {sign}");
            eprintln!(
                "{what}: peak {}, MSE worst position {:.4}, overall {:.4}; \
                 |mean| worst position {:.4}, overall {:.5}",
                e.peak,
                e.per_position_mse(),
                e.overall_mse(),
                e.per_position_mean(),
                e.overall_mean()
            );
            assert!(e.peak <= 1, "peak error {}, {what}", e.peak);
            assert!(e.per_position_mse() <= 0.06, "{what}");
            assert!(e.overall_mse() <= 0.02, "{what}");
            assert!(e.per_position_mean() <= 0.015, "{what}");
            assert!(e.overall_mean() <= 0.0015, "{what}");
        }
    }
}

#[test]
fn all_zero_in_gives_all_zero_out() {
    assert_eq!(idct_scalar(&[0; 64]), [0; 64]);
}
