//! Runtime SIMD dispatch for the media kernels.
//!
//! Every vectorized kernel in this crate comes as a pair: a scalar
//! implementation that is the byte-exact *reference* (`*_scalar`), and one
//! or more `core::arch` x86-64 paths (`*_sse2` / `*_avx2`) that must
//! reproduce the reference bit for bit. The public kernel entry points
//! dispatch through [`level`], which probes the host CPU once per process.
//!
//! Setting the `HINCH_FORCE_SCALAR` environment variable (to anything but
//! `0` or the empty string) pins dispatch to the scalar reference — CI
//! runs the media test suite twice, once per path, so the scalar twin
//! stays exercised on any host (see `scripts/ci.sh`).
//!
//! Byte-exactness ground rules, enforced by the parity proptests in
//! `tests/simd_parity.rs`:
//!
//! * integer kernels (scale, blur) only reassociate integer adds,
//!   which is always exact;
//! * the fixed-point IDCT regroups the reference's wrapping `i32`
//!   products and sums (a ring: the same number bit for bit) and
//!   saturates where the reference does.

use std::sync::OnceLock;

/// The instruction-set level the dispatchers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The byte-exact reference path.
    Scalar,
    /// 128-bit SSE2 (baseline on x86-64).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
}

/// The dispatch level for this process (detected once, then cached).
pub fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// Whether `HINCH_FORCE_SCALAR` pins dispatch to the scalar reference.
pub fn forced_scalar() -> bool {
    match std::env::var_os("HINCH_FORCE_SCALAR") {
        Some(v) => !v.is_empty() && v != "0",
        None => false,
    }
}

fn detect() -> Level {
    if forced_scalar() {
        return Level::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return Level::Sse2;
        }
    }
    Level::Scalar
}

/// `true` when the SSE2 kernels may run (honors the scalar override).
#[inline]
pub fn use_sse2() -> bool {
    level() != Level::Scalar
}

/// `true` when the AVX2 kernels may run (honors the scalar override).
#[inline]
pub fn use_avx2() -> bool {
    level() == Level::Avx2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable() {
        assert_eq!(level(), level());
    }

    #[test]
    fn scalar_implies_no_vector_paths() {
        if level() == Level::Scalar {
            assert!(!use_sse2());
            assert!(!use_avx2());
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn x86_64_detects_at_least_sse2_unless_forced() {
        // SSE2 is architecturally guaranteed on x86-64.
        if !forced_scalar() {
            assert!(use_sse2());
        }
    }
}
