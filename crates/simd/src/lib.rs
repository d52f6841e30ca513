//! The host's SIMD tier, detected at run time.
//!
//! No retrieval path dispatches on it any more: the FS1 scan ANDs
//! bit-sliced columns a slice at a time, which the compiler vectorizes,
//! and the FS2 sweep reads first-word posting lists instead of scanning a
//! column. The level survives only as provenance — the `simd.level`
//! metrics gauge and the benchmark's report header.

use std::fmt;
use std::sync::OnceLock;

/// The instruction-set tier the host offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// No vector extension detected.
    Scalar,
    /// 128-bit NEON (aarch64).
    Neon,
    /// 256-bit AVX2 (x86-64).
    Avx2,
}

impl SimdLevel {
    /// Detects the best level the host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is architecturally mandatory on aarch64.
            return SimdLevel::Neon;
        }
        #[allow(unreachable_code)]
        SimdLevel::Scalar
    }

    /// Numeric encoding for the `simd.level` metrics gauge:
    /// 0 = scalar, 1 = NEON, 2 = AVX2.
    pub fn as_gauge(self) -> u64 {
        match self {
            SimdLevel::Scalar => 0,
            SimdLevel::Neon => 1,
            SimdLevel::Avx2 => 2,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdLevel::Scalar => f.write_str("scalar"),
            SimdLevel::Neon => f.write_str("neon"),
            SimdLevel::Avx2 => f.write_str("avx2"),
        }
    }
}

/// The host's level, detected once and cached.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(SimdLevel::detect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_values_are_stable() {
        assert_eq!(SimdLevel::Scalar.as_gauge(), 0);
        assert_eq!(SimdLevel::Neon.as_gauge(), 1);
        assert_eq!(SimdLevel::Avx2.as_gauge(), 2);
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(level(), SimdLevel::detect());
    }
}
