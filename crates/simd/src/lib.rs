//! A runtime-dispatched SIMD kernel for the FS2 track sweep's hot loop.
//!
//! The sweep selects, from a track's first-word column, the clauses whose
//! key equals the query's (or that have none) — a pure data-parallel
//! inner loop, so this crate vectorizes it with `std::arch` intrinsics
//! (AVX2 on x86-64, NEON on aarch64) behind a [`SimdLevel`] value chosen
//! once per process by runtime feature detection. The scalar path is
//! always compiled and is the semantic reference: every vector path must
//! produce bit-identical output, including on non-lane-multiple tails,
//! and the property tests at the bottom of this file enforce that on
//! random inputs. (The FS1 scan needs no kernel of its own: its
//! bit-sliced columns are ANDed a slice at a time, which the compiler
//! vectorizes.)
//!
//! Set `CLARE_SIMD=off` (or `scalar`) to force the scalar path; `avx2` /
//! `neon` request a specific level and silently fall back to scalar when
//! the host cannot deliver it.

use std::fmt;
use std::sync::OnceLock;

/// The instruction-set tier the kernel runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// 128-bit NEON (aarch64).
    Neon,
    /// 256-bit AVX2 (x86-64).
    Avx2,
}

impl SimdLevel {
    /// Detects the best level the host supports, ignoring the environment
    /// override.
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

    /// Parses a `CLARE_SIMD` override value. `off`/`scalar` force scalar;
    /// `avx2`/`neon` request that level (granted only if the host has it);
    /// anything else means "auto".
    fn from_env(value: &str, detected: SimdLevel) -> SimdLevel {
        match value.to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" | "none" => SimdLevel::Scalar,
            "avx2" if detected == SimdLevel::Avx2 => SimdLevel::Avx2,
            "neon" if detected == SimdLevel::Neon => SimdLevel::Neon,
            "avx2" | "neon" => SimdLevel::Scalar,
            _ => detected,
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

/// The level the process runs at: runtime detection combined with the
/// `CLARE_SIMD` environment override, computed once and cached.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = SimdLevel::detect();
        match std::env::var("CLARE_SIMD") {
            Ok(v) => SimdLevel::from_env(&v, detected),
            Err(_) => detected,
        }
    })
}

// ---------------------------------------------------------------------------
// FS2 kernel: first-word prefilter over a track's key column
// ---------------------------------------------------------------------------

/// Appends to `out` the index (counting from 0) of every `column` entry
/// equal to `key` or to `0`, in ascending order.
///
/// The FS2 track sweep runs this over a track's first-word column
/// (`0` = the clause has no first-word key): the selected clauses are the
/// only ones that can survive their first MATCH against a query whose
/// first word is the simple value `key`.
///
/// Every level produces identical output; `level` only selects how the
/// loop is executed.
pub fn select_eq_or_zero_u32(level: SimdLevel, column: &[u32], key: u32, out: &mut Vec<u32>) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only produced when the host reports the feature.
        SimdLevel::Avx2 => unsafe { select_eq_or_zero_u32_avx2(column, key, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on aarch64.
        SimdLevel::Neon => unsafe { select_eq_or_zero_u32_neon(column, key, out) },
        _ => select_eq_or_zero_u32_scalar(column, key, 0, out),
    }
}

/// The scalar reference loop for [`select_eq_or_zero_u32`], over
/// `column[from..]` (the vector paths use it for their tails).
fn select_eq_or_zero_u32_scalar(column: &[u32], key: u32, from: usize, out: &mut Vec<u32>) {
    for (i, &word) in column.iter().enumerate().skip(from) {
        if word == key || word == 0 {
            out.push(i as u32);
        }
    }
}

/// AVX2: eight column entries per vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn select_eq_or_zero_u32_avx2(column: &[u32], key: u32, out: &mut Vec<u32>) {
    use std::arch::x86_64::*;
    let keys = _mm256_set1_epi32(key as i32);
    let zero = _mm256_setzero_si256();
    let chunks = column.len() / 8;
    for c in 0..chunks {
        // SAFETY: `c * 8 + 7 < column.len()`; unaligned load is permitted.
        let words = _mm256_loadu_si256(column.as_ptr().add(c * 8) as *const __m256i);
        let hit = _mm256_or_si256(
            _mm256_cmpeq_epi32(words, keys),
            _mm256_cmpeq_epi32(words, zero),
        );
        let mut mask = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32;
        while mask != 0 {
            out.push((c * 8) as u32 + mask.trailing_zeros());
            mask &= mask - 1;
        }
    }
    select_eq_or_zero_u32_scalar(column, key, chunks * 8, out);
}

/// NEON: four column entries per vector.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn select_eq_or_zero_u32_neon(column: &[u32], key: u32, out: &mut Vec<u32>) {
    use std::arch::aarch64::*;
    let keys = vdupq_n_u32(key);
    let zero = vdupq_n_u32(0);
    let chunks = column.len() / 4;
    for c in 0..chunks {
        // SAFETY: `c * 4 + 3 < column.len()`.
        let words = vld1q_u32(column.as_ptr().add(c * 4));
        let hit = vorrq_u32(vceqq_u32(words, keys), vceqq_u32(words, zero));
        // No lane hit max-reduces to 0 — the common case on a selective key.
        if vmaxvq_u32(hit) != 0 {
            for lane in 0..4 {
                let word = column[c * 4 + lane];
                if word == key || word == 0 {
                    out.push((c * 4 + lane) as u32);
                }
            }
        }
    }
    select_eq_or_zero_u32_scalar(column, key, chunks * 4, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn active_vector_level() -> Option<SimdLevel> {
        match SimdLevel::detect() {
            SimdLevel::Scalar => None,
            l => Some(l),
        }
    }

    #[test]
    fn gauge_values_are_stable() {
        assert_eq!(SimdLevel::Scalar.as_gauge(), 0);
        assert_eq!(SimdLevel::Neon.as_gauge(), 1);
        assert_eq!(SimdLevel::Avx2.as_gauge(), 2);
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
    }

    #[test]
    fn env_override_parsing() {
        let detected = SimdLevel::detect();
        assert_eq!(SimdLevel::from_env("off", detected), SimdLevel::Scalar);
        assert_eq!(SimdLevel::from_env("scalar", detected), SimdLevel::Scalar);
        assert_eq!(SimdLevel::from_env("SCALAR", detected), SimdLevel::Scalar);
        assert_eq!(SimdLevel::from_env("auto", detected), detected);
        assert_eq!(SimdLevel::from_env("", detected), detected);
        // A requested level is granted only when detected.
        assert_eq!(
            SimdLevel::from_env("avx2", SimdLevel::Avx2),
            SimdLevel::Avx2
        );
        assert_eq!(
            SimdLevel::from_env("avx2", SimdLevel::Scalar),
            SimdLevel::Scalar
        );
        assert_eq!(
            SimdLevel::from_env("neon", SimdLevel::Avx2),
            SimdLevel::Scalar
        );
    }

    #[test]
    fn select_kernel_matches_scalar_on_random_columns() {
        let Some(level) = active_vector_level() else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(0x51D_0002);
        for _ in 0..500 {
            // A small alphabet so keys, zeros and misses all occur often,
            // with duplicates; now and then a key that is itself 0.
            let len = rng.gen_range(0..40usize);
            let column: Vec<u32> = (0..len).map(|_| rng.gen_range(0..4u32)).collect();
            let key = rng.gen_range(0..5u32);
            let mut scalar = Vec::new();
            let mut vector = Vec::new();
            select_eq_or_zero_u32(SimdLevel::Scalar, &column, key, &mut scalar);
            select_eq_or_zero_u32(level, &column, key, &mut vector);
            assert_eq!(scalar, vector, "key {key}, column {column:?}");
        }
    }

    #[test]
    fn select_kernel_tail_lengths_are_exact() {
        // Every length around the lane width: all-key, all-zero, all-miss,
        // and a single hit at each position — at the host level and at the
        // scalar reference itself.
        for level in [SimdLevel::Scalar, SimdLevel::detect()] {
            for len in 0..=19usize {
                let indices: Vec<u32> = (0..len as u32).collect();
                let mut hits = Vec::new();
                select_eq_or_zero_u32(level, &vec![7u32; len], 7, &mut hits);
                assert_eq!(hits, indices, "all-key, len {len}");
                hits.clear();
                select_eq_or_zero_u32(level, &vec![0u32; len], 7, &mut hits);
                assert_eq!(hits, indices, "all-zero, len {len}");
                hits.clear();
                select_eq_or_zero_u32(level, &vec![u32::MAX; len], 7, &mut hits);
                assert!(hits.is_empty(), "all-miss, len {len}");
                for at in 0..len {
                    let mut column = vec![u32::MAX; len];
                    column[at] = 7;
                    hits.clear();
                    select_eq_or_zero_u32(level, &column, 7, &mut hits);
                    assert_eq!(hits, vec![at as u32], "len {len} hit {at}");
                }
            }
        }
    }

    #[test]
    fn select_kernel_appends_without_clearing() {
        let mut out = vec![9u32];
        select_eq_or_zero_u32(SimdLevel::Scalar, &[5, 0, 6, 5], 5, &mut out);
        assert_eq!(out, vec![9, 0, 1, 3]);
    }
}
