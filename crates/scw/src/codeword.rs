//! Fixed-width codewords and the key-hashing scheme.
//!
//! A key (an argument value, tagged with its position) is hashed to
//! `bits_per_key` pseudo-random bit positions which are OR-ed into the
//! codeword — classic superimposed coding. Hashing is deterministic
//! (splitmix64 over a structural fold of the term) so the same value always
//! produces the same pattern, as a hardware PLA encoder would.

use crate::config::ScwConfig;
use clare_term::Term;
use std::fmt;

/// A codeword of up to 1024 bits (width fixed by the [`ScwConfig`]).
///
/// # Examples
///
/// ```
/// use clare_scw::{Codeword, ScwConfig};
///
/// let config = ScwConfig::paper();
/// let mut cw = Codeword::zero(&config);
/// cw.set_key(&config, 0xDEADBEEF);
/// assert_eq!(cw.count_ones(), u32::from(config.bits_per_key()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Codeword {
    limbs: Vec<u64>,
    width: u16,
}

impl Codeword {
    /// The all-zero codeword of the configured width.
    pub fn zero(config: &ScwConfig) -> Self {
        let limb_count = (config.width_bits() as usize).div_ceil(64);
        Codeword {
            limbs: vec![0; limb_count],
            width: config.width_bits(),
        }
    }

    /// Width in bits.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Sets the `bits_per_key` positions derived from `key`.
    pub fn set_key(&mut self, config: &ScwConfig, key: u64) {
        for bit in key_positions(self.width, config.bits_per_key(), key) {
            self.limbs[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// The bit positions a key would set, without mutating anything.
    pub fn key_bits(config: &ScwConfig, key: u64) -> Codeword {
        let mut cw = Codeword::zero(config);
        cw.set_key(config, key);
        cw
    }

    /// OR-merges another codeword into this one.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merge(&mut self, other: &Codeword) {
        assert_eq!(self.width, other.width, "codeword widths must match");
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a |= b;
        }
    }

    /// True if every set bit of `self` is also set in `other` — the
    /// superimposed-coding inclusion test.
    pub fn subset_of(&self, other: &Codeword) -> bool {
        self.limbs
            .iter()
            .zip(&other.limbs)
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }

    /// Serialized size in bytes (the last byte is partial when the width
    /// is not a multiple of 8).
    pub fn byte_len(&self) -> usize {
        (self.width as usize).div_ceil(8)
    }

    /// Raw limbs (little-endian bit order within the word).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Rebuilds a codeword from raw limbs (the bit-sliced index stores
    /// one column per bit and reconstructs signatures on demand).
    pub(crate) fn from_raw(width: u16, limbs: Vec<u64>) -> Codeword {
        debug_assert_eq!(limbs.len(), (width as usize).div_ceil(64));
        Codeword { limbs, width }
    }
}

impl fmt::Display for Codeword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for limb in self.limbs.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        Ok(())
    }
}

/// The `bits_per_key` bit positions a key sets in a codeword `width` bits
/// wide (repeats are possible: superimposed coding does not avoid them).
pub(crate) fn key_positions(width: u16, bits_per_key: u8, key: u64) -> impl Iterator<Item = usize> {
    let mut state = key;
    (0..bits_per_key).map(move |_| {
        state = splitmix64(state);
        (state % u64::from(width)) as usize
    })
}

/// splitmix64 — a small, well-distributed, deterministic mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Structural hash of a term, folding tags, symbol offsets, and values.
/// Only meaningful for ground terms (callers guard); variables hash as a
/// fixed sentinel so the function is total.
pub fn hash_term(term: &Term) -> u64 {
    fn fold(term: &Term, acc: u64) -> u64 {
        match term {
            Term::Atom(s) => splitmix64(acc ^ 0xA100_0000_0000_0000 ^ s.offset() as u64),
            Term::Int(v) => splitmix64(acc ^ 0x1200_0000_0000_0000 ^ *v as u64),
            Term::Float(id) => splitmix64(acc ^ 0xF300_0000_0000_0000 ^ id.offset() as u64),
            Term::Var(_) | Term::Anon => splitmix64(acc ^ 0x7A00_0000_0000_0000),
            Term::Struct { functor, args } => {
                let mut h = splitmix64(
                    acc ^ 0x5700_0000_0000_0000
                        ^ ((functor.offset() as u64) << 8)
                        ^ args.len() as u64,
                );
                for a in args {
                    h = fold(a, h);
                }
                h
            }
            Term::List { items, tail } => {
                let mut h = splitmix64(acc ^ 0x4C00_0000_0000_0000 ^ items.len() as u64);
                for i in items {
                    h = fold(i, h);
                }
                if let Some(t) = tail {
                    h = fold(t, splitmix64(h ^ 0x7E));
                }
                h
            }
        }
    }
    fold(term, 0x0BAD_5EED_CAFE_F00D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn cfg() -> ScwConfig {
        ScwConfig::paper()
    }

    #[test]
    fn set_key_is_deterministic() {
        let c = cfg();
        let a = Codeword::key_bits(&c, 42);
        let b = Codeword::key_bits(&c, 42);
        assert_eq!(a, b);
        assert!(a.count_ones() >= 1);
        assert!(a.count_ones() <= c.bits_per_key() as u32);
    }

    #[test]
    fn different_keys_usually_differ() {
        let c = cfg();
        let mut distinct = 0;
        for k in 0..100u64 {
            if Codeword::key_bits(&c, k) != Codeword::key_bits(&c, k + 1000) {
                distinct += 1;
            }
        }
        assert!(distinct > 90, "hashing must spread keys: {distinct}/100");
    }

    #[test]
    fn subset_and_merge() {
        let c = cfg();
        let a = Codeword::key_bits(&c, 1);
        let b = Codeword::key_bits(&c, 2);
        let mut merged = a.clone();
        merged.merge(&b);
        assert!(a.subset_of(&merged));
        assert!(b.subset_of(&merged));
        assert!(Codeword::zero(&c).subset_of(&merged));
        assert!(merged.subset_of(&merged));
        if !b.subset_of(&a) {
            assert!(!merged.subset_of(&a));
        }
    }

    #[test]
    fn wide_codewords_span_limbs() {
        let c = ScwConfig::custom(128, 8, 12);
        let mut cw = Codeword::zero(&c);
        assert_eq!(cw.limbs().len(), 2);
        for k in 0..64 {
            cw.set_key(&c, k);
        }
        assert!(
            cw.limbs()[0] != 0 && cw.limbs()[1] != 0,
            "bits land in both limbs"
        );
    }

    #[test]
    fn term_hash_structural() {
        let mut sy = SymbolTable::new();
        let a1 = parse_term("f(a, [1, 2])", &mut sy).unwrap();
        let a2 = parse_term("f(a, [1, 2])", &mut sy).unwrap();
        let b = parse_term("f(a, [1, 3])", &mut sy).unwrap();
        let c = parse_term("f(a, [1, 2 | T])", &mut sy).unwrap();
        assert_eq!(hash_term(&a1), hash_term(&a2));
        assert_ne!(hash_term(&a1), hash_term(&b));
        assert_ne!(hash_term(&a1), hash_term(&c), "tail changes the hash");
    }

    #[test]
    fn order_sensitivity() {
        let mut sy = SymbolTable::new();
        let ab = parse_term("f(a, b)", &mut sy).unwrap();
        let ba = parse_term("f(b, a)", &mut sy).unwrap();
        assert_ne!(hash_term(&ab), hash_term(&ba));
    }

    #[test]
    fn byte_len_rounds_up_for_unaligned_widths() {
        // Regression: width/8 truncated, so a 65-bit codeword claimed 8
        // bytes and its 65th bit fell outside the serialized form.
        for (width, expected) in [(8u16, 1usize), (64, 8), (65, 9), (71, 9), (72, 9), (1, 1)] {
            let cw = Codeword::zero(&ScwConfig::custom(width, 1, 1));
            assert_eq!(cw.byte_len(), expected, "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn merging_mismatched_widths_panics() {
        let mut a = Codeword::zero(&ScwConfig::custom(64, 3, 12));
        let b = Codeword::zero(&ScwConfig::custom(128, 3, 12));
        a.merge(&b);
    }
}
