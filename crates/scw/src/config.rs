//! SCW+MB scheme parameters.

use clare_disk::ByteRate;

/// Parameters of the superimposed-codeword scheme.
///
/// The paper's FS1 prototype scans "at a rate of up to 4.5 Mbyte/sec"; the
/// codeword width and bits-set-per-key are the classic superimposed-coding
/// tuning knobs (they trade index size against false-drop probability), and
/// the 12-argument encoding limit is stated in §2.1.
///
/// # Examples
///
/// ```
/// use clare_scw::ScwConfig;
///
/// let c = ScwConfig::paper();
/// assert_eq!(c.encoded_args(), 12);
/// assert_eq!(c.width_bits(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScwConfig {
    width_bits: u16,
    bits_per_key: u8,
    encoded_args: usize,
    scan_rate: ByteRate,
}

impl ScwConfig {
    /// The configuration used throughout the reproduction: 64-bit
    /// codewords, 3 bits per key, 12 encoded arguments, 4.5 MB/s scan rate.
    pub fn paper() -> Self {
        ScwConfig {
            width_bits: 64,
            bits_per_key: 3,
            encoded_args: 12,
            scan_rate: ByteRate::from_mb_per_sec(4.5),
        }
    }

    /// A custom configuration (for the width/density ablation benches).
    /// Widths need not be byte-aligned; serialized entries round the
    /// codeword up to whole bytes.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero, if `bits_per_key` is zero or
    /// exceeds `width_bits`, or if `encoded_args` is zero or above 32
    /// (the bit-sliced index records which positions hold `Open` or `Var`
    /// entries in one 32-bit set).
    pub fn custom(width_bits: u16, bits_per_key: u8, encoded_args: usize) -> Self {
        assert!(width_bits > 0, "width must be positive");
        assert!(
            bits_per_key > 0 && (bits_per_key as u16) <= width_bits,
            "bits per key must be in 1..=width"
        );
        assert!(
            (1..=32).contains(&encoded_args),
            "encoded args must be in 1..=32"
        );
        ScwConfig {
            width_bits,
            bits_per_key,
            encoded_args,
            scan_rate: ByteRate::from_mb_per_sec(4.5),
        }
    }

    /// Codeword width in bits.
    pub fn width_bits(&self) -> u16 {
        self.width_bits
    }

    /// Number of bits each hashed key sets in the codeword.
    pub fn bits_per_key(&self) -> u8 {
        self.bits_per_key
    }

    /// Number of leading argument positions that are encoded (12 in the
    /// paper; later arguments are invisible to FS1 — a false-drop source).
    pub fn encoded_args(&self) -> usize {
        self.encoded_args
    }

    /// The FS1 hardware scan rate (4.5 MB/s for the prototype).
    pub fn scan_rate(&self) -> ByteRate {
        self.scan_rate
    }

    /// Size of one serialized index entry in bytes: the codeword (rounded
    /// up to whole bytes), a mask field (2 bits per encoded position,
    /// rounded up), and a 6-byte clause address.
    pub fn entry_bytes(&self) -> usize {
        (self.width_bits as usize).div_ceil(8) + self.mask_bytes() + 6
    }

    /// Bytes used by the mask field.
    pub fn mask_bytes(&self) -> usize {
        (self.encoded_args * 2).div_ceil(8)
    }
}

impl Default for ScwConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ScwConfig::paper();
        assert_eq!(c.width_bits(), 64);
        assert_eq!(c.bits_per_key(), 3);
        assert_eq!(c.encoded_args(), 12);
        assert!((c.scan_rate().as_mb_per_sec() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn entry_bytes_accounting() {
        let c = ScwConfig::paper();
        // 8 (codeword) + 3 (24 mask bits) + 6 (address)
        assert_eq!(c.entry_bytes(), 17);
        let wide = ScwConfig::custom(128, 4, 12);
        assert_eq!(wide.entry_bytes(), 16 + 3 + 6);
        let narrow = ScwConfig::custom(16, 2, 4);
        assert_eq!(narrow.entry_bytes(), 2 + 1 + 6);
    }

    #[test]
    fn unaligned_width_rounds_entry_up() {
        // Widths no longer need byte alignment; the serialized codeword
        // rounds up to whole bytes.
        let c = ScwConfig::custom(65, 3, 12);
        assert_eq!(c.entry_bytes(), 9 + 3 + 6);
    }

    #[test]
    #[should_panic(expected = "encoded args")]
    fn too_many_encoded_args_rejected() {
        ScwConfig::custom(64, 3, 33);
    }

    #[test]
    #[should_panic(expected = "bits per key")]
    fn zero_bits_per_key_rejected() {
        ScwConfig::custom(64, 0, 12);
    }
}
