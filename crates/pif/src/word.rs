//! PIF words and argument streams.
//!
//! A word is an 8-bit type tag plus a 24-bit content field, packed into
//! 32 bits, optionally followed by a 32-bit extension (used by pointer
//! words). This is what travels over the In-bus to the FS2 comparator.

use crate::error::PifError;
use crate::tags::{TagCategory, TypeTag};
use bytes::{Buf, BufMut};
use std::fmt;

/// Maximum value of the 24-bit content field.
pub const CONTENT_MAX: u32 = 0x00FF_FFFF;

/// Smallest integer encodable in-line (28-bit two's complement).
pub const INT_MIN: i64 = -(1 << 27);
/// Largest integer encodable in-line (28-bit two's complement).
pub const INT_MAX: i64 = (1 << 27) - 1;

/// One PIF word: tag byte, 24-bit content, optional 32-bit extension.
///
/// # Examples
///
/// ```
/// use clare_pif::{PifWord, TypeTag};
///
/// let w = PifWord::new(TypeTag::AtomPtr, 42);
/// assert_eq!(w.tag(), 0x08);
/// assert_eq!(w.content(), 42);
/// assert_eq!(PifWord::from_u32(w.to_u32()).unwrap(), w);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PifWord {
    type_tag: TypeTag,
    content: u32,
    extension: Option<u32>,
}

impl PifWord {
    /// Creates a word with no extension.
    ///
    /// # Panics
    ///
    /// Panics if `content` exceeds the 24-bit field; encoders validate
    /// ranges with [`PifError`] before constructing words.
    pub fn new(type_tag: TypeTag, content: u32) -> Self {
        assert!(content <= CONTENT_MAX, "content exceeds 24-bit field");
        PifWord {
            type_tag,
            content,
            extension: None,
        }
    }

    /// Creates a word carrying a 32-bit extension (pointer words).
    ///
    /// # Panics
    ///
    /// Panics if `content` exceeds the 24-bit field.
    pub fn with_extension(type_tag: TypeTag, content: u32, extension: u32) -> Self {
        assert!(content <= CONTENT_MAX, "content exceeds 24-bit field");
        PifWord {
            type_tag,
            content,
            extension: Some(extension),
        }
    }

    /// Encodes an in-line integer word.
    ///
    /// # Errors
    ///
    /// Returns [`PifError::IntOutOfRange`] outside the 28-bit range.
    pub fn int(value: i64) -> Result<Self, PifError> {
        if !(INT_MIN..=INT_MAX).contains(&value) {
            return Err(PifError::IntOutOfRange(value));
        }
        let bits = (value as u32) & 0x0FFF_FFFF; // 28-bit two's complement
        Ok(PifWord {
            type_tag: TypeTag::IntInline {
                high_nibble: (bits >> 24) as u8,
            },
            content: bits & CONTENT_MAX,
            extension: None,
        })
    }

    /// Decodes the value of an in-line integer word.
    ///
    /// Returns `None` if the word is not an integer.
    pub fn int_value(&self) -> Option<i64> {
        match self.type_tag {
            TypeTag::IntInline { high_nibble } => {
                let bits = ((high_nibble as u32) << 24) | self.content;
                // Sign-extend from 28 bits.
                let extended = ((bits << 4) as i32) >> 4;
                Some(extended as i64)
            }
            _ => None,
        }
    }

    /// The decoded type tag.
    pub fn type_tag(&self) -> TypeTag {
        self.type_tag
    }

    /// The raw tag byte (Table A1 value).
    pub fn tag(&self) -> u8 {
        self.type_tag.to_byte()
    }

    /// The 24-bit content field.
    pub fn content(&self) -> u32 {
        self.content
    }

    /// The optional 32-bit extension.
    pub fn extension(&self) -> Option<u32> {
        self.extension
    }

    /// Packs tag and content into the 32-bit bus representation
    /// (tag in the most significant byte). The extension is not included.
    pub fn to_u32(&self) -> u32 {
        ((self.tag() as u32) << 24) | self.content
    }

    /// Unpacks a 32-bit bus word (no extension).
    ///
    /// # Errors
    ///
    /// Returns [`PifError::Malformed`] for an invalid tag byte.
    pub fn from_u32(raw: u32) -> Result<Self, PifError> {
        let type_tag = TypeTag::from_byte((raw >> 24) as u8)?;
        Ok(PifWord {
            type_tag,
            content: raw & CONTENT_MAX,
            extension: None,
        })
    }

    /// Size of this word on disk/bus in bytes (4, or 8 with an extension).
    pub fn byte_len(&self) -> usize {
        if self.extension.is_some() {
            8
        } else {
            4
        }
    }
}

/// The first-word key of a clause-head stream: the raw bus word
/// ([`PifWord::to_u32`]) of its first word, or `0` when the stream is
/// empty or starts with a variable (`Anon`/`QueryVar`/`DbVar`). `0` is
/// never a real word — tag byte `0x00` is outside Table A1 — so it reads
/// "this clause cannot be rejected on its first word alone". The FS2 track
/// sweep prefilters on a column of these.
pub fn first_word_key(words: &[PifWord]) -> u32 {
    match words.first() {
        Some(w) if w.type_tag().category() != TagCategory::Variable => w.to_u32(),
        _ => 0,
    }
}

impl fmt::Display for PifWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:#04x} {} c={:#08x}",
            self.tag(),
            self.type_tag,
            self.content
        )?;
        if let Some(ext) = self.extension {
            write!(f, " ext={ext:#010x}")?;
        }
        f.write_str("]")
    }
}

/// An argument stream: the sequence of PIF words the FS2 hardware walks for
/// one query or one clause head.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PifStream {
    words: Vec<PifWord>,
}

impl PifStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// The words in stream order.
    pub fn words(&self) -> &[PifWord] {
        &self.words
    }

    /// Appends a word.
    pub fn push(&mut self, word: PifWord) {
        self.words.push(word);
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the stream has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total size in bytes when written to disk (words plus extensions).
    /// This is the quantity the paper's MB/s filtering rates are measured
    /// over.
    pub fn byte_len(&self) -> usize {
        self.words.iter().map(PifWord::byte_len).sum()
    }

    /// Serializes the stream: each word as 4 big-endian bytes, pointer
    /// words followed by a 4-byte extension. A leading `u16` word count and
    /// `u16` extension bitmap-length make the encoding self-delimiting.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u16(self.words.len() as u16);
        for word in &self.words {
            buf.put_u32(word.to_u32());
            buf.put_u8(word.extension.is_some() as u8);
            if let Some(ext) = word.extension {
                buf.put_u32(ext);
            }
        }
    }

    /// Deserializes a stream written by [`Self::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`PifError::Malformed`] on truncated or invalid data.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self, PifError> {
        let malformed = |reason: &str| PifError::Malformed {
            offset: 0,
            reason: reason.to_owned(),
        };
        if buf.remaining() < 2 {
            return Err(malformed("truncated stream header"));
        }
        let count = buf.get_u16() as usize;
        let mut words = Vec::with_capacity(count);
        for _ in 0..count {
            if buf.remaining() < 5 {
                return Err(malformed("truncated word"));
            }
            let mut word = PifWord::from_u32(buf.get_u32())?;
            // The extension flag is strictly 0 or 1: anything else means the
            // stream is corrupt (or adversarial), not merely sloppy.
            let has_ext = match buf.get_u8() {
                0 => false,
                1 => true,
                other => {
                    return Err(malformed(&format!("invalid extension flag {other:#04x}")));
                }
            };
            if has_ext {
                if buf.remaining() < 4 {
                    return Err(malformed("truncated extension"));
                }
                word.extension = Some(buf.get_u32());
            }
            words.push(word);
        }
        Ok(PifStream { words })
    }
}

impl FromIterator<PifWord> for PifStream {
    fn from_iter<I: IntoIterator<Item = PifWord>>(iter: I) -> Self {
        PifStream {
            words: iter.into_iter().collect(),
        }
    }
}

impl Extend<PifWord> for PifStream {
    fn extend<I: IntoIterator<Item = PifWord>>(&mut self, iter: I) {
        self.words.extend(iter);
    }
}

impl<'a> IntoIterator for &'a PifStream {
    type Item = &'a PifWord;
    type IntoIter = std::slice::Iter<'a, PifWord>;
    fn into_iter(self) -> Self::IntoIter {
        self.words.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_encoding_roundtrip() {
        for v in [0i64, 1, -1, 1000, -1000, INT_MAX, INT_MIN] {
            let w = PifWord::int(v).unwrap();
            assert_eq!(w.int_value(), Some(v), "roundtrip {v}");
        }
    }

    #[test]
    fn int_out_of_range_rejected() {
        assert_eq!(
            PifWord::int(INT_MAX + 1),
            Err(PifError::IntOutOfRange(INT_MAX + 1))
        );
        assert_eq!(
            PifWord::int(INT_MIN - 1),
            Err(PifError::IntOutOfRange(INT_MIN - 1))
        );
        assert!(PifWord::int(i64::MAX).is_err());
    }

    #[test]
    fn int_tag_nibble_is_high_nibble() {
        // Value 0x7123456: tag nibble must be the most significant nibble
        // of the 28-bit value, content the remaining 24 bits.
        let w = PifWord::int(0x712_3456).unwrap();
        assert_eq!(w.tag(), 0x17);
        assert_eq!(w.content(), 0x12_3456);
    }

    #[test]
    fn u32_pack_unpack() {
        let w = PifWord::new(TypeTag::AtomPtr, 0x00AB_CDEF);
        let raw = w.to_u32();
        assert_eq!(raw >> 24, 0x08);
        assert_eq!(PifWord::from_u32(raw).unwrap(), w);
    }

    #[test]
    fn from_u32_rejects_bad_tag() {
        assert!(PifWord::from_u32(0x00_000000).is_err());
    }

    #[test]
    fn no_word_packs_to_zero() {
        // Tag byte 0x00 is outside Table A1, so the all-zero bus word is
        // free for `first_word_key` to mean "no key".
        for byte in 0u8..=255 {
            if let Ok(tag) = TypeTag::from_byte(byte) {
                assert_ne!(PifWord::new(tag, 0).to_u32(), 0, "tag {byte:#04x}");
            }
        }
    }

    #[test]
    fn first_word_key_is_zero_exactly_for_empty_and_variable_heads() {
        let atom = PifWord::new(TypeTag::AtomPtr, 1);
        let complex = PifWord::new(TypeTag::StructInline { arity: 1 }, 9);
        assert_eq!(first_word_key(&[]), 0);
        assert_eq!(first_word_key(&[atom, complex]), atom.to_u32());
        assert_eq!(first_word_key(&[complex, atom]), complex.to_u32());
        assert_eq!(first_word_key(&[PifWord::int(-1).unwrap()]), 0x1FFF_FFFF);
        for tag in [
            TypeTag::Anon,
            TypeTag::DbVar { first: true },
            TypeTag::DbVar { first: false },
            TypeTag::QueryVar { first: true },
            TypeTag::QueryVar { first: false },
        ] {
            assert_eq!(first_word_key(&[PifWord::new(tag, 0), atom]), 0);
        }
    }

    #[test]
    fn byte_len_counts_extension() {
        let plain = PifWord::new(TypeTag::AtomPtr, 1);
        assert_eq!(plain.byte_len(), 4);
        let ptr = PifWord::with_extension(TypeTag::StructPtr { arity: 31 }, 7, 0xDEAD_BEEF);
        assert_eq!(ptr.byte_len(), 8);
    }

    #[test]
    fn stream_serialization_roundtrip() {
        let mut s = PifStream::new();
        s.push(PifWord::new(TypeTag::AtomPtr, 3));
        s.push(PifWord::int(-42).unwrap());
        s.push(PifWord::with_extension(
            TypeTag::StructPtr { arity: 31 },
            9,
            12345,
        ));
        let mut buf = Vec::new();
        s.write_to(&mut buf);
        let back = PifStream::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut s = PifStream::new();
        s.push(PifWord::new(TypeTag::AtomPtr, 3));
        let mut buf = Vec::new();
        s.write_to(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(PifStream::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    #[should_panic(expected = "24-bit")]
    fn oversized_content_panics() {
        PifWord::new(TypeTag::AtomPtr, CONTENT_MAX + 1);
    }

    #[test]
    fn stream_byte_len() {
        let mut s = PifStream::new();
        s.push(PifWord::new(TypeTag::AtomPtr, 1));
        s.push(PifWord::with_extension(
            TypeTag::StructPtr { arity: 2 },
            2,
            3,
        ));
        assert_eq!(s.byte_len(), 12);
    }
}
