//! Error types for PIF encoding and decoding.

use std::fmt;

/// Error raised while encoding a term to PIF or decoding a PIF byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PifError {
    /// An integer does not fit the 28-bit in-line encoding
    /// (tag nibble + 24-bit content field).
    IntOutOfRange(i64),
    /// A variable offset exceeds the 24-bit content field.
    VarOffsetTooLarge(u32),
    /// A symbol-table offset exceeds the 24-bit content field.
    SymbolOffsetTooLarge(u32),
    /// The term cannot head a clause or query (not an atom or structure).
    NotCallable,
    /// A byte stream being decoded is malformed.
    Malformed {
        /// Byte offset where decoding failed.
        offset: usize,
        /// What went wrong.
        reason: String,
    },
}

impl PifError {
    /// A [`PifError::Malformed`] at byte 0 of the decoder's input.
    pub(crate) fn malformed(reason: impl Into<String>) -> Self {
        PifError::Malformed {
            offset: 0,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for PifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PifError::IntOutOfRange(v) => {
                write!(f, "integer {v} does not fit the 28-bit in-line encoding")
            }
            PifError::VarOffsetTooLarge(v) => {
                write!(f, "variable offset {v} exceeds the 24-bit content field")
            }
            PifError::SymbolOffsetTooLarge(v) => {
                write!(
                    f,
                    "symbol table offset {v} exceeds the 24-bit content field"
                )
            }
            PifError::NotCallable => f.write_str("term is not an atom or structure"),
            PifError::Malformed { offset, reason } => {
                write!(f, "malformed PIF data at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for PifError {}
