//! Bounded byte (de)serialization of whole terms.
//!
//! This is the "compiled clause" payload format of [`crate::record`] and —
//! since the advent of `clare-net` — the wire format for query terms and
//! solution bindings travelling over TCP. Decoding therefore treats its
//! input as **untrusted**: every read is bounds-checked, symbol-table and
//! variable offsets are capped at what the 24-bit PIF content field can
//! address, nesting depth is limited so crafted input cannot overflow the
//! stack, and malformed bytes always surface as a typed [`PifError`],
//! never a panic.
//!
//! # Examples
//!
//! ```
//! use clare_term::{SymbolTable, parser::parse_term};
//! use clare_pif::termio::{decode_term, encode_term, TermLimits};
//!
//! let mut sy = SymbolTable::new();
//! let term = parse_term("likes(mary, [wine | T])", &mut sy)?;
//! let bytes = encode_term(&term);
//! let (back, consumed) = decode_term(&bytes, &TermLimits::default())?;
//! assert_eq!(back, term);
//! assert_eq!(consumed, bytes.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::PifError;
use crate::reader::Reader;
use crate::word::CONTENT_MAX;
use clare_term::{FloatId, Symbol, Term, VarId};

/// Default cap on term nesting depth while decoding.
///
/// Each level costs one recursive call, so the cap bounds stack use on
/// hostile input; 512 is far beyond anything the parser or the workloads
/// produce, yet keeps the decoder comfortably inside a 2 MB thread stack.
pub const MAX_TERM_DEPTH: u32 = 512;

/// Bounds applied while decoding a term from untrusted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermLimits {
    /// Largest acceptable symbol-table offset (atoms, functors, floats).
    /// Defaults to [`CONTENT_MAX`]: offsets beyond the 24-bit PIF content
    /// field could never have come from a valid compiled knowledge base.
    pub max_symbol: u32,
    /// Largest acceptable variable id. Defaults to [`CONTENT_MAX`].
    pub max_var: u32,
    /// Maximum nesting depth. Defaults to [`MAX_TERM_DEPTH`].
    pub max_depth: u32,
}

impl Default for TermLimits {
    fn default() -> Self {
        TermLimits {
            max_symbol: CONTENT_MAX,
            max_var: CONTENT_MAX,
            max_depth: MAX_TERM_DEPTH,
        }
    }
}

/// Serializes one term in the record/wire format.
pub fn write_term(term: &Term, buf: &mut Vec<u8>) {
    match term {
        Term::Atom(s) => {
            buf.push(0x01);
            buf.extend_from_slice(&s.offset().to_be_bytes());
        }
        Term::Int(v) => {
            buf.push(0x02);
            buf.extend_from_slice(&v.to_be_bytes());
        }
        Term::Float(fid) => {
            buf.push(0x03);
            buf.extend_from_slice(&fid.offset().to_be_bytes());
        }
        Term::Var(v) => {
            buf.push(0x04);
            buf.extend_from_slice(&v.index().to_be_bytes());
        }
        Term::Anon => buf.push(0x05),
        Term::Struct { functor, args } => {
            buf.push(0x06);
            buf.extend_from_slice(&functor.offset().to_be_bytes());
            buf.extend_from_slice(&(args.len() as u16).to_be_bytes());
            for a in args {
                write_term(a, buf);
            }
        }
        Term::List { items, tail } => {
            buf.push(0x07);
            buf.extend_from_slice(&(items.len() as u16).to_be_bytes());
            buf.push(tail.is_some() as u8);
            for i in items {
                write_term(i, buf);
            }
            if let Some(t) = tail {
                write_term(t, buf);
            }
        }
    }
}

/// Serializes one term into a fresh buffer.
pub fn encode_term(term: &Term) -> Vec<u8> {
    let mut out = Vec::new();
    write_term(term, &mut out);
    out
}

/// Deserializes one term written by [`write_term`] off the front of
/// `buf`, enforcing `limits`, and advances `buf` past it.
///
/// # Errors
///
/// Returns [`PifError::Malformed`] on truncation, unknown markers, or
/// over-deep nesting; [`PifError::SymbolOffsetTooLarge`] /
/// [`PifError::VarOffsetTooLarge`] for out-of-range offsets.
pub fn read_term(buf: &mut &[u8], limits: &TermLimits) -> Result<Term, PifError> {
    read_term_at(buf, limits, 0)
}

/// Deserializes one term from the front of `data`, returning it and the
/// number of bytes consumed. This is the entry point for untrusted input
/// (network frames): it never panics, whatever the bytes.
///
/// # Errors
///
/// See [`read_term`].
pub fn decode_term(data: &[u8], limits: &TermLimits) -> Result<(Term, usize), PifError> {
    let mut buf = data;
    let term = read_term(&mut buf, limits)?;
    Ok((term, data.len() - buf.len()))
}

fn read_term_at(buf: &mut &[u8], limits: &TermLimits, depth: u32) -> Result<Term, PifError> {
    if depth >= limits.max_depth {
        return Err(PifError::malformed(
            "term nesting exceeds the decode depth limit",
        ));
    }
    match buf.u8()? {
        0x01 => Ok(Term::Atom(Symbol::from_offset(read_symbol(buf, limits)?))),
        0x02 => Ok(Term::Int(buf.i64()?)),
        0x03 => Ok(Term::Float(FloatId::from_offset(read_symbol(buf, limits)?))),
        0x04 => {
            let index = buf.u32()?;
            if index > limits.max_var {
                return Err(PifError::VarOffsetTooLarge(index));
            }
            Ok(Term::Var(VarId::new(index)))
        }
        0x05 => Ok(Term::Anon),
        0x06 => {
            let functor = Symbol::from_offset(read_symbol(buf, limits)?);
            let n = buf.u16()? as usize;
            let mut args = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                args.push(read_term_at(buf, limits, depth + 1)?);
            }
            Ok(Term::Struct { functor, args })
        }
        0x07 => {
            let n = buf.u16()? as usize;
            let has_tail = match buf.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(PifError::malformed(format!(
                        "invalid list tail flag {other:#04x}"
                    )));
                }
            };
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(read_term_at(buf, limits, depth + 1)?);
            }
            let tail = if has_tail {
                Some(Box::new(read_term_at(buf, limits, depth + 1)?))
            } else {
                None
            };
            Ok(Term::List { items, tail })
        }
        other => Err(PifError::malformed(format!(
            "unknown term marker {other:#04x}"
        ))),
    }
}

fn read_symbol(buf: &mut &[u8], limits: &TermLimits) -> Result<u32, PifError> {
    let offset = buf.u32()?;
    if offset > limits.max_symbol {
        return Err(PifError::SymbolOffsetTooLarge(offset));
    }
    Ok(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn roundtrip(src: &str) {
        let mut sy = SymbolTable::new();
        let term = parse_term(src, &mut sy).unwrap();
        let bytes = encode_term(&term);
        let (back, used) = decode_term(&bytes, &TermLimits::default()).unwrap();
        assert_eq!(back, term, "roundtrip {src}");
        assert_eq!(used, bytes.len(), "whole buffer consumed for {src}");
    }

    #[test]
    fn roundtrips_each_shape() {
        roundtrip("a");
        roundtrip("42");
        roundtrip("-7");
        roundtrip("3.25");
        roundtrip("X");
        roundtrip("_");
        roundtrip("f(a, B, 1)");
        roundtrip("[1, 2, 3]");
        roundtrip("[a | T]");
        roundtrip("f(g(h([x, [y | Z]])))");
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        // A chain of unary structs deeper than the limit: marker 0x06,
        // functor 0, arity 1, repeated.
        let mut bytes = Vec::new();
        for _ in 0..=MAX_TERM_DEPTH {
            bytes.push(0x06);
            bytes.extend_from_slice(&0u32.to_be_bytes());
            bytes.extend_from_slice(&1u16.to_be_bytes());
        }
        bytes.push(0x05); // innermost: anon
        let err = decode_term(&bytes, &TermLimits::default()).unwrap_err();
        assert!(matches!(err, PifError::Malformed { .. }), "{err}");
    }

    #[test]
    fn a_tighter_depth_limit_applies() {
        let mut sy = SymbolTable::new();
        let term = parse_term("f(g(h(i)))", &mut sy).unwrap();
        let bytes = encode_term(&term);
        let tight = TermLimits {
            max_depth: 2,
            ..TermLimits::default()
        };
        assert!(decode_term(&bytes, &tight).is_err());
        assert!(decode_term(&bytes, &TermLimits::default()).is_ok());
    }

    #[test]
    fn out_of_range_symbol_offset_rejected() {
        let mut bytes = vec![0x01];
        bytes.extend_from_slice(&(CONTENT_MAX + 1).to_be_bytes());
        assert_eq!(
            decode_term(&bytes, &TermLimits::default()),
            Err(PifError::SymbolOffsetTooLarge(CONTENT_MAX + 1))
        );
    }

    #[test]
    fn out_of_range_var_offset_rejected() {
        let mut bytes = vec![0x04];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_term(&bytes, &TermLimits::default()),
            Err(PifError::VarOffsetTooLarge(u32::MAX))
        );
    }

    #[test]
    fn invalid_list_flag_rejected() {
        let mut bytes = vec![0x07];
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.push(0x02); // tail flag must be 0 or 1
        assert!(decode_term(&bytes, &TermLimits::default()).is_err());
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut sy = SymbolTable::new();
        let term = parse_term("p(a)", &mut sy).unwrap();
        let mut bytes = encode_term(&term);
        let term_len = bytes.len();
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        let (back, used) = decode_term(&bytes, &TermLimits::default()).unwrap();
        assert_eq!(back, term);
        assert_eq!(used, term_len);
    }
}
