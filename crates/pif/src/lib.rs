//! Pseudo In-line Format (PIF) — the CLARE hardware's view of a clause.
//!
//! "Facts and rule heads are compiled into pseudo in-line formats (PIF)
//! ready for partial test unification. In the PIF format, an argument is
//! represented by an 8 bit type tag followed by a 24 or 32 bit content field
//! with an optional 32 bit extension." (§2.2 of the paper.)
//!
//! This crate implements:
//!
//! * [`tags`] — the Table A1 type-tag scheme, bit-for-bit (`0x20` anonymous
//!   variable, `0x27`/`0x25`/`0x26`/`0x24` query/database variables,
//!   `0x08`/`0x09` atom/float pointers, `0x1N` in-line integers, and the
//!   `011a aaaa`-family complex-term tags with 5-bit arity fields).
//! * [`word`] — 32-bit PIF words (tag + 24-bit content) with optional
//!   32-bit extensions, and their raw byte encoding.
//! * [`encode`] — compilation of query terms and clause heads into argument
//!   streams: first-level in-line, deeper structure as pointer words, and
//!   variable occurrences classified as *first* or *subsequent* (the origin
//!   of the paper's `1st-QV`/`Sub-QV`/`1st-DV`/`Sub-DV` distinction).
//! * [`record`] — the on-disk clause record: the PIF head stream the FS2
//!   filter examines, followed by a lossless serialization of the complete
//!   clause (the "compiled clause" that full unification uses after a hit).
//! * [`termio`] — the bounded byte codec for whole terms shared by clause
//!   records and the `clare-net` wire protocol; its decoder treats input as
//!   untrusted (offset caps, depth limit, no panics).
//!
//! # Examples
//!
//! ```
//! use clare_term::{SymbolTable, parser::parse_term};
//! use clare_pif::encode::{encode_query, Side};
//!
//! let mut sy = SymbolTable::new();
//! let q = parse_term("married_couple(S, S)", &mut sy)?;
//! let stream = encode_query(&q)?;
//! // Two argument words: a first and a subsequent query variable.
//! assert_eq!(stream.words().len(), 2);
//! assert_eq!(stream.words()[0].tag(), 0x27); // 1st-QV
//! assert_eq!(stream.words()[1].tag(), 0x25); // Sub-QV
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod encode;
pub mod error;
mod reader;
pub mod record;
pub mod tags;
pub mod termio;
pub mod word;

pub use encode::{encode_clause_head, encode_query, Side};
pub use error::PifError;
pub use record::ClauseRecord;
pub use tags::{TagCategory, TypeTag};
pub use termio::{decode_term, encode_term, TermLimits};
pub use word::{first_word_key, PifStream, PifWord};
