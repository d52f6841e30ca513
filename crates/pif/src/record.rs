//! On-disk clause records.
//!
//! A compiled clause file (one per predicate — "predicates with the same
//! functor names and arities are stored in a compiled clause file") is a
//! sequence of records. Each record carries:
//!
//! 1. the **PIF head stream** — what FS2's Test Unification Engine walks;
//! 2. a **lossless serialization of the whole clause** — the "compiled
//!    clause" that the Prolog system full-unifies after the filters accept
//!    the record (our stand-in for Prolog-X bytecode).
//!
//! The record length is the quantity streamed from disk, so it drives every
//! throughput figure (the paper's MB/s rates are bytes-past-the-filter per
//! second).

use crate::encode::encode_clause_head;
use crate::error::PifError;
use crate::reader::Reader;
use crate::termio::{read_term, write_term, TermLimits};
use crate::word::PifStream;
use clare_term::term::InvalidClauseError;
use clare_term::Clause;

/// A compiled clause record: PIF head stream plus the full clause.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_clause};
/// use clare_pif::ClauseRecord;
///
/// let mut sy = SymbolTable::new();
/// let clause = parse_clause("parent(tom, bob).", &mut sy)?;
/// let record = ClauseRecord::compile(&clause)?;
/// let bytes = record.to_bytes();
/// let (back, consumed) = ClauseRecord::from_bytes(&bytes)?;
/// assert_eq!(consumed, bytes.len());
/// assert_eq!(back.clause(), &clause);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseRecord {
    head_stream: PifStream,
    clause: Clause,
}

impl ClauseRecord {
    /// Compiles a clause: encodes its head into a PIF stream (database
    /// side) and retains the clause for post-filter full unification.
    ///
    /// # Errors
    ///
    /// Returns a [`PifError`] if the head cannot be encoded (out-of-range
    /// integer, oversized offsets).
    pub fn compile(clause: &Clause) -> Result<Self, PifError> {
        let head_stream = encode_clause_head(clause.head())?;
        Ok(ClauseRecord {
            head_stream,
            clause: clause.clone(),
        })
    }

    /// The PIF stream FS2 matches against the query.
    pub fn head_stream(&self) -> &PifStream {
        &self.head_stream
    }

    /// The complete stored clause.
    pub fn clause(&self) -> &Clause {
        &self.clause
    }

    /// Serializes the record: `u32` total length (including the length
    /// field itself), PIF stream, then the clause.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.head_stream.write_to(&mut body);
        write_clause(&self.clause, &mut body);
        let mut out = Vec::with_capacity(body.len() + 4);
        out.extend_from_slice(&((body.len() + 4) as u32).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Size of the serialized record in bytes.
    pub fn byte_len(&self) -> usize {
        // Avoids materialising the buffer twice in hot paths would be
        // nicer, but records are compiled once and cached by the KB layer.
        self.to_bytes().len()
    }

    /// Deserializes one record from the front of `data`, returning it and
    /// the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`PifError::Malformed`] on truncation or invalid content.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), PifError> {
        let mut header = data;
        let total = header.u32()? as usize;
        if total < 4 || data.len() < total {
            return Err(PifError::malformed("record length exceeds available data"));
        }
        let mut buf = &data[4..total];
        let head_stream = PifStream::read_from(&mut buf)?;
        let clause = read_clause(&mut buf)?;
        Ok((
            ClauseRecord {
                head_stream,
                clause,
            },
            total,
        ))
    }
}

fn write_clause(clause: &Clause, buf: &mut Vec<u8>) {
    write_term(clause.head(), buf);
    buf.extend_from_slice(&(clause.body().len() as u16).to_be_bytes());
    for goal in clause.body() {
        write_term(goal, buf);
    }
    buf.extend_from_slice(&(clause.var_names().len() as u16).to_be_bytes());
    for name in clause.var_names() {
        buf.extend_from_slice(&(name.len() as u16).to_be_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
}

fn read_clause(buf: &mut &[u8]) -> Result<Clause, PifError> {
    let limits = TermLimits::default();
    let head = read_term(buf, &limits)?;
    let n_body = buf.u16()? as usize;
    let mut body = Vec::with_capacity(n_body.min(1024));
    for _ in 0..n_body {
        body.push(read_term(buf, &limits)?);
    }
    let n_vars = buf.u16()? as usize;
    let mut var_names = Vec::with_capacity(n_vars.min(1024));
    for _ in 0..n_vars {
        let len = buf.u16()? as usize;
        let name = std::str::from_utf8(buf.bytes(len)?)
            .map_err(|_| PifError::malformed("variable name is not UTF-8"))?;
        var_names.push(name.to_owned());
    }
    Clause::new(head, body, var_names).map_err(|e| match e {
        InvalidClauseError::HeadNotCallable => PifError::malformed("stored head is not callable"),
        InvalidClauseError::UnnamedVar(_) => {
            PifError::malformed("stored variable has no entry in the name table")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_clause;
    use clare_term::SymbolTable;

    fn roundtrip(src: &str) {
        let mut sy = SymbolTable::new();
        let clause = parse_clause(src, &mut sy).unwrap();
        let record = ClauseRecord::compile(&clause).unwrap();
        let bytes = record.to_bytes();
        let (back, consumed) = ClauseRecord::from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len(), "whole record consumed for {src}");
        assert_eq!(back.clause(), &clause, "clause roundtrip for {src}");
        assert_eq!(
            back.head_stream(),
            record.head_stream(),
            "stream roundtrip for {src}"
        );
    }

    #[test]
    fn roundtrips_facts_and_rules() {
        roundtrip("parent(tom, bob).");
        roundtrip("p(1, -2, 3.5, 'quoted atom').");
        roundtrip("gp(X, Z) :- p(X, Y), p(Y, Z).");
        roundtrip("member(X, [X | _]).");
        roundtrip("member(X, [_ | T]) :- member(X, T).");
        roundtrip("deep(f(g(h([a, b, [c | T]])))).");
        roundtrip("halt.");
    }

    #[test]
    fn a_short_name_table_is_malformed() {
        // `p(X)` stored with an empty name table: the clause's variable
        // scope would no longer cover `X`.
        let mut sy = SymbolTable::new();
        let clause = parse_clause("p(X).", &mut sy).unwrap();
        let mut bytes = ClauseRecord::compile(&clause).unwrap().to_bytes();
        assert_eq!(bytes[bytes.len() - 5..], [0, 1, 0, 1, b'X']);
        bytes.truncate(bytes.len() - 5);
        bytes.extend_from_slice(&[0, 0]);
        let total = (bytes.len() as u32).to_be_bytes();
        bytes[..4].copy_from_slice(&total);
        assert!(matches!(
            ClauseRecord::from_bytes(&bytes),
            Err(PifError::Malformed { .. })
        ));
    }

    #[test]
    fn record_length_prefix_is_total() {
        let mut sy = SymbolTable::new();
        let clause = parse_clause("p(a).", &mut sy).unwrap();
        let record = ClauseRecord::compile(&clause).unwrap();
        let bytes = record.to_bytes();
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len());
        assert_eq!(record.byte_len(), bytes.len());
    }

    #[test]
    fn consecutive_records_parse_from_one_buffer() {
        let mut sy = SymbolTable::new();
        let c1 = parse_clause("p(a).", &mut sy).unwrap();
        let c2 = parse_clause("p(b, c).", &mut sy).unwrap();
        let mut buf = ClauseRecord::compile(&c1).unwrap().to_bytes();
        buf.extend(ClauseRecord::compile(&c2).unwrap().to_bytes());
        let (r1, n1) = ClauseRecord::from_bytes(&buf).unwrap();
        let (r2, n2) = ClauseRecord::from_bytes(&buf[n1..]).unwrap();
        assert_eq!(r1.clause(), &c1);
        assert_eq!(r2.clause(), &c2);
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn truncated_record_rejected() {
        let mut sy = SymbolTable::new();
        let clause = parse_clause("p(a, b, c).", &mut sy).unwrap();
        let bytes = ClauseRecord::compile(&clause).unwrap().to_bytes();
        for cut in [0, 2, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ClauseRecord::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(ClauseRecord::from_bytes(&[0xFF; 16]).is_err());
    }

    #[test]
    fn head_stream_matches_direct_encoding() {
        let mut sy = SymbolTable::new();
        let clause = parse_clause("f(A, a, A).", &mut sy).unwrap();
        let record = ClauseRecord::compile(&clause).unwrap();
        let direct = encode_clause_head(clause.head()).unwrap();
        assert_eq!(record.head_stream(), &direct);
        let tags: Vec<u8> = record
            .head_stream()
            .words()
            .iter()
            .map(|w| w.tag())
            .collect();
        assert_eq!(tags, vec![0x26, 0x08, 0x24]);
    }
}
