//! Compilation of terms into PIF argument streams.
//!
//! The stream contains exactly what the FS2 hardware walks:
//!
//! * one word per top-level argument;
//! * for an in-line complex argument (arity ≤ 31), one word per first-level
//!   element immediately following — "Structure Elements Follow" /
//!   "List Elements Follow" in Table A1;
//! * first-level elements that are themselves complex are *pointer* words
//!   (functor/arity summary only), so the stream never nests deeper than
//!   one level — which is precisely why the hardware implements Level 3
//!   matching and no more;
//! * the tail of an unterminated list is not part of the stream (the
//!   two-counter rule never examines it); the lossless copy of the clause
//!   lives in the surrounding [`ClauseRecord`](crate::record::ClauseRecord).
//!
//! Variable occurrences are numbered left-to-right across the whole stream
//! and tagged *first* or *subsequent* — the compile-time classification the
//! paper describes in §3.1.

use crate::error::PifError;
use crate::tags::{TypeTag, MAX_TAG_ARITY};
use crate::word::{PifStream, PifWord, CONTENT_MAX};
use clare_term::{Term, VarId};
use std::collections::HashSet;

/// Which side of the match a stream is compiled for: queries use the
/// `QV` variable tags and clause heads the `DV` tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Query argument stream (pre-loaded into FS2 Query Memory).
    Query,
    /// Database clause-head stream (streamed from disk via the Double
    /// Buffer).
    Db,
}

/// Encodes a query term's arguments into a PIF stream.
///
/// # Errors
///
/// Returns [`PifError::NotCallable`] if `query` is not an atom or
/// structure, or a range error if a constant does not fit its field.
pub fn encode_query(query: &Term) -> Result<PifStream, PifError> {
    encode_side(query, Side::Query)
}

/// Encodes a clause head's arguments into a PIF stream.
///
/// # Errors
///
/// As for [`encode_query`].
pub fn encode_clause_head(head: &Term) -> Result<PifStream, PifError> {
    encode_side(head, Side::Db)
}

/// Encodes either side.
///
/// # Errors
///
/// As for [`encode_query`].
pub fn encode_side(term: &Term, side: Side) -> Result<PifStream, PifError> {
    if term.functor_arity().is_none() {
        return Err(PifError::NotCallable);
    }
    let mut enc = Encoder {
        side,
        seen_low: 0,
        seen_high: HashSet::new(),
        next_pointer: 1,
        stream: PifStream::new(),
    };
    for arg in term.children() {
        enc.emit_argument(arg)?;
    }
    Ok(enc.stream)
}

struct Encoder {
    side: Side,
    /// The variables seen so far: one bit each for ids below 64 (every
    /// goal the resolver compacts), a set for the rest, which allocates
    /// only when a query has such a variable.
    seen_low: u64,
    seen_high: HashSet<VarId>,
    next_pointer: u32,
    stream: PifStream,
}

impl Encoder {
    fn fresh_pointer(&mut self) -> u32 {
        let p = self.next_pointer;
        self.next_pointer += 1;
        p.min(CONTENT_MAX)
    }

    fn var_word(&mut self, v: VarId) -> Result<PifWord, PifError> {
        if v.index() > CONTENT_MAX {
            return Err(PifError::VarOffsetTooLarge(v.index()));
        }
        let first = match 1u64.checked_shl(v.index()) {
            Some(bit) => {
                let first = self.seen_low & bit == 0;
                self.seen_low |= bit;
                first
            }
            None => self.seen_high.insert(v),
        };
        let tag = match self.side {
            Side::Query => TypeTag::QueryVar { first },
            Side::Db => TypeTag::DbVar { first },
        };
        Ok(PifWord::new(tag, v.index()))
    }

    fn symbol_content(offset: u32) -> Result<u32, PifError> {
        if offset > CONTENT_MAX {
            Err(PifError::SymbolOffsetTooLarge(offset))
        } else {
            Ok(offset)
        }
    }

    /// Emits a top-level argument (and its first-level elements).
    fn emit_argument(&mut self, term: &Term) -> Result<(), PifError> {
        match term {
            Term::Atom(s) => {
                let c = Self::symbol_content(s.offset())?;
                self.stream.push(PifWord::new(TypeTag::AtomPtr, c));
            }
            Term::Float(fid) => {
                let c = Self::symbol_content(fid.offset())?;
                self.stream.push(PifWord::new(TypeTag::FloatPtr, c));
            }
            Term::Int(v) => self.stream.push(PifWord::int(*v)?),
            Term::Anon => self.stream.push(PifWord::new(TypeTag::Anon, 0)),
            Term::Var(v) => {
                let w = self.var_word(*v)?;
                self.stream.push(w);
            }
            Term::Struct { functor, args } => {
                let c = Self::symbol_content(functor.offset())?;
                if args.len() <= MAX_TAG_ARITY as usize {
                    self.stream.push(PifWord::new(
                        TypeTag::StructInline {
                            arity: args.len() as u8,
                        },
                        c,
                    ));
                    for element in args {
                        self.emit_element(element)?;
                    }
                } else {
                    let ptr = self.fresh_pointer();
                    self.stream.push(PifWord::with_extension(
                        TypeTag::StructPtr {
                            arity: MAX_TAG_ARITY,
                        },
                        c,
                        ptr,
                    ));
                }
            }
            Term::List { items, tail } => {
                let terminated = tail.is_none();
                if items.len() <= MAX_TAG_ARITY as usize {
                    self.stream.push(PifWord::new(
                        TypeTag::ListInline {
                            arity: items.len() as u8,
                            terminated,
                        },
                        0,
                    ));
                    for element in items {
                        self.emit_element(element)?;
                    }
                    // The tail is not streamed: the two-counter rule stops
                    // at the shorter arity and never inspects it.
                } else {
                    let ptr = self.fresh_pointer();
                    self.stream.push(PifWord::new(
                        TypeTag::ListPtr {
                            arity: MAX_TAG_ARITY,
                            terminated,
                        },
                        ptr,
                    ));
                }
            }
        }
        Ok(())
    }

    /// Emits a first-level element: simple and variable terms appear as
    /// themselves; nested complex terms become pointer words.
    fn emit_element(&mut self, term: &Term) -> Result<(), PifError> {
        match term {
            Term::Struct { functor, args } => {
                let c = Self::symbol_content(functor.offset())?;
                let ptr = self.fresh_pointer();
                self.stream.push(PifWord::with_extension(
                    TypeTag::StructPtr {
                        arity: args.len().min(MAX_TAG_ARITY as usize) as u8,
                    },
                    c,
                    ptr,
                ));
                Ok(())
            }
            Term::List { items, tail } => {
                let ptr = self.fresh_pointer();
                self.stream.push(PifWord::new(
                    TypeTag::ListPtr {
                        arity: items.len().min(MAX_TAG_ARITY as usize) as u8,
                        terminated: tail.is_none(),
                    },
                    ptr,
                ));
                Ok(())
            }
            simple_or_var => self.emit_argument(simple_or_var),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn query_tags(src: &str) -> Vec<u8> {
        let mut sy = SymbolTable::new();
        let t = parse_term(src, &mut sy).unwrap();
        encode_query(&t)
            .unwrap()
            .words()
            .iter()
            .map(|w| w.tag())
            .collect()
    }

    fn db_tags(src: &str) -> Vec<u8> {
        let mut sy = SymbolTable::new();
        let t = parse_term(src, &mut sy).unwrap();
        encode_clause_head(&t)
            .unwrap()
            .words()
            .iter()
            .map(|w| w.tag())
            .collect()
    }

    #[test]
    fn married_couple_query_tags() {
        // The paper's shared-variable example: first and subsequent QV.
        assert_eq!(query_tags("married_couple(S, S)"), vec![0x27, 0x25]);
    }

    #[test]
    fn db_variable_tags() {
        assert_eq!(db_tags("f(A, a, A)"), vec![0x26, 0x08, 0x24]);
    }

    #[test]
    fn anonymous_variable_tag() {
        assert_eq!(query_tags("f(_, _)"), vec![0x20, 0x20]);
    }

    #[test]
    fn simple_terms() {
        let mut sy = SymbolTable::new();
        let t = parse_term("f(a, 3, 2.5)", &mut sy).unwrap();
        let stream = encode_query(&t).unwrap();
        let w = stream.words();
        assert_eq!(w[0].tag(), 0x08);
        assert_eq!(w[0].content(), sy.lookup_atom("a").unwrap().offset());
        assert_eq!(w[1].tag(), 0x10); // Integer In-line, high nibble 0
        assert_eq!(w[1].int_value(), Some(3));
        assert_eq!(w[2].tag(), 0x09);
        assert_eq!(w[2].content(), sy.lookup_float(2.5).unwrap().offset());
    }

    #[test]
    fn inline_structure_with_elements() {
        let mut sy = SymbolTable::new();
        let t = parse_term("p(g(a, X))", &mut sy).unwrap();
        let stream = encode_query(&t).unwrap();
        let w = stream.words();
        assert_eq!(w.len(), 3, "struct word + 2 element words");
        assert_eq!(w[0].tag(), 0b0110_0010); // Structure In-line, arity 2
        assert_eq!(w[0].content(), sy.lookup_atom("g").unwrap().offset());
        assert_eq!(w[1].tag(), 0x08);
        assert_eq!(w[2].tag(), 0x27);
    }

    #[test]
    fn nested_complex_becomes_pointer_word() {
        let mut sy = SymbolTable::new();
        let t = parse_term("p(g(h(a, b)))", &mut sy).unwrap();
        let stream = encode_query(&t).unwrap();
        let w = stream.words();
        assert_eq!(w.len(), 2, "g word + h pointer word; h's elements absent");
        assert_eq!(w[0].tag(), 0b0110_0001);
        assert_eq!(w[1].tag(), 0b0100_0010); // Structure Pointer, arity 2
        assert_eq!(w[1].content(), sy.lookup_atom("h").unwrap().offset());
        assert!(w[1].extension().is_some());
    }

    #[test]
    fn list_tags_and_tail_not_streamed() {
        assert_eq!(query_tags("p([a, b])"), vec![0b1110_0010, 0x08, 0x08]);
        // Unterminated: tail variable does not appear in the stream.
        assert_eq!(query_tags("p([a, b | T])"), vec![0b1010_0010, 0x08, 0x08]);
        assert_eq!(query_tags("p([])"), vec![0b1110_0000]);
    }

    #[test]
    fn variable_occurrence_numbering_spans_elements() {
        // X first occurs inside a structure element, then at top level:
        // the top-level occurrence must be Subsequent.
        assert_eq!(query_tags("p(g(X), X)"), vec![0b0110_0001, 0x27, 0x25],);
    }

    #[test]
    fn oversized_structure_becomes_pointer() {
        let mut sy = SymbolTable::new();
        let args: Vec<String> = (0..40).map(|i| format!("a{i}")).collect();
        let t = parse_term(&format!("p(f({}))", args.join(", ")), &mut sy).unwrap();
        let stream = encode_query(&t).unwrap();
        let w = stream.words();
        assert_eq!(w.len(), 1, "pointer word only, no elements");
        assert_eq!(w[0].tag(), 0b0101_1111, "saturated arity 31");
    }

    #[test]
    fn int_out_of_range_propagates() {
        let mut sy = SymbolTable::new();
        let t = parse_term("p(999999999999)", &mut sy).unwrap();
        assert!(matches!(encode_query(&t), Err(PifError::IntOutOfRange(_))));
    }

    #[test]
    fn non_callable_rejected() {
        let mut sy = SymbolTable::new();
        let t = parse_term("42", &mut sy).unwrap();
        assert_eq!(encode_query(&t), Err(PifError::NotCallable));
        let t = parse_term("[a, b]", &mut sy).unwrap();
        assert_eq!(encode_query(&t), Err(PifError::NotCallable));
    }

    #[test]
    fn atom_headed_term_has_empty_stream() {
        let mut sy = SymbolTable::new();
        let t = parse_term("halt", &mut sy).unwrap();
        assert!(encode_query(&t).unwrap().is_empty());
    }

    #[test]
    fn first_occurrences_either_side_of_the_bitmask() {
        let mut sy = SymbolTable::new();
        let [low, high] = [63, 64].map(|i| Term::Var(VarId::new(i)));
        let t = Term::Struct {
            functor: sy.intern_atom("p"),
            args: vec![low.clone(), high.clone(), low, high],
        };
        let firsts: Vec<TypeTag> = encode_query(&t)
            .unwrap()
            .words()
            .iter()
            .map(|w| w.type_tag())
            .collect();
        let tag = |first| TypeTag::QueryVar { first };
        assert_eq!(firsts, [tag(true), tag(true), tag(false), tag(false)]);
    }

    #[test]
    fn many_distinct_variables_encode_in_linear_time() {
        // A frame may carry a top-level arity up to u16::MAX, all distinct
        // variables; the first-occurrence test must stay O(1) per word, or
        // one such query holds a worker for seconds.
        let mut sy = SymbolTable::new();
        let args: Vec<Term> = (0..u16::MAX as u32)
            .map(|i| Term::Var(VarId::new(i)))
            .collect();
        let t = Term::Struct {
            functor: sy.intern_atom("p"),
            args,
        };
        let started = std::time::Instant::now();
        let stream = encode_query(&t).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(stream.len(), u16::MAX as usize);
        assert!(stream
            .words()
            .iter()
            .all(|w| w.type_tag() == TypeTag::QueryVar { first: true }));
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "encoding {} distinct variables took {elapsed:?}",
            u16::MAX
        );
    }

    #[test]
    fn query_and_db_sides_differ_only_in_var_tags() {
        let mut sy = SymbolTable::new();
        let t = parse_term("f(X, a, g(Y))", &mut sy).unwrap();
        let q = encode_query(&t).unwrap();
        let d = encode_clause_head(&t).unwrap();
        assert_eq!(q.len(), d.len());
        for (qw, dw) in q.words().iter().zip(d.words()) {
            match qw.type_tag() {
                TypeTag::QueryVar { first } => {
                    assert_eq!(dw.type_tag(), TypeTag::DbVar { first });
                    assert_eq!(qw.content(), dw.content());
                }
                _ => assert_eq!(qw.tag(), dw.tag()),
            }
        }
    }
}
