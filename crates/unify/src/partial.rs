//! Partial test unification — the paper's five matching levels (§2.2).
//!
//! This is the *software reference model* of the Figure 1 algorithm that the
//! FS2 hardware implements. The FS2 simulator in `clare-fs2` executes the
//! same algorithm at the microprogram/word level over PIF streams; a
//! property test asserts verdict agreement between the two on the adopted
//! configuration ([`PartialConfig::fs2`]).
//!
//! # Word-level semantics
//!
//! The hardware never compares *terms*; it compares 32-bit *words* (an 8-bit
//! type tag plus a content field). A structure's word carries its functor
//! offset and arity; a list's word carries its arity and whether it is
//! terminated. Variable bindings store the partner's **word**, not its
//! subterm data — which is why a clause such as `f(A, A)` matched against
//! query `f(g(a), g(b))` *passes* the filter (both bindings are the word
//! `g/1`) and is only rejected by full unification later. This module
//! reproduces those semantics exactly.
//!
//! # Completeness contract
//!
//! For every configuration, `full unification succeeds ⇒ partial match
//! succeeds`. False *drops* (accepting a clause that full unification later
//! rejects) are expected and quantified by the experiments; false
//! *negatives* are never permitted. Two places where a naive word-equality
//! model would violate this are handled conservatively, exactly as a careful
//! microroutine must:
//!
//! * a fetched binding word that is a list is compared against another list
//!   word by a "could possibly unify" rule (an unterminated list word does
//!   not pin the length);
//! * unterminated lists match element-wise only up to the shorter arity
//!   (the paper's two-counter rule).

use crate::full::unify_query_clause;
use crate::store::var_span;
use clare_term::{FloatId, Symbol, Term, VarId};
use std::fmt;

/// Maximum arity representable in the 5-bit arity field of a complex-term
/// type tag (Table A1). Larger arities are stored as pointer words with a
/// saturated arity field and are never descended into.
pub const INLINE_ARITY_LIMIT: usize = 31;

/// The paper's matching levels (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MatchLevel {
    /// Level 1 — type only.
    L1,
    /// Level 2 — type and content, ignoring complex structures.
    L2,
    /// Level 3 — type and content, catering for first level structures.
    L3,
    /// Level 4 — type and content, including full structures.
    L4,
    /// Level 5 — full structures and variable cross binding checks.
    L5,
}

impl MatchLevel {
    /// All five levels in increasing strictness.
    pub const ALL: [MatchLevel; 5] = [
        MatchLevel::L1,
        MatchLevel::L2,
        MatchLevel::L3,
        MatchLevel::L4,
        MatchLevel::L5,
    ];
}

impl fmt::Display for MatchLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            MatchLevel::L1 => 1,
            MatchLevel::L2 => 2,
            MatchLevel::L3 => 3,
            MatchLevel::L4 => 4,
            MatchLevel::L5 => 5,
        };
        write!(f, "level {n}")
    }
}

/// How deep the matcher looks into complex terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepthPolicy {
    /// Compare type tags only (Level 1).
    TypeOnly,
    /// Compare top-level argument words: type + content (Level 2).
    TopContent,
    /// Additionally compare first-level elements of complex arguments as
    /// words (Level 3 — the depth the hardware implements).
    FirstLevel,
    /// Recurse through all structure (Levels 4 and 5).
    Full,
}

/// Configuration for [`partial_match`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialConfig {
    /// Structural depth examined.
    pub depth: DepthPolicy,
    /// Whether variable bindings are stored and checked for consistency
    /// (the paper's "variable cross binding checks"). When `false`, any
    /// variable matches anything.
    pub check_bindings: bool,
}

impl PartialConfig {
    /// The configuration the CLARE FS2 hardware adopts: Level 3 depth plus
    /// variable cross-binding checks.
    pub fn fs2() -> Self {
        PartialConfig {
            depth: DepthPolicy::FirstLevel,
            check_bindings: true,
        }
    }

    /// The configuration corresponding to one of the paper's five levels.
    pub fn level(level: MatchLevel) -> Self {
        match level {
            MatchLevel::L1 => PartialConfig {
                depth: DepthPolicy::TypeOnly,
                check_bindings: false,
            },
            MatchLevel::L2 => PartialConfig {
                depth: DepthPolicy::TopContent,
                check_bindings: false,
            },
            MatchLevel::L3 => PartialConfig {
                depth: DepthPolicy::FirstLevel,
                check_bindings: false,
            },
            MatchLevel::L4 => PartialConfig {
                depth: DepthPolicy::Full,
                check_bindings: false,
            },
            MatchLevel::L5 => PartialConfig {
                depth: DepthPolicy::Full,
                check_bindings: true,
            },
        }
    }
}

/// The seven FS2 hardware operations (Table 1 of the paper), as classified
/// by the software reference while matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartialOp {
    /// Simple comparison of two words (Figure 6) — 105 ns.
    Match,
    /// First occurrence of a database variable: store the query word
    /// (Figure 7) — 95 ns.
    DbStore,
    /// First occurrence of a query variable: store the database word
    /// (Figure 8) — 115 ns.
    QueryStore,
    /// Subsequent database variable bound to a value (Figure 9) — 105 ns.
    DbFetch,
    /// Subsequent query variable bound to a value (Figure 10) — 170 ns.
    QueryFetch,
    /// Subsequent database variable cross-bound to a variable
    /// (Figure 11) — 170 ns.
    DbCrossBoundFetch,
    /// Subsequent query variable cross-bound to a variable
    /// (Figure 12) — 235 ns.
    QueryCrossBoundFetch,
}

impl PartialOp {
    /// All seven operations, in Table 1 order.
    pub const ALL: [PartialOp; 7] = [
        PartialOp::Match,
        PartialOp::DbStore,
        PartialOp::QueryStore,
        PartialOp::DbFetch,
        PartialOp::QueryFetch,
        PartialOp::DbCrossBoundFetch,
        PartialOp::QueryCrossBoundFetch,
    ];

    /// The operation's hardware name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            PartialOp::Match => "MATCH",
            PartialOp::DbStore => "DB_STORE",
            PartialOp::QueryStore => "QUERY_STORE",
            PartialOp::DbFetch => "DB_FETCH",
            PartialOp::QueryFetch => "QUERY_FETCH",
            PartialOp::DbCrossBoundFetch => "DB_CROSS_BOUND_FETCH",
            PartialOp::QueryCrossBoundFetch => "QUERY_CROSS_BOUND_FETCH",
        }
    }
}

impl fmt::Display for PartialOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a partial match: the verdict plus the operation trace (the
/// trace is only populated when binding checks are enabled at hardware
/// depths, where the seven Table 1 operations are meaningful).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchReport {
    /// `true` if the clause survives the filter.
    pub matched: bool,
    /// Sequence of hardware operations performed, in order.
    pub ops: Vec<PartialOp>,
    /// Number of word-pair comparison steps taken, counted at every
    /// matching level (a cost proxy for the level ablation; zero for the
    /// Level-5 oracle, which delegates to full unification).
    pub comparisons: usize,
}

impl MatchReport {
    /// Histogram of operations: count per [`PartialOp::ALL`] entry.
    pub fn op_histogram(&self) -> [usize; 7] {
        let mut h = [0usize; 7];
        for op in &self.ops {
            let idx = PartialOp::ALL
                .iter()
                .position(|o| o == op)
                .expect("ALL covers every op");
            h[idx] += 1;
        }
        h
    }
}

/// Which side of the comparison a word came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    Query,
    Db,
}

/// A 32-bit hardware word: 8-bit type tag plus content, as the comparator
/// sees it. Arities are saturated at [`INLINE_ARITY_LIMIT`], mirroring the
/// 5-bit arity field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Word {
    Atom(Symbol),
    Float(FloatId),
    Int(i64),
    Struct { functor: Symbol, arity: u8 },
    ListTerminated { arity: u8 },
    ListUnterminated { arity: u8 },
    Var(Side, VarId),
    Anon,
}

fn word_of(term: &Term, side: Side) -> Word {
    match term {
        Term::Atom(s) => Word::Atom(*s),
        Term::Float(f) => Word::Float(*f),
        Term::Int(i) => Word::Int(*i),
        Term::Var(v) => Word::Var(side, *v),
        Term::Anon => Word::Anon,
        Term::Struct { functor, args } => Word::Struct {
            functor: *functor,
            arity: args.len().min(INLINE_ARITY_LIMIT) as u8,
        },
        Term::List { items, tail } => {
            let arity = items.len().min(INLINE_ARITY_LIMIT) as u8;
            if tail.is_some() {
                Word::ListUnterminated { arity }
            } else {
                Word::ListTerminated { arity }
            }
        }
    }
}

/// Coarse type class for Level 1 matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeClass {
    Atom,
    Float,
    Int,
    Struct,
    List,
    Var,
}

fn type_class(term: &Term) -> TypeClass {
    match term {
        Term::Atom(_) => TypeClass::Atom,
        Term::Float(_) => TypeClass::Float,
        Term::Int(_) => TypeClass::Int,
        Term::Struct { .. } => TypeClass::Struct,
        Term::List { .. } => TypeClass::List,
        Term::Var(_) | Term::Anon => TypeClass::Var,
    }
}

/// Conservative word comparison for words where element data is
/// unavailable (fetched bindings, pointer words, depth-exhausted elements):
/// `false` only when the words prove unification impossible.
fn could_unify_words(a: Word, b: Word) -> bool {
    match (a, b) {
        // A variable word that reaches a raw comparison matches anything.
        (Word::Var(..) | Word::Anon, _) | (_, Word::Var(..) | Word::Anon) => true,
        (Word::Atom(x), Word::Atom(y)) => x == y,
        (Word::Float(x), Word::Float(y)) => x == y,
        (Word::Int(x), Word::Int(y)) => x == y,
        (
            Word::Struct {
                functor: fa,
                arity: aa,
            },
            Word::Struct {
                functor: fb,
                arity: ab,
            },
        ) => fa == fb && aa == ab,
        // Terminated lists pin their length exactly…
        (Word::ListTerminated { arity: x }, Word::ListTerminated { arity: y }) => x == y,
        // …but an unterminated list word does not, so any list pairing
        // involving one could still unify.
        (
            Word::ListTerminated { .. } | Word::ListUnterminated { .. },
            Word::ListTerminated { .. } | Word::ListUnterminated { .. },
        ) => true,
        _ => false,
    }
}

/// The variable binding memories: Q-Memory cells for query variables and
/// DB-Memory cells for database variables, each holding at most one stored
/// word (the hardware stores words, never structures).
#[derive(Debug)]
struct WordStores {
    query: Vec<Option<Word>>,
    db: Vec<Option<Word>>,
}

/// Outcome of dereferencing a variable through the binding memories.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    /// The chain ended at a still-unbound cell.
    Unbound { side: Side, var: VarId, hops: usize },
    /// The chain ended at a stored non-variable word.
    Value { word: Word, hops: usize },
}

impl WordStores {
    fn new(query_vars: usize, db_vars: usize) -> Self {
        WordStores {
            query: vec![None; query_vars],
            db: vec![None; db_vars],
        }
    }

    fn cell(&self, side: Side, var: VarId) -> Option<Word> {
        match side {
            Side::Query => self.query[var.index() as usize],
            Side::Db => self.db[var.index() as usize],
        }
    }

    fn set_cell(&mut self, side: Side, var: VarId, word: Word) {
        let slot = match side {
            Side::Query => &mut self.query[var.index() as usize],
            Side::Db => &mut self.db[var.index() as usize],
        };
        *slot = Some(word);
    }

    /// Follows reference chains from `(side, var)` until an unbound cell or
    /// a value word. Mutually-referential variables (bound to each other)
    /// resolve as unbound at the first revisited cell.
    fn resolve(&self, side: Side, var: VarId) -> Resolved {
        let mut seen: Vec<(Side, VarId)> = Vec::new();
        let mut current = (side, var);
        let mut hops = 0usize;
        loop {
            if seen.contains(&current) {
                return Resolved::Unbound {
                    side: current.0,
                    var: current.1,
                    hops,
                };
            }
            seen.push(current);
            match self.cell(current.0, current.1) {
                None => {
                    return Resolved::Unbound {
                        side: current.0,
                        var: current.1,
                        hops,
                    }
                }
                Some(Word::Var(s, v)) => {
                    current = (s, v);
                    hops += 1;
                }
                Some(word) => return Resolved::Value { word, hops },
            }
        }
    }
}

/// Matches `query` against `clause_head` at the given configuration.
///
/// Both terms keep their own variable scopes (as in the hardware: query
/// variables address Q-Memory, clause variables address DB-Memory), so the
/// caller passes the clause head *unrenamed*.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_term};
/// use clare_unify::partial::{partial_match, PartialConfig, PartialOp};
///
/// let mut sy = SymbolTable::new();
/// let q = parse_term("f(X, a, b)", &mut sy)?;
/// let c = parse_term("f(A, a, A)", &mut sy)?;
/// let report = partial_match(&q, &c, PartialConfig::fs2());
/// assert!(report.matched);
/// // The second A is a cross-bound database variable fetch:
/// assert!(report.ops.contains(&PartialOp::DbCrossBoundFetch));
/// # Ok::<(), clare_term::parser::ParseError>(())
/// ```
pub fn partial_match(query: &Term, clause_head: &Term, config: PartialConfig) -> MatchReport {
    // Level 5 is full test unification: delegate to the oracle (no op trace
    // — the hardware never implements this level).
    if config.check_bindings && config.depth == DepthPolicy::Full {
        return MatchReport {
            matched: unify_query_clause(query, clause_head).is_some(),
            ops: Vec::new(),
            comparisons: 0,
        };
    }

    let mut m = Matcher {
        config,
        stores: WordStores::new(var_span(query) as usize, var_span(clause_head) as usize),
        ops: Vec::new(),
        comparisons: 0,
    };

    // The predicate indicator is checked before FS2 even runs (clauses of
    // one functor/arity share a compiled clause file), but guard it here so
    // the function is total over arbitrary terms.
    let matched = match (query.functor_arity(), clause_head.functor_arity()) {
        (Some((fq, aq)), Some((fc, ac))) => {
            if fq != fc || aq != ac {
                false
            } else {
                let q_args: Vec<&Term> = query.children().collect();
                let c_args: Vec<&Term> = clause_head.children().collect();
                q_args
                    .iter()
                    .zip(&c_args)
                    .all(|(q, c)| m.compare(q, c, top_depth(config.depth)))
            }
        }
        // Not clause-shaped: compare the bare terms (useful for tests).
        _ => m.compare(query, clause_head, top_depth(config.depth)),
    };
    MatchReport {
        matched,
        ops: m.ops,
        comparisons: m.comparisons,
    }
}

/// Remaining descent budget for top-level arguments under a policy.
fn top_depth(depth: DepthPolicy) -> u32 {
    match depth {
        DepthPolicy::TypeOnly | DepthPolicy::TopContent => 0,
        DepthPolicy::FirstLevel => 1,
        DepthPolicy::Full => u32::MAX,
    }
}

struct Matcher {
    config: PartialConfig,
    stores: WordStores,
    ops: Vec<PartialOp>,
    comparisons: usize,
}

impl Matcher {
    fn op(&mut self, op: PartialOp) {
        if self.config.check_bindings {
            self.ops.push(op);
        }
    }

    /// Compares one query/database term pair with `depth` levels of complex
    /// descent remaining.
    fn compare(&mut self, q: &Term, db: &Term, depth: u32) -> bool {
        self.comparisons += 1;
        // Anonymous variables skip immediately, regardless of the other side.
        if matches!(q, Term::Anon) || matches!(db, Term::Anon) {
            self.op(PartialOp::Match);
            return true;
        }

        if self.config.depth == DepthPolicy::TypeOnly {
            return type_class(q) == TypeClass::Var
                || type_class(db) == TypeClass::Var
                || type_class(q) == type_class(db);
        }

        if !self.config.check_bindings {
            if q.is_var() || db.is_var() {
                return true;
            }
            return self.compare_nonvar(q, db, depth);
        }

        // Figure 1 precedence: the database-variable branch (case 5) is
        // examined before the query-variable branch (case 6).
        if let Term::Var(dv) = db {
            return self.var_branch(Side::Db, *dv, q, Side::Query);
        }
        if let Term::Var(qv) = q {
            return self.var_branch(Side::Query, *qv, db, Side::Db);
        }
        self.op(PartialOp::Match);
        self.compare_nonvar(q, db, depth)
    }

    /// Handles a variable on `var_side` against `other` (cases 5/6 of
    /// Figure 1), classifying the hardware operation performed.
    fn var_branch(&mut self, var_side: Side, var: VarId, other: &Term, other_side: Side) -> bool {
        let (store_op, fetch_op, cross_op) = match var_side {
            Side::Db => (
                PartialOp::DbStore,
                PartialOp::DbFetch,
                PartialOp::DbCrossBoundFetch,
            ),
            Side::Query => (
                PartialOp::QueryStore,
                PartialOp::QueryFetch,
                PartialOp::QueryCrossBoundFetch,
            ),
        };
        match self.stores.resolve(var_side, var) {
            Resolved::Unbound {
                side: end_side,
                var: end_var,
                hops,
            } => {
                // First (effective) occurrence: store the other side's word.
                self.op(if hops == 0 { store_op } else { cross_op });
                match other {
                    // Binding to a variable on the other side: store a
                    // reference word; if that variable resolves to a value,
                    // store a reference to its representative instead.
                    Term::Var(ov) => match self.stores.resolve(other_side, *ov) {
                        Resolved::Unbound {
                            side: os,
                            var: ov_end,
                            ..
                        } => {
                            if (os, ov_end) != (end_side, end_var) {
                                self.stores
                                    .set_cell(end_side, end_var, Word::Var(os, ov_end));
                            }
                            true
                        }
                        Resolved::Value { word, .. } => {
                            self.stores.set_cell(end_side, end_var, word);
                            true
                        }
                    },
                    Term::Anon => true,
                    value => {
                        self.stores
                            .set_cell(end_side, end_var, word_of(value, other_side));
                        true
                    }
                }
            }
            Resolved::Value { word, hops } => {
                self.op(if hops == 0 { fetch_op } else { cross_op });
                match other {
                    Term::Var(ov) => match self.stores.resolve(other_side, *ov) {
                        Resolved::Unbound {
                            side: os,
                            var: ov_end,
                            ..
                        } => {
                            self.stores.set_cell(os, ov_end, word);
                            true
                        }
                        Resolved::Value {
                            word: other_word, ..
                        } => could_unify_words(word, other_word),
                    },
                    Term::Anon => true,
                    value => could_unify_words(word, word_of(value, other_side)),
                }
            }
        }
    }

    /// Compares two non-variable terms.
    fn compare_nonvar(&mut self, q: &Term, db: &Term, depth: u32) -> bool {
        match (q, db) {
            (Term::Atom(a), Term::Atom(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::Float(a), Term::Float(b)) => a == b,
            (
                Term::Struct {
                    functor: fq,
                    args: aq,
                },
                Term::Struct {
                    functor: fc,
                    args: ac,
                },
            ) => {
                if fq != fc {
                    return false;
                }
                let inline = aq.len() <= INLINE_ARITY_LIMIT && ac.len() <= INLINE_ARITY_LIMIT;
                if !inline || depth == 0 {
                    // Word comparison only (pointer words / depth exhausted).
                    return could_unify_words(word_of(q, Side::Query), word_of(db, Side::Db));
                }
                if aq.len() != ac.len() {
                    return false;
                }
                aq.iter()
                    .zip(ac)
                    .all(|(x, y)| self.compare(x, y, depth - 1))
            }
            (
                Term::List {
                    items: iq,
                    tail: tq,
                },
                Term::List {
                    items: ic,
                    tail: tc,
                },
            ) => {
                let inline = iq.len() <= INLINE_ARITY_LIMIT && ic.len() <= INLINE_ARITY_LIMIT;
                if !inline || depth == 0 {
                    return could_unify_words(word_of(q, Side::Query), word_of(db, Side::Db));
                }
                let both_terminated = tq.is_none() && tc.is_none();
                if both_terminated && iq.len() != ic.len() {
                    return false;
                }
                // Two-counter rule: match until either counter reaches zero.
                let common = iq.len().min(ic.len());
                if !iq[..common]
                    .iter()
                    .zip(&ic[..common])
                    .all(|(x, y)| self.compare(x, y, depth - 1))
                {
                    return false;
                }
                // At full depth with both sides terminated-equal, the
                // element walk above covered everything; with a tail
                // present at full depth, compare the remainders.
                if depth == u32::MAX {
                    self.compare_list_rest(iq, tq, ic, tc, common)
                } else {
                    true
                }
            }
            _ => false,
        }
    }

    /// Full-depth list remainder comparison (Level 4): the shorter side's
    /// tail against the longer side's remainder. Tails are variables in
    /// well-formed terms; a variable tail matches anything at Level 4.
    fn compare_list_rest(
        &mut self,
        iq: &[Term],
        tq: &Option<Box<Term>>,
        ic: &[Term],
        tc: &Option<Box<Term>>,
        common: usize,
    ) -> bool {
        let q_rest = (iq.len() - common, tq);
        let c_rest = (ic.len() - common, tc);
        match (q_rest, c_rest) {
            ((0, None), (0, None)) => true,
            ((0, None), (extra, _)) | ((extra, _), (0, None)) => extra == 0,
            // Any side with a tail variable can absorb the other's surplus.
            _ => true,
        }
    }
}

/// Convenience: runs [`partial_match`] at each of the five paper levels and
/// returns the verdicts in order L1..L5.
pub fn match_at_all_levels(query: &Term, clause_head: &Term) -> [bool; 5] {
    let mut out = [false; 5];
    for (i, level) in MatchLevel::ALL.iter().enumerate() {
        out[i] = partial_match(query, clause_head, PartialConfig::level(*level)).matched;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::unify_query_clause;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn terms(q: &str, c: &str) -> (Term, Term, SymbolTable) {
        let mut sy = SymbolTable::new();
        let qt = parse_term(q, &mut sy).unwrap();
        let ct = parse_term(c, &mut sy).unwrap();
        (qt, ct, sy)
    }

    fn fs2(q: &str, c: &str) -> MatchReport {
        let (qt, ct, _) = terms(q, c);
        partial_match(&qt, &ct, PartialConfig::fs2())
    }

    #[test]
    fn ground_equality_at_fs2() {
        assert!(fs2("f(a, 1)", "f(a, 1)").matched);
        assert!(!fs2("f(a)", "f(b)").matched);
        assert!(!fs2("f(1)", "f(2)").matched);
        assert!(!fs2("f(a)", "g(a)").matched);
        assert!(!fs2("f(a)", "f(a, b)").matched);
    }

    #[test]
    fn shared_query_variable_rejected() {
        // The paper's married_couple example: FS1 cannot reject these,
        // FS2's cross-binding checks can.
        assert!(fs2("married_couple(S, S)", "married_couple(sue, sue)").matched);
        assert!(!fs2("married_couple(S, S)", "married_couple(ann, bob)").matched);
    }

    #[test]
    fn shared_db_variable_rejected() {
        assert!(!fs2("f(a, b)", "f(A, A)").matched);
        assert!(fs2("f(a, a)", "f(A, A)").matched);
    }

    #[test]
    fn paper_cross_binding_example() {
        // f(X, a, b) against f(A, a, A): A cross-binds to X, then the
        // second A fetches the ultimate association (unbound X) and binds
        // it to b — the clause survives, as full unification confirms.
        let report = fs2("f(X, a, b)", "f(A, a, A)");
        assert!(report.matched);
        assert!(report.ops.contains(&PartialOp::DbStore));
        assert!(report.ops.contains(&PartialOp::DbCrossBoundFetch));
    }

    #[test]
    fn query_cross_binding_op_classified() {
        // Query variable bound to a db variable, used again: the second X
        // resolves through the db variable's cell.
        let report = fs2("f(A1, X, X, b)", "f(q, B, c, B)");
        // X first meets B (db var branch wins: B stores ref to X? No —
        // here db side is B (var) and query side is X (var): case 5 fires,
        // B stores a reference to X), then X meets c: query branch, X
        // unbound -> stores c. Then b vs B: db branch, B resolves via X to
        // c — mismatch with b.
        assert!(!report.matched);
    }

    #[test]
    fn word_level_false_drop_on_deep_mismatch() {
        // g/1 words are equal, elements differ below level 3 depth via
        // bindings: the filter passes, full unification rejects.
        let (qt, ct, _) = terms("f(g(a), g(b))", "f(A, A)");
        let report = partial_match(&qt, &ct, PartialConfig::fs2());
        assert!(report.matched, "word-level binding comparison false drop");
        assert!(unify_query_clause(&qt, &ct).is_none());
    }

    #[test]
    fn first_level_elements_checked() {
        // Element mismatch at depth 1 is caught…
        assert!(!fs2("f(g(a))", "f(g(b))").matched);
        // …but depth-2 mismatch is not (level 3 cut): words h/1 == h/1.
        assert!(fs2("f(g(h(a)))", "f(g(h(b)))").matched);
    }

    #[test]
    fn list_matching_rules() {
        assert!(fs2("p([a, b])", "p([a, b])").matched);
        assert!(!fs2("p([a, b])", "p([a, c])").matched);
        assert!(
            !fs2("p([a, b])", "p([a, b, c])").matched,
            "terminated lengths differ"
        );
        assert!(fs2("p([a, b])", "p([a | T])").matched, "two-counter rule");
        assert!(fs2("p([a | T])", "p([a, b, c])").matched);
        assert!(!fs2("p([b | T])", "p([a, b, c])").matched);
        assert!(fs2("p([])", "p([])").matched);
        assert!(!fs2("p([])", "p([a])").matched);
    }

    #[test]
    fn anon_skips_both_sides() {
        assert!(fs2("f(_, b)", "f(whatever, b)").matched);
        assert!(fs2("f(a, b)", "f(_, b)").matched);
        let report = fs2("f(_)", "f(x)");
        assert_eq!(report.ops, vec![PartialOp::Match]);
    }

    #[test]
    fn level1_type_only() {
        let cfg = PartialConfig::level(MatchLevel::L1);
        let (qt, ct, _) = terms("f(a)", "f(b)");
        assert!(partial_match(&qt, &ct, cfg).matched, "same type (atom)");
        let (qt, ct, _) = terms("f(a)", "f(1)");
        assert!(!partial_match(&qt, &ct, cfg).matched, "atom vs int");
        let (qt, ct, _) = terms("f(g(x))", "f(h(y, z))");
        assert!(
            partial_match(&qt, &ct, cfg).matched,
            "type-only ignores functor and arity"
        );
        let (qt, ct, _) = terms("f(1.5)", "f(1)");
        assert!(!partial_match(&qt, &ct, cfg).matched, "float vs int");
    }

    #[test]
    fn level2_content_no_descent() {
        let cfg = PartialConfig::level(MatchLevel::L2);
        let (qt, ct, _) = terms("f(g(a))", "f(g(b))");
        assert!(
            partial_match(&qt, &ct, cfg).matched,
            "level 2 ignores elements"
        );
        let (qt, ct, _) = terms("f(g(a))", "f(h(a))");
        assert!(!partial_match(&qt, &ct, cfg).matched, "functor differs");
        let (qt, ct, _) = terms("f(g(a))", "f(g(a, b))");
        assert!(!partial_match(&qt, &ct, cfg).matched, "arity differs");
    }

    #[test]
    fn level_monotonicity_on_examples() {
        // Each level accepts a superset of the next level's acceptances.
        let cases = [
            ("f(a, b)", "f(a, b)"),
            ("f(a, b)", "f(a, c)"),
            ("f(g(a))", "f(g(b))"),
            ("f(g(h(a)))", "f(g(h(b)))"),
            ("f(X, X)", "f(a, b)"),
            ("f(X, X)", "f(a, a)"),
            ("p([a | T])", "p([a, b])"),
            ("f(1)", "f(a)"),
        ];
        for (q, c) in cases {
            let (qt, ct, _) = terms(q, c);
            let verdicts = match_at_all_levels(&qt, &ct);
            for w in verdicts.windows(2) {
                assert!(
                    w[0] || !w[1],
                    "level monotonicity violated for {q} vs {c}: {verdicts:?}"
                );
            }
        }
    }

    #[test]
    fn level5_equals_full_unification() {
        let cases = [
            ("f(X, X)", "f(a, b)"),
            ("f(X, X)", "f(A, A)"),
            ("f(g(h(a)))", "f(g(h(b)))"),
            ("p([a | T])", "p([a, b])"),
            ("f(X, a, b)", "f(A, a, A)"),
        ];
        for (q, c) in cases {
            let (qt, ct, _) = terms(q, c);
            let l5 = partial_match(&qt, &ct, PartialConfig::level(MatchLevel::L5)).matched;
            let full = unify_query_clause(&qt, &ct).is_some();
            assert_eq!(l5, full, "L5 vs full unification for {q} vs {c}");
        }
    }

    #[test]
    fn completeness_no_false_negatives() {
        // Everything full unification accepts, every level must accept.
        let cases = [
            ("f(X, a, b)", "f(A, a, A)"),
            ("f(X, X)", "f(A, b)"),
            ("married_couple(S, S)", "married_couple(m, m)"),
            ("p([a, b])", "p([a | T])"),
            ("p([H | T])", "p([a, b, c])"),
            ("f(g(X), X)", "f(g(h(1)), h(1))"),
            ("f(_, _)", "f(a, g(b))"),
            ("f(X, Y, X, Y)", "f(A, A, c, c)"),
        ];
        for (q, c) in cases {
            let (qt, ct, _) = terms(q, c);
            assert!(
                unify_query_clause(&qt, &ct).is_some(),
                "precondition: {q} unifies with {c}"
            );
            for level in MatchLevel::ALL {
                assert!(
                    partial_match(&qt, &ct, PartialConfig::level(level)).matched,
                    "false negative at {level} for {q} vs {c}"
                );
            }
            assert!(
                partial_match(&qt, &ct, PartialConfig::fs2()).matched,
                "false negative at FS2 config for {q} vs {c}"
            );
        }
    }

    #[test]
    fn fetched_list_binding_is_conservative() {
        // X binds the word for [a|T] (unterminated, arity 1), then meets
        // [a, b] (terminated, arity 2). Word equality would wrongly reject;
        // the could-unify rule keeps it (full unification succeeds).
        let (qt, ct, _) = terms("f(X, X)", "f([a | T], [a, b])") /* db has both lists */;
        assert!(unify_query_clause(&qt, &ct).is_some());
        assert!(partial_match(&qt, &ct, PartialConfig::fs2()).matched);
    }

    #[test]
    fn op_trace_for_simple_match() {
        let report = fs2("f(a, b)", "f(a, b)");
        assert_eq!(report.ops, vec![PartialOp::Match, PartialOp::Match]);
        assert_eq!(report.op_histogram()[0], 2);
    }

    #[test]
    fn op_trace_for_query_store_then_fetch() {
        let report = fs2("f(X, X)", "f(a, a)");
        assert_eq!(
            report.ops,
            vec![PartialOp::QueryStore, PartialOp::QueryFetch]
        );
    }

    #[test]
    fn op_trace_for_db_store_then_fetch() {
        let report = fs2("f(a, a)", "f(A, A)");
        assert_eq!(report.ops, vec![PartialOp::DbStore, PartialOp::DbFetch]);
    }

    #[test]
    fn query_cross_bound_fetch_appears() {
        // pos1 cross-binds B to X; pos2 chains X to Y (via B); pos3 then
        // fetches X, which must chase the X→Y chain before comparing — a
        // QUERY_CROSS_BOUND_FETCH.
        let report = fs2("f(X, Y, X, Y)", "f(B, B, c, c)");
        assert!(report.matched);
        assert!(
            report.ops.contains(&PartialOp::QueryCrossBoundFetch),
            "ops were: {:?}",
            report.ops
        );
        // And the chain carries real information: inconsistent values fail.
        assert!(!fs2("f(X, Y, X, Y)", "f(B, B, c, d)").matched);
    }

    #[test]
    fn large_arity_structures_compare_as_pointer_words() {
        let mut sy = SymbolTable::new();
        let args_a: Vec<String> = (0..40).map(|i| format!("a{i}")).collect();
        let args_b: Vec<String> = (0..40).map(|i| format!("b{i}")).collect();
        // The over-limit structure sits in argument position, where it is
        // represented by a pointer word (functor + saturated arity).
        let q = parse_term(&format!("p(f({}))", args_a.join(", ")), &mut sy).unwrap();
        let c = parse_term(&format!("p(f({}))", args_b.join(", ")), &mut sy).unwrap();
        // Same functor, same (saturated) arity: passes despite differing
        // elements — the truncation false-drop source from §2.1.
        let report = partial_match(&q, &c, PartialConfig::fs2());
        assert!(report.matched);
    }

    #[test]
    fn report_histogram_sums_to_trace_len() {
        let report = fs2("f(X, X, a, B2)", "f(A, A, a, c)");
        assert_eq!(
            report.op_histogram().iter().sum::<usize>(),
            report.ops.len()
        );
    }
}
