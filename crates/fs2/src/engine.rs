//! The FS2 matching engine: Map ROM dispatch over PIF word streams.
//!
//! This is the simulator's heart. The query stream sits pre-loaded in
//! Query Memory; each clause-head stream arrives (via the Double Buffer)
//! and is walked in lockstep with the query. Every word pair dispatches
//! through the `MapRom` to a microroutine which
//! drives one of the seven hardware operations; execution time accumulates
//! from the route-derived [`HwOp::execution_time`] values, so the verdict
//! comes with an exact Table 1-based cost.
//!
//! The matching semantics are Level 3 partial test unification with
//! variable cross-binding checks — the configuration the paper adopts —
//! and they agree verdict-for-verdict with the software reference
//! (`clare_unify::partial` at `PartialConfig::fs2()`); a property test in
//! the workspace's integration suite asserts exactly that.

use crate::map::{MapRom, Routine};
use crate::memory::{CellBank, QueryMemory, QueryTooLargeError};
use crate::ops::HwOp;
use clare_disk::SimNanos;
use clare_pif::{PifStream, PifWord, TagCategory, TypeTag};
use std::ops::Range;

/// Outcome of matching one clause-head stream against the loaded query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseVerdict {
    /// True if the clause survives the filter (a potential unifier).
    pub matched: bool,
    /// The hardware operations performed, in order.
    pub ops: Vec<HwOp>,
    /// Total execution time (sum of Table 1 entries for `ops`).
    pub time: SimNanos,
}

impl ClauseVerdict {
    /// Histogram over [`HwOp::ALL`].
    pub fn op_histogram(&self) -> [usize; 7] {
        let mut h = [0usize; 7];
        for op in &self.ops {
            h[op.index()] += 1;
        }
        h
    }
}

/// Outcome of matching one clause-head stream on the allocation-free path
/// ([`Fs2Engine::match_clause_words`]): the verdict, the exact Table 1
/// time, and an operation histogram instead of the per-operation vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamVerdict {
    /// True if the clause survives the filter (a potential unifier).
    pub matched: bool,
    /// Total execution time (sum of Table 1 entries).
    pub time: SimNanos,
    /// Count of each operation performed, indexed per [`HwOp::ALL`].
    pub op_histogram: [usize; 7],
}

impl StreamVerdict {
    /// Total operations performed.
    pub fn op_count(&self) -> usize {
        self.op_histogram.iter().sum()
    }
}

/// Outcome of matching one track's clause-head streams
/// ([`Fs2Engine::match_track`]): the sums of the per-clause
/// [`StreamVerdict`]s plus the slots that survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackVerdict {
    /// Total execution time over every clause on the track.
    pub time: SimNanos,
    /// Count of each operation performed, indexed per [`HwOp::ALL`].
    pub op_histogram: [u64; 7],
    /// Slots of the clauses that survive the filter, ascending.
    pub hits: Vec<u16>,
}

impl TrackVerdict {
    /// Folds the verdict of the clause in `slot` into the track's sums.
    pub fn add_clause(&mut self, slot: u16, clause: StreamVerdict) {
        self.time += clause.time;
        for (total, n) in self.op_histogram.iter_mut().zip(clause.op_histogram) {
            *total += n as u64;
        }
        if clause.matched {
            self.hits.push(slot);
        }
    }
}

/// Which clauses of a predicate a sweep walks through the Map ROM, handed
/// to [`Fs2Engine::match_track`] once per track in ascending track order.
#[derive(Debug, Clone)]
pub enum Selection<'a> {
    /// Every clause: the query's first word is a variable or a complex
    /// term, which no clause's first word can reject on its own.
    All,
    /// The query's first word is the simple value
    /// [`Fs2Engine::first_key`]: only the clauses whose
    /// [`first_word_key`](clare_pif::first_word_key) equals it (`keyed`)
    /// or is `0` (`zero`) can survive their first MATCH. Both lists hold
    /// clause indices in ascending order, and each track consumes its
    /// share from the front.
    Keyed {
        /// Clauses whose first-word key equals the query's.
        keyed: &'a [u32],
        /// Clauses whose first-word key is `0`.
        zero: &'a [u32],
    },
}

/// Splits off the front of the ascending clause list `list` the entries
/// inside `track`, dropping those before it (tracks the sweep skipped).
fn take_track<'a>(list: &mut &'a [u32], track: &Range<usize>) -> &'a [u32] {
    let ahead = &list[list.partition_point(|&c| (c as usize) < track.start)..];
    let (taken, rest) = ahead.split_at(ahead.partition_point(|&c| (c as usize) < track.end));
    *list = rest;
    taken
}

/// One traced word-pair comparison (see
/// [`Fs2Engine::match_clause_stream_traced`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Index of the query word in the query stream.
    pub q_index: usize,
    /// Index of the database word in the clause-head stream.
    pub d_index: usize,
    /// The Map ROM routine that fired.
    pub routine: crate::map::Routine,
    /// The first hardware operation the routine performed, if any.
    pub op: Option<HwOp>,
    /// True if the pair passed (matching continued).
    pub passed: bool,
}

/// Which memory bank a variable lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarSide {
    Query,
    Db,
}

/// Result of chasing a variable's reference chain through the memories.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    Unbound {
        side: VarSide,
        offset: u32,
        hops: usize,
    },
    Value {
        raw: u32,
        hops: usize,
    },
}

/// The FS2 matching engine, holding the loaded query and the two variable
/// memories.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_term};
/// use clare_pif::{encode_clause_head, encode_query};
/// use clare_fs2::Fs2Engine;
///
/// let mut sy = SymbolTable::new();
/// let query = parse_term("married_couple(S, S)", &mut sy)?;
/// let mut engine = Fs2Engine::new(&encode_query(&query)?)?;
///
/// let hit = parse_term("married_couple(sue, sue)", &mut sy)?;
/// assert!(engine.match_clause_stream(&encode_clause_head(&hit)?).matched);
///
/// let miss = parse_term("married_couple(ann, bob)", &mut sy)?;
/// assert!(!engine.match_clause_stream(&encode_clause_head(&miss)?).matched);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fs2Engine {
    query: QueryMemory,
    q_cells: CellBank,
    db_cells: CellBank,
    /// Handle to the process-wide Map ROM ([`MapRom::shared`]): the table
    /// is burned once, so engine construction and cloning never pay the
    /// 64 K-entry derivation.
    rom: std::sync::Arc<MapRom>,
    /// Reusable op buffer for the allocation-free path; cleared per
    /// clause, its capacity persists across the whole sweep.
    scratch_ops: Vec<HwOp>,
    /// The query's first word as a raw bus word, when it is a simple
    /// value (atom/float pointer or in-line integer) — the precondition
    /// for a [`Selection::Keyed`] sweep.
    first_key: Option<u32>,
}

impl Fs2Engine {
    /// Loads a query stream (the Set Query phase).
    ///
    /// # Errors
    ///
    /// Returns [`QueryTooLargeError`] if the stream exceeds the Query
    /// Memory's 8-bit address space.
    pub fn new(query_stream: &PifStream) -> Result<Self, QueryTooLargeError> {
        let query = QueryMemory::load(query_stream)?;
        let n_vars = query.var_count();
        clare_trace::metrics().fs2_queries_loaded.inc();
        let first_key = query
            .stream()
            .first()
            .filter(|w| w.type_tag().category() == TagCategory::Simple)
            .map(PifWord::to_u32);
        Ok(Fs2Engine {
            query,
            q_cells: CellBank::query_vars(n_vars),
            db_cells: CellBank::db_vars(0),
            rom: MapRom::shared(),
            scratch_ops: Vec::new(),
            first_key,
        })
    }

    /// The loaded query stream.
    pub fn query_stream(&self) -> &[PifWord] {
        self.query.stream()
    }

    /// The query's first word as a raw bus word when it is a simple value
    /// (atom/float pointer or in-line integer), else `None`. With a key,
    /// a sweep may pass [`Selection::Keyed`] built from the posting lists
    /// for it; without one it must pass [`Selection::All`].
    pub fn first_key(&self) -> Option<u32> {
        self.first_key
    }

    /// Matches one clause-head stream and records a per-pair trace: which
    /// words were compared, which Map ROM routine fired, which hardware
    /// operation ran, and whether the pair passed. The verdict is
    /// identical to [`Self::match_clause_stream`].
    pub fn match_clause_stream_traced(
        &mut self,
        db_stream: &PifStream,
    ) -> (ClauseVerdict, Vec<TraceStep>) {
        self.run_match(db_stream, true)
    }

    /// Matches one clause-head stream, resetting both variable memories
    /// first (the per-clause "reset to pointing to itself").
    pub fn match_clause_stream(&mut self, db_stream: &PifStream) -> ClauseVerdict {
        self.run_match(db_stream, false).0
    }

    /// Allocation-free variant of [`Self::match_clause_stream`] for tight
    /// sweep loops: matches a clause-head word slice (e.g. out of a
    /// pre-decoded arena), reusing the engine's scratch op buffer, and
    /// returns an op *histogram* plus time instead of the op vector. The
    /// verdict and time are identical to the vector-returning path.
    pub fn match_clause_words(&mut self, db_words: &[PifWord]) -> StreamVerdict {
        self.reset_cells(db_words);
        let mut scratch = std::mem::take(&mut self.scratch_ops);
        scratch.clear();
        let mut run = Run {
            rom: &self.rom,
            q_cells: &mut self.q_cells,
            db_cells: &mut self.db_cells,
            ops: &mut scratch,
            op_histogram: [0; 7],
            time: SimNanos::ZERO,
            traced: false,
            trace: Vec::new(),
        };
        let q = self.query.stream();
        let matched = run.run(q, db_words);
        let verdict = StreamVerdict {
            matched,
            time: run.time,
            op_histogram: run.op_histogram,
        };
        self.scratch_ops = scratch;
        verdict
    }

    /// Matches one track's worth of clause heads: the track holds clauses
    /// `clauses` (slot `s` is clause `clauses.start + s`) and `stream(c)`
    /// is clause `c`'s head stream. The result is exactly the fold of
    /// [`Self::match_clause_words`] over `stream(clauses)`.
    ///
    /// When the loaded query's first word is a simple value, a clause
    /// whose key is neither `0` nor that word is, by the Map ROM's own
    /// table, rejected after exactly one MATCH (non-variable db tag ×
    /// simple query tag → `SimpleMatch`, fail on raw inequality). Those
    /// clauses are charged in bulk as a count; only the clauses a
    /// [`Selection::Keyed`] lists on the track walk the Map ROM, so the
    /// host work is proportional to the clauses selected, not to the track.
    /// With [`Selection::All`] every clause walks.
    ///
    /// A sweep passes the same `selection` for every track it visits, in
    /// ascending track order; tracks it skips cost nothing.
    pub fn match_track<'a>(
        &mut self,
        clauses: Range<usize>,
        selection: &mut Selection<'_>,
        stream: impl Fn(usize) -> &'a [PifWord],
    ) -> TrackVerdict {
        let mut verdict = TrackVerdict::default();
        let slot = |clause: usize| (clause - clauses.start) as u16;
        let Selection::Keyed { keyed, zero } = selection else {
            for clause in clauses.clone() {
                verdict.add_clause(slot(clause), self.match_clause_words(stream(clause)));
            }
            return verdict;
        };
        debug_assert!(self.first_key.is_some(), "a keyed selection needs a key");
        let (mut keyed, mut zero) = (take_track(keyed, &clauses), take_track(zero, &clauses));
        let rejected = (clauses.len() - keyed.len() - zero.len()) as u64;
        verdict.op_histogram[HwOp::Match.index()] = rejected;
        verdict.time = HwOp::Match.execution_time() * rejected;
        // The two lists are disjoint and ascending: walk their union in
        // slot order.
        loop {
            let clause = match (keyed.split_first(), zero.split_first()) {
                (Some((&k, rest)), Some((&z, _))) if k < z => {
                    keyed = rest;
                    k
                }
                (_, Some((&z, rest))) => {
                    zero = rest;
                    z
                }
                (Some((&k, rest)), None) => {
                    keyed = rest;
                    k
                }
                (None, None) => break,
            } as usize;
            verdict.add_clause(slot(clause), self.match_clause_words(stream(clause)));
        }
        verdict
    }

    /// Per-clause reset: DB Memory sized to the clause's variables, both
    /// banks "pointing to themselves".
    fn reset_cells(&mut self, db_words: &[PifWord]) {
        let db_vars = db_words
            .iter()
            .filter_map(|w| match w.type_tag() {
                TypeTag::DbVar { .. } => Some(w.content() + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0) as usize;
        self.db_cells.reset(db_vars);
        self.q_cells.reset(self.query.var_count());
    }

    fn run_match(
        &mut self,
        db_stream: &PifStream,
        traced: bool,
    ) -> (ClauseVerdict, Vec<TraceStep>) {
        let d = db_stream.words();
        self.reset_cells(d);

        let mut ops = Vec::new();
        let mut run = Run {
            rom: &self.rom,
            q_cells: &mut self.q_cells,
            db_cells: &mut self.db_cells,
            ops: &mut ops,
            op_histogram: [0; 7],
            time: SimNanos::ZERO,
            traced,
            trace: Vec::new(),
        };
        // Clone-free view of the two streams.
        let q = self.query.stream();
        let matched = run.run(q, d);
        let time = run.time;
        let trace = run.trace;
        (ClauseVerdict { matched, ops, time }, trace)
    }
}

struct Run<'a> {
    rom: &'a MapRom,
    q_cells: &'a mut CellBank,
    db_cells: &'a mut CellBank,
    ops: &'a mut Vec<HwOp>,
    op_histogram: [usize; 7],
    time: SimNanos,
    traced: bool,
    trace: Vec<TraceStep>,
}

/// Advance past a word and its in-line elements.
fn skip(words: &[PifWord], i: usize) -> usize {
    i + 1 + words[i].type_tag().inline_elements()
}

/// The variable-reference word written into cells when two unbound
/// variables are bound together.
fn ref_word(side: VarSide, offset: u32) -> u32 {
    match side {
        VarSide::Query => crate::memory::qv_self_word(offset),
        VarSide::Db => crate::memory::dv_self_word(offset),
    }
}

/// Side a variable *tag* addresses.
fn tag_side(tag: TypeTag) -> Option<VarSide> {
    match tag {
        TypeTag::QueryVar { .. } => Some(VarSide::Query),
        TypeTag::DbVar { .. } => Some(VarSide::Db),
        _ => None,
    }
}

/// Conservative raw-word comparison for values whose element data is not
/// available (fetched bindings, pointer words): false only when the words
/// prove unification impossible.
fn could_unify_raw(a: u32, b: u32) -> bool {
    let (Ok(ta), Ok(tb)) = (
        TypeTag::from_byte((a >> 24) as u8),
        TypeTag::from_byte((b >> 24) as u8),
    ) else {
        return false;
    };
    use TypeTag::*;
    match (ta, tb) {
        // A variable word reaching a raw comparison is conservative-true.
        (Anon | QueryVar { .. } | DbVar { .. }, _) => true,
        (_, Anon | QueryVar { .. } | DbVar { .. }) => true,
        (AtomPtr, AtomPtr) | (FloatPtr, FloatPtr) | (IntInline { .. }, IntInline { .. }) => a == b,
        (
            StructInline { arity: aa } | StructPtr { arity: aa },
            StructInline { arity: ab } | StructPtr { arity: ab },
        ) => aa == ab && (a & 0x00FF_FFFF) == (b & 0x00FF_FFFF),
        (
            ListInline {
                arity: aa,
                terminated: true,
            }
            | ListPtr {
                arity: aa,
                terminated: true,
            },
            ListInline {
                arity: ab,
                terminated: true,
            }
            | ListPtr {
                arity: ab,
                terminated: true,
            },
        ) => aa == ab,
        // Any list pairing involving an unterminated list could unify.
        (ListInline { .. } | ListPtr { .. }, ListInline { .. } | ListPtr { .. }) => true,
        _ => false,
    }
}

impl Run<'_> {
    fn op(&mut self, op: HwOp) {
        self.time += op.execution_time();
        self.op_histogram[op.index()] += 1;
        self.ops.push(op);
    }

    fn run(&mut self, q: &[PifWord], d: &[PifWord]) -> bool {
        let mut qi = 0;
        let mut di = 0;
        while qi < q.len() && di < d.len() {
            match self.pair(q, qi, d, di) {
                Some((nq, nd)) => {
                    qi = nq;
                    di = nd;
                }
                None => return false,
            }
        }
        // Both streams must end together (same predicate indicator is
        // guaranteed upstream; a desync means a malformed stream).
        qi == q.len() && di == d.len()
    }

    /// Processes one aligned word pair; `None` is a failed match,
    /// `Some((qi', di'))` the positions after the pair.
    fn pair(
        &mut self,
        q: &[PifWord],
        qi: usize,
        d: &[PifWord],
        di: usize,
    ) -> Option<(usize, usize)> {
        if !self.traced {
            return self.pair_inner(q, qi, d, di);
        }
        let routine = self.rom.dispatch(d[di].tag(), q[qi].tag());
        let ops_before = self.ops.len();
        let step_slot = self.trace.len();
        self.trace.push(TraceStep {
            q_index: qi,
            d_index: di,
            routine,
            op: None,
            passed: false,
        });
        let outcome = self.pair_inner(q, qi, d, di);
        self.trace[step_slot].op = self.ops.get(ops_before).copied();
        self.trace[step_slot].passed = outcome.is_some();
        outcome
    }

    fn pair_inner(
        &mut self,
        q: &[PifWord],
        qi: usize,
        d: &[PifWord],
        di: usize,
    ) -> Option<(usize, usize)> {
        let qw = q[qi];
        let dw = d[di];
        match self.rom.dispatch(dw.tag(), qw.tag()) {
            Routine::Skip => {
                self.op(HwOp::Match);
                Some((skip(q, qi), skip(d, di)))
            }
            Routine::SimpleMatch => {
                self.op(HwOp::Match);
                if qw.to_u32() == dw.to_u32() {
                    Some((skip(q, qi), skip(d, di)))
                } else {
                    None
                }
            }
            Routine::DbVar => self.var_routine(dw, qw, q, qi, d, di),
            Routine::QueryVar => self.var_routine(qw, dw, q, qi, d, di),
            Routine::ComplexMatch => self.complex(q, qi, d, di),
            Routine::Invalid => None,
        }
    }

    /// Follows a variable's reference chain through the two memories.
    fn resolve(&self, mut side: VarSide, mut offset: u32) -> Resolved {
        let mut hops = 0usize;
        loop {
            let bank = match side {
                VarSide::Query => &self.q_cells,
                VarSide::Db => &self.db_cells,
            };
            if offset as usize >= bank.len() {
                // Malformed stream; treat as unbound so matching stays
                // total (the record will fail full unification anyway).
                return Resolved::Unbound { side, offset, hops };
            }
            let raw = bank.read(offset);
            let tag = TypeTag::from_byte((raw >> 24) as u8).ok();
            let next_side = tag.and_then(tag_side);
            match next_side {
                Some(ns) => {
                    let next_offset = raw & 0x00FF_FFFF;
                    if ns == side && next_offset == offset {
                        return Resolved::Unbound { side, offset, hops };
                    }
                    side = ns;
                    offset = next_offset;
                    hops += 1;
                }
                None => return Resolved::Value { raw, hops },
            }
        }
    }

    fn write_cell(&mut self, side: VarSide, offset: u32, raw: u32) {
        let bank = match side {
            VarSide::Query => &mut self.q_cells,
            VarSide::Db => &mut self.db_cells,
        };
        // A corrupt stream can reference a cell that does not exist; the
        // write is dropped (the clause can only be over-accepted, which
        // full unification cleans up — never under-accepted).
        if (offset as usize) < bank.len() {
            bank.write(offset, raw);
        }
    }

    /// Figure 1 cases 5/6: a variable word (`var_word`) against the other
    /// bus's word (`other`). Operation classification follows the paper:
    /// unbound ⇒ STORE, bound-to-value ⇒ FETCH, bound-through-a-variable ⇒
    /// CROSS_BOUND_FETCH — each against the memory the variable's tag
    /// addresses.
    fn var_routine(
        &mut self,
        var_word: PifWord,
        other: PifWord,
        q: &[PifWord],
        qi: usize,
        d: &[PifWord],
        di: usize,
    ) -> Option<(usize, usize)> {
        let side = tag_side(var_word.type_tag()).expect("routed by a variable tag");
        let (store_op, fetch_op, cross_op) = match side {
            VarSide::Db => (HwOp::DbStore, HwOp::DbFetch, HwOp::DbCrossBoundFetch),
            VarSide::Query => (
                HwOp::QueryStore,
                HwOp::QueryFetch,
                HwOp::QueryCrossBoundFetch,
            ),
        };
        let advance = Some((skip(q, qi), skip(d, di)));
        let other_side = tag_side(other.type_tag());
        match self.resolve(side, var_word.content()) {
            Resolved::Unbound {
                side: end_side,
                offset: end_off,
                hops,
            } => {
                self.op(if hops == 0 { store_op } else { cross_op });
                match other_side {
                    Some(os) => match self.resolve(os, other.content()) {
                        Resolved::Unbound {
                            side: o_side,
                            offset: o_off,
                            ..
                        } => {
                            if (o_side, o_off) != (end_side, end_off) {
                                self.write_cell(end_side, end_off, ref_word(o_side, o_off));
                            }
                            advance
                        }
                        Resolved::Value { raw, .. } => {
                            self.write_cell(end_side, end_off, raw);
                            advance
                        }
                    },
                    None => {
                        self.write_cell(end_side, end_off, other.to_u32());
                        advance
                    }
                }
            }
            Resolved::Value { raw, hops } => {
                self.op(if hops == 0 { fetch_op } else { cross_op });
                match other_side {
                    Some(os) => match self.resolve(os, other.content()) {
                        Resolved::Unbound {
                            side: o_side,
                            offset: o_off,
                            ..
                        } => {
                            self.write_cell(o_side, o_off, raw);
                            advance
                        }
                        Resolved::Value { raw: other_raw, .. } => {
                            if could_unify_raw(raw, other_raw) {
                                advance
                            } else {
                                None
                            }
                        }
                    },
                    None => {
                        if could_unify_raw(raw, other.to_u32()) {
                            advance
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }

    /// Repetitive matching of two complex words (§3.1): arity counters
    /// loaded, element pairs compared until a counter reaches zero.
    fn complex(
        &mut self,
        q: &[PifWord],
        qi: usize,
        d: &[PifWord],
        di: usize,
    ) -> Option<(usize, usize)> {
        self.op(HwOp::Match);
        let qw = q[qi];
        let dw = d[di];
        use TypeTag::*;
        let compatible = match (dw.type_tag(), qw.type_tag()) {
            (StructInline { .. } | StructPtr { .. }, StructInline { .. } | StructPtr { .. }) => {
                // Functor symbol offsets must agree…
                dw.content() == qw.content()
                    // …and so must the arity fields (saturated for pointers).
                    && arity_field(dw) == arity_field(qw)
            }
            (
                ListInline {
                    terminated: true, ..
                }
                | ListPtr {
                    terminated: true, ..
                },
                ListInline {
                    terminated: true, ..
                }
                | ListPtr {
                    terminated: true, ..
                },
            ) => arity_field(dw) == arity_field(qw),
            // An unterminated list word does not pin a length.
            (ListInline { .. } | ListPtr { .. }, ListInline { .. } | ListPtr { .. }) => true,
            _ => false, // struct vs list
        };
        if !compatible {
            return None;
        }
        // Element comparison happens only when both sides carry their
        // elements in-line; pointer words have nothing in the stream.
        let q_elems = qw.type_tag().inline_elements();
        let d_elems = dw.type_tag().inline_elements();
        // A truncated stream (an in-line tag whose declared elements run
        // past the end) is corrupt; reject the clause rather than read
        // out of bounds.
        if qi + 1 + q_elems > q.len() || di + 1 + d_elems > d.len() {
            return None;
        }
        if q_elems > 0 && d_elems > 0 {
            // The two-counter rule: compare until either counter is zero.
            let n = q_elems.min(d_elems);
            for k in 0..n {
                // Elements are single words (nested complex terms are
                // pointers), so positions advance by exactly one.
                self.pair(q, qi + 1 + k, d, di + 1 + k)?;
            }
        }
        Some((qi + 1 + q_elems, di + 1 + d_elems))
    }
}

fn arity_field(word: PifWord) -> u8 {
    word.tag() & 0x1F
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_pif::{encode_clause_head, encode_query};
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn verdict(query: &str, clause: &str) -> ClauseVerdict {
        let mut sy = SymbolTable::new();
        let q = parse_term(query, &mut sy).unwrap();
        let c = parse_term(clause, &mut sy).unwrap();
        let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        engine.match_clause_stream(&encode_clause_head(&c).unwrap())
    }

    fn fs2(query: &str, clause: &str) -> bool {
        verdict(query, clause).matched
    }

    #[test]
    fn ground_matching() {
        assert!(fs2("f(a, 1)", "f(a, 1)"));
        assert!(!fs2("f(a)", "f(b)"));
        assert!(!fs2("f(1)", "f(2)"));
        assert!(!fs2("f(1)", "f(1.0)"));
        assert!(fs2("f(2.5)", "f(2.5)"));
    }

    #[test]
    fn married_couple_example() {
        assert!(fs2("married_couple(S, S)", "married_couple(sue, sue)"));
        assert!(!fs2("married_couple(S, S)", "married_couple(ann, bob)"));
    }

    #[test]
    fn paper_cross_binding_example() {
        // §3.3.6: f(X, a, b) against f(A, a, A) needs a
        // DB_CROSS_BOUND_FETCH for the second A.
        let v = verdict("f(X, a, b)", "f(A, a, A)");
        assert!(v.matched);
        assert!(v.ops.contains(&HwOp::DbStore));
        assert!(v.ops.contains(&HwOp::DbCrossBoundFetch));
    }

    #[test]
    fn db_variable_consistency() {
        assert!(!fs2("f(a, b)", "f(A, A)"));
        assert!(fs2("f(a, a)", "f(A, A)"));
    }

    #[test]
    fn anon_skips() {
        assert!(fs2("f(_, b)", "f(anything, b)"));
        assert!(fs2("f(a, b)", "f(_, b)"));
        let v = verdict("f(_)", "f(g(a, b))");
        assert!(v.matched, "anon skips a whole complex argument");
        assert_eq!(v.ops, vec![HwOp::Match]);
    }

    #[test]
    fn first_level_structure_matching() {
        assert!(fs2("p(g(a, X))", "p(g(a, b))"));
        assert!(!fs2("p(g(a))", "p(g(b))"));
        assert!(!fs2("p(g(a))", "p(h(a))"));
        assert!(!fs2("p(g(a))", "p(g(a, b))"));
        // Level-3 cut: depth-2 mismatch passes.
        assert!(fs2("p(g(h(a)))", "p(g(h(b)))"));
    }

    #[test]
    fn list_rules() {
        assert!(fs2("p([a, b])", "p([a, b])"));
        assert!(!fs2("p([a, b])", "p([a, c])"));
        assert!(!fs2("p([a, b])", "p([a, b, c])"));
        assert!(fs2("p([a, b])", "p([a | T])"));
        assert!(fs2("p([a | T])", "p([a, b, c])"));
        assert!(!fs2("p([b | T])", "p([a, b, c])"));
        assert!(fs2("p([])", "p([])"));
        assert!(!fs2("p([])", "p([a])"));
        assert!(!fs2("p([a])", "p(f(a))"));
    }

    #[test]
    fn timing_accumulates_table_1_values() {
        // Two ground atoms: exactly two MATCH operations at 105 ns.
        let v = verdict("f(a, b)", "f(a, b)");
        assert_eq!(v.ops, vec![HwOp::Match, HwOp::Match]);
        assert_eq!(v.time.as_ns(), 210);
        // QUERY_STORE (115) then QUERY_FETCH (170).
        let v = verdict("f(X, X)", "f(a, a)");
        assert_eq!(v.ops, vec![HwOp::QueryStore, HwOp::QueryFetch]);
        assert_eq!(v.time.as_ns(), 285);
        // DB_STORE (95) then DB_FETCH (105).
        let v = verdict("f(a, a)", "f(A, A)");
        assert_eq!(v.ops, vec![HwOp::DbStore, HwOp::DbFetch]);
        assert_eq!(v.time.as_ns(), 200);
    }

    #[test]
    fn query_cross_bound_fetch_chain() {
        let v = verdict("f(X, Y, X, Y)", "f(B, B, c, c)");
        assert!(v.matched);
        assert!(
            v.ops.contains(&HwOp::QueryCrossBoundFetch),
            "ops: {:?}",
            v.ops
        );
        assert!(!fs2("f(X, Y, X, Y)", "f(B, B, c, d)"));
    }

    #[test]
    fn word_level_binding_comparison_false_drop() {
        // Bindings store words: g/1 == g/1 even though elements differ.
        assert!(fs2("f(g(a), g(b))", "f(A, A)"));
    }

    #[test]
    fn fetched_list_binding_is_conservative() {
        assert!(fs2("f(X, X)", "f([a | T], [a, b])"));
    }

    #[test]
    fn variable_in_structure_elements() {
        assert!(fs2("p(g(X, X))", "p(g(a, a))"));
        assert!(!fs2("p(g(X, X))", "p(g(a, b))"));
        assert!(fs2("p(g(X), X)", "p(g(a), a)"));
        assert!(!fs2("p(g(X), X)", "p(g(a), b)"));
    }

    #[test]
    fn empty_streams_match() {
        // Zero-arity predicates have empty argument streams.
        let v = verdict("halt", "halt");
        assert!(v.matched);
        assert!(v.ops.is_empty());
        assert_eq!(v.time, SimNanos::ZERO);
    }

    #[test]
    fn engine_is_reusable_across_clauses() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(X, X)", &mut sy).unwrap();
        let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        let yes = parse_term("f(a, a)", &mut sy).unwrap();
        let no = parse_term("f(a, b)", &mut sy).unwrap();
        // Interleave to prove per-clause memory resets work.
        for _ in 0..3 {
            assert!(
                engine
                    .match_clause_stream(&encode_clause_head(&yes).unwrap())
                    .matched
            );
            assert!(
                !engine
                    .match_clause_stream(&encode_clause_head(&no).unwrap())
                    .matched
            );
        }
    }

    #[test]
    fn op_histogram_sums() {
        let v = verdict("f(X, X, a)", "f(A, A, a)");
        assert_eq!(v.op_histogram().iter().sum::<usize>(), v.ops.len());
    }

    #[test]
    fn quiet_path_agrees_with_vector_path() {
        let cases = [
            ("f(a, 1)", "f(a, 1)"),
            ("f(a)", "f(b)"),
            ("married_couple(S, S)", "married_couple(sue, sue)"),
            ("married_couple(S, S)", "married_couple(ann, bob)"),
            ("f(X, a, b)", "f(A, a, A)"),
            ("f(X, Y, X, Y)", "f(B, B, c, c)"),
            ("p(g(a, X))", "p(g(a, b))"),
            ("p([a, b])", "p([a | T])"),
            ("halt", "halt"),
        ];
        let mut sy = SymbolTable::new();
        for (qs, cs) in cases {
            let q = parse_term(qs, &mut sy).unwrap();
            let c = parse_term(cs, &mut sy).unwrap();
            let stream = encode_clause_head(&c).unwrap();
            let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
            let full = engine.match_clause_stream(&stream);
            let quiet = engine.match_clause_words(stream.words());
            assert_eq!(quiet.matched, full.matched, "{qs} vs {cs}");
            assert_eq!(quiet.time, full.time, "{qs} vs {cs}");
            assert_eq!(quiet.op_histogram, full.op_histogram(), "{qs} vs {cs}");
            assert_eq!(quiet.op_count(), full.ops.len(), "{qs} vs {cs}");
        }
    }

    #[test]
    fn track_kernel_equals_per_clause_fold() {
        // Random predicates laid out on tracks, against random queries:
        // first words simple / variable / anonymous / struct / list /
        // in-line int over a small alphabet (so keys repeat and a key's
        // clauses span tracks), empty streams included. Swept with the
        // posting lists a brute-force partition of the first-word keys
        // gives, every visited track must return exactly the fold of
        // `match_clause_words` over its clauses.
        let mut state = 0x5EED_F52Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        // Appends one argument (a word plus any in-line elements); `var`
        // is the named-variable tag of the stream's side.
        let mut arg = |out: &mut Vec<PifWord>, var: fn(bool) -> TypeTag| {
            let r = next();
            let small = (r >> 4) as u32 % 3;
            let atom = |k: u32| PifWord::new(TypeTag::AtomPtr, k);
            match r % 10 {
                0 | 1 => out.push(atom(small)),
                2 => out.push(PifWord::int(small as i64 - 1).unwrap()),
                3 => out.push(PifWord::new(TypeTag::FloatPtr, small)),
                4 => out.push(PifWord::new(TypeTag::Anon, 0)),
                5 => out.push(PifWord::new(var(small == 0), small % 2)),
                6 => {
                    out.push(PifWord::new(TypeTag::StructInline { arity: 2 }, small));
                    out.extend([atom(small), atom((r >> 8) as u32 % 3)]);
                }
                7 => out.push(PifWord::new(TypeTag::StructPtr { arity: 2 }, small)),
                8 => {
                    let terminated = small != 0;
                    out.push(PifWord::new(
                        TypeTag::ListInline {
                            arity: 1,
                            terminated,
                        },
                        0,
                    ));
                    out.push(atom(small));
                }
                _ => out.push(PifWord::new(
                    TypeTag::ListPtr {
                        arity: 1,
                        terminated: true,
                    },
                    0,
                )),
            }
        };
        // Track lengths and which tracks a sweep skips.
        let mut layout_state = 0x7A5C_0D1Eu64;
        let mut layout = move || {
            layout_state = layout_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (layout_state >> 33) as usize
        };
        // What the rounds covered, checked at the end.
        let (mut keyed_tracks, mut absent_key, mut zero_only, mut crossing, mut skipped) =
            (0, 0, 0, 0, 0);
        for round in 0..400usize {
            let arity = round % 4;
            let mut words = Vec::new();
            // Every fifth round asks for a first word no clause has.
            let absent = round % 5 == 4 && arity > 0;
            if absent {
                words.push(PifWord::new(TypeTag::AtomPtr, 7));
            }
            for _ in usize::from(absent)..arity {
                arg(&mut words, |first| TypeTag::QueryVar { first });
            }
            let mut q_stream = PifStream::new();
            q_stream.extend(words);

            // A predicate of 0..=60 clauses on tracks of 0..=8 clauses
            // (empty tracks included); in every third round track 1 holds
            // only clauses with first-word key 0.
            let mut clauses: Vec<Vec<PifWord>> = Vec::new();
            let mut tracks: Vec<Range<usize>> = Vec::new();
            while clauses.len() < round % 61 {
                let t = tracks.len();
                let len = layout() % 9;
                let start = clauses.len();
                for k in 0..len {
                    let mut words = Vec::new();
                    // Every seventh clause is an empty stream.
                    let args = if (start + k) % 7 == 6 { 0 } else { arity };
                    let unkeyed = args > 0 && t == 1 && round % 3 == 0;
                    if unkeyed {
                        words.push(PifWord::new(TypeTag::Anon, 0));
                    }
                    for _ in usize::from(unkeyed)..args {
                        arg(&mut words, |first| TypeTag::DbVar { first });
                    }
                    clauses.push(words);
                }
                tracks.push(start..clauses.len());
            }
            let keys: Vec<u32> = clauses
                .iter()
                .map(|w| clare_pif::first_word_key(w))
                .collect();

            let mut engine = Fs2Engine::new(&q_stream).unwrap();
            // The posting lists by brute force.
            let with_key = |key: u32| -> Vec<u32> {
                (0..clauses.len() as u32)
                    .filter(|&c| keys[c as usize] == key)
                    .collect()
            };
            let (keyed, zero) = engine
                .first_key()
                .map_or((Vec::new(), Vec::new()), |key| (with_key(key), with_key(0)));
            let mut selection = match engine.first_key() {
                Some(_) => Selection::Keyed {
                    keyed: &keyed,
                    zero: &zero,
                },
                None => Selection::All,
            };
            // Sweep an ascending subset of the tracks: about one in four
            // is skipped, selected clauses and all.
            for (t, range) in tracks.iter().enumerate() {
                let selected = |c: &u32| range.contains(&(*c as usize));
                if layout() % 4 == 0 {
                    skipped += usize::from(keyed.iter().chain(&zero).any(selected));
                    continue;
                }
                let mut fold = TrackVerdict::default();
                for clause in range.clone() {
                    let slot = (clause - range.start) as u16;
                    fold.add_clause(slot, engine.match_clause_words(&clauses[clause]));
                }
                let got = engine.match_track(range.clone(), &mut selection, |c| &clauses[c]);
                assert_eq!(got, fold, "round {round}, track {t}: {q_stream:?}");
                if engine.first_key().is_some() && !range.is_empty() {
                    keyed_tracks += 1;
                    zero_only += usize::from(range.clone().all(|c| keys[c] == 0));
                }
            }
            let track_of = |c: &u32| tracks.iter().position(|r| r.contains(&(*c as usize)));
            crossing += usize::from(keyed.first().map(track_of) != keyed.last().map(track_of));
            absent_key += usize::from(absent && keyed.is_empty() && !clauses.is_empty());
        }
        assert!(
            keyed_tracks > 300,
            "keyed selections on {keyed_tracks} tracks"
        );
        assert!(absent_key > 20, "absent keys in {absent_key} rounds");
        assert!(zero_only > 20, "zero-key-only tracks: {zero_only}");
        assert!(crossing > 20, "selections across tracks: {crossing}");
        assert!(
            skipped > 20,
            "skipped tracks holding selected clauses: {skipped}"
        );
    }

    #[test]
    fn fast_path_mismatch_charges_the_failing_pair() {
        // f(a, b) vs f(a, c): MATCH for the hit, MATCH for the miss.
        let quiet = {
            let mut sy = SymbolTable::new();
            let q = parse_term("f(a, b)", &mut sy).unwrap();
            let c = parse_term("f(a, c)", &mut sy).unwrap();
            let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
            engine.match_clause_words(encode_clause_head(&c).unwrap().words())
        };
        assert!(!quiet.matched);
        assert_eq!(quiet.op_histogram[HwOp::Match.index()], 2);
        assert_eq!(quiet.time.as_ns(), 210);
    }

    #[test]
    fn cloned_engine_matches_independently() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(X, X)", &mut sy).unwrap();
        let yes = encode_clause_head(&parse_term("f(a, a)", &mut sy).unwrap()).unwrap();
        let no = encode_clause_head(&parse_term("f(a, b)", &mut sy).unwrap()).unwrap();
        let mut original = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        // Clone mid-sweep: per-clause resets make the copy's state fresh.
        original.match_clause_words(yes.words());
        let mut copy = original.clone();
        assert!(copy.match_clause_words(yes.words()).matched);
        assert!(!copy.match_clause_words(no.words()).matched);
        assert_eq!(
            original.match_clause_words(yes.words()),
            copy.match_clause_words(yes.words())
        );
    }

    #[test]
    fn agreement_with_software_reference_on_examples() {
        use clare_unify::partial::{partial_match, PartialConfig};
        let cases = [
            ("f(a, 1)", "f(a, 1)"),
            ("f(a)", "f(b)"),
            ("married_couple(S, S)", "married_couple(ann, bob)"),
            ("married_couple(S, S)", "married_couple(m, m)"),
            ("f(X, a, b)", "f(A, a, A)"),
            ("f(a, b)", "f(A, A)"),
            ("p(g(a, X))", "p(g(a, b))"),
            ("p(g(h(a)))", "p(g(h(b)))"),
            ("p([a, b])", "p([a | T])"),
            ("p([b | T])", "p([a, b, c])"),
            ("f(X, Y, X, Y)", "f(B, B, c, d)"),
            ("f(g(a), g(b))", "f(A, A)"),
            ("f(X, X)", "f([a | T], [a, b])"),
            ("p(g(X), X)", "p(g(a), b)"),
            ("f(_, g(a))", "f(q, _)"),
        ];
        let mut sy = SymbolTable::new();
        for (qs, cs) in cases {
            let q = parse_term(qs, &mut sy).unwrap();
            let c = parse_term(cs, &mut sy).unwrap();
            let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
            let hw = engine.match_clause_stream(&encode_clause_head(&c).unwrap());
            let sw = partial_match(&q, &c, PartialConfig::fs2());
            assert_eq!(
                hw.matched, sw.matched,
                "hardware vs software verdict for {qs} vs {cs}"
            );
            let sw_ops: Vec<&str> = sw.ops.iter().map(|o| o.name()).collect();
            let hw_ops: Vec<&str> = hw.ops.iter().map(|o| o.name()).collect();
            assert_eq!(hw_ops, sw_ops, "op traces for {qs} vs {cs}");
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use clare_pif::{encode_clause_head, encode_query};
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn traced(query: &str, clause: &str) -> (ClauseVerdict, Vec<TraceStep>) {
        let mut sy = SymbolTable::new();
        let q = parse_term(query, &mut sy).unwrap();
        let c = parse_term(clause, &mut sy).unwrap();
        let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        engine.match_clause_stream_traced(&encode_clause_head(&c).unwrap())
    }

    #[test]
    fn trace_covers_every_pair_with_ops() {
        let (verdict, trace) = traced("f(X, a, X)", "f(b, a, b)");
        assert!(verdict.matched);
        assert_eq!(trace.len(), 3);
        assert!(trace.iter().all(|s| s.passed));
        let ops: Vec<_> = trace.iter().filter_map(|s| s.op).collect();
        assert_eq!(ops, vec![HwOp::QueryStore, HwOp::Match, HwOp::QueryFetch]);
        assert_eq!(trace[0].q_index, 0);
        assert_eq!(trace[2].d_index, 2);
    }

    #[test]
    fn trace_marks_the_failing_pair() {
        let (verdict, trace) = traced("f(a, b, c)", "f(a, x, c)");
        assert!(!verdict.matched);
        assert_eq!(trace.len(), 2, "matching stops at the failure");
        assert!(trace[0].passed);
        assert!(!trace[1].passed);
        assert_eq!(trace[1].q_index, 1);
    }

    #[test]
    fn traced_and_untraced_agree() {
        let cases = [
            ("f(X, X)", "f(a, a)"),
            ("f(X, X)", "f(a, b)"),
            ("p(g(a, X))", "p(g(a, b))"),
            ("p([a | T])", "p([a, b])"),
        ];
        for (q, c) in cases {
            let (v1, trace) = traced(q, c);
            let mut sy = SymbolTable::new();
            let qt = parse_term(q, &mut sy).unwrap();
            let ct = parse_term(c, &mut sy).unwrap();
            let mut engine = Fs2Engine::new(&encode_query(&qt).unwrap()).unwrap();
            let v2 = engine.match_clause_stream(&encode_clause_head(&ct).unwrap());
            assert_eq!(v1, v2, "{q} vs {c}");
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn nested_elements_appear_in_trace() {
        let (_, trace) = traced("p(g(a, b))", "p(g(a, b))");
        // Pair for g/2 word, then pairs for both elements.
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].routine, crate::map::Routine::ComplexMatch);
        assert_eq!(trace[1].q_index, 1);
        assert_eq!(trace[2].q_index, 2);
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use clare_pif::{encode_query, PifStream, PifWord, TypeTag};
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    /// A truncated in-line structure (declares 3 elements, carries 1) must
    /// be rejected, never panic.
    #[test]
    fn truncated_inline_elements_rejected() {
        let mut sy = SymbolTable::new();
        let q = parse_term("p(g(a, b, c))", &mut sy).unwrap();
        let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        let mut bad = PifStream::new();
        bad.push(PifWord::new(TypeTag::StructInline { arity: 3 }, 0));
        bad.push(PifWord::new(TypeTag::AtomPtr, 1)); // only one element
        let verdict = engine.match_clause_stream(&bad);
        assert!(!verdict.matched);
    }

    /// A malformed variable offset beyond the cell banks is dropped, not
    /// a panic.
    #[test]
    fn out_of_range_variable_offset_is_tolerated() {
        let mut sy = SymbolTable::new();
        let q = parse_term("p(X)", &mut sy).unwrap();
        let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        for tag in [
            TypeTag::QueryVar { first: true },
            TypeTag::QueryVar { first: false },
            TypeTag::DbVar { first: false },
        ] {
            let mut bad = PifStream::new();
            bad.push(PifWord::new(tag, 63));
            let _ = engine.match_clause_stream(&bad);
        }
    }

    /// Arbitrary well-tagged word soups never panic the engine.
    #[test]
    fn random_word_soup_is_total() {
        use clare_pif::tags::TAG_VALUE_COUNT;
        let _ = TAG_VALUE_COUNT;
        let mut sy = SymbolTable::new();
        let q = parse_term("p(X, g(a), [1, 2], 7)", &mut sy).unwrap();
        let mut engine = Fs2Engine::new(&encode_query(&q).unwrap()).unwrap();
        // Deterministic pseudo-random byte walk over all valid tags.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..500 {
            let mut stream = PifStream::new();
            let len = (state % 9) as usize;
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let tag_byte = (state >> 32) as u8;
                if let Ok(tag) = TypeTag::from_byte(tag_byte) {
                    let content = ((state >> 8) as u32) & 0x00FF_FFFF;
                    stream.push(PifWord::new(tag, content % 64));
                }
            }
            // Must not panic, whatever the verdict.
            let _ = engine.match_clause_stream(&stream);
        }
    }
}
