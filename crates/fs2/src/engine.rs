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

/// Outcome of matching one clause-head stream against the loaded query:
/// the verdict, the exact Table 1 time, and how often each operation ran.
/// Anything more (the op sequence, a per-pair trace) is a
/// [`MatchObserver`]'s to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamVerdict {
    /// True if the clause survives the filter (a potential unifier).
    pub matched: bool,
    /// Total execution time (sum of Table 1 entries).
    pub time: SimNanos,
    /// Count of each operation performed, indexed per [`HwOp::ALL`].
    pub op_histogram: [usize; 7],
}

/// Outcome of matching one track's clause-head streams
/// ([`Fs2Engine::match_track`]): the sums of the per-clause
/// [`StreamVerdict`]s. The surviving slots themselves go to the caller's
/// sink as they are found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackVerdict {
    /// Total execution time over every clause on the track.
    pub time: SimNanos,
    /// Count of each operation performed, indexed per [`HwOp::ALL`].
    pub op_histogram: [u64; 7],
    /// Clauses that survive the filter.
    pub satisfiers: usize,
}

impl TrackVerdict {
    /// Folds one clause's verdict into the track's sums; true if the
    /// clause survives.
    pub fn add_clause(&mut self, clause: StreamVerdict) -> bool {
        self.time += clause.time;
        for (total, n) in self.op_histogram.iter_mut().zip(clause.op_histogram) {
            *total += n as u64;
        }
        self.satisfiers += usize::from(clause.matched);
        clause.matched
    }
}

/// Which clauses of a predicate a sweep walks through the Map ROM, handed
/// to [`Fs2Engine::match_track`] once per track in ascending track order.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Selection<'_> {
    /// The verdict of the track holding clauses `clauses` when this keyed
    /// selection lists none of them, with the lists advanced past it: every
    /// clause is rejected by its first MATCH, which is exactly what
    /// [`Fs2Engine::match_track`] charges for such a track, without the
    /// call. `None` when the selection lists a clause on the track, or
    /// selects every clause.
    pub fn unlisted(&mut self, clauses: &Range<usize>) -> Option<TrackVerdict> {
        let Selection::Keyed { keyed, zero } = self else {
            return None;
        };
        let (keyed_ahead, zero_ahead) = (
            from_clause(keyed, clauses.start),
            from_clause(zero, clauses.start),
        );
        let listed = |list: &[u32]| list.first().is_some_and(|&c| (c as usize) < clauses.end);
        if listed(keyed_ahead) || listed(zero_ahead) {
            return None;
        }
        (*keyed, *zero) = (keyed_ahead, zero_ahead);
        let rejected = clauses.len() as u64;
        let mut verdict = TrackVerdict::default();
        verdict.op_histogram[HwOp::Match.index()] = rejected;
        verdict.time = HwOp::Match.execution_time() * rejected;
        Some(verdict)
    }
}

/// The entries of the ascending clause list `list` from clause `start` on.
fn from_clause(list: &[u32], start: usize) -> &[u32] {
    &list[leading_below(list, start)..]
}

/// Splits off the front of the ascending clause list `list` the entries
/// inside `track`, dropping those before it (tracks the sweep skipped).
fn take_track<'a>(list: &mut &'a [u32], track: &Range<usize>) -> &'a [u32] {
    let ahead = from_clause(list, track.start);
    let (taken, rest) = ahead.split_at(leading_below(ahead, track.end));
    *list = rest;
    taken
}

/// How many entries of the ascending `list` lie below `bound`. A list
/// that starts at or after `bound`, or ends before it, costs one
/// comparison; only a list that straddles it is searched.
fn leading_below(list: &[u32], bound: usize) -> usize {
    match (list.first(), list.last()) {
        (Some(&first), _) if first as usize >= bound => 0,
        (_, Some(&last)) if (last as usize) < bound => list.len(),
        _ => list.partition_point(|&c| (c as usize) < bound),
    }
}

/// What a caller of [`Fs2Engine::match_clause_observed`] records of one
/// clause walk beyond the [`StreamVerdict`]. Every method defaults to
/// doing nothing, so `()` is the free observer the pipeline runs.
pub trait MatchObserver {
    /// A word pair was dispatched to `routine`; it stays open, with any
    /// element pairs of a complex term nested inside it, until
    /// [`Self::pair_end`].
    fn pair_start(&mut self, _q_index: usize, _d_index: usize, _routine: Routine) {}
    /// A hardware operation ran, charged to the innermost open pair.
    fn op(&mut self, _op: HwOp) {}
    /// The innermost open pair finished; `passed` if matching continues.
    fn pair_end(&mut self, _passed: bool) {}
}

impl MatchObserver for () {}

/// Records the operations performed, in order.
impl MatchObserver for Vec<HwOp> {
    fn op(&mut self, op: HwOp) {
        self.push(op);
    }
}

/// A per-pair record of one clause walk: which words were compared, which
/// Map ROM routine fired, which operation it ran first, and whether the
/// pair passed. [`crate::trace::render_trace`] lays it out as a table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// One step per word pair, in dispatch order (a complex pair before
    /// its element pairs).
    pub steps: Vec<TraceStep>,
    /// Indices into `steps` of the pairs still open, innermost last.
    open: Vec<usize>,
}

impl MatchObserver for Trace {
    fn pair_start(&mut self, q_index: usize, d_index: usize, routine: Routine) {
        self.open.push(self.steps.len());
        self.steps.push(TraceStep {
            q_index,
            d_index,
            routine,
            op: None,
            passed: false,
        });
    }

    fn op(&mut self, op: HwOp) {
        if let Some(&step) = self.open.last() {
            self.steps[step].op.get_or_insert(op);
        }
    }

    fn pair_end(&mut self, passed: bool) {
        if let Some(step) = self.open.pop() {
            self.steps[step].passed = passed;
        }
    }
}

/// One traced word-pair comparison (see [`Trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Index of the query word in the query stream.
    pub q_index: usize,
    /// Index of the database word in the clause-head stream.
    pub d_index: usize,
    /// The Map ROM routine that fired.
    pub routine: Routine,
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
/// let stream = encode_query(&query)?;
/// let mut engine = Fs2Engine::new(&stream)?;
///
/// let hit = parse_term("married_couple(sue, sue)", &mut sy)?;
/// assert!(engine.match_clause_words(encode_clause_head(&hit)?.words()).matched);
///
/// let miss = parse_term("married_couple(ann, bob)", &mut sy)?;
/// assert!(!engine.match_clause_words(encode_clause_head(&miss)?.words()).matched);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fs2Engine<'q> {
    query: QueryMemory<'q>,
    q_cells: CellBank,
    db_cells: CellBank,
    /// Handle to the process-wide Map ROM ([`MapRom::shared`]): the table
    /// is burned once, so engine construction and cloning never pay the
    /// 64 K-entry derivation.
    rom: std::sync::Arc<MapRom>,
    /// The query's first word as a raw bus word, when it is a simple
    /// value (atom/float pointer or in-line integer) — the precondition
    /// for a [`Selection::Keyed`] sweep.
    first_key: Option<u32>,
}

impl<'q> Fs2Engine<'q> {
    /// Loads a query stream (the Set Query phase). The engine borrows the
    /// stream for as long as it lives; see [`Self::into_owned`].
    ///
    /// # Errors
    ///
    /// Returns [`QueryTooLargeError`] if the stream exceeds the Query
    /// Memory's 8-bit address space.
    pub fn new(query_stream: &'q PifStream) -> Result<Self, QueryTooLargeError> {
        let query = QueryMemory::load(query_stream)?;
        let n_vars = query.var_count();
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
            first_key,
        })
    }

    /// The same engine holding its own copy of the query stream, for a
    /// holder that outlives the caller's stream (the FS2 board model).
    pub fn into_owned(self) -> Fs2Engine<'static> {
        Fs2Engine {
            query: self.query.into_owned(),
            q_cells: self.q_cells,
            db_cells: self.db_cells,
            rom: self.rom,
            first_key: self.first_key,
        }
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

    /// Matches one clause-head word slice (a pre-decoded arena stream or
    /// an encoded head), resetting both variable memories first (the
    /// per-clause "reset to pointing to itself"). This is the walk the
    /// pipeline runs; it records nothing beyond the verdict.
    pub fn match_clause_words(&mut self, db_words: &[PifWord]) -> StreamVerdict {
        self.match_clause_observed(db_words, &mut ())
    }

    /// [`Self::match_clause_words`], reporting every word pair and
    /// operation to `observer` as the walk goes: a `Vec<HwOp>` collects
    /// the op sequence, a [`Trace`] the per-pair steps. The verdict does
    /// not depend on the observer.
    pub fn match_clause_observed(
        &mut self,
        db_words: &[PifWord],
        observer: &mut impl MatchObserver,
    ) -> StreamVerdict {
        self.reset_cells(db_words);
        let mut run = Run {
            rom: &self.rom,
            q_cells: &mut self.q_cells,
            db_cells: &mut self.db_cells,
            observer,
            op_histogram: [0; 7],
            time: SimNanos::ZERO,
        };
        let matched = run.run(self.query.stream(), db_words);
        StreamVerdict {
            matched,
            time: run.time,
            op_histogram: run.op_histogram,
        }
    }

    /// Matches one track's worth of clause heads: the track holds clauses
    /// `clauses` (slot `s` is clause `clauses.start + s`) and `stream(c)`
    /// is clause `c`'s head stream. The result is exactly the fold of
    /// [`Self::match_clause_words`] over `stream(clauses)`, and `hit`
    /// receives the slot of every surviving clause, ascending.
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
        mut hit: impl FnMut(u16),
    ) -> TrackVerdict {
        let mut verdict = TrackVerdict::default();
        let mut walk = |engine: &mut Self, clause: usize| {
            if verdict.add_clause(engine.match_clause_words(stream(clause))) {
                hit((clause - clauses.start) as u16);
            }
        };
        let Selection::Keyed { keyed, zero } = selection else {
            for clause in clauses.clone() {
                walk(self, clause);
            }
            return verdict;
        };
        debug_assert!(self.first_key.is_some(), "a keyed selection needs a key");
        let (mut keyed, mut zero) = (take_track(keyed, &clauses), take_track(zero, &clauses));
        let rejected = (clauses.len() - keyed.len() - zero.len()) as u64;
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
            walk(self, clause);
        }
        verdict.op_histogram[HwOp::Match.index()] += rejected;
        verdict.time += HwOp::Match.execution_time() * rejected;
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
}

/// One clause walk: the cell banks it binds, the Table 1 time and op
/// counts it accumulates, and the observer it reports to.
struct Run<'a, O> {
    rom: &'a MapRom,
    q_cells: &'a mut CellBank,
    db_cells: &'a mut CellBank,
    observer: &'a mut O,
    op_histogram: [usize; 7],
    time: SimNanos,
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

impl<O: MatchObserver> Run<'_, O> {
    fn op(&mut self, op: HwOp) {
        self.time += op.execution_time();
        self.op_histogram[op.index()] += 1;
        self.observer.op(op);
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
        let qw = q[qi];
        let dw = d[di];
        let routine = self.rom.dispatch(dw.tag(), qw.tag());
        self.observer.pair_start(qi, di, routine);
        let outcome = match routine {
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
        };
        self.observer.pair_end(outcome.is_some());
        outcome
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

    /// The verdict for `clause` against `query`, with the op sequence a
    /// `Vec<HwOp>` observer recorded.
    fn verdict(query: &str, clause: &str) -> (StreamVerdict, Vec<HwOp>) {
        let mut sy = SymbolTable::new();
        let q = parse_term(query, &mut sy).unwrap();
        let c = parse_term(clause, &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        let mut ops = Vec::new();
        let v = engine.match_clause_observed(encode_clause_head(&c).unwrap().words(), &mut ops);
        (v, ops)
    }

    fn fs2(query: &str, clause: &str) -> bool {
        verdict(query, clause).0.matched
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
        let (v, ops) = verdict("f(X, a, b)", "f(A, a, A)");
        assert!(v.matched);
        assert!(ops.contains(&HwOp::DbStore));
        assert!(ops.contains(&HwOp::DbCrossBoundFetch));
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
        let (v, ops) = verdict("f(_)", "f(g(a, b))");
        assert!(v.matched, "anon skips a whole complex argument");
        assert_eq!(ops, vec![HwOp::Match]);
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
        let (v, ops) = verdict("f(a, b)", "f(a, b)");
        assert_eq!(ops, vec![HwOp::Match, HwOp::Match]);
        assert_eq!(v.time.as_ns(), 210);
        // QUERY_STORE (115) then QUERY_FETCH (170).
        let (v, ops) = verdict("f(X, X)", "f(a, a)");
        assert_eq!(ops, vec![HwOp::QueryStore, HwOp::QueryFetch]);
        assert_eq!(v.time.as_ns(), 285);
        // DB_STORE (95) then DB_FETCH (105).
        let (v, ops) = verdict("f(a, a)", "f(A, A)");
        assert_eq!(ops, vec![HwOp::DbStore, HwOp::DbFetch]);
        assert_eq!(v.time.as_ns(), 200);
    }

    #[test]
    fn query_cross_bound_fetch_chain() {
        let (v, ops) = verdict("f(X, Y, X, Y)", "f(B, B, c, c)");
        assert!(v.matched);
        assert!(ops.contains(&HwOp::QueryCrossBoundFetch), "ops: {ops:?}");
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
        let (v, ops) = verdict("halt", "halt");
        assert!(v.matched);
        assert!(ops.is_empty());
        assert_eq!(v.time, SimNanos::ZERO);
    }

    #[test]
    fn engine_is_reusable_across_clauses() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(X, X)", &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        let yes = parse_term("f(a, a)", &mut sy).unwrap();
        let no = parse_term("f(a, b)", &mut sy).unwrap();
        // Interleave to prove per-clause memory resets work.
        for _ in 0..3 {
            assert!(
                engine
                    .match_clause_words(encode_clause_head(&yes).unwrap().words())
                    .matched
            );
            assert!(
                !engine
                    .match_clause_words(encode_clause_head(&no).unwrap().words())
                    .matched
            );
        }
    }

    #[test]
    fn observers_see_the_same_walk() {
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
            let words = encode_clause_head(&c).unwrap();
            let stream = encode_query(&q).unwrap();
            let mut engine = Fs2Engine::new(&stream).unwrap();
            let quiet = engine.match_clause_words(words.words());
            let (mut ops, mut trace) = (Vec::new(), Trace::default());
            let with_ops = engine.match_clause_observed(words.words(), &mut ops);
            let traced = engine.match_clause_observed(words.words(), &mut trace);
            assert_eq!((with_ops, traced), (quiet, quiet), "{qs} vs {cs}");
            for op in HwOp::ALL {
                let n = ops.iter().filter(|&&o| o == op).count();
                assert_eq!(n, quiet.op_histogram[op.index()], "{op:?}: {qs} vs {cs}");
            }
            let last_passed = trace.steps.last().is_none_or(|step| step.passed);
            assert_eq!(last_passed, quiet.matched, "{qs} vs {cs}");
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
        let mut unlisted_tracks = 0;
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
                let (mut fold, mut fold_hits) = (TrackVerdict::default(), Vec::new());
                for clause in range.clone() {
                    if fold.add_clause(engine.match_clause_words(&clauses[clause])) {
                        fold_hits.push((clause - range.start) as u16);
                    }
                }
                // A keyed track that lists no clause is charged in bulk,
                // without the call, exactly what the call charges.
                let mut bulk = selection.clone();
                let unlisted = bulk.unlisted(range);
                let mut hits = Vec::new();
                let got = engine.match_track(
                    range.clone(),
                    &mut selection,
                    |c| &clauses[c],
                    |slot| hits.push(slot),
                );
                assert_eq!(got, fold, "round {round}, track {t}: {q_stream:?}");
                assert_eq!(hits, fold_hits, "round {round}, track {t}: {q_stream:?}");
                assert_eq!(got.satisfiers, hits.len());
                let empty_share =
                    engine.first_key().is_some() && !keyed.iter().chain(&zero).any(selected);
                assert_eq!(unlisted.is_some(), empty_share, "round {round}, track {t}");
                if let Some(verdict) = unlisted {
                    assert_eq!(verdict, got, "round {round}, track {t}: {q_stream:?}");
                    assert_eq!(bulk, selection, "round {round}, track {t}");
                    unlisted_tracks += usize::from(!range.is_empty());
                }
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
        assert!(
            unlisted_tracks > 20,
            "keyed tracks listing no clause: {unlisted_tracks}"
        );
    }

    #[test]
    fn fast_path_mismatch_charges_the_failing_pair() {
        // f(a, b) vs f(a, c): MATCH for the hit, MATCH for the miss.
        let quiet = {
            let mut sy = SymbolTable::new();
            let q = parse_term("f(a, b)", &mut sy).unwrap();
            let c = parse_term("f(a, c)", &mut sy).unwrap();
            let stream = encode_query(&q).unwrap();
            let mut engine = Fs2Engine::new(&stream).unwrap();
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
        let stream = encode_query(&q).unwrap();
        let mut original = Fs2Engine::new(&stream).unwrap();
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
            let stream = encode_query(&q).unwrap();
            let mut engine = Fs2Engine::new(&stream).unwrap();
            let mut ops = Vec::new();
            let hw =
                engine.match_clause_observed(encode_clause_head(&c).unwrap().words(), &mut ops);
            let sw = partial_match(&q, &c, PartialConfig::fs2());
            assert_eq!(
                hw.matched, sw.matched,
                "hardware vs software verdict for {qs} vs {cs}"
            );
            let sw_ops: Vec<&str> = sw.ops.iter().map(|o| o.name()).collect();
            let hw_ops: Vec<&str> = ops.iter().map(|o| o.name()).collect();
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

    fn traced(query: &str, clause: &str) -> (StreamVerdict, Vec<TraceStep>) {
        let mut sy = SymbolTable::new();
        let q = parse_term(query, &mut sy).unwrap();
        let c = parse_term(clause, &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        let mut trace = Trace::default();
        let v = engine.match_clause_observed(encode_clause_head(&c).unwrap().words(), &mut trace);
        (v, trace.steps)
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
    fn nested_elements_appear_in_trace() {
        let (_, trace) = traced("p(g(a, b))", "p(g(a, b))");
        // Pair for g/2 word, then pairs for both elements.
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].routine, Routine::ComplexMatch);
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
        let stream = encode_query(&q).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        let mut bad = PifStream::new();
        bad.push(PifWord::new(TypeTag::StructInline { arity: 3 }, 0));
        bad.push(PifWord::new(TypeTag::AtomPtr, 1)); // only one element
        let verdict = engine.match_clause_words(bad.words());
        assert!(!verdict.matched);
    }

    /// A malformed variable offset beyond the cell banks is dropped, not
    /// a panic.
    #[test]
    fn out_of_range_variable_offset_is_tolerated() {
        let mut sy = SymbolTable::new();
        let q = parse_term("p(X)", &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        for tag in [
            TypeTag::QueryVar { first: true },
            TypeTag::QueryVar { first: false },
            TypeTag::DbVar { first: false },
        ] {
            let mut bad = PifStream::new();
            bad.push(PifWord::new(tag, 63));
            let _ = engine.match_clause_words(bad.words());
        }
    }

    /// Arbitrary well-tagged word soups never panic the engine.
    #[test]
    fn random_word_soup_is_total() {
        use clare_pif::tags::TAG_VALUE_COUNT;
        let _ = TAG_VALUE_COUNT;
        let mut sy = SymbolTable::new();
        let q = parse_term("p(X, g(a), [1, 2], 7)", &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
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
            let _ = engine.match_clause_words(stream.words());
        }
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;

    #[test]
    fn leading_below_equals_a_partition_point() {
        let lists: [&[u32]; 6] = [
            &[],
            &[5],
            &[0, 1, 2, 3],
            &[2, 4, 8, 16, 32, 64, 65, 66],
            &[7; 5],
            &[
                1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33,
            ],
        ];
        for list in lists {
            for bound in 0..70 {
                let want = list.partition_point(|&c| (c as usize) < bound);
                assert_eq!(leading_below(list, bound), want, "{list:?} below {bound}");
            }
        }
    }

    #[test]
    fn take_track_splits_off_each_tracks_share() {
        let posting: &[u32] = &[1, 2, 9, 10, 11, 30, 31, 64];
        let mut list = posting;
        assert_eq!(
            take_track(&mut list, &(0..1)),
            &[] as &[u32],
            "before the list"
        );
        assert_eq!(take_track(&mut list, &(0..8)), &[1, 2]);
        // Track 8..10 is skipped: its entry 9 is dropped with it.
        assert_eq!(take_track(&mut list, &(10..20)), &[10, 11]);
        assert_eq!(take_track(&mut list, &(20..25)), &[] as &[u32], "a gap");
        assert_eq!(take_track(&mut list, &(40..70)), &[64]);
        assert!(list.is_empty());
        assert_eq!(
            take_track(&mut list, &(70..80)),
            &[] as &[u32],
            "past the list"
        );
    }
}
