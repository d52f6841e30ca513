//! The memtable delta overlay.
//!
//! Asserted and retracted clauses land here instead of forcing a
//! wholesale knowledge-base rebuild. An [`Overlay`] is the live delta on
//! top of one immutable base snapshot: per-predicate lists of *added*
//! clauses (in sequence order) and sets of *retracted* base clause
//! indices. Retrievals merge the two views; overlay clauses have no FS1
//! codewords yet, so they pass the superset filter **unconditionally**
//! until a compaction folds them into rebuilt track segments — the
//! paper's no-false-negative invariant is preserved by construction, and
//! the host's full unification weeds the extra candidates exactly as it
//! weeds FS1 false drops.
//!
//! Application is copy-on-write at the commit layer: the server clones
//! the published overlay, applies a batch, and publishes the clone only
//! after the write-ahead log accepts the batch — a failed validation or
//! a failed append publishes nothing.

use std::collections::{BTreeSet, HashMap};

use crate::log::{WalOp, WalRecord};
use clare_kb::{KbError, KnowledgeBase};
use clare_pif::ClauseRecord;
use clare_term::parser::{parse_program, ParseError};
use clare_term::{Clause, Symbol, SymbolTable};

/// One clause added by the overlay, tagged with the sequence number of
/// the assert that introduced it.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayClause {
    /// Sequence number of the assert that added this clause.
    pub seq: u64,
    /// The clause itself.
    pub clause: Clause,
}

/// The live delta for one predicate: clauses added on top of the base
/// (in assert order) and base clause indices retracted out of it.
#[derive(Debug, Clone, Default)]
pub struct PredDelta {
    module: String,
    added: Vec<OverlayClause>,
    retracted_base: BTreeSet<usize>,
}

impl PredDelta {
    fn new(module: String) -> Self {
        PredDelta {
            module,
            ..PredDelta::default()
        }
    }

    /// The module this predicate's overlay clauses belong to (used for
    /// predicates the base snapshot does not know).
    pub fn module(&self) -> &str {
        &self.module
    }

    /// Live clauses added on top of the base, in assert order.
    pub fn added(&self) -> &[OverlayClause] {
        &self.added
    }

    /// Indices into the base predicate's clause list that are retracted.
    pub fn retracted_base(&self) -> &BTreeSet<usize> {
        &self.retracted_base
    }

    /// True when base clause `index` has been retracted.
    pub fn is_retracted(&self, index: usize) -> bool {
        self.retracted_base.contains(&index)
    }

    /// True when this delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.retracted_base.is_empty()
    }
}

/// What one [`Overlay::apply`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Clauses added to the overlay.
    pub clauses_added: usize,
    /// Clauses removed (from the base view or from the overlay).
    pub clauses_removed: usize,
    /// Predicates whose merged view changed.
    pub touched: Vec<(Symbol, usize)>,
}

/// Errors from applying an operation to the overlay. Every error leaves
/// the *published* state untouched — the commit layer applies to a clone
/// and discards it on failure.
#[derive(Debug)]
pub enum OverlayError {
    /// The operation's clause source failed to parse.
    Parse(ParseError),
    /// A clause cannot be compiled to PIF (it could never be stored, so
    /// it is rejected at commit rather than at the next compaction).
    Pif(clare_pif::PifError),
    /// A clause's compiled record exceeds one disk track, so no
    /// compaction could ever fold it in.
    RecordTooLarge {
        /// Size of the offending record.
        record_bytes: usize,
        /// The track capacity it must fit.
        track_bytes: usize,
    },
    /// A retract's source held zero or several clauses instead of one.
    RetractNotSingle(usize),
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::Parse(e) => write!(f, "parse error: {e}"),
            OverlayError::Pif(e) => write!(f, "PIF compilation error: {e}"),
            OverlayError::RecordTooLarge {
                record_bytes,
                track_bytes,
            } => write!(
                f,
                "record of {record_bytes} bytes does not fit a {track_bytes}-byte track"
            ),
            OverlayError::RetractNotSingle(n) => {
                write!(f, "retract source must hold exactly one clause, got {n}")
            }
        }
    }
}

impl std::error::Error for OverlayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OverlayError::Parse(e) => Some(e),
            OverlayError::Pif(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for OverlayError {
    fn from(e: ParseError) -> Self {
        OverlayError::Parse(e)
    }
}

/// Structural clause equality: head and body terms, ignoring the
/// cosmetic variable-name table. Clauses parsed from α-equivalent text
/// compare equal (the parser numbers variables per clause from zero in
/// first-occurrence order).
fn same_clause(a: &Clause, b: &Clause) -> bool {
    a.head() == b.head() && a.body() == b.body()
}

/// The in-memory delta between one immutable base snapshot and the
/// current mutable state. Cloning is the commit layer's copy-on-write
/// unit; the full op list is retained so recovery and compaction can
/// replay the tail.
#[derive(Debug, Clone)]
pub struct Overlay {
    symbols: SymbolTable,
    ops: Vec<WalRecord>,
    preds: HashMap<(Symbol, usize), PredDelta>,
    max_seq: u64,
}

impl Overlay {
    /// An empty overlay whose symbol table starts as a snapshot of the
    /// base's (new atoms from asserts append to it, so base symbol ids
    /// never move).
    pub fn new(symbols: SymbolTable) -> Self {
        Overlay {
            symbols,
            ops: Vec::new(),
            preds: HashMap::new(),
            max_seq: 0,
        }
    }

    /// The overlay's symbol table: a superset of the base snapshot's.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Every operation applied since the base was sealed, in order.
    pub fn ops(&self) -> &[WalRecord] {
        &self.ops
    }

    /// Number of operations applied since the base was sealed.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operation has been applied.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Highest sequence number applied (0 when empty).
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// The delta for one predicate, if any operation touched it.
    pub fn delta(&self, functor: Symbol, arity: usize) -> Option<&PredDelta> {
        self.preds.get(&(functor, arity))
    }

    /// Every predicate with a delta, in arbitrary order.
    pub fn predicates(&self) -> impl Iterator<Item = (&(Symbol, usize), &PredDelta)> {
        self.preds.iter()
    }

    /// Live clauses currently added across all predicates.
    pub fn added_clauses(&self) -> usize {
        self.preds.values().map(|d| d.added.len()).sum()
    }

    /// Applies one operation at `seq` against `base`, validating every
    /// clause (parse, PIF compile, fit in a track of the base's build
    /// config) before mutating anything: an `Err` leaves this overlay
    /// exactly as it was.
    pub fn apply(
        &mut self,
        seq: u64,
        op: &WalOp,
        base: &KnowledgeBase,
    ) -> Result<ApplyOutcome, OverlayError> {
        let outcome = match op {
            WalOp::Assert { module, source } => {
                let clauses = parse_program(source, &mut self.symbols)?;
                let mut staged: Vec<((Symbol, usize), Clause)> = Vec::with_capacity(clauses.len());
                for clause in clauses {
                    let record = ClauseRecord::compile(&clause).map_err(OverlayError::Pif)?;
                    let record_bytes = record.to_bytes().len();
                    let track_bytes = base.config().disk.track_bytes();
                    if record_bytes > track_bytes {
                        return Err(OverlayError::RecordTooLarge {
                            record_bytes,
                            track_bytes,
                        });
                    }
                    let key = match clause.head().functor_arity() {
                        Some(key) => key,
                        None => continue, // unreachable: Clause heads are callable
                    };
                    staged.push((key, clause));
                }
                let mut touched = Vec::new();
                let added = staged.len();
                for (key, clause) in staged {
                    let delta = self
                        .preds
                        .entry(key)
                        .or_insert_with(|| PredDelta::new(module.clone()));
                    delta.added.push(OverlayClause { seq, clause });
                    if !touched.contains(&key) {
                        touched.push(key);
                    }
                }
                ApplyOutcome {
                    clauses_added: added,
                    clauses_removed: 0,
                    touched,
                }
            }
            WalOp::Retract { module, source } => {
                let mut clauses = parse_program(source, &mut self.symbols)?;
                if clauses.len() != 1 {
                    return Err(OverlayError::RetractNotSingle(clauses.len()));
                }
                let target = clauses.remove(0);
                let key = match target.head().functor_arity() {
                    Some(key) => key,
                    None => return Err(OverlayError::RetractNotSingle(0)),
                };
                // First live structural match wins, in merged program
                // order: surviving base clauses first, then overlay adds.
                enum Hit {
                    Base(usize),
                    Added(usize),
                }
                let existing = self.preds.get(&key);
                let mut hit = None;
                if let Some(pred) = base.predicate(key.0, key.1) {
                    for (i, clause) in pred.clauses().iter().enumerate() {
                        if existing.is_some_and(|d| d.is_retracted(i)) {
                            continue;
                        }
                        if same_clause(clause, &target) {
                            hit = Some(Hit::Base(i));
                            break;
                        }
                    }
                }
                if hit.is_none() {
                    if let Some(delta) = existing {
                        for (j, oc) in delta.added.iter().enumerate() {
                            if same_clause(&oc.clause, &target) {
                                hit = Some(Hit::Added(j));
                                break;
                            }
                        }
                    }
                }
                match hit {
                    Some(Hit::Base(i)) => {
                        self.preds
                            .entry(key)
                            .or_insert_with(|| PredDelta::new(module.clone()))
                            .retracted_base
                            .insert(i);
                        ApplyOutcome {
                            clauses_added: 0,
                            clauses_removed: 1,
                            touched: vec![key],
                        }
                    }
                    Some(Hit::Added(j)) => {
                        if let Some(delta) = self.preds.get_mut(&key) {
                            delta.added.remove(j);
                        }
                        ApplyOutcome {
                            clauses_added: 0,
                            clauses_removed: 1,
                            touched: vec![key],
                        }
                    }
                    // Standard Prolog retract/1 semantics: no match is a
                    // quiet failure, not an error. The op is still logged
                    // so replay stays faithful.
                    None => ApplyOutcome::default(),
                }
            }
        };
        self.ops.push(WalRecord {
            seq,
            op: op.clone(),
        });
        self.max_seq = self.max_seq.max(seq);
        Ok(outcome)
    }

    /// Replays `records` onto a fresh overlay over `base`. Records that
    /// no longer apply (e.g. the base changed under them) are skipped and
    /// counted — on a faithful replay over the original base the skip
    /// count is zero.
    pub fn rebuild(base: &KnowledgeBase, records: &[WalRecord]) -> (Overlay, usize) {
        let mut overlay = Overlay::new(base.symbols().clone());
        let mut skipped = 0usize;
        for record in records {
            if overlay.apply(record.seq, &record.op, base).is_err() {
                skipped += 1;
            }
        }
        (overlay, skipped)
    }

    /// Folds this overlay into `base`, producing the compacted snapshot:
    /// retracted base clauses dropped, overlay clauses appended to their
    /// predicates, track segments and FS1 codeword indexes rebuilt for
    /// exactly the changed predicates, under the base's own build config
    /// ([`KnowledgeBase::config`]). Every other predicate is shared with
    /// `base` by pointer ([`KnowledgeBase::with_predicates`]), and the
    /// folded base keeps the old base's generation as its parent, so the
    /// retrieval cache's incremental epoch bump invalidates only the
    /// changed modules' predicates.
    ///
    /// A new predicate joins its module, or a new module, in first-assert
    /// order: by the seq of its earliest live added clause, ties (one
    /// assert defining several) broken by symbol id. Two processes that
    /// fold the same log therefore build the same base.
    ///
    /// Everything here reads in-memory clause terms — never the
    /// simulated disk — so degraded (quarantined-track) data can never
    /// be compacted into the new segments.
    pub fn compacted_kb(&self, base: &KnowledgeBase) -> Result<KnowledgeBase, KbError> {
        let mut deltas: Vec<_> = self.preds.iter().filter(|(_, d)| !d.is_empty()).collect();
        deltas.sort_unstable_by_key(|((functor, arity), d)| {
            (d.added.first().map(|c| c.seq), functor.offset(), *arity)
        });
        let changed = deltas.into_iter().map(|(&key, delta)| {
            let old = base.predicate(key.0, key.1).map(|p| p.clauses());
            let old = old.unwrap_or_default();
            let kept = (0..old.len()).filter(|i| !delta.is_retracted(*i));
            let kept = kept.map(|i| &old[i]);
            let clauses = kept.chain(delta.added.iter().map(|oc| &oc.clause)).cloned();
            (delta.module.as_str(), key, clauses.collect())
        });
        base.with_predicates(self.symbols.clone(), changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbBuilder, KbConfig};
    use clare_term::parser::parse_term;

    fn base_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.consult("m", "p(a). p(b). p(c). q(1). bridge(X) :- p(X), q(1).")
            .unwrap();
        b.finish(KbConfig::default())
    }

    fn apply(overlay: &mut Overlay, seq: u64, op: WalOp, base: &KnowledgeBase) -> ApplyOutcome {
        overlay.apply(seq, &op, base).unwrap()
    }

    fn assert_op(source: &str) -> WalOp {
        WalOp::Assert {
            module: "m".into(),
            source: source.into(),
        }
    }

    fn retract_op(source: &str) -> WalOp {
        WalOp::Retract {
            module: "m".into(),
            source: source.into(),
        }
    }

    #[test]
    fn asserts_accumulate_in_order() {
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        let out = apply(&mut o, 1, assert_op("p(d). p(e)."), &base);
        assert_eq!(out.clauses_added, 2);
        assert_eq!(out.touched.len(), 1);
        let p = base.symbols().lookup_atom("p").unwrap();
        let delta = o.delta(p, 1).unwrap();
        assert_eq!(delta.added().len(), 2);
        assert!(delta.added()[0].seq == 1 && delta.added()[1].seq == 1);
        assert_eq!(o.len(), 1);
        assert_eq!(o.max_seq(), 1);
    }

    #[test]
    fn retract_takes_first_live_base_match_then_overlay() {
        let base = base_kb();
        let p = base.symbols().lookup_atom("p").unwrap();
        let mut o = Overlay::new(base.symbols().clone());
        apply(&mut o, 1, assert_op("p(b)."), &base); // duplicate of base p(b)
        let out = apply(&mut o, 2, retract_op("p(b)."), &base);
        assert_eq!(out.clauses_removed, 1);
        // The BASE p(b) (index 1) goes first; the overlay copy stays.
        let delta = o.delta(p, 1).unwrap();
        assert!(delta.is_retracted(1));
        assert_eq!(delta.added().len(), 1);
        let out = apply(&mut o, 3, retract_op("p(b)."), &base);
        assert_eq!(out.clauses_removed, 1);
        assert!(o.delta(p, 1).unwrap().added().is_empty());
        // Third retract finds nothing; quiet no-op, still logged.
        let out = apply(&mut o, 4, retract_op("p(b)."), &base);
        assert_eq!(out.clauses_removed, 0);
        assert_eq!(o.ops().len(), 4);
    }

    #[test]
    fn retract_matches_alpha_equivalent_rules() {
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        // Same rule, different variable name: structurally equal.
        let out = apply(&mut o, 1, retract_op("bridge(Y) :- p(Y), q(1)."), &base);
        assert_eq!(out.clauses_removed, 1);
    }

    #[test]
    fn unencodable_clause_is_rejected_and_nothing_sticks() {
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        apply(&mut o, 1, assert_op("p(d)."), &base);
        let before_ops = o.len();
        let err = o.apply(2, &assert_op("p(ok). p(999999999999)."), &base);
        assert!(matches!(err, Err(OverlayError::Pif(_))));
        // Validation happens before mutation: p(ok) did not land either.
        let p = base.symbols().lookup_atom("p").unwrap();
        assert_eq!(o.delta(p, 1).unwrap().added().len(), 1);
        assert_eq!(o.len(), before_ops);
    }

    #[test]
    fn retract_requires_exactly_one_clause() {
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        assert!(matches!(
            o.apply(1, &retract_op("p(a). p(b)."), &base),
            Err(OverlayError::RetractNotSingle(2))
        ));
    }

    #[test]
    fn compaction_folds_the_overlay_into_the_base() {
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        apply(&mut o, 1, assert_op("p(d). r(new_pred)."), &base);
        apply(&mut o, 2, retract_op("p(a)."), &base);
        let compacted = o.compacted_kb(&base).unwrap();
        // p: base (b, c) survive, then the added d.
        let p = compacted.lookup("p", 1).unwrap();
        let mut symbols = compacted.symbols().clone();
        let heads: Vec<String> = p
            .clauses()
            .iter()
            .map(|c| format!("{}", clare_term::TermDisplay::new(c.head(), &symbols)))
            .collect();
        assert_eq!(heads, ["p(b)", "p(c)", "p(d)"]);
        // The overlay-new predicate exists in the rebuilt base.
        let r = parse_term("r(X)", &mut symbols).unwrap();
        let (f, a) = r.functor_arity().unwrap();
        assert!(compacted.predicate(f, a).is_some());
        // Untouched predicate q survives verbatim.
        assert_eq!(compacted.lookup("q", 1).unwrap().clauses().len(), 1);
        // Lineage: the rebuilt base descends from the sealed one.
        assert_eq!(compacted.parent_generation(), Some(base.generation()));
    }

    #[test]
    fn new_predicates_fold_in_first_assert_order() {
        // `a` is interned before `b` (the base holds p(a)), so neither
        // symbol order nor hash order gives what the log says: b/1 first.
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        apply(&mut o, 1, assert_op("b(1)."), &base);
        apply(&mut o, 2, assert_op("a(1)."), &base);
        let compacted = o.compacted_kb(&base).unwrap();
        let preds = compacted.modules()[0].predicates().iter();
        let names: Vec<&str> = preds
            .map(|p| compacted.symbols().atom_text(p.indicator().0))
            .collect();
        assert_eq!(names, ["p", "q", "bridge", "b", "a"]);
        let mut fresh = KbBuilder::new();
        *fresh.symbols_mut() = o.symbols().clone();
        fresh
            .consult(
                "m",
                "p(a). p(b). p(c). q(1). bridge(X) :- p(X), q(1). b(1). a(1).",
            )
            .unwrap();
        let fresh = fresh.finish(KbConfig::default());
        assert_eq!(compacted.content_fingerprint(), fresh.content_fingerprint());
    }

    #[test]
    fn rebuild_replays_faithfully() {
        let base = base_kb();
        let mut o = Overlay::new(base.symbols().clone());
        apply(&mut o, 1, assert_op("p(d)."), &base);
        apply(&mut o, 2, retract_op("p(b)."), &base);
        apply(&mut o, 3, assert_op("s(1). s(2)."), &base);
        let (replayed, skipped) = Overlay::rebuild(&base, o.ops());
        assert_eq!(skipped, 0);
        let p = base.symbols().lookup_atom("p").unwrap();
        assert_eq!(
            replayed.delta(p, 1).unwrap().added().len(),
            o.delta(p, 1).unwrap().added().len()
        );
        assert_eq!(replayed.max_seq(), 3);
        // Both overlays compact to byte-identical clause sets.
        let a = o.compacted_kb(&base).unwrap();
        let b = replayed.compacted_kb(&base).unwrap();
        assert_eq!(a.clause_count(), b.clause_count());
    }
}
