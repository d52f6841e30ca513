//! One compiled query per goal.
//!
//! CLARE prepares a query once: it is loaded into Query Memory and every
//! clause word of the stream is dispatched against it (§3.1). A
//! [`QueryPlan`] is that preparation on the host. A goal is compiled once
//! per retrieval, against the base snapshot the retrieval runs over, and
//! every stage reads the plan instead of re-deriving the query from its
//! [`Term`]: the mode choice, the FS1 scan, the FS2 sweep and the
//! answer-cache key. The predicate's own mode inputs (its module kind and
//! rule share) were compiled with the predicate, so choosing a mode costs
//! O(query), not O(predicate). A plan compiles only what its mode reads:
//! the FS1 descriptor when the heuristic or an FS1 scan needs it, the PIF
//! stream when the FS2 engine loads it (in every mode but FS1 alone) or
//! the answer cache keys on it.
//!
//! This module is the only place in the crate that encodes a query, as a
//! PIF stream or as an FS1 descriptor.

use crate::cache::QueryKey;
use crate::crs::SearchMode;
use crate::resolve::ModeChoice;
use clare_kb::{KnowledgeBase, Module, ModuleKind, Predicate};
use clare_pif::{encode_query, PifError, PifStream};
use clare_scw::{encode_query_descriptor, QueryDescriptor};
use clare_term::{Symbol, Term};
use std::borrow::Cow;

/// A goal compiled once against one base snapshot.
pub(crate) struct QueryPlan<'q, 'a> {
    /// The goal: the caller's own, or the resolver's renumbered copy.
    pub(crate) query: Cow<'q, Term>,
    /// The predicate indicator; `None` for a goal that is not callable.
    pub(crate) key: Option<(Symbol, usize)>,
    /// The base module and predicate, when the snapshot defines one.
    pub(crate) base: Option<(&'a Module, &'a Predicate)>,
    /// The PIF query stream, or why the goal has none (an integer outside
    /// the 28-bit in-line range). Present whenever the plan
    /// [`walks`](Self::walks), and whenever the caller had encoded it
    /// already.
    pub(crate) stream: Option<Result<PifStream, PifError>>,
    /// The FS1 descriptor under the predicate's index configuration:
    /// present whenever `mode` scans FS1 over a base predicate, and
    /// whenever the heuristic had to read it.
    pub(crate) descriptor: Option<QueryDescriptor>,
    /// The requested mode, or the heuristic's pick under
    /// [`ModeChoice::Auto`]. When the engine cannot load the stream the
    /// pipeline drops only the walk: a two-stage plan runs FS1 alone, the
    /// others software mode with no filter.
    pub(crate) mode: SearchMode,
}

impl<'q, 'a> QueryPlan<'q, 'a> {
    /// Compiles `query` against `kb` for a retrieval. `stream` is the PIF
    /// stream when the caller already encoded it (the server's cache key
    /// needs it first; see [`encode_keyed`]); otherwise the plan encodes
    /// one only if it [`walks`](Self::walks).
    pub(crate) fn new(
        kb: &'a KnowledgeBase,
        query: Cow<'q, Term>,
        stream: Option<Result<PifStream, PifError>>,
        choice: ModeChoice,
    ) -> Self {
        clare_trace::metrics().crs_query_compiles.inc();
        let mut plan = Self::choose(kb, query, choice);
        plan.stream = stream;
        if plan.walks() && plan.stream.is_none() {
            plan.stream = Some(encode_query(&plan.query));
        }
        plan
    }

    /// True if the FS2 engine's Level-3 walk runs over a base predicate:
    /// in the sweep of the FS2 modes, or on the host in software mode.
    /// Only FS1 alone reads no stream.
    pub(crate) fn walks(&self) -> bool {
        self.base.is_some() && self.mode != SearchMode::Fs1Only
    }

    /// The mode and the FS1 descriptor alone, with no stream: what
    /// [`crate::choose_mode`] compiles and throws away. Not counted as a
    /// compile, since no retrieval runs it.
    pub(crate) fn choose(kb: &'a KnowledgeBase, query: Cow<'q, Term>, choice: ModeChoice) -> Self {
        let key = query.functor_arity();
        let mut plan = QueryPlan {
            query,
            key,
            base: key.and_then(|(functor, arity)| kb.module_of(functor, arity)),
            stream: None,
            descriptor: None,
            mode: SearchMode::SoftwareOnly,
        };
        plan.mode = match choice {
            ModeChoice::Fixed(mode) => mode,
            ModeChoice::Auto => plan.heuristic(),
        };
        let scans = matches!(plan.mode, SearchMode::Fs1Only | SearchMode::TwoStage);
        if let (true, None, Some((_, pred))) = (scans, &plan.descriptor, plan.base) {
            plan.descriptor = Some(plan.encode_descriptor(pred));
        }
        plan
    }

    /// The goal's FS1 descriptor under `pred`'s index configuration.
    fn encode_descriptor(&self, pred: &Predicate) -> QueryDescriptor {
        encode_query_descriptor(&self.query, pred.index().config())
    }

    /// The heuristic behind [`crate::choose_mode`], over the plan and the
    /// predicate's compiled statistics. It compiles the FS1 descriptor
    /// for a disk-resident predicate whose rule share leaves FS1 in the
    /// running, and the plan keeps it; it walks the goal for groundness
    /// only when the rule share leaves the choice open.
    fn heuristic(&mut self) -> SearchMode {
        let Some((module, pred)) = self.base else {
            return SearchMode::SoftwareOnly;
        };
        // Memory-resident modules are searched by the host directly.
        if module.kind() == ModuleKind::Small {
            return SearchMode::SoftwareOnly;
        }
        if pred.rule_fraction() > 0.5 {
            // Rule-intensive predicate: heads are mostly non-ground, so their
            // index masks make FS1 unselective — the paper's "rule or fact
            // intensive" criterion. FS2 alone reads no descriptor.
            return SearchMode::Fs2Only;
        }
        let descriptor = self.descriptor.insert(self.encode_descriptor(pred));
        if descriptor.is_unconstrained() {
            // FS1 would retrieve the whole predicate (the married_couple
            // case); go straight to FS2, which shared variables need anyway.
            return SearchMode::Fs2Only;
        }
        if pred.rule_fraction() < 0.2 && self.query.is_ground() {
            // Ground queries against fact-intensive predicates: FS1's deep
            // keys are already highly selective, and a ground goal has no
            // cross-bound variables for FS1 to miss.
            return SearchMode::Fs1Only;
        }
        SearchMode::TwoStage
    }
}

/// Encodes `query` once for the server's answer cache: its PIF stream,
/// and the cache key built from it (`None` for a goal that is not
/// callable or has no stream). On a miss the stream moves into
/// [`QueryPlan::new`], so a cold retrieval is not encoded again.
pub(crate) fn encode_keyed(query: &Term) -> (Result<PifStream, PifError>, Option<QueryKey>) {
    let stream = encode_query(query);
    let key = stream.as_ref().ok().and_then(|s| QueryKey::new(query, s));
    (stream, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbBuilder, KbConfig};
    use clare_term::parser::parse_term;

    /// A disk-resident `fact/2` module, a memory-resident `p/1` module and
    /// the queries, parsed against the same symbols.
    fn build(queries: &[&str]) -> (KnowledgeBase, Vec<Term>) {
        let mut b = KbBuilder::new();
        let facts: Vec<String> = (0..3000)
            .map(|i| format!("fact(k{i}, v{}).", i % 10))
            .collect();
        b.consult("big", &facts.join("\n")).unwrap();
        b.consult("small", "p(a).").unwrap();
        let terms = queries
            .iter()
            .map(|q| parse_term(q, b.symbols_mut()).unwrap())
            .collect();
        (b.finish(KbConfig::default()), terms)
    }

    /// What a plan compiled: (stream, descriptor, mode).
    fn compiled(plan: &QueryPlan<'_, '_>) -> (bool, bool, SearchMode) {
        (plan.stream.is_some(), plan.descriptor.is_some(), plan.mode)
    }

    #[test]
    fn a_plan_compiles_only_what_its_mode_reads() {
        use SearchMode::*;
        let (kb, q) = build(&["fact(k1, X)", "fact(k1, v1)", "p(a)", "missing(a)"]);
        let fixed = |query: &Term, mode| {
            let plan = QueryPlan::new(&kb, Cow::Borrowed(query), None, ModeChoice::Fixed(mode));
            compiled(&plan)
        };
        // Software mode runs the FS2 engine's walk on the host.
        assert_eq!(fixed(&q[0], SoftwareOnly), (true, false, SoftwareOnly));
        assert_eq!(fixed(&q[0], Fs1Only), (false, true, Fs1Only));
        assert_eq!(fixed(&q[0], Fs2Only), (true, false, Fs2Only));
        assert_eq!(fixed(&q[0], TwoStage), (true, true, TwoStage));
        // No base predicate: nothing for either filter to run over.
        assert_eq!(fixed(&q[3], TwoStage), (false, false, TwoStage));
        let auto = |query: &Term| {
            let plan = QueryPlan::new(&kb, Cow::Borrowed(query), None, ModeChoice::Auto);
            compiled(&plan)
        };
        assert_eq!(auto(&q[0]), (true, true, TwoStage));
        assert_eq!(auto(&q[1]), (false, true, Fs1Only));
        // A memory-resident module and a missing predicate are decided
        // before the heuristic reads any encoding; the memory-resident one
        // is then searched in software over the stream.
        assert_eq!(auto(&q[2]), (true, false, SoftwareOnly));
        assert_eq!(auto(&q[3]), (false, false, SoftwareOnly));
        // The public mode choice never encodes a stream.
        let chosen = QueryPlan::choose(&kb, Cow::Borrowed(&q[0]), ModeChoice::Auto);
        assert_eq!(compiled(&chosen), (false, true, TwoStage));
    }

    #[test]
    fn a_caller_stream_is_kept_whatever_the_mode() {
        let (kb, q) = build(&["fact(k1, X)"]);
        let (stream, key) = encode_keyed(&q[0]);
        assert!(key.is_some());
        let words = stream.as_ref().unwrap().words().to_vec();
        let choice = ModeChoice::Fixed(SearchMode::Fs1Only);
        let plan = QueryPlan::new(&kb, Cow::Borrowed(&q[0]), Some(stream), choice);
        let kept = plan.stream.as_ref().unwrap().as_ref().unwrap();
        assert_eq!(kept.words(), &words[..]);
    }
}
