//! SLD resolution on top of the CRS.
//!
//! The PDBM system is "a single Prolog system" managing the whole
//! knowledge base; this module supplies the resolution loop so queries run
//! end-to-end: each goal, instantiated and renumbered, is looked up in the
//! solve's memo of filter outputs. A goal met for the first time is
//! compiled into a query plan (which also picks the search mode, when it
//! is chosen automatically) and runs the filters of the
//! [`retrieve_batch`](crate::crs::retrieve_batch()) pipeline; a repeat
//! reuses what they produced. Either way the candidates are charged to the
//! budget and fully unified, so a repeat counts as a retrieval with the
//! same statistics, and matching clause bodies are expanded depth-first
//! in program order — standard Prolog semantics, including the
//! user-significant clause ordering the paper insists a general-purpose
//! knowledge base must preserve.

use crate::budget::{BudgetExceeded, BudgetReason};
use crate::crs::{pipeline, CrsOptions, Filtered, RetrievalStats, SearchMode};
use crate::plan::QueryPlan;
use crate::request::{RequestContext, Stage};
use clare_disk::SimNanos;
use clare_kb::KnowledgeBase;
use clare_term::{Term, VarId};
use clare_unify::full::unify;
use clare_unify::store::{shift_vars, var_span, BindingStore};
use clare_wal::Overlay;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// How the solver picks a search mode per goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeChoice {
    /// Always use this mode.
    Fixed(SearchMode),
    /// Use [`choose_mode`](crate::choose_mode) per (instantiated) goal.
    Auto,
}

/// Solver limits and configuration.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Search-mode policy.
    pub mode: ModeChoice,
    /// Stop after this many solutions (`usize::MAX` for all).
    pub max_solutions: usize,
    /// Maximum resolution depth (guards runaway recursion).
    pub max_depth: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            mode: ModeChoice::Auto,
            max_solutions: usize::MAX,
            max_depth: 256,
        }
    }
}

/// One solution: the query with its variables instantiated.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The fully resolved query term.
    pub term: Term,
    /// Bindings of the query's named variables, in first-occurrence
    /// order: `(name, resolved term)`.
    pub bindings: Vec<(String, Term)>,
}

/// Aggregate statistics for one solve call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Goals expanded: logical retrievals, each repeat of an earlier goal
    /// counted again although the solve filters it only once.
    pub retrievals: usize,
    /// Clauses fully unified across all retrievals.
    pub clauses_unified: usize,
    /// Candidates examined across all retrievals.
    pub candidates: usize,
    /// Total modelled retrieval time.
    pub retrieval_elapsed: SimNanos,
    /// Depth limit hits (search was cut).
    pub depth_cuts: usize,
    /// Whether any retrieval along the way ran degraded (quarantined
    /// tracks served by software unification instead of the hardware
    /// filter). The solutions are still exactly the fault-free ones.
    pub degraded: bool,
}

impl SolveStats {
    fn absorb(&mut self, stats: &RetrievalStats) {
        self.retrievals += 1;
        self.clauses_unified += stats.unified;
        self.candidates += stats.candidates;
        self.retrieval_elapsed += stats.elapsed;
        self.degraded |= stats.degraded;
    }
}

/// The result of a solve call.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Solutions in Prolog order.
    pub solutions: Vec<Solution>,
    /// Aggregate statistics.
    pub stats: SolveStats,
}

impl SolveOutcome {
    /// True when the search hit [`SolveOptions::max_depth`] somewhere:
    /// the solution list is complete only up to the depth cap (deeper
    /// derivations were cut, not proven absent). Each capped solve also
    /// bumps the `solve.depth_cap_hits` trace counter once.
    pub fn depth_capped(&self) -> bool {
        self.stats.depth_cuts > 0
    }
}

/// Solves a conjunction of goals sharing one variable scope (the shape
/// [`parse_goals`](clare_term::parser::parse_goals) produces).
///
/// For a single goal, [`Solution::term`] is that goal resolved; for a
/// conjunction it is a list of the resolved goals.
///
/// **Overlay.** With `Some(overlay)` every goal's clause lookup merges the
/// memtable overlay (see [`retrieve_batch`](crate::retrieve_batch())), so
/// asserted clauses resolve and retracted ones don't — with answers
/// identical to solving over a knowledge base rebuilt from scratch.
///
/// **Budget.** The context's token is polled at every resolution step
/// (each goal expansion charges [`CancelToken::note_step`]) and inside
/// every retrieval's own checkpoints, so a runaway recursive query dies
/// within one checkpoint interval of its deadline. A tripped budget
/// returns a typed [`BudgetExceeded`] carrying the partial [`SolveStats`] —
/// never a truncated solution list. [`RequestContext::unlimited`] never
/// trips.
///
/// **Stage record.** A context made by [`RequestContext::recording`] gets
/// the solve's host time charged stage by stage, the memo and the
/// resolver's own work included ([`crate::StageRecord`]).
///
/// [`CancelToken::note_step`]: crate::CancelToken::note_step
///
/// # Examples
///
/// ```
/// use clare_core::{solve_goals, CrsOptions, RequestContext, SolveOptions};
/// use clare_kb::{KbBuilder, KbConfig};
/// use clare_term::parser::parse_goals;
///
/// let mut b = KbBuilder::new();
/// b.consult("m", "parent(tom, bob). parent(tom, liz). male(bob).")?;
/// let (goals, names) = parse_goals("parent(tom, X), male(X)", b.symbols_mut())?;
/// let kb = b.finish(KbConfig::default());
///
/// let outcome = solve_goals(
///     &kb,
///     None,
///     &goals,
///     &names,
///     &SolveOptions::default(),
///     &CrsOptions::default(),
///     &mut RequestContext::unlimited(),
/// )?;
/// assert_eq!(outcome.solutions.len(), 1); // only bob is male
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_goals(
    kb: &KnowledgeBase,
    overlay: Option<&Overlay>,
    goals: &[Term],
    var_names: &[String],
    options: &SolveOptions,
    crs: &CrsOptions,
    cx: &mut RequestContext,
) -> Result<SolveOutcome, BudgetExceeded> {
    cx.begin();
    let span = goals.iter().map(var_span).max().unwrap_or(0) as usize;
    let query = if goals.len() == 1 {
        goals[0].clone()
    } else {
        Term::List {
            items: goals.to_vec(),
            tail: None,
        }
    };
    let continuation = goals.iter().rev().fold(Rc::new(Goals::Done), |next, goal| {
        Rc::new(Goals::Then(goal.clone(), next))
    });
    let mut ctx = Solver {
        kb,
        overlay,
        options,
        crs,
        store: BindingStore::with_capacity(span),
        renaming: Renaming::default(),
        solutions: Vec::new(),
        stats: SolveStats::default(),
        query,
        var_names,
        cx,
        memo: Memo::default(),
        repeats: 0,
    };
    let result = ctx.dfs(&continuation, 0);
    let Solver {
        solutions,
        stats,
        repeats,
        memo,
        cx,
        ..
    } = ctx;
    drop((memo, continuation));
    let m = clare_trace::metrics();
    m.solve_repeat_retrievals.add(repeats);
    if stats.depth_cuts > 0 {
        // Once per capped solve, not per cut: the counter tracks how
        // many answers were silently bounded, not how bushy the tree was.
        m.solve_depth_cap_hits.inc();
    }
    cx.lap(Stage::Resolver);
    cx.end();
    match result {
        Ok(()) => Ok(SolveOutcome { solutions, stats }),
        Err(reason) => Err(BudgetExceeded {
            reason: Some(reason),
            retrieval_stats: None,
            solve_stats: Some(Box::new(stats)),
        }),
    }
}

/// The goals left to prove, first to last. The list is shared: a
/// candidate's body goals are pushed onto the caller's continuation, which
/// is never copied.
enum Goals {
    Done,
    Then(Term, Rc<Goals>),
}

/// The most candidate ids one solve's [`Memo`] holds; each held goal
/// counts one more for its key. Past it, new goals are filtered every
/// time they occur, as if there were no memo.
const MEMO_CANDIDATES: usize = 1 << 16;

/// Goals a memo makes room for at its first lookup.
const MEMO_FIRST_ROOM: usize = 32;

/// The filter outputs of the goals one solve has retrieved, keyed by the
/// compacted goal. A solve runs over one snapshot pair under one mode
/// policy, so a goal's filter output cannot change while the memo lives:
/// a repeat skips the plan compile, the FS1 scan and the FS2 sweep. The
/// retrieval-level form of tabling variant subgoals.
///
/// Goals come from outside the program, so the map keeps std's keyed
/// hasher; each expansion hashes its goal once, through one `entry`.
#[derive(Default)]
struct Memo<'a> {
    held: HashMap<Term, Rc<Filtered<'a>>>,
    /// Candidate ids held, plus one per held goal.
    size: usize,
}

struct Solver<'a> {
    kb: &'a KnowledgeBase,
    overlay: Option<&'a Overlay>,
    options: &'a SolveOptions,
    crs: &'a CrsOptions,
    store: BindingStore,
    renaming: Renaming,
    solutions: Vec<Solution>,
    stats: SolveStats,
    query: Term,
    var_names: &'a [String],
    cx: &'a mut RequestContext,
    memo: Memo<'a>,
    /// Retrievals served from the memo.
    repeats: u64,
}

impl Solver<'_> {
    fn done(&self) -> bool {
        self.solutions.len() >= self.options.max_solutions
    }

    fn dfs(&mut self, goals: &Goals, depth: usize) -> Result<(), BudgetReason> {
        // Every expansion is one resolution step against the budget; the
        // same call doubles as the deadline checkpoint, so a runaway
        // recursion dies within one expansion of its deadline.
        self.cx.cancel.note_step()?;
        if self.done() {
            return Ok(());
        }
        let Goals::Then(goal, rest) = goals else {
            self.record_solution();
            return Ok(());
        };
        if depth >= self.options.max_depth {
            self.stats.depth_cuts += 1;
            return Ok(());
        }
        // Instantiate the goal under current bindings and renumber its
        // variables densely, so the hardware query encoding stays compact
        // and a repeated goal compares equal to its first occurrence.
        let compact = self.renaming.compact(&self.store, goal);
        self.cx.lap(Stage::Resolver);
        if self.memo.held.capacity() == 0 {
            self.memo.held.reserve(MEMO_FIRST_ROOM);
        }
        // A repeat runs the same tail as a first occurrence: the candidate
        // charge and the counting unification.
        let filtered = match self.memo.held.entry(compact) {
            Entry::Occupied(held) => {
                self.cx.lap(Stage::Memo);
                let filtered = Rc::clone(held.get());
                count(&mut self.stats, &filtered, held.key(), self.crs, self.cx)?;
                self.repeats += 1;
                filtered
            }
            Entry::Vacant(new) => {
                self.cx.lap(Stage::Memo);
                // Compile the goal once: the plan carries the mode choice,
                // the FS1 descriptor and the FS2 stream into the filters.
                let plan =
                    QueryPlan::new(self.kb, Cow::Borrowed(new.key()), None, self.options.mode);
                let query = std::slice::from_ref(&plan);
                let filtered = match pipeline(self.overlay, query, self.crs, &[], self.cx) {
                    Ok(mut filtered) => {
                        Rc::new(filtered.pop().expect("one query in, one output out"))
                    }
                    Err(exceeded) => return Err(tripped(&mut self.stats, exceeded)),
                };
                count(&mut self.stats, &filtered, new.key(), self.crs, self.cx)?;
                // Held unless it ran degraded (like the answer cache, the
                // memo never serves a degraded outcome again) or the memo
                // is full.
                let size = self.memo.size + 1 + filtered.candidates.len();
                if !filtered.stats.degraded && size <= MEMO_CANDIDATES {
                    self.memo.size = size;
                    new.insert(Rc::clone(&filtered));
                }
                self.cx.lap(Stage::Memo);
                filtered
            }
        };
        for &id in &filtered.candidates {
            if self.done() {
                return Ok(());
            }
            let clause = filtered.clauses.get(id);
            // Rename the clause apart: its variables move past every slot
            // allocated so far.
            // A clause with no variables (every ground fact) is its own
            // renaming.
            let base = self.store.len() as u32;
            let clause_span = clause.var_count() as u32;
            self.store.ensure((base + clause_span) as usize);
            let head = match clause_span {
                0 => Cow::Borrowed(clause.head()),
                _ => Cow::Owned(shift_vars(clause.head(), base)),
            };
            let mark = self.store.mark();
            // Unify against the *original* goal (under the store), not the
            // compacted copy, so bindings propagate to the caller's terms.
            // Occurs check on: keeps the solver total (see the oracle).
            let descend = if unify(goal, &head, &mut self.store) {
                let body = clause.body().iter().rev();
                let next = body.fold(Rc::clone(rest), |next, goal| {
                    Rc::new(Goals::Then(shift_vars(goal, base), next))
                });
                self.dfs(&next, depth + 1)
            } else {
                Ok(())
            };
            // Bindings are rolled back even when the budget tripped
            // mid-descent — the store stays consistent for the caller.
            self.store.undo(mark);
            descend?;
        }
        Ok(())
    }

    fn record_solution(&mut self) {
        let term = self.store.resolve(&self.query);
        let bindings = self
            .var_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    name.clone(),
                    self.store.resolve(&Term::Var(VarId::new(i as u32))),
                )
            })
            .collect();
        self.solutions.push(Solution { term, bindings });
    }
}

/// The tail of a retrieval inside a solve ([`Filtered::unify`] on the goal
/// the filters ran), its statistics absorbed into the solve's.
fn count(
    stats: &mut SolveStats,
    filtered: &Filtered<'_>,
    goal: &Term,
    crs: &CrsOptions,
    cx: &mut RequestContext,
) -> Result<(), BudgetReason> {
    match filtered.unify(goal, crs, cx) {
        Ok(retrieval) => {
            stats.absorb(&retrieval);
            Ok(())
        }
        Err(exceeded) => Err(tripped(stats, exceeded)),
    }
}

/// Folds a cancelled retrieval's partial stats in before the trip
/// propagates, so the reported SolveStats cover the work actually done.
fn tripped(stats: &mut SolveStats, exceeded: BudgetExceeded) -> BudgetReason {
    if let Some(retrieval) = &exceeded.retrieval_stats {
        stats.absorb(retrieval);
    }
    exceeded.reason.unwrap_or(BudgetReason::Deadline)
}

/// Dense renumbering of a term's unbound variables from zero, in order of
/// first occurrence. The new numbers are kept in a table indexed by
/// variable id, cleared after each term, so no map is built per goal.
#[derive(Default)]
struct Renaming {
    /// New number per variable id, `u32::MAX` when not yet seen.
    numbers: Vec<u32>,
    /// The variables numbered so far, in order.
    seen: Vec<VarId>,
}

impl Renaming {
    /// `term` resolved under `store` and renumbered, in one pass.
    fn compact(&mut self, store: &BindingStore, term: &Term) -> Term {
        let compact = store.resolve_with(term, &mut |v| {
            let slot = v.index() as usize;
            if slot >= self.numbers.len() {
                self.numbers.resize(slot + 1, u32::MAX);
            }
            if self.numbers[slot] == u32::MAX {
                self.numbers[slot] = self.seen.len() as u32;
                self.seen.push(v);
            }
            Term::Var(VarId::new(self.numbers[slot]))
        });
        for v in self.seen.drain(..) {
            self.numbers[v.index() as usize] = u32::MAX;
        }
        compact
    }
}

/// Renumbers the named variables of `term` densely from zero, in order of
/// first occurrence.
pub fn compact_vars(term: &Term) -> Term {
    Renaming::default().compact(&BindingStore::new(), term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbBuilder, KbConfig};
    use clare_term::parser::{parse_term, parse_term_with_vars};
    use clare_term::{SymbolTable, TermDisplay};

    /// One goal over the bare base, under the default CRS configuration
    /// and the unlimited budget.
    fn solve_in(
        kb: &KnowledgeBase,
        query: &Term,
        var_names: &[String],
        options: &SolveOptions,
    ) -> SolveOutcome {
        let crs = CrsOptions::default();
        solve_goals(
            kb,
            None,
            std::slice::from_ref(query),
            var_names,
            options,
            &crs,
            &mut RequestContext::unlimited(),
        )
        .expect("the unlimited budget cannot trip")
    }

    fn family_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.consult(
            "family",
            "parent(tom, bob). parent(tom, liz). parent(bob, ann).
             parent(bob, pat). parent(pat, jim).
             grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
             ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
        )
        .unwrap();
        b.finish(KbConfig::default())
    }

    #[test]
    fn bindings_reported_by_name() {
        let kb = family_kb();
        let mut local = kb.symbols().clone();
        let (q, names) = parse_term_with_vars("parent(Child, ann)", &mut local).unwrap();
        let outcome = solve_in(&kb, &q, &names, &SolveOptions::default());
        assert_eq!(outcome.solutions.len(), 1);
        let (name, term) = &outcome.solutions[0].bindings[0];
        assert_eq!(name, "Child");
        assert_eq!(TermDisplay::new(term, &local).to_string(), "bob");
    }

    #[test]
    fn max_solutions_limits() {
        let kb = family_kb();
        let mut local = kb.symbols().clone();
        let (q, names) = parse_term_with_vars("parent(A, B)", &mut local).unwrap();
        let outcome = solve_in(
            &kb,
            &q,
            &names,
            &SolveOptions {
                max_solutions: 2,
                ..SolveOptions::default()
            },
        );
        assert_eq!(outcome.solutions.len(), 2);
    }

    #[test]
    fn depth_limit_cuts_infinite_recursion() {
        let mut b = KbBuilder::new();
        b.consult("m", "loop(X) :- loop(X).").unwrap();
        let (q, names) = parse_term_with_vars("loop(a)", b.symbols_mut()).unwrap();
        let kb = b.finish(KbConfig::default());
        let outcome = solve_in(
            &kb,
            &q,
            &names,
            &SolveOptions {
                max_depth: 20,
                ..SolveOptions::default()
            },
        );
        assert!(outcome.solutions.is_empty());
        assert!(outcome.stats.depth_cuts > 0);
    }

    #[test]
    fn stats_accumulate() {
        let kb = family_kb();
        let mut local = kb.symbols().clone();
        let (q, names) = parse_term_with_vars("grandparent(tom, W)", &mut local).unwrap();
        let outcome = solve_in(&kb, &q, &names, &SolveOptions::default());
        assert!(outcome.stats.retrievals >= 3); // grandparent + parent goals
        assert!(outcome.stats.clauses_unified >= 4);
        assert!(outcome.stats.retrieval_elapsed.as_ns() > 0);
    }

    #[test]
    fn compact_vars_renumbers_densely() {
        let mut sy = SymbolTable::new();
        let t = parse_term("f(X, Y, X)", &mut sy).unwrap();
        let shifted = shift_vars(&t, 1000);
        let compact = compact_vars(&shifted);
        assert_eq!(var_span(&compact), 2);
        // Dense, in order of first occurrence, with sharing preserved.
        let vars = clare_term::collect_vars(&compact);
        assert_eq!(vars, vec![VarId::new(0), VarId::new(1), VarId::new(0)]);
    }

    #[test]
    fn compact_vars_renumbers_many_variable_goals() {
        // A resolved goal can hold a long list of unbound variables.
        let n = 20_000u32;
        let order = || (0..n).chain((0..n).rev());
        let items = order().map(|i| Term::Var(VarId::new(1_000_000 - 7 * i)));
        let goal = Term::List {
            items: items.collect(),
            tail: None,
        };
        let compact = compact_vars(&goal);
        let expected: Vec<VarId> = order().map(VarId::new).collect();
        assert_eq!(clare_term::collect_vars(&compact), expected);
    }

    #[test]
    fn depth_cap_marks_outcome_and_bumps_counter() {
        // A deep-recursion KB: descent bottoms out only at the depth cap.
        let mut b = KbBuilder::new();
        b.consult("m", "down(X) :- down(X). down(X) :- up(X).")
            .unwrap();
        let (q, names) = parse_term_with_vars("down(a)", b.symbols_mut()).unwrap();
        let kb = b.finish(KbConfig::default());
        let before = clare_trace::metrics().solve_depth_cap_hits.get();
        let outcome = solve_in(
            &kb,
            &q,
            &names,
            &SolveOptions {
                max_depth: 16,
                ..SolveOptions::default()
            },
        );
        assert!(
            outcome.depth_capped(),
            "exhausting max_depth marks the outcome"
        );
        assert!(
            clare_trace::metrics().solve_depth_cap_hits.get() > before,
            "depth-cap exhaustion bumps solve.depth_cap_hits"
        );
        // A shallow query on the same KB does not cap and does not mark.
        let mut b = KbBuilder::new();
        b.consult("m", "flat(a).").unwrap();
        let (q2, names2) = parse_term_with_vars("flat(a)", b.symbols_mut()).unwrap();
        let kb2 = b.finish(KbConfig::default());
        let clean = solve_in(&kb2, &q2, &names2, &SolveOptions::default());
        assert!(!clean.depth_capped());
    }

    #[test]
    fn step_limited_solve_returns_typed_budget_error() {
        let mut b = KbBuilder::new();
        b.consult("m", "loop(X) :- loop(X).").unwrap();
        let (q, names) = parse_term_with_vars("loop(a)", b.symbols_mut()).unwrap();
        let kb = b.finish(KbConfig::default());
        let budget = crate::budget::QueryBudget {
            solve_step_limit: 8,
            ..crate::budget::QueryBudget::UNLIMITED
        };
        let mut cx = RequestContext::new(crate::CancelToken::new(&budget));
        let (options, crs) = (SolveOptions::default(), CrsOptions::default());
        let err = solve_goals(&kb, None, &[q], &names, &options, &crs, &mut cx)
            .expect_err("a runaway recursion must trip the step limit");
        assert_eq!(err.reason, Some(BudgetReason::SolveSteps));
        let stats = err
            .solve_stats
            .expect("partial stats travel with the error");
        assert!(
            stats.retrievals > 0,
            "work done before the trip is reported"
        );
    }
}
