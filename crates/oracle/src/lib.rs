//! The reference model every retrieval and solve configuration of the
//! engine is checked against.
//!
//! The engine's one contract is the paper's: FS1 and FS2 are superset
//! filters, so full unification over the live knowledge base alone decides
//! the answer. This crate is that knowledge base with no filter at all, in
//! the textbook shape of pylog's `Program.clauses_for` and Prolog2's
//! `Database.findClauses`: per-predicate clause lists in live program
//! order, the answers of a query by full unification with each live head,
//! and naive SLD resolution, depth-first and left to right. It has no
//! index, cache, overlay or thread, depends on `clare-term` and
//! `clare-unify` alone, and parses source into its own symbol namespace, so
//! it shares nothing with the engine but the text. It is test support:
//! only `[dev-dependencies]` name it.
//!
//! # Examples
//!
//! ```
//! use clare_oracle::Oracle;
//! use clare_term::parser::{parse_goals, parse_term};
//! use clare_term::TermDisplay;
//!
//! let mut oracle = Oracle::new();
//! oracle.assert("edge(a, b). edge(b, c). edge(b, d). path(X, Y) :- edge(X, Y).");
//! oracle.assert("path(X, Z) :- edge(X, Y), path(Y, Z).");
//! assert!(oracle.retract("edge(b, d).")); // the first live structural match
//! assert!(!oracle.retract("path(A, B) :- edge(B, A).")); // none is live
//!
//! let query = parse_term("path(a, W)", oracle.symbols_mut()).unwrap();
//! assert_eq!(oracle.answers(&query).len(), 2); // both rule heads unify
//! let (goals, _) = parse_goals("path(a, W)", oracle.symbols_mut()).unwrap();
//! let solutions: Vec<String> = oracle
//!     .solve(&goals)
//!     .iter()
//!     .map(|s| TermDisplay::new(&s[0], oracle.symbols()).to_string())
//!     .collect();
//! assert_eq!(solutions, ["path(a, b)", "path(a, c)"]); // depth first
//! ```

#![warn(missing_docs)]

use clare_term::parser::parse_program;
use clare_term::{Clause, Symbol, SymbolTable, Term};
use clare_unify::store::var_span;
use clare_unify::{shift_vars, unify, unify_query_clause, BindingStore};
use std::collections::HashMap;

/// The deepest derivation [`Oracle::solve`] follows, one level per
/// resolved goal. Deeper is a runaway program, and the oracle panics
/// rather than return a truncated answer.
pub const MAX_DEPTH: usize = 128;

/// A Prolog database of live clauses, in program order per predicate.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    symbols: SymbolTable,
    preds: HashMap<(Symbol, usize), Vec<Clause>>,
}

impl Oracle {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The namespace the database's source was parsed into.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The namespace to parse queries against.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Appends every clause of `source` to its predicate, in order. Panics
    /// on source that does not parse.
    pub fn assert(&mut self, source: &str) {
        for clause in parse(source, &mut self.symbols) {
            self.preds
                .entry(clause.predicate())
                .or_default()
                .push(clause);
        }
    }

    /// Removes the first live clause structurally equal to the one clause
    /// of `source` (variables compare by position, not name); `false`, and
    /// no change, when none is live. Panics on source that does not parse
    /// or holds other than one clause.
    pub fn retract(&mut self, source: &str) -> bool {
        let [target] = &parse(source, &mut self.symbols)[..] else {
            panic!("retract takes exactly one clause: {source:?}");
        };
        let clauses = self.preds.entry(target.predicate()).or_default();
        let same = |c: &Clause| c.head() == target.head() && c.body() == target.body();
        let found = clauses.iter().position(same);
        found.map(|i| clauses.remove(i)).is_some()
    }

    /// The live clauses of `functor/arity`, in program order.
    pub fn clauses(&self, functor: Symbol, arity: usize) -> &[Clause] {
        self.preds.get(&(functor, arity)).map_or(&[], Vec::as_slice)
    }

    /// The live clauses whose head fully unifies with `query`, in program
    /// order: what a retrieval in any mode must hand on as its answers.
    pub fn answers(&self, query: &Term) -> Vec<&Clause> {
        let Some((functor, arity)) = query.functor_arity() else {
            return Vec::new();
        };
        let clauses = self.clauses(functor, arity).iter();
        clauses
            .filter(|c| unify_query_clause(query, c.head()).is_some())
            .collect()
    }

    /// Every solution of the conjunction `goals`, in Prolog order: for
    /// each, the goals with the solution's bindings applied. Panics when a
    /// derivation grows deeper than [`MAX_DEPTH`].
    pub fn solve(&self, goals: &[Term]) -> Vec<Vec<Term>> {
        let span = goals.iter().map(var_span).max().unwrap_or(0);
        let mut store = BindingStore::with_capacity(span as usize);
        let mut solutions = Vec::new();
        let mut emit = |store: &BindingStore| {
            solutions.push(goals.iter().map(|g| store.resolve(g)).collect());
        };
        self.resolve(goals.to_vec(), 0, &mut store, &mut emit);
        solutions
    }

    fn resolve(
        &self,
        goals: Vec<Term>,
        depth: usize,
        store: &mut BindingStore,
        emit: &mut dyn FnMut(&BindingStore),
    ) {
        let Some((goal, rest)) = goals.split_first() else {
            return emit(store);
        };
        assert!(depth < MAX_DEPTH, "derivation deeper than {MAX_DEPTH}");
        let Some((functor, arity)) = store.walk(goal).functor_arity() else {
            return;
        };
        for clause in self.clauses(functor, arity) {
            // Rename the clause apart: its variables start past every slot
            // in use.
            let base = store.len() as u32;
            store.ensure(base as usize + clause.var_count());
            let mark = store.mark();
            if unify(goal, &shift_vars(clause.head(), base), store) {
                let body = clause.body().iter().map(|g| shift_vars(g, base));
                let next = body.chain(rest.iter().cloned()).collect();
                self.resolve(next, depth + 1, store, emit);
            }
            store.undo(mark);
        }
    }
}

fn parse(source: &str, symbols: &mut SymbolTable) -> Vec<Clause> {
    parse_program(source, symbols).unwrap_or_else(|e| panic!("{e}: {source:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_goals;

    #[test]
    #[should_panic(expected = "derivation deeper than")]
    fn a_runaway_derivation_panics() {
        let mut oracle = Oracle::new();
        oracle.assert("loop(X) :- loop(X).");
        let (goals, _) = parse_goals("loop(a)", oracle.symbols_mut()).unwrap();
        oracle.solve(&goals);
    }
}
