//! Ergonomic programmatic term construction.
//!
//! Workload generators build millions of synthetic facts; going through the
//! parser for each would dominate generation time. [`TermBuilder`] wraps a
//! `&mut SymbolTable` and offers short constructors.
//!
//! # Examples
//!
//! ```
//! use clare_term::{builder::TermBuilder, SymbolTable};
//!
//! let mut symbols = SymbolTable::new();
//! let mut b = TermBuilder::new(&mut symbols);
//! let args = vec![b.int(3), b.int(4)];
//! let t = b.structure("point", args);
//! assert_eq!(t.arity(), 2);
//! ```

use crate::symbol::SymbolTable;
use crate::term::{Clause, Term, VarId};

/// Builder over a borrowed [`SymbolTable`].
#[derive(Debug)]
pub struct TermBuilder<'st> {
    symbols: &'st mut SymbolTable,
    next_var: u32,
}

impl<'st> TermBuilder<'st> {
    /// Creates a builder interning into `symbols`.
    pub fn new(symbols: &'st mut SymbolTable) -> Self {
        TermBuilder {
            symbols,
            next_var: 0,
        }
    }

    /// An atom term, interning its name.
    pub fn atom(&mut self, name: &str) -> Term {
        Term::Atom(self.symbols.intern_atom(name))
    }

    /// An integer term.
    pub fn int(&self, value: i64) -> Term {
        Term::Int(value)
    }

    /// A float term, interning its value.
    pub fn float(&mut self, value: f64) -> Term {
        Term::Float(self.symbols.intern_float(value))
    }

    /// A fresh variable, numbered sequentially from 0 per builder.
    pub fn fresh_var(&mut self) -> Term {
        let v = Term::Var(VarId::new(self.next_var));
        self.next_var += 1;
        v
    }

    /// A variable with an explicit id (for sharing between positions).
    pub fn var(&self, id: u32) -> Term {
        Term::Var(VarId::new(id))
    }

    /// The anonymous variable `_`.
    pub fn anon(&self) -> Term {
        Term::Anon
    }

    /// A structure `name(args...)`.
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty; a zero-arity compound is an atom.
    pub fn structure(&mut self, name: &str, args: Vec<Term>) -> Term {
        assert!(!args.is_empty(), "zero-arity structure is an atom");
        Term::Struct {
            functor: self.symbols.intern_atom(name),
            args,
        }
    }

    /// A terminated list `[items...]`.
    pub fn list(&self, items: Vec<Term>) -> Term {
        Term::List { items, tail: None }
    }

    /// An unterminated list `[items... | tail]`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty: `[| T]` is not a list.
    pub fn partial_list(&self, items: Vec<Term>, tail: Term) -> Term {
        assert!(!items.is_empty(), "a partial list needs at least one item");
        Term::List {
            items,
            tail: Some(Box::new(tail)),
        }
    }

    /// A ground fact clause with head `name(args...)`.
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty (use an atom head via [`Clause::new`]).
    pub fn fact(&mut self, name: &str, args: Vec<Term>) -> Clause {
        let head = self.structure(name, args);
        let n = self.next_var as usize;
        Clause::new(head, Vec::new(), synthesized_names(n)).expect("structure head is callable")
    }

    /// A rule clause `head :- body`, capturing all variables allocated so
    /// far by this builder into the clause's name table.
    ///
    /// # Errors
    ///
    /// Returns an error if `head` is not callable.
    pub fn rule(
        &mut self,
        head: Term,
        body: Vec<Term>,
    ) -> Result<Clause, crate::term::InvalidClauseError> {
        Clause::new(head, body, synthesized_names(self.next_var as usize))
    }

    /// Resets the fresh-variable counter (start a new clause scope).
    pub fn reset_vars(&mut self) {
        self.next_var = 0;
    }

    /// Number of fresh variables allocated since the last reset.
    pub fn var_count(&self) -> u32 {
        self.next_var
    }
}

fn synthesized_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("_G{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_terms() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        let one = b.int(1);
        let inner = b.structure("g", vec![one]);
        let a = b.atom("a");
        let t = b.structure("f", vec![inner, a]);
        assert_eq!(t.arity(), 2);
        assert!(t.is_ground());
    }

    #[test]
    fn fresh_vars_are_distinct_and_shared_vars_equal() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        let v0 = b.fresh_var();
        let v1 = b.fresh_var();
        assert_ne!(v0, v1);
        assert_eq!(b.var(0), v0);
    }

    #[test]
    fn fact_builds_ground_clause_with_names() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        let args = vec![b.atom("tom"), b.atom("bob")];
        let c = b.fact("parent", args);
        assert!(c.is_ground_fact());
        assert_eq!(c.predicate().1, 2);
    }

    #[test]
    fn rule_captures_var_scope() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        let x = b.fresh_var();
        let y = b.fresh_var();
        let head = b.structure("p", vec![x.clone(), y.clone()]);
        let goal = b.structure("q", vec![y, x]);
        let c = b.rule(head, vec![goal]).unwrap();
        assert_eq!(c.var_count(), 2);
        assert!(!c.is_fact());
    }

    #[test]
    fn reset_vars_starts_fresh_scope() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        b.fresh_var();
        b.reset_vars();
        assert_eq!(b.var_count(), 0);
        assert_eq!(b.fresh_var(), Term::Var(VarId::new(0)));
    }

    #[test]
    #[should_panic(expected = "zero-arity")]
    fn zero_arity_structure_panics() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        b.structure("f", vec![]);
    }

    #[test]
    fn partial_list_shape() {
        let mut st = SymbolTable::new();
        let mut b = TermBuilder::new(&mut st);
        let tail = b.fresh_var();
        let l = b.partial_list(vec![b.int(1), b.int(2)], tail);
        assert!(l.is_partial_list());
        assert_eq!(l.arity(), 2);
    }
}
