//! Variable binding store with a backtracking trail.
//!
//! All variables live in a single global numbering. To unify a query against
//! a stored clause, the clause's variables are first shifted past the
//! query's with [`shift_vars`] — the software analogue of the WAM-style
//! renaming the paper's Prolog-X system performs when it activates a clause.

use clare_term::{Term, VarId};

/// A growable store of variable bindings, indexed by [`VarId`].
///
/// Bindings may chain (a variable bound to another variable); [`walk`]
/// follows chains to the representative. A [`mark`]/[`undo`] trail supports
/// backtracking in the resolution engine.
///
/// [`walk`]: BindingStore::walk
/// [`mark`]: BindingStore::mark
/// [`undo`]: BindingStore::undo
///
/// # Examples
///
/// ```
/// use clare_term::{Term, VarId};
/// use clare_unify::BindingStore;
///
/// let mut store = BindingStore::with_capacity(2);
/// store.bind(VarId::new(0), Term::Int(7));
/// assert_eq!(store.resolve(&Term::Var(VarId::new(0))), Term::Int(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BindingStore {
    slots: Vec<Option<Term>>,
    trail: Vec<VarId>,
}

impl BindingStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store with `n` unbound slots.
    pub fn with_capacity(n: usize) -> Self {
        BindingStore {
            slots: vec![None; n],
            trail: Vec::new(),
        }
    }

    /// Ensures slots `0..n` exist.
    pub fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, None);
        }
    }

    /// Number of slots currently allocated.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Allocates a fresh unbound variable and returns its id.
    pub fn fresh(&mut self) -> VarId {
        let id = VarId::new(self.slots.len() as u32);
        self.slots.push(None);
        id
    }

    /// The binding of `v`, if any (one step, no chain following).
    pub fn lookup(&self, v: VarId) -> Option<&Term> {
        self.slots.get(v.index() as usize).and_then(Option::as_ref)
    }

    /// Binds `v` to `term`, recording the binding on the trail.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already bound — rebinding without undoing is always
    /// a logic error in the unifier.
    pub fn bind(&mut self, v: VarId, term: Term) {
        self.ensure(v.index() as usize + 1);
        let slot = &mut self.slots[v.index() as usize];
        assert!(slot.is_none(), "variable {v} is already bound");
        *slot = Some(term);
        self.trail.push(v);
    }

    /// Follows binding chains from `term` until an unbound variable or a
    /// non-variable term is reached.
    ///
    /// Returns `term` itself if it is not a bound variable.
    pub fn walk<'a>(&'a self, term: &'a Term) -> &'a Term {
        let mut current = term;
        let mut steps = 0usize;
        while let Term::Var(v) = current {
            match self.lookup(*v) {
                Some(next) => current = next,
                None => break,
            }
            steps += 1;
            assert!(
                steps <= self.slots.len(),
                "binding chain cycle — bindings must be acyclic"
            );
        }
        current
    }

    /// Deep substitution: replaces every bound variable in `term` by its
    /// (recursively resolved) binding. Unbound variables stay as they are.
    pub fn resolve(&self, term: &Term) -> Term {
        self.resolve_with(term, &mut Term::Var)
    }

    /// [`resolve`](Self::resolve), with each unbound variable `v` it meets
    /// replaced by `unbound(v)`, in order of occurrence: a renaming folded
    /// into the same pass.
    pub fn resolve_with(&self, term: &Term, unbound: &mut impl FnMut(VarId) -> Term) -> Term {
        let walked = self.walk(term);
        match walked {
            Term::Var(v) => unbound(*v),
            Term::Struct { functor, args } => Term::Struct {
                functor: *functor,
                args: args.iter().map(|a| self.resolve_with(a, unbound)).collect(),
            },
            Term::List { items, tail } => {
                let items: Vec<Term> = items
                    .iter()
                    .map(|i| self.resolve_with(i, unbound))
                    .collect();
                match tail {
                    None => Term::List { items, tail: None },
                    Some(t) => {
                        let resolved_tail = self.resolve_with(t, unbound);
                        // Normalise: if the tail resolved to a list, splice it.
                        if let Term::List {
                            items: tail_items,
                            tail: tail_tail,
                        } = resolved_tail
                        {
                            let mut all = items;
                            all.extend(tail_items);
                            Term::List {
                                items: all,
                                tail: tail_tail,
                            }
                        } else {
                            Term::List {
                                items,
                                tail: Some(Box::new(resolved_tail)),
                            }
                        }
                    }
                }
            }
            other => other.clone(),
        }
    }

    /// True if the (resolved) term contains variable `v` — the occurs check.
    pub fn occurs(&self, v: VarId, term: &Term) -> bool {
        let walked = self.walk(term);
        match walked {
            Term::Var(w) => *w == v,
            Term::Struct { args, .. } => args.iter().any(|a| self.occurs(v, a)),
            Term::List { items, tail } => {
                items.iter().any(|i| self.occurs(v, i))
                    || tail.as_deref().is_some_and(|t| self.occurs(v, t))
            }
            _ => false,
        }
    }

    /// Returns a trail mark; pass it to [`undo`](Self::undo) to roll back.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbinds every variable bound since `mark`.
    pub fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail length checked");
            self.slots[v.index() as usize] = None;
        }
    }
}

/// Returns `term` with every named variable id shifted up by `offset`.
///
/// Used to move a clause's variables into a disjoint range from the query's
/// before unification. Anonymous variables are untouched (they never bind).
pub fn shift_vars(term: &Term, offset: u32) -> Term {
    match term {
        Term::Var(v) => Term::Var(VarId::new(v.index() + offset)),
        Term::Struct { functor, args } => Term::Struct {
            functor: *functor,
            args: args.iter().map(|a| shift_vars(a, offset)).collect(),
        },
        Term::List { items, tail } => Term::List {
            items: items.iter().map(|i| shift_vars(i, offset)).collect(),
            tail: tail.as_deref().map(|t| Box::new(shift_vars(t, offset))),
        },
        other => other.clone(),
    }
}

/// Largest named-variable index in `term` plus one (0 if none) — the size of
/// the variable scope the term needs.
pub fn var_span(term: &Term) -> u32 {
    match term {
        Term::Var(v) => v.index() + 1,
        _ => term.children().map(var_span).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    #[test]
    fn bind_walk_resolve() {
        let mut s = BindingStore::with_capacity(3);
        // v0 -> v1 -> 42
        s.bind(VarId::new(0), Term::Var(VarId::new(1)));
        s.bind(VarId::new(1), Term::Int(42));
        assert_eq!(s.walk(&Term::Var(VarId::new(0))), &Term::Int(42));
        assert_eq!(s.resolve(&Term::Var(VarId::new(0))), Term::Int(42));
        // v2 unbound walks to itself
        assert_eq!(s.walk(&Term::Var(VarId::new(2))), &Term::Var(VarId::new(2)));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn rebinding_panics() {
        let mut s = BindingStore::with_capacity(1);
        s.bind(VarId::new(0), Term::Int(1));
        s.bind(VarId::new(0), Term::Int(2));
    }

    #[test]
    fn trail_undo_restores_unbound() {
        let mut s = BindingStore::with_capacity(2);
        s.bind(VarId::new(0), Term::Int(1));
        let m = s.mark();
        s.bind(VarId::new(1), Term::Int(2));
        s.undo(m);
        assert!(s.lookup(VarId::new(1)).is_none());
        assert_eq!(s.lookup(VarId::new(0)), Some(&Term::Int(1)));
    }

    #[test]
    fn resolve_splices_list_tails() {
        let mut sy = SymbolTable::new();
        let mut s = BindingStore::with_capacity(1);
        let partial = parse_term("[a, b | T]", &mut sy).unwrap();
        let rest = parse_term("[c, d]", &mut sy).unwrap();
        s.bind(VarId::new(0), rest);
        let resolved = s.resolve(&partial);
        let expected = parse_term("[a, b, c, d]", &mut sy).unwrap();
        assert_eq!(resolved, expected);
    }

    #[test]
    fn occurs_check_detects_nesting() {
        let mut sy = SymbolTable::new();
        let s = BindingStore::with_capacity(2);
        let t = parse_term("f(g(X), Y)", &mut sy).unwrap();
        assert!(s.occurs(VarId::new(0), &t));
        assert!(s.occurs(VarId::new(1), &t));
        assert!(!s.occurs(VarId::new(2), &t));
    }

    #[test]
    fn occurs_check_through_bindings() {
        let mut sy = SymbolTable::new();
        let mut s = BindingStore::with_capacity(2);
        let g_of_v1 = parse_term("g(B)", &mut sy).unwrap(); // B = var 0 in this term's scope
        s.bind(VarId::new(1), shift_vars(&g_of_v1, 0)); // v1 -> g(v0)
        assert!(s.occurs(VarId::new(0), &Term::Var(VarId::new(1))));
    }

    #[test]
    fn shift_vars_offsets_named_only() {
        let mut sy = SymbolTable::new();
        let t = parse_term("f(X, _, g(Y))", &mut sy).unwrap();
        let shifted = shift_vars(&t, 10);
        let vars = clare_term::collect_vars(&shifted);
        assert_eq!(
            vars,
            vec![VarId::new(10), VarId::new(11)],
            "named vars shifted, anon untouched"
        );
    }

    #[test]
    fn var_span_counts_scope() {
        let mut sy = SymbolTable::new();
        assert_eq!(var_span(&parse_term("f(a)", &mut sy).unwrap()), 0);
        assert_eq!(var_span(&parse_term("f(X, Y, X)", &mut sy).unwrap()), 2);
    }

    #[test]
    fn fresh_allocates_sequentially() {
        let mut s = BindingStore::with_capacity(2);
        assert_eq!(s.fresh(), VarId::new(2));
        assert_eq!(s.fresh(), VarId::new(3));
        assert_eq!(s.len(), 4);
    }
}
