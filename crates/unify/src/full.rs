//! Full unification — the soundness oracle for every filter stage.
//!
//! This is the "complicated process of matching functor and arguments
//! according to certain rules" that the paper's introduction identifies as
//! the query-time bottleneck, implemented conventionally with a binding
//! store and trail. The retrieval engine's contract is defined against this
//! module: any clause accepted here must also be accepted by FS1 and FS2.

use crate::store::{shift_vars, var_span, BindingStore};
use clare_term::{Term, VarId};
use std::borrow::Cow;

/// Unifies `a` and `b` in a shared variable scope, extending `store`.
///
/// On failure the store is rolled back to its state at entry, so callers can
/// try alternatives without explicit trail management.
///
/// Anonymous variables unify with anything and bind nothing. The occurs
/// check is always on: a binding that would build a cyclic term fails, as
/// with `unify_with_occurs_check/2` (the paper's hardware filters never
/// bind, so only this host-side oracle needs it).
pub fn unify(a: &Term, b: &Term, store: &mut BindingStore) -> bool {
    let mark = store.mark();
    if unify_inner(a, b, store) {
        true
    } else {
        store.undo(mark);
        false
    }
}

/// `term` with its binding chain followed, as [`BindingStore::walk`] does.
/// A bound variable's representative lives in the store, which the
/// unifier goes on to extend, so it is cloned out; any other term is
/// borrowed as it is.
fn walked<'t>(store: &BindingStore, term: &'t Term) -> Cow<'t, Term> {
    match term {
        Term::Var(v) if store.lookup(*v).is_some() => Cow::Owned(store.walk(term).clone()),
        _ => Cow::Borrowed(term),
    }
}

fn unify_inner(a: &Term, b: &Term, store: &mut BindingStore) -> bool {
    // Anonymous variables are "don't care" on either side.
    if matches!(a, Term::Anon) || matches!(b, Term::Anon) {
        return true;
    }
    let (wa, wb) = (walked(store, a), walked(store, b));
    match (&*wa, &*wb) {
        (Term::Anon, _) | (_, Term::Anon) => true,
        (Term::Var(va), Term::Var(vb)) => {
            if va != vb {
                store.bind(*va, Term::Var(*vb));
            }
            true
        }
        (Term::Var(v), other) | (other, Term::Var(v)) => {
            bind_checked(*v, Cow::Borrowed(other), store)
        }
        (Term::Atom(x), Term::Atom(y)) => x == y,
        (Term::Int(x), Term::Int(y)) => x == y,
        (Term::Float(x), Term::Float(y)) => x == y,
        (
            Term::Struct {
                functor: fa,
                args: aa,
            },
            Term::Struct {
                functor: fb,
                args: ab,
            },
        ) => {
            fa == fb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| unify_inner(x, y, store))
        }
        (
            Term::List {
                items: ia,
                tail: ta,
            },
            Term::List {
                items: ib,
                tail: tb,
            },
        ) => {
            let (a, b) = (ListView::of(ia, ta), ListView::of(ib, tb));
            unify_lists(a, b, store)
        }
        _ => false,
    }
}

/// Binds the unbound variable `v` to `term`, unless `term` contains `v`.
/// A borrowed `term` is copied only here, for the binding it makes.
fn bind_checked(v: VarId, term: Cow<'_, Term>, store: &mut BindingStore) -> bool {
    if store.occurs(v, &term) {
        return false;
    }
    store.bind(v, term.into_owned());
    true
}

/// A list's items from some point on, and its tail: what is left of a
/// list term once a prefix of its items has been unified.
#[derive(Clone, Copy)]
struct ListView<'t> {
    items: &'t [Term],
    tail: Option<&'t Term>,
}

impl<'t> ListView<'t> {
    fn of(items: &'t [Term], tail: &'t Option<Box<Term>>) -> Self {
        ListView {
            items,
            tail: tail.as_deref(),
        }
    }

    /// The list term this view stands for.
    fn to_term(self) -> Term {
        Term::List {
            items: self.items.to_vec(),
            tail: self.tail.map(|t| Box::new(t.clone())),
        }
    }
}

/// Unifies two lists, handling unterminated tails on either side.
fn unify_lists(a: ListView<'_>, b: ListView<'_>, store: &mut BindingStore) -> bool {
    let common = a.items.len().min(b.items.len());
    for (x, y) in a.items[..common].iter().zip(&b.items[..common]) {
        if !unify_inner(x, y, store) {
            return false;
        }
    }
    // The longer side's remainder must unify with the shorter side's tail.
    let rest_a = ListView {
        items: &a.items[common..],
        ..a
    };
    let rest_b = ListView {
        items: &b.items[common..],
        ..b
    };
    if !rest_a.items.is_empty() {
        // b's items are exhausted: b's tail must absorb a's remainder.
        return match b.tail {
            Some(t) => unify_with_list(t, rest_a, store),
            None => false,
        };
    }
    if !rest_b.items.is_empty() {
        return match a.tail {
            Some(t) => unify_with_list(t, rest_b, store),
            None => false,
        };
    }
    // Items exhausted on both sides: unify the tails (absent tail = nil).
    match (a.tail, b.tail) {
        (None, None) => true,
        (Some(t), None) => unify_inner(t, &Term::nil(), store),
        (None, Some(t)) => unify_inner(&Term::nil(), t, store),
        (Some(x), Some(y)) => unify_inner(x, y, store),
    }
}

/// Unifies the tail `t` with the non-empty list `rest`, exactly as
/// [`unify_inner`] would with `rest` built as a term — which is built only
/// when a variable gets bound to it.
fn unify_with_list(t: &Term, rest: ListView<'_>, store: &mut BindingStore) -> bool {
    if matches!(t, Term::Anon) {
        return true;
    }
    match &*walked(store, t) {
        Term::Anon => true,
        Term::Var(v) => bind_checked(*v, Cow::Owned(rest.to_term()), store),
        Term::List { items, tail } => unify_lists(ListView::of(items, tail), rest, store),
        _ => false,
    }
}

/// Unifies a query term against a clause head, renaming the clause's
/// variables out of the query's range first.
///
/// Returns the binding store on success (query variables occupy ids
/// `0..var_span(query)`), or `None` if the terms do not unify. This is the
/// exact test the paper's system applies to every clause that survives the
/// hardware filters.
///
/// The occurs check is **on**: a unification that would build a cyclic
/// term fails (as with `unify_with_occurs_check/2`), which keeps the
/// oracle total on arbitrary inputs. A filter may still accept such pairs
/// — that is a false drop, never a false negative.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_term};
/// use clare_unify::unify_query_clause;
///
/// let mut sy = SymbolTable::new();
/// let q = parse_term("parent(tom, Who)", &mut sy)?;
/// let c = parse_term("parent(tom, bob)", &mut sy)?;
/// let store = unify_query_clause(&q, &c).expect("unifies");
/// let answer = store.resolve(&q);
/// assert_eq!(answer, parse_term("parent(tom, bob)", &mut sy)?);
/// # Ok::<(), clare_term::parser::ParseError>(())
/// ```
pub fn unify_query_clause(query: &Term, clause_head: &Term) -> Option<BindingStore> {
    let offset = var_span(query);
    let renamed = shift_vars(clause_head, offset);
    let mut store = BindingStore::with_capacity((offset + var_span(&renamed)) as usize);
    if unify(query, &renamed, &mut store) {
        Some(store)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn unifies(q: &str, c: &str) -> bool {
        let mut sy = SymbolTable::new();
        let qt = parse_term(q, &mut sy).unwrap();
        let ct = parse_term(c, &mut sy).unwrap();
        unify_query_clause(&qt, &ct).is_some()
    }

    #[test]
    fn ground_equality() {
        assert!(unifies("f(a, 1, 2.5)", "f(a, 1, 2.5)"));
        assert!(!unifies("f(a)", "f(b)"));
        assert!(!unifies("f(1)", "f(2)"));
        assert!(!unifies("f(1)", "f(1.0)"), "int and float are distinct");
        assert!(!unifies("f(a)", "g(a)"));
        assert!(!unifies("f(a)", "f(a, b)"));
    }

    #[test]
    fn variables_bind_both_directions() {
        assert!(unifies("f(X)", "f(a)"));
        assert!(unifies("f(a)", "f(Y)"));
        assert!(unifies("f(X)", "f(Y)"));
    }

    #[test]
    fn shared_query_variable_consistency() {
        assert!(unifies("married_couple(S, S)", "married_couple(sue, sue)"));
        assert!(!unifies("married_couple(S, S)", "married_couple(ann, bob)"));
    }

    #[test]
    fn shared_clause_variable_consistency() {
        // f(X, a, b) vs f(A, a, A): A=X, A=b -> X=b; unifies.
        assert!(unifies("f(X, a, b)", "f(A, a, A)"));
        // f(a, b) vs f(A, A): A=a then A=b fails.
        assert!(!unifies("f(a, b)", "f(A, A)"));
    }

    #[test]
    fn cross_binding_chains() {
        // Query X bound to clause var A, then A constrained.
        assert!(unifies("f(X, X)", "f(A, b)"));
        assert!(unifies("f(X, Y, X, Y)", "f(A, A, c, c)"));
        assert!(!unifies("f(X, Y, X, Y)", "f(A, A, c, d)"));
    }

    #[test]
    fn nested_structures() {
        assert!(unifies("f(g(X), X)", "f(g(h(1)), h(1))"));
        assert!(!unifies("f(g(X), X)", "f(g(h(1)), h(2))"));
    }

    #[test]
    fn anonymous_matches_anything_without_binding() {
        assert!(unifies("f(_, _)", "f(a, b)"));
        assert!(unifies("f(_, _)", "f(A, A)"));
        // Each _ is independent: no consistency forced.
        assert!(unifies("f(_, _)", "f(a, g(b))"));
    }

    #[test]
    fn proper_lists() {
        assert!(unifies("[a, b, c]", "[a, b, c]"));
        assert!(!unifies("[a, b]", "[a, b, c]"));
        assert!(unifies("[X, b]", "[a, b]"));
        assert!(!unifies("[a]", "[b]"));
        assert!(unifies("[]", "[]"));
        assert!(!unifies("[]", "[a]"));
    }

    #[test]
    fn partial_lists() {
        assert!(unifies("[a | T]", "[a, b, c]"));
        assert!(unifies("[a, b, c]", "[a | T]"));
        assert!(unifies("[a | T]", "[a]")); // T = []
        assert!(!unifies("[a, b | T]", "[a]")); // not enough elements
        assert!(unifies("[H | T]", "[a, b]"));
        assert!(unifies("[a | T1]", "[H | T2]"));
    }

    #[test]
    fn partial_list_tail_binding_resolves() {
        let mut sy = SymbolTable::new();
        let q = parse_term("[a | T]", &mut sy).unwrap();
        let c = parse_term("[a, b, c]", &mut sy).unwrap();
        let store = unify_query_clause(&q, &c).unwrap();
        assert_eq!(store.resolve(&q), parse_term("[a, b, c]", &mut sy).unwrap());
    }

    #[test]
    fn list_never_unifies_with_struct_or_atom() {
        assert!(!unifies("[a]", "f(a)"));
        assert!(!unifies("[]", "nil"));
    }

    #[test]
    fn occurs_check_is_on() {
        let mut sy = SymbolTable::new();
        let x = parse_term("X", &mut sy).unwrap();
        let fx = parse_term("f(X)", &mut sy).unwrap();
        let mut store = BindingStore::with_capacity(1);
        assert!(!unify(&x, &fx, &mut store));
    }

    #[test]
    fn failure_rolls_back_bindings() {
        let mut sy = SymbolTable::new();
        let a = parse_term("f(X, a)", &mut sy).unwrap();
        let b = parse_term("f(q, b)", &mut sy).unwrap();
        let mut store = BindingStore::with_capacity(1);
        assert!(!unify(&a, &b, &mut store));
        assert!(
            store.lookup(clare_term::VarId::new(0)).is_none(),
            "X binding rolled back on failure"
        );
    }

    #[test]
    fn answer_substitution_projection() {
        let mut sy = SymbolTable::new();
        let q = parse_term("parent(P, bob)", &mut sy).unwrap();
        let c = parse_term("parent(tom, bob)", &mut sy).unwrap();
        let store = unify_query_clause(&q, &c).unwrap();
        assert_eq!(
            store.resolve(&q),
            parse_term("parent(tom, bob)", &mut sy).unwrap()
        );
    }

    #[test]
    fn symmetric_success() {
        let cases = [
            ("f(X, g(a))", "f(b, Y)"),
            ("[a | T]", "[a, b]"),
            ("h(Q, Q)", "h(c, c)"),
        ];
        for (l, r) in cases {
            assert_eq!(unifies(l, r), unifies(r, l), "symmetry for {l} vs {r}");
        }
    }
}
