//! The unifier against a clone-per-node reference.
//!
//! `reference` below is the straightforward formulation of the unifier:
//! it clones both walked terms at every node and builds each list
//! remainder as a term before unifying it. The production unifier borrows
//! the terms it walks and copies only what a binding stores; on random
//! pairs over shared variables — bound-variable chains into compounds,
//! open and closed lists, anonymous variables, occurs-check failures — the
//! two must agree on the verdict, leave identical stores on success (so
//! `resolve` gives the same answer for both sides), and leave the store
//! untouched on failure.

use clare_term::{Symbol, Term, VarId};
use clare_unify::full::unify;
use clare_unify::BindingStore;
use proptest::prelude::*;

/// The clone-per-node unifier, with the occurs check on or off (off only
/// to count the pairs the check turns into failures).
mod reference {
    use super::*;

    pub fn unify(a: &Term, b: &Term, store: &mut BindingStore, occurs_check: bool) -> bool {
        let mark = store.mark();
        if unify_inner(a, b, store, occurs_check) {
            true
        } else {
            store.undo(mark);
            false
        }
    }

    fn unify_inner(a: &Term, b: &Term, store: &mut BindingStore, occurs_check: bool) -> bool {
        if matches!(a, Term::Anon) || matches!(b, Term::Anon) {
            return true;
        }
        let wa = store.walk(a).clone();
        let wb = store.walk(b).clone();
        match (&wa, &wb) {
            (Term::Anon, _) | (_, Term::Anon) => true,
            (Term::Var(va), Term::Var(vb)) => {
                if va != vb {
                    store.bind(*va, wb.clone());
                }
                true
            }
            (Term::Var(v), other) | (other, Term::Var(v)) => {
                if occurs_check && store.occurs(*v, other) {
                    return false;
                }
                store.bind(*v, other.clone());
                true
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
                    && aa
                        .iter()
                        .zip(ab)
                        .all(|(x, y)| unify_inner(x, y, store, occurs_check))
            }
            (Term::List { .. }, Term::List { .. }) => unify_lists(&wa, &wb, store, occurs_check),
            _ => false,
        }
    }

    fn unify_lists(a: &Term, b: &Term, store: &mut BindingStore, occurs_check: bool) -> bool {
        let (
            Term::List {
                items: ia,
                tail: ta,
            },
            Term::List {
                items: ib,
                tail: tb,
            },
        ) = (a, b)
        else {
            unreachable!("unify_lists called on non-lists");
        };
        let common = ia.len().min(ib.len());
        for (x, y) in ia[..common].iter().zip(&ib[..common]) {
            if !unify_inner(x, y, store, occurs_check) {
                return false;
            }
        }
        let leftover_a = &ia[common..];
        let leftover_b = &ib[common..];
        if !leftover_a.is_empty() {
            let rest_a = Term::List {
                items: leftover_a.to_vec(),
                tail: ta.clone(),
            };
            return match tb {
                Some(t) => unify_inner(t, &rest_a, store, occurs_check),
                None => false,
            };
        }
        if !leftover_b.is_empty() {
            let rest_b = Term::List {
                items: leftover_b.to_vec(),
                tail: tb.clone(),
            };
            return match ta {
                Some(t) => unify_inner(t, &rest_b, store, occurs_check),
                None => false,
            };
        }
        match (ta, tb) {
            (None, None) => true,
            (Some(t), None) => unify_inner(t, &Term::nil(), store, occurs_check),
            (None, Some(t)) => unify_inner(&Term::nil(), t, store, occurs_check),
            (Some(x), Some(y)) => unify_inner(x, y, store, occurs_check),
        }
    }
}

/// Variables `0..VARS`, shared by both sides and the pre-bindings.
const VARS: u32 = 5;

/// Terms over a small vocabulary, so that pairs often unify.
fn term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|k| Term::Atom(Symbol::from_offset(k))),
        (0i64..3).prop_map(Term::Int),
        (0..VARS).prop_map(|v| Term::Var(VarId::new(v))),
        (0..VARS).prop_map(|v| Term::Var(VarId::new(v))),
        Just(Term::Anon),
        Just(Term::nil()),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (0u32..2, prop::collection::vec(inner.clone(), 1..3)).prop_map(|(f, args)| {
                Term::Struct {
                    functor: Symbol::from_offset(10 + f),
                    args,
                }
            }),
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| Term::List { items, tail: None }),
            (prop::collection::vec(inner.clone(), 1..3), inner).prop_map(|(items, tail)| {
                Term::List {
                    items,
                    tail: Some(Box::new(tail)),
                }
            }),
        ]
    })
}

/// A store holding those of `binds` that keep it acyclic, in order:
/// chains of variables, and variables bound into compounds that hold
/// further bound variables.
fn store_with(binds: &[(u32, Term)]) -> BindingStore {
    let mut store = BindingStore::with_capacity(VARS as usize);
    for (v, t) in binds {
        let v = VarId::new(*v);
        let anon = matches!(t, Term::Anon);
        if !anon && store.lookup(v).is_none() && !store.occurs(v, t) {
            store.bind(v, t.clone());
        }
    }
    store
}

/// Every variable's one-step binding.
fn bindings(store: &BindingStore) -> Vec<Option<Term>> {
    (0..store.len() as u32)
        .map(|v| store.lookup(VarId::new(v)).cloned())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn unify_agrees_with_the_clone_per_node_reference(
        a in term(),
        b in term(),
        binds in prop::collection::vec((0..VARS, term()), 0..4),
    ) {
        let before = store_with(&binds);
        let (mut got, mut want) = (before.clone(), before.clone());
        let verdict = unify(&a, &b, &mut got);
        prop_assert_eq!(verdict, reference::unify(&a, &b, &mut want, true), "{:?} = {:?}", a, b);
        if verdict {
            prop_assert_eq!(bindings(&got), bindings(&want));
            prop_assert_eq!(got.resolve(&a), want.resolve(&a));
            prop_assert_eq!(got.resolve(&b), want.resolve(&b));
        } else {
            prop_assert_eq!(bindings(&got), bindings(&before), "failure leaves the store as it was");
            prop_assert_eq!(got.mark(), before.mark());
        }
    }
}

/// The generator reaches every case the property is about.
#[test]
fn the_generator_covers_the_interesting_pairs() {
    let mut rng = proptest::TestRng::from_name("unifier reference coverage");
    let pairs = (
        term(),
        term(),
        prop::collection::vec((0..VARS, term()), 0..4),
    );
    let (mut chains, mut open_lists, mut occurs_failures, mut anon, mut unified) = (0, 0, 0, 0, 0);
    for _ in 0..2048 {
        let (a, b, binds) = pairs.sample(&mut rng);
        let store = store_with(&binds);
        chains += usize::from(bindings(&store).iter().flatten().any(|t| {
            matches!(t, Term::Struct { .. } | Term::List { .. })
                && !clare_term::collect_vars(t).is_empty()
        }));
        let open = |t: &Term| matches!(t, Term::List { tail: Some(_), .. });
        open_lists += usize::from(open(&a) || open(&b));
        anon += usize::from(format!("{a:?}{b:?}").contains("Anon"));
        let checked = unify(&a, &b, &mut store.clone());
        let unchecked = reference::unify(&a, &b, &mut store.clone(), false);
        occurs_failures += usize::from(unchecked && !checked);
        unified += usize::from(checked);
    }
    for (what, n) in [
        ("bindings into compounds with variables", chains),
        ("open lists", open_lists),
        ("occurs-check failures", occurs_failures),
        ("anonymous variables", anon),
        ("successes", unified),
    ] {
        assert!(n >= 20, "{what}: {n} of 2048");
    }
}
