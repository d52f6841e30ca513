//! Property tests for the unification laws.

use clare_term::parser::parse_term;
use clare_term::SymbolTable;
use clare_unify::full::unify;
use clare_unify::partial::{match_at_all_levels, partial_match, PartialConfig};
use clare_unify::store::{shift_vars, var_span, BindingStore};
use clare_unify::unify_query_clause;
use proptest::prelude::*;

/// Source strategy for clause-head-shaped terms over a small vocabulary
/// (small = collisions = interesting unifications).
fn head_source() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(str::to_owned),
        (0i64..4).prop_map(|v| v.to_string()),
        prop_oneof![Just("X"), Just("Y"), Just("Z")].prop_map(str::to_owned),
        Just("_".to_owned()),
    ];
    let term = leaf.prop_recursive(2, 12, 3, |inner| {
        let args = prop::collection::vec(inner.clone(), 1..3);
        prop_oneof![
            ("[fg]", args.clone()).prop_map(|(f, a)| format!("{f}({})", a.join(", "))),
            prop::collection::vec(inner.clone(), 0..3)
                .prop_map(|items| format!("[{}]", items.join(", "))),
            (
                prop::collection::vec(inner, 1..3),
                prop_oneof![Just("X"), Just("T")]
            )
                .prop_map(|(items, t)| format!("[{} | {t}]", items.join(", "))),
        ]
    });
    prop::collection::vec(term, 1..4).prop_map(|args| format!("p({})", args.join(", ")))
}

fn parse_pair(q: &str, c: &str) -> (clare_term::Term, clare_term::Term) {
    let mut symbols = SymbolTable::new();
    let qt = parse_term(q, &mut symbols).unwrap();
    let ct = parse_term(c, &mut symbols).unwrap();
    (qt, ct)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Success is symmetric: q unifies with c iff c unifies with q.
    #[test]
    fn unification_is_symmetric(q in head_source(), c in head_source()) {
        let (qt, ct) = parse_pair(&q, &c);
        prop_assert_eq!(
            unify_query_clause(&qt, &ct).is_some(),
            unify_query_clause(&ct, &qt).is_some(),
            "{} vs {}", q, c
        );
    }

    /// A term always unifies with itself (its variables simply co-bind).
    #[test]
    fn unification_is_reflexive(q in head_source()) {
        let (qt, qt2) = parse_pair(&q, &q);
        prop_assert!(unify_query_clause(&qt, &qt2).is_some(), "{}", q);
    }

    /// The resolved query after a successful unification unifies with the
    /// clause again (stability of the answer substitution).
    #[test]
    fn answers_are_stable(q in head_source(), c in head_source()) {
        let (qt, ct) = parse_pair(&q, &c);
        if let Some(store) = unify_query_clause(&qt, &ct) {
            let answer = store.resolve(&qt);
            prop_assert!(
                unify_query_clause(&answer, &ct).is_some(),
                "answer {:?} no longer unifies", answer
            );
        }
    }

    /// Failure leaves no bindings behind (the trail rolls back).
    #[test]
    fn failure_rolls_back(q in head_source(), c in head_source()) {
        let (qt, ct) = parse_pair(&q, &c);
        let offset = var_span(&qt);
        let renamed = shift_vars(&ct, offset);
        let mut store = BindingStore::with_capacity((offset + var_span(&renamed)) as usize);
        if !unify(&qt, &renamed, &mut store) {
            for i in 0..store.len() {
                prop_assert!(
                    store.lookup(clare_term::VarId::new(i as u32)).is_none(),
                    "binding survived failed unification"
                );
            }
        }
    }

    /// The level ladder is monotone and FS2 config sits between L3 and
    /// the oracle.
    #[test]
    fn level_ladder(q in head_source(), c in head_source()) {
        let (qt, ct) = parse_pair(&q, &c);
        let ladder = match_at_all_levels(&qt, &ct);
        for w in ladder.windows(2) {
            prop_assert!(w[0] || !w[1], "ladder not monotone: {:?}", ladder);
        }
        let fs2 = partial_match(&qt, &ct, PartialConfig::fs2()).matched;
        let full = unify_query_clause(&qt, &ct).is_some();
        // Completeness: full ⊆ fs2 ⊆ L3.
        prop_assert!(!full || fs2);
        prop_assert!(!fs2 || ladder[2], "fs2 accepts only within L3");
    }

    /// The op trace never mixes store/fetch families incorrectly: a
    /// variable's first effective touch is a store, so per side the number
    /// of stores never exceeds the number of distinct variables.
    #[test]
    fn op_trace_counts_are_plausible(q in head_source(), c in head_source()) {
        use clare_unify::partial::PartialOp;
        let (qt, ct) = parse_pair(&q, &c);
        let report = partial_match(&qt, &ct, PartialConfig::fs2());
        let hist = report.op_histogram();
        let q_vars = var_span(&qt) as usize;
        let c_vars = var_span(&ct) as usize;
        let idx = |op: PartialOp| PartialOp::ALL.iter().position(|o| *o == op).unwrap();
        prop_assert!(hist[idx(PartialOp::QueryStore)] <= q_vars + c_vars);
        prop_assert!(hist[idx(PartialOp::DbStore)] <= q_vars + c_vars);
    }
}
