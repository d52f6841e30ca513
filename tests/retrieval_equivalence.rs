//! The request matrix: however a retrieval is asked for, it is the same
//! retrieval.
//!
//! There is one pipeline. A query may reach it alone or inside a
//! mixed-predicate batch, under the unlimited token or a budget it never
//! exhausts, over the bare base or with an overlay that does not touch
//! its predicate, in any of the four modes — and every one of those must
//! return the identical [`Retrieval`]: same candidates, same
//! statistics, and therefore the same modelled `fs1_time`, `fs2_time`,
//! `disk_time` and `elapsed`. These tests pin that down over random
//! knowledge bases and queries, together with the filters' one contract:
//! no false negatives.

use clare::core::{retrieve_merged, Overlay, QueryBudget};
use clare::prelude::*;
use clare_workload::{RandomTermSpec, RandomTerms};
use proptest::prelude::*;

/// A random knowledge base of two predicates — `rt/3` heads from the term
/// generator, plus plain `other/2` facts — and queries against both:
/// some drawn from the stored heads (so they have answers), one fresh
/// head (so it may not), and one the hardware cannot encode (so it falls
/// back to software inside whatever request carries it).
fn random_kb(seed: u64, facts: usize) -> (KnowledgeBase, Vec<Term>) {
    let mut builder = KbBuilder::new();
    let mut gen_symbols = SymbolTable::new();
    let mut gen = RandomTerms::new(RandomTermSpec::default(), &mut gen_symbols, seed);
    let mut heads = Vec::new();
    for i in 0..facts {
        let head = gen.head();
        let rendered = format!("{}.", TermDisplay::new(&head, &gen_symbols));
        builder.consult("m", &rendered).unwrap();
        builder
            .consult("o", &format!("other(k{}, v{}).", i % 17, i % 5))
            .unwrap();
        heads.push(rendered);
    }
    let mut sources: Vec<String> = heads
        .iter()
        .step_by(29)
        .map(|src| src.trim_end_matches('.').to_owned())
        .collect();
    let fresh = gen.head();
    sources.push(TermDisplay::new(&fresh, &gen_symbols).to_string());
    sources.extend(["other(k3, V)", "other(K, v4)", "other(99999999999, V)"].map(String::from));
    let queries = sources
        .iter()
        .map(|src| parse_term(src, builder.symbols_mut()).unwrap())
        .collect();
    (builder.finish(KbConfig::default()), queries)
}

/// A budget no request in this file comes near.
fn generous() -> CancelToken {
    CancelToken::new(&QueryBudget {
        deadline_micros: 60_000_000,
        solve_step_limit: 1 << 40,
        candidate_limit: 1 << 40,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched (unlimited or generously budgeted) or alone × no overlay,
    /// an empty one, or one with a delta on another predicate × the four
    /// modes: always exactly what the plain [`retrieve`] returns.
    #[test]
    fn every_request_shape_returns_the_same_retrieval(seed in any::<u64>()) {
        let (kb, queries) = random_kb(seed, 100);
        let opts = CrsOptions::default();
        let empty = Overlay::new(kb.symbols().clone());
        let mut elsewhere = empty.clone();
        let assert = WalOp::Assert { module: "s".into(), source: "side(a). side(b).".into() };
        elsewhere.apply(1, &assert, &kb).unwrap();
        let overlays = [None, Some(&empty), Some(&elsewhere)];
        let all: Vec<&Term> = queries.iter().collect();
        for mode in SearchMode::ALL {
            let reference: Vec<Retrieval> =
                queries.iter().map(|q| retrieve(&kb, q, mode, &opts)).collect();
            // `RandomTerms` heads carry variable and complex first
            // arguments, so both sides of the kernel's prefilter run.
            for overlay in overlays {
                for budgeted in [false, true] {
                    let token = if budgeted { generous() } else { CancelToken::unlimited() };
                    let shape = format!(
                        "mode = {mode}, overlay ops = {:?}, budgeted = {budgeted}",
                        overlay.map(Overlay::len)
                    );
                    let batch = retrieve_batch(&kb, overlay, &all, mode, &opts, &mut RequestContext::new(token));
                    prop_assert_eq!(batch.as_ref(), Ok(&reference), "batched, {}", shape);
                }
                if let Some(overlay) = overlay {
                    for (q, want) in queries.iter().zip(&reference) {
                        let alone = retrieve_merged(&kb, overlay, q, mode, &opts);
                        prop_assert_eq!(&alone, want, "alone, mode = {}, overlay ops = {}", mode, overlay.len());
                    }
                }
            }
        }
    }

    /// No false negatives in any mode: every clause that fully unifies
    /// with the query is among the candidates.
    #[test]
    fn no_mode_has_false_negatives(seed in any::<u64>()) {
        let (kb, queries) = random_kb(seed, 80);
        for q in &queries {
            let Some((f, a)) = q.functor_arity() else { continue };
            let Some(pred) = kb.predicate(f, a) else { continue };
            let answers: Vec<u32> = pred
                .clauses()
                .iter()
                .enumerate()
                .filter(|(_, c)| unify_query_clause(q, c.head()).is_some())
                .map(|(i, _)| i as u32)
                .collect();
            for mode in SearchMode::ALL {
                let r = retrieve(&kb, q, mode, &CrsOptions::default());
                let candidates: std::collections::BTreeSet<u32> =
                    r.candidates.iter().map(|id| id.index()).collect();
                for id in &answers {
                    prop_assert!(candidates.contains(id), "clause {} lost in mode {}", id, mode);
                }
            }
        }
    }
}
