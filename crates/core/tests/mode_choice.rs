//! The search-mode decision does not move when its inputs are compiled
//! once: `choose_mode` reads a query plan and the predicate's rule count
//! kept at build time, and must agree, query for query, with the
//! heuristic that walked every clause on every call.
//!
//! Predicates are random mixes of ground facts, open facts and rules, plus
//! the boundary rule shares 0, 1/5, 1/2 and 1. Each knowledge base is
//! checked freshly built, after a `to_builder` recompile and after a CKB2
//! save → load round trip, and a fact predicate is checked again after
//! `to_builder` recompiles assert rules into it.

use clare_core::{choose_mode, SearchMode};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase, ModuleKind};
use clare_scw::encode_query_descriptor;
use clare_term::parser::parse_term;
use clare_term::Term;
use std::collections::BTreeSet;

/// The heuristic as it stood before query plans: the rule share comes
/// from a walk over every clause of the predicate.
fn reference_choose_mode(kb: &KnowledgeBase, query: &Term) -> SearchMode {
    let Some((functor, arity)) = query.functor_arity() else {
        return SearchMode::SoftwareOnly;
    };
    let Some((module, pred)) = kb.module_of(functor, arity) else {
        return SearchMode::SoftwareOnly;
    };
    if module.kind() == ModuleKind::Small {
        return SearchMode::SoftwareOnly;
    }
    let descriptor = encode_query_descriptor(query, pred.index().config());
    let shared_vars = clare_term::visit::has_repeated_vars(query);
    if descriptor.is_unconstrained() {
        return SearchMode::Fs2Only;
    }
    let clauses = pred.clauses();
    let rule_fraction = if clauses.is_empty() {
        0.0
    } else {
        clauses.iter().filter(|c| !c.is_fact()).count() as f64 / clauses.len() as f64
    };
    if rule_fraction > 0.5 {
        return SearchMode::Fs2Only;
    }
    if query.is_ground() && rule_fraction < 0.2 && !shared_vars {
        return SearchMode::Fs1Only;
    }
    SearchMode::TwoStage
}

/// A deterministic splitmix64 stream: the cases are reproducible.
struct Cases(u64);

impl Cases {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One `p/2` clause of the given kind: 0 ground fact, 1 open fact, 2 rule.
fn clause(kind: u64, i: usize) -> String {
    match kind {
        0 => format!("p(a{}, b{}).", i % 7, i % 5),
        1 if i.is_multiple_of(2) => format!("p(a{}, X).", i % 7),
        1 => "p(X, Y).".to_owned(),
        _ => format!("p(a{}, X) :- q(X, b{}).", i % 7, i % 5),
    }
}

/// A predicate with `rules` rules among `total` clauses, the rest facts
/// (ground or open at random), shuffled by the case stream.
fn predicate_with_share(rules: usize, total: usize, cases: &mut Cases) -> String {
    let mut kinds: Vec<u64> = (0..total)
        .map(|i| if i < rules { 2 } else { cases.below(2) })
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, cases.below(i as u64 + 1) as usize);
    }
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| clause(kind, i))
        .collect::<Vec<_>>()
        .join("\n")
}

const QUERIES: [&str; 9] = [
    "p(a1, b1)",  // ground
    "p(a3, b9)",  // ground, no matching clause
    "p(a1, X)",   // non-ground
    "p(X, b2)",   // non-ground
    "p(X, X)",    // shared variable, unconstrained
    "p(f(X), X)", // shared variable, constrained
    "p(X, Y)",    // unconstrained
    "p(_, b1)",   // anonymous variable
    "r(a1)",      // predicate the base lacks
];

/// Checks every query against `kb`, returning the modes chosen.
fn agree(kb: &KnowledgeBase, label: &str) -> BTreeSet<String> {
    let mut symbols = kb.symbols().clone();
    let mut chosen = BTreeSet::new();
    for src in QUERIES {
        let query = parse_term(src, &mut symbols).unwrap();
        let mode = choose_mode(kb, &query);
        assert_eq!(
            mode,
            reference_choose_mode(kb, &query),
            "{label}: query {src}"
        );
        chosen.insert(mode.to_string());
    }
    chosen
}

/// Every module classified Large, so the heuristic reads past the
/// module-kind check even for a handful of clauses.
fn all_large() -> KbConfig {
    KbConfig {
        large_module_threshold: 0,
        ..KbConfig::default()
    }
}

fn build(source: &str, config: KbConfig) -> KnowledgeBase {
    let mut b = KbBuilder::new();
    b.consult("m", source).unwrap();
    b.consult("facts", "q(a1, b1). q(a2, b2).").unwrap();
    b.finish(config)
}

/// The same base, three ways: fresh, recompiled through `to_builder`
/// with nothing added, and saved then loaded as CKB2.
fn variants(kb: KnowledgeBase, config: &KbConfig) -> Vec<(&'static str, KnowledgeBase)> {
    let recompiled = kb.to_builder().finish(config.clone());
    let mut bytes = Vec::new();
    clare_kb::io::save(&kb, &mut bytes).unwrap();
    let loaded = clare_kb::io::load(&mut bytes.as_slice(), config.clone()).unwrap();
    vec![
        ("fresh", kb),
        ("recompiled", recompiled),
        ("loaded", loaded),
    ]
}

#[test]
fn plan_based_choice_matches_the_clause_walk() {
    let mut cases = Cases(0x00c1_a4e0);
    let mut seen = BTreeSet::new();
    // (rules, total): the four boundary shares first, then random mixes.
    let mut shares = vec![(0, 10), (1, 5), (2, 10), (1, 2), (5, 10), (7, 7)];
    shares.extend((0..40).map(|_| {
        let total = 1 + cases.below(24) as usize;
        (cases.below(total as u64 + 1) as usize, total)
    }));
    for (rules, total) in shares {
        let source = predicate_with_share(rules, total, &mut cases);
        for config in [all_large(), KbConfig::default()] {
            for (how, kb) in variants(build(&source, config.clone()), &config) {
                let label = format!("{rules}/{total} rules, {how}");
                seen.extend(agree(&kb, &label));
            }
        }
    }
    // The cases reach every mode, so agreement is not vacuous.
    assert_eq!(seen.len(), SearchMode::ALL.len(), "modes reached: {seen:?}");
}

#[test]
fn boundary_shares_keep_their_side() {
    let mut cases = Cases(7);
    let ground = |kb: &KnowledgeBase| {
        let query = parse_term("p(a1, b1)", &mut kb.symbols().clone()).unwrap();
        choose_mode(kb, &query)
    };
    // A share of exactly 1/2 is not rule-intensive (`> 1/2`), and exactly
    // 1/5 is not fact-intensive (`< 1/5`): both run both stages.
    for (rules, total, want) in [
        (0, 10, SearchMode::Fs1Only),
        (1, 6, SearchMode::Fs1Only),
        (1, 5, SearchMode::TwoStage),
        (2, 10, SearchMode::TwoStage),
        (1, 2, SearchMode::TwoStage),
        (5, 10, SearchMode::TwoStage),
        (6, 11, SearchMode::Fs2Only),
        (4, 4, SearchMode::Fs2Only),
    ] {
        let kb = build(&predicate_with_share(rules, total, &mut cases), all_large());
        assert_eq!(ground(&kb), want, "{rules}/{total} rules");
    }
}

#[test]
fn asserting_rules_into_a_fact_predicate_moves_the_choice() {
    let config = all_large();
    let facts: String = (0..8).map(|i| clause(0, i)).collect::<Vec<_>>().join("\n");
    let kb = build(&facts, config.clone());
    let mut symbols = kb.symbols().clone();
    let query = parse_term("p(a1, b1)", &mut symbols).unwrap();
    assert_eq!(choose_mode(&kb, &query), SearchMode::Fs1Only);
    let mut kb = kb;
    // 8 facts + 2 rules = 1/5, then + 7 more = 9/17 > 1/2: the recompiled
    // predicate's rule count follows every step.
    for (added, want) in [(2, SearchMode::TwoStage), (7, SearchMode::Fs2Only)] {
        let mut builder = kb.to_builder();
        let rules: String = (0..added)
            .map(|i| clause(2, i))
            .collect::<Vec<_>>()
            .join("\n");
        builder.consult("m", &rules).unwrap();
        kb = builder.finish(config.clone());
        assert_eq!(choose_mode(&kb, &query), want, "after {added} more rules");
        agree(&kb, "after asserting rules");
    }
}
