//! Cached-equals-uncached equivalence: a [`ClauseRetrievalServer`] with
//! the cache enabled must return, for every query, the byte-identical
//! [`Retrieval`] a fresh uncached pipeline run produces on the current
//! snapshot — across random interleavings of retrievals, incremental
//! update transactions, full knowledge-base swaps, and mode changes.
//!
//! The reference is `clare_core::retrieve` on `server.snapshot()`, which
//! never consults the server cache. Any unsound cache entry — stale
//! epoch, module-layout shift, mode mix-up, renaming collision — shows
//! up as an equality failure here.

use clare_core::{
    retrieve_merged, solve_goals, BudgetReason, CancelToken, ClauseRetrievalServer,
    CompactionOutcome, CrsOptions, QueryBudget, Retrieval, SearchMode, SolveOptions,
};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::{parse_term, parse_term_with_vars};
use clare_term::Term;
use proptest::prelude::*;

/// Deterministic xorshift64* stream, seeded per test for reproducibility.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Shadow state: the clause text of each module, from which both the
/// server's updates and the from-scratch rebuilds are derived.
struct Shadow {
    modules: Vec<(&'static str, Vec<String>)>,
}

impl Shadow {
    fn rebuild(&self, symbols: &clare_term::SymbolTable) -> clare_kb::KnowledgeBase {
        let mut b = KbBuilder::new();
        *b.symbols_mut() = symbols.clone();
        for (name, facts) in &self.modules {
            b.consult(name, &facts.join("\n")).unwrap();
        }
        b.finish(KbConfig::default())
    }
}

#[test]
fn cached_retrievals_match_uncached_across_interleavings() {
    let mut shadow = Shadow {
        modules: vec![
            // p/2 and r/1 share module "ma": module-granular invalidation
            // must catch cross-predicate effects of consulting either.
            (
                "ma",
                (0..200)
                    .map(|i| format!("p(k{}, v{}).", i % 30, i % 5))
                    .chain((0..60).map(|i| format!("r(k{}).", i % 20)))
                    .collect(),
            ),
            (
                "mb",
                (0..200)
                    .map(|i| format!("q(k{}, v{}).", i % 30, i % 5))
                    .collect(),
            ),
        ],
    };

    let mut b = KbBuilder::new();
    for (name, facts) in &shadow.modules {
        b.consult(name, &facts.join("\n")).unwrap();
    }
    let mut symbols = b.symbols_mut().clone();
    let queries: Vec<Term> = [
        "p(k7, X)",
        "p(k7, v2)",
        "p(K, v3)",
        "q(k7, X)",
        "q(K, v1)",
        "r(k11)",
        "r(X)",
        "p(X, Y)",
    ]
    .iter()
    .map(|q| parse_term(q, &mut symbols).unwrap())
    .collect();

    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
    let mut rng = Rng(0x9E3779B97F4A7C15);
    let mut fresh = 0u32; // uniquifier for consulted facts

    for step in 0..400 {
        match rng.below(10) {
            // Mostly retrievals, repeating from a small query pool so the
            // cache gets real hits to prove equal.
            0..=6 => {
                let query = &queries[rng.below(queries.len() as u64) as usize];
                let mode = SearchMode::ALL[rng.below(4) as usize];
                let got = server.retrieve(query, mode);
                let want = reference(&server, query, mode);
                assert_eq!(got, want, "step {step}: cached != uncached");
            }
            // Batches exercise the coalesced path and its per-member cache.
            7 => {
                let batch: Vec<Term> = (0..3)
                    .map(|_| queries[rng.below(queries.len() as u64) as usize].clone())
                    .collect();
                let mode = SearchMode::ALL[rng.below(4) as usize];
                let got = server
                    .retrieve_batch(&batch, mode, &CancelToken::unlimited())
                    .unwrap();
                for (i, (query, outcome)) in batch.iter().zip(&got).enumerate() {
                    let want = reference(&server, query, mode);
                    assert_eq!(*outcome, want, "step {step} member {i}");
                }
            }
            // Incremental assert: consult one new fact through a
            // transaction (bumps only the touched module's predicates).
            8 => {
                let (module, fact) = if rng.below(2) == 0 {
                    ("ma", format!("p(new{fresh}, v0)."))
                } else {
                    ("mb", format!("q(new{fresh}, v0)."))
                };
                fresh += 1;
                let slot = shadow.modules.iter_mut().find(|(n, _)| *n == module);
                slot.unwrap().1.push(fact.clone());
                let mut tx = server.begin_update();
                tx.consult(module, &fact).unwrap();
                symbols = tx.symbols_mut().clone();
                tx.commit().unwrap();
            }
            // Full swap: rebuild everything from the shadow (a
            // non-incremental update, which must invalidate globally).
            _ => {
                server.update(shadow.rebuild(&symbols));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Budget-cancelled retrievals leave no trace in the cache. Across a
    /// random interleaving of tripped attempts, unlimited retrievals,
    /// and incremental asserts, two things must hold:
    ///
    /// 1. A tripped attempt never *populates* the cache. Cache hits are
    ///    deliberately budget-exempt (a hit costs nothing), so the probe
    ///    is direct: re-running the identical query under the identical
    ///    one-candidate budget must trip again — if the cancelled pass
    ///    had inserted its partial answer, the re-run would come back as
    ///    a budget-exempt hit instead of the typed error.
    /// 2. A tripped attempt never *corrupts* later answers. Every
    ///    unlimited retrieval — cached or not, before or after any
    ///    number of trips on the same key — is byte-identical to a fresh
    ///    uncached pipeline run on the current snapshot.
    #[test]
    fn tripped_budgets_never_populate_nor_corrupt_the_cache(
        ops in prop::collection::vec((0usize..8, 0usize..4, any::<bool>()), 1..40),
    ) {
        let mut b = KbBuilder::new();
        let facts: String = (0..200)
            .map(|i| format!("p(k{}, v{}).\n", i % 30, i % 5))
            .chain((0..60).map(|i| format!("r(k{}).\n", i % 20)))
            .collect();
        b.consult("ma", &facts).unwrap();
        let mut symbols = b.symbols_mut().clone();
        let queries: Vec<Term> = [
            "p(k7, X)",
            "p(k7, v2)",
            "p(K, v3)",
            "r(k11)",
            "r(X)",
            "p(X, Y)",
            "p(k2, X)",
            "r(k3)",
        ]
        .iter()
        .map(|q| parse_term(q, &mut symbols).unwrap())
        .collect();
        let server =
            ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
        // One candidate is below every pool query's match count, so an
        // uncached budgeted attempt always trips.
        let tiny = QueryBudget {
            deadline_micros: 0,
            solve_step_limit: 0,
            candidate_limit: 1,
        };
        let mut fresh = 0u32;

        for (step, &(qi, mi, budgeted)) in ops.iter().enumerate() {
            let query = &queries[qi];
            let mode = SearchMode::ALL[mi];
            if budgeted {
                let alone = std::slice::from_ref(query);
                match server.retrieve_batch(alone, mode, &CancelToken::new(&tiny)) {
                    Err(e) => {
                        prop_assert_eq!(
                            e.reason,
                            Some(BudgetReason::Candidates),
                            "step {}: wrong trip reason",
                            step
                        );
                        // Invariant 1: the trip must not have cached the
                        // abandoned pass — an identical re-run still trips.
                        prop_assert!(
                            server
                                .retrieve_batch(alone, mode, &CancelToken::new(&tiny))
                                .is_err(),
                            "step {}: a tripped retrieval populated the cache \
                             (identical re-run was served as a budget-exempt hit)",
                            step
                        );
                    }
                    // A budget-exempt hit of a previously *completed*
                    // answer: legal, and it must still be the truth.
                    Ok(got) => prop_assert_eq!(
                        got,
                        vec![reference(&server, query, mode)],
                        "step {}: cached hit under budget diverged",
                        step
                    ),
                }
            }
            // Invariant 2: the unlimited path is correct no matter what
            // the cancelled attempts did before it.
            prop_assert_eq!(
                server.retrieve(query, mode),
                reference(&server, query, mode),
                "step {}: answer after budget trips diverged from uncached reference",
                step
            );
            // Occasionally shift the epoch under the cache so trips land
            // on both fresh and invalidated entries.
            if qi == 7 && budgeted {
                let fact = format!("p(new{fresh}, v0).");
                fresh += 1;
                let mut tx = server.begin_update();
                tx.consult("ma", &fact).unwrap();
                tx.commit().unwrap();
            }
        }
    }
}

/// The uncached answer for `query` on the server's current snapshot
/// pair: the same base-plus-overlay merge the serving path performs, but
/// run fresh through the pipeline, never through the server cache.
fn reference(server: &ClauseRetrievalServer, query: &Term, mode: SearchMode) -> Retrieval {
    let (base, overlay) = server.snapshot_merged();
    retrieve_merged(&base, &overlay, query, mode, &CrsOptions::default())
}

/// Overlay soundness, property-tested: across random interleavings of
/// incremental asserts, retracts, compactions, wholesale swaps, and
/// retrievals, the *merged* (base + memtable overlay) answers must be
/// identical to those of a knowledge base rebuilt from scratch out of a
/// shadow text state — same unified counts in every search mode, and
/// byte-identical solve solutions. This is the no-false-negative
/// invariant end to end: overlay clauses have no codewords, so the
/// filters must pass them unconditionally, and retracted base clauses
/// must never resurface (not even right after a compaction folds the
/// overlay down).
#[test]
fn overlay_merged_answers_match_from_scratch_rebuild() {
    let fact_pool: Vec<(&'static str, String)> = (0..24)
        .map(|i| ("ma", format!("p(k{}, v{}).", i % 8, i % 3)))
        .chain((0..16).map(|i| ("mb", format!("q(k{}).", i % 6))))
        .collect();

    let mut shadow = Shadow {
        modules: vec![
            (
                "ma",
                (0..60)
                    .map(|i| format!("p(k{}, v{}).", i % 8, i % 3))
                    .collect(),
            ),
            ("mb", (0..40).map(|i| format!("q(k{}).", i % 6)).collect()),
        ],
    };

    let mut b = KbBuilder::new();
    for (name, facts) in &shadow.modules {
        b.consult(name, &facts.join("\n")).unwrap();
    }
    let mut symbols = b.symbols_mut().clone();
    let queries: Vec<(Term, Vec<String>)> = [
        "p(k3, X)",
        "p(K, v1)",
        "p(X, Y)",
        "p(k5, v2)",
        "q(k2)",
        "q(X)",
    ]
    .iter()
    .map(|q| parse_term_with_vars(q, &mut symbols).unwrap())
    .collect();

    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
    let mut rng = Rng(0xD1B54A32D192ED03);

    for step in 0..250 {
        match rng.below(12) {
            // Retrieval equivalence: every mode's unified count matches a
            // from-scratch rebuild of the shadow state.
            0..=5 => {
                let (query, _) = &queries[rng.below(queries.len() as u64) as usize];
                let mode = SearchMode::ALL[rng.below(4) as usize];
                let rebuilt = shadow.rebuild(&symbols);
                let want = clare_core::retrieve(&rebuilt, query, mode, &CrsOptions::default());
                let got = server.retrieve(query, mode);
                assert_eq!(
                    got.stats.unified, want.stats.unified,
                    "step {step}: merged answer set diverged from rebuild in {mode}"
                );
            }
            // Solve equivalence: the solutions — terms and named bindings
            // — are byte-identical against the rebuild, in order.
            6 => {
                let (query, names) = &queries[rng.below(queries.len() as u64) as usize];
                let rebuilt = shadow.rebuild(&symbols);
                let want = solve_goals(
                    &rebuilt,
                    None,
                    std::slice::from_ref(query),
                    names,
                    &SolveOptions::default(),
                    &CrsOptions::default(),
                    &CancelToken::unlimited(),
                )
                .unwrap();
                let got = server.solve(query, names, &SolveOptions::default());
                assert_eq!(
                    got.solutions, want.solutions,
                    "step {step}: merged solutions diverged from rebuild"
                );
            }
            // Assert one pool fact through a transaction.
            7 | 8 => {
                let (module, fact) = &fact_pool[rng.below(fact_pool.len() as u64) as usize];
                let slot = shadow.modules.iter_mut().find(|(n, _)| n == module);
                slot.unwrap().1.push(fact.clone());
                let mut tx = server.begin_update();
                tx.consult(module, fact).unwrap();
                tx.commit().unwrap();
            }
            // Retract the first structural match of a pool fact (a quiet
            // no-op on both sides when none is live).
            9 | 10 => {
                let (module, fact) = &fact_pool[rng.below(fact_pool.len() as u64) as usize];
                let slot = shadow.modules.iter_mut().find(|(n, _)| n == module);
                let facts = &mut slot.unwrap().1;
                if let Some(pos) = facts.iter().position(|f| f == fact) {
                    facts.remove(pos);
                }
                let mut tx = server.begin_update();
                tx.retract(module, fact).unwrap();
                tx.commit().unwrap();
            }
            // Fold the overlay into a fresh base; the shadow doesn't
            // change, so subsequent comparisons prove the fold lossless.
            _ => {
                let outcome = server.compact_now();
                assert!(
                    !matches!(outcome, CompactionOutcome::Failed),
                    "step {step}: compaction must not fail"
                );
            }
        }
    }
    // Final fold, then one more full sweep: post-compaction state is the
    // shadow state exactly.
    server.compact_now();
    let rebuilt = shadow.rebuild(&symbols);
    for (query, names) in &queries {
        for mode in SearchMode::ALL {
            assert_eq!(
                server.retrieve(query, mode).stats.unified,
                clare_core::retrieve(&rebuilt, query, mode, &CrsOptions::default())
                    .stats
                    .unified,
                "post-compaction divergence in {mode}"
            );
        }
        assert_eq!(
            server
                .solve(query, names, &SolveOptions::default())
                .solutions,
            solve_goals(
                &rebuilt,
                None,
                std::slice::from_ref(query),
                names,
                &SolveOptions::default(),
                &CrsOptions::default(),
                &CancelToken::unlimited(),
            )
            .unwrap()
            .solutions,
        );
    }
}
