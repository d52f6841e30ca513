//! A budget-cancelled retrieval leaves no trace in the retrieval cache.
//!
//! That cached answers equal uncached ones across commits, compactions and
//! swaps is one cell family of the contract harness (`tests/contract.rs`,
//! cache on, in process, served and routed); this file keeps what no cell
//! covers: the interplay of budget trips with the cache.

use clare_core::{
    retrieve_merged, BudgetReason, CancelToken, ClauseRetrievalServer, CrsOptions, QueryBudget,
    RequestContext, SearchMode,
};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::parse_term;
use clare_term::Term;
use proptest::prelude::*;

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
            // The uncached answer on the current snapshot pair, run fresh
            // through the pipeline, never through the server cache.
            let (base, overlay) = server.snapshot_merged();
            let uncached = retrieve_merged(&base, &overlay, query, mode, &CrsOptions::default());
            if budgeted {
                let alone = std::slice::from_ref(query);
                match server.retrieve_batch(alone, mode, &mut RequestContext::new(CancelToken::new(&tiny))) {
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
                                .retrieve_batch(alone, mode, &mut RequestContext::new(CancelToken::new(&tiny)))
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
                        vec![uncached.clone()],
                        "step {}: cached hit under budget diverged",
                        step
                    ),
                }
            }
            // Invariant 2: the unlimited path is correct no matter what
            // the cancelled attempts did before it.
            prop_assert_eq!(
                server.retrieve(query, mode),
                uncached,
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
