//! `crs.query_compiles` counts query plans: one per retrieval that runs the
//! filters, none per answer-cache hit, one per distinct goal of a solve,
//! none per call of the public `choose_mode`. Each test reads its own
//! requests' counts from their stage records.

use clare_core::{
    solve_goals, CancelToken, ClauseRetrievalServer, CrsOptions, ModeChoice, RequestContext,
    RequestCounts, SearchMode, SolveOptions,
};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::{parse_term, parse_term_with_vars};

/// A context that keeps its request's counts.
fn recording() -> RequestContext {
    RequestContext::recording(CancelToken::unlimited())
}

fn counts(cx: &RequestContext) -> &RequestCounts {
    cx.stage_record().expect("a recording context").counts()
}

#[test]
fn a_cold_server_compiles_once_per_answer_cache_miss() {
    let mut b = KbBuilder::new();
    let facts: Vec<String> = (0..400).map(|i| format!("p(k{i}, v{}).", i % 9)).collect();
    b.consult("m", &facts.join("\n")).unwrap();
    let mut symbols = b.symbols_mut().clone();
    let queries: Vec<_> = (0..12)
        .map(|i| parse_term(&format!("p(k{}, X)", i * 31), &mut symbols).unwrap())
        .collect();
    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
    // FS2 alone, so the FS1 layer of the cache is never consulted and
    // every compile counted is an answer-layer miss.
    let mode = SearchMode::Fs2Only;
    let (mut cold, mut warm) = (recording(), recording());
    // The cache's counters stay process-wide; no other test here serves.
    let misses = clare_trace::metrics().cache_misses.get();
    let retrieve = |query, cx: &mut RequestContext| {
        let query = std::slice::from_ref(query);
        server.retrieve_batch(query, mode, cx).unwrap()
    };
    let first: Vec<_> = queries.iter().map(|q| retrieve(q, &mut cold)).collect();
    let again: Vec<_> = queries.iter().map(|q| retrieve(q, &mut warm)).collect();
    assert_eq!(again, first, "the repeats are served from the cache");
    let compiled = counts(&cold).crs_query_compiles;
    assert_eq!(compiled, queries.len() as u64, "one compile per cold query");
    assert_eq!(compiled, clare_trace::metrics().cache_misses.get() - misses);
    assert_eq!(counts(&cold).fs2_sweeps, compiled, "every cold query swept");
    assert_eq!(
        counts(&warm),
        &RequestCounts::default(),
        "hits compile nothing"
    );
}

#[test]
fn a_solve_compiles_once_per_distinct_goal() {
    let mut b = KbBuilder::new();
    b.consult(
        "family",
        "parent(tom, bob). parent(tom, liz). parent(bob, ann).
         parent(bob, pat). parent(pat, jim).
         grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
         ancestor(X, Y) :- parent(X, Y).
         ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
    )
    .unwrap();
    let (goal, names) = parse_term_with_vars("ancestor(tom, W)", b.symbols_mut()).unwrap();
    let kb = b.finish(KbConfig::default());
    for mode in [ModeChoice::Auto, ModeChoice::Fixed(SearchMode::TwoStage)] {
        let options = SolveOptions {
            mode,
            ..SolveOptions::default()
        };
        let mut cx = recording();
        let outcome = solve_goals(
            &kb,
            None,
            std::slice::from_ref(&goal),
            &names,
            &options,
            &CrsOptions::default(),
            &mut cx,
        )
        .unwrap();
        assert_eq!(outcome.solutions.len(), 5, "{mode:?}");
        // Six ancestor/2 calls, each expanding into its own call and the
        // two parent(P, _) goals of its clauses: 18 retrievals of 12
        // distinct goals, as the two parent goals compact alike.
        assert_eq!(outcome.stats.retrievals, 18, "{mode:?}");
        let counts = counts(&cx);
        assert_eq!(counts.crs_query_compiles, 12, "{mode:?}: one plan per goal");
        assert_eq!(
            counts.solve_repeat_retrievals, 6,
            "{mode:?}: the rest repeat"
        );
    }
    // The public mode choice compiles a throwaway plan, not a retrieval's:
    // it takes no context, so it has nothing to count into.
    assert_eq!(
        clare_core::choose_mode(&kb, &goal),
        SearchMode::SoftwareOnly
    );
}
