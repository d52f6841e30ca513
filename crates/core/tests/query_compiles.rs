//! `crs.query_compiles` counts query plans: one per retrieval that runs the
//! filters, none per answer-cache hit, one per distinct goal of a solve,
//! none per call of the public `choose_mode`.
//!
//! The trace registry is process-wide, so the tests in this binary hold
//! one lock while they read counter deltas.

use clare_core::{
    solve_goals, ClauseRetrievalServer, CrsOptions, ModeChoice, RequestContext, SearchMode,
    SolveOptions,
};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::{parse_term, parse_term_with_vars};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn compiles() -> u64 {
    clare_trace::metrics().crs_query_compiles.get()
}

fn repeats() -> u64 {
    clare_trace::metrics().solve_repeat_retrievals.get()
}

#[test]
fn a_cold_server_compiles_once_per_answer_cache_miss() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = KbBuilder::new();
    let facts: Vec<String> = (0..400).map(|i| format!("p(k{i}, v{}).", i % 9)).collect();
    b.consult("m", &facts.join("\n")).unwrap();
    let mut symbols = b.symbols_mut().clone();
    let queries: Vec<_> = (0..12)
        .map(|i| parse_term(&format!("p(k{}, X)", i * 31), &mut symbols).unwrap())
        .collect();
    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
    let m = clare_trace::metrics();
    // FS2 alone, so the FS1 layer of the cache is never consulted and
    // every miss counted is an answer-layer miss.
    let mode = SearchMode::Fs2Only;
    let (compiles_before, misses_before) = (compiles(), m.cache_misses.get());
    let cold: Vec<_> = queries.iter().map(|q| server.retrieve(q, mode)).collect();
    let warm: Vec<_> = queries.iter().map(|q| server.retrieve(q, mode)).collect();
    assert_eq!(warm, cold, "the repeats are served from the cache");
    let compiled = compiles() - compiles_before;
    assert_eq!(compiled, queries.len() as u64, "one compile per cold query");
    assert_eq!(compiled, m.cache_misses.get() - misses_before);
}

#[test]
fn a_solve_compiles_once_per_distinct_goal() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
        let (compiled, repeated) = (compiles(), repeats());
        let outcome = solve_goals(
            &kb,
            None,
            std::slice::from_ref(&goal),
            &names,
            &options,
            &CrsOptions::default(),
            &mut RequestContext::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.solutions.len(), 5, "{mode:?}");
        // Six ancestor/2 calls, each expanding into its own call and the
        // two parent(P, _) goals of its clauses: 18 retrievals of 12
        // distinct goals, as the two parent goals compact alike.
        assert_eq!(outcome.stats.retrievals, 18, "{mode:?}");
        assert_eq!(compiles() - compiled, 12, "{mode:?}: one plan per goal");
        assert_eq!(repeats() - repeated, 6, "{mode:?}: the rest repeat");
    }
    // The public mode choice compiles a throwaway plan, not a retrieval's.
    let before = compiles();
    assert_eq!(
        clare_core::choose_mode(&kb, &goal),
        SearchMode::SoftwareOnly
    );
    assert_eq!(compiles(), before, "choose_mode counts no compile");
}
