//! Trace-counter proof that the retrieval cache actually short-circuits
//! the filter pipeline, and that epoch invalidation is selective.
//!
//! This file holds exactly one test on purpose: the trace registry is
//! process-wide, and a sibling test running concurrently in the same
//! binary would pollute the counter deltas asserted here. Each
//! integration-test file is its own binary (own process, own statics),
//! so isolation at file granularity is enough.

use clare_core::{ClauseRetrievalServer, CrsOptions, RequestContext, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::parse_term;

#[test]
fn warm_cache_skips_both_filter_stages_and_invalidates_selectively() {
    let mut b = KbBuilder::new();
    let p_facts: String = (0..300)
        .map(|i| format!("p(k{}, v{}).", i % 40, i % 7))
        .collect::<Vec<_>>()
        .join("\n");
    let q_facts: String = (0..300)
        .map(|i| format!("q(k{}, v{}).", i % 40, i % 7))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("mp", &p_facts).unwrap();
    b.consult("mq", &q_facts).unwrap();
    b.consult("mw", &format!("w({}).", vec!["X"; 130].join(", ")))
        .unwrap();
    let mut symbols = b.symbols_mut().clone();
    let p_query = parse_term("p(k13, X)", &mut symbols).unwrap();
    let q_query = parse_term("q(k13, X)", &mut symbols).unwrap();
    // Keyed, but its 130 stream words and 129 variables overflow the FS2
    // Query Memory: a two-stage request for it runs FS1 alone.
    let vars: Vec<String> = (1..130).map(|i| format!("V{i}")).collect();
    let w_query = parse_term(&format!("w(c, {})", vars.join(", ")), &mut symbols).unwrap();
    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
    let m = clare_trace::metrics();

    // Cold: both queries run the full two-stage pipeline.
    let cold_p = server.retrieve(&p_query, SearchMode::TwoStage);
    let cold_q = server.retrieve(&q_query, SearchMode::TwoStage);

    // Warm: the repeat must touch neither FS1 nor FS2 — the acceptance
    // criterion for the cache is that a hit skips both filter stages.
    let scans = m.fs1_scans.get();
    let sweeps = m.fs2_sweeps.get();
    let hits = m.cache_hits.get();
    let warm_p = server.retrieve(&p_query, SearchMode::TwoStage);
    assert_eq!(warm_p, cold_p, "a hit is the byte-identical answer");
    assert!(m.cache_hits.get() > hits, "the repeat hit the cache");
    assert_eq!(m.fs1_scans.get(), scans, "warm repeat skipped FS1");
    assert_eq!(m.fs2_sweeps.get(), sweeps, "warm repeat skipped FS2");

    // Batch repeats are served from the same cache.
    let hits = m.cache_hits.get();
    let scans = m.fs1_scans.get();
    let batch = server.retrieve_batch(
        &[p_query.clone(), q_query.clone()],
        SearchMode::TwoStage,
        &mut RequestContext::unlimited(),
    );
    assert_eq!(batch, Ok(vec![cold_p.clone(), cold_q.clone()]));
    assert!(m.cache_hits.get() >= hits + 2, "both members hit");
    assert_eq!(m.fs1_scans.get(), scans, "warm batch skipped FS1");

    // The fallback is cached under the requested mode: the repeat is an
    // answer-layer hit, which compiles no query plan.
    let cold_w = server.retrieve(&w_query, SearchMode::TwoStage);
    assert_eq!(cold_w.stats.mode, SearchMode::Fs1Only);
    let compiles = m.crs_query_compiles.get();
    let warm_w = server.retrieve(&w_query, SearchMode::TwoStage);
    assert_eq!(m.crs_query_compiles.get(), compiles, "an answer-layer hit");
    let opts = CrsOptions::default();
    let uncached = clare_core::retrieve(&server.snapshot(), &w_query, SearchMode::TwoStage, &opts);
    assert_eq!((&cold_w, &warm_w), (&uncached, &uncached));

    // An incremental consult into mp invalidates p/2 but leaves q/2 warm.
    let mut tx = server.begin_update();
    tx.consult("mp", "p(k13, v99).").unwrap();
    tx.commit().unwrap();

    let invalidations = m.cache_epoch_invalidations.get();
    let after_p = server.retrieve(&p_query, SearchMode::TwoStage);
    assert_eq!(
        after_p.stats.unified,
        cold_p.stats.unified + 1,
        "the update's new clause is visible"
    );
    assert!(
        m.cache_epoch_invalidations.get() > invalidations,
        "the stale p/2 entry was dropped by epoch mismatch"
    );

    let hits = m.cache_hits.get();
    let scans = m.fs1_scans.get();
    let after_q = server.retrieve(&q_query, SearchMode::TwoStage);
    assert_eq!(after_q, cold_q, "untouched predicate survived the update");
    assert!(m.cache_hits.get() > hits, "q/2 stayed warm");
    assert_eq!(m.fs1_scans.get(), scans, "warm q/2 skipped FS1");
    assert_eq!(
        after_q,
        clare_core::retrieve(
            &server.snapshot(),
            &q_query,
            SearchMode::TwoStage,
            &CrsOptions::default(),
        ),
        "the surviving entry matches a fresh compute on the new snapshot"
    );

    // A full (non-incremental) update invalidates everything.
    let mut b2 = KbBuilder::new();
    *b2.symbols_mut() = symbols.clone();
    b2.consult("mq", &q_facts).unwrap();
    server.update(b2.finish(KbConfig::default()));
    let hits = m.cache_hits.get();
    let misses = m.cache_misses.get();
    server.retrieve(&q_query, SearchMode::TwoStage);
    assert_eq!(m.cache_hits.get(), hits, "global bump cleared q/2 too");
    assert!(m.cache_misses.get() > misses);

    // With the cache disabled, repeats never hit.
    let mut b3 = KbBuilder::new();
    *b3.symbols_mut() = symbols;
    b3.consult("mp", &p_facts).unwrap();
    let server_off = ClauseRetrievalServer::new(
        b3.finish(KbConfig::default()),
        CrsOptions {
            cache: clare_core::CacheConfig::off(),
            ..CrsOptions::default()
        },
    );
    let first = server_off.retrieve(&p_query, SearchMode::TwoStage);
    let hits = m.cache_hits.get();
    let scans = m.fs1_scans.get();
    let second = server_off.retrieve(&p_query, SearchMode::TwoStage);
    assert_eq!(first, second);
    assert_eq!(m.cache_hits.get(), hits, "disabled cache never hits");
    assert!(m.fs1_scans.get() > scans, "disabled cache re-runs FS1");
}
