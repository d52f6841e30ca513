//! The stage record checks itself. Around a retrieval over a 100 000-clause
//! predicate and around a genealogy solve, the stages a recording request
//! is charged must cover what an outer clock measures (the median of
//! repeated runs, at least 95 %) and never exceed it. The clock is read
//! once per stage boundary, not per track, and a request that asks for no
//! record gets none and the same answer.

use clare_core::{
    retrieve_batch, solve_goals, CancelToken, CrsOptions, RequestContext, SearchMode, SolveOptions,
    Stage, StageRecord,
};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::{parse_goals, parse_term};
use std::time::Instant;

/// Recorded runs per check: the coverage test takes their median share.
const RUNS: usize = 9;

/// Runs `call` under a fresh recording context `RUNS` times: each run's
/// record and the time an outer clock measured around the call, in ns.
fn recorded(mut call: impl FnMut(&mut RequestContext)) -> Vec<(StageRecord, u64)> {
    (0..RUNS)
        .map(|_| {
            let mut cx = RequestContext::recording(CancelToken::unlimited());
            let started = Instant::now();
            call(&mut cx);
            let outer = started.elapsed().as_nanos() as u64;
            let record = cx
                .stage_record()
                .expect("a recording context keeps its record");
            (record.clone(), outer)
        })
        .collect()
}

/// Every run's stages sum to no more than the outer clock, and the median
/// run's to at least 95 % of it.
fn assert_covers(runs: &[(StageRecord, u64)]) {
    for (record, outer) in runs {
        assert!(
            record.total_ns() <= *outer,
            "the stages sum to {} ns, past the outer clock's {outer} ns: {record:?}",
            record.total_ns()
        );
    }
    let mut shares: Vec<f64> = runs
        .iter()
        .map(|(record, outer)| record.total_ns() as f64 / *outer as f64)
        .collect();
    shares.sort_by(f64::total_cmp);
    let median = shares[shares.len() / 2];
    assert!(
        median >= 0.95,
        "the stages cover {median:.3} of the outer clock: {shares:?}"
    );
}

#[test]
fn a_retrieval_is_charged_stage_by_stage() {
    let mut b = KbBuilder::new();
    let facts: Vec<String> = (0..100_000)
        .map(|i| format!("fact(k{}, v{i}, t{}).", i % 997, i % 13))
        .collect();
    b.consult("m", &facts.join("\n")).unwrap();
    let query = parse_term("fact(k17, X, t3)", b.symbols_mut()).unwrap();
    let kb = b.finish(KbConfig::default());
    let pred = kb.lookup("fact", 3).unwrap();
    assert_eq!(pred.clauses().len(), 100_000);
    assert!(
        pred.file().track_count() > 100,
        "a sweep visits many tracks"
    );
    let opts = CrsOptions::default();
    let mut answer = None;
    let runs = recorded(|cx| {
        let got = retrieve_batch(&kb, None, &[&query], SearchMode::TwoStage, &opts, cx);
        answer = Some(got.unwrap());
    });
    assert_covers(&runs);
    for (record, _) in &runs {
        // The entry, then one boundary per stage: plan, FS1 scan, FS2
        // sweep, filter and unify.
        assert_eq!(record.clock_reads(), 6, "{record:?}");
        assert_eq!(record.retrievals(), 1);
        assert_eq!(record.counts().crs_query_compiles, 1);
        for stage in [Stage::Memo, Stage::Resolver] {
            assert_eq!(record.ns(stage), 0, "{stage:?}: a retrieval has no solve");
        }
    }

    let mut cx = RequestContext::new(CancelToken::unlimited());
    let unrecorded = retrieve_batch(&kb, None, &[&query], SearchMode::TwoStage, &opts, &mut cx);
    assert!(cx.stage_record().is_none());
    assert_eq!(Some(unrecorded.unwrap()), answer);
}

#[test]
fn a_solve_is_charged_its_memo_and_resolver() {
    // Five generations of 128 persons in a disk-resident module; each
    // person has two children in the next generation.
    let mut source = String::new();
    for g in 0..4 {
        for i in 0..128 {
            for c in [2 * i % 128, (2 * i + 1) % 128] {
                source.push_str(&format!("parent(g{g}_{i}, g{}_{c}).\n", g + 1));
            }
        }
    }
    source.push_str(&"filler(abcdefghijklmnopqrstuvwxyz0123456789).\n".repeat(2000));
    source.push_str(
        "ancestor(A, D) :- parent(A, D).
         ancestor(A, D) :- parent(A, P), ancestor(P, D).",
    );
    let mut b = KbBuilder::new();
    b.consult("family", &source).unwrap();
    let (goals, names) = parse_goals("ancestor(g1_5, W)", b.symbols_mut()).unwrap();
    let kb = b.finish(KbConfig::default());
    let (options, crs) = (SolveOptions::default(), CrsOptions::default());
    let mut answer = None;
    let runs = recorded(|cx| {
        let got = solve_goals(&kb, None, &goals, &names, &options, &crs, cx);
        answer = Some(got.unwrap());
    });
    assert_covers(&runs);
    let outcome = answer.clone().unwrap();
    assert_eq!(outcome.solutions.len(), 2 + 4 + 8);
    for (record, _) in &runs {
        assert_eq!(record.retrievals(), outcome.stats.retrievals as u64);
        // Each `ancestor(p, _)` expansion asks for `parent(p, _)` twice,
        // and the memo filters it once: one compiled plan per filter run.
        let filter_runs = record.counts().crs_query_compiles;
        assert!(filter_runs < record.retrievals(), "{record:?}");
        for stage in [Stage::Memo, Stage::Resolver] {
            assert!(record.ns(stage) > 0, "{stage:?}: {record:?}");
        }
    }

    let mut cx = RequestContext::new(CancelToken::unlimited());
    let unrecorded = solve_goals(&kb, None, &goals, &names, &options, &crs, &mut cx);
    assert!(cx.stage_record().is_none());
    assert_eq!(Some(unrecorded.unwrap()), answer);
}
