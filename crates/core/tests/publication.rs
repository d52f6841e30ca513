//! An engine call reaches the registry only through its request context:
//! what it adds to the process registry's counters is exactly what its
//! context counted, and each wall histogram gets one sample per scan,
//! sweep or served request, taken from the stage record's own boundary
//! reads. The registry is process-wide, so this file holds the one test
//! that reads it.

use clare_core::{
    CancelToken, ClauseRetrievalServer, CrsOptions, RequestContext, RequestCounts, SearchMode,
    SolveOptions, Stage, StageRecord,
};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::{parse_term, parse_term_with_vars};
use clare_trace::MetricsSnapshot;

/// Every count with its registry name.
fn named(c: &RequestCounts) -> Vec<(String, u64)> {
    let mut named: Vec<(String, u64)> = [
        ("fs1.scans", c.fs1_scans),
        ("fs1.batch_scans", c.fs1_batch_scans),
        ("fs1.entries_scanned", c.fs1_entries_scanned),
        ("fs1.candidates_out", c.fs1_candidates_out),
        ("fs1.false_drops", c.fs1_false_drops),
        ("fs2.queries_loaded", c.fs2_queries_loaded),
        ("fs2.sweeps", c.fs2_sweeps),
        ("fs2.tracks", c.fs2_tracks),
        ("fs2.clauses", c.fs2_clauses),
        ("fs2.satisfiers", c.fs2_satisfiers),
        ("fs2.quarantined_tracks", c.fs2_quarantined_tracks),
        ("disk.track_crc_failures", c.disk_track_crc_failures),
        ("crs.query_compiles", c.crs_query_compiles),
        ("crs.degraded_answers", c.crs_degraded_answers),
        ("solve.repeat_retrievals", c.solve_repeat_retrievals),
        ("solve.depth_cap_hits", c.solve_depth_cap_hits),
    ]
    .map(|(name, n)| (name.to_owned(), n))
    .into();
    for (i, &n) in c.fs2_ops.iter().enumerate() {
        named.push((format!("fs2.op.{}", clare_trace::fs2_op_name(i)), n));
    }
    named
}

/// Runs `call` under a fresh recording context: its record, and the
/// registry before and after.
fn published(
    call: impl FnOnce(&mut RequestContext),
) -> (StageRecord, MetricsSnapshot, MetricsSnapshot) {
    let mut cx = RequestContext::recording(CancelToken::unlimited());
    let before = clare_trace::metrics().snapshot();
    call(&mut cx);
    let after = clare_trace::metrics().snapshot();
    (cx.stage_record().unwrap().clone(), before, after)
}

/// The `(count, sum)` a histogram took between two snapshots.
fn sampled(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let (a, b) = (
        after.histogram(name).unwrap(),
        before.histogram(name).unwrap(),
    );
    (a.count - b.count, a.sum - b.sum)
}

/// The registry moved by exactly the record's counts.
fn assert_published(record: &StageRecord, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    for (name, n) in named(record.counts()) {
        let moved = after.counter(&name).unwrap() - before.counter(&name).unwrap();
        assert_eq!(moved, n, "{name}");
    }
}

#[test]
fn publication_adds_exactly_the_requests_counts() {
    // `p/2` facts, half of them with equal arguments, and a rule over them.
    let mut b = KbBuilder::new();
    let facts: String = (0..200)
        .map(|i| format!("p(a{}, a{}).\n", i % 20, (i + i % 2) % 20))
        .collect();
    b.consult("m", &format!("{facts} q(X, Z) :- p(X, Y), p(Y, Z)."))
        .unwrap();
    let symbols = b.symbols_mut();
    let queries = [
        parse_term("p(X, X)", symbols).unwrap(),
        parse_term("p(a0, Y)", symbols).unwrap(),
    ];
    let (goal, names) = parse_term_with_vars("q(a0, Z)", symbols).unwrap();
    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());

    // Two queries of one predicate: one shared FS1 pass and two sweeps.
    let (record, before, after) = published(|cx| {
        let batch = server.retrieve_batch(&queries, SearchMode::TwoStage, cx);
        assert_eq!(batch.unwrap().len(), 2);
    });
    let counts = record.counts();
    assert!(
        counts.fs1_false_drops > 0,
        "FS1 passes p(a1, a2) for p(X, X)"
    );
    assert_eq!((counts.fs1_batch_scans, counts.fs2_sweeps), (1, 2));
    assert_published(&record, &before, &after);
    // The entry, the cache front's and the pipeline's plan boundaries, the
    // scan, two sweeps, the filter and two unify boundaries: once each.
    assert_eq!(record.clock_reads(), 9, "{record:?}");
    let fs1 = sampled(&before, &after, "fs1.scan_wall_ns");
    assert_eq!(fs1, (1, record.ns(Stage::Fs1Scan)), "one sample per pass");
    let fs2 = sampled(&before, &after, "fs2.wall_ns");
    assert_eq!(fs2, (2, record.ns(Stage::Fs2Sweep)), "one sample per sweep");
    let served = sampled(&before, &after, "crs.retrieve_wall_ns");
    assert_eq!(served, (1, record.total_ns()), "one sample per request");
    assert_eq!(sampled(&before, &after, "fs2.modelled_ns").0, 2);
    assert_eq!(sampled(&before, &after, "crs.solve_wall_ns").0, 0);

    // A solve: each of its filter runs scans alone.
    let (record, before, after) = published(|cx| {
        let options = SolveOptions::default();
        let solved = server.solve_goals(std::slice::from_ref(&goal), &names, &options, cx);
        assert!(!solved.unwrap().solutions.is_empty());
    });
    let counts = record.counts();
    assert!(counts.solve_repeat_retrievals > 0, "{counts:?}");
    assert_published(&record, &before, &after);
    let scans = sampled(&before, &after, "fs1.scan_wall_ns").0;
    assert_eq!(scans, counts.fs1_scans, "one sample per pass");
    let sweeps = sampled(&before, &after, "fs2.wall_ns");
    assert_eq!(sweeps, (counts.fs2_sweeps, record.ns(Stage::Fs2Sweep)));
    let served = sampled(&before, &after, "crs.solve_wall_ns");
    assert_eq!(served, (1, record.total_ns()), "one sample per request");
    assert_eq!(sampled(&before, &after, "crs.retrieve_wall_ns").0, 0);
}
