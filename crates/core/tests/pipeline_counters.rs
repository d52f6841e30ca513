//! Counter proof that a request scans the index only for the queries that
//! will really run on FS1, and that the FS2 track kernel and software
//! mode's host walk count exactly what a clause-at-a-time walk counts.
//! Each test reads its own requests' counts from their stage records.

use clare_core::{
    retrieve_batch, CancelToken, CrsOptions, RequestContext, RequestCounts, Retrieval, SearchMode,
};
use clare_fs2::Fs2Engine;
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_pif::encode_query;
use clare_term::parser::parse_term;
use clare_term::Term;

/// 300 `p/2` facts over one track, and four queries: three the hardware
/// can encode, and one it cannot. That one's integer is outside the
/// 28-bit in-line range, so a two-stage request for it runs FS1 alone: it
/// joins the index pass and sweeps nothing.
fn fixture() -> (KnowledgeBase, Vec<Term>) {
    let mut b = KbBuilder::new();
    let facts: String = (0..300)
        .map(|i| format!("p(k{}, {i}).", i % 40))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    let queries: Vec<Term> = ["p(k1, X)", "p(k2, X)", "p(K, 7)", "p(k3, 99999999999)"]
        .iter()
        .map(|q| parse_term(q, b.symbols_mut()).unwrap())
        .collect();
    (b.finish(KbConfig::default()), queries)
}

/// The answers and the counts of one `mode` request for `queries`.
fn counted(
    kb: &KnowledgeBase,
    queries: &[Term],
    mode: SearchMode,
) -> (Vec<Retrieval>, RequestCounts) {
    let refs: Vec<&Term> = queries.iter().collect();
    let mut cx = RequestContext::recording(CancelToken::unlimited());
    let answers = retrieve_batch(kb, None, &refs, mode, &CrsOptions::default(), &mut cx).unwrap();
    (answers, cx.stage_record().unwrap().counts().clone())
}

/// The `fs2.*` counts in order: sweeps, tracks, clauses, satisfiers, then
/// one per hardware operation.
fn fs2(counts: &RequestCounts) -> Vec<u64> {
    let mut fs2 = vec![
        counts.fs2_sweeps,
        counts.fs2_tracks,
        counts.fs2_clauses,
        counts.fs2_satisfiers,
    ];
    fs2.extend(counts.fs2_ops);
    fs2
}

/// What walking every clause of `p/2` through the engine counts for the
/// three encodable queries, one clause at a time: clauses, satisfiers and
/// ops, with no sweep or track.
fn clause_walk(kb: &KnowledgeBase, queries: &[Term]) -> Vec<u64> {
    let arena = kb.lookup("p", 2).unwrap().arena();
    let mut walked = vec![0; 4 + clare_trace::FS2_OPS];
    for query in &queries[..3] {
        let stream = encode_query(query).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        for clause in 0..arena.len() {
            let verdict = engine.match_clause_words(arena.stream(clause));
            walked[2] += 1;
            walked[3] += u64::from(verdict.matched);
            for (total, n) in walked[4..].iter_mut().zip(verdict.op_histogram) {
                *total += n as u64;
            }
        }
    }
    walked
}

#[test]
fn a_batch_scans_once_per_query_that_runs_on_fs1() {
    let (kb, queries) = fixture();
    let (answers, batch) = counted(&kb, &queries, SearchMode::TwoStage);
    assert_eq!(batch.fs1_scans, 4, "one scan per member");
    assert_eq!(batch.fs1_entries_scanned, 4 * 300);
    assert_eq!(batch.fs1_batch_scans, 1, "in one shared pass");
    assert_eq!(batch.fs2_queries_loaded, 3, "the odd one loads no engine");
    assert_eq!(batch.crs_query_compiles, 4);

    assert_eq!(answers[3].stats.mode, SearchMode::Fs1Only);
    for (query, got) in queries.iter().zip(&answers) {
        let (lone, alone) = counted(&kb, std::slice::from_ref(query), SearchMode::TwoStage);
        assert_eq!(
            &lone[..],
            std::slice::from_ref(got),
            "alone, the same answer"
        );
        assert_eq!(alone.fs1_scans, 1, "alone, each scans once");
        assert_eq!(alone.fs1_batch_scans, 0, "lone scans are not batches");
    }
}

#[test]
fn the_track_kernel_counts_what_a_clause_walk_counts() {
    // The kernel's bulk-charged first-word rejects must add up to what
    // walking every clause of the predicate through the engine counts.
    let (kb, queries) = fixture();
    let kernel = fs2(&counted(&kb, &queries, SearchMode::TwoStage).1);
    // Three encodable members, each sweeping the predicate's one track;
    // the odd one sweeps nothing.
    assert_eq!(kernel[..3], [3, 3, 3 * 300]);
    let mut walked = clause_walk(&kb, &queries);
    walked[..2].copy_from_slice(&kernel[..2]);
    assert_eq!(kernel, walked);
    assert!(
        kernel[4..].iter().sum::<u64>() >= 3 * 300,
        "an op per clause"
    );
}

#[test]
fn software_mode_counts_its_host_walk() {
    // Software mode walks every clause through the same engine on the
    // host and counts that walk's clauses, satisfiers and ops, but no
    // sweep or track. The query the engine cannot load walks nothing.
    let (kb, queries) = fixture();
    let software = fs2(&counted(&kb, &queries, SearchMode::SoftwareOnly).1);
    assert_eq!(software, clause_walk(&kb, &queries));
}
