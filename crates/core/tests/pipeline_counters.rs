//! Trace-counter proof that a request scans the index only for the
//! queries that will really run on FS1, and that the FS2 track kernel and
//! software mode's host walk charge the registry exactly what a
//! clause-at-a-time walk charges.
//!
//! This file holds exactly one test on purpose: the trace registry is
//! process-wide, and a sibling test running concurrently in the same
//! binary would pollute the counter deltas asserted here. Each
//! integration-test file is its own binary, so isolation at file
//! granularity is enough.

use clare_core::{retrieve, retrieve_batch, CrsOptions, RequestContext, SearchMode};
use clare_fs2::Fs2Engine;
use clare_kb::{KbBuilder, KbConfig};
use clare_pif::encode_query;
use clare_term::parser::parse_term;
use clare_term::Term;

#[test]
fn a_batch_scans_once_per_query_that_runs_on_fs1() {
    let mut b = KbBuilder::new();
    let facts: String = (0..300)
        .map(|i| format!("p(k{}, {i}).", i % 40))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    // Three queries the hardware can encode, and one it cannot: the
    // integer is outside the 28-bit in-line range, so a two-stage request
    // for it runs FS1 alone. It joins the index pass and sweeps nothing.
    let queries: Vec<Term> = ["p(k1, X)", "p(k2, X)", "p(K, 7)", "p(k3, 99999999999)"]
        .iter()
        .map(|q| parse_term(q, b.symbols_mut()).unwrap())
        .collect();
    let kb = b.finish(KbConfig::default());
    let opts = CrsOptions::default();
    let m = clare_trace::metrics();

    let refs: Vec<&Term> = queries.iter().collect();
    let (scans, entries, batch_scans) = (
        m.fs1_scans.get(),
        m.fs1_entries_scanned.get(),
        m.fs1_batch_scans.get(),
    );
    let mut cx = RequestContext::unlimited();
    let batch = retrieve_batch(&kb, None, &refs, SearchMode::TwoStage, &opts, &mut cx).unwrap();
    assert_eq!(m.fs1_scans.get(), scans + 4, "one scan per member");
    assert_eq!(m.fs1_entries_scanned.get(), entries + 4 * 300);
    assert_eq!(
        m.fs1_batch_scans.get(),
        batch_scans + 1,
        "in one shared pass"
    );

    assert_eq!(batch[3].stats.mode, SearchMode::Fs1Only);
    let scans = m.fs1_scans.get();
    for (query, got) in queries.iter().zip(&batch) {
        assert_eq!(&retrieve(&kb, query, SearchMode::TwoStage, &opts), got);
    }
    assert_eq!(m.fs1_scans.get(), scans + 4, "alone, each scans once");
    assert_eq!(
        m.fs1_batch_scans.get(),
        batch_scans + 1,
        "lone scans are not batches"
    );

    // FS2 totals, published once per request: the kernel's bulk-charged
    // first-word rejects must add up to what walking every clause of the
    // predicate through the engine counts one clause at a time.
    let fs2_counts = || {
        let mut counts = vec![
            m.fs2_sweeps.get(),
            m.fs2_tracks.get(),
            m.fs2_clauses.get(),
            m.fs2_satisfiers.get(),
        ];
        counts.extend(m.fs2_ops.iter().map(|op| op.get()));
        counts
    };
    let before = fs2_counts();
    retrieve_batch(&kb, None, &refs, SearchMode::TwoStage, &opts, &mut cx).unwrap();
    let kernel: Vec<u64> = fs2_counts()
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect();
    // Three encodable members, each sweeping the predicate's one track;
    // the odd one sweeps nothing.
    assert_eq!(kernel[..3], [3, 3, 3 * 300]);
    let arena = kb.lookup("p", 2).unwrap().arena();
    let mut per_clause = kernel[..3].to_vec();
    per_clause.resize(kernel.len(), 0);
    for query in &queries[..3] {
        let stream = encode_query(query).unwrap();
        let mut engine = Fs2Engine::new(&stream).unwrap();
        for clause in 0..arena.len() {
            let verdict = engine.match_clause_words(arena.stream(clause));
            per_clause[3] += u64::from(verdict.matched);
            for (total, n) in per_clause[4..].iter_mut().zip(verdict.op_histogram) {
                *total += n as u64;
            }
        }
    }
    assert_eq!(kernel, per_clause);
    assert!(
        kernel[4..].iter().sum::<u64>() >= 3 * 300,
        "an op per clause"
    );

    // Software mode walks every clause through the same engine on the
    // host and publishes that walk's clauses, satisfiers and ops, but no
    // sweep or track. The query the engine cannot load walks nothing.
    let before = fs2_counts();
    retrieve_batch(&kb, None, &refs, SearchMode::SoftwareOnly, &opts, &mut cx).unwrap();
    let software: Vec<u64> = fs2_counts()
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect();
    let mut walked = per_clause;
    walked[..2].fill(0);
    assert_eq!(software, walked);
}
