//! Trace-counter proof that a request scans the index only for the
//! queries that will really run on FS1, and that the FS2 track kernel
//! charges the registry exactly what the per-record sweep charges.
//!
//! This file holds exactly one test on purpose: the trace registry is
//! process-wide, and a sibling test running concurrently in the same
//! binary would pollute the counter deltas asserted here. Each
//! integration-test file is its own binary, so isolation at file
//! granularity is enough.

use clare_core::{retrieve, retrieve_batch, CancelToken, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
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
    // for it falls back to software and has no business in the index pass.
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
    let unlimited = CancelToken::unlimited();
    let batch = retrieve_batch(&kb, None, &refs, SearchMode::TwoStage, &opts, &unlimited).unwrap();
    assert_eq!(
        m.fs1_scans.get(),
        scans + 3,
        "one scan per encodable member"
    );
    assert_eq!(m.fs1_entries_scanned.get(), entries + 3 * 300);
    assert_eq!(
        m.fs1_batch_scans.get(),
        batch_scans + 1,
        "in one shared pass"
    );

    assert_eq!(batch[3].stats.mode, SearchMode::SoftwareOnly);
    let scans = m.fs1_scans.get();
    for (query, got) in queries.iter().zip(&batch) {
        assert_eq!(got, &retrieve(&kb, query, SearchMode::TwoStage, &opts));
    }
    assert_eq!(
        m.fs1_scans.get(),
        scans + 3,
        "alone, the odd one scans nothing either"
    );
    assert_eq!(
        m.fs1_batch_scans.get(),
        batch_scans + 1,
        "lone scans are not batches"
    );

    // FS2 totals, published once per sweep: the kernel's bulk-charged
    // first-word rejects must add up to what the byte-decoding reference
    // sweep counts one record at a time.
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
    let fs2_delta = |opts: &CrsOptions| {
        let before = fs2_counts();
        retrieve_batch(&kb, None, &refs, SearchMode::TwoStage, opts, &unlimited).unwrap();
        let after = fs2_counts();
        after
            .iter()
            .zip(before)
            .map(|(a, b)| a - b)
            .collect::<Vec<_>>()
    };
    let from_bytes = CrsOptions {
        fs2: opts.fs2.with_predecoded(false),
        ..opts.clone()
    };
    let kernel = fs2_delta(&opts);
    assert_eq!(kernel, fs2_delta(&from_bytes));
    // Three encodable members, each sweeping the predicate's one track.
    assert_eq!(kernel[..3], [3, 3, 3 * 300]);
    assert!(
        kernel[4..].iter().sum::<u64>() >= 3 * 300,
        "an op per clause"
    );
}
