//! Disk faults degrade a retrieval but never change its answer set.
//!
//! This file holds exactly one test on purpose: the fault injector is
//! process-wide, and a sibling test retrieving concurrently in the same
//! binary would see this test's faults. Each integration-test file is its
//! own binary, so isolation at file granularity is enough.

use clare_core::{retrieve, CrsOptions, Retrieval, SearchMode};
use clare_disk::SimNanos;
use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::parse_term;

#[test]
fn disk_faults_degrade_but_never_change_the_answer_set() {
    let mut b = KbBuilder::new();
    let facts: String = (0..3000)
        .map(|i| format!("fact(k{i}, v{}).", i % 10))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    let queries: Vec<_> = ["fact(k100, X)", "fact(K, v3)"]
        .iter()
        .map(|q| parse_term(q, b.symbols_mut()).unwrap())
        .collect();
    let kb = b.finish(KbConfig::default());
    let opts = CrsOptions::default();
    let cases: Vec<_> = queries
        .iter()
        .flat_map(|q| [SearchMode::Fs2Only, SearchMode::TwoStage].map(|m| (q, m)))
        .collect();
    // Fault-free references first (the injector is not installed yet).
    let reference: Vec<Retrieval> = cases
        .iter()
        .map(|&(q, m)| retrieve(&kb, q, m, &opts))
        .collect();
    for seed in 0..8u64 {
        let plan = FaultPlan::none().with(FaultSite::DiskTrackRead, 600);
        let _guard =
            clare_fault::install(std::sync::Arc::new(DeterministicInjector::new(seed, plan)));
        let mut degraded_seen = false;
        for (&(query, mode), want) in cases.iter().zip(&reference) {
            let got = retrieve(&kb, query, mode, &opts);
            // Correct or flagged: the answer set never moves, and any
            // quarantine must be visible in the stats.
            assert_eq!(got.stats.unified, want.stats.unified, "seed {seed}");
            assert!(got.stats.candidates >= want.stats.unified);
            if got.stats.quarantined_tracks > 0 {
                assert!(got.stats.degraded, "quarantine must flag the answer");
                // A quarantined track is never matched, so its share of
                // the FS2 time is gone.
                assert!(got.stats.fs2_time < want.stats.fs2_time, "seed {seed}");
                degraded_seen = true;
            }
        }
        assert!(
            degraded_seen,
            "60% per-track fault rate should quarantine something (seed {seed})"
        );
    }

    // Every read faulted, under the first-argument-bound query the track
    // kernel prefilters: the CRC gate must stand in front of the kernel on
    // every track — nothing matched, nothing charged, every clause
    // re-served to the host — and the answer set still does not move.
    let plan = FaultPlan::none().with(FaultSite::DiskTrackRead, 1000);
    let _guard = clare_fault::install(std::sync::Arc::new(DeterministicInjector::new(0, plan)));
    let tracks = kb.lookup("fact", 2).unwrap().file().track_count();
    // (The first two cases are `fact(k100, X)` in the two FS2 modes.)
    for (&(query, mode), want) in cases.iter().zip(&reference).take(2) {
        let got = retrieve(&kb, query, mode, &opts);
        assert_eq!(got.stats.fs2_time, SimNanos::ZERO, "mode {mode}");
        assert_eq!(got.stats.unified, want.stats.unified, "mode {mode}");
        if mode == SearchMode::Fs2Only {
            assert_eq!(got.stats.quarantined_tracks, tracks);
            assert_eq!(got.stats.candidates, 3000);
        } else {
            assert_eq!(got.stats.quarantined_tracks, 1, "k100 lives on one track");
        }
    }
}
