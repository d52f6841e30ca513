//! Concurrency tests for [`ClauseRetrievalServer`]: snapshot isolation of
//! in-flight retrievals against `update()` swaps, and the serialized
//! commit semantics of overlapping [`UpdateTransaction`]s.
//!
//! `crates/core/src/server.rs` documents that "in-flight clients finish
//! against their snapshot; new calls see the update", but until now only
//! exercised it single-threaded. These tests hammer the server from many
//! threads while the knowledge base is swapped underneath them — exactly
//! what the `clare-net` daemon does when one connection consults new
//! clauses while others stream retrievals.
//!
//! Historical note: update transactions used to be optimistic
//! rebuild-and-swap, and a test here pinned their last-writer-wins data
//! loss as documented behaviour. Transactions now commit assert/retract
//! batches through the write-ahead-log path, serialized on one commit
//! lock — the tests below pin the *replacement* guarantee: overlapping
//! commits both land, and no writer's clauses are ever lost.

use clare_core::{
    ClauseRetrievalServer, CompactionOutcome, CrsOptions, RequestContext, SearchMode,
};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_term::parser::parse_term;
use clare_term::{SymbolTable, Term};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Builds a KB holding `n` `item/2` facts in the given symbol lineage.
fn item_kb(symbols: Option<SymbolTable>, n: usize) -> (KnowledgeBase, SymbolTable) {
    let mut b = KbBuilder::new();
    if let Some(sy) = symbols {
        *b.symbols_mut() = sy;
    }
    let facts: String = (0..n)
        .map(|i| format!("item(k{}, v{}).", i % 50, i % 7))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    let sy = b.symbols_mut().clone();
    (b.finish(KbConfig::default()), sy)
}

/// Retrievals and batches racing `update()` swaps only ever observe one of
/// the two published knowledge bases — never a torn mix, never a panic —
/// and a whole batch sees a single snapshot.
#[test]
fn updates_race_inflight_retrievals_and_batches() {
    // Two KBs in one symbol lineage with distinguishable answer counts.
    let (kb_small, symbols) = item_kb(None, 200); // k13 appears 4 times
    let (kb_large, symbols) = item_kb(Some(symbols), 400); // k13 appears 8 times
    let mut symbols = symbols;
    let single = parse_term("item(k13, X)", &mut symbols).unwrap();
    let batch: Vec<Term> = ["item(k13, X)", "item(k21, Y)", "item(k13, v0)"]
        .iter()
        .map(|q| parse_term(q, &mut symbols).unwrap())
        .collect();

    let expect = |kb: &KnowledgeBase, q: &Term| {
        clare_core::retrieve(kb, q, SearchMode::TwoStage, &CrsOptions::default())
            .stats
            .unified
    };
    let small_single = expect(&kb_small, &single);
    let large_single = expect(&kb_large, &single);
    assert_ne!(small_single, large_single, "the two KBs must be tellable");
    let small_batch: Vec<usize> = batch.iter().map(|q| expect(&kb_small, q)).collect();
    let large_batch: Vec<usize> = batch.iter().map(|q| expect(&kb_large, q)).collect();

    let server = ClauseRetrievalServer::new(kb_small, CrsOptions::default());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: swap between the two KBs as fast as possible.
        scope.spawn(|| {
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                let (kb, sy) = if flip {
                    item_kb(Some(symbols.clone()), 200)
                } else {
                    item_kb(Some(symbols.clone()), 400)
                };
                let _ = sy;
                server.update(kb);
                flip = !flip;
            }
        });
        // Readers: single retrieves across every mode.
        for _ in 0..3 {
            scope.spawn(|| {
                for i in 0..60 {
                    let mode = SearchMode::ALL[i % 4];
                    let unified = server.retrieve(&single, mode).stats.unified;
                    assert!(
                        unified == small_single || unified == large_single,
                        "retrieval saw a torn knowledge base: {unified}"
                    );
                }
            });
        }
        // Readers: batches, which must be internally consistent (one
        // snapshot for all members).
        for _ in 0..3 {
            scope.spawn(|| {
                for i in 0..40 {
                    let mode = if i % 2 == 0 {
                        SearchMode::TwoStage
                    } else {
                        SearchMode::Fs2Only
                    };
                    let got: Vec<usize> = server
                        .retrieve_batch(&batch, mode, &mut RequestContext::unlimited())
                        .unwrap()
                        .iter()
                        .map(|r| r.stats.unified)
                        .collect();
                    assert!(
                        got == small_batch || got == large_batch,
                        "batch mixed snapshots: {got:?} (expected {small_batch:?} or {large_batch:?})"
                    );
                }
            });
        }
        // Let the readers finish before stopping the writer so swaps keep
        // happening underneath them for the whole test.
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
        });
    });

    let stats = server.stats();
    assert_eq!(stats.retrievals, (3 * 60 + 3 * 40 * 3) as u64);
    assert_eq!(stats.batches, (3 * 40) as u64);
    assert!(stats.updates > 0, "the writer committed at least one swap");
}

/// Overlapping `UpdateTransaction`s both land: commits serialize through
/// the WAL path instead of the old optimistic rebuild-and-swap, so a
/// transaction begun before another's commit can no longer erase it.
/// (This supersedes the `update_transactions_are_last_writer_wins` test
/// that used to pin the data-losing behaviour.)
#[test]
fn overlapping_update_transactions_lose_neither_writer() {
    let mut b = KbBuilder::new();
    b.consult("m", "p(a).").unwrap();
    let mut symbols = b.symbols_mut().clone();
    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());

    let mut tx1 = server.begin_update();
    let mut tx2 = server.begin_update(); // overlaps tx1 from the same state
    tx1.consult("m", "p(b).").unwrap();
    tx2.consult("m", "q(c).").unwrap();
    tx1.commit().unwrap();

    // tx1's world is visible between the commits…
    let p_query = parse_term("p(X)", &mut symbols).unwrap();
    assert_eq!(
        server
            .retrieve(&p_query, SearchMode::SoftwareOnly)
            .stats
            .unified,
        2,
        "tx1 appended p(b)"
    );

    tx2.commit().unwrap();

    // …and stays visible after tx2: the overlapping commit appended to
    // the shared overlay instead of overwriting from its own snapshot.
    assert_eq!(
        server
            .retrieve(&p_query, SearchMode::SoftwareOnly)
            .stats
            .unified,
        2,
        "tx1's p(b) survived tx2's commit"
    );
    let q_query = parse_term("q(X)", &mut server.symbols()).unwrap();
    assert_eq!(
        server
            .retrieve(&q_query, SearchMode::SoftwareOnly)
            .stats
            .unified,
        1,
        "tx2's q(c) landed too"
    );
    assert_eq!(server.stats().updates, 2, "both commits published");
}

/// Many threads committing transactions at once: every writer's clause
/// survives, and the final answer count is exactly the sum of all
/// commits — the commit lock serializes publication, so no interleaving
/// can drop an acknowledged write.
#[test]
fn racing_transaction_commits_preserve_every_write() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 10;

    let mut b = KbBuilder::new();
    b.consult("m", "w(seed, c0).").unwrap();
    let mut symbols = b.symbols_mut().clone();
    let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let server = &server;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let mut tx = server.begin_update();
                    tx.consult("m", &format!("w(t{w}, c{i}).")).unwrap();
                    tx.commit().unwrap();
                }
            });
        }
    });

    let query = parse_term("w(X, Y)", &mut symbols).unwrap();
    assert_eq!(
        server
            .retrieve(&query, SearchMode::SoftwareOnly)
            .stats
            .unified,
        1 + WRITERS * PER_WRITER,
        "an acknowledged commit was lost"
    );
    assert_eq!(server.stats().updates, (WRITERS * PER_WRITER) as u64);
}

/// Compaction never blocks readers: retrievals issued while a background
/// fold is in flight complete, answer as the overlay did, and are counted
/// in `compaction.concurrent_retrievals`.
#[test]
fn retrievals_complete_while_a_compaction_is_in_flight() {
    let (kb, mut symbols) = item_kb(None, 4_000);
    let server = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    let q = parse_term("item(k7, X)", &mut symbols).unwrap();
    let concurrent = || {
        clare_trace::metrics()
            .compaction_concurrent_retrievals
            .get()
    };
    let before = concurrent();
    // A fold over 4 000 facts takes milliseconds and a retrieval
    // microseconds, so the first round nearly always overlaps; the
    // retries only absorb a scheduler that runs the whole fold first.
    for round in 0..20 {
        server
            .assert_source("m", &format!("item(k7, new{round})."))
            .unwrap();
        let expected = server.retrieve(&q, SearchMode::TwoStage).stats.unified;
        let fold = server.spawn_compaction();
        while !fold.is_finished() {
            let got = server.retrieve(&q, SearchMode::TwoStage).stats.unified;
            assert_eq!(got, expected, "round {round}: a retrieval during the fold");
        }
        assert!(matches!(
            fold.join().unwrap(),
            CompactionOutcome::Swapped { .. }
        ));
        if concurrent() > before {
            return;
        }
    }
    panic!("no retrieval overlapped any of 20 compactions");
}
