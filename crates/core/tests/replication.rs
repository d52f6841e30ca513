//! Server-side replication primitives and threshold auto-compaction.
//!
//! The cluster layer (`clare-cluster`) ships committed WAL records from
//! a primary to a backup and applies them through
//! [`ClauseRetrievalServer::apply_replicated`]. These tests pin the
//! core contracts that shipping relies on, with no sockets involved:
//! subscription catch-up is gapless and ordered, replicas converge to a
//! byte-identical answer state, out-of-order delivery is a typed error,
//! duplicates are idempotent — and a growing overlay compacts on its own
//! once it crosses the configured threshold (the unbounded-growth fix).

use clare_core::{ClauseRetrievalServer, CommitError, CrsOptions, SearchMode, SubscribeError};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_term::parser::parse_term;
use clare_wal::{WalOp, WalRecord};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

fn base_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    b.consult("m", "item(k0, v0). item(k1, v1). other(x).")
        .unwrap();
    b.finish(KbConfig::default())
}

/// A 10k-op overlay compacts without any manual `compact_now` /
/// `spawn_compaction` call: the default size threshold (8192 ops)
/// triggers it from the commit path, and the auto-trigger counter moves.
#[test]
fn overlay_auto_compacts_past_the_size_threshold() {
    let auto_before = clare_trace::metrics().compaction_auto_triggers.get();
    // A plain (non-Arc) server: the trigger must still fire, falling
    // back to a synchronous pass inside the committing call.
    let server = ClauseRetrievalServer::new(base_kb(), CrsOptions::default());
    for batch in 0..100 {
        let ops: Vec<WalOp> = (0..100)
            .map(|i| WalOp::Assert {
                module: "m".into(),
                source: format!("auto(k{}, v{}).", batch, i),
            })
            .collect();
        server.apply_ops(ops).unwrap();
    }
    // 10_000 ops went in; the threshold fired at 8192 and the
    // synchronous fallback folded the overlay before the loop ended.
    let auto_after = clare_trace::metrics().compaction_auto_triggers.get();
    assert!(
        auto_after > auto_before,
        "the size threshold never auto-triggered"
    );
    let (_, overlay) = server.snapshot_merged();
    assert!(
        overlay.len() < 10_000,
        "overlay still holds {} ops — compaction never folded it",
        overlay.len()
    );
    // The folded state still answers correctly.
    let mut symbols = server.symbols();
    let q = parse_term("auto(k42, X)", &mut symbols).unwrap();
    let got = server.retrieve(&q, SearchMode::TwoStage);
    assert_eq!(got.stats.unified, 100);
}

/// The threshold off (`None`) means no auto-trigger, however large the
/// overlay grows.
#[test]
fn auto_compaction_disabled_when_thresholds_are_none() {
    let auto_before = clare_trace::metrics().compaction_auto_triggers.get();
    let server = ClauseRetrievalServer::new(
        base_kb(),
        CrsOptions {
            overlay_auto_compact_ops: None,
            ..CrsOptions::default()
        },
    );
    for batch in 0..10 {
        let ops: Vec<WalOp> = (0..100)
            .map(|i| WalOp::Assert {
                module: "m".into(),
                source: format!("noauto(k{}, v{}).", batch, i),
            })
            .collect();
        server.apply_ops(ops).unwrap();
    }
    let (_, overlay) = server.snapshot_merged();
    assert_eq!(overlay.len(), 1000, "nothing may fold on its own");
    assert_eq!(
        clare_trace::metrics().compaction_auto_triggers.get(),
        auto_before
    );
}

/// Subscribing mid-stream delivers a gapless, ordered record sequence:
/// the catch-up covers everything already committed past `from_seq`, and
/// live notifications cover everything after, with no seam.
#[test]
fn subscription_catch_up_and_live_stream_are_gapless() {
    let server = ClauseRetrievalServer::new(
        base_kb(),
        CrsOptions {
            overlay_auto_compact_ops: None,
            ..CrsOptions::default()
        },
    );
    server.assert_source("m", "s(a).").unwrap();
    server.assert_source("m", "s(b).").unwrap();
    server.retract_source("m", "s(a).").unwrap();

    let (tx, rx) = mpsc::channel::<WalRecord>();
    let current = server
        .subscribe_ops(
            0,
            Box::new(move |records| {
                for r in records {
                    if tx.send(r.clone()).is_err() {
                        return false;
                    }
                }
                true
            }),
        )
        .unwrap();
    assert_eq!(current, 3, "three ops committed before the subscription");

    server.assert_source("m", "s(c).").unwrap();
    server
        .apply_ops(vec![
            WalOp::Assert {
                module: "m".into(),
                source: "s(d).".into(),
            },
            WalOp::Assert {
                module: "m".into(),
                source: "s(e).".into(),
            },
        ])
        .unwrap();

    let mut seqs = Vec::new();
    while let Ok(r) = rx.try_recv() {
        seqs.push(r.seq);
    }
    assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6], "gapless and in commit order");
}

/// After a compaction folds the overlay, a subscriber asking to catch up
/// from before the fold gets the typed gap refusal — never a silently
/// incomplete stream.
#[test]
fn subscription_from_before_the_fold_is_refused() {
    let server = ClauseRetrievalServer::new(
        base_kb(),
        CrsOptions {
            overlay_auto_compact_ops: None,
            ..CrsOptions::default()
        },
    );
    for src in ["f(a).", "f(b).", "f(c)."] {
        server.assert_source("m", src).unwrap();
    }
    server.compact_now();
    match server.subscribe_ops(0, Box::new(|_| true)) {
        Err(SubscribeError::Gap { folded_through }) => assert_eq!(folded_through, 3),
        other => panic!("expected Gap, got {other:?}"),
    }
    // From the fold frontier itself, subscription works.
    assert_eq!(server.subscribe_ops(3, Box::new(|_| true)).unwrap(), 3);
}

/// Shipping every committed record to a second server through
/// `apply_replicated` converges the replica to byte-identical answers;
/// duplicates are idempotent and a skipped record is a typed gap.
#[test]
fn replica_converges_and_rejects_gaps() {
    let opts = || CrsOptions {
        overlay_auto_compact_ops: None,
        ..CrsOptions::default()
    };
    let primary = ClauseRetrievalServer::new(base_kb(), opts());
    let replica = ClauseRetrievalServer::new(base_kb(), opts());

    let shipped: Arc<Mutex<Vec<WalRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&shipped);
    primary
        .subscribe_ops(
            0,
            Box::new(move |records| {
                sink.lock().unwrap().extend(records.iter().cloned());
                true
            }),
        )
        .unwrap();

    primary
        .apply_ops(
            ["r(a).", "r(b).", "r(c)."]
                .map(|s| WalOp::Assert {
                    module: "m".into(),
                    source: s.into(),
                })
                .to_vec(),
        )
        .unwrap();
    primary.retract_source("m", "r(b).").unwrap();
    primary.assert_source("m", "item(k9, v9).").unwrap();

    let records = shipped.lock().unwrap().clone();
    assert_eq!(records.len(), 5);
    // A gap (shipping record 2 first) is refused with the expected seq.
    match replica.apply_replicated(&records[1]) {
        Err(CommitError::ReplicaGap { expected }) => assert_eq!(expected, 1),
        other => panic!("expected ReplicaGap, got {other:?}"),
    }
    // In order: each apply reports the frontier; duplicates are skipped.
    for r in &records {
        assert_eq!(replica.apply_replicated(r).unwrap(), r.seq);
    }
    assert_eq!(replica.apply_replicated(&records[2]).unwrap(), 5);

    // Byte-identical answers on both sides.
    let mut symbols = primary.symbols();
    for q in ["r(X)", "item(K, V)", "other(X)"] {
        let query = parse_term(q, &mut symbols).unwrap();
        let a = primary.retrieve(&query, SearchMode::TwoStage);
        let b = replica.retrieve(&query, SearchMode::TwoStage);
        assert_eq!(a, b, "replica diverged on {q}");
    }
    assert_eq!(replica.current_seq(), primary.current_seq());
}

/// An op too large to frame is refused by the commit path even with no
/// WAL attached — the replica/memory path enforces the same bound the
/// durable path does.
#[test]
fn oversized_op_is_refused_without_a_wal() {
    let server = ClauseRetrievalServer::new(base_kb(), CrsOptions::default());
    let err = server
        .assert_source(&"m".repeat(70_000), "p(a).")
        .unwrap_err();
    match err {
        CommitError::Wal(clare_wal::WalError::OpTooLarge { len, .. }) => assert_eq!(len, 70_000),
        other => panic!("expected OpTooLarge, got {other:?}"),
    }
    // Nothing was published and the sequence did not advance.
    assert_eq!(server.current_seq(), 0);
}
