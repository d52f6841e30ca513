//! Cluster-level chaos and correctness: a predicate-sharded router over
//! real in-process `clare-net` backends, with log-shipping replication
//! exercised under seeded fault schedules.
//!
//! The invariants, in increasing order of hostility:
//!
//! 1. **Routing is invisible.** Every answer through the router is
//!    byte-identical to a per-shard reference server that received
//!    exactly the writes routed to that shard — including hot-predicate
//!    broadcasts merged across shards.
//! 2. **Replication storms are correct-or-flagged.** Under dropped,
//!    reordered, duplicated, and refused replication frames, a manual
//!    failover serves answers that are either byte-identical to the
//!    reference or flagged degraded; every write acknowledged
//!    `replicated: true` survives.
//! 3. **Killing the primary loses nothing acknowledged.** With a live
//!    backup, shutting the primary down mid-write-stream and letting
//!    health probes auto-promote keeps every acknowledged write
//!    queryable.
//! 4. **A mismatched knowledge base is refused.** A backend whose hello
//!    fingerprint disagrees with the cluster's never joins.
//!
//! Schedule count scales with `CLARE_CLUSTER_SCHEDULES` (CI raises it;
//! the local default keeps `cargo test` quick).

use clare::prelude::*;
use clare_cluster::{merge_retrievals, ClusterError, Router, RouterConfig, ShardMap, ShardSpec};
use clare_core::ClauseRetrievalServer;
use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
use clare_net::protocol::encode_retrieval;
use clare_net::ErrorCode;
use std::sync::Arc;
use std::time::Duration;

fn schedules() -> u64 {
    std::env::var("CLARE_CLUSTER_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(2)
}

/// The shared base knowledge base. The cluster contract is that every
/// runtime-asserted predicate and every constant it uses are
/// pre-declared here, so all backends (and the router's snapshot) agree
/// on the symbol namespace byte-for-byte.
fn base_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    let mut s = String::new();
    for p in 0..8 {
        s.push_str(&format!("p{p}(seed, seed).\n"));
    }
    // The hot predicate is overlay-only: its functor is interned via the
    // pool (so every namespace can resolve it) but it has no base
    // clauses — base clauses of a hot predicate would be answered once
    // per shard in an unbound broadcast, since every shard holds the
    // full base.
    s.push_str("pool(hot).\n");
    for k in 0..20 {
        s.push_str(&format!("pool(k{k}).\n"));
    }
    for v in 0..8 {
        s.push_str(&format!("pool(v{v}).\n"));
    }
    b.consult("m", &s).unwrap();
    b.finish(KbConfig::default())
}

/// One in-process backend: a full `clare-net` server over its own CRS.
fn backend() -> (NetServer, String) {
    let crs = ClauseRetrievalServer::shared(base_kb(), CrsOptions::default());
    let server = NetServer::bind(crs, "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// An in-process reference server sharing the backends' base build.
fn reference() -> ClauseRetrievalServer {
    ClauseRetrievalServer::new(base_kb(), CrsOptions::default())
}

fn install(seed: u64, plan: FaultPlan) -> clare_fault::InstallGuard {
    clare_fault::install(Arc::new(DeterministicInjector::new(seed, plan)))
}

// ---------------------------------------------------------------------
// Group 1: routing and byte-identity (no faults, no replication)
// ---------------------------------------------------------------------

/// Every routed answer equals a per-shard reference that received
/// exactly that shard's writes; hot broadcasts merge across shards. The
/// router's network front end — a `NetServer` over the same router, as
/// the `clare-cluster` daemon runs it — answers byte-identically, lone,
/// pipelined and batched.
#[test]
fn routed_answers_match_per_shard_references() {
    let (_s0, a0) = backend();
    let (_s1, a1) = backend();
    let map = ShardMap {
        shards: vec![
            ShardSpec {
                primary: a0,
                backup: None,
            },
            ShardSpec {
                primary: a1,
                backup: None,
            },
        ],
        hot: vec![("hot".to_owned(), 2)],
        fingerprint: None,
    };
    let placements = map.clone();
    let router = Arc::new(Router::connect(map, RouterConfig::default()).unwrap());
    let refs = [reference(), reference()];

    // Eight predicates must not all hash to one of two shards, or the
    // test would silently stop exercising routing.
    let used: std::collections::BTreeSet<usize> = (0..8)
        .map(|p| placements.route(&format!("p{p}"), 2))
        .collect();
    assert!(used.len() == 2, "p0..p7 all routed to one shard");

    // Writes: distinct facts per predicate, mirrored onto the reference
    // of whichever shard the router picked; plus hot facts that split
    // by first argument, and one retract.
    for p in 0..8 {
        for i in 0..6 {
            let fact = format!("p{p}(k{i}, v{}).", i % 4);
            let receipt = router.assert("m", &fact).unwrap();
            assert_eq!(receipt.shard, placements.route(&format!("p{p}"), 2));
            assert!(!receipt.replicated, "no backups: replicated must be false");
            refs[receipt.shard].assert_source("m", &fact).unwrap();
        }
    }
    for i in 0..12 {
        let fact = format!("hot(k{i}, v{}).", i % 3);
        let receipt = router.assert("m", &fact).unwrap();
        refs[receipt.shard].assert_source("m", &fact).unwrap();
    }
    let gone = "p0(k5, v1).";
    let r = router.retract("m", gone).unwrap();
    refs[r.shard].retract_source("m", gone).unwrap();

    let mut syms = router.symbols();
    let mut ref_syms = refs[0].symbols();
    for (q, is_hot) in [
        ("p0(K, V)", false),
        ("p0(k5, V)", false),
        ("p3(k2, v2)", false),
        ("p7(K, v1)", false),
        ("pool(X)", false),
        ("hot(k3, X)", true),
        ("hot(k10, v1)", true),
    ] {
        let query = parse_term(q, &mut syms).unwrap();
        let got = router.retrieve(&query, SearchMode::TwoStage).unwrap();
        let ref_query = parse_term(q, &mut ref_syms).unwrap();
        let shard = if is_hot {
            // Re-derive the hot sub-shard from the map: the first-arg
            // signature for an atom is `a:` + its text.
            let sig_atom = q
                .strip_prefix("hot(")
                .and_then(|rest| rest.split(',').next())
                .unwrap();
            let mut sig = b"a:".to_vec();
            sig.extend_from_slice(sig_atom.as_bytes());
            match placements.place("hot", 2, Some(&sig)) {
                clare_cluster::Placement::One(s) => s,
                clare_cluster::Placement::All => unreachable!(),
            }
        } else {
            let functor = q.split('(').next().unwrap();
            placements.route(functor, 2)
        };
        let want = refs[shard].retrieve(&ref_query, SearchMode::TwoStage);
        assert_eq!(got, want, "router answer diverged on {q}");
    }

    // Hot predicate with an unbound first argument: broadcast + merge,
    // equal to merging the two references in shard order.
    let query = parse_term("hot(K, V)", &mut syms).unwrap();
    let got = router.retrieve(&query, SearchMode::TwoStage).unwrap();
    let ref_query = parse_term("hot(K, V)", &mut ref_syms).unwrap();
    let want = merge_retrievals(
        refs.iter()
            .map(|r| r.retrieve(&ref_query, SearchMode::TwoStage))
            .collect(),
    )
    .unwrap();
    assert_eq!(got, want, "broadcast merge diverged");
    assert_eq!(got.stats.unified, 12, "hot facts lost in the merge");

    // The same queries through the router's front end.
    let front = NetServer::bind(Arc::clone(&router), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = NetClient::connect(front.local_addr(), ClientConfig::default()).unwrap();
    assert!(!client.budget_capable(), "the router grants no budgets");
    let mut net_syms = client.symbols().unwrap();
    let texts = [
        "p0(K, V)",
        "p0(k5, V)",
        "p3(k2, v2)",
        "p7(K, v1)",
        "pool(X)",
        "hot(k3, X)",
        "hot(k10, v1)",
        "hot(K, V)",
    ];
    let queries: Vec<Term> = texts
        .iter()
        .map(|q| parse_term(q, &mut net_syms).unwrap())
        .collect();
    let want: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| encode_retrieval(&router.retrieve(q, SearchMode::TwoStage).unwrap()))
        .collect();
    let routed_before = client.metrics().unwrap().1.counter("cluster.routed");
    for ((q, text), want) in queries.iter().zip(texts).zip(&want) {
        let lone = client.retrieve(q, SearchMode::TwoStage).unwrap();
        assert_eq!(
            &encode_retrieval(&lone),
            want,
            "front end diverged on {text}"
        );
    }
    let pipelined = client
        .retrieve_pipelined(&queries, SearchMode::TwoStage)
        .unwrap();
    let batched = client
        .retrieve_batch(&queries, SearchMode::TwoStage)
        .unwrap();
    for (i, want) in want.iter().enumerate() {
        assert_eq!(
            &encode_retrieval(&pipelined[i]),
            want,
            "pipelined {}",
            texts[i]
        );
        assert_eq!(&encode_retrieval(&batched[i]), want, "batched {}", texts[i]);
    }

    // Refusals and stats go through the same front end.
    match client.solve_goals(&queries[..1], &[], &SolveOptions::default()) {
        Err(NetError::Remote {
            code: ErrorCode::Unsupported,
            ..
        }) => {}
        other => panic!("solve through the router: {other:?}"),
    }
    let routed_after = client.metrics().unwrap().1.counter("cluster.routed");
    assert!(
        routed_after > routed_before,
        "cluster.routed did not grow: {routed_before:?} -> {routed_after:?}"
    );
    front.shutdown();
}

/// Placement errors are typed: an unknown predicate is unroutable, and
/// one source whose clause heads land on different shards is refused
/// (cross-shard writes are not atomic, so they are not accepted).
#[test]
fn unroutable_and_cross_shard_writes_are_refused() {
    let (_s0, a0) = backend();
    let (_s1, a1) = backend();
    let map = ShardMap {
        shards: vec![
            ShardSpec {
                primary: a0,
                backup: None,
            },
            ShardSpec {
                primary: a1,
                backup: None,
            },
        ],
        hot: Vec::new(),
        fingerprint: None,
    };
    let placements = map.clone();
    let router = Router::connect(map, RouterConfig::default()).unwrap();

    let mut syms = router.symbols();
    let query = parse_term("never_declared(X)", &mut syms).unwrap();
    assert!(matches!(
        router.retrieve(&query, SearchMode::TwoStage),
        Err(ClusterError::Unroutable(_))
    ));

    // Find two predicates on different shards and write them as one
    // source: the router must refuse rather than half-apply.
    let s0 = placements.route("p0", 2);
    let other = (1..8)
        .find(|p| placements.route(&format!("p{p}"), 2) != s0)
        .expect("p0..p7 all on one shard");
    let source = format!("p0(k1, v1). p{other}(k1, v1).");
    match router.assert("m", &source) {
        Err(ClusterError::CrossShardWrite { first, other }) => assert_ne!(first, other),
        other => panic!("expected CrossShardWrite, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Group 2: replication storms, then manual failover
// ---------------------------------------------------------------------

/// Seeded storms over both replication fault sites (frames dropped,
/// reordered, duplicated in flight; applies refused or stalled at the
/// backup), then a manual promotion: answers from the promoted backup
/// are byte-identical to the reference or flagged degraded, and every
/// write acknowledged `replicated: true` is present.
#[test]
fn replication_chaos_then_failover_is_correct_or_flagged() {
    for seed in 0..schedules() {
        let (_primary, pa) = backend();
        let (_backup, ba) = backend();
        let map = ShardMap {
            shards: vec![ShardSpec {
                primary: pa,
                backup: Some(ba),
            }],
            hot: Vec::new(),
            fingerprint: None,
        };
        let cfg = RouterConfig {
            repl_sync_timeout: Duration::from_millis(250),
            auto_failover: false,
            ..RouterConfig::default()
        };
        let router = Router::connect(map, cfg).unwrap();
        let reference = reference();

        let permille = 100 + (seed % 4) as u32 * 100;
        let plan = FaultPlan::none()
            .with(FaultSite::ReplSend, permille)
            .with(FaultSite::ReplApply, permille / 2);
        let mut replicated_facts = Vec::new();
        {
            let _guard = install(seed, plan);
            for i in 0..14 {
                let fact = format!("p{}(k{}, v{}).", i % 4, i, i % 4);
                let receipt = router.assert("m", &fact).unwrap();
                reference.assert_source("m", &fact).unwrap();
                if receipt.replicated {
                    replicated_facts.push(format!("p{}(k{}, v{})", i % 4, i, i % 4));
                }
            }
        }

        router.promote(0).unwrap();
        assert!(
            router.is_failed_over(0),
            "seed {seed}: promote did not take"
        );

        let mut syms = router.symbols();
        let mut ref_syms = reference.symbols();

        // Hard guarantee: a write acknowledged as replicated was applied
        // by the backup before the ack, so it must survive the primary.
        for fact in &replicated_facts {
            let query = parse_term(fact, &mut syms).unwrap();
            let got = router.retrieve(&query, SearchMode::TwoStage).unwrap();
            assert!(
                got.stats.unified >= 1,
                "seed {seed}: replicated-acked write {fact} lost in failover"
            );
        }

        // Soft guarantee: everything else is right or visibly degraded.
        for q in ["p0(K, V)", "p1(K, V)", "p2(K, V)", "p3(K, V)"] {
            let query = parse_term(q, &mut syms).unwrap();
            let got = router.retrieve(&query, SearchMode::TwoStage).unwrap();
            let ref_query = parse_term(q, &mut ref_syms).unwrap();
            let want = reference.retrieve(&ref_query, SearchMode::TwoStage);
            if got != want {
                assert!(
                    got.stats.degraded,
                    "seed {seed}: wrong answer for {q} not flagged degraded"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Group 3: kill the primary mid-stream, automatic failover
// ---------------------------------------------------------------------

/// A writer streams commits while the primary is shut down under it;
/// health probes notice and promote the backup. Every write that was
/// acknowledged must still be queryable afterwards (flagged degraded at
/// worst), and the promoted shard accepts new writes.
#[test]
fn killing_the_primary_loses_no_acknowledged_write() {
    let (primary, pa) = backend();
    let (_backup, ba) = backend();
    let map = ShardMap {
        shards: vec![ShardSpec {
            primary: pa,
            backup: Some(ba),
        }],
        hot: Vec::new(),
        fingerprint: None,
    };
    let cfg = RouterConfig {
        heartbeat_misses: 2,
        health_timeout: Duration::from_millis(200),
        ..RouterConfig::default()
    };
    let router = Arc::new(Router::connect(map, cfg).unwrap());

    let writer = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || {
            let mut acked = Vec::new();
            for i in 0..400 {
                let fact = format!("p{}(k{}, v{}).", i % 4, i % 20, i % 8);
                match router.assert("m", &fact) {
                    Ok(receipt) => acked.push((fact, receipt.replicated)),
                    // The primary died under this write: its outcome is
                    // unknown and unacknowledged — no guarantee owed.
                    Err(_) => break,
                }
            }
            acked
        })
    };
    std::thread::sleep(Duration::from_millis(120));
    primary.shutdown();
    let acked = writer.join().unwrap();
    assert!(!acked.is_empty(), "no write ever succeeded");

    let mut promoted = false;
    for _ in 0..50 {
        if router.tick_health().contains(&0) {
            promoted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(promoted, "health probes never promoted the backup");
    assert!(router.is_failed_over(0));

    let mut syms = router.symbols();
    for (fact, replicated) in &acked {
        let q = fact.trim_end_matches('.');
        let query = parse_term(q, &mut syms).unwrap();
        let got = router.retrieve(&query, SearchMode::TwoStage).unwrap();
        if *replicated {
            assert!(
                got.stats.unified >= 1,
                "replicated-acked write {fact} lost after kill + auto-failover"
            );
        } else if got.stats.unified == 0 {
            // An acked-but-unreplicated write may be lost with the
            // primary — but then the shard must be serving degraded.
            assert!(
                got.stats.degraded,
                "lost acked write {fact} without a degraded flag"
            );
        }
    }

    // The promoted shard keeps accepting writes (now unreplicated).
    let receipt = router.assert("m", "p0(k19, v7).").unwrap();
    assert!(!receipt.replicated);
    let query = parse_term("p0(k19, v7)", &mut syms).unwrap();
    let got = router.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert!(got.stats.unified >= 1, "post-failover write not queryable");
}

// ---------------------------------------------------------------------
// Group 5: per-shard circuit breaker
// ---------------------------------------------------------------------

/// A dead primary trips the shard's circuit breaker after K consecutive
/// transport failures: further requests fast-fail with the typed
/// `ShardUnavailable` (no network touched, no worker wasted on a sick
/// node), and after a promotion plus one cooldown the half-open probe
/// closes the breaker again.
#[test]
fn breaker_opens_after_k_failures_and_recovers_via_half_open_probe() {
    let (primary, pa) = backend();
    let (_backup, ba) = backend();
    let map = ShardMap {
        shards: vec![ShardSpec {
            primary: pa,
            backup: Some(ba),
        }],
        hot: Vec::new(),
        fingerprint: None,
    };
    let threshold = 3u32;
    let cooldown = Duration::from_millis(300);
    let cfg = RouterConfig {
        auto_failover: false,
        breaker_threshold: threshold,
        breaker_cooldown: cooldown,
        client: ClientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            busy_retries: 0,
            reconnect_retries: 0,
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    };
    let router = Router::connect(map, cfg).unwrap();
    let mut syms = router.symbols();
    let query = parse_term("p0(seed, X)", &mut syms).unwrap();

    // Healthy: the breaker is closed and answers flow.
    let healthy = router.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert!(healthy.stats.unified >= 1);

    let opens_before = clare_trace::metrics().router_breaker_opens.get();
    let rejections_before = clare_trace::metrics().router_breaker_rejections.get();

    primary.shutdown();

    // K consecutive transport failures: every one is a real backend
    // conversation (Io/Protocol), not yet a breaker rejection.
    for i in 0..threshold {
        match router.retrieve(&query, SearchMode::TwoStage) {
            Err(ClusterError::Net(_)) => {}
            other => panic!("failure {i}: expected a transport error, got {other:?}"),
        }
    }
    assert_eq!(
        clare_trace::metrics().router_breaker_opens.get(),
        opens_before + 1,
        "breaker did not open after {threshold} consecutive failures"
    );

    // Open: requests fast-fail with the typed error without touching the
    // network (well under the cooldown, let alone a connect timeout).
    let t0 = std::time::Instant::now();
    match router.retrieve(&query, SearchMode::TwoStage) {
        Err(ClusterError::ShardUnavailable { shard, retry_after }) => {
            assert_eq!(shard, 0);
            assert!(retry_after <= cooldown);
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "open-breaker rejection was not a fast-fail"
    );
    assert!(clare_trace::metrics().router_breaker_rejections.get() > rejections_before);

    // Operator promotes the backup; once the cooldown elapses the next
    // request is the half-open probe, it succeeds, and the breaker
    // closes for everyone.
    router.promote(0).unwrap();
    std::thread::sleep(cooldown + Duration::from_millis(50));
    let probes_before = clare_trace::metrics().router_breaker_half_open_probes.get();
    let recovered = router.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert!(recovered.stats.unified >= 1, "probe answer lost data");
    assert!(
        clare_trace::metrics().router_breaker_half_open_probes.get() > probes_before,
        "recovery did not go through a half-open probe"
    );
    for _ in 0..3 {
        router.retrieve(&query, SearchMode::TwoStage).unwrap();
    }
}

// ---------------------------------------------------------------------
// Group 4: fingerprint mismatch refusal
// ---------------------------------------------------------------------

/// A backend serving a different knowledge base (different hello
/// fingerprint) is refused with the typed error — whether the cluster's
/// fingerprint came from the map or from the first backend seen.
#[test]
fn mismatched_kb_fingerprint_is_refused() {
    let (_s0, a0) = backend();
    let crs = ClauseRetrievalServer::shared(
        {
            let mut b = KbBuilder::new();
            b.consult("m", "entirely_different(base).").unwrap();
            b.finish(KbConfig::default())
        },
        CrsOptions::default(),
    );
    let imposter = NetServer::bind(crs, "127.0.0.1:0", NetConfig::default()).unwrap();
    let ia = imposter.local_addr().to_string();

    // First-seen fingerprint (shard 0) vs the imposter on shard 1.
    let map = ShardMap {
        shards: vec![
            ShardSpec {
                primary: a0.clone(),
                backup: None,
            },
            ShardSpec {
                primary: ia.clone(),
                backup: None,
            },
        ],
        hot: Vec::new(),
        fingerprint: None,
    };
    match Router::connect(map, RouterConfig::default()) {
        Err(ClusterError::FingerprintMismatch {
            addr,
            expected,
            got,
        }) => {
            assert_eq!(addr, ia);
            assert_ne!(expected, got);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }

    // A pinned map fingerprint refuses even the first backend; the
    // imposter as a *backup* is refused too.
    let map = ShardMap {
        shards: vec![ShardSpec {
            primary: a0,
            backup: Some(ia),
        }],
        hot: Vec::new(),
        fingerprint: Some(0xdead_beef),
    };
    match Router::connect(map, RouterConfig::default()) {
        Err(ClusterError::FingerprintMismatch { expected, .. }) => {
            assert_eq!(expected, 0xdead_beef);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}
