//! Seeded chaos harness: deterministic fault schedules driven through the
//! full disk → FS2 → net stack.
//!
//! Every schedule is one `(seed, fault plan)` pair installed as a
//! [`DeterministicInjector`]; a failing seed reproduces exactly by
//! re-running with the same number. The invariant under *any* schedule is
//! **correct or flagged**: a request either returns the fault-free answer
//! set (possibly marked `degraded` with quarantined tracks), or it
//! surfaces a typed error — never a panic, never a silently wrong answer.
//!
//! The schedule count scales with the `CLARE_CHAOS_SCHEDULES` environment
//! variable (CI runs 10 000; the local default keeps `cargo test` quick).
//! Set `CLARE_CHAOS_REPORT=1` to dump the end-of-run metrics counters to
//! `target/chaos-metrics.json`.

use clare::prelude::*;
use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Total seeded schedules to run, split across the harness's tests.
fn schedules() -> u64 {
    std::env::var("CLARE_CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300)
        .max(30)
}

/// A knowledge base big enough that its main predicate spans several
/// disk tracks — quarantining one track must not take the others along.
fn chaos_kb() -> (KnowledgeBase, Vec<Term>) {
    let mut b = KbBuilder::new();
    let facts: String = (0..3000)
        .map(|i| format!("fact(k{}, v{}).", i % 120, i % 7))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("chaos", &facts).unwrap();
    let kb = b.finish(KbConfig::default());

    let functor = kb.symbols().lookup_atom("fact").unwrap();
    let tracks = kb.predicate(functor, 2).unwrap().file().tracks().len();
    assert!(tracks >= 4, "chaos KB spans only {tracks} tracks");

    let mut symbols = kb.symbols().clone();
    let queries = ["fact(k100, X)", "fact(K, v3)", "fact(k7, v0)"]
        .iter()
        .map(|q| parse_term(q, &mut symbols).unwrap())
        .collect();
    (kb, queries)
}

/// The fault injector is process-wide: a storm one test installs also
/// hits whatever a sibling test is doing outside its own install guard
/// (computing a fault-free reference, checking the calm after a storm).
/// Every test in this binary therefore holds this lock for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn install(seed: u64, plan: FaultPlan) -> clare_fault::InstallGuard {
    clare_fault::install(Arc::new(DeterministicInjector::new(seed, plan)))
}

/// Writes the global metrics counters as JSON when `CLARE_CHAOS_REPORT`
/// is set, so the CI chaos-smoke job can archive what actually happened.
fn maybe_report() {
    if std::env::var("CLARE_CHAOS_REPORT").is_err() {
        return;
    }
    let snapshot = clare_trace::metrics().snapshot();
    let mut json = String::from("{\n");
    for (i, (name, v)) in snapshot.counters.iter().enumerate() {
        let sep = if i + 1 == snapshot.counters.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!("  \"{name}\": {v}{sep}\n"));
    }
    json.push_str("}\n");
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/chaos-metrics.json", json);
}

/// Disk corruption across the full schedule budget: the unified answer
/// count never moves, any quarantine is flagged `degraded`, and nothing
/// escapes as a panic.
#[test]
fn storage_and_sweep_chaos_is_correct_or_flagged() {
    let _serial = serial();
    let (kb, queries) = chaos_kb();
    let opts = CrsOptions::default();
    let modes = [SearchMode::Fs2Only, SearchMode::TwoStage];
    let reference: Vec<Retrieval> = queries
        .iter()
        .flat_map(|q| modes.iter().map(|&m| retrieve(&kb, q, m, &opts)))
        .collect();

    let total = schedules();
    let mut quarantines = 0u64;
    for seed in 0..total {
        // Sweep the intensity so light and heavy storms both run.
        let permille = 100 + (seed % 8) as u32 * 100;
        let plan = FaultPlan::none().with(FaultSite::DiskTrackRead, permille);
        let _guard = install(seed, plan);
        for (pair, want) in queries
            .iter()
            .flat_map(|q| modes.iter().map(move |&m| (q, m)))
            .zip(&reference)
        {
            let (query, mode) = pair;
            let got = retrieve(&kb, query, mode, &opts);
            assert_eq!(
                got.stats.unified, want.stats.unified,
                "seed {seed}: the answer set moved under faults"
            );
            assert!(
                got.stats.candidates >= want.stats.unified,
                "seed {seed}: the filter dropped a true answer"
            );
            if got.stats.quarantined_tracks > 0 {
                assert!(got.stats.degraded, "seed {seed}: unflagged quarantine");
                quarantines += 1;
            }
        }
    }
    assert!(
        quarantines > 0,
        "no schedule ever quarantined a track — the harness is not biting"
    );
    maybe_report();
}

/// Torn `.ckb` writes and corrupted reads across the schedule budget:
/// `save`/`load` round-trips either reproduce the exact knowledge base or
/// fail with a typed error — no panic, no silently different KB.
#[test]
fn kb_io_chaos_never_loads_a_corrupt_kb() {
    let _serial = serial();
    let (kb, queries) = chaos_kb();
    let opts = CrsOptions::default();
    let reference: Vec<usize> = queries
        .iter()
        .map(|q| retrieve(&kb, q, SearchMode::TwoStage, &opts).stats.unified)
        .collect();

    let total = schedules();
    let mut survived = 0u64;
    let mut refused = 0u64;
    for seed in 0..total {
        let permille = 1 + (seed % 40) as u32; // subtle, not saturating
        let plan = match seed % 3 {
            0 => FaultPlan::none().with(FaultSite::KbRead, permille),
            1 => FaultPlan::none().with(FaultSite::CkbWrite, permille),
            _ => FaultPlan::none()
                .with(FaultSite::KbRead, permille)
                .with(FaultSite::CkbWrite, permille),
        };
        let _guard = install(seed, plan);
        let mut bytes = Vec::new();
        let saved = clare_kb::io::save(&kb, &mut bytes);
        if saved.is_err() {
            refused += 1; // a torn write was caught at save time
            continue;
        }
        match clare_kb::io::load(&mut bytes.as_slice(), KbConfig::default()) {
            Ok(loaded) => {
                let got: Vec<usize> = queries
                    .iter()
                    .map(|q| {
                        retrieve(&loaded, q, SearchMode::TwoStage, &opts)
                            .stats
                            .unified
                    })
                    .collect();
                assert_eq!(got, reference, "seed {seed}: a corrupt KB slipped through");
                survived += 1;
            }
            Err(_) => refused += 1,
        }
    }
    assert_eq!(survived + refused, total);
    assert!(survived > 0, "every schedule failed — checksums too eager?");
    assert!(refused > 0, "no schedule ever corrupted the stream");
    maybe_report();
}

/// Cache-poisoning schedules: a cache-enabled [`ClauseRetrievalServer`]
/// under disk-corruption storms. The invariant is that the cache can
/// never launder a faulted answer into a later fault-free request: only
/// non-degraded answers are cacheable, a non-degraded answer must be
/// byte-identical to the fault-free reference, and every track quarantine
/// bumps the predicate epoch so entries cached *before* the quarantine
/// verdict was memoized cannot survive it.
#[test]
fn cache_hits_never_serve_poisoned_answers_under_chaos() {
    let _serial = serial();
    let (kb, queries) = chaos_kb();
    let opts = CrsOptions::default();
    // Fault-free reference, computed before any injector installs.
    let reference: Vec<Retrieval> = queries
        .iter()
        .map(|q| retrieve(&kb, q, SearchMode::TwoStage, &opts))
        .collect();
    let server = ClauseRetrievalServer::new(kb, opts.clone());

    let total = schedules();
    let mut quarantines = 0u64;
    let hits_before = clare_trace::metrics().cache_hits.get();
    for seed in 0..total {
        let permille = 100 + (seed % 8) as u32 * 100;
        let plan = FaultPlan::none().with(FaultSite::DiskTrackRead, permille);
        let storm = install(seed, plan);
        for (query, want) in queries.iter().zip(&reference) {
            let got = server.retrieve(query, SearchMode::TwoStage);
            assert_eq!(
                got.stats.unified, want.stats.unified,
                "seed {seed}: the answer set moved under faults"
            );
            quarantines += got.stats.quarantined_tracks as u64;
            if !got.stats.degraded {
                // The cacheable subset: anything here may be served
                // verbatim to a later request, so it must already BE
                // the fault-free answer, byte for byte.
                assert_eq!(
                    got, *want,
                    "seed {seed}: a non-degraded (cacheable) answer diverged"
                );
            }
        }
        // Calm after the storm: with no faults injected, the cached
        // server must agree byte-for-byte with a fresh uncached pipeline
        // run on its current snapshot. A storm-era entry outliving the
        // quarantine verdicts it predates would show up right here.
        drop(storm);
        for query in &queries {
            let got = server.retrieve(query, SearchMode::TwoStage);
            let fresh = retrieve(&server.snapshot(), query, SearchMode::TwoStage, &opts);
            assert_eq!(
                got, fresh,
                "seed {seed}: post-storm cache state diverged from the pipeline"
            );
        }
    }
    assert!(
        quarantines > 0,
        "no schedule ever quarantined a track — the harness is not biting"
    );
    // Liveness: repeats against one server across {total} schedules must
    // have produced cache hits. Sibling tests in this binary can only
    // inflate the process-wide counter; the precise hit/skip accounting
    // lives in crates/core/tests/cache_counters.rs.
    assert!(
        clare_trace::metrics().cache_hits.get() > hits_before,
        "the cache never once served a hit"
    );
    maybe_report();
}

/// Network chaos over a live loopback daemon: dropped, truncated, and
/// bit-flipped frames in both directions, with frame checksums
/// negotiated. Every retrieval either matches the direct in-process
/// answer exactly or fails with a typed error after bounded retries; the
/// daemon itself never wedges and keeps serving clean clients afterwards.
#[test]
fn net_chaos_over_loopback_is_correct_or_flagged() {
    let _serial = serial();
    let (kb, queries) = chaos_kb();
    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", NetConfig::default()).unwrap();
    let reference: Vec<Retrieval> = queries
        .iter()
        .map(|q| crs.retrieve(q, SearchMode::TwoStage))
        .collect();

    // TCP round-trips dominate here, so the net share of the budget is
    // scaled down; dropped frames each cost one client read timeout.
    let total = (schedules() / 25).max(20);
    let cfg = ClientConfig {
        read_timeout: Duration::from_millis(300),
        reconnect_retries: 4,
        busy_retries: 2,
        ..ClientConfig::default()
    };
    let mut flagged = 0u64;
    let injected_before = clare_fault::injected_total();
    let reconnects_before = clare_trace::metrics().net_client_reconnects.get();
    for seed in 0..total {
        let permille = 50 + (seed % 6) as u32 * 50;
        let plan = match seed % 3 {
            0 => FaultPlan::none().with(FaultSite::NetServerSend, permille),
            1 => FaultPlan::none().with(FaultSite::NetClientSend, permille),
            _ => FaultPlan::none()
                .with(FaultSite::NetServerSend, permille)
                .with(FaultSite::NetClientSend, permille),
        };
        let _guard = install(seed, plan);
        let Ok(mut client) = NetClient::connect(server.local_addr(), cfg.clone()) else {
            flagged += 1; // the handshake itself may eat a fault
            continue;
        };
        for (query, want) in queries.iter().zip(&reference) {
            match client.retrieve(query, SearchMode::TwoStage) {
                Ok(got) => assert_eq!(
                    &got, want,
                    "seed {seed}: a faulted connection returned a different answer"
                ),
                Err(_) => flagged += 1, // flagged, never silently wrong
            }
        }
    }
    // Recovery (reconnect-and-replay) is the *desired* outcome, so a zero
    // `flagged` count is fine — but the storm must demonstrably have hit,
    // and hits must have been either recovered or flagged.
    let injected = clare_fault::injected_total() - injected_before;
    let reconnects = clare_trace::metrics().net_client_reconnects.get() - reconnects_before;
    assert!(injected > 0, "no net fault was ever injected");
    assert!(
        reconnects > 0 || flagged > 0,
        "{injected} faults injected yet none was ever observed by the client"
    );

    // With the injector gone the same daemon serves a clean client
    // perfectly: nothing wedged, nothing leaked into later connections.
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    for (query, want) in queries.iter().zip(&reference) {
        assert_eq!(&client.retrieve(query, SearchMode::TwoStage).unwrap(), want);
    }
    server.shutdown();
    maybe_report();
}

/// WAL kill-and-recover chaos: a mutable server takes a seeded stream of
/// assert/retract commits (with compactions mixed in) while torn-append
/// faults cut the power mid-batch. After every "crash" the log is
/// reopened — sometimes with extra garbage scribbled on the tail — and
/// the recovered server must (a) hold every acknowledged write, (b) never
/// resurrect more than was attempted, and (c) answer byte-identically to
/// a reference server that applied the recovered prefix from scratch.
#[test]
fn wal_kill_and_recover_loses_no_acked_write() {
    let _serial = serial();
    /// Deterministic per-seed stream: xorshift64*.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A small deterministic base; rebuilt identically for the crashed
    /// server, the recovered server, and the from-scratch reference, so
    /// all three share one symbol lineage.
    fn base_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let facts: String = (0..120)
            .map(|i| format!("item(k{}, v{}).", i % 12, i % 5))
            .collect::<Vec<_>>()
            .join("\n");
        b.consult("chaos", &facts).unwrap();
        b.finish(KbConfig::default())
    }

    let total = (schedules() / 10).max(20);
    let wal_faults_before = clare_fault::injected_counts()[FaultSite::WalAppend.index()];
    let mut crashed = 0u64;
    let mut survived = 0u64;
    for seed in 0..total {
        let path =
            std::env::temp_dir().join(format!("clare-chaos-wal-{}-{seed}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Phase 1: a server with the WAL attached takes commits under a
        // torn-append storm until it finishes or "loses power".
        let server = ClauseRetrievalServer::new(base_kb(), CrsOptions::default());
        server.attach_wal(&path).unwrap();
        let permille = 30 + (seed % 8) as u32 * 30;
        let guard = install(seed, FaultPlan::none().with(FaultSite::WalAppend, permille));
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut attempted: Vec<WalOp> = Vec::new();
        let mut acked = 0usize;
        let mut did_crash = false;
        for step in 0..30 {
            let batch: Vec<WalOp> = (0..1 + rng.below(3))
                .map(|_| {
                    if rng.below(4) == 0 && !attempted.is_empty() {
                        // Retract something attempted earlier (possibly
                        // already gone: quiet retract/1 no-op).
                        let i = rng.below(attempted.len() as u64) as usize;
                        let (WalOp::Assert { module, source } | WalOp::Retract { module, source }) =
                            &attempted[i];
                        WalOp::Retract {
                            module: module.clone(),
                            source: source.clone(),
                        }
                    } else {
                        WalOp::Assert {
                            module: "chaos".into(),
                            source: format!("grew(s{step}, n{}).", rng.below(6)),
                        }
                    }
                })
                .collect();
            match server.apply_ops(batch.clone()) {
                Ok(receipt) => {
                    assert!(receipt.durable, "seed {seed}: WAL attached but not durable");
                    attempted.extend(batch);
                    acked = attempted.len();
                }
                Err(CommitError::Wal(_)) => {
                    // Power loss mid-append: some prefix of the batch may
                    // have reached the platter, but nothing was acked.
                    attempted.extend(batch);
                    did_crash = true;
                    break;
                }
                Err(e) => panic!("seed {seed}: well-formed op rejected: {e}"),
            }
            if rng.below(6) == 0 {
                let outcome = server.compact_now();
                assert!(
                    outcome != CompactionOutcome::Failed,
                    "seed {seed}: compaction failed mid-stream"
                );
            }
        }
        drop(guard);
        drop(server); // the crash: only the WAL file survives

        // Some crashes also rot the tail: scribble garbage after the
        // last intact frame and let recovery truncate it away.
        if seed % 4 == 0 {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xAB; 13]).unwrap();
        }

        // Phase 2: recovery. Replay must hand back every acked write (a
        // durable prefix at least `acked` long) and nothing invented.
        let recovered = ClauseRetrievalServer::new(base_kb(), CrsOptions::default());
        let report = recovered.attach_wal(&path).unwrap();
        assert!(
            report.records >= acked,
            "seed {seed}: replay lost acked writes ({} < {acked})",
            report.records
        );
        assert!(
            report.records <= attempted.len(),
            "seed {seed}: replay invented records ({} > {})",
            report.records,
            attempted.len()
        );
        if did_crash {
            crashed += 1;
        } else {
            survived += 1;
            assert_eq!(
                report.records, acked,
                "seed {seed}: clean run replay mismatch"
            );
        }

        // Phase 3: byte-identity. A reference server applies the same
        // recovered prefix from scratch (no WAL); every mode must agree
        // exactly, before and after compacting the recovered state.
        let reference = ClauseRetrievalServer::new(base_kb(), CrsOptions::default());
        if report.records > 0 {
            reference
                .apply_ops(attempted[..report.records].to_vec())
                .unwrap();
        }
        let mut symbols = recovered.symbols();
        let queries: Vec<Term> = ["item(k3, X)", "grew(A, B)", "grew(s7, n2)", "item(K, v1)"]
            .iter()
            .map(|q| parse_term(q, &mut symbols).unwrap())
            .collect();
        for query in &queries {
            for &mode in &SearchMode::ALL {
                assert_eq!(
                    recovered.retrieve(query, mode),
                    reference.retrieve(query, mode),
                    "seed {seed}: recovered answers diverged ({mode:?})"
                );
            }
        }
        let outcome = recovered.compact_now();
        assert!(outcome != CompactionOutcome::Failed, "seed {seed}");
        for query in &queries {
            for &mode in &SearchMode::ALL {
                assert_eq!(
                    recovered.retrieve(query, mode).stats.unified,
                    reference.retrieve(query, mode).stats.unified,
                    "seed {seed}: compacting the recovered state moved answers"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    let wal_faults =
        clare_fault::injected_counts()[FaultSite::WalAppend.index()] - wal_faults_before;
    assert!(wal_faults > 0, "no torn append was ever injected");
    assert!(
        crashed > 0,
        "no schedule ever crashed — the harness is not biting"
    );
    assert!(
        survived > 0,
        "every schedule crashed — nothing tested clean recovery"
    );
    maybe_report();
}

/// Reactor event-loop chaos: short reads that split frames (and their
/// length prefixes) across readiness events, spurious `EAGAIN`-style
/// wakeups that deliver nothing, and torn writes that cut a flush short
/// mid-frame. Unlike `NetServerSend` faults these perturb *scheduling*,
/// not bytes — the reassembly and resumed-write paths must make them
/// invisible: every answer byte-identical, no CRC failures, the client
/// never even reconnects. A bounded number of timeouts under the heaviest
/// storms is the acceptable *flagged* outcome.
#[test]
fn reactor_read_write_chaos_is_transparent() {
    let _serial = serial();
    let (kb, queries) = chaos_kb();
    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", NetConfig::default()).unwrap();
    let reference: Vec<Retrieval> = queries
        .iter()
        .map(|q| crs.retrieve(q, SearchMode::TwoStage))
        .collect();

    let total = (schedules() / 25).max(20);
    let client_cfg = ClientConfig {
        read_timeout: Duration::from_secs(2),
        reconnect_retries: 2,
        ..ClientConfig::default()
    };
    let counts_before = clare_fault::injected_counts();
    let crc_before = clare_trace::metrics().net_frame_crc_failures.get();
    let mut served = 0u64;
    let mut flagged = 0u64;
    for seed in 0..total {
        let permille = 100 + (seed % 8) as u32 * 100;
        let plan = match seed % 3 {
            0 => FaultPlan::none().with(FaultSite::NetReactorRead, permille),
            1 => FaultPlan::none().with(FaultSite::NetReactorWrite, permille),
            _ => FaultPlan::none()
                .with(FaultSite::NetReactorRead, permille)
                .with(FaultSite::NetReactorWrite, permille),
        };
        let _guard = install(seed, plan);
        let Ok(mut client) = NetClient::connect(server.local_addr(), client_cfg.clone()) else {
            flagged += 1;
            continue;
        };
        for (query, want) in queries.iter().zip(&reference) {
            match client.retrieve(query, SearchMode::TwoStage) {
                Ok(got) => {
                    assert_eq!(
                        &got, want,
                        "seed {seed}: a scheduling fault changed answer bytes"
                    );
                    served += 1;
                }
                Err(_) => flagged += 1,
            }
        }
    }
    let counts = clare_fault::injected_counts();
    let read_faults = counts[FaultSite::NetReactorRead.index()]
        - counts_before[FaultSite::NetReactorRead.index()];
    let write_faults = counts[FaultSite::NetReactorWrite.index()]
        - counts_before[FaultSite::NetReactorWrite.index()];
    assert!(read_faults > 0, "no reactor read fault was ever injected");
    assert!(write_faults > 0, "no reactor write fault was ever injected");
    assert!(
        served > flagged * 10,
        "transparent faults should rarely be visible: {served} served vs {flagged} flagged"
    );
    assert_eq!(
        clare_trace::metrics().net_frame_crc_failures.get(),
        crc_before,
        "a reactor scheduling fault corrupted frame bytes"
    );

    // Clean client after the storm: nothing wedged in the event loop.
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    for (query, want) in queries.iter().zip(&reference) {
        assert_eq!(&client.retrieve(query, SearchMode::TwoStage).unwrap(), want);
    }
    server.shutdown();
    maybe_report();
}
