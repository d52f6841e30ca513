//! End-to-end deadlines, cooperative cancellation, and queue shedding
//! over the real wire: a `clare-net` server on real sockets, driven by
//! v4 clients that attach deadlines and work ceilings to their requests.
//!
//! The invariants:
//!
//! 1. **A runaway query cannot pin a worker.** A solve whose search
//!    space is effectively unbounded, sent with a 50 ms deadline, comes
//!    back as a typed `DeadlineExpired` error within one cancellation
//!    checkpoint of the deadline — never a silent partial answer — and
//!    the worker it occupied is immediately available to other clients.
//! 2. **Work ceilings are enforced remotely.** A protocol-v4 budget
//!    (solve-step or candidate limit) trips server-side with the typed
//!    `BudgetExceeded` error code, and the same query re-run without a
//!    budget is byte-identical to an in-process reference — the
//!    cancelled attempt left nothing behind (no cache pollution).
//! 3. **Deadlines cover queue time.** Under a deterministic
//!    `WorkerStall` chaos schedule, jobs whose deadline elapses while
//!    they wait behind a stalled worker are shed with `DeadlineExpired`
//!    *without being executed*, and the shed is counted
//!    (`budget.expired_in_queue`).

use clare::prelude::*;
use clare_core::ModeChoice;
use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
use clare_net::{BudgetExt, ErrorCode};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Fault injection and trace metrics are process-global; the tests in
/// this file serialize so one test's chaos schedule or counter deltas
/// never leak into another's assertions.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A knowledge base with a cheap fact table and a `runaway` predicate
/// whose proof search is an exhaustive 2^26-path failure — minutes of
/// work at bounded depth, i.e. unbounded for any sane deadline but
/// incapable of overflowing the solver stack.
fn kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    let goals: Vec<String> = (0..26).map(|i| format!("p(A{i})")).collect();
    let src = format!(
        "p(a). p(b).\n\
         item(k1, v1). item(k2, v2). item(k3, v1). item(k4, v2).\n\
         absent(never).\n\
         runaway :- {}, absent(A0).\n",
        goals.join(", ")
    );
    b.consult("m", &src).unwrap();
    b.finish(KbConfig::default())
}

fn serve(cfg: NetConfig) -> (NetServer, Arc<ClauseRetrievalServer>) {
    let crs = Arc::new(ClauseRetrievalServer::new(kb(), CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();
    (server, crs)
}

fn solve_options() -> SolveOptions {
    SolveOptions {
        mode: ModeChoice::Fixed(SearchMode::SoftwareOnly),
        max_solutions: usize::MAX,
        max_depth: 64,
    }
}

/// Invariant 1: the runaway solve with a 50 ms deadline returns the
/// typed error promptly, the lone worker is released, and a bystander
/// client's answers stay byte-identical to the in-process reference.
#[test]
fn runaway_solve_with_deadline_releases_worker_and_returns_typed_error() {
    let _serial = serial();
    let (server, crs) = serve(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let mut symbols = client.symbols().unwrap();
    let runaway = parse_term("runaway", &mut symbols).unwrap();
    let query = parse_term("item(K, v1)", &mut symbols).unwrap();

    let deadline_trips_before = clare_trace::metrics().budget_exceeded_deadline.get();

    client.set_deadline(Some(Duration::from_millis(50)));
    let t0 = Instant::now();
    match client.solve_goals(std::slice::from_ref(&runaway), &[], &solve_options()) {
        Err(NetError::Remote { code, .. }) => assert_eq!(
            code,
            ErrorCode::DeadlineExpired,
            "runaway must die with the deadline code"
        ),
        other => panic!("expected a typed deadline error, got {other:?}"),
    }
    let cancelled_after = t0.elapsed();
    // Cancellation latency is one cooperative checkpoint (one solve
    // expansion) past the deadline — generous slack for a loaded CI box,
    // but nowhere near the minutes the search would actually take.
    assert!(
        cancelled_after < Duration::from_secs(5),
        "cancellation took {cancelled_after:?}; the worker was pinned"
    );
    assert!(
        clare_trace::metrics().budget_exceeded_deadline.get() > deadline_trips_before,
        "the deadline trip must be counted"
    );

    // The single worker must be free *now*: a second client's retrieve
    // completes and matches the in-process reference byte for byte.
    let mut bystander = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let networked = bystander.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(
        networked,
        crs.retrieve(&query, SearchMode::TwoStage),
        "post-cancellation answer diverged from the reference"
    );

    // The deadline-free path still works on the same connection.
    client.set_deadline(None);
    let again = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(again, crs.retrieve(&query, SearchMode::TwoStage));
    server.shutdown();
}

/// Invariant 2: v4 work ceilings (solve steps, retrieval candidates)
/// trip server-side with the `BudgetExceeded` code, and the same
/// queries re-run unlimited are byte-identical to the reference — the
/// cancelled attempts polluted nothing.
#[test]
fn work_ceilings_trip_with_typed_budget_code_and_pollute_nothing() {
    let _serial = serial();
    let (server, crs) = serve(NetConfig {
        workers: 2,
        ..NetConfig::default()
    });
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    assert!(
        client.budget_capable(),
        "a v4 client against a v4 server must negotiate the budget capability"
    );
    let mut symbols = client.symbols().unwrap();
    let runaway = parse_term("runaway", &mut symbols).unwrap();
    let query = parse_term("item(K, V)", &mut symbols).unwrap();

    let steps_before = clare_trace::metrics().budget_exceeded_steps.get();
    let cands_before = clare_trace::metrics().budget_exceeded_candidates.get();

    // Step ceiling on the runaway solve.
    client.set_budget(BudgetExt {
        solve_step_limit: 64,
        candidate_limit: 0,
    });
    match client.solve_goals(&[runaway], &[], &solve_options()) {
        Err(NetError::Remote { code, message, .. }) => {
            assert_eq!(code, ErrorCode::BudgetExceeded);
            assert!(
                message.contains("step"),
                "error message should name the tripped limit, got {message:?}"
            );
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(clare_trace::metrics().budget_exceeded_steps.get() > steps_before);

    // Candidate ceiling on a retrieval that matches 4 clauses.
    client.set_budget(BudgetExt {
        solve_step_limit: 0,
        candidate_limit: 1,
    });
    match client.retrieve(&query, SearchMode::TwoStage) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExceeded),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(clare_trace::metrics().budget_exceeded_candidates.get() > cands_before);

    // Unlimited again: byte-identical to the in-process reference, so
    // the tripped attempts cached nothing and corrupted nothing.
    client.set_budget(BudgetExt::NONE);
    let networked = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(networked, crs.retrieve(&query, SearchMode::TwoStage));
    server.shutdown();
}

/// Invariant 3: with a deterministic `WorkerStall` schedule pinning the
/// single worker past every caller's deadline, queued jobs are shed as
/// `DeadlineExpired` without execution and the shed is counted.
#[test]
fn deadline_expired_in_queue_is_shed_not_executed() {
    let _serial = serial();
    let (server, _crs) = serve(NetConfig {
        workers: 1,
        queue_depth: 64,
        ..NetConfig::default()
    });

    // Every job consults the WorkerStall site (permille 1000) and the
    // deterministic injector holds the worker up to 100 ms — far past
    // the 20 ms deadlines below, so jobs expire while queued.
    let plan = FaultPlan::none().with(FaultSite::WorkerStall, 1000);
    let _guard = clare_fault::install(Arc::new(DeterministicInjector::new(7, plan)));

    let expired_before = clare_trace::metrics().budget_expired_in_queue.get();

    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let cfg = ClientConfig {
                    busy_retries: 0,
                    reconnect_retries: 0,
                    ..ClientConfig::default()
                };
                let mut client = NetClient::connect(addr, cfg).unwrap();
                let mut symbols = client.symbols().unwrap();
                let query = parse_term("item(K, v1)", &mut symbols).unwrap();
                client.set_deadline(Some(Duration::from_millis(20)));
                client.retrieve(&query, SearchMode::TwoStage)
            })
        })
        .collect();

    let mut expired = 0usize;
    for handle in handles {
        match handle.join().unwrap() {
            // A fast slot: the job ran inside its deadline. Fine.
            Ok(_) => {}
            Err(NetError::Remote {
                code: ErrorCode::DeadlineExpired,
                ..
            }) => {
                expired += 1;
            }
            // The lone worker is stalled; late arrivals may be shed at
            // the queue instead. Also a refusal, never a partial answer.
            Err(NetError::Remote {
                code: ErrorCode::Busy,
                ..
            }) => {}
            other => panic!("expected served/expired/busy, got {other:?}"),
        }
    }
    assert!(
        expired >= 1,
        "with a stalled worker and 20 ms deadlines, some job must expire"
    );
    assert!(
        clare_trace::metrics().budget_expired_in_queue.get() > expired_before,
        "queue-expired jobs must bump budget.expired_in_queue"
    );
    server.shutdown();
}
