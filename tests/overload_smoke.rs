//! Overload smoke: a saturating client mix — runaway solves under tight
//! deadlines, budgeted and unbudgeted retrievals — fired at the serving
//! stack (the same `NetServer` core `clare-served` wraps) from many
//! threads at once. The stack must hold three lines under saturation:
//!
//! 1. **No worker is ever pinned past a deadline.** Every runaway solve
//!    comes back within seconds as a typed refusal, never by finishing
//!    its minutes-long search and never by wedging a worker.
//! 2. **Overload is shed, and the sheds are counted.** Deadline trips
//!    must land in `budget.exceeded_deadline`, and at least one request
//!    must be refused without execution (queue expiry, CoDel shed, or a
//!    `Busy` at admission).
//! 3. **Completed answers stay correct.** Every `Ok` the storm produces
//!    — and a fresh unloaded client afterwards — is byte-identical to
//!    the in-process reference. Load may slow answers or refuse them; it
//!    may never change them.
//!
//! Gated behind `CLARE_OVERLOAD_SMOKE=1` (the CI `overload-smoke` job)
//! so the default `cargo test` stays fast.

use clare::prelude::*;
use clare_core::ModeChoice;
use clare_net::ErrorCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn solve_options() -> SolveOptions {
    SolveOptions {
        mode: ModeChoice::Fixed(SearchMode::SoftwareOnly),
        max_solutions: usize::MAX,
        max_depth: 64,
    }
}

#[test]
fn saturating_mix_sheds_load_without_pinning_workers_or_corrupting_answers() {
    if std::env::var("CLARE_OVERLOAD_SMOKE").is_err() {
        eprintln!("overload_smoke: skipped (set CLARE_OVERLOAD_SMOKE=1 to run)");
        return;
    }

    let crs = Arc::new(ClauseRetrievalServer::new(kb(), CrsOptions::default()));
    let server = NetServer::bind(
        Arc::clone(&crs),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            // A short queue plus CoDel keeps the backlog honest: when the
            // workers can't keep up, refuse early instead of queueing
            // jobs that will only expire later.
            queue_depth: 8,
            codel_target: Some(Duration::from_millis(5)),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let metrics = clare_trace::metrics();
    let deadline_trips_before = metrics.budget_exceeded_deadline.get();
    let expired_before = metrics.budget_expired_in_queue.get();
    let codel_before = metrics.budget_codel_sheds.get();

    // The unloaded reference, captured before the storm.
    let reference = {
        let mut c = NetClient::connect(addr, ClientConfig::default()).unwrap();
        let mut symbols = c.symbols().unwrap();
        let query = parse_term("item(K, v1)", &mut symbols).unwrap();
        (query.clone(), crs.retrieve(&query, SearchMode::TwoStage))
    };

    let threads = 6;
    let rounds = 20;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (query, want) = reference.clone();
            std::thread::spawn(move || {
                let cfg = ClientConfig {
                    busy_retries: 0,
                    reconnect_retries: 1,
                    read_timeout: Duration::from_secs(30),
                    ..ClientConfig::default()
                };
                let mut client = NetClient::connect(addr, cfg).unwrap();
                let mut symbols = client.symbols().unwrap();
                let runaway = parse_term("runaway", &mut symbols).unwrap();
                let mut busy = 0u64;
                for round in 0..rounds {
                    if (t + round) % 3 == 0 {
                        // The saturating half of the mix: a solve whose
                        // full search takes minutes, on a 40 ms deadline.
                        client.set_deadline(Some(Duration::from_millis(40)));
                        let t0 = Instant::now();
                        let outcome = client.solve_goals(
                            std::slice::from_ref(&runaway),
                            &[],
                            &solve_options(),
                        );
                        let elapsed = t0.elapsed();
                        assert!(
                            elapsed < Duration::from_secs(10),
                            "thread {t} round {round}: runaway held its worker {elapsed:?}"
                        );
                        match outcome {
                            Err(NetError::Remote { code, .. })
                                if code == ErrorCode::DeadlineExpired
                                    || code == ErrorCode::Busy =>
                            {
                                busy += u64::from(code == ErrorCode::Busy);
                            }
                            Err(e) if e.is_connection_fatal() => {
                                // A reconnect that itself was refused
                                // under load; re-establish and move on.
                                let _ = client.reconnect();
                            }
                            other => panic!(
                                "thread {t} round {round}: runaway must be refused, got {other:?}"
                            ),
                        }
                    } else {
                        // The victim half: cheap retrievals on a humane
                        // deadline. Served answers must be the truth.
                        client.set_deadline(Some(Duration::from_millis(500)));
                        match client.retrieve(&query, SearchMode::TwoStage) {
                            Ok(got) => assert_eq!(
                                got, want,
                                "thread {t} round {round}: answer under load diverged"
                            ),
                            Err(NetError::Remote { code, .. })
                                if code == ErrorCode::DeadlineExpired
                                    || code == ErrorCode::Busy =>
                            {
                                busy += u64::from(code == ErrorCode::Busy);
                            }
                            Err(e) if e.is_connection_fatal() => {
                                let _ = client.reconnect();
                            }
                            Err(e) => panic!("thread {t} round {round}: {e}"),
                        }
                    }
                }
                busy
            })
        })
        .collect();
    let busy_refusals: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Line 2: the storm was shed somewhere, and the sheds were counted.
    let deadline_trips = metrics.budget_exceeded_deadline.get() - deadline_trips_before;
    let queue_expiries = metrics.budget_expired_in_queue.get() - expired_before;
    let codel_sheds = metrics.budget_codel_sheds.get() - codel_before;
    assert!(
        deadline_trips > 0,
        "a storm of 40 ms runaways must trip the deadline counter"
    );
    assert!(
        queue_expiries + codel_sheds + busy_refusals > 0,
        "saturation must shed at least one request before execution"
    );
    eprintln!(
        "overload_smoke: {deadline_trips} deadline trips, {queue_expiries} queue expiries, \
         {codel_sheds} codel sheds, {busy_refusals} busy refusals"
    );

    // Line 3, after the storm: an unloaded client gets the exact
    // reference bytes — nothing the shed work touched is still visible.
    let mut after = NetClient::connect(addr, ClientConfig::default()).unwrap();
    let got = after.retrieve(&reference.0, SearchMode::TwoStage).unwrap();
    assert_eq!(
        got, reference.1,
        "post-storm answer diverged from reference"
    );
    server.shutdown();
}
