//! Overhead budget for the observability layer: the FS2 sweep with the
//! metric recording a request's context does around it (per-track counts
//! kept in the request's `RequestCounts`, the clock read at the pass's
//! start and end, the sweep's modelled and wall samples, and one
//! publication of the request's counts to the process registry — here a
//! request of one sweep) must cost less than 2% over the bare sweep.
//!
//! Both arms sweep a compiled `fact/3` predicate the way `crs.rs` does,
//! in one pass: [`Fs2Engine::match_track`] per track over the predicate's
//! [`ClauseArena`], walking only the clauses the first-word posting lists
//! select for the keyed query, each hit's address pushed straight onto one
//! ascending satisfier list and each track's modelled time summed.
//!
//! The check is a paired measurement that fails the bench run loudly if
//! the budget is blown. Each round times both arms back to back, in
//! alternating order, and the check takes the median of the per-round
//! ratios: on a shared host one sweep swings by ±30 % from round to
//! round, so the minimum of each arm taken separately lets a single lucky
//! round decide the ratio.

use clare_core::RequestCounts;
use clare_disk::SimNanos;
use clare_fs2::{Fs2Engine, Selection};
use clare_kb::{ClauseArena, KbBuilder, KbConfig, KnowledgeBase};
use clare_pif::{encode_query, PifStream};
use clare_scw::ClauseAddr;
use clare_term::parser::parse_term;
use std::hint::black_box;
use std::time::{Duration, Instant};

const CLAUSES: usize = 20_000;

/// Sweeps per timed arm of a round: one sweep is tens of µs, too short
/// to time alone against the 2% budget.
const SWEEPS_PER_ROUND: usize = 50;

/// Paired rounds; odd, so the median is one round's ratio.
const ROUNDS: usize = 31;

/// How long both arms run untimed before the first round.
const WARM_UP: Duration = Duration::from_secs(2);

/// The predicate and the query's stream, which the engine borrows.
fn workload() -> (KnowledgeBase, PifStream) {
    let mut b = KbBuilder::new();
    let facts: Vec<String> = (0..CLAUSES)
        .map(|i| format!("fact(k{}, v{}, t{}).", i % 37, i, i % 11))
        .collect();
    b.consult("m", &facts.join("\n")).unwrap();
    let query = parse_term("fact(k17, X, T)", b.symbols_mut()).unwrap();
    (b.finish(KbConfig::default()), encode_query(&query).unwrap())
}

fn arena(kb: &KnowledgeBase) -> &ClauseArena {
    kb.lookup("fact", 3).expect("fact/3").arena()
}

/// The posting-list selection the pipeline hands the engine for `engine`'s
/// query.
fn selection<'a>(arena: &'a ClauseArena, engine: &Fs2Engine) -> Selection<'a> {
    let key = engine.first_key().expect("keyed query");
    Selection::Keyed {
        keyed: arena.key_clauses(key),
        zero: arena.zero_key_clauses(),
    }
}

/// The bare sweep: what the one-pass FS2 sweep costs with no
/// observability. Returns the satisfier count.
fn run_bare(arena: &ClauseArena, engine: &mut Fs2Engine) -> usize {
    let mut selection = selection(arena, engine);
    let mut satisfiers = Vec::new();
    let mut modelled = SimNanos::ZERO;
    for t in 0..arena.track_count() {
        let track = t as u32;
        let verdict = engine.match_track(
            arena.track_clauses(t),
            &mut selection,
            |c| arena.stream(c),
            |slot| satisfiers.push(ClauseAddr::new(track, slot)),
        );
        modelled += verdict.time;
    }
    black_box(modelled);
    satisfiers.len()
}

/// The instrumented sweep: exactly what the request context does for a
/// one-sweep request — the pass's two clock reads, the counts kept in
/// the request's `RequestCounts`, the sweep's modelled and wall samples,
/// and the context's one publication of the request's counts (the plan
/// compile and the engine load included).
fn run_instrumented(arena: &ClauseArena, engine: &mut Fs2Engine) -> usize {
    let started = Instant::now();
    let mut counts = RequestCounts {
        crs_query_compiles: 1,
        fs2_queries_loaded: 1,
        ..RequestCounts::default()
    };
    let mut selection = selection(arena, engine);
    let mut satisfiers = Vec::new();
    let mut modelled = SimNanos::ZERO;
    for t in 0..arena.track_count() {
        let (track, range) = (t as u32, arena.track_clauses(t));
        counts.fs2_clauses += range.len() as u64;
        let verdict = engine.match_track(
            range,
            &mut selection,
            |c| arena.stream(c),
            |slot| satisfiers.push(ClauseAddr::new(track, slot)),
        );
        counts.fs2_tracks += 1;
        counts.fs2_satisfiers += verdict.satisfiers as u64;
        for (total, n) in counts.fs2_ops.iter_mut().zip(verdict.op_histogram) {
            *total += n;
        }
        modelled += verdict.time;
    }
    counts.fs2_sweeps += 1;
    let m = clare_trace::metrics();
    m.fs2_modelled_ns.record(modelled.as_ns());
    m.fs2_wall_ns.record(started.elapsed().as_nanos() as u64);
    counts.publish(m);
    satisfiers.len()
}

fn main() {
    let (kb, stream) = workload();
    let mut engine = Fs2Engine::new(&stream).unwrap();
    let arena = arena(&kb);
    // Warm up caches and the registry; both arms must agree.
    assert_eq!(
        black_box(run_bare(arena, &mut engine)),
        black_box(run_instrumented(arena, &mut engine)),
    );

    let mut time = |sweep: fn(&ClauseArena, &mut Fs2Engine) -> usize| {
        let t = Instant::now();
        for _ in 0..SWEEPS_PER_ROUND {
            black_box(sweep(black_box(arena), &mut engine));
        }
        t.elapsed().as_secs_f64() / SWEEPS_PER_ROUND as f64
    };
    // Spin both arms untimed first, so the rounds do not also time the
    // host settling (clock ramp, first touches of the arena).
    let warm_up = Instant::now();
    while warm_up.elapsed() < WARM_UP {
        time(run_bare);
        time(run_instrumented);
    }
    // Time both arms back to back, alternating which goes first, so the
    // two halves of a round see the same machine.
    let mut rounds: Vec<(f64, f64)> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let bare = time(run_bare);
                (bare, time(run_instrumented))
            } else {
                let instrumented = time(run_instrumented);
                (time(run_bare), instrumented)
            }
        })
        .collect();
    rounds.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (bare, instrumented) = rounds[ROUNDS / 2];
    let overhead = instrumented / bare - 1.0;
    println!(
        "fs2 sweep metric-recording overhead: {:+.3}% (median of {ROUNDS} paired rounds; \
         bare {:.2} µs, instrumented {:.2} µs per sweep in that round)",
        overhead * 100.0,
        bare * 1e6,
        instrumented * 1e6,
    );
    assert!(
        overhead < 0.02,
        "observability overhead {:.3}% blows the 2% budget",
        overhead * 100.0
    );
}
