//! Overhead budget for the observability layer: the FS2 sweep with the
//! metric recording the retrieval pipeline does (per-track local counts,
//! published to the process registry once per sweep together with the
//! sweep's modelled and wall times) must cost less than 2% over the bare
//! sweep.
//!
//! Both arms sweep a compiled `fact/3` predicate the way `crs.rs` does:
//! [`Fs2Engine::match_track`] per track over the predicate's
//! [`ClauseArena`], walking only the clauses the first-word posting lists
//! select for the keyed query.
//!
//! The check is a paired measurement that fails the bench run loudly if
//! the budget is blown. Each round times both arms back to back, in
//! alternating order, and the check takes the median of the per-round
//! ratios: on a shared host one sweep swings by ±30 % from round to
//! round, so the minimum of each arm taken separately lets a single lucky
//! round decide the ratio.

use clare_disk::SimNanos;
use clare_fs2::{Fs2Engine, Selection};
use clare_kb::{ClauseArena, KbBuilder, KbConfig, KnowledgeBase};
use clare_pif::encode_query;
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

fn workload() -> (KnowledgeBase, Fs2Engine) {
    let mut b = KbBuilder::new();
    let facts: Vec<String> = (0..CLAUSES)
        .map(|i| format!("fact(k{}, v{}, t{}).", i % 37, i, i % 11))
        .collect();
    b.consult("m", &facts.join("\n")).unwrap();
    let query = parse_term("fact(k17, X, T)", b.symbols_mut()).unwrap();
    let engine = Fs2Engine::new(&encode_query(&query).unwrap()).unwrap();
    (b.finish(KbConfig::default()), engine)
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

/// The bare sweep: what FS2 filtering costs with no observability.
fn run_bare(arena: &ClauseArena, engine: &mut Fs2Engine) -> usize {
    let mut selection = selection(arena, engine);
    let mut hits = 0usize;
    for t in 0..arena.track_count() {
        let verdict =
            engine.match_track(arena.track_clauses(t), &mut selection, |c| arena.stream(c));
        hits += verdict.hits.len();
    }
    hits
}

/// The instrumented sweep: exactly the recording the retrieval pipeline
/// performs per sweep — per-track locals, one registry publish, the
/// sweep's modelled and wall times.
fn run_instrumented(arena: &ClauseArena, engine: &mut Fs2Engine) -> usize {
    let started = Instant::now();
    let mut selection = selection(arena, engine);
    let (mut tracks, mut clauses, mut hits) = (0u64, 0u64, 0usize);
    let mut ops = [0u64; clare_trace::FS2_OPS];
    let mut modelled = SimNanos::ZERO;
    for t in 0..arena.track_count() {
        let range = arena.track_clauses(t);
        clauses += range.len() as u64;
        let verdict = engine.match_track(range, &mut selection, |c| arena.stream(c));
        tracks += 1;
        hits += verdict.hits.len();
        for (total, n) in ops.iter_mut().zip(verdict.op_histogram) {
            *total += n;
        }
        modelled += verdict.time;
    }
    let m = clare_trace::metrics();
    m.fs2_tracks.add(tracks);
    m.fs2_clauses.add(clauses);
    m.fs2_satisfiers.add(hits as u64);
    for (counter, n) in m.fs2_ops.iter().zip(ops) {
        counter.add(n);
    }
    m.fs2_sweeps.inc();
    m.fs2_modelled_ns.record(modelled.as_ns());
    m.fs2_wall_ns.record(started.elapsed().as_nanos() as u64);
    hits
}

fn main() {
    let (kb, mut engine) = workload();
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
