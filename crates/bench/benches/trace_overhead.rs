//! Overhead budget for the observability layer: the FS2 hot path with
//! its metric recording (per-track local accumulation flushed to the
//! process registry, plus a span with no sink installed) must cost less
//! than 2% over the bare engine loop.
//!
//! The criterion shim prints medians but exposes no programmatic
//! results, so the <2% check runs as a separate best-of-N measurement
//! after the criterion groups and fails the bench run loudly if the
//! budget is blown. Measurement noise is damped by taking the minimum of
//! several alternating rounds.

use clare_fs2::Fs2Engine;
use clare_pif::{encode_clause_head, encode_query, PifStream};
use clare_term::parser::{parse_clause, parse_term};
use clare_term::SymbolTable;
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

const CLAUSES: usize = 20_000;

fn workload() -> (PifStream, Vec<PifStream>) {
    let mut symbols = SymbolTable::new();
    let query = parse_term("fact(k17, X, T)", &mut symbols).unwrap();
    let streams: Vec<PifStream> = (0..CLAUSES)
        .map(|i| {
            let c = parse_clause(
                &format!("fact(k{}, v{}, t{}).", i % 37, i, i % 11),
                &mut symbols,
            )
            .unwrap();
            encode_clause_head(c.head()).unwrap()
        })
        .collect();
    (encode_query(&query).unwrap(), streams)
}

/// The bare engine loop: what FS2 filtering costs with no observability.
fn run_bare(engine: &mut Fs2Engine, streams: &[PifStream]) -> usize {
    let mut hits = 0usize;
    for s in streams {
        if engine.match_clause_words(s.words()).matched {
            hits += 1;
        }
    }
    hits
}

/// The instrumented loop: exactly the recording the retrieval pipeline
/// performs per track — per-clause locals, one registry flush, and a
/// span with no sink installed.
fn run_instrumented(engine: &mut Fs2Engine, streams: &[PifStream]) -> usize {
    let _span = clare_trace::span("fs2.track");
    let start = Instant::now();
    let mut hits = 0usize;
    let mut clauses = 0u64;
    let mut ops = [0u64; clare_trace::FS2_OPS];
    for s in streams {
        let verdict = engine.match_clause_words(s.words());
        clauses += 1;
        for (i, n) in verdict.op_histogram.iter().enumerate() {
            ops[i] += *n as u64;
        }
        if verdict.matched {
            hits += 1;
        }
    }
    let m = clare_trace::metrics();
    m.fs2_tracks.inc();
    m.fs2_clauses.add(clauses);
    m.fs2_satisfiers.add(hits as u64);
    for (i, n) in ops.iter().enumerate() {
        m.fs2_ops[i].add(*n);
    }
    m.fs2_wall_ns.record(start.elapsed().as_nanos() as u64);
    hits
}

fn bench_hot_path(c: &mut Criterion) {
    let (q_stream, streams) = workload();
    let mut group = c.benchmark_group("fs2_trace_overhead");
    group.sample_size(10);
    let mut engine = Fs2Engine::new(&q_stream).unwrap();
    group.bench_function("bare", |b| {
        b.iter(|| black_box(run_bare(&mut engine, black_box(&streams))))
    });
    group.bench_function("instrumented", |b| {
        b.iter(|| black_box(run_instrumented(&mut engine, black_box(&streams))))
    });
    group.finish();
}

criterion_group!(benches, bench_hot_path);

fn overhead_check() {
    let (q_stream, streams) = workload();
    let mut engine = Fs2Engine::new(&q_stream).unwrap();
    // Warm up caches and the registry.
    black_box(run_bare(&mut engine, &streams));
    black_box(run_instrumented(&mut engine, &streams));

    let time = |f: &mut dyn FnMut() -> usize| {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64()
    };
    // Alternate rounds and keep each variant's best time: the minimum is
    // the least-noise estimate of intrinsic cost.
    let (mut best_bare, mut best_instr) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        best_bare = best_bare.min(time(&mut || run_bare(&mut engine, &streams)));
        best_instr = best_instr.min(time(&mut || run_instrumented(&mut engine, &streams)));
    }
    let overhead = best_instr / best_bare - 1.0;
    println!(
        "fs2 hot-path no-op-sink overhead: {:+.3}% (bare {:.3} ms, instrumented {:.3} ms)",
        overhead * 100.0,
        best_bare * 1e3,
        best_instr * 1e3,
    );
    assert!(
        overhead < 0.02,
        "observability overhead {:.3}% blows the 2% budget",
        overhead * 100.0
    );
}

fn main() {
    benches();
    overhead_check();
}
