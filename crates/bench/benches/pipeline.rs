//! Criterion counterpart of E5/E8/E15: whole-retrieval throughput per
//! search mode, raw FS2 clause-stream filtering speed (simulator clauses
//! per second), and two-stage retrieval scaling with the knowledge-base
//! size.

use clare_core::{retrieve, CrsOptions, SearchMode};
use clare_fs2::Fs2Engine;
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_pif::{encode_clause_head, encode_query, PifStream};
use clare_term::parser::parse_term;
use clare_term::Term;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const FACTS: usize = 8_000;

fn build_kb() -> (KnowledgeBase, Term) {
    let mut builder = KbBuilder::new();
    let mut source = String::with_capacity(FACTS * 24);
    for i in 0..FACTS {
        source.push_str(&format!(
            "stock(part{}, w{}, {}).\n",
            i % 1000,
            i % 23,
            i % 500
        ));
    }
    builder.consult("inv", &source).unwrap();
    let query = parse_term("stock(part123, W, Q)", builder.symbols_mut()).unwrap();
    (builder.finish(KbConfig::default()), query)
}

fn bench_modes(c: &mut Criterion) {
    let (kb, query) = build_kb();
    let opts = CrsOptions::default();
    let mut group = c.benchmark_group("retrieve_mode");
    group.sample_size(20);
    for mode in SearchMode::ALL {
        group.bench_function(format!("{mode}"), |b| {
            b.iter(|| black_box(retrieve(&kb, black_box(&query), mode, &opts).stats.unified))
        });
    }
    group.finish();
}

/// A `fact/3` knowledge base whose FS1 hits for `fact(k17, X, T)` land on
/// every track, so the two-stage retrieval sweeps the whole predicate
/// through FS2 (same shape as experiment E15).
fn build_fact_kb(n: usize) -> (KnowledgeBase, Term) {
    let mut builder = KbBuilder::new();
    let mut source = String::with_capacity(n * 24);
    for i in 0..n {
        source.push_str(&format!("fact(k{}, v{}, t{}).\n", i % 37, i, i % 11));
    }
    builder.consult("m", &source).unwrap();
    let query = parse_term("fact(k17, X, T)", builder.symbols_mut()).unwrap();
    (builder.finish(KbConfig::default()), query)
}

fn bench_two_stage_scaling(c: &mut Criterion) {
    let opts = CrsOptions::default();
    let mut group = c.benchmark_group("two_stage_retrieval");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let (kb, query) = build_fact_kb(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("arena/{n}"), |b| {
            b.iter(|| {
                black_box(
                    retrieve(&kb, black_box(&query), SearchMode::TwoStage, &opts)
                        .stats
                        .unified,
                )
            })
        });
    }
    group.finish();
}

fn bench_fs2_stream(c: &mut Criterion) {
    // Raw engine speed: clauses filtered per second by the simulator.
    let mut symbols = clare_term::SymbolTable::new();
    let query = parse_term("stock(part1, W, Q)", &mut symbols).unwrap();
    let streams: Vec<PifStream> = (0..1000)
        .map(|i| {
            let clause = parse_term(
                &format!("stock(part{}, w{}, {})", i, i % 23, i % 500),
                &mut symbols,
            )
            .unwrap();
            encode_clause_head(&clause).unwrap()
        })
        .collect();
    let mut engine = Fs2Engine::new(&encode_query(&query).unwrap()).unwrap();
    let mut group = c.benchmark_group("fs2_stream");
    group.throughput(Throughput::Elements(streams.len() as u64));
    group.bench_function("clauses_per_sec", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for s in &streams {
                if engine.match_clause_words(s.words()).matched {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

/// Short measurement windows keep the full suite fast while staying
/// statistically useful.
fn fast() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_modes, bench_two_stage_scaling, bench_fs2_stream
}
criterion_main!(benches);
