//! Criterion counterpart of E1/E2 (Table 1, Figures 6–12): how fast the
//! *simulator* executes each of the seven hardware operations, the
//! route-derivation cost itself, and clause filtering throughput from
//! re-parsed record bytes and from pre-decoded streams.

use clare_fs2::{Fs2Engine, HwOp};
use clare_pif::{encode_clause_head, encode_query, ClauseRecord, PifStream};
use clare_term::parser::{parse_clause, parse_term};
use clare_term::SymbolTable;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Query/clause pairs whose match is dominated by one operation each.
const OP_CASES: [(&str, &str, &str); 7] = [
    ("match", "f(a, b, c)", "f(a, b, c)"),
    ("db_store", "f(a, b, c)", "f(A, B, C)"),
    ("query_store", "f(X, Y, Z)", "f(a, b, c)"),
    ("db_fetch", "f(a, a, a)", "f(A, A, A)"),
    ("query_fetch", "f(X, X, X)", "f(a, a, a)"),
    ("db_cross_bound_fetch", "f(X, a, a)", "f(A, A, A)"),
    ("query_cross_bound_fetch", "f(X, Y, X, Y)", "f(B, B, c, c)"),
];

fn bench_op_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs2_op_matching");
    for (label, query, clause) in OP_CASES {
        let mut symbols = SymbolTable::new();
        let q = parse_term(query, &mut symbols).unwrap();
        let cl = parse_term(clause, &mut symbols).unwrap();
        let q_stream = encode_query(&q).unwrap();
        let c_stream = encode_clause_head(&cl).unwrap();
        let mut engine = Fs2Engine::new(&q_stream).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    engine
                        .match_clause_words(black_box(c_stream.words()))
                        .matched,
                )
            })
        });
    }
    group.finish();
}

/// Filtering a clause set through the engine, two ways:
///
/// * `bytes` — re-parse every record from its on-disk bytes, then match
///   (the pre-arena per-retrieval cost);
/// * `decoded_quiet` — pre-decoded streams, as the retrieval pipeline
///   runs.
fn bench_clause_filtering(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs2_clause_filtering");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut symbols = SymbolTable::new();
        let query = parse_term("fact(k17, X, T)", &mut symbols).unwrap();
        let clauses: Vec<clare_term::Clause> = (0..n)
            .map(|i| {
                parse_clause(
                    &format!("fact(k{}, v{}, t{}).", i % 37, i, i % 11),
                    &mut symbols,
                )
                .unwrap()
            })
            .collect();
        let records: Vec<Vec<u8>> = clauses
            .iter()
            .map(|cl| ClauseRecord::compile(cl).unwrap().to_bytes())
            .collect();
        let streams: Vec<PifStream> = clauses
            .iter()
            .map(|cl| encode_clause_head(cl.head()).unwrap())
            .collect();
        let mut engine = Fs2Engine::new(&encode_query(&query).unwrap()).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("bytes/{n}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for bytes in &records {
                    let (record, _) = ClauseRecord::from_bytes(bytes).unwrap();
                    if engine
                        .match_clause_words(record.head_stream().words())
                        .matched
                    {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        group.bench_function(format!("decoded_quiet/{n}"), |b| {
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
    }
    group.finish();
}

fn bench_route_derivation(c: &mut Criterion) {
    c.bench_function("table1_derivation", |b| {
        b.iter(|| {
            let total: u64 = HwOp::ALL.iter().map(|op| op.execution_time().as_ns()).sum();
            black_box(total)
        })
    });
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
    targets = bench_op_matching, bench_clause_filtering, bench_route_derivation
}
criterion_main!(benches);
