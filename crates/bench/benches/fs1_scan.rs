//! Criterion counterpart of E6/E14: FS1 secondary-file scanning —
//! codeword generation and index scan throughput at several index
//! sizes, comparing the retained scalar reference scan against the
//! bit-sliced scan.

use clare_scw::{encode_query_descriptor, ClauseAddr, IndexFile, ScwConfig};
use clare_term::parser::parse_term;
use clare_term::SymbolTable;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn build_index(n: usize, symbols: &mut SymbolTable) -> IndexFile {
    let mut index = IndexFile::with_capacity(ScwConfig::paper(), n);
    for i in 0..n {
        let head = parse_term(&format!("p(k{}, v{})", i, i % 97), symbols).unwrap();
        index.insert(&head, ClauseAddr::new((i / 200) as u32, (i % 200) as u16));
    }
    index
}

fn bench_index_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs1_index_scan");
    for n in [1_000usize, 10_000, 100_000] {
        let mut symbols = SymbolTable::new();
        let index = build_index(n, &mut symbols);
        let query = parse_term("p(k42, X)", &mut symbols).unwrap();
        let descriptor = encode_query_descriptor(&query, index.config());
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| black_box(index.scan_reference(black_box(&descriptor)).matches.len()))
        });
        group.bench_with_input(BenchmarkId::new("sliced", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    index
                        .scan_with_descriptor(black_box(&descriptor))
                        .matches
                        .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_signature_encoding(c: &mut Criterion) {
    let mut symbols = SymbolTable::new();
    let head = parse_term("p(k1, f(g(a), [1, 2, 3]), V, 3.5)", &mut symbols).unwrap();
    let config = ScwConfig::paper();
    c.bench_function("fs1_signature_encode", |b| {
        b.iter(|| {
            black_box(clare_scw::encode_clause_signature(
                black_box(&head),
                &config,
            ))
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
    targets = bench_index_scan, bench_signature_encoding
}
criterion_main!(benches);
