//! Clause retrieval over the network, verified against the in-process
//! engine query for query.
//!
//! ```text
//! cargo run --release --example net_client [--warren SCALE] [--queries N]
//! ```
//!
//! Starts a [`NetServer`] on a loopback port, connects a [`NetClient`],
//! and drives a query mix through all three request paths — single
//! retrieves, a pipelined burst (which the server coalesces into hardware
//! batch passes), and an explicit batch. Every networked answer is
//! compared against a direct call on the same Clause Retrieval Server;
//! **any mismatch exits nonzero**, which is what the CI `net-smoke` step
//! relies on.
//!
//! By default the knowledge base is the small family demo. With
//! `--warren SCALE` it is a Warren-style workload at that scale and the
//! query mix is derived across all five query shapes (`--queries` per
//! shape and mode, default 15 — with 5 shapes and 4 modes that is already
//! several hundred networked retrievals).

use clare::prelude::*;
use clare_workload::{derive_queries, QueryShape, WarrenSpec};
use std::sync::Arc;

const FAMILY: &str = "
    parent(tom, bob). parent(tom, liz). parent(bob, ann).
    parent(bob, pat). parent(pat, jim). parent(liz, joe).
    male(tom). male(bob). male(jim). male(pat). male(joe).
    female(liz). female(ann).
    grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut warren: Option<f64> = None;
    let mut per_shape: usize = 15;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--warren" => warren = Some(args.next().ok_or("missing --warren value")?.parse()?),
            "--queries" => per_shape = args.next().ok_or("missing --queries value")?.parse()?,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }

    // Build the knowledge base and derive the query mix.
    let mut builder = KbBuilder::new();
    let queries: Vec<Term> = if let Some(scale) = warren {
        let spec = WarrenSpec::scaled(scale);
        println!(
            "generating Warren-style KB at scale {scale}: {} predicates, {} rules, {} facts",
            spec.predicates, spec.rules, spec.facts
        );
        let summary = spec.generate(&mut builder, "warren");
        let miss = builder.symbols_mut().intern_atom("never_stored_atom");
        QueryShape::ALL
            .iter()
            .flat_map(|&shape| derive_queries(&summary.sample_heads, shape, per_shape, miss, 11))
            .collect()
    } else {
        builder.consult("family", FAMILY)?;
        [
            "parent(tom, X)",
            "parent(X, jim)",
            "parent(X, Y)",
            "parent(bob, ann)",
            "parent(nobody, X)",
            "male(X)",
            "female(ann)",
            "grandparent(tom, X)",
        ]
        .iter()
        .map(|q| parse_term(q, builder.symbols_mut()))
        .collect::<Result<_, _>>()?
    };
    let kb = builder.finish(KbConfig::default());

    // Serve it on a loopback port and connect.
    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", NetConfig::default())?;
    println!(
        "serving on {} (protocol v{})",
        server.local_addr(),
        clare::net::PROTOCOL_VERSION
    );
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default())?;
    client.ping()?;

    // The client parses queries against the server's own namespace; here
    // the queries were parsed pre-finish from the same table, so just
    // confirm the downloaded table agrees.
    let symbols = client.symbols()?;
    assert_eq!(
        symbols.atom_count(),
        crs.snapshot().symbols().atom_count(),
        "downloaded symbol table must mirror the server's"
    );

    let mut sent = 0usize;
    let mut mismatches = 0usize;
    let mut check = |label: &str, networked: &Retrieval, direct: &Retrieval| {
        sent += 1;
        if networked != direct {
            mismatches += 1;
            eprintln!("MISMATCH ({label}): {networked:?} != {direct:?}");
        }
    };

    for mode in SearchMode::ALL {
        // Path 1: single retrieves.
        for query in &queries {
            let networked = client.retrieve(query, mode)?;
            check("single", &networked, &crs.retrieve(query, mode));
        }
        // Path 2: one pipelined burst (server-side coalescing).
        let burst = client.retrieve_pipelined(&queries, mode)?;
        for (query, networked) in queries.iter().zip(&burst) {
            check("pipelined", networked, &crs.retrieve(query, mode));
        }
        // Path 3: an explicit batch against one snapshot.
        let batch = client.retrieve_batch(&queries, mode)?;
        let direct = crs.retrieve_batch(&queries, mode, &mut RequestContext::unlimited())?;
        for (networked, direct) in batch.iter().zip(&direct) {
            check("batch", networked, direct);
        }
    }

    let stats = client.stats()?;
    println!(
        "{} networked retrievals verified against the in-process engine \
         ({} batched calls on the server, {} rejected)",
        sent, stats.batches, stats.rejected
    );

    // The extended stats opcode carries the per-layer metrics registry
    // alongside the same legacy struct; after the run above every layer
    // must show activity. CI's metrics-smoke step relies on this failing
    // nonzero.
    let (extended_stats, metrics) = client.metrics()?;
    assert_eq!(
        extended_stats, stats,
        "legacy struct inside the extended reply must match the legacy opcode"
    );
    for counter in [
        "fs1.scans",
        "fs2.tracks",
        "fs2.clauses",
        "net.frames_in.retrieve",
        "net.frames_out",
        "net.bytes_in",
    ] {
        let value = metrics
            .counter(counter)
            .ok_or_else(|| format!("{counter} missing from the wire metrics snapshot"))?;
        if value == 0 {
            return Err(format!("{counter} stayed zero over a full networked run").into());
        }
    }
    let latency = metrics
        .histogram("crs.retrieve_wall_ns")
        .ok_or("retrieval latency histogram missing")?;
    println!(
        "wire metrics: fs1.scans={} fs2.clauses={} net.frames_in.retrieve={} \
         retrieval p50={}ns p99={}ns",
        metrics.counter("fs1.scans").unwrap_or(0),
        metrics.counter("fs2.clauses").unwrap_or(0),
        metrics.counter("net.frames_in.retrieve").unwrap_or(0),
        latency.p50(),
        latency.p99(),
    );
    server.shutdown();

    if mismatches > 0 {
        eprintln!("{mismatches} mismatches");
        std::process::exit(1);
    }
    println!("all networked answers byte-identical");
    Ok(())
}
