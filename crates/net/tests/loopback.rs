//! End-to-end loopback tests: every networked answer must be
//! byte-identical to a direct call on the same [`ClauseRetrievalServer`],
//! across worker-pool sizes, pipelining, coalescing, concurrent updates,
//! load shedding, and malformed input. Lone and batched retrievals and
//! solves in every mode are cells of the contract harness
//! (`tests/contract.rs`, served path, at one and four workers).

use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_net::protocol::{
    self, encode_client_hello_caps, opcode, Frame, FrameReader, HelloStatus, PROTOCOL_VERSION,
    SERVER_HELLO_LEN,
};
use clare_net::{ClientConfig, ErrorCode, NetClient, NetConfig, NetError, NetServer};
use clare_term::parser::parse_term;
use clare_term::{SymbolTable, Term};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A KB with two predicates so coalescing groups have boundaries, plus a
/// rule so solve has something to resolve.
fn family_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    let mut source = String::new();
    for i in 0..40 {
        source.push_str(&format!("item(k{}, v{}).\n", i % 10, i % 4));
    }
    for i in 0..30 {
        source.push_str(&format!("edge(n{}, n{}).\n", i % 6, (i + 1) % 6));
    }
    source.push_str("linked(X, Z) :- edge(X, Y), edge(Y, Z).\n");
    b.consult("m", &source).unwrap();
    b.finish(KbConfig::default())
}

fn serve(workers: usize) -> (NetServer, Arc<ClauseRetrievalServer>) {
    let crs = Arc::new(ClauseRetrievalServer::new(
        family_kb(),
        CrsOptions::default(),
    ));
    let cfg = NetConfig {
        workers,
        ..NetConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();
    (server, crs)
}

fn connect(server: &NetServer) -> NetClient {
    NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap()
}

fn sample_queries(symbols: &mut SymbolTable) -> Vec<Term> {
    [
        "item(k3, X)",
        "item(k3, v1)",
        "item(A, B)",
        "item(k9, _)",
        "edge(n2, X)",
        "edge(X, n3)",
        "item(missing_key, X)",
        "linked(n1, X)",
    ]
    .iter()
    .map(|q| parse_term(q, symbols).unwrap())
    .collect()
}

/// Pipelined retrievals — including runs of same-predicate queries the
/// server coalesces into one hardware batch pass — answer byte-identically
/// to individual direct calls, in query order.
#[test]
fn pipelined_and_coalesced_retrievals_byte_identical() {
    for workers in [1, 4] {
        let (server, crs) = serve(workers);
        let mut client = connect(&server);
        let mut symbols = client.symbols().unwrap();
        // Long same-predicate runs (coalescable) with predicate switches
        // and ungroupable queries in between.
        let texts = [
            "item(k0, X)",
            "item(k1, X)",
            "item(k2, X)",
            "item(k3, X)",
            "edge(n0, X)",
            "edge(n1, X)",
            "item(k4, v0)",
            "item(k5, _)",
            "item(k6, X)",
            "edge(n2, n3)",
            "item(X, Y)",
            "item(k7, X)",
        ];
        let queries: Vec<Term> = texts
            .iter()
            .map(|q| parse_term(q, &mut symbols).unwrap())
            .collect();

        // Repeat so at least one burst arrives whole and triggers the
        // batch path (the stats assert below proves it actually ran).
        for _ in 0..10 {
            let networked = client
                .retrieve_pipelined(&queries, SearchMode::TwoStage)
                .unwrap();
            assert_eq!(networked.len(), queries.len());
            for (query, got) in queries.iter().zip(&networked) {
                let direct = crs.retrieve(query, SearchMode::TwoStage);
                assert_eq!(got, &direct, "workers={workers} query={query:?}");
            }
        }
        assert!(
            crs.stats().batches > 0,
            "pipelined same-predicate retrieves were never coalesced"
        );
        server.shutdown();
    }
}

/// Consult over the wire publishes atomically; malformed source is
/// rejected with a typed error and leaves the KB untouched.
#[test]
fn consult_updates_and_rejections() {
    let (server, crs) = serve(2);
    let mut client = connect(&server);
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("item(brand_new, X)", &mut symbols).unwrap();
    assert_eq!(
        client
            .retrieve(&query, SearchMode::TwoStage)
            .unwrap()
            .stats
            .unified,
        0
    );

    client.consult("m", "item(brand_new, v9).").unwrap();
    // Re-fetch the namespace: the update interned new atoms.
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("item(brand_new, X)", &mut symbols).unwrap();
    let networked = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(networked.stats.unified, 1);
    assert_eq!(networked, crs.retrieve(&query, SearchMode::TwoStage));

    let before = crs.stats().updates;
    match client.consult("m", "this is ( not prolog") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ConsultRejected),
        other => panic!("expected ConsultRejected, got {other:?}"),
    }
    assert_eq!(
        crs.stats().updates,
        before,
        "rejected consult must not publish"
    );
    server.shutdown();
}

/// Assert and retract over the wire: the receipt reports what landed,
/// the merged view serves the new clause immediately, retract removes it
/// again, and malformed or multi-clause payloads are rejected without
/// publishing anything.
#[test]
fn assert_and_retract_over_the_wire() {
    let (server, crs) = serve(2);
    let mut client = connect(&server);

    let receipt = client.assert("m", "item(wired_in, v9).").unwrap();
    assert_eq!(receipt.asserted, 1);
    assert_eq!(receipt.retracted, 0);
    assert!(
        !receipt.durable,
        "no WAL is attached, so the commit must not claim durability"
    );
    assert_eq!(receipt.seqs.end - receipt.seqs.start, 1);

    // The overlay-interned atom is visible through the symbols opcode.
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("item(wired_in, X)", &mut symbols).unwrap();
    let networked = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(networked.stats.unified, 1, "asserted fact must be served");
    assert_eq!(networked, crs.retrieve(&query, SearchMode::TwoStage));

    let receipt = client.retract("m", "item(wired_in, v9).").unwrap();
    assert_eq!(receipt.asserted, 0);
    assert_eq!(receipt.retracted, 1);
    let gone = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(gone.stats.unified, 0, "retracted fact must disappear");

    // Retracting an absent clause is standard retract/1: a quiet no-op,
    // acknowledged with a zero-effect receipt.
    let absent = client.retract("m", "item(never_was, v0).").unwrap();
    assert_eq!((absent.asserted, absent.retracted), (0, 0));

    // Garbage or multi-clause payloads are typed rejections that publish
    // nothing.
    let before = crs.stats().updates;
    match client.assert("m", "this is ( not prolog") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ConsultRejected),
        other => panic!("expected ConsultRejected, got {other:?}"),
    }
    match client.retract("m", "item(a, b). item(c, d).") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ConsultRejected),
        other => panic!("expected ConsultRejected, got {other:?}"),
    }
    assert_eq!(
        crs.stats().updates,
        before,
        "rejected mutations must not publish"
    );
    server.shutdown();
}

/// Networked stats report the shared CRS counters, including the new
/// batch and rejection counts.
#[test]
fn stats_over_the_wire() {
    let (server, crs) = serve(2);
    let mut client = connect(&server);
    let mut symbols = client.symbols().unwrap();
    let queries = sample_queries(&mut symbols);
    client.retrieve(&queries[0], SearchMode::TwoStage).unwrap();
    client
        .retrieve_batch(&queries, SearchMode::Fs1Only)
        .unwrap();
    crs.note_rejected();

    let networked = client.stats().unwrap();
    assert_eq!(networked, crs.stats());
    assert_eq!(networked.retrievals, 1 + queries.len() as u64);
    assert_eq!(networked.batches, 1);
    assert_eq!(networked.rejected, 1);
    server.shutdown();
}

/// Retrievals and batches racing `update()` swaps through the network
/// observe exactly one published knowledge base per call (snapshot
/// isolation end to end), and the server never wedges.
#[test]
fn concurrent_updates_vs_networked_retrievals() {
    fn item_kb(symbols: Option<SymbolTable>, n: usize) -> (KnowledgeBase, SymbolTable) {
        let mut b = KbBuilder::new();
        if let Some(sy) = symbols {
            *b.symbols_mut() = sy;
        }
        let facts: String = (0..n)
            .map(|i| format!("item(k{}, v{}).", i % 20, i % 5))
            .collect::<Vec<_>>()
            .join("\n");
        b.consult("m", &facts).unwrap();
        let sy = b.symbols_mut().clone();
        (b.finish(KbConfig::default()), sy)
    }

    let (kb_small, symbols) = item_kb(None, 100);
    let (kb_large, symbols) = item_kb(Some(symbols), 300);
    let mut symbols = symbols;
    let single = parse_term("item(k7, X)", &mut symbols).unwrap();
    let batch: Vec<Term> = ["item(k7, X)", "item(k11, Y)"]
        .iter()
        .map(|q| parse_term(q, &mut symbols).unwrap())
        .collect();

    let expect = |kb: &KnowledgeBase, q: &Term| {
        clare_core::retrieve(kb, q, SearchMode::TwoStage, &CrsOptions::default())
            .stats
            .unified
    };
    let small_single = expect(&kb_small, &single);
    let large_single = expect(&kb_large, &single);
    assert_ne!(small_single, large_single);
    let small_batch: Vec<usize> = batch.iter().map(|q| expect(&kb_small, q)).collect();
    let large_batch: Vec<usize> = batch.iter().map(|q| expect(&kb_large, q)).collect();

    let crs = Arc::new(ClauseRetrievalServer::new(kb_small, CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                let (kb, _) = item_kb(Some(symbols.clone()), if flip { 100 } else { 300 });
                crs.update(kb);
                flip = !flip;
            }
        });
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                for i in 0..30 {
                    let unified = client
                        .retrieve(&single, SearchMode::ALL[i % 4])
                        .unwrap()
                        .stats
                        .unified;
                    assert!(
                        unified == small_single || unified == large_single,
                        "networked retrieval saw a torn KB: {unified}"
                    );
                }
            });
            scope.spawn(|| {
                let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                for _ in 0..20 {
                    let got: Vec<usize> = client
                        .retrieve_batch(&batch, SearchMode::TwoStage)
                        .unwrap()
                        .iter()
                        .map(|r| r.stats.unified)
                        .collect();
                    assert!(
                        got == small_batch || got == large_batch,
                        "networked batch mixed snapshots: {got:?}"
                    );
                }
            });
        }
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(100));
            stop.store(true, Ordering::Relaxed);
        });
    });
    assert!(crs.stats().updates > 0);
    server.shutdown();
}

/// Performs the hello exchange on a raw socket.
fn raw_handshake(addr: std::net::SocketAddr) -> (TcpStream, HelloStatus) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0))
        .unwrap();
    let mut raw = [0u8; SERVER_HELLO_LEN];
    stream.read_exact(&mut raw).unwrap();
    let hello = protocol::decode_server_hello(&raw).unwrap();
    (stream, hello.status)
}

/// Malformed request payloads get an error frame on the same id and the
/// connection keeps serving; an unsyncable frame length gets an error
/// notice before the connection drops.
#[test]
fn malformed_frames_yield_error_frames_not_disconnects() {
    let (server, _crs) = serve(2);
    let (mut stream, status) = raw_handshake(server.local_addr());
    assert_eq!(status, HelloStatus::Ok);
    let mut reader = FrameReader::new(protocol::MAX_FRAME_LEN);

    // Garbage retrieve payload → Malformed error, id echoed.
    stream
        .write_all(&Frame::new(41, opcode::RETRIEVE, vec![0xDE, 0xAD, 0xBE]).encoded())
        .unwrap();
    let reply = reader.read_frame(&mut stream).unwrap();
    assert_eq!(reply.request_id, 41);
    assert_eq!(reply.opcode, opcode::ERROR);
    let e = protocol::decode::<protocol::ErrorReply>(&reply.payload).unwrap();
    assert_eq!(e.code, ErrorCode::Malformed);

    // Every other opcode that carries a payload takes the same
    // decode-or-Malformed path: an error on its own id, and the
    // connection keeps serving.
    let payload_opcodes = [
        opcode::RETRIEVE_BATCH,
        opcode::SOLVE,
        opcode::CONSULT,
        opcode::ASSERT,
        opcode::RETRACT,
        opcode::SUBSCRIBE_LOG,
        opcode::LOG_FRAME,
        opcode::REPL_ACK,
    ];
    for (i, op) in payload_opcodes.into_iter().enumerate() {
        let id = 100 + i as u64;
        stream
            .write_all(&Frame::new(id, op, vec![0xDE, 0xAD, 0xBE]).encoded())
            .unwrap();
        let reply = reader.read_frame(&mut stream).unwrap();
        assert_eq!(
            (reply.request_id, reply.opcode),
            (id, opcode::ERROR),
            "opcode {op:#04x}"
        );
        let e = protocol::decode::<protocol::ErrorReply>(&reply.payload).unwrap();
        assert_eq!(e.code, ErrorCode::Malformed, "opcode {op:#04x}");
        stream
            .write_all(&Frame::new(id + 50, opcode::PING, Vec::new()).encoded())
            .unwrap();
        let reply = reader.read_frame(&mut stream).unwrap();
        assert_eq!(
            (reply.request_id, reply.opcode),
            (id + 50, opcode::PING | opcode::REPLY),
            "opcode {op:#04x}"
        );
    }

    // Unknown opcode → Unsupported error.
    stream
        .write_all(&Frame::new(42, 0x55, Vec::new()).encoded())
        .unwrap();
    let reply = reader.read_frame(&mut stream).unwrap();
    assert_eq!(reply.request_id, 42);
    let e = protocol::decode::<protocol::ErrorReply>(&reply.payload).unwrap();
    assert_eq!(e.code, ErrorCode::Unsupported);

    // The connection is still healthy: a ping round-trips.
    stream
        .write_all(&Frame::new(43, opcode::PING, Vec::new()).encoded())
        .unwrap();
    let reply = reader.read_frame(&mut stream).unwrap();
    assert_eq!(
        (reply.request_id, reply.opcode),
        (43, opcode::PING | opcode::REPLY)
    );

    server.shutdown();
}

/// At the connection limit the server refuses with a busy hello carrying
/// the retry hint, and counts the rejection.
#[test]
fn connection_limit_refuses_with_retry_hint() {
    let crs = Arc::new(ClauseRetrievalServer::new(
        family_kb(),
        CrsOptions::default(),
    ));
    let cfg = NetConfig {
        workers: 1,
        max_connections: 1,
        retry_after_ms: 333,
        ..NetConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();

    let mut first = connect(&server);
    first.ping().unwrap(); // fully admitted
    match NetClient::connect(server.local_addr(), ClientConfig::default()) {
        Err(NetError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 333),
        other => panic!("expected Busy refusal, got {other:?}"),
    }
    assert_eq!(crs.stats().rejected, 1);

    // Once the first client leaves, admission reopens.
    drop(first);
    for _ in 0..100 {
        if NetClient::connect(server.local_addr(), ClientConfig::default()).is_ok() {
            server.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("slot was never released after disconnect");
}

/// A request whose deadline lapsed while queued is answered with
/// DeadlineExpired instead of being executed.
#[test]
fn expired_deadlines_are_refused() {
    let (server, crs) = serve(1);
    let mut client = connect(&server);
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("item(k1, X)", &mut symbols).unwrap();

    let before = crs.stats().retrievals;
    client.set_deadline(Some(Duration::from_micros(1)));
    match client.retrieve(&query, SearchMode::TwoStage) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::DeadlineExpired),
        Ok(_) => panic!("a 1µs deadline cannot survive the queue"),
        Err(other) => panic!("unexpected failure: {other}"),
    }
    assert_eq!(crs.stats().retrievals, before, "expired work must not run");

    // Clearing the deadline restores service on the same connection.
    client.set_deadline(None);
    assert!(client.retrieve(&query, SearchMode::TwoStage).is_ok());
    server.shutdown();
}

/// Graceful shutdown drains requests already accepted: a reply in flight
/// still arrives, and afterwards the port stops accepting.
#[test]
fn graceful_shutdown_drains_inflight_requests() {
    let (server, _crs) = serve(1);
    let addr = server.local_addr();
    let mut client = connect(&server);
    let mut symbols = client.symbols().unwrap();
    let queries: Vec<Term> = (0..8)
        .map(|i| parse_term(&format!("item(k{i}, X)"), &mut symbols).unwrap())
        .collect();

    let handle = std::thread::spawn(move || {
        let got = client
            .retrieve_pipelined(&queries, SearchMode::TwoStage)
            .unwrap();
        got.len()
    });
    // Let the burst reach the server before pulling the plug.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();
    assert_eq!(handle.join().unwrap(), 8, "drained replies must all arrive");

    assert!(
        NetClient::connect(addr, ClientConfig::default()).is_err(),
        "listener must be closed after shutdown"
    );
}
