//! C10K-class smoke test for the epoll reactor: one server, ≥1000
//! concurrent client connections, pipelined retrieves on every one of
//! them, byte-identical answers, and a hard deadline so starvation (a
//! connection whose replies never come) fails the test instead of
//! hanging it.
//!
//! The clients speak the raw wire protocol over plain `TcpStream`s (no
//! `NetClient`) so a thousand of them fit in one test process without a
//! thousand reader threads.

use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
use clare_net::protocol::{
    decode_server_hello, encode, encode_client_hello_caps, opcode, BudgetExt, Frame, FrameReader,
    HelloStatus, RetrieveReq, PROTOCOL_VERSION, SERVER_HELLO_LEN,
};
use clare_net::{NetConfig, NetServer};
use clare_term::parser::parse_term;
use clare_term::Term;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent connections held open through the whole test.
const CONNECTIONS: usize = 1000;
/// Pipelined retrieves per connection.
const DEPTH: usize = 4;
/// Whole-test budget; any starved connection trips this, not a hang.
const TEST_BUDGET: Duration = Duration::from_secs(120);

#[test]
fn reactor_serves_a_thousand_concurrent_pipelined_connections() {
    let start = Instant::now();

    let mut b = KbBuilder::new();
    let facts: String = (0..60)
        .map(|i| format!("item(k{}, v{}).", i % 12, i % 5))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    let crs = Arc::new(ClauseRetrievalServer::new(
        b.finish(KbConfig::default()),
        CrsOptions::default(),
    ));

    let cfg = NetConfig {
        max_connections: CONNECTIONS + 50,
        queue_depth: 4 * CONNECTIONS,
        workers: 4,
        ..NetConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // The query set cycles over the key space; precompute the expected
    // reply payload for each (the byte-identity oracle).
    let mut symbols = crs.snapshot().symbols().clone();
    let queries: Vec<Term> = (0..12)
        .map(|k| parse_term(&format!("item(k{k}, X)"), &mut symbols).unwrap())
        .collect();
    let expected: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| encode(&crs.retrieve(q, SearchMode::TwoStage)))
        .collect();

    // Phase 1: open every connection and complete its hello exchange.
    // Connects retry briefly: a thousand rapid SYNs can outrun the
    // accept loop's listen backlog.
    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut stream = connect_with_retry(addr, i);
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0))
            .unwrap();
        conns.push(stream);
    }
    for (i, stream) in conns.iter_mut().enumerate() {
        let mut hello = [0u8; SERVER_HELLO_LEN];
        stream
            .read_exact(&mut hello)
            .unwrap_or_else(|e| panic!("conn {i}: no server hello: {e}"));
        let hello = decode_server_hello(&hello).unwrap();
        assert_eq!(
            hello.status,
            HelloStatus::Ok,
            "conn {i} was refused below the connection limit"
        );
    }

    // Phase 2: pipeline DEPTH retrieves down every connection before
    // reading anything back — 4000 requests in flight at once.
    for (i, stream) in conns.iter_mut().enumerate() {
        let mut batch = Vec::new();
        for d in 0..DEPTH {
            let q = (i + d) % queries.len();
            let req = RetrieveReq {
                mode: SearchMode::TwoStage,
                deadline_micros: 0,
                budget: BudgetExt::NONE,
                query: queries[q].clone(),
            };
            let id = (i * DEPTH + d) as u64 + 1;
            batch.extend_from_slice(&Frame::new(id, opcode::RETRIEVE, encode(&req)).encoded());
        }
        stream.write_all(&batch).unwrap();
    }

    // Phase 3: collect every reply. Replies within one connection may
    // arrive in any order (out-of-order completion is part of the
    // contract), so match them up by request id.
    for (i, stream) in conns.iter_mut().enumerate() {
        let mut fr = FrameReader::new(16 << 20);
        let mut got: HashMap<u64, Vec<u8>> = HashMap::new();
        while got.len() < DEPTH {
            let frame = fr
                .read_frame(stream)
                .unwrap_or_else(|e| panic!("conn {i}: reply stream died: {e}"));
            assert_eq!(
                frame.opcode,
                opcode::RETRIEVE | opcode::REPLY,
                "conn {i}: unexpected opcode {:#04x}",
                frame.opcode
            );
            got.insert(frame.request_id, frame.payload);
        }
        for d in 0..DEPTH {
            let id = (i * DEPTH + d) as u64 + 1;
            let q = (i + d) % queries.len();
            assert_eq!(
                got.get(&id).expect("reply for every pipelined id"),
                &expected[q],
                "conn {i} req {d}: networked bytes diverge from the direct call"
            );
        }
        assert!(
            start.elapsed() < TEST_BUDGET,
            "starvation: conn {i} pushed the test past its deadline"
        );
    }

    // Every socket is still open: the server really is holding
    // CONNECTIONS concurrent connections on a handful of threads.
    assert!(
        clare_trace::metrics().net_reactor_connections.get() >= CONNECTIONS as i64,
        "reactor connection gauge never reached {CONNECTIONS}"
    );

    drop(conns);
    server.shutdown();
    assert!(start.elapsed() < TEST_BUDGET, "test exceeded its budget");
}

fn connect_with_retry(addr: std::net::SocketAddr, i: usize) -> TcpStream {
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("conn {i}: could not connect after retries");
}
