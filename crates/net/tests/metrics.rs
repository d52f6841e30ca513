//! Observability end-to-end: the extended `stats` opcode carries a
//! versioned metrics snapshot alongside the legacy struct, a saturated
//! daemon is eventually served through the client's Busy backoff, and a
//! panicking worker is counted and survived.
//!
//! The metrics registry is process-global, so every assertion here is a
//! delta (or a monotone non-zero check) — never an absolute equality.

use clare_core::{
    ClauseRetrievalServer, CommitReceipt, CrsOptions, ModeChoice, RequestContext, Retrieval,
    SearchMode, ServerStats,
};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_net::protocol::ErrorReply;
use clare_net::protocol::{
    self, encode, encode_client_hello_caps, opcode, BudgetExt, Frame, HelloStatus, RetrieveReq,
    SolveReq, PROTOCOL_VERSION, SERVER_HELLO_LEN,
};
use clare_net::{ClientConfig, ErrorCode, NetClient, NetConfig, NetError, NetServer, Service};
use clare_term::parser::parse_term;
use clare_term::{SymbolTable, Term};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn item_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    let source: String = (0..40)
        .map(|i| format!("item(k{}, v{}).\n", i % 10, i % 4))
        .collect();
    b.consult("m", &source).unwrap();
    b.finish(KbConfig::default())
}

fn serve(cfg: NetConfig) -> (NetServer, Arc<ClauseRetrievalServer>) {
    let crs = Arc::new(ClauseRetrievalServer::new(item_kb(), CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();
    (server, crs)
}

/// The extended stats request returns the legacy struct byte-compatibly
/// plus a named snapshot with non-zero counters for every layer the
/// retrievals exercised; the legacy request still decodes.
#[test]
fn extended_stats_report_per_layer_counters() {
    let (server, crs) = serve(NetConfig::default());
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let mut symbols = client.symbols().unwrap();
    let single = parse_term("item(k3, X)", &mut symbols).unwrap();
    let batch: Vec<_> = ["item(k1, X)", "item(k2, X)", "item(A, B)"]
        .iter()
        .map(|q| parse_term(q, &mut symbols).unwrap())
        .collect();

    client.retrieve(&single, SearchMode::TwoStage).unwrap();
    client.retrieve_batch(&batch, SearchMode::TwoStage).unwrap();

    // Legacy request: unchanged struct, identical to the direct read.
    assert_eq!(client.stats().unwrap(), crs.stats());

    // Extended request: legacy struct plus the named snapshot.
    let (stats, snapshot) = client.metrics().unwrap();
    assert_eq!(stats, crs.stats());

    for counter in [
        "fs1.scans",    // FS1 index scans ran under TwoStage
        "fs2.tracks",   // FS2 verified candidate tracks
        "fs2.op.MATCH", // ...executing at least MATCH micro-ops
        "net.frames_in.retrieve",
        "net.bytes_in",
        "net.frames_out",
    ] {
        let v = snapshot.counter(counter).unwrap_or_else(|| {
            panic!("counter {counter} missing from snapshot");
        });
        assert!(v > 0, "counter {counter} stayed zero");
    }
    let wall = snapshot
        .histogram("crs.retrieve_wall_ns")
        .expect("retrieval latency histogram missing");
    assert!(wall.count > 0);
    assert!(
        snapshot.histogram("crs.pred.item/2.elapsed_ns").is_some(),
        "per-predicate latency histogram missing"
    );
    server.shutdown();
}

/// Performs the hello exchange on a raw socket.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0))
        .unwrap();
    let mut raw = [0u8; SERVER_HELLO_LEN];
    stream.read_exact(&mut raw).unwrap();
    let hello = protocol::decode_server_hello(&raw).unwrap();
    assert_eq!(hello.status, HelloStatus::Ok);
    stream
}

/// A saturated one-worker daemon sheds the client's request with `Busy`,
/// and the client's bounded backoff retries until it is served instead of
/// failing on the first rejection.
#[test]
fn saturated_daemon_is_eventually_served_through_retry() {
    let crs = Arc::new(ClauseRetrievalServer::new(item_kb(), CrsOptions::default()));
    // An exponential search that fails exhaustively: 2^18 resolution
    // paths keep the single worker busy for a while (but boundedly so).
    {
        let mut tx = crs.begin_update();
        let goals: Vec<String> = (0..18).map(|i| format!("p(A{i})")).collect();
        tx.consult(
            "slow",
            &format!("p(a). p(b). hard :- {}, absent(A0).", goals.join(", ")),
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let cfg = NetConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_ms: 5,
        ..NetConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();

    let mut client = NetClient::connect(
        server.local_addr(),
        ClientConfig {
            busy_retries: 40,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("item(k3, X)", &mut symbols).unwrap();
    let hard = parse_term("hard", &mut symbols).unwrap();

    let rejected_before = clare_trace::metrics().net_busy_rejections.get();

    // Occupy the single worker with the slow solve (sent on a raw socket
    // we never read), give it time to be dequeued, then park a filler
    // retrieve in the depth-1 queue from a second connection. Until the
    // solve finishes (~hundreds of ms), every further frame is shed.
    let mut slow_conn = raw_handshake(server.local_addr());
    slow_conn
        .write_all(
            &Frame::new(
                1,
                opcode::SOLVE,
                encode(&SolveReq {
                    goals: vec![hard],
                    var_names: Vec::new(),
                    mode: ModeChoice::Fixed(SearchMode::SoftwareOnly),
                    max_solutions: u64::MAX,
                    max_depth: 64,
                    deadline_micros: 0,
                    budget: BudgetExt::NONE,
                }),
            )
            .encoded(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let mut filler_conn = raw_handshake(server.local_addr());
    filler_conn
        .write_all(
            &Frame::new(
                1,
                opcode::RETRIEVE,
                encode(&RetrieveReq {
                    query: query.clone(),
                    mode: SearchMode::SoftwareOnly,
                    deadline_micros: 0,
                    budget: BudgetExt::NONE,
                }),
            )
            .encoded(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));

    // Without retries the same request fails on the first Busy.
    let mut impatient = NetClient::connect(
        server.local_addr(),
        ClientConfig {
            busy_retries: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match impatient.retrieve(&query, SearchMode::TwoStage) {
        Err(NetError::Remote {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, ErrorCode::Busy);
            assert_eq!(retry_after_ms, 5);
        }
        other => panic!("expected a Busy shed while saturated, got {other:?}"),
    }

    // The retrying client is eventually served, byte-identically.
    let networked = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(networked, crs.retrieve(&query, SearchMode::TwoStage));
    // Both the impatient probe and the retrying client's first attempt
    // were shed while the daemon was saturated.
    assert!(
        clare_trace::metrics().net_busy_rejections.get() >= rejected_before + 2,
        "saturation never shed the clients' requests"
    );
    server.shutdown();
}

/// A worker panic mid-job is isolated: the affected request gets an
/// `Internal` error frame, the panic is counted, and the pool (and the
/// same connection) keeps serving.
#[test]
fn worker_panic_is_counted_and_survived() {
    let panics_before = clare_trace::metrics().net_worker_panics.get();
    let cfg = NetConfig {
        workers: 2,
        ..NetConfig::default()
    };
    let crs = Arc::new(ClauseRetrievalServer::new(item_kb(), CrsOptions::default()));
    let service = Arc::new(PanicsOnStats(Arc::clone(&crs)));
    let server = NetServer::bind(service, "127.0.0.1:0", cfg).unwrap();
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    match client.stats() {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected Internal from the panicking worker, got {other:?}"),
    }
    assert!(
        clare_trace::metrics().net_worker_panics.get() > panics_before,
        "worker panic was not counted"
    );

    // The pool survives: the same connection still answers correctly.
    client.ping().unwrap();
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("item(k3, X)", &mut symbols).unwrap();
    let networked = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    assert_eq!(networked, crs.retrieve(&query, SearchMode::TwoStage));
    server.shutdown();
}

/// The CRS, except that its `stats` call panics: drives the pool's panic
/// isolation without any adversarial input.
struct PanicsOnStats(Arc<ClauseRetrievalServer>);

impl Service for PanicsOnStats {
    fn fingerprint(&self) -> u64 {
        Service::fingerprint(&*self.0)
    }

    fn caps(&self) -> u8 {
        Service::caps(&*self.0)
    }

    fn retrieve_batch(
        &self,
        queries: &[Term],
        mode: SearchMode,
        cx: &mut RequestContext,
    ) -> Result<Vec<Retrieval>, ErrorReply> {
        Service::retrieve_batch(&*self.0, queries, mode, cx)
    }

    fn assert_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply> {
        Service::assert_source(&*self.0, module, source)
    }

    fn retract_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply> {
        Service::retract_source(&*self.0, module, source)
    }

    fn stats(&self) -> Result<ServerStats, ErrorReply> {
        panic!("stats panics on purpose");
    }

    fn symbols(&self) -> SymbolTable {
        Service::symbols(&*self.0)
    }
}

/// The registry's per-opcode frame counter names line up with the wire
/// opcodes they count.
#[test]
fn net_op_names_align_with_wire_opcodes() {
    let expected = [
        (opcode::PING, "ping"),
        (opcode::RETRIEVE, "retrieve"),
        (opcode::RETRIEVE_BATCH, "retrieve_batch"),
        (opcode::SOLVE, "solve"),
        (opcode::CONSULT, "consult"),
        (opcode::STATS, "stats"),
        (opcode::SYMBOLS, "symbols"),
        (opcode::ASSERT, "assert"),
        (opcode::RETRACT, "retract"),
        (opcode::SUBSCRIBE_LOG, "subscribe_log"),
        (opcode::LOG_FRAME, "log_frame"),
        (opcode::REPL_ACK, "repl_ack"),
    ];
    assert_eq!(expected.len(), clare_trace::NET_OPS);
    for (op, name) in expected {
        assert_eq!(clare_trace::net_op_name((op - opcode::PING) as usize), name);
    }
}
