//! Network hardening tests: half-open connection reaping, client
//! reconnect-and-replay after a mid-stream hangup, shutdown and half-close
//! draining owed replies, write-side backpressure against slow and
//! non-reading peers, and bounded refusal. (The frame-checksum test under
//! an injected corruption storm lives in `frame_crc.rs`: its injector is
//! process-wide and would hit these tests' replies.)

use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_net::{ClientConfig, NetClient, NetConfig, NetServer};
use clare_term::parser::parse_term;
use clare_term::Term;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn item_kb(facts: usize) -> KnowledgeBase {
    let mut b = KbBuilder::new();
    let facts: String = (0..facts)
        .map(|i| format!("item(k{}, v{}).", i % 12, i % 5))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    b.finish(KbConfig::default())
}

fn serve(cfg: NetConfig) -> (NetServer, Arc<ClauseRetrievalServer>) {
    serve_kb(item_kb(60), cfg)
}

/// The facts of `item_kb(60)` plus a second predicate, `tag/2`, so a
/// pipeline can alternate predicates and no two consecutive retrieves
/// share a coalescing key.
fn serve_two_predicates(cfg: NetConfig) -> (NetServer, Arc<ClauseRetrievalServer>) {
    let mut b = KbBuilder::new();
    let facts: String = (0..60)
        .map(|i| {
            format!(
                "item(k{}, v{}). tag(k{}, t{}).",
                i % 12,
                i % 5,
                i % 12,
                i % 3
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("m", &facts).unwrap();
    serve_kb(b.finish(KbConfig::default()), cfg)
}

/// Six retrieves alternating `item/2` and `tag/2`: each is its own job.
fn alternating_queries(symbols: &mut clare_term::SymbolTable) -> Vec<Term> {
    (0..6)
        .map(|i| {
            let pred = if i % 2 == 0 { "item" } else { "tag" };
            parse_term(&format!("{pred}(k{i}, X)"), symbols).unwrap()
        })
        .collect()
}

fn serve_kb(kb: KnowledgeBase, cfg: NetConfig) -> (NetServer, Arc<ClauseRetrievalServer>) {
    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();
    (server, crs)
}

/// A half-open client — connected, admitted, then silent forever — is
/// reaped after the idle timeout: the server closes the socket, counts
/// the reap, and releases the connection slot for new clients.
#[test]
fn idle_connections_are_reaped_and_slots_released() {
    let cfg = NetConfig {
        workers: 1,
        max_connections: 1,
        idle_timeout: Some(Duration::from_millis(200)),
        ..NetConfig::default()
    };
    let (server, _crs) = serve(cfg);
    let reaps_before = clare_trace::metrics().net_idle_reaps.get();

    // No reconnects: this client must *observe* the hangup, not paper
    // over it.
    let half_open_cfg = ClientConfig {
        reconnect_retries: 0,
        read_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let mut half_open = NetClient::connect(server.local_addr(), half_open_cfg).unwrap();
    half_open.ping().unwrap(); // fully admitted, then goes silent

    // The lone slot is taken, so a second client is refused…
    assert!(
        NetClient::connect(server.local_addr(), ClientConfig::default()).is_err(),
        "connection slot should be exhausted"
    );

    // …until the reaper notices the silence. Poll rather than sleep a
    // fixed time: reap = idle timeout + one deadline scan, both small here.
    let mut admitted = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        if let Ok(c) = NetClient::connect(server.local_addr(), ClientConfig::default()) {
            admitted = Some(c);
            break;
        }
    }
    let mut client = admitted.expect("idle connection was never reaped");
    client.ping().unwrap();
    assert!(
        clare_trace::metrics().net_idle_reaps.get() > reaps_before,
        "the reap must be counted"
    );

    // The reaped client's next request fails: its socket is gone.
    assert!(half_open.ping().is_err());
    server.shutdown();
}

/// A byte-forwarding proxy that hangs up on its first connection right
/// after the first post-handshake request, then forwards transparently.
/// This simulates a mid-stream peer death *after* a request went out —
/// the case where the client is already committed to awaiting a reply.
fn hangup_once_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let conn_count = Arc::new(AtomicUsize::new(0));
    std::thread::spawn(move || {
        for down in listener.incoming() {
            let Ok(mut down) = down else { break };
            let n = conn_count.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                let Ok(mut up) = TcpStream::connect(upstream) else {
                    return;
                };
                // Forward the fixed-size hello exchange verbatim.
                if pipe_exact(&mut down, &mut up, clare_net::protocol::CLIENT_HELLO_LEN).is_err() {
                    return;
                }
                if pipe_exact(&mut up, &mut down, clare_net::protocol::SERVER_HELLO_LEN).is_err() {
                    return;
                }
                if n == 0 {
                    // First connection: swallow the first request and
                    // hang up without forwarding it, leaving the client
                    // blocked on a reply that will never come.
                    let mut buf = [0u8; 4096];
                    let _ = down.read(&mut buf);
                    return; // both sockets drop here
                }
                // Later connections: transparent bidirectional forward.
                let mut up2 = up.try_clone().unwrap();
                let mut down2 = down.try_clone().unwrap();
                let t = std::thread::spawn(move || pipe_all(&mut down, &mut up));
                let _ = pipe_all(&mut up2, &mut down2);
                let _ = t.join();
            });
        }
    });
    addr
}

fn pipe_exact(from: &mut TcpStream, to: &mut TcpStream, n: usize) -> std::io::Result<()> {
    let mut buf = vec![0u8; n];
    from.read_exact(&mut buf)?;
    to.write_all(&buf)
}

fn pipe_all(from: &mut TcpStream, to: &mut TcpStream) -> std::io::Result<()> {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = to.shutdown(std::net::Shutdown::Both);
                return Ok(());
            }
            Ok(n) => to.write_all(&buf[..n])?,
        }
    }
}

/// A mid-stream hangup after an idempotent request went out is recovered
/// transparently: the client reconnects, replays under a fresh request
/// id, and the answer matches a direct call. Follow-up requests keep
/// working, proving request-id accounting survived the reconnect.
#[test]
fn client_reconnects_and_replays_after_mid_stream_eof() {
    let (server, crs) = serve(NetConfig {
        workers: 2,
        ..NetConfig::default()
    });
    let proxy = hangup_once_proxy(server.local_addr());

    let cfg = ClientConfig {
        read_timeout: Duration::from_secs(2),
        reconnect_retries: 2,
        ..ClientConfig::default()
    };
    let reconnects_before = clare_trace::metrics().net_client_reconnects.get();
    let mut client = NetClient::connect(proxy, cfg).unwrap();
    let mut symbols = client.symbols().unwrap();
    // `symbols()` was the swallowed first request: reaching here at all
    // proves reconnect-and-replay kicked in.
    assert!(
        clare_trace::metrics().net_client_reconnects.get() > reconnects_before,
        "the reconnect must be counted"
    );

    let queries: Vec<Term> = (0..6)
        .map(|i| parse_term(&format!("item(k{i}, X)"), &mut symbols).unwrap())
        .collect();
    for query in &queries {
        for mode in SearchMode::ALL {
            let networked = client.retrieve(query, mode).unwrap();
            assert_eq!(networked, crs.retrieve(query, mode));
        }
    }
    // Pipelining across many ids still pairs every reply correctly.
    let pipelined = client
        .retrieve_pipelined(&queries, SearchMode::TwoStage)
        .unwrap();
    for (query, got) in queries.iter().zip(&pipelined) {
        assert_eq!(got, &crs.retrieve(query, SearchMode::TwoStage));
    }
    server.shutdown();
}

/// A frame-counting fake server for the no-replay regression below: it
/// speaks the hello (granting no capabilities, so frames stay
/// unchecksummed), answers pings, and *hangs up without replying* on
/// every ASSERT or RETRACT — while counting exactly how many of each it
/// ever received across all connections. Any client that auto-replayed a
/// write over a fresh connection would be caught red-handed by the
/// counter.
fn write_counting_server() -> (SocketAddr, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    use clare_net::protocol::{
        encode_server_hello, opcode, Frame, FrameReader, HelloStatus, ServerHello,
        CLIENT_HELLO_LEN, MAX_FRAME_LEN, PROTOCOL_VERSION,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let asserts = Arc::new(AtomicUsize::new(0));
    let retracts = Arc::new(AtomicUsize::new(0));
    let (a, r) = (Arc::clone(&asserts), Arc::clone(&retracts));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let (a, r) = (Arc::clone(&a), Arc::clone(&r));
            std::thread::spawn(move || {
                let mut hello = [0u8; CLIENT_HELLO_LEN];
                if stream.read_exact(&mut hello).is_err() {
                    return;
                }
                let reply = encode_server_hello(&ServerHello {
                    version: PROTOCOL_VERSION,
                    status: HelloStatus::Ok,
                    retry_after_ms: 0,
                    caps: 0,
                    fingerprint: 0,
                });
                if stream.write_all(&reply).is_err() {
                    return;
                }
                let mut fr = FrameReader::new(MAX_FRAME_LEN);
                loop {
                    let Ok(frame) = fr.read_frame(&mut stream) else {
                        return;
                    };
                    match frame.opcode {
                        opcode::ASSERT => {
                            a.fetch_add(1, Ordering::SeqCst);
                            return; // hang up mid-request, no reply
                        }
                        opcode::RETRACT => {
                            r.fetch_add(1, Ordering::SeqCst);
                            return; // hang up mid-request, no reply
                        }
                        op => {
                            let pong = Frame::new(frame.request_id, op | opcode::REPLY, Vec::new());
                            if stream.write_all(&pong.encoded()).is_err() {
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    (addr, asserts, retracts)
}

/// Non-idempotent writes are **never** auto-replayed. When the peer dies
/// mid-request after an ASSERT or RETRACT frame went out, the client
/// cannot know whether the write committed — replaying it could commit
/// it twice — so the transport error must surface to the caller, and
/// exactly one copy of the frame may ever reach the wire, even though
/// the same client happily reconnects and replays *idempotent* requests
/// on the very same connection.
#[test]
fn writes_are_never_replayed_after_mid_request_hangup() {
    let (addr, asserts, retracts) = write_counting_server();
    let cfg = ClientConfig {
        read_timeout: Duration::from_secs(2),
        reconnect_retries: 3,
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect(addr, cfg).unwrap();
    client.ping().unwrap();

    // The assert dies mid-request: the error surfaces, typed as a
    // transport failure the caller can see.
    let err = client
        .assert("m", "boom(a).")
        .expect_err("a swallowed ASSERT must surface, not silently retry");
    assert!(
        err.is_connection_fatal(),
        "the caller must see the transport failure, got {err:?}"
    );

    // The same client still recovers for idempotent traffic: ping
    // reconnects and replays, proving the replay machinery is alive —
    // it just refused to touch the write.
    let reconnects_before = clare_trace::metrics().net_client_reconnects.get();
    client.ping().unwrap();
    assert!(
        clare_trace::metrics().net_client_reconnects.get() > reconnects_before,
        "the idempotent ping should have reconnected and replayed"
    );

    // Same story for RETRACT.
    let err = client
        .retract("m", "boom(a).")
        .expect_err("a swallowed RETRACT must surface, not silently retry");
    assert!(err.is_connection_fatal());
    client.ping().unwrap();

    // Give any buggy background replay a beat to land, then the verdict:
    // exactly one copy of each write ever reached the wire.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        asserts.load(Ordering::SeqCst),
        1,
        "the ASSERT frame was replayed after the hangup"
    );
    assert_eq!(
        retracts.load(Ordering::SeqCst),
        1,
        "the RETRACT frame was replayed after the hangup"
    );
}

/// Shutdown racing a pipeline of queued requests must not drop replies:
/// a single slow worker has five jobs still queued when `shutdown()`
/// lands, and the client nonetheless receives every reply, byte-identical
/// to direct calls. This is the drain guarantee: the intake quiesces
/// first, workers finish the queue, and the event loop stays alive to
/// flush every outbound queue before releasing its fds.
#[test]
fn shutdown_drains_queued_replies() {
    // Alternating predicates: six distinct jobs must sit in the queue.
    let (server, crs) = serve_two_predicates(NetConfig {
        workers: 1,
        debug_worker_delay: Some(Duration::from_millis(40)),
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    let crs2 = Arc::clone(&crs);
    let client_thread = std::thread::spawn(move || {
        let cfg = ClientConfig {
            read_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        };
        let mut client = NetClient::connect(addr, cfg).unwrap();
        let mut symbols = client.symbols().unwrap();
        let queries = alternating_queries(&mut symbols);
        let replies = client
            .retrieve_pipelined(&queries, SearchMode::TwoStage)
            .expect("every queued reply must be delivered across shutdown");
        for (query, got) in queries.iter().zip(&replies) {
            assert_eq!(got, &crs2.retrieve(query, SearchMode::TwoStage));
        }
    });

    // Wait until the slow worker has started on the pipeline (first
    // retrieval underway or done), guaranteeing jobs are still queued…
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while crs.stats().retrievals == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "pipeline never reached the worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // …then yank the server out from under it.
    server.shutdown();
    client_thread.join().expect("client thread panicked");
}

/// A raw client (so the test controls exactly when it reads and which
/// half it closes): handshake with no capabilities, then one two-stage
/// RETRIEVE per query, pipelined, with request ids `1..=queries.len()`.
fn pipeline_retrieves(addr: SocketAddr, queries: &[Term]) -> TcpStream {
    use clare_net::protocol::{
        decode_server_hello, encode, encode_client_hello_caps, opcode, BudgetExt, Frame,
        HelloStatus, RetrieveReq, PROTOCOL_VERSION, SERVER_HELLO_LEN,
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0))
        .unwrap();
    let mut hello_raw = [0u8; SERVER_HELLO_LEN];
    stream.read_exact(&mut hello_raw).unwrap();
    assert_eq!(
        decode_server_hello(&hello_raw).unwrap().status,
        HelloStatus::Ok
    );
    let mut burst = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        let req = RetrieveReq {
            mode: SearchMode::TwoStage,
            deadline_micros: 0,
            budget: BudgetExt::NONE,
            query: query.clone(),
        };
        burst.extend(Frame::new(i as u64 + 1, opcode::RETRIEVE, encode(&req)).encoded());
    }
    stream.write_all(&burst).unwrap();
    stream
}

/// The legal pipeline-then-half-close client pattern: hello, a burst of
/// retrieves, `shutdown(WR)`, then read. Replies for jobs still in
/// flight when the EOF is observed must not be dropped — the connection
/// is owed a reply per decoded request and may only be released once the
/// in-flight count reaches zero *and* the outbound queue has flushed.
#[test]
fn half_close_delivers_in_flight_replies() {
    use clare_net::protocol::{encode, opcode, FrameReader, MAX_FRAME_LEN};
    // Six distinct jobs (alternating predicates), one slow worker: the
    // EOF overtakes the queue, so most replies are produced *after* the
    // half-close.
    let (server, crs) = serve_two_predicates(NetConfig {
        workers: 1,
        debug_worker_delay: Some(Duration::from_millis(30)),
        ..NetConfig::default()
    });

    let mut symbols = {
        let mut c = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
        c.symbols().unwrap()
    };
    let queries = alternating_queries(&mut symbols);

    // A raw client, so the write side can be shut down independently.
    let mut stream = pipeline_retrieves(server.local_addr(), &queries);
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // Every reply must still arrive before the EOF.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut fr = FrameReader::new(MAX_FRAME_LEN);
    let mut replies = std::collections::HashMap::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                fr.feed(&buf[..n]);
                while let Some(frame) = fr.try_frame().unwrap() {
                    replies.insert(frame.request_id, frame);
                }
            }
            Err(e) => panic!("reply stream failed before EOF: {e}"),
        }
    }
    assert_eq!(
        replies.len(),
        queries.len(),
        "replies in flight at half-close were dropped"
    );
    for (i, query) in queries.iter().enumerate() {
        let frame = &replies[&(i as u64 + 1)];
        assert_eq!(frame.opcode, opcode::RETRIEVE | opcode::REPLY);
        assert_eq!(
            frame.payload,
            encode(&crs.retrieve(query, SearchMode::TwoStage)),
            "reply {i} must be byte-identical to the direct call"
        );
    }
    server.shutdown();
}

/// Write-side backpressure, end to end. Every reply to `item(X, Y)` is
/// ~16 KiB and the outbound queue holds 16 KiB, so 768 pipelined retrieves
/// owe a peer far more than a loopback socket pair absorbs while the peer
/// is not reading (send buffer ≤ 4 MiB, receive window ~128 KiB): replies
/// must go through the queue, `EPOLLOUT` parking and the capacity condvar,
/// not just the direct write.
///
/// A peer that is merely *slow* — it starts reading once a worker has
/// parked on its full queue — gets every reply whole, in a valid frame
/// sequence, byte-identical to the in-process answer. A peer that *never*
/// reads is condemned after `write_timeout` while another connection
/// keeps being served, and finds a truncated stream and a close.
#[test]
fn backpressure_delivers_to_a_slow_reader_and_condemns_a_deaf_one() {
    use clare_net::protocol::{encode, opcode, FrameError, FrameReader, MAX_FRAME_LEN};
    const PIPELINE: usize = 768;

    let cfg = NetConfig {
        workers: 2,
        queue_depth: 2 * PIPELINE,
        outbound_queue_bytes: 16 * 1024,
        write_timeout: Duration::from_secs(2),
        ..NetConfig::default()
    };
    let (server, crs) = serve_kb(item_kb(4096), cfg);
    let query = parse_term("item(X, Y)", &mut crs.symbols()).unwrap();
    let direct = crs.retrieve(&query, SearchMode::TwoStage);
    let reference = encode(&direct);
    assert!(reference.len() >= 16 * 1024, "reply is {}", reference.len());
    let queries = vec![query.clone(); PIPELINE];
    let m = clare_trace::metrics();
    let wait_for_stall = |stalls_before: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while m.net_reactor_backpressure_stalls.get() == stalls_before {
            assert!(
                std::time::Instant::now() < deadline,
                "no worker ever parked on the outbound queue"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // The slow reader.
    let partial_before = m.net_reactor_partial_writes.get();
    let stalls_before = m.net_reactor_backpressure_stalls.get();
    let mut slow = pipeline_retrieves(server.local_addr(), &queries);
    wait_for_stall(stalls_before); // socket full, queue full, a worker parked
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut fr = FrameReader::new(MAX_FRAME_LEN);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..PIPELINE {
        let frame = fr.read_frame(&mut slow).expect("a reply was lost or torn");
        assert_eq!(frame.opcode, opcode::RETRIEVE | opcode::REPLY);
        let id = frame.request_id;
        assert!((1..=PIPELINE as u64).contains(&id) && seen.insert(id));
        assert!(frame.payload == reference, "reply {id} is not the answer");
    }
    assert!(
        m.net_reactor_partial_writes.get() > partial_before,
        "the socket never pushed back: the queue path was not exercised"
    );
    drop(slow);

    // The deaf peer, and a well-behaved client on the same two workers
    // across the stall and the condemnation.
    let stalls_before = m.net_reactor_backpressure_stalls.get();
    let mut deaf = pipeline_retrieves(server.local_addr(), &queries);
    wait_for_stall(stalls_before);
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let started = std::time::Instant::now();
    while started.elapsed() < Duration::from_secs(3) {
        assert_eq!(
            client.retrieve(&query, SearchMode::TwoStage).unwrap(),
            direct
        );
    }

    deaf.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut fr = FrameReader::new(MAX_FRAME_LEN);
    let mut delivered = 0;
    let end = loop {
        match fr.read_frame(&mut deaf) {
            Ok(_) => delivered += 1,
            Err(e) => break e, // EOF, a reset, or a frame torn by either
        }
    };
    assert!(
        !matches!(&end, FrameError::Io(e) if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )),
        "the condemned connection was never closed"
    );
    assert!(
        delivered < PIPELINE,
        "all {delivered} replies reached a peer that was supposed to be condemned"
    );
    client.ping().unwrap();
    server.shutdown();
}

/// A version-mismatch handshake followed by a flood of junk elicits at
/// most one server hello: the refusal state is terminal, so extra input
/// arriving in the same readiness round never re-enters the hello
/// completion branch to duplicate the reply.
#[test]
fn rejected_handshake_never_duplicates_the_hello() {
    use clare_net::protocol::{
        decode_server_hello, encode_client_hello_caps, HelloStatus, SERVER_HELLO_LEN,
    };
    let (server, _crs) = serve(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Bad version, then several read-buffers' worth of junk so multiple
    // 16 KiB read rounds follow the refusal.
    stream
        .write_all(&encode_client_hello_caps(0xDEAD, 0))
        .unwrap();
    let _ = stream.write_all(&vec![0u8; 64 * 1024]); // may hit the close: fine
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            // A reset after the server discards the unread junk is an
            // acceptable end of stream.
            Err(_) => break,
        }
    }
    assert!(
        got.len() <= SERVER_HELLO_LEN,
        "{} bytes received: the refusal hello was duplicated",
        got.len()
    );
    if got.len() == SERVER_HELLO_LEN {
        let mut raw = [0u8; SERVER_HELLO_LEN];
        raw.copy_from_slice(&got);
        assert_eq!(
            decode_server_hello(&raw).unwrap().status,
            HelloStatus::VersionMismatch
        );
    }
    server.shutdown();
}

/// Over-limit connections cannot pin fds without bound: past a small
/// courtesy budget accepts are dropped at the door, and the ones held
/// for a polite busy hello are released on a short dedicated deadline —
/// not the (here 60 s) idle timeout. A flood of silent over-limit
/// sockets must all observe a close within a few seconds, while the
/// admitted client keeps working.
#[test]
fn refused_connections_are_bounded_and_reaped() {
    let (server, _crs) = serve(NetConfig {
        workers: 1,
        max_connections: 1,
        idle_timeout: Some(Duration::from_secs(60)),
        ..NetConfig::default()
    });
    let mut occupant = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    occupant.ping().unwrap(); // the only slot is taken

    let mut silent: Vec<TcpStream> = (0..40)
        .map(|_| {
            let s = TcpStream::connect(server.local_addr()).unwrap();
            s.set_nonblocking(true).unwrap();
            s
        })
        .collect();

    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut buf = [0u8; 16];
    while !silent.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "{} refused connections still open: unbounded fd hold",
            silent.len()
        );
        silent.retain_mut(|s| match s.read(&mut buf) {
            // Open and silent — the server has sent nothing and not
            // hung up yet.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
            // EOF, reset, or (unexpectedly) bytes: the hold ended.
            _ => false,
        });
        std::thread::sleep(Duration::from_millis(50));
    }

    occupant.ping().unwrap(); // the admitted client was never disturbed
    server.shutdown();
}
