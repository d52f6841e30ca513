//! `clare-cluster`: the predicate-sharded cluster router daemon.
//!
//! Speaks the same PIF-over-TCP protocol as `clare-served`, so ordinary
//! clients connect to the router and see one logical Clause Retrieval
//! Server; behind it, requests shard by predicate across the configured
//! backends with log-shipping replication and failover.
//!
//! ```text
//! clare-cluster [OPTIONS]
//!
//!   --addr HOST:PORT       listen address       (default 127.0.0.1:7899)
//!   --shard PRIM[,BACKUP]  one shard: primary backend address, plus an
//!                          optional log-shipping backup (repeatable;
//!                          at least one required)
//!   --hot FUNCTOR/ARITY    split this predicate by first argument
//!                          across all shards (repeatable)
//!   --heartbeat-ms N       health-probe period  (default 500; 0 turns
//!                          the probe thread off — failover is manual)
//!   --misses K             consecutive probe misses before promotion
//!                          (default 3)
//!   --repl-timeout-ms N    semi-sync write wait (default 2000)
//!   --no-auto-failover     count misses but never promote automatically
//!   --no-stdin             serve forever instead of exiting on stdin EOF
//! ```
//!
//! Prints `listening on ADDR` on stdout once ready, like `clare-served`.

use clare_cluster::ClusterError;
use clare_cluster::{Router, RouterConfig, ShardMap, ShardSpec};
use clare_net::protocol::{
    admit_client, decode_consult, decode_retrieve, decode_retrieve_batch, encode_commit_receipt,
    encode_error, encode_retrieval, encode_retrievals, encode_server_hello, encode_server_stats,
    encode_symbols, opcode, ErrorCode, ErrorReply, Frame, FrameReader, HelloStatus, CAP_FRAME_CRC,
    CLIENT_HELLO_LEN, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use clare_net::NetError;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    shards: Vec<ShardSpec>,
    hot: Vec<(String, usize)>,
    heartbeat_ms: u64,
    misses: u32,
    repl_timeout_ms: u64,
    auto_failover: bool,
    wait_stdin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7899".to_owned(),
        shards: Vec::new(),
        hot: Vec::new(),
        heartbeat_ms: 500,
        misses: 3,
        repl_timeout_ms: 2000,
        auto_failover: true,
        wait_stdin: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shard" => {
                let spec = value("--shard")?;
                let mut parts = spec.splitn(2, ',');
                let primary = parts
                    .next()
                    .filter(|p| !p.is_empty())
                    .ok_or("empty --shard")?
                    .to_owned();
                let backup = parts.next().filter(|b| !b.is_empty()).map(str::to_owned);
                args.shards.push(ShardSpec { primary, backup });
            }
            "--hot" => {
                let spec = value("--hot")?;
                let (functor, arity) = spec
                    .rsplit_once('/')
                    .ok_or_else(|| format!("bad --hot {spec:?} (expected functor/arity)"))?;
                let arity: usize = arity.parse().map_err(|e| format!("bad --hot arity: {e}"))?;
                args.hot.push((functor.to_owned(), arity));
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("bad --heartbeat-ms: {e}"))?
            }
            "--misses" => {
                args.misses = value("--misses")?
                    .parse()
                    .map_err(|e| format!("bad --misses: {e}"))?
            }
            "--repl-timeout-ms" => {
                args.repl_timeout_ms = value("--repl-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --repl-timeout-ms: {e}"))?
            }
            "--no-auto-failover" => args.auto_failover = false,
            "--no-stdin" => args.wait_stdin = false,
            "--help" | "-h" => {
                return Err("usage: clare-cluster --shard PRIMARY[,BACKUP] [OPTIONS] \
                            (see crate docs for options)"
                    .to_owned())
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.shards.is_empty() {
        return Err("at least one --shard is required".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("clare-cluster: {msg}");
            std::process::exit(2);
        }
    };

    let map = ShardMap {
        shards: args.shards.clone(),
        hot: args.hot.clone(),
        fingerprint: None,
    };
    let cfg = RouterConfig {
        heartbeat_misses: args.misses,
        auto_failover: args.auto_failover,
        repl_sync_timeout: Duration::from_millis(args.repl_timeout_ms),
        ..RouterConfig::default()
    };
    let router = match Router::connect(map, cfg) {
        Ok(router) => Arc::new(router),
        Err(e) => {
            eprintln!("clare-cluster: cannot assemble the cluster: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "clare-cluster: {} shard(s) connected, KB fingerprint {:#018x}",
        router.shard_count(),
        router.kb_fingerprint()
    );

    let shutdown = Arc::new(AtomicBool::new(false));
    if args.heartbeat_ms > 0 {
        let router = Arc::clone(&router);
        let shutdown = Arc::clone(&shutdown);
        let period = Duration::from_millis(args.heartbeat_ms);
        std::thread::Builder::new()
            .name("clare-health".to_owned())
            .spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    for shard in router.tick_health() {
                        eprintln!("clare-cluster: shard {shard} failed over to its backup");
                    }
                }
            })
            .ok();
    }

    let listener = match TcpListener::bind(&args.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("clare-cluster: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    // The harness contract: this exact line signals readiness.
    println!("listening on {local}");
    eprintln!("clare-cluster: protocol v{PROTOCOL_VERSION}, routing on {local}");

    {
        let router = Arc::clone(&router);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("clare-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let router = Arc::clone(&router);
                    std::thread::Builder::new()
                        .name("clare-conn".to_owned())
                        .spawn(move || serve_connection(stream, &router))
                        .ok();
                }
            })
            .ok();
    }

    if args.wait_stdin {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            if line.is_err() {
                break;
            }
        }
        eprintln!("clare-cluster: stdin closed, exiting");
        shutdown.store(true, Ordering::Relaxed);
    } else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}

/// Serves one client connection: hello exchange, then a frame loop
/// dispatching into the router.
fn serve_connection(mut stream: TcpStream, router: &Router) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
    let mut hello_raw = [0u8; CLIENT_HELLO_LEN];
    if stream.read_exact(&mut hello_raw).is_err() {
        return;
    }
    // The router forwards queries without their budget tail, so it
    // grants the CRC capability only.
    let hello = admit_client(&hello_raw, CAP_FRAME_CRC, router.kb_fingerprint());
    if stream.write_all(&encode_server_hello(&hello)).is_err() || hello.status != HelloStatus::Ok {
        return;
    }

    let checksums = hello.caps & CAP_FRAME_CRC != 0;
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    reader.set_checksums(checksums);
    loop {
        let frame = match reader.read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        let reply = dispatch(router, &frame);
        if stream.write_all(&reply.encoded_with(checksums)).is_err() {
            return;
        }
    }
}

/// Answers one request frame. Every error becomes an error frame; the
/// connection survives anything but a dead socket.
fn dispatch(router: &Router, frame: &Frame) -> Frame {
    let id = frame.request_id;
    match frame.opcode {
        opcode::PING => Frame::new(id, opcode::PING | opcode::REPLY, Vec::new()),
        opcode::RETRIEVE => match decode_retrieve(&frame.payload) {
            Ok(req) => match router.retrieve(&req.query, req.mode) {
                Ok(retrieval) => Frame::new(
                    id,
                    opcode::RETRIEVE | opcode::REPLY,
                    encode_retrieval(&retrieval),
                ),
                Err(e) => error_frame(id, &e),
            },
            Err(e) => malformed(id, &e.to_string()),
        },
        opcode::RETRIEVE_BATCH => match decode_retrieve_batch(&frame.payload) {
            Ok(req) => {
                // Queries in one batch may route to different shards;
                // answer each individually (the core pins batch results
                // equal to individual retrievals, so this is lossless).
                let mut retrievals = Vec::with_capacity(req.queries.len());
                for query in &req.queries {
                    match router.retrieve(query, req.mode) {
                        Ok(retrieval) => retrievals.push(retrieval),
                        Err(e) => return error_frame(id, &e),
                    }
                }
                Frame::new(
                    id,
                    opcode::RETRIEVE_BATCH | opcode::REPLY,
                    encode_retrievals(&retrievals),
                )
            }
            Err(e) => malformed(id, &e.to_string()),
        },
        opcode::ASSERT => match decode_consult(&frame.payload) {
            Ok(req) => match router.assert(&req.module, &req.source) {
                Ok(receipt) => Frame::new(
                    id,
                    opcode::ASSERT | opcode::REPLY,
                    encode_commit_receipt(&receipt.receipt),
                ),
                Err(e) => error_frame(id, &e),
            },
            Err(e) => malformed(id, &e.to_string()),
        },
        opcode::RETRACT => match decode_consult(&frame.payload) {
            Ok(req) => match router.retract(&req.module, &req.source) {
                Ok(receipt) => Frame::new(
                    id,
                    opcode::RETRACT | opcode::REPLY,
                    encode_commit_receipt(&receipt.receipt),
                ),
                Err(e) => error_frame(id, &e),
            },
            Err(e) => malformed(id, &e.to_string()),
        },
        opcode::STATS if frame.payload.is_empty() => match router.stats() {
            Ok(stats) => Frame::new(
                id,
                opcode::STATS | opcode::REPLY,
                encode_server_stats(&stats),
            ),
            Err(e) => error_frame(id, &e),
        },
        opcode::SYMBOLS => Frame::new(
            id,
            opcode::SYMBOLS | opcode::REPLY,
            encode_symbols(&router.symbols()),
        ),
        other => unsupported(
            id,
            &format!("opcode {other:#04x} is not routed by the cluster"),
        ),
    }
}

fn error_frame(id: u64, e: &ClusterError) -> Frame {
    let (code, retry_after_ms, message) = match e {
        // A backend's own error frame passes through with its code.
        ClusterError::Net(NetError::Remote {
            code,
            retry_after_ms,
            message,
        }) => (*code, *retry_after_ms, message.clone()),
        ClusterError::Parse(msg) => (ErrorCode::ConsultRejected, 0, msg.clone()),
        ClusterError::Unroutable(_) | ClusterError::CrossShardWrite { .. } => {
            (ErrorCode::Unsupported, 0, e.to_string())
        }
        _ => (ErrorCode::Internal, 0, e.to_string()),
    };
    let reply = ErrorReply {
        code,
        retry_after_ms,
        message,
    };
    Frame::new(id, opcode::ERROR, encode_error(&reply))
}

fn malformed(id: u64, message: &str) -> Frame {
    Frame::new(
        id,
        opcode::ERROR,
        encode_error(&ErrorReply {
            code: ErrorCode::Malformed,
            retry_after_ms: 0,
            message: message.to_owned(),
        }),
    )
}

fn unsupported(id: u64, message: &str) -> Frame {
    Frame::new(
        id,
        opcode::ERROR,
        encode_error(&ErrorReply {
            code: ErrorCode::Unsupported,
            retry_after_ms: 0,
            message: message.to_owned(),
        }),
    )
}
