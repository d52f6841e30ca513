//! E17 — serving-core wall-clock: connections × pipelining depth against
//! a live loopback `NetServer`.
//!
//! The C10K question in numbers: the epoll reactor multiplexes every
//! connection over a fixed shard thread, so its cost should follow the
//! request rate, not the connection count. This experiment drives a
//! phased workload — every connection pipelines `depth` retrieves, then
//! all replies are collected — across a (connections, depth) matrix up to
//! 1024 concurrent connections and reports sustained throughput plus
//! client-observed completion latency percentiles, with the host, core
//! count and commit that produced them.
//!
//! Clients speak the raw wire protocol over plain sockets (no reader
//! threads of their own), so what is measured is the server, not the
//! harness.

use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
use clare_net::protocol::{
    decode_server_hello, encode_client_hello_caps, encode_retrieve, opcode, BudgetExt, Frame,
    FrameReader, HelloStatus, RetrieveReq, PROTOCOL_VERSION, SERVER_HELLO_LEN,
};
use clare_net::{NetConfig, NetServer};
use clare_term::parser::parse_term;
use clare_term::Term;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One point of the measurement matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCase {
    /// Concurrent connections held open for the whole case.
    pub connections: usize,
    /// Pipelined retrieves in flight per connection per round.
    pub depth: usize,
}

/// One measured case.
#[derive(Debug, Clone, PartialEq)]
pub struct NetWallclockRow {
    /// Concurrent connections.
    pub connections: usize,
    /// Pipelining depth per connection.
    pub depth: usize,
    /// Total requests served across the timed rounds.
    pub requests: usize,
    /// Wall-clock for the timed rounds, milliseconds.
    pub elapsed_ms: f64,
    /// Sustained requests per second.
    pub throughput_rps: f64,
    /// Median client-observed completion latency per connection-round,
    /// microseconds (round start → that connection's replies all read).
    pub p50_us: f64,
    /// 99th-percentile completion latency, microseconds.
    pub p99_us: f64,
}

/// The wall-clock report.
#[derive(Debug, Clone, PartialEq)]
pub struct NetWallclockReport {
    /// Where the numbers come from: kernel hostname, cores available to
    /// the process, and `git describe --always --dirty` of the checkout.
    pub host: String,
    /// See `host`.
    pub cores: usize,
    /// See `host`.
    pub commit: String,
    /// Facts in the knowledge base every request retrieves against.
    pub facts: usize,
    /// Timed rounds per case.
    pub rounds: usize,
    /// One row per matrix point, in input order.
    pub rows: Vec<NetWallclockRow>,
}

impl NetWallclockReport {
    /// Renders the report as a small JSON document (hand-written — the
    /// workspace deliberately carries no serde dependency).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields = [
                    ("connections", row.connections.to_string()),
                    ("depth", row.depth.to_string()),
                    ("requests", row.requests.to_string()),
                    ("elapsed_ms", format!("{:.1}", row.elapsed_ms)),
                    ("throughput_rps", format!("{:.0}", row.throughput_rps)),
                    ("p50_us", format!("{:.0}", row.p50_us)),
                    ("p99_us", format!("{:.0}", row.p99_us)),
                ]
                .map(|(key, value)| format!("      \"{key}\": {value}"));
                format!("    {{\n{}\n    }}", fields.join(",\n"))
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"net_wallclock\",\n  \"unit\": \"requests_per_second\",\n  \
             \"host\": \"{}\",\n  \"cores\": {},\n  \"commit\": \"{}\",\n  \"facts\": {},\n  \
             \"rounds\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.host,
            self.cores,
            self.commit,
            self.facts,
            self.rounds,
            rows.join(",\n")
        )
    }
}

const KEYS: usize = 120;

/// Runs the matrix. Every case serves the same knowledge base and the
/// same per-connection query mix; `rounds` timed rounds follow one
/// untimed warmup round.
pub fn run(cases: &[NetCase], facts: usize, rounds: usize) -> NetWallclockReport {
    let mut b = KbBuilder::new();
    let source: String = (0..facts)
        .map(|i| format!("item(k{}, v{}).", i % KEYS, i % 7))
        .collect::<Vec<_>>()
        .join("\n");
    b.consult("bench", &source).unwrap();
    let kb = b.finish(KbConfig::default());
    let mut symbols = kb.symbols().clone();
    let queries: Vec<Term> = (0..KEYS)
        .map(|k| parse_term(&format!("item(k{k}, X)"), &mut symbols).unwrap())
        .collect();
    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));

    let rows = cases
        .iter()
        .map(|&case| run_case(&crs, &queries, case, rounds))
        .collect();
    let (host, cores, commit) = provenance();
    NetWallclockReport {
        host,
        cores,
        commit,
        facts,
        rounds,
        rows,
    }
}

/// Where a wall-clock report's numbers come from: the kernel hostname,
/// the cores available to the process, and `git describe --always
/// --dirty` of the checkout. Shared with [`super::fs1_wallclock`] and
/// [`super::fs2_wallclock`].
pub(crate) fn provenance() -> (String, usize, String) {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    (
        std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        std::thread::available_parallelism().map_or(0, usize::from),
        commit.unwrap_or_else(|| "unknown".to_owned()),
    )
}

fn run_case(
    crs: &Arc<ClauseRetrievalServer>,
    queries: &[Term],
    case: NetCase,
    rounds: usize,
) -> NetWallclockRow {
    let cfg = NetConfig {
        max_connections: case.connections + 16,
        queue_depth: (case.connections * case.depth * 2).max(1024),
        workers: 4,
        ..NetConfig::default()
    };
    let server = NetServer::bind(Arc::clone(crs), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // Open the whole connection population and complete hellos.
    let mut conns: Vec<TcpStream> = Vec::with_capacity(case.connections);
    for i in 0..case.connections {
        let mut stream = connect_with_retry(addr);
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0))
            .unwrap();
        conns.push(stream);
        let _ = i;
    }
    for stream in conns.iter_mut() {
        let mut hello = [0u8; SERVER_HELLO_LEN];
        stream.read_exact(&mut hello).unwrap();
        assert_eq!(
            decode_server_hello(&hello).unwrap().status,
            HelloStatus::Ok,
            "bench connection refused — raise max_connections"
        );
    }

    // Pre-encode each connection's request batch once; ids are reassigned
    // per round, but the payload bytes are identical, so reuse them.
    let payloads: Vec<Vec<u8>> = (0..case.connections)
        .map(|i| {
            let req = RetrieveReq {
                mode: SearchMode::TwoStage,
                deadline_micros: 0,
                budget: BudgetExt::NONE,
                query: queries[i % queries.len()].clone(),
            };
            encode_retrieve(&req)
        })
        .collect();

    let mut latencies_us: Vec<f64> = Vec::with_capacity(case.connections * rounds);
    let mut next_id: u64 = 1;
    let mut elapsed = Duration::ZERO;
    for round in 0..=rounds {
        let timed = round > 0; // round 0 is warmup
        let t0 = Instant::now();
        // Phase 1: every connection pipelines `depth` requests.
        for (i, stream) in conns.iter_mut().enumerate() {
            let mut batch = Vec::new();
            for _ in 0..case.depth {
                batch.extend_from_slice(
                    &Frame::new(next_id, opcode::RETRIEVE, payloads[i].clone()).encoded(),
                );
                next_id += 1;
            }
            stream.write_all(&batch).unwrap();
        }
        // Phase 2: collect every reply, recording per-connection
        // completion latency.
        for stream in conns.iter_mut() {
            let mut fr = FrameReader::new(16 << 20);
            let mut got = 0usize;
            while got < case.depth {
                let frame = fr.read_frame(stream).expect("bench reply stream died");
                assert_eq!(frame.opcode, opcode::RETRIEVE | opcode::REPLY);
                got += 1;
            }
            if timed {
                latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        if timed {
            elapsed += t0.elapsed();
        }
    }
    drop(conns);
    server.shutdown();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pct = |p: f64| -> f64 {
        if latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_us.len() as f64 - 1.0) * p).round() as usize;
        latencies_us[idx]
    };
    let requests = case.connections * case.depth * rounds;
    let secs = elapsed.as_secs_f64().max(1e-9);
    NetWallclockRow {
        connections: case.connections,
        depth: case.depth,
        requests,
        elapsed_ms: secs * 1e3,
        throughput_rps: requests as f64 / secs,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

fn connect_with_retry(addr: std::net::SocketAddr) -> TcpStream {
    for _ in 0..500 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("bench client could not connect");
}

impl fmt::Display for NetWallclockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E17: serving-core wall-clock — throughput and completion latency vs \
             connections x pipelining depth ({} facts, {} timed rounds; {} cores on {}, \
             commit {})\n",
            self.facts, self.rounds, self.cores, self.host, self.commit
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.connections),
                    format!("{}", r.depth),
                    format!("{}", r.requests),
                    format!("{:.0}", r.throughput_rps),
                    format!("{:.0}", r.p50_us),
                    format!("{:.0}", r.p99_us),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::render_table(
                &["conns", "depth", "requests", "req/s", "p50 us", "p99 us"],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_json() {
        let cases = [
            NetCase {
                connections: 8,
                depth: 2,
            },
            NetCase {
                connections: 4,
                depth: 4,
            },
        ];
        let r = run(&cases, 600, 2);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert_eq!(row.requests, 16 * 2);
            assert!(row.throughput_rps > 0.0);
            assert!(row.p50_us > 0.0);
            assert!(row.p99_us >= row.p50_us);
        }
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"net_wallclock\""));
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"commit\": \""));
        assert!(format!("{r}").contains("req/s"));
    }
}
