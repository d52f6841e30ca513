//! A blocking client for the `clare-net` protocol.
//!
//! [`NetClient`] mirrors the in-process
//! [`ClauseRetrievalServer`](clare_core::ClauseRetrievalServer) API call
//! for call — `retrieve`, `retrieve_batch`, `solve_goals`, `consult`,
//! `assert`, `retract`, `stats` — plus networking extras: pipelining
//! ([`retrieve_pipelined`](NetClient::retrieve_pipelined)), explicit
//! reconnection, and deadline propagation. Answers are bit-identical to
//! direct calls on the server's CRS: the wire carries the same PIF term
//! bytes and the full [`Retrieval`] (satisfier ids, verdict counts, and
//! modelled `SimNanos` times) without loss.
//!
//! Query terms must be parsed against the *server's* symbol namespace;
//! fetch it once with [`NetClient::symbols`] and intern queries into the
//! returned table (exactly like the in-process idiom of cloning
//! `kb.symbols()` before parsing a query).

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use clare_core::{CommitReceipt, Retrieval, SearchMode, ServerStats, SolveOptions, SolveOutcome};
use clare_term::{SymbolTable, Term};

use crate::error::NetError;
use crate::protocol::{
    decode, decode_server_hello, encode, encode_client_hello_caps, opcode, AssertReq, BudgetExt,
    ConsultReq, ErrorCode, ErrorReply, Frame, FrameReader, HelloStatus, MetricsReq, Ping, ReplAck,
    Request, RetractReq, RetrieveBatchReq, RetrieveReq, SolveReq, StatsReq, SubscribeLogReq,
    SymbolsReq, Tagged, CAP_FRAME_CRC, CAP_QUERY_BUDGET, MAX_FRAME_LEN, PROTOCOL_VERSION,
    SERVER_HELLO_LEN,
};
use clare_trace::MetricsSnapshot;
use clare_wal::WalRecord;

/// Client tuning knobs. The client always requests [`CAP_FRAME_CRC`] and
/// caps replies at [`MAX_FRAME_LEN`]; neither is configurable.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per candidate address.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for a reply.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// How many times an idempotent request (ping, retrieve, batch,
    /// stats, symbols) refused with `Busy` is re-sent before the error
    /// surfaces. A `Busy` reply means the request was shed *before*
    /// execution, so re-sending never duplicates work. 0 disables.
    pub busy_retries: u32,
    /// How many times an *idempotent* request that died with a
    /// connection-fatal error (I/O failure, framing corruption) is
    /// replayed over a fresh connection before the error surfaces.
    /// Non-idempotent requests (solve, consult) never replay. 0 disables.
    pub reconnect_retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            busy_retries: 5,
            reconnect_retries: 2,
        }
    }
}

/// Upper bound on a single backoff sleep between `Busy` retries. The
/// sleep starts from the server's `retry_after_ms` hint and doubles per
/// attempt up to this cap.
const BUSY_RETRY_CAP: Duration = Duration::from_secs(1);

/// A blocking connection to a [`NetServer`](crate::NetServer).
pub struct NetClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    stream: TcpStream,
    reader: FrameReader,
    /// Replies that arrived for a later caller while an earlier id was
    /// awaited (out-of-order completion under pipelining).
    stash: Vec<Frame>,
    next_id: u64,
    /// Knowledge-base build fingerprint the server reported in its hello;
    /// the cluster layer refuses to pair backends with differing bases.
    kb_fingerprint: u64,
    /// Negotiated on the handshake: CRC32C trailers on frames both ways.
    checksums: bool,
    /// Deadline attached to subsequent requests; `None` = unlimited.
    deadline: Option<Duration>,
    /// Work ceilings attached to subsequent query requests; sent on the
    /// wire only when the server negotiated [`CAP_QUERY_BUDGET`].
    budget: BudgetExt,
    /// Negotiated on the handshake: the listener accepted the budget
    /// extension. Against one that did not (the cluster router daemon)
    /// the client silently omits the tail.
    budget_capable: bool,
    /// xorshift64* state for full-jitter backoff sleeps.
    rng: u64,
}

impl NetClient {
    /// Connects and performs the protocol handshake.
    ///
    /// # Errors
    ///
    /// [`NetError::Busy`] when the server is at its connection limit (the
    /// error carries the server's retry hint),
    /// [`NetError::VersionMismatch`] when it speaks another protocol
    /// version, and I/O or protocol errors otherwise.
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, NetError> {
        let mut last_err: Option<NetError> = None;
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(NetError::Protocol("address resolved to nothing".into()));
        }
        for candidate in addrs {
            match Self::connect_one(candidate, &cfg) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one candidate was tried"))
    }

    fn connect_one(addr: SocketAddr, cfg: &ClientConfig) -> Result<Self, NetError> {
        let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        stream.set_nodelay(true).ok();

        // Always ask for CRC32C trailers on every frame in both directions;
        // against a server that declines, the connection simply runs
        // without checksums.
        let requested = CAP_FRAME_CRC | CAP_QUERY_BUDGET;
        stream.write_all(&encode_client_hello_caps(PROTOCOL_VERSION, requested))?;
        let mut hello_raw = [0u8; SERVER_HELLO_LEN];
        read_exactly(&mut stream, &mut hello_raw)?;
        let hello = decode_server_hello(&hello_raw)?;
        match hello.status {
            HelloStatus::Ok => {}
            HelloStatus::Busy => {
                return Err(NetError::Busy {
                    retry_after_ms: hello.retry_after_ms,
                })
            }
            HelloStatus::VersionMismatch => {
                return Err(NetError::VersionMismatch {
                    server: hello.version,
                })
            }
        }

        // Only what the server accepted is in effect; an accepted bit the
        // client never requested would be a server bug, so mask again.
        let checksums = hello.caps & requested & CAP_FRAME_CRC != 0;
        let budget_capable = hello.caps & requested & CAP_QUERY_BUDGET != 0;
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        reader.set_checksums(checksums);
        // Seed the backoff jitter from wall clock and peer identity; the
        // whole point is that two clients retrying the same overload do
        // not sleep in lockstep, so the seed only needs to differ.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        let rng = now ^ (u64::from(addr.port()) << 48) ^ (&addr as *const SocketAddr as u64);
        Ok(NetClient {
            addr,
            cfg: cfg.clone(),
            stream,
            reader,
            stash: Vec::new(),
            next_id: 1,
            kb_fingerprint: hello.fingerprint,
            checksums,
            deadline: None,
            budget: BudgetExt::NONE,
            budget_capable,
            rng,
        })
    }

    /// Drops the current connection and dials the same address again.
    /// Outstanding pipelined replies are discarded. Request-id allocation
    /// continues where it left off, so replies to requests sent on the
    /// old connection can never be confused with new ones.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        let fresh = Self::connect_one(self.addr, &self.cfg)?;
        let deadline = self.deadline;
        let budget = self.budget;
        let next_id = self.next_id;
        *self = fresh;
        self.deadline = deadline;
        self.budget = budget;
        self.next_id = next_id;
        Ok(())
    }

    /// The knowledge-base build fingerprint the server reported in its
    /// hello. Two servers with equal fingerprints hold byte-identical
    /// base KBs (and thus identical symbol namespaces), which is what
    /// makes shipped WAL records meaningful across them.
    pub fn kb_fingerprint(&self) -> u64 {
        self.kb_fingerprint
    }

    /// The address this client dialed.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets the deadline propagated with subsequent requests: a request
    /// still queued on the server when its deadline elapses is answered
    /// with a `DeadlineExpired` error instead of being executed. `None`
    /// (the default) sends no deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Sets the work ceilings (solve-step and candidate limits) attached
    /// to subsequent query requests. Zero fields mean unlimited;
    /// [`BudgetExt::NONE`] clears the budget. Ceilings cross the wire
    /// only when the listener negotiated the budget capability; against
    /// one that did not they are silently dropped and the request carries
    /// no budget tail.
    pub fn set_budget(&mut self, budget: BudgetExt) {
        self.budget = budget;
    }

    /// Whether the connected server negotiated the query-budget
    /// capability, i.e. whether [`NetClient::set_budget`] ceilings are
    /// actually enforced remotely.
    pub fn budget_capable(&self) -> bool {
        self.budget_capable
    }

    fn deadline_micros(&self) -> u64 {
        self.deadline
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// The budget extension to put on the wire: the configured ceilings
    /// when the server understands them, [`BudgetExt::NONE`] otherwise.
    fn wire_budget(&self) -> BudgetExt {
        if self.budget_capable {
            self.budget
        } else {
            BudgetExt::NONE
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Writes one request frame. All request bytes leave through here:
    /// the frame picks up the negotiated CRC trailer, and this is the
    /// client-side network fault-injection point
    /// ([`clare_fault::FaultSite::NetClientSend`], keyed by request id
    /// and opcode) — a request can vanish before the wire, be cut short,
    /// or be bit-flipped in flight.
    fn send_frame(&mut self, frame: &Frame) -> Result<(), NetError> {
        let mut bytes = frame.encoded_with(self.checksums);
        if clare_fault::active() {
            let ctx = frame.request_id ^ (u64::from(frame.opcode) << 56);
            match clare_fault::decide(clare_fault::FaultSite::NetClientSend, ctx) {
                clare_fault::FaultAction::Drop => return Ok(()),
                action @ (clare_fault::FaultAction::Truncate { .. }
                | clare_fault::FaultAction::FlipBit { .. }) => {
                    clare_fault::corrupt_in_place(action, &mut bytes);
                }
                _ => {}
            }
        }
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Sends one request and decodes its reply, both as the [`Request`]
    /// table says. An idempotent request honors the server's
    /// `retry_after_ms` hint on a `Busy` refusal with bounded exponential
    /// backoff (a shed request was never executed, so re-sending it is
    /// safe), and replays over a fresh connection when the transport dies
    /// (lost or corrupted frame, server reap, mid-stream hangup). The
    /// replay carries a *fresh* request id, so a stale reply from the old
    /// connection can never satisfy it. After
    /// [`ClientConfig::busy_retries`] refusals or
    /// [`ClientConfig::reconnect_retries`] transport failures the error
    /// surfaces to the caller.
    fn call<R: Request>(&mut self, req: &R) -> Result<R::Reply, NetError> {
        let payload = encode(req);
        let mut attempt = 0u32;
        let mut reconnects = 0u32;
        loop {
            match self.roundtrip(R::OP, payload.clone()) {
                Err(NetError::Remote {
                    code: ErrorCode::Busy,
                    retry_after_ms,
                    ..
                }) if R::IDEMPOTENT && attempt < self.cfg.busy_retries => {
                    let hinted = Duration::from_millis(u64::from(retry_after_ms.max(1)));
                    let backoff = full_jitter(&mut self.rng, hinted, attempt, BUSY_RETRY_CAP);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e)
                    if R::IDEMPOTENT
                        && e.is_connection_fatal()
                        && reconnects < self.cfg.reconnect_retries =>
                {
                    clare_trace::metrics().net_client_reconnects.inc();
                    self.reconnect()?;
                    reconnects += 1;
                }
                reply => return Ok(decode(&reply?.payload)?),
            }
        }
    }

    /// Sends one request frame and awaits its reply.
    fn roundtrip(&mut self, op: u8, payload: Vec<u8>) -> Result<Frame, NetError> {
        let id = self.fresh_id();
        self.send_frame(&Frame::new(id, op, payload))?;
        self.await_reply(id, op)
    }

    /// Awaits the reply for `id`, stashing interleaved replies to other
    /// ids (pipelining). Converts error frames into [`NetError::Remote`].
    fn await_reply(&mut self, id: u64, op: u8) -> Result<Frame, NetError> {
        loop {
            if let Some(i) = self.stash.iter().position(|f| f.request_id == id) {
                return check_reply(self.stash.swap_remove(i), op);
            }
            let frame = self.reader.read_frame(&mut self.stream)?;
            if frame.request_id == id {
                return check_reply(frame, op);
            }
            self.stash.push(frame);
        }
    }

    /// Retrieves candidates for one query, exactly like
    /// [`ClauseRetrievalServer::retrieve`](clare_core::ClauseRetrievalServer::retrieve).
    pub fn retrieve(&mut self, query: &Term, mode: SearchMode) -> Result<Retrieval, NetError> {
        self.call(&RetrieveReq {
            mode,
            deadline_micros: self.deadline_micros(),
            budget: self.wire_budget(),
            query: query.clone(),
        })
    }

    /// Sends every query before reading any reply (request pipelining):
    /// one network round trip for the whole set, results in query order.
    ///
    /// On the server, pipelined same-predicate retrieves are coalesced
    /// into one hardware batch pass; the replies are nonetheless
    /// byte-identical to individual [`NetClient::retrieve`] calls.
    pub fn retrieve_pipelined(
        &mut self,
        queries: &[Term],
        mode: SearchMode,
    ) -> Result<Vec<Retrieval>, NetError> {
        let deadline_micros = self.deadline_micros();
        let budget = self.wire_budget();
        let mut ids = Vec::with_capacity(queries.len());
        for query in queries {
            let id = self.fresh_id();
            let req = RetrieveReq {
                mode,
                deadline_micros,
                budget,
                query: query.clone(),
            };
            self.send_frame(&Frame::new(id, RetrieveReq::OP, encode(&req)))?;
            ids.push(id);
        }
        ids.into_iter()
            .map(|id| {
                let reply = self.await_reply(id, RetrieveReq::OP)?;
                Ok(decode(&reply.payload)?)
            })
            .collect()
    }

    /// Retrieves a batch against one knowledge-base snapshot, exactly like
    /// [`ClauseRetrievalServer::retrieve_batch`](clare_core::ClauseRetrievalServer::retrieve_batch).
    pub fn retrieve_batch(
        &mut self,
        queries: &[Term],
        mode: SearchMode,
    ) -> Result<Vec<Retrieval>, NetError> {
        let retrievals = self.call(&RetrieveBatchReq {
            mode,
            deadline_micros: self.deadline_micros(),
            budget: self.wire_budget(),
            queries: queries.to_vec(),
        })?;
        if retrievals.len() != queries.len() {
            return Err(NetError::Protocol(format!(
                "batch reply has {} members for {} queries",
                retrievals.len(),
                queries.len()
            )));
        }
        Ok(retrievals)
    }

    /// Solves a conjunction of goals, like
    /// [`ClauseRetrievalServer::solve_goals`](clare_core::ClauseRetrievalServer::solve_goals).
    /// The server supplies its own CRS options; only the solver policy in
    /// `options` (mode, limits) crosses the wire.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`], before anything is sent, for more than
    /// `u16::MAX` goals or variable names: the wire counts each in a `u16`.
    pub fn solve_goals(
        &mut self,
        goals: &[Term],
        var_names: &[String],
        options: &SolveOptions,
    ) -> Result<SolveOutcome, NetError> {
        let limit = usize::from(u16::MAX);
        if goals.len() > limit || var_names.len() > limit {
            return Err(NetError::Protocol(format!(
                "a solve request carries at most {limit} goals and {limit} variable names, \
                 not {} and {}",
                goals.len(),
                var_names.len()
            )));
        }
        self.call(&SolveReq {
            goals: goals.to_vec(),
            var_names: var_names.to_vec(),
            mode: options.mode,
            max_solutions: u64::try_from(options.max_solutions).unwrap_or(u64::MAX),
            max_depth: u64::try_from(options.max_depth).unwrap_or(u64::MAX),
            deadline_micros: self.deadline_micros(),
            budget: self.wire_budget(),
        })
    }

    /// Solves a single goal. See [`NetClient::solve_goals`].
    pub fn solve(
        &mut self,
        query: &Term,
        var_names: &[String],
        options: &SolveOptions,
    ) -> Result<SolveOutcome, NetError> {
        self.solve_goals(std::slice::from_ref(query), var_names, options)
    }

    /// Consults Prolog source into a module on the server, publishing the
    /// updated knowledge base atomically for all clients.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with
    /// [`ErrorCode::ConsultRejected`](crate::protocol::ErrorCode::ConsultRejected)
    /// when the source fails to parse or compile; the knowledge base is
    /// then unchanged.
    pub fn consult(&mut self, module: &str, source: &str) -> Result<(), NetError> {
        self.call(&ConsultReq {
            module: module.to_owned(),
            source: source.to_owned(),
        })
    }

    /// Asserts every clause in `source` (in order) to `module` through
    /// the server's WAL-serialized commit path, like
    /// [`ClauseRetrievalServer::assert_source`](clare_core::ClauseRetrievalServer::assert_source).
    /// Unlike [`NetClient::consult`], the change lands in the memtable
    /// overlay — no wholesale rebuild — and when the server has a
    /// write-ahead log attached the returned receipt reports `durable:
    /// true` only after the batch was fsynced.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with `ConsultRejected` when a clause fails to
    /// parse, compile, or fit a track; the knowledge base is unchanged.
    pub fn assert(&mut self, module: &str, source: &str) -> Result<CommitReceipt, NetError> {
        self.call::<AssertReq>(&Tagged(ConsultReq {
            module: module.to_owned(),
            source: source.to_owned(),
        }))
    }

    /// Retracts the first live clause structurally equal to the single
    /// clause in `source` (a quiet no-op receipt when none matches), like
    /// [`ClauseRetrievalServer::retract_source`](clare_core::ClauseRetrievalServer::retract_source).
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with `ConsultRejected` when the source does
    /// not hold exactly one parseable clause.
    pub fn retract(&mut self, module: &str, source: &str) -> Result<CommitReceipt, NetError> {
        self.call::<RetractReq>(&Tagged(ConsultReq {
            module: module.to_owned(),
            source: source.to_owned(),
        }))
    }

    /// Fetches the server's service statistics (the legacy fixed-size
    /// struct; see [`NetClient::metrics`] for the per-layer snapshot).
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        self.call(&StatsReq)
    }

    /// Fetches the service statistics together with the server's
    /// per-layer metrics snapshot (FS1/FS2/CRS/net counters, gauges, and
    /// latency histograms). Sends the versioned extended-stats request;
    /// servers answer the plain [`NetClient::stats`] form unchanged, so
    /// old clients keep decoding the legacy struct.
    pub fn metrics(&mut self) -> Result<(ServerStats, MetricsSnapshot), NetError> {
        self.call(&MetricsReq)
    }

    /// Downloads the server's symbol table. Parse query terms against the
    /// returned table (offsets are preserved exactly) so their PIF
    /// encodings mean the same thing on the server.
    pub fn symbols(&mut self) -> Result<SymbolTable, NetError> {
        self.call(&SymbolsReq)
    }

    /// Liveness probe: one empty-payload round trip.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.call(&Ping)
    }

    /// Subscribes this connection to the server's commit log from
    /// `from_seq` (exclusive): the server first replays every already
    /// committed op past that point, then pushes each new commit, all as
    /// request-id-0 `LOG_FRAME` frames read with
    /// [`NetClient::next_log_frame`]. Returns the server's current
    /// sequence frontier at subscription time.
    ///
    /// A [`NetClient::reconnect`] drops the subscription; re-subscribe
    /// from the last sequence applied downstream.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with [`ErrorCode::ReplGap`] when `from_seq`
    /// predates the server's compaction frontier — the overlay ops before
    /// it are folded and can no longer be replayed.
    pub fn subscribe_log(&mut self, from_seq: u64) -> Result<u64, NetError> {
        self.call::<SubscribeLogReq>(&Tagged(from_seq))
    }

    /// Blocks for the next `LOG_FRAME` pushed on this subscribed
    /// connection and returns its raw ship-record payload (decode with
    /// [`clare_wal::decode_ship_record`]). Pushes that arrived while a
    /// reply was being awaited are drained first, in arrival order.
    pub fn next_log_frame(&mut self) -> Result<Vec<u8>, NetError> {
        if let Some(i) = self
            .stash
            .iter()
            .position(|f| f.request_id == 0 && f.opcode == opcode::LOG_FRAME)
        {
            return Ok(self.stash.remove(i).payload);
        }
        loop {
            let frame = self.reader.read_frame(&mut self.stream)?;
            if frame.request_id == 0 && frame.opcode == opcode::LOG_FRAME {
                return Ok(frame.payload);
            }
            self.stash.push(frame);
        }
    }

    /// Ships one WAL record (the bytes of `clare_wal::encode_ship_record`)
    /// to this server for replicated apply; returns the server's
    /// applied-through sequence.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`], before anything is sent, when the bytes are
    /// not a ship record.
    ///
    /// [`NetError::Remote`] with [`ErrorCode::ReplGap`] when the record
    /// skips ahead of the sequence the server expects next (the message
    /// names it); re-ship from there.
    pub fn ship_log_frame(&mut self, ship_record: Vec<u8>) -> Result<u64, NetError> {
        let record: WalRecord = decode(&ship_record)?;
        self.call(&record)
    }

    /// Reports to a subscribed-to primary that the downstream backup has
    /// applied through `seq`; the primary updates its replication-lag
    /// gauge.
    pub fn repl_ack(&mut self, seq: u64) -> Result<(), NetError> {
        self.call::<ReplAck>(&Tagged(seq))
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Validates a reply frame: the expected reply opcode passes through, an
/// error frame becomes [`NetError::Remote`], anything else is a protocol
/// violation.
fn check_reply(frame: Frame, request_op: u8) -> Result<Frame, NetError> {
    let expected = request_op | opcode::REPLY;
    if frame.opcode == expected {
        return Ok(frame);
    }
    if frame.opcode == opcode::ERROR {
        let e: ErrorReply = decode(&frame.payload)?;
        return Err(NetError::Remote {
            code: e.code,
            retry_after_ms: e.retry_after_ms,
            message: e.message,
        });
    }
    Err(NetError::Protocol(format!(
        "expected reply opcode {expected:#04x}, got {:#04x}",
        frame.opcode
    )))
}

/// One step of xorshift64* — a tiny, dependency-free PRNG; plenty for
/// decorrelating backoff sleeps (never used where quality matters).
fn xorshift64star(state: &mut u64) -> u64 {
    // A zero state is a fixed point; nudge it off.
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Full-jitter backoff ("Exponential Backoff And Jitter"): a sleep drawn
/// uniformly from `[0, min(cap, hint << attempt)]`. Deterministic
/// exponential backoff synchronizes every client that was refused by the
/// same overloaded server — they all sleep the same hinted interval and
/// stampede back together. Randomizing over the whole window spreads the
/// retries out.
fn full_jitter(state: &mut u64, hinted: Duration, attempt: u32, cap: Duration) -> Duration {
    let ceiling = hinted
        .saturating_mul(1u32 << attempt.min(10))
        .min(cap)
        .as_nanos() as u64;
    if ceiling == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(xorshift64star(state) % (ceiling + 1))
}

/// `read_exact` that maps a clean peer close to a protocol error rather
/// than a bare `UnexpectedEof` I/O error.
fn read_exactly(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), NetError> {
    use std::io::Read;
    match stream.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(NetError::Protocol(
            "server closed the connection during the handshake".into(),
        )),
        Err(e) => Err(NetError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode;
    use crate::{NetConfig, NetServer};
    use clare_core::{ClauseRetrievalServer, CrsOptions, ModeChoice};
    use clare_kb::{KbBuilder, KbConfig};
    use std::sync::Arc;

    #[test]
    fn solve_refuses_more_goals_or_names_than_a_u16_counts() {
        // The wire counts goals and names in a u16: u16::MAX of them
        // round-trip through the codec...
        let most = usize::from(u16::MAX);
        let req = SolveReq {
            goals: vec![Term::Int(1); most],
            var_names: vec!["X".to_owned(); most],
            mode: ModeChoice::Auto,
            max_solutions: 1,
            max_depth: 1,
            deadline_micros: 0,
            budget: BudgetExt::NONE,
        };
        assert_eq!(decode::<SolveReq>(&encode(&req)).unwrap(), req);

        // ...and one more is refused before a frame leaves the client.
        let kb = KbBuilder::new().finish(KbConfig::default());
        let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
        let server = NetServer::bind(crs, "127.0.0.1:0", NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
        let solves_in =
            || clare_trace::metrics().net_frames_in[usize::from(opcode::SOLVE - 1)].get();
        let before = solves_in();
        let options = SolveOptions::default();
        for (goals, names) in [(most + 1, 0), (1, most + 1)] {
            let got = client.solve_goals(
                &vec![Term::Int(1); goals],
                &vec!["X".to_owned(); names],
                &options,
            );
            assert!(matches!(got, Err(NetError::Protocol(_))), "{got:?}");
        }
        client.ping().unwrap();
        assert_eq!(solves_in(), before, "a SOLVE frame reached the server");
        server.shutdown();
    }

    #[test]
    fn full_jitter_stays_within_the_exponential_window() {
        let hint = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        let mut state = 42u64;
        for attempt in 0..8u32 {
            let window = hint.saturating_mul(1u32 << attempt).min(cap);
            for _ in 0..200 {
                let sleep = full_jitter(&mut state, hint, attempt, cap);
                assert!(
                    sleep <= window,
                    "attempt {attempt}: {sleep:?} exceeds window {window:?}"
                );
            }
        }
    }

    #[test]
    fn full_jitter_caps_at_the_configured_maximum() {
        let mut state = 7u64;
        for attempt in 0..32u32 {
            let sleep = full_jitter(
                &mut state,
                Duration::from_secs(10),
                attempt,
                Duration::from_millis(250),
            );
            assert!(sleep <= Duration::from_millis(250));
        }
    }

    #[test]
    fn full_jitter_actually_varies() {
        // The point of jitter is decorrelation: with a nonzero window the
        // draws must not collapse onto a single value.
        let mut state = 0xDEAD_BEEFu64;
        let draws: Vec<Duration> = (0..64)
            .map(|_| {
                full_jitter(
                    &mut state,
                    Duration::from_millis(100),
                    3,
                    Duration::from_secs(5),
                )
            })
            .collect();
        let first = draws[0];
        assert!(draws.iter().any(|d| *d != first), "64 identical draws");
    }

    #[test]
    fn full_jitter_zero_window_is_zero() {
        let mut state = 1u64;
        assert_eq!(
            full_jitter(&mut state, Duration::ZERO, 5, Duration::from_secs(1)),
            Duration::ZERO
        );
    }
}
