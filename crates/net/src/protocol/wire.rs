//! Wire encodings for every `clare-net` operation.
//!
//! Query terms travel as PIF term bytes (via [`clare_pif::encode_term`] /
//! [`clare_pif::decode_term`]), so the network protocol speaks the same
//! type-driven format the simulated hardware consumes — the wire *is* the
//! Pseudo In-line Format, framed. Everything around the terms (counts,
//! stats, strings) is plain big-endian integers with length prefixes.
//!
//! All decoders here take untrusted bytes: they must return
//! [`WireError`] on any malformed input and never panic, a property the
//! crate's fuzz tests pin. Decoding is bounds-checked through [`Cur`] and
//! term payloads inherit the hardened limits of
//! [`clare_pif::TermLimits`].

use clare_core::{
    CommitReceipt, ModeChoice, Retrieval, RetrievalStats, SearchMode, ServerStats, Solution,
    SolveOutcome, SolveStats,
};
use clare_disk::SimNanos;
use clare_pif::{decode_term, encode_term, TermLimits};
use clare_term::{ClauseId, FloatId, Symbol, SymbolTable, Term};
use clare_trace::{HistogramSnapshot, MetricsSnapshot};

/// The one protocol version this build speaks. Bumped on any incompatible
/// frame or payload change; the handshake ([`admit_client`]) refuses every
/// other version outright (status [`HelloStatus::VersionMismatch`]) rather
/// than guessing. Optional behaviour within a version is negotiated through
/// the hello capability bits ([`CAP_FRAME_CRC`], [`CAP_QUERY_BUDGET`]).
pub const PROTOCOL_VERSION: u16 = 4;

/// Hello capability bit: the peer wants CRC32C trailers on every frame
/// ([`super::frame::FRAME_CRC_TRAILER`]). Effective only when requested by
/// the client *and* accepted by the server; both hellos carry a capability
/// byte (client byte 6 = requested, server byte 7 = accepted).
pub const CAP_FRAME_CRC: u8 = 1;

/// Hello capability bit: the peer understands the query-budget request
/// extension ([`BudgetExt`]) and the `BudgetExceeded` error code. A
/// client must not append the extension unless the server accepted the
/// bit.
pub const CAP_QUERY_BUDGET: u8 = 2;

/// Client hello magic: `"CLRE"`.
pub const CLIENT_MAGIC: [u8; 4] = *b"CLRE";
/// Server hello magic: `"CLRS"`.
pub const SERVER_MAGIC: [u8; 4] = *b"CLRS";
/// Byte length of the client hello (magic + version + reserved).
pub const CLIENT_HELLO_LEN: usize = 8;
/// Byte length of the server hello (magic + version + status + caps +
/// retry-after + KB build fingerprint).
pub const SERVER_HELLO_LEN: usize = 20;

/// Frame opcodes. Requests are `0x01..=0x0C`; the matching reply is the
/// request opcode with the high bit set; `0xFF` is an error reply.
/// `LOG_FRAME` doubles as a server push (request id 0) on a replication
/// subscription.
pub mod opcode {
    /// Liveness probe; empty payload both ways.
    pub const PING: u8 = 0x01;
    /// Single retrieval ([`super::RetrieveReq`] → [`super::Retrieval`]).
    pub const RETRIEVE: u8 = 0x02;
    /// Batched retrieval ([`super::RetrieveBatchReq`] → retrieval list).
    pub const RETRIEVE_BATCH: u8 = 0x03;
    /// Resolution ([`super::SolveReq`] → [`super::SolveOutcome`]).
    pub const SOLVE: u8 = 0x04;
    /// Consult-update ([`super::ConsultReq`] → empty reply).
    pub const CONSULT: u8 = 0x05;
    /// Server statistics (empty → [`super::ServerStats`]).
    pub const STATS: u8 = 0x06;
    /// Symbol-table download (empty → [`super::SymbolTable`]).
    pub const SYMBOLS: u8 = 0x07;
    /// Durable assert ([`super::ConsultReq`] → [`super::CommitReceipt`]):
    /// adds every clause in the source through the WAL-serialized commit
    /// path instead of a wholesale rebuild.
    pub const ASSERT: u8 = 0x08;
    /// Durable retract ([`super::ConsultReq`] → [`super::CommitReceipt`]):
    /// removes the first live clause structurally equal to the source's
    /// single clause.
    pub const RETRACT: u8 = 0x09;
    /// Replication subscription ([`super::SubscribeLogReq`] → current
    /// sequence number): the server first pushes catch-up `LOG_FRAME`s
    /// for every overlay op past `from_seq`, then streams each commit as
    /// it lands. Pushed frames carry request id 0.
    pub const SUBSCRIBE_LOG: u8 = 0x0A;
    /// A shipped WAL record (`clare_wal::encode_ship_record` bytes). As a
    /// server push (request id 0) it carries a freshly committed record
    /// to a subscriber; as a request it asks a backup to apply the record
    /// and reply with its applied-through sequence.
    pub const LOG_FRAME: u8 = 0x0B;
    /// Replication acknowledgement ([`super::ReplAck`] → empty reply):
    /// tells a primary its backup has applied through a sequence number
    /// (feeds the `cluster.repl_lag_frames` gauge).
    pub const REPL_ACK: u8 = 0x0C;
    /// Reply bit: `reply opcode = request opcode | REPLY`.
    pub const REPLY: u8 = 0x80;
    /// Error reply ([`super::ErrorReply`]), sent in place of any reply.
    pub const ERROR: u8 = 0xFF;
}

/// Error codes carried by [`ErrorReply`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request payload failed to decode. The offending frame is
    /// answered with this error and the connection stays up.
    Malformed,
    /// The opcode is not one the server implements.
    Unsupported,
    /// The server's request queue is full; retry after the hinted delay.
    Busy,
    /// The request's deadline had already expired when a worker picked it
    /// up, so the work was not performed.
    DeadlineExpired,
    /// A consult-update failed to parse or compile; the message carries
    /// the reason. The knowledge base is unchanged.
    ConsultRejected,
    /// The server failed internally (e.g. a worker panicked).
    Internal,
    /// A shipped `LOG_FRAME` arrived out of order: its sequence number
    /// skips past what the backup has applied. The message carries the
    /// expected sequence; the router resends from there.
    ReplGap,
    /// A query budget other than the wall-clock deadline tripped
    /// mid-execution (solve-step or candidate ceiling): the work was
    /// abandoned at a cancellation checkpoint and **no partial answer was
    /// produced or cached**. Deadline trips report
    /// [`ErrorCode::DeadlineExpired`] whether they fire in the queue or
    /// mid-execution.
    BudgetExceeded,
}

impl ErrorCode {
    /// Wire value.
    pub fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::Busy => 3,
            ErrorCode::DeadlineExpired => 4,
            ErrorCode::ConsultRejected => 5,
            ErrorCode::Internal => 6,
            ErrorCode::ReplGap => 7,
            ErrorCode::BudgetExceeded => 8,
        }
    }

    /// Decodes a wire value.
    pub fn from_wire(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::Busy,
            4 => ErrorCode::DeadlineExpired,
            5 => ErrorCode::ConsultRejected,
            6 => ErrorCode::Internal,
            7 => ErrorCode::ReplGap,
            8 => ErrorCode::BudgetExceeded,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Malformed => "malformed request",
            ErrorCode::Unsupported => "unsupported operation",
            ErrorCode::Busy => "server busy",
            ErrorCode::DeadlineExpired => "deadline expired",
            ErrorCode::ConsultRejected => "consult rejected",
            ErrorCode::Internal => "internal server error",
            ErrorCode::ReplGap => "replication sequence gap",
            ErrorCode::BudgetExceeded => "query budget exceeded",
        })
    }
}

/// A malformed payload: the reason a decoder gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(reason: impl Into<String>) -> WireError {
    WireError(reason.into())
}

/// A bounds-checked cursor over an untrusted payload. Every read is
/// checked; running past the end is a [`WireError`], never a panic.
struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cur { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(err(format!("need {n} bytes, {} remain", self.remaining())));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    /// A `u32`-prefixed UTF-8 string.
    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("string is not UTF-8"))
    }

    /// A PIF-encoded term, advancing past it.
    fn term(&mut self) -> Result<Term, WireError> {
        let limits = TermLimits::default();
        let (term, used) = decode_term(&self.data[self.pos..], &limits)
            .map_err(|e| err(format!("bad term: {e}")))?;
        self.pos += used;
        Ok(term)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(err(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a [`SearchMode`].
pub fn mode_to_wire(mode: SearchMode) -> u8 {
    match mode {
        SearchMode::SoftwareOnly => 0,
        SearchMode::Fs1Only => 1,
        SearchMode::Fs2Only => 2,
        SearchMode::TwoStage => 3,
    }
}

/// Decodes a [`SearchMode`].
pub fn mode_from_wire(raw: u8) -> Result<SearchMode, WireError> {
    Ok(match raw {
        0 => SearchMode::SoftwareOnly,
        1 => SearchMode::Fs1Only,
        2 => SearchMode::Fs2Only,
        3 => SearchMode::TwoStage,
        other => return Err(err(format!("unknown search mode {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Server admission decision delivered in the server hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloStatus {
    /// The connection is accepted; frames may follow.
    Ok,
    /// The server is at its connection limit; the hello carries a
    /// retry-after hint and the server closes the socket.
    Busy,
    /// The client's protocol version is not spoken by this server.
    VersionMismatch,
}

impl HelloStatus {
    fn to_wire(self) -> u8 {
        match self {
            HelloStatus::Ok => 0,
            HelloStatus::Busy => 1,
            HelloStatus::VersionMismatch => 2,
        }
    }

    fn from_wire(raw: u8) -> Result<Self, WireError> {
        Ok(match raw {
            0 => HelloStatus::Ok,
            1 => HelloStatus::Busy,
            2 => HelloStatus::VersionMismatch,
            other => return Err(err(format!("unknown hello status {other}"))),
        })
    }
}

/// Encodes the fixed-size client hello: magic, version, and the requested
/// capability bits (byte 6). Byte 7 stays reserved.
pub fn encode_client_hello_caps(version: u16, caps: u8) -> [u8; CLIENT_HELLO_LEN] {
    let mut out = [0u8; CLIENT_HELLO_LEN];
    out[..4].copy_from_slice(&CLIENT_MAGIC);
    out[4..6].copy_from_slice(&version.to_be_bytes());
    out[6] = caps;
    out
}

/// Decodes a client hello, returning `(version, requested capabilities)`.
pub fn decode_client_hello_caps(raw: &[u8; CLIENT_HELLO_LEN]) -> Result<(u16, u8), WireError> {
    if raw[..4] != CLIENT_MAGIC {
        return Err(err("bad client magic"));
    }
    Ok((u16::from_be_bytes([raw[4], raw[5]]), raw[6]))
}

/// The server's reply to a client hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// Version the server speaks.
    pub version: u16,
    /// Admission decision.
    pub status: HelloStatus,
    /// For [`HelloStatus::Busy`]: suggested reconnect delay in
    /// milliseconds. Zero otherwise.
    pub retry_after_ms: u32,
    /// Capability bits the server *accepted* (byte 7; a subset of what
    /// the client requested).
    pub caps: u8,
    /// The serving knowledge base's build fingerprint
    /// (`KnowledgeBase::content_fingerprint`, bytes 12..20). A cluster
    /// router refuses a backend whose fingerprint disagrees with its
    /// shard map — a wrong-KB backend would silently serve wrong-shard
    /// answers. Zero on refusal paths where no KB is consulted.
    pub fingerprint: u64,
}

/// Encodes the fixed-size server hello.
pub fn encode_server_hello(hello: &ServerHello) -> [u8; SERVER_HELLO_LEN] {
    let mut out = [0u8; SERVER_HELLO_LEN];
    out[..4].copy_from_slice(&SERVER_MAGIC);
    out[4..6].copy_from_slice(&hello.version.to_be_bytes());
    out[6] = hello.status.to_wire();
    out[7] = hello.caps;
    out[8..12].copy_from_slice(&hello.retry_after_ms.to_be_bytes());
    out[12..20].copy_from_slice(&hello.fingerprint.to_be_bytes());
    out
}

/// Decodes a server hello.
pub fn decode_server_hello(raw: &[u8; SERVER_HELLO_LEN]) -> Result<ServerHello, WireError> {
    if raw[..4] != SERVER_MAGIC {
        return Err(err("bad server magic"));
    }
    let mut fp = [0u8; 8];
    fp.copy_from_slice(&raw[12..20]);
    Ok(ServerHello {
        version: u16::from_be_bytes([raw[4], raw[5]]),
        status: HelloStatus::from_wire(raw[6])?,
        retry_after_ms: u32::from_be_bytes([raw[8], raw[9], raw[10], raw[11]]),
        caps: raw[7],
        fingerprint: u64::from_be_bytes(fp),
    })
}

/// The admission rule the serving reactor applies to every hello: a
/// client is admitted only when its hello carries the right magic and exactly
/// [`PROTOCOL_VERSION`], and is granted the capabilities it requested that
/// the listener allows (`allowed_caps`). Anything else is answered
/// [`HelloStatus::VersionMismatch`] with no capabilities, after which the
/// listener closes the connection.
pub fn admit_client(
    raw: &[u8; CLIENT_HELLO_LEN],
    allowed_caps: u8,
    fingerprint: u64,
) -> ServerHello {
    let (status, caps) = match decode_client_hello_caps(raw) {
        Ok((PROTOCOL_VERSION, requested)) => (HelloStatus::Ok, requested & allowed_caps),
        Ok(_) | Err(_) => (HelloStatus::VersionMismatch, 0),
    };
    ServerHello {
        version: PROTOCOL_VERSION,
        status,
        retry_after_ms: 0,
        caps,
        fingerprint,
    }
}

// ---------------------------------------------------------------------------
// Replication stream
// ---------------------------------------------------------------------------

/// A replication subscription request: stream every committed op with a
/// sequence number greater than `from_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeLogReq {
    /// The subscriber has (or pretends to have) everything through this
    /// sequence. `0` asks for the full overlay.
    pub from_seq: u64,
}

/// Encodes a [`SubscribeLogReq`].
pub fn encode_subscribe_log(req: &SubscribeLogReq) -> Vec<u8> {
    req.from_seq.to_be_bytes().to_vec()
}

/// Decodes a [`SubscribeLogReq`].
pub fn decode_subscribe_log(payload: &[u8]) -> Result<SubscribeLogReq, WireError> {
    let mut c = Cur::new(payload);
    let from_seq = c.u64()?;
    c.finish()?;
    Ok(SubscribeLogReq { from_seq })
}

/// Encodes the `SUBSCRIBE_LOG` reply and the `LOG_FRAME` request reply:
/// one big-endian sequence number (the server's current / applied-through
/// sequence).
pub fn encode_seq_reply(seq: u64) -> Vec<u8> {
    seq.to_be_bytes().to_vec()
}

/// Decodes a bare sequence-number reply.
pub fn decode_seq_reply(payload: &[u8]) -> Result<u64, WireError> {
    let mut c = Cur::new(payload);
    let seq = c.u64()?;
    c.finish()?;
    Ok(seq)
}

/// A replication acknowledgement: the backup has applied through `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplAck {
    /// Highest sequence number applied by the backup.
    pub seq: u64,
}

/// Encodes a [`ReplAck`].
pub fn encode_repl_ack(ack: &ReplAck) -> Vec<u8> {
    ack.seq.to_be_bytes().to_vec()
}

/// Decodes a [`ReplAck`].
pub fn decode_repl_ack(payload: &[u8]) -> Result<ReplAck, WireError> {
    let mut c = Cur::new(payload);
    let seq = c.u64()?;
    c.finish()?;
    Ok(ReplAck { seq })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The query-budget request extension: work ceilings beyond the
/// wall-clock deadline (which travels in the request's own
/// `deadline_micros` field). Encoded as an **optional 16-byte trailing
/// block** on retrieve / batch / solve requests — appended only when at
/// least one limit is set and only after the server accepted
/// [`CAP_QUERY_BUDGET`] — so a request with no limits carries no tail at
/// all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetExt {
    /// Abandon a solve after this many resolution steps; `0` = unlimited.
    pub solve_step_limit: u64,
    /// Abandon a retrieval once this many candidates have survived the
    /// filters; `0` = unlimited.
    pub candidate_limit: u64,
}

impl BudgetExt {
    /// No limits: encodes to zero bytes on the wire.
    pub const NONE: BudgetExt = BudgetExt {
        solve_step_limit: 0,
        candidate_limit: 0,
    };

    /// True when no limit is set (the extension is omitted on the wire).
    pub fn is_none(&self) -> bool {
        *self == BudgetExt::NONE
    }
}

/// Byte length of an encoded [`BudgetExt`] block.
const BUDGET_EXT_LEN: usize = 16;

fn put_budget_ext(out: &mut Vec<u8>, budget: &BudgetExt) {
    if budget.is_none() {
        return;
    }
    out.extend_from_slice(&budget.solve_step_limit.to_be_bytes());
    out.extend_from_slice(&budget.candidate_limit.to_be_bytes());
}

/// The optional trailing budget block: present iff exactly
/// [`BUDGET_EXT_LEN`] bytes remain (an unlimited request leaves zero). Any other
/// remainder is malformed and rejected by the caller's `finish()`.
fn get_budget_ext(c: &mut Cur<'_>) -> Result<BudgetExt, WireError> {
    if c.remaining() != BUDGET_EXT_LEN {
        return Ok(BudgetExt::NONE);
    }
    Ok(BudgetExt {
        solve_step_limit: c.u64()?,
        candidate_limit: c.u64()?,
    })
}

/// A single-retrieval request.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrieveReq {
    /// Search mode to run.
    pub mode: SearchMode,
    /// Client deadline in microseconds of wall-clock budget; `0` = none.
    /// Expired requests are answered with [`ErrorCode::DeadlineExpired`]
    /// instead of being served.
    pub deadline_micros: u64,
    /// Work ceilings beyond the deadline ([`BudgetExt::NONE`] encodes to
    /// nothing).
    pub budget: BudgetExt,
    /// The query term, PIF-encoded on the wire.
    pub query: Term,
}

/// Encodes a [`RetrieveReq`].
pub fn encode_retrieve(req: &RetrieveReq) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(mode_to_wire(req.mode));
    out.extend_from_slice(&req.deadline_micros.to_be_bytes());
    out.extend_from_slice(&encode_term(&req.query));
    put_budget_ext(&mut out, &req.budget);
    out
}

/// Decodes a [`RetrieveReq`].
pub fn decode_retrieve(payload: &[u8]) -> Result<RetrieveReq, WireError> {
    let mut c = Cur::new(payload);
    let mode = mode_from_wire(c.u8()?)?;
    let deadline_micros = c.u64()?;
    let query = c.term()?;
    let budget = get_budget_ext(&mut c)?;
    c.finish()?;
    Ok(RetrieveReq {
        mode,
        deadline_micros,
        budget,
        query,
    })
}

/// A batched-retrieval request: the whole batch runs against one
/// knowledge-base snapshot, exactly like
/// [`ClauseRetrievalServer::retrieve_batch`](clare_core::ClauseRetrievalServer::retrieve_batch).
#[derive(Debug, Clone, PartialEq)]
pub struct RetrieveBatchReq {
    /// Search mode for every member.
    pub mode: SearchMode,
    /// Deadline as in [`RetrieveReq::deadline_micros`].
    pub deadline_micros: u64,
    /// Work ceilings covering the batch as a whole.
    pub budget: BudgetExt,
    /// Member queries, answered positionally.
    pub queries: Vec<Term>,
}

/// Encodes a [`RetrieveBatchReq`].
pub fn encode_retrieve_batch(req: &RetrieveBatchReq) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(mode_to_wire(req.mode));
    out.extend_from_slice(&req.deadline_micros.to_be_bytes());
    out.extend_from_slice(&(req.queries.len() as u32).to_be_bytes());
    for q in &req.queries {
        out.extend_from_slice(&encode_term(q));
    }
    put_budget_ext(&mut out, &req.budget);
    out
}

/// Decodes a [`RetrieveBatchReq`].
pub fn decode_retrieve_batch(payload: &[u8]) -> Result<RetrieveBatchReq, WireError> {
    let mut c = Cur::new(payload);
    let mode = mode_from_wire(c.u8()?)?;
    let deadline_micros = c.u64()?;
    let count = c.u32()? as usize;
    let mut queries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        queries.push(c.term()?);
    }
    let budget = get_budget_ext(&mut c)?;
    c.finish()?;
    Ok(RetrieveBatchReq {
        mode,
        deadline_micros,
        budget,
        queries,
    })
}

/// A solve request. The server applies its own `CrsOptions`; the wire
/// carries only the solver policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReq {
    /// Conjunction of goals sharing one variable scope.
    pub goals: Vec<Term>,
    /// Variable names for the bindings report, in first-occurrence order.
    pub var_names: Vec<String>,
    /// Search-mode policy.
    pub mode: ModeChoice,
    /// Stop after this many solutions.
    pub max_solutions: u64,
    /// Maximum resolution depth.
    pub max_depth: u64,
    /// Deadline as in [`RetrieveReq::deadline_micros`].
    pub deadline_micros: u64,
    /// Work ceilings beyond the deadline (v4).
    pub budget: BudgetExt,
}

/// Encodes a [`SolveReq`].
pub fn encode_solve(req: &SolveReq) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(match req.mode {
        ModeChoice::Auto => 0xFF,
        ModeChoice::Fixed(m) => mode_to_wire(m),
    });
    out.extend_from_slice(&req.max_solutions.to_be_bytes());
    out.extend_from_slice(&req.max_depth.to_be_bytes());
    out.extend_from_slice(&req.deadline_micros.to_be_bytes());
    out.extend_from_slice(&(req.var_names.len() as u16).to_be_bytes());
    for name in &req.var_names {
        put_string(&mut out, name);
    }
    out.extend_from_slice(&(req.goals.len() as u16).to_be_bytes());
    for goal in &req.goals {
        out.extend_from_slice(&encode_term(goal));
    }
    put_budget_ext(&mut out, &req.budget);
    out
}

/// Decodes a [`SolveReq`].
pub fn decode_solve(payload: &[u8]) -> Result<SolveReq, WireError> {
    let mut c = Cur::new(payload);
    let mode = match c.u8()? {
        0xFF => ModeChoice::Auto,
        raw => ModeChoice::Fixed(mode_from_wire(raw)?),
    };
    let max_solutions = c.u64()?;
    let max_depth = c.u64()?;
    let deadline_micros = c.u64()?;
    let n_names = c.u16()? as usize;
    let mut var_names = Vec::with_capacity(n_names.min(1024));
    for _ in 0..n_names {
        var_names.push(c.string()?);
    }
    let n_goals = c.u16()? as usize;
    let mut goals = Vec::with_capacity(n_goals.min(1024));
    for _ in 0..n_goals {
        goals.push(c.term()?);
    }
    let budget = get_budget_ext(&mut c)?;
    c.finish()?;
    Ok(SolveReq {
        goals,
        var_names,
        mode,
        max_solutions,
        max_depth,
        deadline_micros,
        budget,
    })
}

/// A consult-update request: parse `source` into `module` on top of the
/// current knowledge base and publish the result atomically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsultReq {
    /// Target module name.
    pub module: String,
    /// Prolog source text.
    pub source: String,
}

/// Encodes a [`ConsultReq`].
pub fn encode_consult(req: &ConsultReq) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + req.source.len());
    put_string(&mut out, &req.module);
    put_string(&mut out, &req.source);
    out
}

/// Decodes a [`ConsultReq`].
pub fn decode_consult(payload: &[u8]) -> Result<ConsultReq, WireError> {
    let mut c = Cur::new(payload);
    let module = c.string()?;
    let source = c.string()?;
    c.finish()?;
    Ok(ConsultReq { module, source })
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

fn put_opt_usize(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            out.extend_from_slice(&(n as u64).to_be_bytes());
        }
    }
}

fn get_opt_usize(c: &mut Cur<'_>) -> Result<Option<usize>, WireError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.u64()? as usize)),
        other => Err(err(format!("bad option flag {other}"))),
    }
}

fn put_retrieval(out: &mut Vec<u8>, r: &Retrieval) {
    out.extend_from_slice(&(r.candidates.len() as u32).to_be_bytes());
    for id in &r.candidates {
        out.extend_from_slice(&id.index().to_be_bytes());
    }
    let s = &r.stats;
    out.push(mode_to_wire(s.mode));
    out.extend_from_slice(&(s.clauses_total as u64).to_be_bytes());
    put_opt_usize(out, s.after_fs1);
    put_opt_usize(out, s.after_fs2);
    out.extend_from_slice(&(s.candidates as u64).to_be_bytes());
    out.extend_from_slice(&(s.unified as u64).to_be_bytes());
    out.extend_from_slice(&(s.false_drops as u64).to_be_bytes());
    for t in [
        s.disk_time,
        s.fs1_time,
        s.fs2_time,
        s.software_filter_time,
        s.full_unify_time,
        s.elapsed,
    ] {
        out.extend_from_slice(&t.as_ns().to_be_bytes());
    }
    out.extend_from_slice(&s.bytes_from_disk.to_be_bytes());
    out.extend_from_slice(&(s.result_memory_overflows as u64).to_be_bytes());
    out.extend_from_slice(&(s.quarantined_tracks as u64).to_be_bytes());
    out.push(u8::from(s.degraded));
}

fn get_retrieval(c: &mut Cur<'_>) -> Result<Retrieval, WireError> {
    let n = c.u32()? as usize;
    let mut candidates = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        candidates.push(ClauseId::new(c.u32()?));
    }
    let mode = mode_from_wire(c.u8()?)?;
    let clauses_total = c.u64()? as usize;
    let after_fs1 = get_opt_usize(c)?;
    let after_fs2 = get_opt_usize(c)?;
    let cand_count = c.u64()? as usize;
    let unified = c.u64()? as usize;
    let false_drops = c.u64()? as usize;
    let mut times = [SimNanos::ZERO; 6];
    for t in &mut times {
        *t = SimNanos::from_ns(c.u64()?);
    }
    let bytes_from_disk = c.u64()?;
    let result_memory_overflows = c.u64()? as usize;
    let quarantined_tracks = c.u64()? as usize;
    let degraded = match c.u8()? {
        0 => false,
        1 => true,
        other => return Err(err(format!("bad degraded flag {other}"))),
    };
    Ok(Retrieval {
        candidates,
        stats: RetrievalStats {
            mode,
            clauses_total,
            after_fs1,
            after_fs2,
            candidates: cand_count,
            unified,
            false_drops,
            disk_time: times[0],
            fs1_time: times[1],
            fs2_time: times[2],
            software_filter_time: times[3],
            full_unify_time: times[4],
            elapsed: times[5],
            bytes_from_disk,
            result_memory_overflows,
            quarantined_tracks,
            degraded,
        },
    })
}

/// Encodes a [`Retrieval`] reply (candidate satisfier ids + full stats,
/// with modelled [`SimNanos`] times as raw nanosecond counts).
pub fn encode_retrieval(r: &Retrieval) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + 4 * r.candidates.len());
    put_retrieval(&mut out, r);
    out
}

/// Decodes a [`Retrieval`] reply.
pub fn decode_retrieval(payload: &[u8]) -> Result<Retrieval, WireError> {
    let mut c = Cur::new(payload);
    let r = get_retrieval(&mut c)?;
    c.finish()?;
    Ok(r)
}

/// Encodes a batched-retrieval reply (positional [`Retrieval`] list).
pub fn encode_retrievals(rs: &[Retrieval]) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 * rs.len().max(1));
    out.extend_from_slice(&(rs.len() as u32).to_be_bytes());
    for r in rs {
        put_retrieval(&mut out, r);
    }
    out
}

/// Decodes a batched-retrieval reply.
pub fn decode_retrievals(payload: &[u8]) -> Result<Vec<Retrieval>, WireError> {
    let mut c = Cur::new(payload);
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_retrieval(&mut c)?);
    }
    c.finish()?;
    Ok(out)
}

/// Encodes a [`SolveOutcome`] reply.
pub fn encode_solve_outcome(o: &SolveOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(o.solutions.len() as u32).to_be_bytes());
    for sol in &o.solutions {
        out.extend_from_slice(&encode_term(&sol.term));
        out.extend_from_slice(&(sol.bindings.len() as u16).to_be_bytes());
        for (name, term) in &sol.bindings {
            put_string(&mut out, name);
            out.extend_from_slice(&encode_term(term));
        }
    }
    out.extend_from_slice(&(o.stats.retrievals as u64).to_be_bytes());
    out.extend_from_slice(&(o.stats.clauses_unified as u64).to_be_bytes());
    out.extend_from_slice(&(o.stats.candidates as u64).to_be_bytes());
    out.extend_from_slice(&o.stats.retrieval_elapsed.as_ns().to_be_bytes());
    out.extend_from_slice(&(o.stats.depth_cuts as u64).to_be_bytes());
    out.push(u8::from(o.stats.degraded));
    out
}

/// Decodes a [`SolveOutcome`] reply.
pub fn decode_solve_outcome(payload: &[u8]) -> Result<SolveOutcome, WireError> {
    let mut c = Cur::new(payload);
    let n = c.u32()? as usize;
    let mut solutions = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let term = c.term()?;
        let n_bindings = c.u16()? as usize;
        let mut bindings = Vec::with_capacity(n_bindings.min(1024));
        for _ in 0..n_bindings {
            let name = c.string()?;
            let bound = c.term()?;
            bindings.push((name, bound));
        }
        solutions.push(Solution { term, bindings });
    }
    let stats = SolveStats {
        retrievals: c.u64()? as usize,
        clauses_unified: c.u64()? as usize,
        candidates: c.u64()? as usize,
        retrieval_elapsed: SimNanos::from_ns(c.u64()?),
        depth_cuts: c.u64()? as usize,
        degraded: match c.u8()? {
            0 => false,
            1 => true,
            other => return Err(err(format!("bad degraded flag {other}"))),
        },
    };
    c.finish()?;
    Ok(SolveOutcome { solutions, stats })
}

/// Encodes a [`ServerStats`] reply.
pub fn encode_server_stats(s: &ServerStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(56);
    for v in [
        s.retrievals,
        s.batches,
        s.solves,
        s.updates,
        s.rejected,
        s.degraded,
    ] {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out.extend_from_slice(&s.total_elapsed.as_ns().to_be_bytes());
    out
}

/// Decodes a [`ServerStats`] reply.
pub fn decode_server_stats(payload: &[u8]) -> Result<ServerStats, WireError> {
    let mut c = Cur::new(payload);
    let stats = get_server_stats(&mut c)?;
    c.finish()?;
    Ok(stats)
}

/// The fixed leading [`ServerStats`] struct off the cursor (56 bytes).
fn get_server_stats(c: &mut Cur) -> Result<ServerStats, WireError> {
    Ok(ServerStats {
        retrievals: c.u64()?,
        batches: c.u64()?,
        solves: c.u64()?,
        updates: c.u64()?,
        rejected: c.u64()?,
        degraded: c.u64()?,
        total_elapsed: SimNanos::from_ns(c.u64()?),
    })
}

/// Version of the metrics payload appended to an *extended* stats reply.
/// Bumped only on layout changes; new metric *names* are not a version
/// bump, because the payload is self-describing and decoders must
/// tolerate names they do not know.
pub const METRICS_VERSION: u16 = 1;

/// Request-payload marker a client puts in a `STATS` frame to ask for the
/// extended reply (legacy struct followed by a [`MetricsSnapshot`]). An
/// empty request payload selects the plain 56-byte reply, so clients
/// that predate metrics — whose strict decoder rejects trailing bytes —
/// keep working unchanged.
pub const STATS_REQ_EXTENDED: u8 = 2;

/// Encodes a [`MetricsSnapshot`]: version, then length-prefixed lists of
/// named counters, gauges, and histograms.
pub fn encode_metrics_snapshot(m: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 24 * (m.counters.len() + m.histograms.len()));
    out.extend_from_slice(&METRICS_VERSION.to_be_bytes());
    out.extend_from_slice(&(m.counters.len() as u32).to_be_bytes());
    for (name, v) in &m.counters {
        put_string(&mut out, name);
        out.extend_from_slice(&v.to_be_bytes());
    }
    out.extend_from_slice(&(m.gauges.len() as u32).to_be_bytes());
    for (name, v) in &m.gauges {
        put_string(&mut out, name);
        out.extend_from_slice(&(*v as u64).to_be_bytes());
    }
    out.extend_from_slice(&(m.histograms.len() as u32).to_be_bytes());
    for (name, h) in &m.histograms {
        put_string(&mut out, name);
        out.extend_from_slice(&h.count.to_be_bytes());
        out.extend_from_slice(&h.sum.to_be_bytes());
        out.extend_from_slice(&(h.buckets.len() as u32).to_be_bytes());
        for b in &h.buckets {
            out.extend_from_slice(&b.to_be_bytes());
        }
    }
    out
}

fn get_metrics_snapshot(c: &mut Cur) -> Result<MetricsSnapshot, WireError> {
    let version = c.u16()?;
    if version != METRICS_VERSION {
        return Err(err(format!("unknown metrics payload version {version}")));
    }
    let n = c.u32()? as usize;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = c.string()?;
        counters.push((name, c.u64()?));
    }
    let n = c.u32()? as usize;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = c.string()?;
        gauges.push((name, c.u64()? as i64));
    }
    let n = c.u32()? as usize;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = c.string()?;
        let count = c.u64()?;
        let sum = c.u64()?;
        let n_buckets = c.u32()? as usize;
        let mut buckets = Vec::with_capacity(n_buckets.min(1024));
        for _ in 0..n_buckets {
            buckets.push(c.u64()?);
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        ));
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

/// Decodes a standalone [`MetricsSnapshot`] payload.
pub fn decode_metrics_snapshot(payload: &[u8]) -> Result<MetricsSnapshot, WireError> {
    let mut c = Cur::new(payload);
    let m = get_metrics_snapshot(&mut c)?;
    c.finish()?;
    Ok(m)
}

/// Encodes the *extended* stats reply: the legacy [`ServerStats`] bytes
/// followed by a versioned [`MetricsSnapshot`]. Sent only when the
/// request carried [`STATS_REQ_EXTENDED`].
pub fn encode_server_stats_extended(s: &ServerStats, m: &MetricsSnapshot) -> Vec<u8> {
    let mut out = encode_server_stats(s);
    out.extend_from_slice(&encode_metrics_snapshot(m));
    out
}

/// Decodes the extended stats reply into the legacy struct plus the
/// metrics snapshot.
pub fn decode_server_stats_extended(
    payload: &[u8],
) -> Result<(ServerStats, MetricsSnapshot), WireError> {
    let mut c = Cur::new(payload);
    let stats = get_server_stats(&mut c)?;
    let metrics = get_metrics_snapshot(&mut c)?;
    c.finish()?;
    Ok((stats, metrics))
}

/// Encodes a [`SymbolTable`] reply: atom texts in offset order plus float
/// bit patterns in offset order. Re-interning them in order on the client
/// reconstructs a table with identical offsets, which is what makes
/// client-side query parsing produce server-compatible PIF bytes.
pub fn encode_symbols(table: &SymbolTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 16 * table.atom_count());
    out.extend_from_slice(&(table.atom_count() as u32).to_be_bytes());
    for (_, text) in table.atoms() {
        put_string(&mut out, text);
    }
    out.extend_from_slice(&(table.float_count() as u32).to_be_bytes());
    for i in 0..table.float_count() {
        let value = table.float_value(FloatId::from_offset(i as u32));
        out.extend_from_slice(&value.to_bits().to_be_bytes());
    }
    out
}

/// Decodes a [`SymbolTable`] reply.
pub fn decode_symbols(payload: &[u8]) -> Result<SymbolTable, WireError> {
    let mut c = Cur::new(payload);
    let mut table = SymbolTable::new();
    let n_atoms = c.u32()? as usize;
    for i in 0..n_atoms {
        let text = c.string()?;
        let sym = table.intern_atom(&text);
        if sym != Symbol::from_offset(i as u32) {
            return Err(err(format!("duplicate atom {text:?} at offset {i}")));
        }
    }
    let n_floats = c.u32()? as usize;
    for i in 0..n_floats {
        let value = f64::from_bits(c.u64()?);
        let id = table.intern_float(value);
        if id != FloatId::from_offset(i as u32) {
            return Err(err(format!("duplicate float at offset {i}")));
        }
    }
    c.finish()?;
    Ok(table)
}

/// Encodes a [`CommitReceipt`] reply (for [`opcode::ASSERT`] /
/// [`opcode::RETRACT`]): the WAL sequence range the commit occupies, the
/// clause counts, and whether the commit was fsynced into a write-ahead
/// log before being acknowledged.
pub fn encode_commit_receipt(r: &CommitReceipt) -> Vec<u8> {
    let mut out = Vec::with_capacity(33);
    out.extend_from_slice(&r.seqs.start.to_be_bytes());
    out.extend_from_slice(&r.seqs.end.to_be_bytes());
    out.extend_from_slice(&(r.asserted as u64).to_be_bytes());
    out.extend_from_slice(&(r.retracted as u64).to_be_bytes());
    out.push(u8::from(r.durable));
    out
}

/// Decodes a [`CommitReceipt`] reply.
pub fn decode_commit_receipt(payload: &[u8]) -> Result<CommitReceipt, WireError> {
    let mut c = Cur::new(payload);
    let start = c.u64()?;
    let end = c.u64()?;
    if end < start {
        return Err(err(format!("inverted seq range {start}..{end}")));
    }
    let asserted = c.u64()? as usize;
    let retracted = c.u64()? as usize;
    let durable = match c.u8()? {
        0 => false,
        1 => true,
        other => return Err(err(format!("bad durable flag {other}"))),
    };
    c.finish()?;
    Ok(CommitReceipt {
        seqs: start..end,
        asserted,
        retracted,
        durable,
    })
}

/// An error reply, sent with opcode [`opcode::ERROR`] in place of the
/// normal reply for the echoed request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// What went wrong.
    pub code: ErrorCode,
    /// For [`ErrorCode::Busy`]: suggested retry delay in milliseconds.
    pub retry_after_ms: u32,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorReply {
    /// An error reply with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            code,
            retry_after_ms: 0,
            message: message.into(),
        }
    }
}

/// Encodes an [`ErrorReply`].
pub fn encode_error(e: &ErrorReply) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + e.message.len());
    out.extend_from_slice(&e.code.to_wire().to_be_bytes());
    out.extend_from_slice(&e.retry_after_ms.to_be_bytes());
    put_string(&mut out, &e.message);
    out
}

/// Decodes an [`ErrorReply`].
pub fn decode_error(payload: &[u8]) -> Result<ErrorReply, WireError> {
    let mut c = Cur::new(payload);
    let code = ErrorCode::from_wire(c.u16()?).ok_or_else(|| err("unknown error code"))?;
    let retry_after_ms = c.u32()?;
    let message = c.string()?;
    c.finish()?;
    Ok(ErrorReply {
        code,
        retry_after_ms,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::Term;

    fn sample_terms(symbols: &mut SymbolTable) -> Vec<Term> {
        let likes = symbols.intern_atom("likes");
        let mary = symbols.intern_atom("mary");
        let pi = symbols.intern_float(3.25);
        vec![
            Term::Atom(mary),
            Term::Struct {
                functor: likes,
                args: vec![
                    Term::Atom(mary),
                    Term::Var(clare_term::VarId::new(0)),
                    Term::Int(-42),
                    Term::Float(pi),
                ],
            },
            Term::List {
                items: vec![Term::Anon, Term::Int(7)],
                tail: None,
            },
        ]
    }

    #[test]
    fn hello_roundtrip() {
        let raw = encode_client_hello_caps(PROTOCOL_VERSION, 0);
        assert_eq!(
            decode_client_hello_caps(&raw).unwrap(),
            (PROTOCOL_VERSION, 0)
        );

        let raw = encode_client_hello_caps(PROTOCOL_VERSION, CAP_FRAME_CRC);
        assert_eq!(
            decode_client_hello_caps(&raw).unwrap(),
            (PROTOCOL_VERSION, CAP_FRAME_CRC)
        );

        for status in [
            HelloStatus::Ok,
            HelloStatus::Busy,
            HelloStatus::VersionMismatch,
        ] {
            for caps in [0, CAP_FRAME_CRC] {
                let hello = ServerHello {
                    version: PROTOCOL_VERSION,
                    status,
                    retry_after_ms: 250,
                    caps,
                    fingerprint: 0x1234_5678_9ABC_DEF0,
                };
                assert_eq!(
                    decode_server_hello(&encode_server_hello(&hello)).unwrap(),
                    hello
                );
            }
        }

        let mut bad = encode_client_hello_caps(PROTOCOL_VERSION, 0);
        bad[0] = b'X';
        assert!(decode_client_hello_caps(&bad).is_err());
    }

    #[test]
    fn admission_is_exactly_this_version_with_requested_and_allowed_caps() {
        let hello = |version, requested| encode_client_hello_caps(version, requested);
        let mut bad_magic = hello(PROTOCOL_VERSION, 3);
        bad_magic[0] = b'X';
        // (client hello, allowed) → (status, granted)
        for (raw, allowed, want) in [
            (hello(PROTOCOL_VERSION, 0xFF), 3, (HelloStatus::Ok, 3)),
            (hello(PROTOCOL_VERSION, 2), 1, (HelloStatus::Ok, 0)),
            (
                hello(PROTOCOL_VERSION - 1, 3),
                3,
                (HelloStatus::VersionMismatch, 0),
            ),
            (
                hello(PROTOCOL_VERSION + 1, 3),
                3,
                (HelloStatus::VersionMismatch, 0),
            ),
            (bad_magic, 3, (HelloStatus::VersionMismatch, 0)),
        ] {
            let reply = admit_client(&raw, allowed, 7);
            assert_eq!((reply.status, reply.caps), want);
            assert_eq!((reply.version, reply.fingerprint), (PROTOCOL_VERSION, 7));
        }
    }

    #[test]
    fn retrieve_roundtrip() {
        let mut symbols = SymbolTable::new();
        for query in sample_terms(&mut symbols) {
            for mode in SearchMode::ALL {
                for budget in [
                    BudgetExt::NONE,
                    BudgetExt {
                        solve_step_limit: 0,
                        candidate_limit: 4096,
                    },
                ] {
                    let req = RetrieveReq {
                        mode,
                        deadline_micros: 1_000_000,
                        budget,
                        query: query.clone(),
                    };
                    assert_eq!(decode_retrieve(&encode_retrieve(&req)).unwrap(), req);
                }
            }
        }
    }

    #[test]
    fn retrieve_batch_roundtrip() {
        let mut symbols = SymbolTable::new();
        let req = RetrieveBatchReq {
            mode: SearchMode::TwoStage,
            deadline_micros: 0,
            budget: BudgetExt {
                solve_step_limit: 9,
                candidate_limit: 10_000,
            },
            queries: sample_terms(&mut symbols),
        };
        assert_eq!(
            decode_retrieve_batch(&encode_retrieve_batch(&req)).unwrap(),
            req
        );
    }

    #[test]
    fn zero_budget_adds_no_bytes() {
        // The extension is a tail, not a field: a request with no limits
        // is exactly mode + deadline + term, whatever was negotiated.
        let mut symbols = SymbolTable::new();
        let query = sample_terms(&mut symbols).remove(1);
        let req = RetrieveReq {
            mode: SearchMode::TwoStage,
            deadline_micros: 123,
            budget: BudgetExt::NONE,
            query: query.clone(),
        };
        let mut bare = Vec::new();
        bare.push(mode_to_wire(req.mode));
        bare.extend_from_slice(&req.deadline_micros.to_be_bytes());
        bare.extend_from_slice(&encode_term(&req.query));
        assert_eq!(encode_retrieve(&req), bare);

        let limited = RetrieveReq {
            budget: BudgetExt {
                solve_step_limit: 1,
                candidate_limit: 0,
            },
            ..req
        };
        assert_eq!(
            encode_retrieve(&limited).len(),
            bare.len() + 16,
            "a set limit appends exactly the 16-byte block"
        );
    }

    #[test]
    fn solve_roundtrip() {
        let mut symbols = SymbolTable::new();
        for mode in [
            ModeChoice::Auto,
            ModeChoice::Fixed(SearchMode::SoftwareOnly),
            ModeChoice::Fixed(SearchMode::TwoStage),
        ] {
            let req = SolveReq {
                goals: sample_terms(&mut symbols),
                var_names: vec!["X".to_owned(), "Who".to_owned()],
                mode,
                max_solutions: u64::MAX,
                max_depth: 256,
                deadline_micros: 5,
                budget: BudgetExt {
                    solve_step_limit: 1_000,
                    candidate_limit: 0,
                },
            };
            assert_eq!(decode_solve(&encode_solve(&req)).unwrap(), req);
        }
    }

    #[test]
    fn consult_roundtrip() {
        let req = ConsultReq {
            module: "family".to_owned(),
            source: "parent(tom, bob).\n% with ünicode\n".to_owned(),
        };
        assert_eq!(decode_consult(&encode_consult(&req)).unwrap(), req);
    }

    #[test]
    fn retrieval_roundtrip() {
        let r = Retrieval {
            candidates: vec![ClauseId::new(3), ClauseId::new(17), ClauseId::new(0)],
            stats: RetrievalStats {
                mode: SearchMode::TwoStage,
                clauses_total: 100,
                after_fs1: Some(12),
                after_fs2: None,
                candidates: 3,
                unified: 2,
                false_drops: 1,
                disk_time: SimNanos::from_ns(123),
                fs1_time: SimNanos::from_ns(456),
                fs2_time: SimNanos::ZERO,
                software_filter_time: SimNanos::from_ns(789),
                full_unify_time: SimNanos::from_ns(1),
                elapsed: SimNanos::from_ns(1369),
                bytes_from_disk: 4096,
                result_memory_overflows: 1,
                quarantined_tracks: 2,
                degraded: true,
            },
        };
        assert_eq!(decode_retrieval(&encode_retrieval(&r)).unwrap(), r);
        let list = vec![r.clone(), r];
        assert_eq!(decode_retrievals(&encode_retrievals(&list)).unwrap(), list);
    }

    #[test]
    fn solve_outcome_roundtrip() {
        let mut symbols = SymbolTable::new();
        let terms = sample_terms(&mut symbols);
        let outcome = SolveOutcome {
            solutions: vec![Solution {
                term: terms[1].clone(),
                bindings: vec![("X".to_owned(), terms[0].clone())],
            }],
            stats: SolveStats {
                retrievals: 4,
                clauses_unified: 7,
                candidates: 11,
                retrieval_elapsed: SimNanos::from_micros(9),
                depth_cuts: 1,
                degraded: true,
            },
        };
        assert_eq!(
            decode_solve_outcome(&encode_solve_outcome(&outcome)).unwrap(),
            outcome
        );
    }

    #[test]
    fn server_stats_roundtrip() {
        let stats = ServerStats {
            retrievals: 10,
            batches: 2,
            solves: 3,
            updates: 1,
            rejected: 4,
            degraded: 2,
            total_elapsed: SimNanos::from_millis(6),
        };
        assert_eq!(
            decode_server_stats(&encode_server_stats(&stats)).unwrap(),
            stats
        );
    }

    #[test]
    fn extended_stats_roundtrip_and_version_gate() {
        let stats = ServerStats {
            retrievals: 7,
            batches: 1,
            solves: 0,
            updates: 2,
            rejected: 0,
            degraded: 1,
            total_elapsed: SimNanos::from_millis(3),
        };
        // A live-shaped snapshot: record through the registry so names
        // and histogram buckets come from the real catalogue.
        let m = clare_trace::metrics();
        m.fs1_scans.inc();
        m.crs_retrieve_wall_ns.record(1234);
        m.crs_predicates.record("item/2", 9999);
        let snapshot = m.snapshot();

        let bytes = encode_server_stats_extended(&stats, &snapshot);
        // The legacy struct occupies the same leading bytes, so a legacy
        // decoder given only that prefix still works.
        let legacy = encode_server_stats(&stats);
        assert_eq!(&bytes[..legacy.len()], &legacy[..]);
        assert_eq!(decode_server_stats(&legacy).unwrap(), stats);

        let (got_stats, got_snapshot) = decode_server_stats_extended(&bytes).unwrap();
        assert_eq!(got_stats, stats);
        assert_eq!(got_snapshot.counters, snapshot.counters);
        assert_eq!(got_snapshot.gauges, snapshot.gauges);
        assert_eq!(got_snapshot.histograms.len(), snapshot.histograms.len());
        let (name, wall) = got_snapshot
            .histograms
            .iter()
            .find(|(name, _)| name == "crs.retrieve_wall_ns")
            .expect("histogram survived the roundtrip");
        assert_eq!(name, "crs.retrieve_wall_ns");
        assert!(wall.count >= 1);

        // An unknown snapshot version is refused, not misread.
        let mut future = legacy.clone();
        future.extend_from_slice(&(METRICS_VERSION + 1).to_be_bytes());
        assert!(decode_server_stats_extended(&future).is_err());
    }

    #[test]
    fn symbols_roundtrip_preserves_offsets() {
        let mut table = SymbolTable::new();
        let likes = table.intern_atom("likes");
        let mary = table.intern_atom("mary");
        let pi = table.intern_float(3.25);
        let nan = table.intern_float(f64::NAN);

        let decoded = decode_symbols(&encode_symbols(&table)).unwrap();
        assert_eq!(decoded.atom_count(), 2);
        assert_eq!(decoded.lookup_atom("likes"), Some(likes));
        assert_eq!(decoded.lookup_atom("mary"), Some(mary));
        assert_eq!(decoded.lookup_float(3.25), Some(pi));
        assert_eq!(decoded.float_count(), 2);
        assert_eq!(decoded.float_value(nan).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn commit_receipt_roundtrip() {
        for receipt in [
            CommitReceipt {
                seqs: 7..10,
                asserted: 2,
                retracted: 1,
                durable: true,
            },
            CommitReceipt {
                seqs: 0..0,
                asserted: 0,
                retracted: 0,
                durable: false,
            },
        ] {
            assert_eq!(
                decode_commit_receipt(&encode_commit_receipt(&receipt)).unwrap(),
                receipt
            );
        }
        // Inverted ranges and bad flags are refused.
        let mut bad = encode_commit_receipt(&CommitReceipt {
            seqs: 3..5,
            asserted: 1,
            retracted: 0,
            durable: true,
        });
        bad[7] = 9; // start becomes 9, past end = 5
        assert!(decode_commit_receipt(&bad).is_err());
        let mut flag = encode_commit_receipt(&CommitReceipt {
            seqs: 1..2,
            asserted: 1,
            retracted: 0,
            durable: false,
        });
        *flag.last_mut().unwrap() = 7;
        assert!(decode_commit_receipt(&flag).is_err());
    }

    #[test]
    fn error_roundtrip() {
        let e = ErrorReply {
            code: ErrorCode::Busy,
            retry_after_ms: 150,
            message: "queue full".to_owned(),
        };
        assert_eq!(decode_error(&encode_error(&e)).unwrap(), e);
        assert!(decode_error(&[0, 99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        let mut symbols = SymbolTable::new();
        let req = RetrieveReq {
            mode: SearchMode::TwoStage,
            deadline_micros: 7,
            budget: BudgetExt::NONE,
            query: sample_terms(&mut symbols).remove(1),
        };
        let full = encode_retrieve(&req);
        for cut in 0..full.len() {
            assert!(
                decode_retrieve(&full[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too — anything other than a
        // complete 16-byte budget block after the term is malformed.
        let mut padded = full.clone();
        padded.push(0);
        assert!(decode_retrieve(&padded).is_err());

        // With the budget block present, every cut inside the block is
        // rejected except the block boundary itself — which decodes as
        // the (different) limitless request, never as a wrong budget.
        let limited = RetrieveReq {
            budget: BudgetExt {
                solve_step_limit: 5,
                candidate_limit: 6,
            },
            ..req.clone()
        };
        let ext = encode_retrieve(&limited);
        assert_eq!(ext.len(), full.len() + 16);
        for cut in full.len() + 1..ext.len() {
            assert!(
                decode_retrieve(&ext[..cut]).is_err(),
                "partial budget block at {cut} must not decode"
            );
        }
        assert_eq!(decode_retrieve(&ext[..full.len()]).unwrap(), req);
    }
}
