//! The wire schema: every `clare-net` payload, declared once.
//!
//! Query terms travel as PIF term bytes (via [`clare_pif::encode_term`] /
//! [`clare_pif::decode_term`]), so the network protocol speaks the same
//! type-driven format the simulated hardware consumes — the wire *is* the
//! Pseudo In-line Format, framed. Everything around the terms (counts,
//! stats, strings) is plain big-endian integers with length prefixes.
//!
//! One trait, [`Wire`], carries a value to and from bytes. Each message
//! lists its fields once, in wire order, in the `wire_fields!` table;
//! encoding and decoding both come from that list, and each enum's wire
//! values are one `wire_enum!`. Only layouts that are not a field list are
//! written by hand: the optional [`BudgetExt`] tail, [`ModeChoice`]'s
//! `0xFF` = auto, the offset-preserving [`SymbolTable`] and the
//! version-gated [`MetricsSnapshot`]. One opcode table, the [`Request`]
//! impls, types both ends; the golden and fuzz tests walk it through
//! [`visit_requests`].
//!
//! Decoders take untrusted bytes: any malformed input is a [`WireError`],
//! never a panic. Reads are bounds-checked through [`Cur`]; terms inherit
//! the hardened limits of [`clare_pif::TermLimits`].

use clare_core::{
    CommitReceipt, ModeChoice, Retrieval, RetrievalStats, SearchMode, ServerStats, Solution,
    SolveOutcome, SolveStats,
};
use clare_disk::SimNanos;
use clare_pif::{decode_term, encode_term, TermLimits};
use clare_term::{ClauseId, FloatId, Symbol, SymbolTable, Term};
use clare_trace::{HistogramSnapshot, MetricsSnapshot};
use clare_wal::WalRecord;

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
/// Byte length of the server hello: the magic, then a [`ServerHello`].
pub const SERVER_HELLO_LEN: usize = 20;

/// Frame opcodes. Requests are `0x01..=0x0C`; the matching reply is the
/// request opcode with the high bit set; `0xFF` is an error reply. What
/// each request carries and what its reply carries is the [`Request`]
/// table. `LOG_FRAME` doubles as a server push (request id 0) on a
/// replication subscription.
pub mod opcode {
    /// Liveness probe; empty payload both ways.
    pub const PING: u8 = 0x01;
    /// Single retrieval.
    pub const RETRIEVE: u8 = 0x02;
    /// Batched retrieval, answered with a positional retrieval list.
    pub const RETRIEVE_BATCH: u8 = 0x03;
    /// Resolution.
    pub const SOLVE: u8 = 0x04;
    /// Consult-update; empty reply.
    pub const CONSULT: u8 = 0x05;
    /// Server statistics, plain or extended with a metrics snapshot.
    pub const STATS: u8 = 0x06;
    /// Symbol-table download.
    pub const SYMBOLS: u8 = 0x07;
    /// Durable assert through the WAL-serialized commit path.
    pub const ASSERT: u8 = 0x08;
    /// Durable retract of one structurally equal clause.
    pub const RETRACT: u8 = 0x09;
    /// Replication subscription: catch-up, then live, `LOG_FRAME` pushes.
    pub const SUBSCRIBE_LOG: u8 = 0x0A;
    /// One shipped WAL record: a push (request id 0) to a subscriber, or
    /// a request asking a backup to apply it.
    pub const LOG_FRAME: u8 = 0x0B;
    /// Replication acknowledgement from a backup; empty reply.
    pub const REPL_ACK: u8 = 0x0C;
    /// Reply bit: `reply opcode = request opcode | REPLY`.
    pub const REPLY: u8 = 0x80;
    /// Error reply ([`super::ErrorReply`]), sent in place of any reply.
    pub const ERROR: u8 = 0xFF;
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
#[derive(Debug)]
pub struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
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
}

/// A value with a wire layout: `put` appends its bytes, `get` reads them
/// back from an untrusted payload.
pub trait Wire: Sized {
    /// Appends this value's bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value, advancing the cursor past it.
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError>;
}

/// Encodes one payload.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    // Fits a retrieval reply with a few dozen candidates without regrowing.
    let mut out = Vec::with_capacity(256);
    value.put(&mut out);
    out
}

/// Decodes one payload; bytes left over after the value are an error.
pub fn decode<T: Wire>(data: &[u8]) -> Result<T, WireError> {
    let mut c = Cur { data, pos: 0 };
    let value = T::get(&mut c)?;
    if c.remaining() != 0 {
        return Err(err(format!("{} trailing bytes", c.remaining())));
    }
    Ok(value)
}

/// [`encode`] for a [`RetrieveReq`]: a name the benchmark imports (ROADMAP item 1a).
pub fn encode_retrieve(req: &RetrieveReq) -> Vec<u8> {
    encode(req)
}

/// [`decode`] for a [`RetrieveReq`]: a name the benchmark imports (ROADMAP item 1a).
pub fn decode_retrieve(payload: &[u8]) -> Result<RetrieveReq, WireError> {
    decode(payload)
}

/// [`encode`] for a [`Retrieval`]: a name the benchmark imports (ROADMAP item 1a).
pub fn encode_retrieval(r: &Retrieval) -> Vec<u8> {
    encode(r)
}

/// [`decode`] for a [`Retrieval`]: a name the benchmark imports (ROADMAP item 1a).
pub fn decode_retrieval(payload: &[u8]) -> Result<Retrieval, WireError> {
    decode(payload)
}

// --- Primitives ------------------------------------------------------------

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                raw.copy_from_slice(c.take(std::mem::size_of::<$t>())?);
                Ok(<$t>::from_be_bytes(raw))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64);

/// `Type as raw: to, from;`: a value sent as another wire type.
macro_rules! wire_via {
    ($($ty:ty as $raw:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let to: fn(&$ty) -> $raw = $to;
                to(self).put(out);
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let from: fn($raw) -> $ty = $from;
                Ok(from(<$raw>::get(c)?))
            }
        }
    )*};
}

wire_via! {
    usize as u64: |n| *n as u64, |raw| raw as usize;
    SimNanos as u64: |t| t.as_ns(), SimNanos::from_ns;
    ClauseId as u32: |id| id.index(), ClauseId::new;
}

/// One byte, strictly 0 or 1.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(err(format!("bad flag {other}"))),
        }
    }
}

/// A `u32` byte length, then UTF-8.
fn put_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let len = u32::get(c)? as usize;
        String::from_utf8(c.take(len)?.to_vec()).map_err(|_| err("string is not UTF-8"))
    }
}

/// PIF term bytes, decoded under [`TermLimits::default`].
impl Wire for Term {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&encode_term(self));
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let (term, used) = decode_term(&c.data[c.pos..], &TermLimits::default())
            .map_err(|e| err(format!("bad term: {e}")))?;
        c.pos += used;
        Ok(term)
    }
}

/// A flag byte (0 = none, 1 = some), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(c)?)),
            other => Err(err(format!("bad option flag {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

impl Wire for () {
    fn put(&self, _: &mut Vec<u8>) {}
    fn get(_: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// A list: its count (`u32` unless the layout says `u16`, truncated to
/// that width; senders keep lists within it), then the items.
fn put_list<T: Wire>(items: &[T], count: impl Wire, out: &mut Vec<u8>) {
    count.put(out);
    for item in items {
        item.put(out);
    }
}

fn get_list<T: Wire>(c: &mut Cur<'_>, count: usize) -> Result<Vec<T>, WireError> {
    // The count is untrusted: reserve a little, grow as items decode.
    let mut items = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        items.push(T::get(c)?);
    }
    Ok(items)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_list(self, self.len() as u32, out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let count = u32::get(c)? as usize;
        get_list(c, count)
    }
}

// --- Enums: one variant ↔ wire value (↔ text) table each -------------------

/// The wire value of each variant of an enum, declared once. A local
/// enum is defined here too, and texts on its variants make its `Display`.
macro_rules! wire_enum {
    ($(#[$doc:meta])* pub enum $name:ident: $raw:ty {
        $($(#[$vdoc:meta])* $variant:ident = $value:literal $(=> $text:literal)?,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name { $($(#[$vdoc])* $variant,)* }
        wire_enum!(@display $name { $($variant $(=> $text)?,)* });
        wire_enum!($name: $raw { $($variant = $value,)* });
    };
    (@display $name:ident { $($variant:ident => $text:literal,)* }) => {
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(match self { $(Self::$variant => $text,)* })
            }
        }
    };
    (@display $name:ident { $($variant:ident,)* }) => {};
    ($ty:ty: $raw:ty { $($variant:ident = $value:literal,)* }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let raw: $raw = match self { $(Self::$variant => $value,)* };
                raw.put(out);
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                match <$raw>::get(c)? {
                    $($value => Ok(Self::$variant),)*
                    other => Err(err(format!("unknown {} {other}", stringify!($ty)))),
                }
            }
        }
    };
}

wire_enum!(SearchMode: u8 {
    SoftwareOnly = 0,
    Fs1Only = 1,
    Fs2Only = 2,
    TwoStage = 3,
});

wire_enum! {
    /// Error codes carried by [`ErrorReply`] frames.
    pub enum ErrorCode: u16 {
        /// The request payload failed to decode. The offending frame is
        /// answered with this error and the connection stays up.
        Malformed = 1 => "malformed request",
        /// The opcode is not one the server implements.
        Unsupported = 2 => "unsupported operation",
        /// The server's request queue is full; retry after the hinted delay.
        Busy = 3 => "server busy",
        /// The request's deadline had already expired when a worker picked
        /// it up, so the work was not performed.
        DeadlineExpired = 4 => "deadline expired",
        /// A consult-update failed to parse or compile; the message carries
        /// the reason. The knowledge base is unchanged.
        ConsultRejected = 5 => "consult rejected",
        /// The server failed internally (e.g. a worker panicked).
        Internal = 6 => "internal server error",
        /// A shipped `LOG_FRAME` arrived out of order: its sequence number
        /// skips past what the backup has applied. The message carries the
        /// expected sequence; the router resends from there.
        ReplGap = 7 => "replication sequence gap",
        /// A query budget other than the wall-clock deadline tripped
        /// mid-execution (solve-step or candidate ceiling): the work was
        /// abandoned at a cancellation checkpoint and **no partial answer
        /// was produced or cached**. Deadline trips report
        /// [`ErrorCode::DeadlineExpired`] whether they fire in the queue or
        /// mid-execution.
        BudgetExceeded = 8 => "query budget exceeded",
    }
}

wire_enum! {
    /// Server admission decision delivered in the server hello.
    pub enum HelloStatus: u8 {
        /// The connection is accepted; frames may follow.
        Ok = 0,
        /// The server is at its connection limit; the hello carries a
        /// retry-after hint and the server closes the socket.
        Busy = 1,
        /// The client's protocol version is not spoken by this server.
        VersionMismatch = 2,
    }
}

// --- Messages --------------------------------------------------------------

/// A single-retrieval request.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrieveReq {
    /// Search mode to run.
    pub mode: SearchMode,
    /// Wall-clock budget in microseconds, `0` = none; an expired request
    /// is answered [`ErrorCode::DeadlineExpired`] instead of being served.
    pub deadline_micros: u64,
    /// Work ceilings beyond the deadline ([`BudgetExt::NONE`]: no bytes).
    pub budget: BudgetExt,
    /// The query term, PIF-encoded on the wire.
    pub query: Term,
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

/// A solve request. The server applies its own `CrsOptions`; the wire
/// carries only the solver policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReq {
    /// Conjunction of goals sharing one variable scope (`u16`-counted).
    pub goals: Vec<Term>,
    /// Names for the bindings report, first occurrence first (`u16`-counted).
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

/// A consult-update request: parse `source` into `module` on top of the
/// current knowledge base and publish the result atomically. ASSERT and
/// RETRACT carry the same layout ([`AssertReq`], [`RetractReq`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsultReq {
    /// Target module name.
    pub module: String,
    /// Prolog source text.
    pub source: String,
}

/// A PING request; empty both ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ping;

/// A plain STATS request: empty, answered with the 56-byte
/// [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReq;

/// An extended STATS request: the one byte [`STATS_REQ_EXTENDED`],
/// answered with [`ServerStats`] followed by a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsReq;

/// A SYMBOLS request; empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolsReq;

/// A payload laid out as `T` with its own [`Request`] row: `OP` only tells
/// rows sharing a layout apart; the opcode sent is the row's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tagged<const OP: u8, T>(pub T);

impl<const OP: u8, T: Wire> Wire for Tagged<OP, T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(Tagged(T::get(c)?))
    }
}

/// A durable assert: the consult layout under [`opcode::ASSERT`].
pub type AssertReq = Tagged<{ opcode::ASSERT }, ConsultReq>;
/// A durable retract: the consult layout under [`opcode::RETRACT`].
pub type RetractReq = Tagged<{ opcode::RETRACT }, ConsultReq>;
/// A replication subscription: the server pushes a `LOG_FRAME` (request
/// id 0) for every committed op with a sequence number greater than this
/// one (`0` asks for the full overlay), then one per commit as it lands,
/// and answers with its current sequence number.
pub type SubscribeLogReq = Tagged<{ opcode::SUBSCRIBE_LOG }, u64>;
/// A replication acknowledgement: the backup has applied through this
/// sequence number (feeds the primary's `cluster.repl_lag_frames` gauge).
pub type ReplAck = Tagged<{ opcode::REPL_ACK }, u64>;

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

/// `Type { field, list as u16, ... } [if check];`: the fields in wire
/// order, each sent as its own [`Wire`] layout. `as u16` gives a list a
/// `u16` count prefix instead of the `u32` default; `check` validates the
/// decoded value.
macro_rules! wire_fields {
    (@put $out:ident, $v:expr) => { Wire::put($v, $out) };
    (@put $out:ident, $v:expr, $count:ty) => { put_list($v, $v.len() as $count, $out) };
    (@get $c:ident) => { Wire::get($c)? };
    (@get $c:ident, $count:ty) => {{
        let count = <$count>::get($c)? as usize;
        get_list($c, count)?
    }};
    ($($ty:ty { $($field:ident $(as $count:ty)?),* $(,)? } $(if $check:expr)?;)*) => {$(
        impl Wire for $ty {
            #[allow(unused_variables)]
            fn put(&self, out: &mut Vec<u8>) {
                $(wire_fields!(@put out, &self.$field $(, $count)?);)*
            }
            #[allow(unused_variables)]
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let value = Self { $($field: wire_fields!(@get c $(, $count)?),)* };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    )*};
}

wire_fields! {
    Ping {};
    StatsReq {};
    SymbolsReq {};
    RetrieveReq { mode, deadline_micros, query, budget };
    RetrieveBatchReq { mode, deadline_micros, queries, budget };
    SolveReq {
        mode, max_solutions, max_depth, deadline_micros, var_names as u16, goals as u16, budget,
    };
    ConsultReq { module, source };
    Retrieval { candidates, stats };
    RetrievalStats {
        mode, clauses_total, after_fs1, after_fs2, candidates, unified, false_drops,
        disk_time, fs1_time, fs2_time, software_filter_time, full_unify_time, elapsed,
        bytes_from_disk, result_memory_overflows, quarantined_tracks, degraded,
    };
    Solution { term, bindings as u16 };
    SolveOutcome { solutions, stats };
    SolveStats { retrievals, clauses_unified, candidates, retrieval_elapsed, depth_cuts, degraded };
    ServerStats { retrievals, batches, solves, updates, rejected, degraded, total_elapsed };
    HistogramSnapshot { count, sum, buckets };
    std::ops::Range<u64> { start, end };
    CommitReceipt { seqs, asserted, retracted, durable } if ordered_seqs;
    ErrorReply { code, retry_after_ms, message };
    ServerHello { version, status, caps, retry_after_ms, fingerprint };
}

/// A receipt's sequence range never runs backwards.
fn ordered_seqs(r: &CommitReceipt) -> Result<(), WireError> {
    if r.seqs.end < r.seqs.start {
        return Err(err(format!("inverted seq range {:?}", r.seqs)));
    }
    Ok(())
}

// --- Layouts that are not a field list -------------------------------------

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
    /// Abandon the request once this many candidates have survived the
    /// filters, summed over all of its retrievals (every member of a
    /// batch, every goal of a solve, repeats included); `0` = unlimited.
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

/// The optional trailing block: present iff exactly 16 bytes remain. Any
/// other remainder is left for [`decode`] to reject as trailing bytes.
impl Wire for BudgetExt {
    fn put(&self, out: &mut Vec<u8>) {
        if !self.is_none() {
            self.solve_step_limit.put(out);
            self.candidate_limit.put(out);
        }
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        if c.remaining() != 16 {
            return Ok(BudgetExt::NONE);
        }
        Ok(BudgetExt {
            solve_step_limit: u64::get(c)?,
            candidate_limit: u64::get(c)?,
        })
    }
}

/// A [`SearchMode`] byte, or `0xFF` for [`ModeChoice::Auto`].
impl Wire for ModeChoice {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ModeChoice::Auto => out.push(0xFF),
            ModeChoice::Fixed(mode) => mode.put(out),
        }
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0xFF => Ok(ModeChoice::Auto),
            raw => Ok(ModeChoice::Fixed(decode(&[raw])?)),
        }
    }
}

/// Atom texts, then float bit patterns, in offset order: re-interning them
/// reconstructs identical offsets, so client-parsed queries encode to
/// server-compatible PIF. A duplicate would shift offsets and is refused.
impl Wire for SymbolTable {
    fn put(&self, out: &mut Vec<u8>) {
        (self.atom_count() as u32).put(out);
        for (_, text) in self.atoms() {
            put_str(text, out);
        }
        (self.float_count() as u32).put(out);
        for i in 0..self.float_count() as u32 {
            self.float_value(FloatId::from_offset(i)).to_bits().put(out);
        }
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let mut table = SymbolTable::new();
        for i in 0..u32::get(c)? {
            let text = String::get(c)?;
            if table.intern_atom(&text) != Symbol::from_offset(i) {
                return Err(err(format!("duplicate atom {text:?} at offset {i}")));
            }
        }
        for i in 0..u32::get(c)? {
            if table.intern_float(f64::from_bits(u64::get(c)?)) != FloatId::from_offset(i) {
                return Err(err(format!("duplicate float at offset {i}")));
            }
        }
        Ok(table)
    }
}

/// Version of the metrics payload appended to an *extended* stats reply.
/// Bumped only on layout changes; new metric *names* are not a version
/// bump, because the payload is self-describing and decoders must
/// tolerate names they do not know.
pub const METRICS_VERSION: u16 = 1;

/// Request-payload marker a client puts in a `STATS` frame to ask for the
/// extended reply ([`MetricsReq`]). An empty payload ([`StatsReq`]) keeps
/// the plain 56-byte reply that clients predating metrics decode.
pub const STATS_REQ_EXTENDED: u8 = 2;

/// The marker byte, and nothing else.
impl Wire for MetricsReq {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(STATS_REQ_EXTENDED);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            STATS_REQ_EXTENDED => Ok(MetricsReq),
            other => Err(err(format!("unknown stats request {other}"))),
        }
    }
}

/// [`METRICS_VERSION`], then the named counters, gauges and histograms.
/// Any other version is refused, not misread.
impl Wire for MetricsSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        METRICS_VERSION.put(out);
        self.counters.put(out);
        self.gauges.put(out);
        self.histograms.put(out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let version = u16::get(c)?;
        if version != METRICS_VERSION {
            return Err(err(format!("unknown metrics payload version {version}")));
        }
        Ok(MetricsSnapshot {
            counters: Wire::get(c)?,
            gauges: Wire::get(c)?,
            histograms: Wire::get(c)?,
        })
    }
}

/// The rest of the payload is one `clare_wal` ship record, which owns its
/// layout.
impl Wire for WalRecord {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&clare_wal::encode_ship_record(self.seq, &self.op));
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let bytes = c.take(c.remaining())?;
        clare_wal::decode_ship_record(bytes).ok_or_else(|| err("malformed WAL ship record"))
    }
}

// --- The opcode table ------------------------------------------------------

/// A request payload: the opcode it travels under and the payload its
/// successful reply (opcode `OP | REPLY`) carries.
pub trait Request: Wire {
    /// The request opcode.
    const OP: u8;
    /// Whether a client may re-send it after `Busy` or a dead connection.
    const IDEMPOTENT: bool;
    /// The reply payload.
    type Reply: Wire;
}

/// A walker over the [`Request`] table; see [`visit_requests`].
pub trait RequestVisitor {
    /// Called once per table row with the request type's name.
    fn entry<R: Request>(&mut self, name: &'static str);
}

macro_rules! requests {
    ($($req:ident: $op:ident -> $reply:ty, idempotent = $idempotent:literal;)*) => {
        $(impl Request for $req {
            const OP: u8 = opcode::$op;
            const IDEMPOTENT: bool = $idempotent;
            type Reply = $reply;
        })*

        /// Calls `visitor` once for every row of the [`Request`] table, in
        /// opcode order.
        pub fn visit_requests(visitor: &mut impl RequestVisitor) {
            $(visitor.entry::<$req>(stringify!($req));)*
        }
    };
}

requests! {
    Ping: PING -> (), idempotent = true;
    RetrieveReq: RETRIEVE -> Retrieval, idempotent = true;
    RetrieveBatchReq: RETRIEVE_BATCH -> Vec<Retrieval>, idempotent = true;
    SolveReq: SOLVE -> SolveOutcome, idempotent = false;
    ConsultReq: CONSULT -> (), idempotent = false;
    StatsReq: STATS -> ServerStats, idempotent = true;
    MetricsReq: STATS -> (ServerStats, MetricsSnapshot), idempotent = true;
    SymbolsReq: SYMBOLS -> SymbolTable, idempotent = true;
    AssertReq: ASSERT -> CommitReceipt, idempotent = false;
    RetractReq: RETRACT -> CommitReceipt, idempotent = false;
    SubscribeLogReq: SUBSCRIBE_LOG -> u64, idempotent = false;
    WalRecord: LOG_FRAME -> u64, idempotent = false;
    ReplAck: REPL_ACK -> (), idempotent = false;
}

// --- Handshake -------------------------------------------------------------

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
    /// Capability bits the server *accepted* (a subset of what the client
    /// requested).
    pub caps: u8,
    /// The serving knowledge base's `content_fingerprint`: a cluster router
    /// refuses a backend whose fingerprint disagrees with its shard map.
    /// Zero on refusal paths where no KB is consulted.
    pub fingerprint: u64,
}

/// Encodes the fixed-size server hello: the magic, then the
/// [`ServerHello`] fields.
pub fn encode_server_hello(hello: &ServerHello) -> [u8; SERVER_HELLO_LEN] {
    let mut out = [0u8; SERVER_HELLO_LEN];
    out[..4].copy_from_slice(&SERVER_MAGIC);
    out[4..].copy_from_slice(&encode(hello));
    out
}

/// Decodes a server hello.
pub fn decode_server_hello(raw: &[u8; SERVER_HELLO_LEN]) -> Result<ServerHello, WireError> {
    if raw[..4] != SERVER_MAGIC {
        return Err(err("bad server magic"));
    }
    decode(&raw[4..])
}

/// The admission rule the reactor applies to every hello: only the right
/// magic and exactly [`PROTOCOL_VERSION`] are admitted, granted the
/// requested capabilities the listener allows (`allowed_caps`). Anything
/// else is answered [`HelloStatus::VersionMismatch`] with no capabilities,
/// and the listener closes the connection.
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

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::Term;

    fn sample_query(symbols: &mut SymbolTable) -> Term {
        let likes = symbols.intern_atom("likes");
        let mary = symbols.intern_atom("mary");
        let pi = symbols.intern_float(3.25);
        Term::Struct {
            functor: likes,
            args: vec![
                Term::Atom(mary),
                Term::Var(clare_term::VarId::new(0)),
                Term::Int(-42),
                Term::Float(pi),
            ],
        }
    }

    #[test]
    fn hello_roundtrip() {
        for status in [
            HelloStatus::Ok,
            HelloStatus::Busy,
            HelloStatus::VersionMismatch,
        ] {
            let hello = ServerHello {
                version: PROTOCOL_VERSION,
                status,
                retry_after_ms: 250,
                caps: CAP_FRAME_CRC,
                fingerprint: 0x1234_5678_9ABC_DEF0,
            };
            let mut raw = encode_server_hello(&hello);
            assert_eq!(decode_server_hello(&raw).unwrap(), hello);
            raw[0] = b'X';
            assert!(decode_server_hello(&raw).is_err());
        }
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
    fn zero_budget_adds_no_bytes() {
        // The extension is a tail, not a field: a request with no limits
        // is exactly mode + deadline + term, whatever was negotiated.
        let mut symbols = SymbolTable::new();
        let req = RetrieveReq {
            mode: SearchMode::TwoStage,
            deadline_micros: 123,
            budget: BudgetExt::NONE,
            query: sample_query(&mut symbols),
        };
        let mut bare = vec![3];
        bare.extend_from_slice(&req.deadline_micros.to_be_bytes());
        bare.extend_from_slice(&encode_term(&req.query));
        assert_eq!(encode(&req), bare);

        let limited = RetrieveReq {
            budget: BudgetExt {
                solve_step_limit: 1,
                candidate_limit: 0,
            },
            ..req
        };
        assert_eq!(
            encode(&limited).len(),
            bare.len() + 16,
            "a set limit appends exactly the 16-byte block"
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

        let bytes = encode(&(stats, snapshot.clone()));
        // The legacy struct occupies the same leading bytes, so a legacy
        // decoder given only that prefix still works.
        let legacy = encode(&stats);
        assert_eq!(&bytes[..legacy.len()], &legacy[..]);
        assert_eq!(decode::<ServerStats>(&legacy).unwrap(), stats);

        let (got_stats, got_snapshot) = decode::<(ServerStats, MetricsSnapshot)>(&bytes).unwrap();
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
        assert!(decode::<(ServerStats, MetricsSnapshot)>(&future).is_err());
    }

    #[test]
    fn symbols_roundtrip_preserves_offsets() {
        let mut table = SymbolTable::new();
        let likes = table.intern_atom("likes");
        let mary = table.intern_atom("mary");
        let pi = table.intern_float(3.25);
        let nan = table.intern_float(f64::NAN);

        let decoded = decode::<SymbolTable>(&encode(&table)).unwrap();
        assert_eq!(decoded.atom_count(), 2);
        assert_eq!(decoded.lookup_atom("likes"), Some(likes));
        assert_eq!(decoded.lookup_atom("mary"), Some(mary));
        assert_eq!(decoded.lookup_float(3.25), Some(pi));
        assert_eq!(decoded.float_count(), 2);
        assert_eq!(decoded.float_value(nan).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn inverted_ranges_bad_flags_and_unknown_codes_are_refused() {
        let mut bad = encode(&CommitReceipt {
            seqs: 3..5,
            asserted: 1,
            retracted: 0,
            durable: true,
        });
        bad[7] = 9; // start becomes 9, past end = 5
        assert!(decode::<CommitReceipt>(&bad).is_err());
        let mut flag = encode(&CommitReceipt {
            seqs: 1..2,
            asserted: 1,
            retracted: 0,
            durable: false,
        });
        *flag.last_mut().unwrap() = 7;
        assert!(decode::<CommitReceipt>(&flag).is_err());
        assert!(decode::<ErrorReply>(&[0, 99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }
}
