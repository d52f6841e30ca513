//! The `clare-net` wire protocol: PIF-over-TCP.
//!
//! A connection opens with a fixed-size hello exchange (version check and
//! admission control), then carries length-prefixed [`Frame`]s in both
//! directions. Request payloads embed query terms in the Pseudo In-line
//! Format — the same byte-level type-driven encoding the simulated CLARE
//! hardware scans — so a networked retrieval ships exactly the bytes the
//! engine would compile locally. See [`frame`] for the framing layer and
//! [`wire`] for the payload schema: one [`Wire`] layout per message, and
//! one [`Request`] table saying what each opcode carries and what answers
//! it. Payloads go through [`encode`] and [`decode`].

pub mod frame;
pub mod wire;

pub use frame::{Frame, FrameError, FrameReader, FRAME_CRC_TRAILER, FRAME_HEADER, MAX_FRAME_LEN};
pub use wire::{
    admit_client, decode, decode_client_hello_caps, decode_retrieval, decode_retrieve,
    decode_server_hello, encode, encode_client_hello_caps, encode_retrieval, encode_retrieve,
    encode_server_hello, opcode, visit_requests, AssertReq, BudgetExt, ConsultReq, ErrorCode,
    ErrorReply, HelloStatus, MetricsReq, Ping, ReplAck, Request, RequestVisitor, RetractReq,
    RetrieveBatchReq, RetrieveReq, ServerHello, SolveReq, StatsReq, SubscribeLogReq, SymbolsReq,
    Tagged, Wire, WireError, CAP_FRAME_CRC, CAP_QUERY_BUDGET, CLIENT_HELLO_LEN, CLIENT_MAGIC,
    METRICS_VERSION, PROTOCOL_VERSION, SERVER_HELLO_LEN, SERVER_MAGIC, STATS_REQ_EXTENDED,
};
