//! The `clare-net` wire protocol: PIF-over-TCP.
//!
//! A connection opens with a fixed-size hello exchange (version check and
//! admission control), then carries length-prefixed [`Frame`]s in both
//! directions. Request payloads embed query terms in the Pseudo In-line
//! Format — the same byte-level type-driven encoding the simulated CLARE
//! hardware scans — so a networked retrieval ships exactly the bytes the
//! engine would compile locally. See [`frame`] for the framing layer and
//! [`wire`] for per-operation payload codecs.

pub mod frame;
pub mod wire;

pub use frame::{Frame, FrameError, FrameReader, FRAME_CRC_TRAILER, FRAME_HEADER, MAX_FRAME_LEN};
pub use wire::{
    admit_client, decode_client_hello_caps, decode_commit_receipt, decode_consult, decode_error,
    decode_metrics_snapshot, decode_repl_ack, decode_retrieval, decode_retrievals, decode_retrieve,
    decode_retrieve_batch, decode_seq_reply, decode_server_hello, decode_server_stats,
    decode_server_stats_extended, decode_solve, decode_solve_outcome, decode_subscribe_log,
    decode_symbols, encode_client_hello_caps, encode_commit_receipt, encode_consult, encode_error,
    encode_metrics_snapshot, encode_repl_ack, encode_retrieval, encode_retrievals, encode_retrieve,
    encode_retrieve_batch, encode_seq_reply, encode_server_hello, encode_server_stats,
    encode_server_stats_extended, encode_solve, encode_solve_outcome, encode_subscribe_log,
    encode_symbols, mode_from_wire, mode_to_wire, opcode, BudgetExt, ConsultReq, ErrorCode,
    ErrorReply, HelloStatus, ReplAck, RetrieveBatchReq, RetrieveReq, ServerHello, SolveReq,
    SubscribeLogReq, WireError, CAP_FRAME_CRC, CAP_QUERY_BUDGET, CLIENT_HELLO_LEN, CLIENT_MAGIC,
    METRICS_VERSION, PROTOCOL_VERSION, SERVER_HELLO_LEN, SERVER_MAGIC, STATS_REQ_EXTENDED,
};
