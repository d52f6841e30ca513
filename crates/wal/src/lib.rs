//! clare-wal — the durable mutable knowledge base.
//!
//! The paper's engine retrieves over a batch-built, immutable knowledge
//! base; real Prolog workloads `assert` and `retract` at runtime. This
//! crate gives the reproduction a LevelDB-shaped write path:
//!
//! * [`Wal`] — a crash-safe, CRC32C-framed write-ahead log with
//!   monotonic sequence numbers and group-commit batching. An operation
//!   is acknowledged only after its batch is fsynced; opening a log
//!   replays every intact frame and truncates the torn tail a crash
//!   leaves behind. **No acknowledged write is ever lost.**
//! * [`Overlay`] — the in-memory memtable delta that commits land in.
//!   Retrievals merge it with the immutable base snapshot; overlay
//!   clauses pass the FS1 superset filter unconditionally (they have no
//!   codewords yet), preserving the no-false-negative invariant, and the
//!   merged answer set is byte-identical to a from-scratch rebuild.
//! * [`Overlay::compacted_kb`] — the background compaction rebuild:
//!   exactly the changed predicates' track segments and FS1 codeword
//!   indexes are rewritten off the write path from in-memory clause terms
//!   (never from the possibly-degraded simulated disk), the rest shared by
//!   pointer, and swapped in atomically by the serving layer.
//!
//! The serving integration — commit serialization, epoch bumps, the
//! atomic swap — lives in `clare-core`'s `ClauseRetrievalServer`; this
//! crate owns the data structures and their invariants.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod log;
pub mod overlay;

pub use log::{
    decode_ship_record, encode_ship_record, ReplayReport, Wal, WalError, WalOp, WalRecord,
    MAX_PAYLOAD,
};
pub use overlay::{ApplyOutcome, Overlay, OverlayClause, OverlayError, PredDelta};
