//! `clare-cluster`: a predicate-sharded cluster of Clause Retrieval
//! Servers.
//!
//! The paper's CRS is one shared engine serving many inference machines;
//! this crate scales that shape *out*: N `clare-served` backends, each
//! holding the full base knowledge base (byte-identical builds, pinned
//! by the hello fingerprint), with the mutable overlay partitioned by
//! predicate. A thin [`Router`] hashes `functor/arity` (FNV-1a) to pick
//! the owning shard; predicates declared *hot* split one level further
//! by their first argument, so a write-heavy predicate spreads over
//! every shard while queries with a bound first argument still touch
//! exactly one backend.
//!
//! Each shard is optionally replicated: the router subscribes to the
//! primary's commit log (`SUBSCRIBE_LOG`), forwards every committed WAL
//! record to the backup (`LOG_FRAME`), and acknowledges applied
//! frontiers back (`REPL_ACK`). Writes are semi-synchronous — the
//! cluster receipt says whether the backup had the write before the ack
//! went out — and failover (manual [`Router::promote`] or automatic via
//! [`Router::tick_health`]) flags answers from a possibly-stale backup
//! as degraded rather than dropping them.
//!
//! [`Router`] implements [`clare_net::Service`], and the `clare-cluster`
//! binary serves it through the same [`clare_net::NetServer`] the
//! backends run, so ordinary [`clare_net::NetClient`]s talk to the
//! cluster exactly as they would to one server.

// The router mediates between live network peers; a refused frame or a
// dead backend must degrade, never abort. CI greps for this gate; do
// not remove it.
#![deny(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod error;
pub mod map;
pub mod router;

pub use error::ClusterError;
pub use map::{Placement, ShardMap, ShardSpec};
pub use router::{merge_retrievals, ClusterReceipt, Router, RouterConfig};
