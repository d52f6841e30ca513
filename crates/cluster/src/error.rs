//! Typed cluster-layer errors.

use clare_net::protocol::{ErrorCode, ErrorReply};
use clare_net::NetError;

/// Everything that can go wrong routing a request through the cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A backend's hello reported a knowledge-base build fingerprint
    /// different from the cluster's. Pairing it would ship WAL records
    /// into a foreign symbol namespace, so the connection is refused.
    FingerprintMismatch {
        /// The backend that was refused.
        addr: String,
        /// The fingerprint the rest of the cluster agrees on.
        expected: u64,
        /// What the backend reported.
        got: u64,
    },
    /// The query (or clause head) has no functor/arity to route by —
    /// e.g. a bare variable.
    Unroutable(String),
    /// The clauses in one write resolve to different shards; a commit
    /// must land on exactly one primary to stay atomic.
    CrossShardWrite {
        /// The shard the first clause routed to.
        first: usize,
        /// The shard a later clause routed to.
        other: usize,
    },
    /// The shard index is out of range or the shard cannot serve the
    /// request (e.g. promoting a shard that has no backup).
    NoBackup(usize),
    /// The shard's circuit breaker is open: its backend failed (or was
    /// overloaded) enough times in a row that the router fast-fails
    /// requests instead of queueing more work behind a sick node. The
    /// breaker admits a half-open probe after `retry_after`.
    ShardUnavailable {
        /// The shard whose breaker is open.
        shard: usize,
        /// How long until the breaker admits a probe request.
        retry_after: std::time::Duration,
    },
    /// A backend conversation failed.
    Net(NetError),
    /// The source text failed to parse on the router (routing needs the
    /// clause heads before the backend ever sees the write).
    Parse(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::FingerprintMismatch {
                addr,
                expected,
                got,
            } => write!(
                f,
                "backend {addr} serves a different knowledge base \
                 (fingerprint {got:#018x}, cluster expects {expected:#018x})"
            ),
            ClusterError::Unroutable(what) => write!(f, "cannot route {what}"),
            ClusterError::CrossShardWrite { first, other } => write!(
                f,
                "write spans shards {first} and {other}; a commit must land on one primary"
            ),
            ClusterError::NoBackup(shard) => {
                write!(f, "shard {shard} has no backup to promote")
            }
            ClusterError::ShardUnavailable { shard, retry_after } => write!(
                f,
                "shard {shard} circuit breaker is open; retry in {retry_after:?}"
            ),
            ClusterError::Net(e) => write!(f, "backend error: {e}"),
            ClusterError::Parse(e) => write!(f, "router-side parse failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

/// How the router's front end answers a failed request. A backend's own
/// error frame passes through with its code and retry hint.
impl From<ClusterError> for ErrorReply {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Net(NetError::Remote {
                code,
                retry_after_ms,
                message,
            }) => ErrorReply {
                code,
                retry_after_ms,
                message,
            },
            ClusterError::Parse(msg) => ErrorReply::new(ErrorCode::ConsultRejected, msg),
            ClusterError::Unroutable(_) | ClusterError::CrossShardWrite { .. } => {
                ErrorReply::new(ErrorCode::Unsupported, e.to_string())
            }
            _ => ErrorReply::new(ErrorCode::Internal, e.to_string()),
        }
    }
}
