//! What a [`NetServer`](crate::NetServer) serves. A [`Service`] answers
//! decoded requests and states its failures as the wire's [`ErrorReply`];
//! intake, decoding, queueing, deadlines, reply encoding, fault points and
//! panic isolation are the server's, written once. The CRS implements it
//! here, the `clare-cluster` router in its own crate.

use clare_core::{
    BudgetExceeded, BudgetReason, CancelToken, ClauseRetrievalServer, CommitError, CommitReceipt,
    LogWatcher, RequestContext, Retrieval, SearchMode, ServerStats, SolveOptions, SolveOutcome,
    SubscribeError, WalRecord,
};
use clare_term::{SymbolTable, Term};

use crate::protocol::{ErrorCode, ErrorReply, CAP_FRAME_CRC, CAP_QUERY_BUDGET};

/// The calls a [`NetServer`](crate::NetServer) makes to answer requests.
/// Solve, consult and the three replication calls default to refusing
/// with [`ErrorCode::Unsupported`].
pub trait Service: Send + Sync + 'static {
    /// The knowledge-base fingerprint every hello carries.
    fn fingerprint(&self) -> u64;

    /// The hello capabilities (`CAP_*` bits) this service grants.
    fn caps(&self) -> u8;

    /// Answers `queries` in one pass, in order, under the request's
    /// context. A failure fails the whole pass.
    fn retrieve_batch(
        &self,
        queries: &[Term],
        mode: SearchMode,
        cx: &mut RequestContext,
    ) -> Result<Vec<Retrieval>, ErrorReply>;

    /// Runs a conjunctive query to its solutions.
    fn solve_goals(
        &self,
        _goals: &[Term],
        _var_names: &[String],
        _options: &SolveOptions,
        _cx: &mut RequestContext,
    ) -> Result<SolveOutcome, ErrorReply> {
        Err(unsupported("SOLVE"))
    }

    /// Consults source text into the knowledge base as one transaction.
    fn consult(&self, _module: &str, _source: &str) -> Result<(), ErrorReply> {
        Err(unsupported("CONSULT"))
    }

    /// Durably asserts the clauses of `source`.
    fn assert_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply>;

    /// Durably retracts one structurally matching clause per clause of
    /// `source`.
    fn retract_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply>;

    /// The service's counters.
    fn stats(&self) -> Result<ServerStats, ErrorReply>;

    /// The symbol namespace clients parse queries against.
    fn symbols(&self) -> SymbolTable;

    /// Registers `watcher` for every committed op after `from_seq`;
    /// returns the current sequence.
    fn subscribe_ops(&self, _from_seq: u64, _watcher: LogWatcher) -> Result<u64, ErrorReply> {
        Err(unsupported("SUBSCRIBE_LOG"))
    }

    /// Applies one shipped WAL record; returns the applied-through
    /// sequence.
    fn apply_replicated(&self, _record: &WalRecord) -> Result<u64, ErrorReply> {
        Err(unsupported("LOG_FRAME"))
    }

    /// Notes that the downstream backup has applied through `seq`.
    fn repl_ack(&self, _seq: u64) -> Result<(), ErrorReply> {
        Err(unsupported("REPL_ACK"))
    }

    /// Counts one request refused by admission control.
    fn note_rejected(&self) {}
}

fn unsupported(op: &str) -> ErrorReply {
    ErrorReply::new(ErrorCode::Unsupported, format!("{op} is not served here"))
}

/// The typed error for a tripped budget. Deadline trips report
/// `DeadlineExpired`, the code a deadline that expires in the queue also
/// gets; step and candidate ceilings report `BudgetExceeded` with the trip
/// reason in the message.
fn budget_reply(e: BudgetExceeded) -> ErrorReply {
    CancelToken::record_trip(e.reason.unwrap_or(BudgetReason::Deadline));
    match e.reason {
        Some(BudgetReason::Deadline) | None => ErrorReply::new(
            ErrorCode::DeadlineExpired,
            "deadline expired mid-execution; partial work discarded",
        ),
        Some(reason) => ErrorReply::new(ErrorCode::BudgetExceeded, format!("{e}: {reason}")),
    }
}

fn rejected(e: impl std::fmt::Display) -> ErrorReply {
    ErrorReply::new(ErrorCode::ConsultRejected, e.to_string())
}

impl Service for ClauseRetrievalServer {
    fn fingerprint(&self) -> u64 {
        self.snapshot().content_fingerprint()
    }

    fn caps(&self) -> u8 {
        CAP_QUERY_BUDGET | CAP_FRAME_CRC
    }

    fn retrieve_batch(
        &self,
        queries: &[Term],
        mode: SearchMode,
        cx: &mut RequestContext,
    ) -> Result<Vec<Retrieval>, ErrorReply> {
        ClauseRetrievalServer::retrieve_batch(self, queries, mode, cx).map_err(budget_reply)
    }

    fn solve_goals(
        &self,
        goals: &[Term],
        var_names: &[String],
        options: &SolveOptions,
        cx: &mut RequestContext,
    ) -> Result<SolveOutcome, ErrorReply> {
        ClauseRetrievalServer::solve_goals(self, goals, var_names, options, cx)
            .map_err(budget_reply)
    }

    fn consult(&self, module: &str, source: &str) -> Result<(), ErrorReply> {
        let mut tx = self.begin_update();
        tx.consult(module, source).map_err(rejected)?;
        tx.commit().map(|_| ()).map_err(rejected)
    }

    fn assert_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply> {
        ClauseRetrievalServer::assert_source(self, module, source).map_err(rejected)
    }

    fn retract_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply> {
        ClauseRetrievalServer::retract_source(self, module, source).map_err(rejected)
    }

    fn stats(&self) -> Result<ServerStats, ErrorReply> {
        Ok(ClauseRetrievalServer::stats(self))
    }

    fn symbols(&self) -> SymbolTable {
        // The overlay symbols are a strict superset of the base's, so
        // clients can parse queries against overlay-only predicates.
        ClauseRetrievalServer::symbols(self)
    }

    fn subscribe_ops(&self, from_seq: u64, watcher: LogWatcher) -> Result<u64, ErrorReply> {
        ClauseRetrievalServer::subscribe_ops(self, from_seq, watcher).map_err(
            |SubscribeError::Gap { folded_through }| {
                ErrorReply::new(
                    ErrorCode::ReplGap,
                    format!("log folded through seq {folded_through}; resync from a snapshot"),
                )
            },
        )
    }

    fn apply_replicated(&self, record: &WalRecord) -> Result<u64, ErrorReply> {
        ClauseRetrievalServer::apply_replicated(self, record).map_err(|e| match e {
            CommitError::ReplicaGap { expected } => ErrorReply::new(
                ErrorCode::ReplGap,
                format!("expected seq {expected}, got {}", record.seq),
            ),
            e => rejected(e),
        })
    }

    fn repl_ack(&self, seq: u64) -> Result<(), ErrorReply> {
        // The primary's view of how far its backup trails; reads can
        // consult this to judge failover staleness.
        let lag = self.current_seq().saturating_sub(seq);
        clare_trace::metrics()
            .cluster_repl_lag_frames
            .set(i64::try_from(lag).unwrap_or(i64::MAX));
        Ok(())
    }

    fn note_rejected(&self) {
        ClauseRetrievalServer::note_rejected(self);
    }
}
