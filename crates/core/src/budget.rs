//! Request budgets and cooperative cancellation.
//!
//! The serving north-star is millions of concurrent users, and under
//! that kind of load a request that can no longer be useful must stop
//! consuming the engine. This module is the contract between the wire
//! and the retrieval pipeline:
//!
//! * [`QueryBudget`] — the client-declared limits a request carries:
//!   a wall-clock deadline, a resolution-step ceiling for solve, and a
//!   candidate ceiling summed over the request's retrievals. Zero means
//!   unlimited; the whole struct is plain data and crosses the wire in
//!   the protocol-v4 frame extension.
//! * [`CancelToken`] — the runtime form. The serving layer mints one
//!   token per request (capturing the absolute deadline) and threads it
//!   through FS1 index strides, FS2 track sweeps, the full-unification
//!   loop, and every solve expansion. Checkpoints are cooperative: the
//!   engine polls the token at coarse strides, so cancellation latency
//!   is one checkpoint interval, not one instruction.
//! * [`BudgetExceeded`] — the typed outcome when a checkpoint trips.
//!   It carries the partial statistics gathered so far and the
//!   [`BudgetReason`] that tripped, and it is **never** a partial
//!   answer: callers get `Err(BudgetExceeded)`, not a truncated match
//!   list, and the retrieval cache never sees the attempt.
//!
//! The unlimited token is `None` inside — cloning and checking it is
//! free, so every pre-existing entry point pays nothing for the new
//! layer.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-declared limits for one request. Zero fields are unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    /// Wall-clock budget in microseconds, measured from admission
    /// (0 = no deadline).
    pub deadline_micros: u64,
    /// Maximum solve resolution steps — goal expansions — before the
    /// solve is cancelled (0 = unlimited).
    pub solve_step_limit: u64,
    /// Maximum candidate clauses examined before the request is
    /// cancelled (0 = unlimited). The count is summed over every
    /// retrieval of the request: each member of a batch, and each goal a
    /// solve retrieves, repeats of an earlier goal included.
    pub candidate_limit: u64,
}

impl QueryBudget {
    /// The no-limits budget.
    pub const UNLIMITED: QueryBudget = QueryBudget {
        deadline_micros: 0,
        solve_step_limit: 0,
        candidate_limit: 0,
    };

    /// True when every field is zero (nothing to enforce).
    pub fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }
}

/// Which limit a cancelled request ran into first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The solve resolution-step ceiling was reached.
    SolveSteps,
    /// The retrieval candidate ceiling was reached.
    Candidates,
}

impl BudgetReason {
    fn from_code(code: u8) -> BudgetReason {
        match code {
            2 => BudgetReason::SolveSteps,
            3 => BudgetReason::Candidates,
            _ => BudgetReason::Deadline,
        }
    }

    fn code(self) -> u8 {
        match self {
            BudgetReason::Deadline => 1,
            BudgetReason::SolveSteps => 2,
            BudgetReason::Candidates => 3,
        }
    }
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetReason::Deadline => "deadline",
            BudgetReason::SolveSteps => "solve step limit",
            BudgetReason::Candidates => "candidate limit",
        })
    }
}

/// The typed outcome of a cancelled request: which limit tripped, plus
/// the partial statistics gathered before the engine let go. Never a
/// partial answer — the match list / binding set is discarded, and the
/// retrieval cache is structurally unreachable from this path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BudgetExceeded {
    /// The first limit that tripped.
    pub reason: Option<BudgetReason>,
    /// Retrieval statistics accumulated up to the checkpoint (when the
    /// cancellation landed inside a retrieval). Boxed to keep the error
    /// arm of every budgeted `Result` pointer-small.
    pub retrieval_stats: Option<Box<crate::crs::RetrievalStats>>,
    /// Solve statistics accumulated up to the checkpoint (when the
    /// cancellation landed inside a solve). Boxed like the above.
    pub solve_stats: Option<Box<crate::resolve::SolveStats>>,
}

impl BudgetExceeded {
    /// An exceeded outcome with just a reason (stats attached by the
    /// layer that owns them).
    pub fn new(reason: BudgetReason) -> Self {
        BudgetExceeded {
            reason: Some(reason),
            retrieval_stats: None,
            solve_stats: None,
        }
    }
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            Some(r) => write!(f, "query budget exceeded: {r}"),
            None => f.write_str("query budget exceeded"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[derive(Debug)]
struct TokenInner {
    /// Absolute deadline; `None` when the budget carries no deadline.
    deadline: Option<Instant>,
    /// Candidate ceiling (0 = unlimited) and running count.
    candidate_limit: u64,
    candidates: AtomicU64,
    /// Solve-step ceiling (0 = unlimited) and running count.
    step_limit: u64,
    steps: AtomicU64,
    /// Set once by the first checkpoint that observes a blown limit;
    /// every later checkpoint (on any worker thread) trips on the flag
    /// alone without consulting the clock.
    tripped: AtomicBool,
    reason: AtomicU8,
}

/// The runtime form of a [`QueryBudget`]: one per request, cloned freely
/// into worker closures. The unlimited token is `None` inside — checking
/// it is a single branch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// The token that never cancels (what every non-budgeted entry point
    /// uses; checkpoints cost one `is_none` branch).
    pub fn unlimited() -> CancelToken {
        CancelToken { inner: None }
    }

    /// Mints a token for `budget`, measuring the deadline from
    /// `started`. The serving layer passes the job's admission instant
    /// so queue time counts against the deadline; in-process callers
    /// pass `Instant::now()`.
    pub fn starting_at(budget: &QueryBudget, started: Instant) -> CancelToken {
        if budget.is_unlimited() {
            return CancelToken::unlimited();
        }
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                deadline: (budget.deadline_micros > 0)
                    .then(|| started + Duration::from_micros(budget.deadline_micros)),
                candidate_limit: budget.candidate_limit,
                candidates: AtomicU64::new(0),
                step_limit: budget.solve_step_limit,
                steps: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
                reason: AtomicU8::new(0),
            })),
        }
    }

    /// Mints a token for `budget` starting now.
    pub fn new(budget: &QueryBudget) -> CancelToken {
        Self::starting_at(budget, Instant::now())
    }

    /// True when this token can never cancel.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    fn trip(inner: &TokenInner, reason: BudgetReason) -> BudgetReason {
        // First tripper wins; later observers report the stored reason
        // so every layer agrees on which limit fired.
        if inner
            .tripped
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            inner.reason.store(reason.code(), Ordering::Release);
            return reason;
        }
        BudgetReason::from_code(inner.reason.load(Ordering::Acquire))
    }

    /// The cooperative checkpoint: returns `Err` once the deadline has
    /// passed (or another checkpoint already tripped the token). Called
    /// at coarse strides — per FS1 index stride, per FS2 track, per solve
    /// expansion, every ~64 candidates — so the clock read is amortized.
    pub fn checkpoint(&self) -> Result<(), BudgetReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.tripped.load(Ordering::Acquire) {
            return Err(BudgetReason::from_code(
                inner.reason.load(Ordering::Acquire),
            ));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(Self::trip(inner, BudgetReason::Deadline));
            }
        }
        Ok(())
    }

    /// Charges `n` candidate clauses against the budget, then runs a
    /// checkpoint. The count is cumulative across every retrieval that
    /// shares the token.
    pub fn note_candidates(&self, n: u64) -> Result<(), BudgetReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.candidate_limit > 0 {
            let total = inner.candidates.fetch_add(n, Ordering::Relaxed) + n;
            if total > inner.candidate_limit {
                return Err(Self::trip(inner, BudgetReason::Candidates));
            }
        }
        self.checkpoint()
    }

    /// Charges one solve resolution step, then runs a checkpoint.
    pub fn note_step(&self) -> Result<(), BudgetReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.step_limit > 0 {
            let total = inner.steps.fetch_add(1, Ordering::Relaxed) + 1;
            if total > inner.step_limit {
                return Err(Self::trip(inner, BudgetReason::SolveSteps));
            }
        }
        self.checkpoint()
    }

    /// Bumps the matching `budget.exceeded_*` trace counter for a
    /// tripped reason (called once per cancelled request by the layer
    /// that surfaces the error, not per checkpoint).
    pub fn record_trip(reason: BudgetReason) {
        let m = clare_trace::metrics();
        match reason {
            BudgetReason::Deadline => m.budget_exceeded_deadline.inc(),
            BudgetReason::SolveSteps => m.budget_exceeded_steps.inc(),
            BudgetReason::Candidates => m.budget_exceeded_candidates.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let t = CancelToken::unlimited();
        assert!(t.is_unlimited());
        for _ in 0..1000 {
            assert!(t.checkpoint().is_ok());
            assert!(t.note_candidates(1_000_000).is_ok());
            assert!(t.note_step().is_ok());
        }
    }

    #[test]
    fn zero_budget_is_unlimited() {
        assert!(QueryBudget::default().is_unlimited());
        assert!(CancelToken::new(&QueryBudget::UNLIMITED).is_unlimited());
    }

    #[test]
    fn deadline_trips_and_sticks() {
        let budget = QueryBudget {
            deadline_micros: 1,
            ..QueryBudget::UNLIMITED
        };
        let t = CancelToken::starting_at(&budget, Instant::now() - Duration::from_millis(5));
        assert_eq!(t.checkpoint(), Err(BudgetReason::Deadline));
        // Sticky: clones observe the same trip.
        assert_eq!(t.clone().checkpoint(), Err(BudgetReason::Deadline));
    }

    #[test]
    fn candidate_limit_trips_cumulatively() {
        let budget = QueryBudget {
            candidate_limit: 100,
            ..QueryBudget::UNLIMITED
        };
        let t = CancelToken::new(&budget);
        assert!(t.note_candidates(60).is_ok());
        assert!(t.note_candidates(40).is_ok()); // exactly at the limit
        assert_eq!(t.note_candidates(1), Err(BudgetReason::Candidates));
        assert_eq!(t.checkpoint(), Err(BudgetReason::Candidates));
    }

    #[test]
    fn step_limit_trips() {
        let budget = QueryBudget {
            solve_step_limit: 3,
            ..QueryBudget::UNLIMITED
        };
        let t = CancelToken::new(&budget);
        assert!(t.note_step().is_ok());
        assert!(t.note_step().is_ok());
        assert!(t.note_step().is_ok());
        assert_eq!(t.note_step(), Err(BudgetReason::SolveSteps));
    }

    #[test]
    fn first_trip_reason_wins() {
        let budget = QueryBudget {
            deadline_micros: 1,
            candidate_limit: 1,
            ..QueryBudget::UNLIMITED
        };
        let t = CancelToken::starting_at(&budget, Instant::now() - Duration::from_millis(5));
        // Candidates blow first here; the deadline checkpoint afterwards
        // must report the stored reason, not invent a new one.
        let first = t.note_candidates(10).expect_err("limit must trip");
        assert_eq!(t.checkpoint(), Err(first));
    }
}
