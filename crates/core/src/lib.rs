//! The CLARE core: Clause Retrieval Server (CRS) and resolution engine.
//!
//! "An independent software module, the Clause Retrieval Server (CRS), is
//! being developed which links CLARE with the PDBM Prolog system. In
//! practice, there will be four searching modes during a clause retrieval:
//! (a) by software only …; (b) using FS1 only …; (c) using FS2 only …;
//! (d) using both FS1 and FS2 — a two-stage hardware filter." (§2.2.)
//!
//! This crate integrates every substrate in the workspace:
//!
//! * [`crs`] — the four [`SearchMode`]s with a full timing pipeline
//!   (disk streaming, FS1 index scan at 4.5 MB/s, FS2 double-buffered
//!   matching at Table 1 costs, software costs on an M68020-class host),
//!   plus the mode-selection heuristic the paper sketches. Each goal is
//!   compiled once into a query plan (PIF stream, FS1 descriptor, mode
//!   inputs) that every stage reads.
//! * [`resolve`] — an SLD resolution engine that performs clause lookup
//!   through the CRS, so whole Prolog queries run end-to-end against
//!   disk-resident knowledge bases.
//! * [`server`] — [`ClauseRetrievalServer`]: shared, concurrent access for
//!   multiple clients with read/write transaction semantics.
//! * [`cost`] — the software cost model used by mode (a) and by the final
//!   full-unification stage of every mode.
//!
//! # Examples
//!
//! ```
//! use clare_core::{retrieve, CrsOptions, SearchMode};
//! use clare_kb::{KbBuilder, KbConfig};
//! use clare_term::parser::parse_term;
//!
//! let mut builder = KbBuilder::new();
//! builder.consult("m", "p(a, 1). p(b, 2). p(a, 3).")?;
//! // Parse the query in the same symbol namespace, then compile.
//! let query = parse_term("p(a, X)", builder.symbols_mut())?;
//! let kb = builder.finish(KbConfig::default());
//!
//! let outcome = retrieve(&kb, &query, SearchMode::TwoStage, &CrsOptions::default());
//! assert_eq!(outcome.stats.unified, 2); // p(a, 1) and p(a, 3)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod cost;
pub mod crs;
mod plan;
pub mod request;
pub mod resolve;
pub mod server;

pub use budget::{BudgetExceeded, BudgetReason, CancelToken, QueryBudget};
pub use cache::CacheConfig;
pub use cost::SoftwareCostModel;
pub use crs::{
    choose_mode, retrieve, retrieve_batch, retrieve_merged, CrsOptions, Retrieval, RetrievalStats,
    SearchMode,
};
pub use request::{RequestContext, RequestCounts, Stage, StageRecord};
pub use resolve::{solve_goals, ModeChoice, Solution, SolveOptions, SolveOutcome, SolveStats};
pub use server::{
    ClauseRetrievalServer, CommitError, CommitReceipt, CompactionOutcome, LogWatcher, ServerStats,
    SubscribeError, UpdateTransaction,
};

// The mutable-KB substrate (write-ahead log + memtable overlay) the server
// builds on, re-exported so front-ends can speak its vocabulary directly.
pub use clare_wal::{Overlay, OverlayError, ReplayReport, Wal, WalError, WalOp, WalRecord};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// Lock poisoning is swallowed: a panic under one of the server's locks (a
// worker's, which the serving layer isolates) must not turn every later
// call on the shared server into a panic too.

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
