//! # CLARE — a type-driven engine for Prolog clause retrieval
//!
//! A faithful, route-accurate Rust reproduction of *Wong & Williams, "A
//! Type Driven Hardware Engine for Prolog Clause Retrieval over a Large
//! Knowledge Base" (ISCA 1989)*: the two-stage CLARE filter (FS1
//! superimposed codewords + mask bits, FS2 partial test unification), the
//! PDBM knowledge-base system around it, and the full experiment harness.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`term`] | Prolog terms, symbol table, reader |
//! | [`unify`] | full unification oracle + matching levels 1–5 |
//! | [`pif`] | Pseudo In-line Format (Table A1 tags, clause records) |
//! | [`scw`] | FS1: SCW+MB codewords, masks, index scanner |
//! | [`disk`] | disk geometry/timing, track-organised files |
//! | [`fs2`] | FS2 simulator: datapath, Map ROM, engine, result memory |
//! | [`kb`] | modules, predicates, compiled clause files |
//! | [`wal`] | write-ahead log, memtable overlay, compaction support |
//! | [`core`] | Clause Retrieval Server, search modes, resolution |
//! | [`workload`] | synthetic knowledge bases and query sets |
//! | [`net`] | PIF-over-TCP wire protocol, serving daemon, client |
//! | [`cluster`] | predicate-sharded router, log-shipping replication |
//! | [`trace`] | process-wide metrics registry |
//!
//! # Quickstart
//!
//! ```
//! use clare::prelude::*;
//!
//! let mut builder = KbBuilder::new();
//! builder.consult("family", "
//!     parent(tom, bob). parent(bob, ann).
//!     grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
//! ")?;
//! let (goals, names) = parse_goals("grandparent(tom, Who)", builder.symbols_mut())?;
//! let kb = builder.finish(KbConfig::default());
//!
//! let (options, mut cx) = (SolveOptions::default(), RequestContext::unlimited());
//! let outcome = solve_goals(&kb, None, &goals, &names, &options, &CrsOptions::default(), &mut cx)?;
//! assert_eq!(outcome.solutions.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use clare_cluster as cluster;
pub use clare_core as core;
pub use clare_disk as disk;
pub use clare_fs2 as fs2;
pub use clare_kb as kb;
pub use clare_net as net;
pub use clare_pif as pif;
pub use clare_scw as scw;
pub use clare_term as term;
pub use clare_trace as trace;
pub use clare_unify as unify;
pub use clare_wal as wal;
pub use clare_workload as workload;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use clare_core::{
        choose_mode, retrieve, retrieve_batch, solve_goals, CancelToken, ClauseRetrievalServer,
        CommitError, CommitReceipt, CompactionOutcome, CrsOptions, ReplayReport, RequestContext,
        Retrieval, SearchMode, ServerStats, SolveOptions, UpdateTransaction, WalError, WalOp,
    };
    pub use clare_disk::{ByteRate, DiskProfile, SimNanos};
    pub use clare_fs2::{Fs2Device, Fs2Engine, HwOp};
    pub use clare_kb::{KbBuilder, KbConfig, KbStats, KnowledgeBase};
    pub use clare_net::{ClientConfig, NetClient, NetConfig, NetError, NetServer};
    pub use clare_pif::{encode_clause_head, encode_query, ClauseRecord};
    pub use clare_scw::{IndexFile, ScwConfig};
    pub use clare_term::parser::{
        parse_clause, parse_goals, parse_program, parse_term, parse_term_with_vars,
    };
    pub use clare_term::{Clause, SymbolTable, Term, TermDisplay};
    pub use clare_unify::partial::{partial_match, MatchLevel, PartialConfig};
    pub use clare_unify::unify_query_clause;
}
