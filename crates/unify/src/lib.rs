//! Unification for the CLARE reproduction.
//!
//! Two layers, corresponding to the paper's split between *full unification*
//! (done in software by the Prolog system on the clauses that survive
//! filtering) and *partial test unification* (done on-the-fly by the FS2
//! hardware):
//!
//! * [`full`] — a complete, sound unifier over [`clare_term::Term`]s with a
//!   trail for backtracking and the occurs check. This is the
//!   reference oracle every filter is validated against: a filter may accept
//!   clauses that full unification later rejects (*false drops*), but must
//!   never reject a clause that would unify (*no false negatives*).
//! * [`partial`] — the paper's five matching levels (§2.2) as a pure
//!   software model of the Figure 1 algorithm, with word-level binding
//!   semantics that mirror what the FS2 datapath actually compares. The
//!   adopted hardware configuration is Level 3 (first-level structures) plus
//!   variable cross-binding checks: [`partial::PartialConfig::fs2`].
//!
//! # Examples
//!
//! ```
//! use clare_term::{SymbolTable, parser::parse_term};
//! use clare_unify::{full, partial};
//!
//! let mut sy = SymbolTable::new();
//! let query = parse_term("married_couple(S, S)", &mut sy)?;
//! let fact = parse_term("married_couple(ann, bob)", &mut sy)?;
//!
//! // Full unification rejects it (S cannot be both ann and bob)…
//! assert!(full::unify_query_clause(&query, &fact).is_none());
//! // …and so does FS2-style partial matching, thanks to cross-binding checks.
//! let report = partial::partial_match(&query, &fact, partial::PartialConfig::fs2());
//! assert!(!report.matched);
//! # Ok::<(), clare_term::parser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod full;
pub mod partial;
pub mod store;

pub use full::{unify, unify_query_clause};
pub use partial::{partial_match, DepthPolicy, MatchLevel, MatchReport, PartialConfig, PartialOp};
pub use store::{shift_vars, BindingStore};
