//! `clare-net`: the Clause Retrieval Server, served over TCP.
//!
//! The paper's CRS is a shared back-end engine: one retrieval unit serving
//! many inference machines. This crate gives the reproduction the same
//! shape over a network — a [`NetServer`] front-end that exposes a
//! [`Service`] (a [`ClauseRetrievalServer`](clare_core::ClauseRetrievalServer),
//! or the `clare-cluster` router) to remote clients, a standalone daemon
//! (`clare-served`), and a blocking [`NetClient`].
//!
//! Three layers:
//!
//! - [`protocol`] — the wire format. Length-prefixed frames whose query
//!   payloads are Pseudo In-line Format term bytes: the network speaks the
//!   hardware's own encoding. Each payload's layout is declared once, and
//!   one opcode table types both ends. Decoding is hardened against
//!   untrusted input (bounds-checked, depth-limited, never panics).
//! - [`NetServer`] — the one serving core: an epoll reactor takes
//!   connections in and feeds a bounded worker pool, and each worker
//!   writes its reply to the connection's socket itself, falling back to
//!   a bounded per-connection queue the reactor flushes when the peer is
//!   not keeping up. Supports request pipelining with out-of-order
//!   completion, coalesces pipelined same-predicate retrieves into single
//!   hardware batch passes, sheds load with retry-after hints when the
//!   queue or connection limit is hit, and drains in-flight requests on
//!   shutdown. Linux only (epoll).
//! - [`NetClient`] — mirrors the in-process server API call for call;
//!   answers (satisfier sets, verdict counts, modelled `SimNanos` times)
//!   are byte-identical to direct calls on the same CRS.
//!
//! # Examples
//!
//! ```
//! use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
//! use clare_kb::{KbBuilder, KbConfig};
//! use clare_net::{ClientConfig, NetClient, NetConfig, NetServer};
//! use clare_term::parser::parse_term;
//! use std::sync::Arc;
//!
//! let mut b = KbBuilder::new();
//! b.consult("family", "parent(tom, bob). parent(bob, ann).")?;
//! let crs = Arc::new(ClauseRetrievalServer::new(
//!     b.finish(KbConfig::default()),
//!     CrsOptions::default(),
//! ));
//! let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", NetConfig::default())?;
//!
//! let mut client = NetClient::connect(server.local_addr(), ClientConfig::default())?;
//! let mut symbols = client.symbols()?; // the server's namespace
//! let query = parse_term("parent(tom, X)", &mut symbols)?;
//! let networked = client.retrieve(&query, SearchMode::TwoStage)?;
//! assert_eq!(networked.stats.unified, 1);
//! // Identical to asking the engine directly:
//! assert_eq!(networked, crs.retrieve(&query, SearchMode::TwoStage));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;
pub mod service;

pub use client::{ClientConfig, NetClient};
pub use error::NetError;
pub use protocol::{BudgetExt, ErrorCode, CAP_QUERY_BUDGET, PROTOCOL_VERSION};
pub use server::{NetConfig, NetServer};
pub use service::Service;
