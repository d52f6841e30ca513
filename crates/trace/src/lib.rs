//! # clare-trace — lock-cheap observability for the CLARE reproduction
//!
//! The paper's argument is quantitative: per-op combinational timings
//! (Table 1) and filter selectivity. This crate gives every layer of
//! the reproduction a place to record those numbers without perturbing
//! them: a process-wide registry of atomic [`Counter`]s, [`Gauge`]s,
//! and fixed-bucket log2 [`Histogram`]s.
//!
//! Recording is a handful of `Relaxed` atomic adds — no locks, no
//! allocation — so the instrumentation stays enabled permanently; the
//! bench `trace_overhead` pins the FS2 hot-path cost at under 2%. Readers call [`metrics()`]`.snapshot()` for a plain-data,
//! name-keyed [`MetricsSnapshot`] that renders as text or JSON and
//! crosses the wire in the extended `stats` reply.
//!
//! This crate is a leaf: it depends only on `std` and `clare-simd` (for
//! the `simd.level` gauge) so every other crate in the workspace (scw,
//! fs2, core, net, bench) can record into the same registry.

pub mod metric;
pub mod registry;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{
    fs2_op_name, metrics, net_op_name, Metrics, MetricsSnapshot, PredicateLatencies, FS2_OPS,
    NET_OPS,
};
