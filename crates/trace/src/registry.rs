//! The process-wide metric registry and its snapshot form.
//!
//! One static [`Metrics`] instance (reached via [`metrics`]) holds every
//! counter, gauge, and histogram the workspace records into, from FS1
//! index scans and FS2 track sweeps to the WAL, the `clare-net` daemon
//! and the cluster router. The fixed part of the registry is plain
//! statics — recording never allocates or locks. The only dynamic part
//! is the per-predicate latency map, which takes a read lock on the hit
//! path and a write lock once per predicate lifetime.
//!
//! Each scalar metric is declared once, as one entry of the table that
//! `metric_table!` expands into the struct field, its zero initializer
//! and its snapshot entry. Only the two counter arrays, the sampled
//! `simd.level` gauge and the per-predicate histograms are written out
//! by hand.
//!
//! [`MetricsSnapshot`] is the plain-data, name-keyed copy of everything:
//! it renders as text or JSON, crosses the wire in the extended `stats`
//! reply, and is what tests assert against (use deltas — the registry is
//! process-wide and shared across in-process tests).

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, PoisonError, RwLock};

/// The seven FS2 hardware operations, in [`fs2_op_name`] index order.
/// Mirrors `clare_fs2::HwOp::ALL` (asserted by an integration test) —
/// duplicated here so the leaf trace crate depends on nothing.
pub const FS2_OPS: usize = 7;

/// Display name of FS2 op counter `i` (Table 1 order, matching
/// `HwOp::name`).
pub fn fs2_op_name(i: usize) -> &'static str {
    [
        "MATCH",
        "DB_STORE",
        "QUERY_STORE",
        "DB_FETCH",
        "QUERY_FETCH",
        "DB_CROSS_BOUND_FETCH",
        "QUERY_CROSS_BOUND_FETCH",
    ][i]
}

/// Wire opcodes tracked by the per-opcode frame counters, in counter
/// index order. Mirrors `clare_net::protocol::opcode` request opcodes
/// `0x01..=0x0C` (index = opcode - 1).
pub const NET_OPS: usize = 12;

/// Display name of net opcode counter `i`.
pub fn net_op_name(i: usize) -> &'static str {
    [
        "ping",
        "retrieve",
        "retrieve_batch",
        "solve",
        "consult",
        "stats",
        "symbols",
        "assert",
        "retract",
        "subscribe_log",
        "log_frame",
        "repl_ack",
    ][i]
}

/// Seed for the counter arrays: an array repeat copies a `const`, so
/// each element gets its own fresh atomic (as in `Histogram::new`).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Counter = Counter::new();

/// Expands the metric table below into the [`Metrics`] struct (the
/// table's fields, then the hand-written ones), its `const` initializer
/// and the table's part of the snapshot, so that each metric's field,
/// kind and dotted name are written once. Each section lists its
/// metrics in snapshot order.
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        pub struct Metrics {
            $( $(#[doc = $xdoc:literal])* pub $x:ident: $xty:ty = $xinit:expr, )*
        }
        counters { $( $(#[doc = $cdoc:literal])* $c:ident: $cty:ty = $cname:literal, )* }
        gauges { $( $(#[doc = $gdoc:literal])* $g:ident: $gty:ty = $gname:literal, )* }
        histograms { $( $(#[doc = $hdoc:literal])* $h:ident: $hty:ty = $hname:literal, )* }
    ) => {
        $(#[$meta])*
        pub struct Metrics {
            $( $(#[doc = $cdoc])* pub $c: $cty, )*
            $( $(#[doc = $gdoc])* pub $g: $gty, )*
            $( $(#[doc = $hdoc])* pub $h: $hty, )*
            $( $(#[doc = $xdoc])* pub $x: $xty, )*
        }

        impl Metrics {
            /// Every metric at zero; `const`, so the registry is a plain
            /// static.
            const fn new() -> Self {
                Metrics {
                    $( $c: <$cty>::new(), )*
                    $( $g: <$gty>::new(), )*
                    $( $h: <$hty>::new(), )*
                    $( $x: $xinit, )*
                }
            }

            /// The table's metrics, in table order; [`Metrics::snapshot`]
            /// adds the hand-written ones.
            fn table_snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    counters: vec![$( ($cname.into(), self.$c.get()), )*],
                    gauges: vec![$( ($gname.into(), self.$g.get()), )*],
                    histograms: vec![$( ($hname.into(), self.$h.snapshot()), )*],
                }
            }
        }
    };
}

metric_table! {
    /// Every metric the workspace records: each scalar metric is one
    /// table entry (`field: Kind = "dotted.name"`), grouped by kind and
    /// then by pipeline layer. See the README's "Observability" section
    /// for the full catalogue.
    #[derive(Debug, Default)]
    pub struct Metrics {
        /// Hardware operations executed, by `HwOp` index (MATCH, DB_STORE,
        /// …) — the global roll-up of every `StreamVerdict` op histogram.
        pub fs2_ops: [Counter; FS2_OPS] = [ZERO; FS2_OPS],
        /// Request frames received, by opcode (see [`net_op_name`]).
        pub net_frames_in: [Counter; NET_OPS] = [ZERO; NET_OPS],
        /// Per-predicate modelled retrieval latency, keyed `functor/arity`.
        pub crs_predicates: PredicateLatencies = PredicateLatencies::new(),
    }
    counters {
        // --- disk: the simulated volume ---------------------------------
        /// Tracks whose delivered bytes failed CRC32C verification.
        disk_track_crc_failures: Counter = "disk.track_crc_failures",
        // --- FS1: superimposed-codeword index scans ---------------------
        /// Descriptors scanned (each member of a shared pass counts once).
        fs1_scans: Counter = "fs1.scans",
        /// Scan passes shared by more than one descriptor.
        fs1_batch_scans: Counter = "fs1.batch_scans",
        /// Index entries examined across all scans.
        fs1_entries_scanned: Counter = "fs1.entries_scanned",
        /// Candidate clause addresses produced (FS1 "in" is entries, "out"
        /// is this).
        fs1_candidates_out: Counter = "fs1.candidates_out",
        /// FS1 candidates later rejected by FS2 verdicts (two-stage mode):
        /// the numerator of the FS1 false-drop rate.
        fs1_false_drops: Counter = "fs1.false_drops",
        // --- FS2: partial-test-unification track sweeps -----------------
        /// Query streams loaded into an FS2 engine.
        fs2_queries_loaded: Counter = "fs2.queries_loaded",
        /// Track sweeps performed (one per retrieval that ran an FS2 phase).
        fs2_sweeps: Counter = "fs2.sweeps",
        /// Tracks streamed through the filter.
        fs2_tracks: Counter = "fs2.tracks",
        /// Clause-head streams matched.
        fs2_clauses: Counter = "fs2.clauses",
        /// Clauses that satisfied the partial test.
        fs2_satisfiers: Counter = "fs2.satisfiers",
        /// Tracks quarantined during FS2 sweeps: checksum-failed bytes whose
        /// clauses were re-served through the software fallback instead of
        /// being trusted to the hardware filter.
        fs2_quarantined_tracks: Counter = "fs2.quarantined_tracks",
        // --- CRS: the clause retrieval server ---------------------------
        /// Retrieval/solve answers flagged degraded (some input failed
        /// integrity checks and a software fallback covered for it).
        crs_degraded_answers: Counter = "crs.degraded_answers",
        /// Goals compiled into a query plan (PIF stream, FS1 descriptor, mode
        /// inputs): one per retrieval that runs the filters, none per
        /// answer-cache hit.
        crs_query_compiles: Counter = "crs.query_compiles",
        // --- cache: the retrieval cache ---------------------------------
        /// Retrieval-cache lookups answered from the cache (either layer:
        /// full answers or FS1 candidate sets).
        cache_hits: Counter = "cache.hits",
        /// Retrieval-cache lookups that found no live entry.
        cache_misses: Counter = "cache.misses",
        /// Cache entries dropped by capacity-bound FIFO eviction.
        cache_evictions: Counter = "cache.evictions",
        /// Cache entries dropped because their epoch stamp no longer matched
        /// (a knowledge-base update or track quarantine intervened). Each
        /// also counts as a miss.
        cache_epoch_invalidations: Counter = "cache.epoch_invalidations",
        // --- budget: end-to-end deadlines and cooperative cancellation --
        /// Queued jobs dropped because their deadline expired before a
        /// worker picked them up (shed with `DeadlineExpired`, never
        /// executed).
        budget_expired_in_queue: Counter = "budget.expired_in_queue",
        /// Requests cancelled mid-execution because their deadline passed a
        /// cooperative checkpoint (typed `BudgetExceeded`, never cached).
        budget_exceeded_deadline: Counter = "budget.exceeded_deadline",
        /// Solve calls cancelled because they hit their resolution-step
        /// budget.
        budget_exceeded_steps: Counter = "budget.exceeded_steps",
        /// Retrievals cancelled because they hit their candidate budget.
        budget_exceeded_candidates: Counter = "budget.exceeded_candidates",
        /// Jobs shed at admission by the CoDel-style sojourn controller
        /// (sustained queue delay above target — shed early, before the
        /// queue fills).
        budget_codel_sheds: Counter = "budget.codel_sheds",
        /// Solve calls that exhausted `SolveOptions::max_depth` at least
        /// once (the answer is complete only up to the depth cap).
        solve_depth_cap_hits: Counter = "solve.depth_cap_hits",
        /// Solve retrievals whose goal repeated one the same solve had
        /// already filtered: the resolver reran only the candidate charge
        /// and the counting unification on the filter output it held.
        solve_repeat_retrievals: Counter = "solve.repeat_retrievals",
        // --- wal: the write-ahead log and memtable overlay --------------
        /// Batches appended to the write-ahead log (one fsync each — the
        /// group-commit unit).
        wal_appends: Counter = "wal.appends",
        /// Individual assert/retract records appended to the log.
        wal_records: Counter = "wal.records",
        /// `fdatasync` calls issued by the log (one per append, unless an
        /// append failed before reaching the sync).
        wal_fsyncs: Counter = "wal.fsyncs",
        /// Bytes appended to the log, frames included.
        wal_bytes: Counter = "wal.bytes",
        /// Records recovered by replay when a log was opened.
        wal_replayed_records: Counter = "wal.replayed_records",
        /// Torn tails truncated at open: bytes after the last intact frame
        /// (an append that crashed mid-write and was never acknowledged).
        wal_truncated_tails: Counter = "wal.truncated_tails",
        /// Transaction commits skipped because they carried zero operations
        /// (nothing published, no epoch bumped, no cache flushed).
        wal_noop_commits: Counter = "wal.noop_commits",
        /// Live clauses added to the memtable overlay by asserts.
        wal_overlay_asserts: Counter = "wal.overlay_asserts",
        /// Clauses removed (from the base or the overlay) by retracts.
        wal_overlay_retracts: Counter = "wal.overlay_retracts",
        // --- compaction: folding the overlay into the base segments -----
        /// Compaction passes started.
        compaction_runs: Counter = "compaction.runs",
        /// Compaction passes started automatically because a commit left
        /// the overlay holding at least `CrsOptions::overlay_auto_compact_ops`
        /// logged operations (no manual `compact_now`/`spawn_compaction`
        /// call involved).
        compaction_auto_triggers: Counter = "compaction.auto_triggers",
        /// Compaction passes whose rebuilt base was swapped in.
        compaction_swaps: Counter = "compaction.swaps",
        /// Compaction passes abandoned at the swap gate because the base
        /// moved (a wholesale `update` won the race); the overlay is left
        /// for the next pass.
        compaction_aborts: Counter = "compaction.aborts",
        /// Overlay clauses folded into rebuilt track segments.
        compaction_clauses: Counter = "compaction.clauses",
        /// Retrievals served while a compaction pass was in flight — the
        /// benchmark reports it as `wal.retrievals_during_compaction`, the
        /// liveness check that compaction never blocks readers.
        compaction_concurrent_retrievals: Counter = "compaction.concurrent_retrievals",
        // --- net: the clare-net daemon ----------------------------------
        /// Requests shed with `Busy` (queue full), plus connections refused
        /// at the connection limit.
        net_busy_rejections: Counter = "net.busy_rejections",
        /// Bytes received inside request frames.
        net_bytes_in: Counter = "net.bytes_in",
        /// Frames written back to clients (replies and errors).
        net_frames_out: Counter = "net.frames_out",
        /// Bytes written back to clients.
        net_bytes_out: Counter = "net.bytes_out",
        /// Pipelined retrieve frames that were folded into a coalesced batch
        /// pass. The coalescing hit rate is this over `net.frames_in.retrieve`.
        net_coalesced_members: Counter = "net.coalesced_members",
        /// Coalesced groups formed (each runs one hardware batch pass).
        net_coalesced_groups: Counter = "net.coalesced_groups",
        /// Worker threads that caught a panic while serving a request. The
        /// affected request ids are answered with `Internal` errors — the
        /// job is never silently lost — and the pool keeps serving.
        net_worker_panics: Counter = "net.worker_panics",
        /// Frames rejected because their negotiated CRC32C trailer did not
        /// match the received bytes.
        net_frame_crc_failures: Counter = "net.frame_crc_failures",
        /// Connections reaped after sitting idle past the configured limit.
        net_idle_reaps: Counter = "net.idle_reaps",
        /// Client-side reconnect-and-replay recoveries on idempotent
        /// requests.
        net_client_reconnects: Counter = "net.client_reconnects",
        // --- net.reactor: the epoll serving core ------------------------
        /// `epoll_wait` returns that reported at least one ready fd (the
        /// reactor's readiness wakeup count; timeouts are not counted).
        net_reactor_wakeups: Counter = "net.reactor.wakeups",
        /// Readiness events dispatched across all wakeups (sockets, the
        /// listener, and cross-thread kicks via the eventfd).
        net_reactor_events: Counter = "net.reactor.events",
        /// Times a worker blocked because a connection's outbound queue was
        /// at capacity (write-side backpressure from a slow client).
        net_reactor_backpressure_stalls: Counter = "net.reactor.backpressure_stalls",
        /// Flush rounds that moved only part of a connection's pending bytes
        /// (kernel buffer full or an injected torn write); the remainder
        /// waits parked against `EPOLLOUT`.
        net_reactor_partial_writes: Counter = "net.reactor.partial_writes",
        // --- cluster: the predicate-sharded router ----------------------
        /// Requests routed to a shard backend (every retrieve / assert /
        /// retract the router forwarded, broadcast fan-out counted per
        /// shard).
        cluster_routed: Counter = "cluster.routed",
        /// Shards failed over from primary to backup (manual promotions and
        /// heartbeat-triggered automatic ones).
        cluster_failovers: Counter = "cluster.failovers",
        /// WAL records shipped through the replication stream (primary →
        /// router → backup forwards; resends count again).
        cluster_repl_frames: Counter = "cluster.repl_frames",
        /// Answers the router flagged degraded because they were served by a
        /// stale backup after failover.
        cluster_degraded_answers: Counter = "cluster.degraded_answers",
        /// Per-shard circuit breakers tripped open (K consecutive
        /// failures).
        router_breaker_opens: Counter = "router.breaker_opens",
        /// Half-open probe requests let through a cooling-down breaker.
        router_breaker_half_open_probes: Counter = "router.breaker_half_open_probes",
        /// Requests fast-failed with `ShardUnavailable` because the shard's
        /// breaker was open.
        router_breaker_rejections: Counter = "router.breaker_rejections",
    }
    gauges {
        /// Live client connections.
        net_connections: Gauge = "net.connections",
        /// Jobs waiting in the worker queue (sampled at enqueue/dequeue).
        net_queue_depth: Gauge = "net.queue_depth",
        /// Connections currently registered with the reactor thread
        /// (accepted, past admission, not yet closed).
        net_reactor_connections: Gauge = "net.reactor.connections",
        /// Bytes sitting in per-connection outbound reply queues, summed
        /// across connections (enqueued by workers, not yet on the wire).
        net_reactor_outbound_bytes: Gauge = "net.reactor.outbound_bytes",
        /// Replication lag of the worst shard: records committed on the
        /// primary but not yet acknowledged as applied by its backup.
        cluster_repl_lag_frames: Gauge = "cluster.repl_lag_frames",
    }
    histograms {
        /// Host wall-clock per scan call, ns.
        fs1_scan_wall_ns: Histogram = "fs1.scan_wall_ns",
        /// Host wall-clock per compaction pass, ns (rebuild plus swap).
        compaction_wall_ns: Histogram = "compaction.wall_ns",
        /// Modelled (Table 1) time per sweep, ns.
        fs2_modelled_ns: Histogram = "fs2.modelled_ns",
        /// Host wall-clock per sweep, ns.
        fs2_wall_ns: Histogram = "fs2.wall_ns",
        /// Host wall-clock per served retrieval call, ns.
        crs_retrieve_wall_ns: Histogram = "crs.retrieve_wall_ns",
        /// Host wall-clock per served solve call, ns.
        crs_solve_wall_ns: Histogram = "crs.solve_wall_ns",
        /// Sizes of served retrieval requests that carried more than one query.
        crs_batch_size: Histogram = "crs.batch_size",
        /// Time a job spent queued before a worker picked it up, ns.
        net_queue_wait_ns: Histogram = "net.queue_wait_ns",
    }
}

/// The dynamic per-predicate latency histograms. Lookup takes a read
/// lock; the write lock is taken once per predicate to insert. A
/// `BTreeMap` keeps keys sorted and has a const constructor, letting
/// the whole registry live in a plain static.
#[derive(Debug, Default)]
pub struct PredicateLatencies {
    map: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl PredicateLatencies {
    /// A latency map with no predicates yet.
    pub const fn new() -> Self {
        PredicateLatencies {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Records a modelled retrieval latency for `functor/arity`.
    pub fn record(&self, key: &str, elapsed_ns: u64) {
        // Poisoning is swallowed: metrics must never turn one panic into
        // many.
        if let Some(h) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            h.record(elapsed_ns);
            return;
        }
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        map.entry(key.to_owned())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .record(elapsed_ns);
    }

    /// Snapshot of every per-predicate histogram, sorted by key.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide registry every layer records into.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

impl Metrics {
    /// A plain-data, name-keyed copy of every metric: the table's
    /// counters, then the `fs2.op.*` and `net.frames_in.*` arrays; the
    /// sampled `simd.level`, then the table's gauges; the table's
    /// histograms, then the `crs.pred.*` ones.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.table_snapshot();
        for (i, c) in self.fs2_ops.iter().enumerate() {
            let name = format!("fs2.op.{}", fs2_op_name(i));
            snap.counters.push((name, c.get()));
        }
        for (i, c) in self.net_frames_in.iter().enumerate() {
            let name = format!("net.frames_in.{}", net_op_name(i));
            snap.counters.push((name, c.get()));
        }
        // The active SIMD dispatch tier (0 scalar, 1 NEON, 2 AVX2):
        // environment state rather than a recorded metric, sampled at
        // snapshot time so every transport reports it for free.
        let simd = clare_simd::level().as_gauge() as i64;
        snap.gauges.insert(0, (String::from("simd.level"), simd));
        for (key, h) in self.crs_predicates.snapshot() {
            snap.histograms
                .push((format!("crs.pred.{key}.elapsed_ns"), h));
        }
        snap
    }
}

/// A point-in-time, name-keyed copy of the registry — the unit that
/// crosses the wire, renders in the repl, and lands in `clare-tables
/// metrics` output. Names are stable identifiers; decoders must tolerate
/// names they do not know (the payload is self-describing).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histogram pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as an aligned text table (counters, gauges,
    /// then histograms with count/mean/p50/p99).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<34} {:>16}", "counter", "value");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<34} {v:>16}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<34} {v:>16}  (gauge)");
        }
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>12} {:>12}",
            "histogram", "count", "mean", "p50", "p99"
        );
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<34} {:>10} {:>12} {:>12} {:>12}",
                h.count,
                h.mean(),
                h.p50(),
                h.p99()
            );
        }
        out
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the workspace
    /// vendors no serde). Histograms carry count/sum/buckets.
    pub fn render_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    {}: {v}", quote(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    {}: {v}", quote(name)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "{sep}\n    {}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                quote(name),
                h.count,
                h.sum,
                h.p50(),
                h.p99(),
                buckets.join(", ")
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_are_unique() {
        let snap = metrics().snapshot();
        let mut names: Vec<&str> = snap
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(snap.gauges.iter().map(|(n, _)| n.as_str()))
            .chain(snap.histograms.iter().map(|(n, _)| n.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
    }

    #[test]
    fn deltas_observable_through_snapshot() {
        let before = metrics().snapshot().counter("fs1.scans").unwrap();
        metrics().fs1_scans.add(3);
        let after = metrics().snapshot().counter("fs1.scans").unwrap();
        assert!(after >= before + 3);
    }

    #[test]
    fn per_predicate_histograms_appear_sorted() {
        metrics().crs_predicates.record("zz_test_pred/2", 1000);
        metrics().crs_predicates.record("aa_test_pred/1", 500);
        metrics().crs_predicates.record("zz_test_pred/2", 2000);
        let snap = metrics().snapshot();
        let keys: Vec<&String> = snap
            .histograms
            .iter()
            .map(|(n, _)| n)
            .filter(|n| n.contains("_test_pred/"))
            .collect();
        assert_eq!(
            keys,
            [
                "crs.pred.aa_test_pred/1.elapsed_ns",
                "crs.pred.zz_test_pred/2.elapsed_ns"
            ]
        );
        let h = snap
            .histogram("crs.pred.zz_test_pred/2.elapsed_ns")
            .unwrap();
        assert!(h.count >= 2);
    }

    #[test]
    fn text_and_json_render() {
        metrics().fs2_wall_ns.record(12345);
        let snap = metrics().snapshot();
        let text = snap.render_text();
        assert!(text.contains("fs2.op.MATCH"));
        assert!(text.contains("net.queue_wait_ns"));
        let json = snap.render_json();
        assert!(json.contains("\"fs1.scans\""));
        assert!(json.contains("\"buckets\""));
        // Sanity: balanced braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn lookup_helpers() {
        let snap = metrics().snapshot();
        assert!(snap.counter("fs2.op.MATCH").is_some());
        assert!(snap.gauge("net.queue_depth").is_some());
        assert!(snap.histogram("crs.batch_size").is_some());
        assert!(snap.counter("no.such.metric").is_none());
    }
}
