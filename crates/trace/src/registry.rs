//! The process-wide metric registry and its snapshot form.
//!
//! One static [`Metrics`] instance (reached via [`metrics`]) holds every
//! counter, gauge, and histogram the four pipeline layers record into:
//! FS1 index scans, FS2 track sweeps, the Clause Retrieval Server, and
//! the `clare-net` daemon. The fixed part of the registry is plain
//! statics — recording never allocates or locks. The only dynamic part
//! is the per-predicate latency map, which takes a read lock on the hit
//! path and a write lock once per predicate lifetime.
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

/// Every metric the workspace records, grouped by pipeline layer. See
/// the README's "Observability" section for the full catalogue.
#[derive(Debug, Default)]
pub struct Metrics {
    // --- disk: the simulated volume -------------------------------------
    /// Tracks whose delivered bytes failed CRC32C verification.
    pub disk_track_crc_failures: Counter,
    // --- FS1: superimposed-codeword index scans -------------------------
    /// Descriptors scanned (each member of a shared pass counts once).
    pub fs1_scans: Counter,
    /// Scan passes shared by more than one descriptor.
    pub fs1_batch_scans: Counter,
    /// Index entries examined across all scans.
    pub fs1_entries_scanned: Counter,
    /// Candidate clause addresses produced (FS1 "in" is entries, "out"
    /// is this).
    pub fs1_candidates_out: Counter,
    /// FS1 candidates later rejected by FS2 verdicts (two-stage mode):
    /// the numerator of the FS1 false-drop rate.
    pub fs1_false_drops: Counter,
    /// Host wall-clock per scan call, ns.
    pub fs1_scan_wall_ns: Histogram,
    // --- FS2: partial-test-unification track sweeps ---------------------
    /// Query streams loaded into an FS2 engine.
    pub fs2_queries_loaded: Counter,
    /// Track sweeps performed (one per retrieval that ran an FS2 phase).
    pub fs2_sweeps: Counter,
    /// Tracks streamed through the filter.
    pub fs2_tracks: Counter,
    /// Clause-head streams matched.
    pub fs2_clauses: Counter,
    /// Clauses that satisfied the partial test.
    pub fs2_satisfiers: Counter,
    /// Hardware operations executed, by `HwOp` index (MATCH, DB_STORE,
    /// …) — the global roll-up of every `StreamVerdict` op histogram.
    pub fs2_ops: [Counter; FS2_OPS],
    /// Modelled (Table 1) time per sweep, ns.
    pub fs2_modelled_ns: Histogram,
    /// Host wall-clock per sweep, ns.
    pub fs2_wall_ns: Histogram,
    /// Tracks quarantined during FS2 sweeps: checksum-failed bytes whose
    /// clauses were re-served through the software fallback instead of
    /// being trusted to the hardware filter.
    pub fs2_quarantined_tracks: Counter,
    // --- CRS: the clause retrieval server -------------------------------
    /// Retrieval/solve answers flagged degraded (some input failed
    /// integrity checks and a software fallback covered for it).
    pub crs_degraded_answers: Counter,
    /// Goals compiled into a query plan (PIF stream, FS1 descriptor, mode
    /// inputs): one per retrieval that runs the filters, none per
    /// answer-cache hit.
    pub crs_query_compiles: Counter,
    /// Retrieval-cache lookups answered from the cache (either layer:
    /// full answers or FS1 candidate sets).
    pub cache_hits: Counter,
    /// Retrieval-cache lookups that found no live entry.
    pub cache_misses: Counter,
    /// Cache entries dropped by capacity-bound FIFO eviction.
    pub cache_evictions: Counter,
    /// Cache entries dropped because their epoch stamp no longer matched
    /// (a knowledge-base update or track quarantine intervened). Each
    /// also counts as a miss.
    pub cache_epoch_invalidations: Counter,
    // --- budget: end-to-end deadlines and cooperative cancellation --------
    /// Queued jobs dropped because their deadline expired before a
    /// worker picked them up (shed with `DeadlineExpired`, never
    /// executed).
    pub budget_expired_in_queue: Counter,
    /// Requests cancelled mid-execution because their deadline passed a
    /// cooperative checkpoint (typed `BudgetExceeded`, never cached).
    pub budget_exceeded_deadline: Counter,
    /// Solve calls cancelled because they hit their resolution-step
    /// budget.
    pub budget_exceeded_steps: Counter,
    /// Retrievals cancelled because they hit their candidate budget.
    pub budget_exceeded_candidates: Counter,
    /// Jobs shed at admission by the CoDel-style sojourn controller
    /// (sustained queue delay above target — shed early, before the
    /// queue fills).
    pub budget_codel_sheds: Counter,
    /// Solve calls that exhausted `SolveOptions::max_depth` at least
    /// once (the answer is complete only up to the depth cap).
    pub solve_depth_cap_hits: Counter,
    // --- wal: the write-ahead log and memtable overlay -------------------
    /// Batches appended to the write-ahead log (one fsync each — the
    /// group-commit unit).
    pub wal_appends: Counter,
    /// Individual assert/retract records appended to the log.
    pub wal_records: Counter,
    /// `fdatasync` calls issued by the log (equals `wal.appends` unless
    /// an append failed before reaching the sync).
    pub wal_fsyncs: Counter,
    /// Bytes appended to the log, frames included.
    pub wal_bytes: Counter,
    /// Records recovered by replay when a log was opened.
    pub wal_replayed_records: Counter,
    /// Torn tails truncated at open: bytes after the last intact frame
    /// (an append that crashed mid-write and was never acknowledged).
    pub wal_truncated_tails: Counter,
    /// Transaction commits skipped because they carried zero operations
    /// (nothing published, no epoch bumped, no cache flushed).
    pub wal_noop_commits: Counter,
    /// Live clauses added to the memtable overlay by asserts.
    pub wal_overlay_asserts: Counter,
    /// Clauses removed (from the base or the overlay) by retracts.
    pub wal_overlay_retracts: Counter,
    // --- compaction: folding the overlay into the base segments ----------
    /// Compaction passes started.
    pub compaction_runs: Counter,
    /// Compaction passes started automatically because a commit pushed
    /// the overlay past a configured size/age threshold (no manual
    /// `compact_now`/`spawn_compaction` call involved).
    pub compaction_auto_triggers: Counter,
    /// Compaction passes whose rebuilt base was swapped in.
    pub compaction_swaps: Counter,
    /// Compaction passes abandoned at the swap gate because the base
    /// moved (a wholesale `update` won the race); the overlay is left
    /// for the next pass.
    pub compaction_aborts: Counter,
    /// Overlay clauses folded into rebuilt track segments.
    pub compaction_clauses: Counter,
    /// Retrievals served while a compaction pass was in flight — the
    /// benchmark reports it as `wal.retrievals_during_compaction`, the
    /// liveness check that compaction never blocks readers.
    pub compaction_concurrent_retrievals: Counter,
    /// Host wall-clock per compaction pass, ns (rebuild plus swap).
    pub compaction_wall_ns: Histogram,
    /// Host wall-clock per served retrieval call, ns.
    pub crs_retrieve_wall_ns: Histogram,
    /// Host wall-clock per served solve call, ns.
    pub crs_solve_wall_ns: Histogram,
    /// Sizes of served retrieval requests that carried more than one query.
    pub crs_batch_size: Histogram,
    /// Per-predicate modelled retrieval latency, keyed `functor/arity`.
    pub crs_predicates: PredicateLatencies,
    // --- net: the clare-net daemon --------------------------------------
    /// Live client connections.
    pub net_connections: Gauge,
    /// Jobs waiting in the worker queue (sampled at enqueue/dequeue).
    pub net_queue_depth: Gauge,
    /// Time a job spent queued before a worker picked it up, ns.
    pub net_queue_wait_ns: Histogram,
    /// Requests shed with `Busy` (queue full), plus connections refused
    /// at the connection limit.
    pub net_busy_rejections: Counter,
    /// Request frames received, by opcode (see [`net_op_name`]).
    pub net_frames_in: [Counter; NET_OPS],
    /// Bytes received inside request frames.
    pub net_bytes_in: Counter,
    /// Frames written back to clients (replies and errors).
    pub net_frames_out: Counter,
    /// Bytes written back to clients.
    pub net_bytes_out: Counter,
    /// Pipelined retrieve frames that were folded into a coalesced batch
    /// pass. The coalescing hit rate is this over `net.frames_in.retrieve`.
    pub net_coalesced_members: Counter,
    /// Coalesced groups formed (each runs one hardware batch pass).
    pub net_coalesced_groups: Counter,
    /// Worker threads that caught a panic while serving a request. The
    /// affected request ids are answered with `Internal` errors — the
    /// job is never silently lost — and the pool keeps serving.
    pub net_worker_panics: Counter,
    /// Frames rejected because their negotiated CRC32C trailer did not
    /// match the received bytes.
    pub net_frame_crc_failures: Counter,
    /// Connections reaped after sitting idle past the configured limit.
    pub net_idle_reaps: Counter,
    /// Client-side reconnect-and-replay recoveries on idempotent
    /// requests.
    pub net_client_reconnects: Counter,
    // --- net.reactor: the epoll serving core ----------------------------
    /// Connections currently registered with a reactor shard (accepted,
    /// past admission, not yet closed).
    pub net_reactor_connections: Gauge,
    /// `epoll_wait` returns that reported at least one ready fd (the
    /// reactor's readiness wakeup count; timeouts are not counted).
    pub net_reactor_wakeups: Counter,
    /// Readiness events dispatched across all wakeups (sockets, the
    /// listener, and cross-thread kicks via the eventfd).
    pub net_reactor_events: Counter,
    /// Bytes sitting in per-connection outbound reply queues, summed
    /// across connections (enqueued by workers, not yet on the wire).
    pub net_reactor_outbound_bytes: Gauge,
    /// Times a worker blocked because a connection's outbound queue was
    /// at capacity (write-side backpressure from a slow client).
    pub net_reactor_backpressure_stalls: Counter,
    /// Flush rounds that moved only part of a connection's pending bytes
    /// (kernel buffer full or an injected torn write); the remainder
    /// waits parked against `EPOLLOUT`.
    pub net_reactor_partial_writes: Counter,
    // --- cluster: the predicate-sharded router ---------------------------
    /// Requests routed to a shard backend (every retrieve / assert /
    /// retract the router forwarded, broadcast fan-out counted per
    /// shard).
    pub cluster_routed: Counter,
    /// Shards failed over from primary to backup (manual promotions and
    /// heartbeat-triggered automatic ones).
    pub cluster_failovers: Counter,
    /// WAL records shipped through the replication stream (primary →
    /// router → backup forwards; resends count again).
    pub cluster_repl_frames: Counter,
    /// Answers the router flagged degraded because they were served by a
    /// stale backup after failover.
    pub cluster_degraded_answers: Counter,
    /// Replication lag of the worst shard: records committed on the
    /// primary but not yet acknowledged as applied by its backup.
    pub cluster_repl_lag_frames: Gauge,
    /// Per-shard circuit breakers tripped open (K consecutive
    /// failures).
    pub router_breaker_opens: Counter,
    /// Half-open probe requests let through a cooling-down breaker.
    pub router_breaker_half_open_probes: Counter,
    /// Requests fast-failed with `ShardUnavailable` because the shard's
    /// breaker was open.
    pub router_breaker_rejections: Counter,
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

static METRICS: Metrics = Metrics {
    disk_track_crc_failures: Counter::new(),
    fs1_scans: Counter::new(),
    fs1_batch_scans: Counter::new(),
    fs1_entries_scanned: Counter::new(),
    fs1_candidates_out: Counter::new(),
    fs1_false_drops: Counter::new(),
    fs1_scan_wall_ns: Histogram::new(),
    fs2_queries_loaded: Counter::new(),
    fs2_sweeps: Counter::new(),
    fs2_tracks: Counter::new(),
    fs2_clauses: Counter::new(),
    fs2_satisfiers: Counter::new(),
    fs2_ops: [
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
    ],
    fs2_modelled_ns: Histogram::new(),
    fs2_wall_ns: Histogram::new(),
    fs2_quarantined_tracks: Counter::new(),
    crs_degraded_answers: Counter::new(),
    crs_query_compiles: Counter::new(),
    cache_hits: Counter::new(),
    cache_misses: Counter::new(),
    cache_evictions: Counter::new(),
    cache_epoch_invalidations: Counter::new(),
    budget_expired_in_queue: Counter::new(),
    budget_exceeded_deadline: Counter::new(),
    budget_exceeded_steps: Counter::new(),
    budget_exceeded_candidates: Counter::new(),
    budget_codel_sheds: Counter::new(),
    solve_depth_cap_hits: Counter::new(),
    wal_appends: Counter::new(),
    wal_records: Counter::new(),
    wal_fsyncs: Counter::new(),
    wal_bytes: Counter::new(),
    wal_replayed_records: Counter::new(),
    wal_truncated_tails: Counter::new(),
    wal_noop_commits: Counter::new(),
    wal_overlay_asserts: Counter::new(),
    wal_overlay_retracts: Counter::new(),
    compaction_runs: Counter::new(),
    compaction_auto_triggers: Counter::new(),
    compaction_swaps: Counter::new(),
    compaction_aborts: Counter::new(),
    compaction_clauses: Counter::new(),
    compaction_concurrent_retrievals: Counter::new(),
    compaction_wall_ns: Histogram::new(),
    crs_retrieve_wall_ns: Histogram::new(),
    crs_solve_wall_ns: Histogram::new(),
    crs_batch_size: Histogram::new(),
    crs_predicates: PredicateLatencies::new(),
    net_connections: Gauge::new(),
    net_queue_depth: Gauge::new(),
    net_queue_wait_ns: Histogram::new(),
    net_busy_rejections: Counter::new(),
    net_frames_in: [
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
        Counter::new(),
    ],
    net_bytes_in: Counter::new(),
    net_frames_out: Counter::new(),
    net_bytes_out: Counter::new(),
    net_coalesced_members: Counter::new(),
    net_coalesced_groups: Counter::new(),
    net_worker_panics: Counter::new(),
    net_frame_crc_failures: Counter::new(),
    net_idle_reaps: Counter::new(),
    net_client_reconnects: Counter::new(),
    net_reactor_connections: Gauge::new(),
    net_reactor_wakeups: Counter::new(),
    net_reactor_events: Counter::new(),
    net_reactor_outbound_bytes: Gauge::new(),
    net_reactor_backpressure_stalls: Counter::new(),
    net_reactor_partial_writes: Counter::new(),
    cluster_routed: Counter::new(),
    cluster_failovers: Counter::new(),
    cluster_repl_frames: Counter::new(),
    cluster_degraded_answers: Counter::new(),
    cluster_repl_lag_frames: Gauge::new(),
    router_breaker_opens: Counter::new(),
    router_breaker_half_open_probes: Counter::new(),
    router_breaker_rejections: Counter::new(),
};

/// The process-wide registry every layer records into.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

impl Metrics {
    /// A plain-data, name-keyed copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = vec![
            (
                "disk.track_crc_failures".into(),
                self.disk_track_crc_failures.get(),
            ),
            ("fs1.scans".into(), self.fs1_scans.get()),
            ("fs1.batch_scans".into(), self.fs1_batch_scans.get()),
            ("fs1.entries_scanned".into(), self.fs1_entries_scanned.get()),
            ("fs1.candidates_out".into(), self.fs1_candidates_out.get()),
            ("fs1.false_drops".into(), self.fs1_false_drops.get()),
            ("fs2.queries_loaded".into(), self.fs2_queries_loaded.get()),
            ("fs2.sweeps".into(), self.fs2_sweeps.get()),
            ("fs2.tracks".into(), self.fs2_tracks.get()),
            ("fs2.clauses".into(), self.fs2_clauses.get()),
            ("fs2.satisfiers".into(), self.fs2_satisfiers.get()),
            (
                "fs2.quarantined_tracks".into(),
                self.fs2_quarantined_tracks.get(),
            ),
            (
                "crs.degraded_answers".into(),
                self.crs_degraded_answers.get(),
            ),
            ("crs.query_compiles".into(), self.crs_query_compiles.get()),
            ("cache.hits".into(), self.cache_hits.get()),
            ("cache.misses".into(), self.cache_misses.get()),
            ("cache.evictions".into(), self.cache_evictions.get()),
            (
                "cache.epoch_invalidations".into(),
                self.cache_epoch_invalidations.get(),
            ),
            (
                "budget.expired_in_queue".into(),
                self.budget_expired_in_queue.get(),
            ),
            (
                "budget.exceeded_deadline".into(),
                self.budget_exceeded_deadline.get(),
            ),
            (
                "budget.exceeded_steps".into(),
                self.budget_exceeded_steps.get(),
            ),
            (
                "budget.exceeded_candidates".into(),
                self.budget_exceeded_candidates.get(),
            ),
            ("budget.codel_sheds".into(), self.budget_codel_sheds.get()),
            (
                "solve.depth_cap_hits".into(),
                self.solve_depth_cap_hits.get(),
            ),
            ("wal.appends".into(), self.wal_appends.get()),
            ("wal.records".into(), self.wal_records.get()),
            ("wal.fsyncs".into(), self.wal_fsyncs.get()),
            ("wal.bytes".into(), self.wal_bytes.get()),
            (
                "wal.replayed_records".into(),
                self.wal_replayed_records.get(),
            ),
            ("wal.truncated_tails".into(), self.wal_truncated_tails.get()),
            ("wal.noop_commits".into(), self.wal_noop_commits.get()),
            ("wal.overlay_asserts".into(), self.wal_overlay_asserts.get()),
            (
                "wal.overlay_retracts".into(),
                self.wal_overlay_retracts.get(),
            ),
            ("compaction.runs".into(), self.compaction_runs.get()),
            (
                "compaction.auto_triggers".into(),
                self.compaction_auto_triggers.get(),
            ),
            ("compaction.swaps".into(), self.compaction_swaps.get()),
            ("compaction.aborts".into(), self.compaction_aborts.get()),
            ("compaction.clauses".into(), self.compaction_clauses.get()),
            (
                "compaction.concurrent_retrievals".into(),
                self.compaction_concurrent_retrievals.get(),
            ),
            ("net.busy_rejections".into(), self.net_busy_rejections.get()),
            ("net.bytes_in".into(), self.net_bytes_in.get()),
            ("net.frames_out".into(), self.net_frames_out.get()),
            ("net.bytes_out".into(), self.net_bytes_out.get()),
            (
                "net.coalesced_members".into(),
                self.net_coalesced_members.get(),
            ),
            (
                "net.coalesced_groups".into(),
                self.net_coalesced_groups.get(),
            ),
            ("net.worker_panics".into(), self.net_worker_panics.get()),
            (
                "net.frame_crc_failures".into(),
                self.net_frame_crc_failures.get(),
            ),
            ("net.idle_reaps".into(), self.net_idle_reaps.get()),
            (
                "net.client_reconnects".into(),
                self.net_client_reconnects.get(),
            ),
            ("net.reactor.wakeups".into(), self.net_reactor_wakeups.get()),
            ("net.reactor.events".into(), self.net_reactor_events.get()),
            (
                "net.reactor.backpressure_stalls".into(),
                self.net_reactor_backpressure_stalls.get(),
            ),
            (
                "net.reactor.partial_writes".into(),
                self.net_reactor_partial_writes.get(),
            ),
            ("cluster.routed".into(), self.cluster_routed.get()),
            ("cluster.failovers".into(), self.cluster_failovers.get()),
            ("cluster.repl_frames".into(), self.cluster_repl_frames.get()),
            (
                "cluster.degraded_answers".into(),
                self.cluster_degraded_answers.get(),
            ),
            (
                "router.breaker_opens".into(),
                self.router_breaker_opens.get(),
            ),
            (
                "router.breaker_half_open_probes".into(),
                self.router_breaker_half_open_probes.get(),
            ),
            (
                "router.breaker_rejections".into(),
                self.router_breaker_rejections.get(),
            ),
        ];
        for (i, c) in self.fs2_ops.iter().enumerate() {
            counters.push((format!("fs2.op.{}", fs2_op_name(i)), c.get()));
        }
        for (i, c) in self.net_frames_in.iter().enumerate() {
            counters.push((format!("net.frames_in.{}", net_op_name(i)), c.get()));
        }
        let gauges = vec![
            // The active SIMD dispatch tier (0 scalar, 1 NEON, 2 AVX2):
            // environment state rather than a recorded metric, sampled at
            // snapshot time so every transport reports it for free.
            ("simd.level".into(), clare_simd::level().as_gauge() as i64),
            ("net.connections".into(), self.net_connections.get()),
            ("net.queue_depth".into(), self.net_queue_depth.get()),
            (
                "net.reactor.connections".into(),
                self.net_reactor_connections.get(),
            ),
            (
                "net.reactor.outbound_bytes".into(),
                self.net_reactor_outbound_bytes.get(),
            ),
            (
                "cluster.repl_lag_frames".into(),
                self.cluster_repl_lag_frames.get(),
            ),
        ];
        let mut histograms = vec![
            ("fs1.scan_wall_ns".into(), self.fs1_scan_wall_ns.snapshot()),
            (
                "compaction.wall_ns".into(),
                self.compaction_wall_ns.snapshot(),
            ),
            ("fs2.modelled_ns".into(), self.fs2_modelled_ns.snapshot()),
            ("fs2.wall_ns".into(), self.fs2_wall_ns.snapshot()),
            (
                "crs.retrieve_wall_ns".into(),
                self.crs_retrieve_wall_ns.snapshot(),
            ),
            (
                "crs.solve_wall_ns".into(),
                self.crs_solve_wall_ns.snapshot(),
            ),
            ("crs.batch_size".into(), self.crs_batch_size.snapshot()),
            (
                "net.queue_wait_ns".into(),
                self.net_queue_wait_ns.snapshot(),
            ),
        ];
        for (key, snap) in self.crs_predicates.snapshot() {
            histograms.push((format!("crs.pred.{key}.elapsed_ns"), snap));
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
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
