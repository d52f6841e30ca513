//! The run procedure every workload shares: set-up, count pass, warm-up,
//! timed windows (or a traced phase), and the metrics assembled from them.

use crate::layers::Registry;
use crate::oracle::Tally;
use crate::report::{self, Metric, WorkloadReport};
use crate::spans::{self, OpSpans, Span, Tracer};
use crate::stats;
use crate::workloads::{
    self, Caller, CountSums, Kind, Live, OpRecord, RunSpec, SetupTimes, Workload, CACHE_HIT,
    RAN_FILTERS, WINDOWS, WORKLOADS,
};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Everything one phase of the closed loop logged.
struct Phase {
    /// `(completion time since the phase began, record)`, all callers.
    records: Vec<(u64, OpRecord)>,
    /// One span list per caller.
    spans: Vec<Vec<Span>>,
}

impl Phase {
    /// Latencies of the successful ops that `keep` selects.
    fn latencies(&self, keep: impl Fn(&OpRecord) -> bool) -> Vec<u64> {
        self.records
            .iter()
            .filter(|(_, r)| r.ok && keep(r))
            .map(|(_, r)| r.lat_ns)
            .collect()
    }
}

/// One caller's `(completion time, record)` log and its spans.
type CallerLog = (Vec<(u64, OpRecord)>, Vec<Span>);

/// Runs every caller on its own thread for `duration`.
fn drive(callers: &mut [Box<dyn Caller>], duration: Duration, trace: bool) -> Phase {
    let barrier = Barrier::new(callers.len());
    let epoch = Instant::now();
    let logs: Vec<CallerLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = trace.then(|| Tracer::new(epoch));
                    let mut records = Vec::with_capacity(1 << 16);
                    barrier.wait();
                    let started = Instant::now();
                    loop {
                        let record = caller.step(tracer.as_mut());
                        let now = started.elapsed();
                        // An op that ends after the bell is not counted:
                        // every window holds completed ops only.
                        if now >= duration {
                            break;
                        }
                        records.push((now.as_nanos() as u64, record));
                    }
                    (records, tracer.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        records: Vec::new(),
        spans: Vec::new(),
    };
    for (records, spans) in logs {
        phase.records.extend(records);
        phase.spans.push(spans);
    }
    phase
}

/// Latencies of the successful ops of `kind`, bucketed into `windows`
/// equal windows.
fn windows_of(phase: &Phase, kind: Kind, windows: usize, window: Duration) -> Vec<Vec<u64>> {
    let window_ns = (window.as_nanos() as u64).max(1);
    let mut out = vec![Vec::new(); windows];
    for (end_ns, r) in &phase.records {
        if r.kind == kind && r.ok {
            out[((end_ns / window_ns) as usize).min(windows - 1)].push(r.lat_ns);
        }
    }
    out
}

fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer section under construction: a metric whose value could
/// not be formed (no samples) is left out, never written as zero.
#[derive(Default)]
struct Layers(Vec<Metric>);

impl Layers {
    fn push(&mut self, name: &str, value: f64, samples: u64) {
        if value.is_finite() {
            self.0.push(Metric::new(name, value, samples));
        }
    }
}

/// Runs one workload by name.
pub fn run(spec: &RunSpec) -> Result<WorkloadReport, String> {
    let (name, why) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == spec.workload)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let workload = workloads::by_name(name, spec.seed, spec.quick);
    let mut report = run_workload(workload.as_ref(), spec);
    report.name = (*name).to_owned();
    report.why = (*why).to_owned();
    report.apply_demotions();
    Ok(report)
}

fn run_workload(workload: &dyn Workload, spec: &RunSpec) -> WorkloadReport {
    // Set-up, several times over; the last one is measured on.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..spec.setups() {
        drop(live.take());
        let fresh = workload.setup(spec.trace, &spec.scratch);
        setups.push(fresh.times);
        live = Some(fresh);
    }
    let mut live = live.expect("at least one set-up");

    // Count pass: one caller, fresh system, fixed op count.
    let profile = workload.profile();
    let count_ops = profile.count_ops as u64;
    let before = Registry::now();
    for _ in 0..count_ops {
        live.callers[0].step(None);
    }
    let counted = Registry::now();
    let sums = std::mem::take(&mut live.callers[0].book().sums);

    drive(&mut live.callers, spec.warmup(), false);

    // The measured phase.
    let measured_from = Registry::now();
    let window = Duration::from_secs_f64(spec.seconds / WINDOWS as f64);
    let (timed, traced) = if spec.trace {
        let baseline = drive(&mut live.callers, window, false);
        let traced = drive(&mut live.callers, window * (WINDOWS as u32 - 1), true);
        (baseline, Some(traced))
    } else {
        (
            drive(&mut live.callers, window * WINDOWS as u32, false),
            None,
        )
    };
    let measured_to = Registry::now();

    let mut tally = Tally::default();
    for caller in &mut live.callers {
        tally.absorb(std::mem::take(&mut caller.book().tally));
    }
    let nodes = live.nodes.len();
    let (clauses, kb_bytes, io) = (live.clauses as u64, live.kb_bytes as u64, live.io);
    // Callers (and their connections) go first, then the servers shut
    // down through `NetServer::shutdown`.
    drop(live);

    let mut report = WorkloadReport {
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure.clone(),
        ..WorkloadReport::default()
    };

    // ---- end to end -------------------------------------------------------
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    report
        .end_to_end
        .push(stats::over_windows("setup_s", &totals, totals.len() as u64));
    let timed_windows = if spec.trace { 1 } else { WINDOWS };
    for kind in [Kind::Retrieve, Kind::Commit, Kind::Solve] {
        let mut windows = windows_of(&timed, kind, timed_windows, window);
        report.end_to_end.extend(stats::latency_metrics(
            kind.name(),
            &mut windows,
            window.as_secs_f64(),
        ));
    }
    report.end_to_end.push(Metric::new(
        "failed_share",
        tally.failed_share(),
        tally.attempted,
    ));
    if let Some(mb) = rss_peak_mb() {
        report.end_to_end.push(Metric::new("rss_peak_mb", mb, 1));
    }
    let (modeled_ns, modeled_ops) = if sums.solves > 0 {
        (sums.solve_modeled_ns, sums.solves)
    } else {
        (sums.replies.modeled_ns, sums.replies.replies)
    };
    report.end_to_end.push(Metric::new(
        "modeled_us_per_op",
        ratio(modeled_ns, modeled_ops) / 1000.0,
        modeled_ops,
    ));

    // ---- per layer --------------------------------------------------------
    let mut layers = Layers::default();
    count_pass_layers(&mut layers, &sums, count_ops, nodes, &before, &counted);

    let setup_n = setups.len() as u64;
    let median_of =
        |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    layers.push("kb.consult_s", median_of(|s| s.consult_s), setup_n);
    layers.push("kb.build_s", median_of(|s| s.build_s), setup_n);
    layers.push("kb.bytes_per_clause", ratio(kb_bytes, clauses), clauses);
    if let Some((save_s, load_s, file_bytes)) = io {
        layers.push("kb.save_s", save_s, 1);
        layers.push("kb.load_s", load_s, 1);
        layers.push(
            "kb.file_bytes_per_clause",
            ratio(file_bytes as u64, clauses),
            clauses,
        );
    }
    layers.push("oracle_s", profile.oracle_s, 1);

    let phases: Vec<&Phase> = std::iter::once(&timed).chain(&traced).collect();
    measured_phase_layers(&mut layers, &phases, nodes, &measured_from, &measured_to);

    if let Some(traced) = &traced {
        let primary = profile.primary;
        let p50 = |phase: &Phase| stats::median_u64(&mut phase.latencies(|r| r.kind == primary));
        if let (Some(untraced), Some(with_tracing)) = (p50(&timed), p50(traced)) {
            layers.push(
                "trace.overhead_share",
                (with_tracing - untraced) / untraced,
                traced.records.len() as u64,
            );
        }
        // A request's queue sojourn cannot be seen per op from outside; the
        // registry's mean over the same phase stands in for it.
        let (n, total_ns, _) =
            measured_to.histogram_since(&measured_from, "net.queue_wait_ns", 0.5);
        let queue_wait_ns = if n == 0 { 0.0 } else { ratio(total_ns, n) };
        let ops: Vec<OpSpans<'_>> = traced.spans.iter().flat_map(|s| spans::by_op(s)).collect();
        for (name, value, n) in span_metrics(&ops, nodes, queue_wait_ns) {
            layers.push(name, value, n);
        }
        // The file keeps a readable sample; the medians used every op.
        report.spans = traced
            .spans
            .iter()
            .flat_map(|s| s.iter().take(SPANS_KEPT_PER_CALLER).map(Into::into))
            .collect();
    }
    report.per_layer = layers.0;
    report
}

/// Counts per op over the count pass: exact for a seed. `nodes` is how
/// many servers the system has: 0 in process, 1 served, 2 routed.
fn count_pass_layers(
    layers: &mut Layers,
    sums: &CountSums,
    ops: u64,
    nodes: usize,
    before: &Registry,
    counted: &Registry,
) {
    let delta = |name: &str| counted.since(before, name);
    let per_op = |name: &str| ratio(delta(name), ops);
    let r = &sums.replies;
    layers.push("scw.entries_per_op", per_op("fs1.entries_scanned"), ops);
    layers.push("scw.candidates_per_op", per_op("fs1.candidates_out"), ops);
    layers.push("scw.precision", ratio(r.unified, r.after_fs1), r.replies);
    layers.push("fs2.tracks_per_op", per_op("fs2.tracks"), ops);
    layers.push("fs2.clauses_per_op", per_op("fs2.clauses"), ops);
    layers.push("fs2.satisfiers_per_op", per_op("fs2.satisfiers"), ops);
    layers.push("fs2.precision", ratio(r.unified, r.after_fs2), r.replies);
    layers.push(
        "fs2.ops_per_clause",
        ratio(
            counted.since_prefix(before, "fs2.op."),
            delta("fs2.clauses"),
        ),
        delta("fs2.clauses"),
    );
    let (_, fs2_modeled_ns, _) = counted.histogram_since(before, "fs2.modelled_ns", 0.5);
    layers.push("fs2.modeled_ns_per_op", ratio(fs2_modeled_ns, ops), ops);
    if sums.solves > 0 {
        let n = sums.solves;
        layers.push("unify.calls_per_op", ratio(sums.solve_candidates, n), n);
        layers.push(
            "unify.success_share",
            ratio(sums.solve_unified, sums.solve_candidates),
            n,
        );
        layers.push(
            "core.solve_retrievals_per_op",
            ratio(sums.solve_retrievals, n),
            n,
        );
        layers.push(
            "core.solve_solutions_per_op",
            ratio(sums.solve_solutions, n),
            n,
        );
        layers.push(
            "core.solve_depth_cap_hits",
            delta("solve.depth_cap_hits") as f64,
            n,
        );
    } else {
        let n = r.replies;
        layers.push("unify.calls_per_op", ratio(r.candidates, n), n);
        layers.push("unify.success_share", ratio(r.unified, r.candidates), n);
        layers.push("disk.modeled_ns_per_op", ratio(r.disk_ns, n), n);
        layers.push("disk.bytes_per_op", ratio(r.disk_bytes, n), n);
        // Every retrieval looks up the answer layer once and, on a miss,
        // the FS1 layer once more: lookups - retrievals = answer misses.
        let lookups = delta("cache.hits") + delta("cache.misses");
        let hits = n.saturating_sub(lookups.saturating_sub(n));
        layers.push("core.cache_hit_share", ratio(hits, n), n);
        layers.push(
            "core.cache_evictions_per_kop",
            ratio(delta("cache.evictions") * 1000, n),
            n,
        );
    }
    if sums.commits > 0 {
        layers.push(
            "wal.fsyncs_per_commit",
            ratio(delta("wal.fsyncs"), sums.commits),
            sums.commits,
        );
        layers.push(
            "wal.bytes_per_user_byte",
            ratio(delta("wal.bytes"), sums.commit_user_bytes),
            sums.commits,
        );
    }
    if nodes > 0 {
        layers.push(
            "net.bytes_per_op",
            ratio(delta("net.bytes_in") + delta("net.bytes_out"), ops),
            ops,
        );
    }
    if let Some(busiest) = sums.per_shard.iter().max() {
        let routed: u64 = sums.per_shard.iter().sum();
        layers.push("cluster.max_shard_share", ratio(*busiest, routed), routed);
    }
}

/// What the registry and the op log say about the measured phase.
fn measured_phase_layers(
    layers: &mut Layers,
    phases: &[&Phase],
    nodes: usize,
    from: &Registry,
    to: &Registry,
) {
    let grown = |name: &str| to.since(from, name);
    if nodes > 0 {
        let (n, _, p50) = to.histogram_since(from, "net.queue_wait_ns", 0.5);
        let (_, _, p99) = to.histogram_since(from, "net.queue_wait_ns", 0.99);
        layers.push("net.queue_wait_p50_ns", p50 as f64, n);
        layers.push("net.queue_wait_p99_ns", p99 as f64, n);
        layers.push(
            "net.reactor_events_per_wakeup",
            ratio(grown("net.reactor.events"), grown("net.reactor.wakeups")),
            grown("net.reactor.wakeups"),
        );
        layers.push(
            "net.busy_rejections",
            grown("net.busy_rejections") as f64,
            1,
        );
        layers.push(
            "net.client_reconnects",
            grown("net.client_reconnects") as f64,
            1,
        );
    }
    if nodes > 1 {
        layers.push(
            "cluster.breaker_opens",
            grown("router.breaker_opens") as f64,
            1,
        );
        layers.push(
            "cluster.breaker_rejections",
            grown("router.breaker_rejections") as f64,
            1,
        );
        let runs = grown("compaction.runs");
        layers.push("wal.compaction_runs", runs as f64, 1);
        let (n, total_ns, _) = to.histogram_since(from, "compaction.wall_ns", 0.5);
        layers.push("wal.compaction_wall_ms", ratio(total_ns, n) / 1e6, n);
        layers.push(
            "wal.retrievals_during_compaction",
            grown("compaction.concurrent_retrievals") as f64,
            runs,
        );
        let reads = |mutated: bool| {
            let mut lat: Vec<u64> = phases
                .iter()
                .flat_map(|p| p.latencies(|r| r.kind == Kind::Retrieve && r.mutated == mutated))
                .collect();
            (stats::median_u64(&mut lat), lat.len() as u64)
        };
        if let ((Some(on_mutated), n), (Some(on_static), _)) = (reads(true), reads(false)) {
            layers.push("wal.overlay_read_penalty", on_mutated / on_static, n);
        }
    }
}

const SPANS_KEPT_PER_CALLER: usize = 600;

/// The stages the pif/scw/fs2/unify replay breaks a filter-running
/// retrieval into.
const FILTER_STAGES: &[&str] = &[
    "pif.encode_query_ns",
    "fs2.load_query_ns",
    "scw.encode_descriptor_ns",
    "scw.scan_ns",
    "fs2.sweep_ns",
    "unify.full_ns",
];

const WIRE_STAGES: &[&str] = &[
    "net.encode_request_ns",
    "net.decode_request_ns",
    "net.encode_reply_ns",
    "net.decode_reply_ns",
];

/// Per-layer medians over the traced ops, and the budget.
///
/// The budget is two-level so cache hits are not double-counted. Level
/// one splits the caller's time into wire codecs, transport (`ping`, an
/// empty round trip on the same connection, which the intake answers
/// itself), the queue sojourn a real request then adds, placement, and the
/// in-process call — `core.cache_hit_ns` if the op was served from the
/// cache, the uncached pipeline if it ran the filters. Level two breaks
/// that pipeline into the replayed stages, for ops that ran the filters
/// only. `budget.coverage` is the per-op sum of the independently timed
/// stages over the observed end-to-end time; what it leaves uncovered is
/// time no stage accounts for (`core.self_ns` in process, lock and queue
/// waits beyond a ping when served or routed).
fn span_metrics(
    ops: &[OpSpans<'_>],
    nodes: usize,
    queue_wait_ns: f64,
) -> Vec<(&'static str, f64, u64)> {
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, value: f64| series.entry(name).or_default().push(value);
    for op in ops {
        for child in &op.children {
            // Catalogued stage spans report as they are; the rest are
            // inputs to the differences below.
            if report::spec(child.name).is_some() {
                push(child.name, child.dur_ns() as f64);
            }
        }
        let Some(e2e) = op.ns("e2e").filter(|&ns| ns > 0) else {
            continue;
        };
        let e2e = e2e as f64;
        let sum = |names: &[&str]| names.iter().filter_map(|n| op.ns(n)).sum::<u64>() as f64;
        match op.root.name {
            "retrieve" => {
                let verdict = op.count("e2e");
                let stages = sum(FILTER_STAGES);
                let wire = sum(WIRE_STAGES);
                let hit = op.ns("core.cache_hit_ns").unwrap_or(0) as f64;
                if let (Some(ns), Some(entries)) = (op.ns("scw.scan_ns"), op.count("scw.scan_ns")) {
                    if ns > 0 {
                        push("scw.scan_entries_per_s", entries as f64 * 1e9 / ns as f64);
                    }
                }
                if let Some(direct) = op.ns("net.direct_hit_ns") {
                    push("net.transport_ns", (direct as f64 - hit - wire).max(0.0));
                    if let Some(routed) = op.ns("cluster.router_hit_ns") {
                        push(
                            "cluster.route_self_ns",
                            (routed as f64 - direct as f64).max(0.0),
                        );
                    }
                }
                // In process the timed call *is* the in-process call;
                // behind a server it is replayed.
                let core = match verdict {
                    Some(CACHE_HIT) => Some(hit),
                    Some(RAN_FILTERS) if nodes == 0 => Some(e2e),
                    Some(RAN_FILTERS) => op.ns("core.miss_ns").map(|ns| ns as f64),
                    _ => None,
                };
                let Some(core) = core else { continue };
                push("core.retrieve_ns", core);
                let ran_filters = verdict == Some(RAN_FILTERS);
                if ran_filters {
                    push("core.self_ns", (core - stages).max(0.0));
                }
                let accounted = match (nodes, ran_filters) {
                    (0, true) => stages,
                    (0, false) => hit,
                    _ => wire + sum(&["net.ping_ns", "cluster.place_ns"]) + queue_wait_ns + core,
                };
                push("budget.coverage", accounted / e2e);
            }
            "solve" => {
                let retrievals = op.count("e2e").unwrap_or(0).max(1);
                push("core.solve_ns_per_retrieval", e2e / retrievals as f64);
                push("budget.coverage", sum(&["core.solve_retrieval_ns"]) / e2e);
            }
            _ => {}
        }
    }
    series
        .into_iter()
        .map(|(name, values)| (name, stats::median(&values), values.len() as u64))
        .collect()
}
