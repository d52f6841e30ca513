//! The metric catalogue (names, units, regression bounds), the report a
//! run produces, its JSON form and reader, the text rendering, and the
//! one-line form `BENCHMARK.json`'s driver reads.

use crate::json::Json;
use crate::spans::Span;
use std::fmt::Write;

/// A span as a report keeps it: `{name, start, end, parent, op_id}` plus
/// the work count taken at the same boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
    pub count: u64,
}

impl From<&Span> for SpanRecord {
    fn from(s: &Span) -> Self {
        SpanRecord {
            name: s.name.to_owned(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            parent: s.parent,
            op_id: s.op_id,
            count: s.count,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric. `bound` is the share of the baseline's median by
/// which the metric may worsen before `compare` calls it `worse` (absent:
/// reported, never gated). `exact` metrics come from the count pass and
/// must repeat bit-for-bit for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The thirteen end-to-end metrics. A workload reports the ones it
/// produces; the rest are absent, never zero.
pub const END_TO_END: &[Spec] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("retrieve_p50_us", "us", Lower, 0.10),
    gated("retrieve_p99_us", "us", Lower, 0.20),
    gated("retrieve_ops_per_s", "1/s", Higher, 0.10),
    gated("commit_p50_us", "us", Lower, 0.10),
    gated("commit_p99_us", "us", Lower, 0.20),
    gated("commit_ops_per_s", "1/s", Higher, 0.10),
    gated("solve_p50_us", "us", Lower, 0.10),
    gated("solve_p99_us", "us", Lower, 0.20),
    gated("solve_ops_per_s", "1/s", Higher, 0.10),
    // Absolute: any failed op is a regression.
    gated("failed_share", "ratio", Lower, 0.0),
    gated("rss_peak_mb", "MB", Lower, 0.10),
    Spec {
        name: "modeled_us_per_op",
        unit: "us",
        better: Lower,
        bound: Some(0.0),
        exact: true,
    },
];

/// Per-layer metrics; layers are the crate names. `_ns` figures are
/// medians over the traced sample, counts are per op over the count pass.
pub const PER_LAYER: &[Spec] = &[
    layer("term.parse_ns", "ns", Lower),
    layer("pif.encode_query_ns", "ns", Lower),
    layer("scw.encode_descriptor_ns", "ns", Lower),
    layer("scw.scan_ns", "ns", Lower),
    count("scw.entries_per_op", "count", Lower),
    count("scw.candidates_per_op", "count", Lower),
    count("scw.precision", "ratio", Higher),
    layer("scw.scan_entries_per_s", "1/s", Higher),
    layer("fs2.load_query_ns", "ns", Lower),
    layer("fs2.sweep_ns", "ns", Lower),
    count("fs2.tracks_per_op", "count", Lower),
    count("fs2.clauses_per_op", "count", Lower),
    count("fs2.satisfiers_per_op", "count", Lower),
    count("fs2.precision", "ratio", Higher),
    count("fs2.ops_per_clause", "count", Lower),
    count("fs2.modeled_ns_per_op", "ns", Lower),
    layer("unify.full_ns", "ns", Lower),
    count("unify.calls_per_op", "count", Lower),
    count("unify.success_share", "ratio", Higher),
    count("disk.modeled_ns_per_op", "ns", Lower),
    count("disk.bytes_per_op", "B", Lower),
    layer("core.retrieve_ns", "ns", Lower),
    layer("core.self_ns", "ns", Lower),
    count("core.cache_hit_share", "ratio", Higher),
    layer("core.cache_hit_ns", "ns", Lower),
    count("core.cache_evictions_per_kop", "count", Lower),
    count("core.solve_retrievals_per_op", "count", Lower),
    layer("core.solve_ns_per_retrieval", "ns", Lower),
    count("core.solve_solutions_per_op", "count", Higher),
    count("core.solve_depth_cap_hits", "count", Lower),
    layer("kb.consult_s", "s", Lower),
    layer("kb.build_s", "s", Lower),
    layer("kb.save_s", "s", Lower),
    layer("kb.load_s", "s", Lower),
    count("kb.bytes_per_clause", "B", Lower),
    count("kb.file_bytes_per_clause", "B", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.overlay_apply_ns", "ns", Lower),
    count("wal.fsyncs_per_commit", "count", Lower),
    count("wal.bytes_per_user_byte", "ratio", Lower),
    layer("wal.compaction_runs", "count", Lower),
    layer("wal.compaction_wall_ms", "ms", Lower),
    layer("wal.retrievals_during_compaction", "count", Lower),
    layer("wal.overlay_read_penalty", "ratio", Lower),
    layer("net.encode_request_ns", "ns", Lower),
    layer("net.decode_request_ns", "ns", Lower),
    layer("net.encode_reply_ns", "ns", Lower),
    layer("net.decode_reply_ns", "ns", Lower),
    layer("net.ping_ns", "ns", Lower),
    layer("net.transport_ns", "ns", Lower),
    layer("net.queue_wait_p50_ns", "ns", Lower),
    layer("net.queue_wait_p99_ns", "ns", Lower),
    count("net.bytes_per_op", "B", Lower),
    layer("net.reactor_events_per_wakeup", "count", Higher),
    layer("net.busy_rejections", "count", Lower),
    layer("net.client_reconnects", "count", Lower),
    layer("cluster.route_self_ns", "ns", Lower),
    layer("cluster.place_ns", "ns", Lower),
    count("cluster.max_shard_share", "ratio", Lower),
    layer("cluster.breaker_opens", "count", Lower),
    layer("cluster.breaker_rejections", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("budget.coverage", "ratio", Higher),
    layer("oracle_s", "s", Lower),
];

/// `BENCHMARK.json`'s driver needs every end-to-end metric from every
/// workload, never zero, and steady across seeds, so its list is the
/// projection of the thirteen onto what all four workloads produce: the
/// workload's primary verified op (`retrieve_*` or `solve_*`) under one
/// name, plus the three that are already universal. `failed_share` is the
/// line's own `failed / attempted`.
pub const DRIVER_END_TO_END: &[(&str, &[&str])] = &[
    ("setup_s", &["setup_s"]),
    ("op_p50_us", &["retrieve_p50_us", "solve_p50_us"]),
    ("ops_per_s", &["retrieve_ops_per_s", "solve_ops_per_s"]),
    ("rss_peak_mb", &["rss_peak_mb"]),
    ("modeled_us_per_op", &["modeled_us_per_op"]),
];

/// End-to-end metrics the driver receives, ungated, with the per-layer
/// list: the tail latency (its run-to-run spread on the reference host is
/// near the largest bound the driver allows, so it cannot gate there) and
/// the commit triple only `routed_mixed_10k` produces. Commits still gate
/// through `ops_per_s`: the loop is closed and the 90/10 mix is fixed, so
/// a slower commit lowers it.
pub const DRIVER_EXTRA_LAYER: &[(&str, &[&str])] = &[
    ("op_p99_us", &["retrieve_p99_us", "solve_p99_us"]),
    ("commit_p50_us", &["commit_p50_us"]),
    ("commit_p99_us", &["commit_p99_us"]),
    ("commit_ops_per_s", &["commit_ops_per_s"]),
];

/// `(workload, metric, spread)`: end-to-end metrics whose five-run spread
/// — `(max - min) / median`, same seed, reference host — exceeded 0.10 when
/// the bounds were frozen. They are reported in that workload's per-layer
/// section with the measured spread, and `compare` does not gate on them.
pub const DEMOTED: &[(&str, &str, f64)] = &[
    ("served_zipf_1k", "setup_s", 0.200),
    ("served_zipf_1k", "retrieve_p50_us", 0.153),
    ("served_zipf_1k", "retrieve_p99_us", 0.221),
    ("served_zipf_1k", "retrieve_ops_per_s", 0.175),
    ("routed_mixed_10k", "retrieve_p50_us", 0.216),
    ("routed_mixed_10k", "retrieve_p99_us", 0.440),
    ("routed_mixed_10k", "retrieve_ops_per_s", 0.210),
    ("routed_mixed_10k", "commit_p50_us", 0.216),
    ("routed_mixed_10k", "commit_p99_us", 0.716),
    ("routed_mixed_10k", "commit_ops_per_s", 0.210),
    ("routed_mixed_10k", "rss_peak_mb", 0.182),
    ("solve_genealogy", "setup_s", 0.141),
    ("solve_genealogy", "solve_p99_us", 0.235),
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Min and max over the timed windows, where there were windows.
    pub spread: Option<(f64, f64)>,
    pub samples: u64,
    pub bound: Option<f64>,
    /// `pooled`, `exact`, or empty.
    pub note: String,
}

impl Metric {
    /// A metric named in the catalogue, with its unit and bound.
    pub fn new(name: &str, value: f64, samples: u64) -> Metric {
        let spec = spec(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        Metric {
            name: name.to_owned(),
            unit: spec.unit.to_owned(),
            value,
            spread: None,
            samples,
            bound: spec.bound,
            note: if spec.exact {
                "exact".to_owned()
            } else {
                String::new()
            },
        }
    }

    pub fn with_spread(mut self, min: f64, max: f64) -> Metric {
        self.spread = Some((min, max));
        self
    }

    /// Demoted for its workload (see [`DEMOTED`]): reported, not gated.
    pub fn is_demoted(&self) -> bool {
        self.note.starts_with("demoted")
    }

    pub fn noted(mut self, note: &str) -> Metric {
        self.note = note.to_owned();
        self
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("unit", Json::str(&self.unit)),
            ("value", Json::Num(self.value)),
            (
                "spread",
                Json::opt(self.spread, |(lo, hi)| {
                    Json::Arr(vec![Json::Num(lo), Json::Num(hi)])
                }),
            ),
            ("samples", Json::Num(self.samples as f64)),
            ("bound", Json::opt(self.bound, Json::Num)),
            ("note", Json::str(&self.note)),
        ])
    }

    fn from_json(j: &Json) -> Result<Metric, String> {
        let text = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("metric without {key}"))
        };
        let spread = match j.get("spread").and_then(Json::as_arr) {
            Some([lo, hi]) => lo.as_f64().zip(hi.as_f64()),
            _ => None,
        };
        Ok(Metric {
            name: text("name")?,
            unit: text("unit")?,
            value: j
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?,
            spread,
            samples: j.get("samples").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            bound: j.get("bound").and_then(Json::as_f64),
            note: text("note").unwrap_or_default(),
        })
    }
}

/// Everything one workload's run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadReport {
    pub name: String,
    pub why: String,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Spans of the first traced ops (all traced ops feed the medians;
    /// the file keeps a readable sample).
    pub spans: Vec<SpanRecord>,
}

impl WorkloadReport {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// Moves this workload's [`DEMOTED`] metrics out of the gated section.
    pub fn apply_demotions(&mut self) {
        let mut moved = Vec::new();
        for (_, metric, spread) in DEMOTED.iter().filter(|(w, _, _)| *w == self.name) {
            if let Some(at) = self.end_to_end.iter().position(|m| m.name == *metric) {
                let mut m = self.end_to_end.remove(at);
                m.bound = None;
                m.note = format!("demoted: five-run spread {spread}");
                moved.push(m);
            }
        }
        self.per_layer.splice(0..0, moved);
    }

    /// Folds a second run of the same workload in (the traced run's
    /// per-layer numbers beside the untraced run's end-to-end ones).
    pub fn merge_layers_from(&mut self, traced: WorkloadReport) {
        self.attempted += traced.attempted;
        self.failed += traced.failed;
        if self.first_failure.is_none() {
            self.first_failure = traced.first_failure;
        }
        // A demoted end-to-end metric still comes from the untraced windows.
        self.per_layer.retain(Metric::is_demoted);
        self.per_layer
            .extend(traced.per_layer.into_iter().filter(|m| !m.is_demoted()));
        self.spans = traced.spans;
    }

    fn to_json(&self) -> Json {
        let metrics = |ms: &[Metric]| Json::Arr(ms.iter().map(Metric::to_json).collect());
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("why", Json::str(&self.why)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "first_failure",
                Json::opt(self.first_failure.as_deref(), Json::str),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(&s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("parent", Json::opt(s.parent, |p| Json::Num(p as f64))),
                                ("op_id", Json::Num(s.op_id as f64)),
                                ("count", Json::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<WorkloadReport, String> {
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("workload without {key}"))?
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        let num = |key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let spans = j
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                let num = |key: &str| s.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                SpanRecord {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    start_ns: num("start_ns"),
                    end_ns: num("end_ns"),
                    parent: s.get("parent").and_then(Json::as_f64).map(|p| p as u32),
                    op_id: num("op_id"),
                    count: num("count"),
                }
            })
            .collect();
        Ok(WorkloadReport {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without name")?
                .to_owned(),
            why: j.get("why").and_then(Json::as_str).unwrap_or("").to_owned(),
            attempted: num("attempted") as u64,
            failed: num("failed") as u64,
            first_failure: j
                .get("first_failure")
                .and_then(Json::as_str)
                .map(str::to_owned),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            spans,
        })
    }

    /// The last line of standard output the driver reads: `--trace 0` every
    /// driver end-to-end metric, `--trace 1` every per-layer metric. A
    /// per-layer metric this workload does not produce reads 0 there — the
    /// layer did no work for it — while reports leave it out.
    pub fn driver_line(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        let mut complete = true;
        let mut push = |name: &str, unit: &str, value: f64| {
            metrics.push((
                name.to_owned(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        };
        if trace {
            for spec in PER_LAYER {
                let value = self.metric(spec.name).map_or(0.0, |m| m.value);
                push(spec.name, spec.unit, value);
            }
            for (name, sources) in DRIVER_EXTRA_LAYER {
                let unit = spec(sources[0]).expect("catalogued").unit;
                let value = sources
                    .iter()
                    .find_map(|s| self.metric(s))
                    .map_or(0.0, |m| m.value);
                push(name, unit, value);
            }
        } else {
            for (name, sources) in DRIVER_END_TO_END {
                match sources.iter().find_map(|s| self.metric(s)) {
                    Some(m) => push(name, &m.unit, m.value),
                    None => complete = false,
                }
            }
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0 && complete)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }
}

/// Where and how a report was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    pub commit: String,
    pub host: String,
    pub nproc: usize,
    pub simd: String,
    pub rustc: String,
    pub seed: u64,
    pub window_s: f64,
    pub windows: usize,
    pub quick: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub provenance: Provenance,
    pub workloads: Vec<WorkloadReport>,
}

pub const SCHEMA: &str = "clare-benchmark/1";

impl Report {
    pub fn to_json(&self) -> Json {
        let p = &self.provenance;
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            (
                "provenance",
                Json::obj(vec![
                    ("commit", Json::str(&p.commit)),
                    ("host", Json::str(&p.host)),
                    ("nproc", Json::Num(p.nproc as f64)),
                    ("simd", Json::str(&p.simd)),
                    ("rustc", Json::str(&p.rustc)),
                    ("seed", Json::Num(p.seed as f64)),
                    ("window_s", Json::Num(p.window_s)),
                    ("windows", Json::Num(p.windows as f64)),
                    ("quick", Json::Bool(p.quick)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadReport::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Report, String> {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} report"));
        }
        let p = j.get("provenance").ok_or("report without provenance")?;
        let text = |key: &str| p.get(key).and_then(Json::as_str).unwrap_or("").to_owned();
        let num = |key: &str| p.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(Report {
            provenance: Provenance {
                commit: text("commit"),
                host: text("host"),
                nproc: num("nproc") as usize,
                simd: text("simd"),
                rustc: text("rustc"),
                seed: num("seed") as u64,
                window_s: num("window_s"),
                windows: num("windows") as usize,
                quick: p.get("quick").and_then(Json::as_bool).unwrap_or(false),
            },
            workloads: j
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("report without workloads")?
                .iter()
                .map(WorkloadReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &str) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Report::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }

    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    /// Every metric by name with its unit, one table per workload.
    pub fn render(&self) -> String {
        let p = &self.provenance;
        let mut out = String::new();
        writeln!(
            out,
            "commit {}  host {}  nproc {}  simd {}  {}\nseed {}  {} windows x {:.1} s{}",
            p.commit,
            p.host,
            p.nproc,
            p.simd,
            p.rustc,
            p.seed,
            p.windows,
            p.window_s,
            if p.quick { "  (quick)" } else { "" }
        )
        .expect("string write");
        for w in &self.workloads {
            writeln!(out, "\n== {} ==\n   {}", w.name, w.why).expect("string write");
            writeln!(
                out,
                "   ops attempted {}  failed {}{}",
                w.attempted,
                w.failed,
                w.first_failure
                    .as_ref()
                    .map(|f| format!("  first failure: {f}"))
                    .unwrap_or_default()
            )
            .expect("string write");
            for (title, metrics) in [("end to end", &w.end_to_end), ("per layer", &w.per_layer)] {
                if metrics.is_empty() {
                    continue;
                }
                writeln!(out, " -- {title}").expect("string write");
                for m in metrics {
                    let spread = m
                        .spread
                        .map(|(lo, hi)| format!("[{} .. {}]", sig(lo), sig(hi)))
                        .unwrap_or_default();
                    let bound = m
                        .bound
                        .map(|b| format!("bound {:.0}%", b * 100.0))
                        .unwrap_or_default();
                    let flag = if m.name == "budget.coverage" && !(0.8..=1.2).contains(&m.value) {
                        "OUTSIDE [0.8, 1.2]: time no stage accounts for"
                    } else {
                        ""
                    };
                    writeln!(
                        out,
                        "   {:<34} {:>12} {:<6} {:<26} n={:<8} {} {} {}",
                        m.name,
                        sig(m.value),
                        m.unit,
                        spread,
                        m.samples,
                        bound,
                        m.note,
                        flag
                    )
                    .expect("string write");
                }
            }
        }
        out
    }
}

/// Four significant digits, for tables only (files keep every digit).
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    let decimals = (3 - magnitude).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut w = WorkloadReport {
            name: "inproc_select_100k".to_owned(),
            why: "why".to_owned(),
            attempted: 10,
            failed: 0,
            first_failure: None,
            end_to_end: vec![
                Metric::new("setup_s", 0.8127, 3).with_spread(0.79, 0.9),
                Metric::new("retrieve_p50_us", 2034.5, 7000).with_spread(2000.0, 2100.0),
                Metric::new("retrieve_p99_us", 4100.25, 7000).noted("pooled"),
                Metric::new("retrieve_ops_per_s", 480.5, 7000),
                Metric::new("rss_peak_mb", 123.4, 1),
                Metric::new("modeled_us_per_op", 50_123.456_789, 500),
            ],
            per_layer: vec![Metric::new("scw.scan_ns", 91_000.0, 200)],
            spans: Vec::new(),
        };
        w.spans.push(SpanRecord {
            name: "scw.scan_ns".to_owned(),
            start_ns: 5,
            end_ns: 9,
            parent: Some(0),
            op_id: 3,
            count: 100,
        });
        Report {
            provenance: Provenance {
                commit: "abc".to_owned(),
                host: "h".to_owned(),
                nproc: 2,
                simd: "avx2".to_owned(),
                rustc: "rustc 1.0".to_owned(),
                seed: 7,
                window_s: 6.0,
                windows: 3,
                quick: false,
            },
            workloads: vec![w],
        }
    }

    #[test]
    fn report_round_trips_through_its_own_reader() {
        let report = sample();
        let text = report.to_json().pretty();
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert!(report.render().contains("retrieve_p50_us"));
    }

    #[test]
    fn catalogue_names_are_unique_and_sized_to_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(END_TO_END.len(), 13);
        assert!(PER_LAYER.len() + DRIVER_EXTRA_LAYER.len() <= 128);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let w = &sample().workloads[0];
        let line = Json::parse(&w.driver_line(false)).unwrap();
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), DRIVER_END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("op_p50_us")
                .unwrap()
                .get("value"),
            Some(&Json::Num(2034.5))
        );
        let traced = Json::parse(&w.driver_line(true)).unwrap();
        let Some(Json::Obj(metrics)) = traced.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len() + DRIVER_EXTRA_LAYER.len());
    }
}
