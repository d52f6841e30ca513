//! The `--quick` smoke suite, run in process: every workload, traced, with
//! KBs scaled 1/20 and 1 s windows.
//!
//! Everything lives in one `#[test]`: the count pass reads the process-wide
//! metrics registry, so two workloads must never run concurrently.

use clare_benchmark::json::Json;
use clare_benchmark::report::{self, WorkloadReport};
use clare_benchmark::run::run;
use clare_benchmark::workloads::{RunSpec, WORKLOADS};
use std::path::PathBuf;

/// What each workload must report, beyond the metrics every workload has.
const EXPECTED: &[(&str, &[&str])] = &[
    (
        "inproc_select_100k",
        &[
            "retrieve_p50_us",
            "retrieve_p99_us",
            "retrieve_ops_per_s",
            "term.parse_ns",
            "pif.encode_query_ns",
            "scw.encode_descriptor_ns",
            "scw.scan_ns",
            "scw.entries_per_op",
            "scw.candidates_per_op",
            "scw.precision",
            "scw.scan_entries_per_s",
            "fs2.load_query_ns",
            "fs2.sweep_ns",
            "fs2.tracks_per_op",
            "fs2.clauses_per_op",
            "fs2.satisfiers_per_op",
            "fs2.precision",
            "fs2.ops_per_clause",
            "fs2.modeled_ns_per_op",
            "unify.full_ns",
            "unify.calls_per_op",
            "unify.success_share",
            "disk.modeled_ns_per_op",
            "disk.bytes_per_op",
            "core.retrieve_ns",
            "core.self_ns",
            "core.cache_hit_share",
            "core.cache_hit_ns",
            "core.cache_evictions_per_kop",
        ],
    ),
    (
        "served_zipf_1k",
        &[
            "retrieve_p50_us",
            "retrieve_p99_us",
            "retrieve_ops_per_s",
            "term.parse_ns",
            "pif.encode_query_ns",
            "scw.scan_ns",
            "fs2.sweep_ns",
            "unify.full_ns",
            "core.retrieve_ns",
            "core.cache_hit_share",
            "core.cache_hit_ns",
            "net.encode_request_ns",
            "net.decode_request_ns",
            "net.encode_reply_ns",
            "net.decode_reply_ns",
            "net.ping_ns",
            "net.transport_ns",
            "net.queue_wait_p50_ns",
            "net.queue_wait_p99_ns",
            "net.bytes_per_op",
            "net.reactor_events_per_wakeup",
            "net.busy_rejections",
            "net.client_reconnects",
        ],
    ),
    (
        "routed_mixed_10k",
        &[
            "retrieve_p50_us",
            "retrieve_p99_us",
            "retrieve_ops_per_s",
            "commit_p50_us",
            "commit_p99_us",
            "commit_ops_per_s",
            "scw.scan_ns",
            "fs2.sweep_ns",
            "unify.full_ns",
            "core.retrieve_ns",
            "wal.append_ns",
            "wal.overlay_apply_ns",
            "wal.fsyncs_per_commit",
            "wal.bytes_per_user_byte",
            "wal.compaction_runs",
            "wal.overlay_read_penalty",
            "net.ping_ns",
            "net.transport_ns",
            "net.queue_wait_p50_ns",
            "net.bytes_per_op",
            "cluster.route_self_ns",
            "cluster.place_ns",
            "cluster.max_shard_share",
            "cluster.breaker_opens",
            "cluster.breaker_rejections",
        ],
    ),
    (
        "solve_genealogy",
        &[
            "solve_p50_us",
            "solve_p99_us",
            "solve_ops_per_s",
            "unify.calls_per_op",
            "unify.success_share",
            "fs2.clauses_per_op",
            "core.solve_retrievals_per_op",
            "core.solve_ns_per_retrieval",
            "core.solve_solutions_per_op",
            "core.solve_depth_cap_hits",
        ],
    ),
];

const EVERYWHERE: &[&str] = &[
    "setup_s",
    "failed_share",
    "rss_peak_mb",
    "modeled_us_per_op",
    "kb.consult_s",
    "kb.build_s",
    "kb.save_s",
    "kb.load_s",
    "kb.bytes_per_clause",
    "kb.file_bytes_per_clause",
    "oracle_s",
    "trace.overhead_share",
    "budget.coverage",
];

/// Metrics whose healthy value is zero (or, for the overhead, either sign).
const MAY_BE_ZERO: &[&str] = &[
    "failed_share",
    "trace.overhead_share",
    "core.cache_evictions_per_kop",
    "core.self_ns",
    "core.solve_depth_cap_hits",
    "net.busy_rejections",
    "net.client_reconnects",
    "net.transport_ns",
    "cluster.route_self_ns",
    "cluster.breaker_opens",
    "cluster.breaker_rejections",
    "wal.compaction_runs",
];

fn scratch() -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the test scratch directory");
    dir
}

fn quick(workload: &str, seed: u64, seconds: f64, trace: bool) -> WorkloadReport {
    run(&RunSpec {
        workload: workload.to_owned(),
        seed,
        seconds,
        trace,
        quick: true,
        scratch: scratch(),
    })
    .expect("a known workload")
}

/// The values that must repeat bit-for-bit for a seed.
fn exact_values(report: &WorkloadReport) -> Vec<(String, u64)> {
    report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .filter(|m| report::spec(&m.name).is_some_and(|s| s.exact))
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn quick_suite() {
    for (workload, _) in WORKLOADS {
        let report = quick(workload, 1, 3.0, true);
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.first_failure);
        assert!(report.attempted > 0);
        let (_, specific) = EXPECTED
            .iter()
            .find(|(name, _)| name == workload)
            .expect("every workload has an expectation");
        for name in EVERYWHERE.iter().chain(specific.iter()) {
            let metric = report
                .metric(name)
                .unwrap_or_else(|| panic!("{workload} does not report {name}"));
            assert!(
                metric.value.is_finite(),
                "{workload} {name} = {}",
                metric.value
            );
            if !MAY_BE_ZERO.contains(name) {
                assert!(metric.value > 0.0, "{workload} {name} = {}", metric.value);
            }
            assert!(!metric.unit.is_empty());
        }
        // Nothing outside the catalogue, and the spans made it out.
        for metric in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(
                report::spec(&metric.name).is_some(),
                "{} is not catalogued",
                metric.name
            );
        }
        assert!(report.spans.iter().any(|s| s.parent.is_none()));
        assert!(report
            .spans
            .iter()
            .any(|s| s.name == "e2e" && s.parent.is_some()));

        // Both driver lines parse and carry what the contract lists.
        for trace in [false, true] {
            let line = Json::parse(&report.driver_line(trace)).expect("the driver line is JSON");
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}"
            );
        }

        // The count pass repeats exactly for a seed and moves with it.
        let again = quick(workload, 1, 0.3, false);
        let other = quick(workload, 2, 0.3, false);
        let exact: Vec<(String, u64)> = exact_values(&report)
            .into_iter()
            .filter(|(name, _)| again.metric(name).is_some())
            .collect();
        assert!(
            exact.len() >= 8,
            "{workload}: only {} exact values",
            exact.len()
        );
        assert_eq!(
            exact,
            exact_values(&again),
            "{workload}: the count pass did not repeat"
        );
        assert_ne!(
            exact_values(&again),
            exact_values(&other),
            "{workload}: another seed gave the same counts"
        );
    }
    let _ = std::fs::remove_dir_all(scratch());
}

/// `BENCHMARK.json` (checked when the package sits in the repository) lists
/// exactly what the catalogue and the driver line produce.
#[test]
fn benchmark_json_agrees_with_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(
        names("workloads"),
        WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        names("end_to_end"),
        report::DRIVER_END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    let layer_names: Vec<String> = report::PER_LAYER
        .iter()
        .map(|s| s.name.to_owned())
        .chain(
            report::DRIVER_EXTRA_LAYER
                .iter()
                .map(|(n, _)| n.to_string()),
        )
        .collect();
    assert_eq!(names("per_layer"), layer_names);
    // Units, directions and bounds are the catalogue's.
    for key in ["end_to_end", "per_layer"] {
        for entry in doc.get(key).and_then(Json::as_arr).expect("checked above") {
            let name = entry.get("name").and_then(Json::as_str).expect("a name");
            let source = report::DRIVER_END_TO_END
                .iter()
                .chain(report::DRIVER_EXTRA_LAYER)
                .find(|(driver, _)| *driver == name)
                .map_or(name, |(_, sources)| sources[0]);
            let spec = report::spec(source).unwrap_or_else(|| panic!("{name} is not catalogued"));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(spec.unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(spec.better.as_str()),
                "{name}"
            );
            // The driver compares medians across seeds, so its bound may be
            // wider than `compare`'s same-seed one, never tighter.
            if let Some(bound) = entry.get("bound").and_then(Json::as_f64) {
                assert!(
                    bound >= spec.bound.unwrap_or(0.0) && bound <= 0.25,
                    "{name}"
                );
            }
        }
    }
}
