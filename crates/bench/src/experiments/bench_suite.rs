//! E12 — §4's closing promise: "Once the CLARE hardware is fully
//! developed, it will be subjected to benchmark tests similar to the ones
//! devised in \[7\]" (the Heriot-Watt database benchmarks, whose data never
//! appeared in print).
//!
//! This experiment runs that promised evaluation on the simulator: the
//! supplier/part/supply benchmark database with its six-query mix, each
//! query solved end-to-end with automatic mode selection, reporting the
//! answer counts, candidate volumes, and modelled retrieval times.

use clare_core::{choose_mode, solve_goals, CrsOptions, RequestContext, SolveOptions};
use clare_kb::{KbBuilder, KbConfig, KbStats};
use clare_workload::SuiteSpec;
use std::fmt;

/// One benchmark query's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Query label.
    pub label: &'static str,
    /// The mode the selector chose for the top-level goal.
    pub mode: String,
    /// Solutions found.
    pub solutions: usize,
    /// Retrievals performed (goal expansions).
    pub retrievals: usize,
    /// Clause candidates examined across all retrievals.
    pub candidates: usize,
    /// Modelled retrieval time (ms).
    pub elapsed_ms: f64,
}

/// The suite report.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Database shape description.
    pub kb_description: String,
    /// Per-query rows.
    pub rows: Vec<SuiteRow>,
}

/// Runs the suite at the given scale multiplier.
pub fn run(scale: usize) -> SuiteReport {
    let spec = SuiteSpec {
        suppliers: 200 * scale,
        parts: 1000 * scale,
        supplies: 10_000 * scale,
        ..SuiteSpec::default()
    };
    let mut builder = KbBuilder::new();
    let summary = spec.generate(&mut builder, "db");
    let kb = builder.finish(KbConfig::default());
    let stats = KbStats::gather(&kb);
    let mut rows = Vec::new();
    for q in &summary.queries {
        let mode = choose_mode(&kb, &q.goal).to_string();
        let outcome = solve_goals(
            &kb,
            None,
            std::slice::from_ref(&q.goal),
            &q.var_names,
            &SolveOptions {
                max_solutions: 100_000,
                ..SolveOptions::default()
            },
            &CrsOptions::default(),
            &mut RequestContext::unlimited(),
        )
        .expect("the unlimited budget cannot trip");
        rows.push(SuiteRow {
            label: q.label,
            mode,
            solutions: outcome.solutions.len(),
            retrievals: outcome.stats.retrievals,
            candidates: outcome.stats.candidates,
            elapsed_ms: outcome.stats.retrieval_elapsed.as_ns() as f64 / 1e6,
        });
    }
    SuiteReport {
        kb_description: format!(
            "{} suppliers, {} parts, {} supplies — {stats}",
            spec.suppliers, spec.parts, spec.supplies
        ),
        rows,
    }
}

impl fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 / §4: the promised database benchmark suite (refs [6,7] style)\n"
        )?;
        writeln!(f, "{}\n", self.kb_description)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_owned(),
                    r.mode.clone(),
                    r.solutions.to_string(),
                    r.retrievals.to_string(),
                    r.candidates.to_string(),
                    format!("{:.2}", r.elapsed_ms),
                ]
            })
            .collect();
        f.write_str(&crate::render_table(
            &[
                "query",
                "top-goal mode",
                "answers",
                "retrievals",
                "candidates",
                "elapsed ms",
            ],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static SuiteReport {
        static REPORT: OnceLock<SuiteReport> = OnceLock::new();
        REPORT.get_or_init(|| run(1))
    }

    #[test]
    fn six_queries_all_terminate() {
        let r = report();
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert!(row.retrievals > 0, "{} ran retrievals", row.label);
            assert!(row.elapsed_ms > 0.0, "{} accrued time", row.label);
        }
    }

    #[test]
    fn selectivity_ordering() {
        let r = report();
        let get = |label: &str| r.rows.iter().find(|x| x.label == label).unwrap();
        // Key selection touches at most a handful of answers; the shared
        // variable query touches a supply-sized answer set.
        assert!(get("key-selection").solutions <= 5);
        assert!(get("shared-variable").solutions >= 5_000);
        assert!(
            get("colour-selection").solutions == 200,
            "1000 parts / 5 colours"
        );
    }

    #[test]
    fn shared_variable_query_routes_to_fs2() {
        let r = report();
        let shared = r
            .rows
            .iter()
            .find(|x| x.label == "shared-variable")
            .unwrap();
        // co_supplied/2 is a rule predicate in a small module; either the
        // module is memory-resident (software) or FS2 carries it — never
        // an FS1 mode, which shared variables defeat.
        assert!(!shared.mode.contains("FS1"), "mode was {}", shared.mode);
    }
}
