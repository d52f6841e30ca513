//! E15 — host wall-clock throughput of the FS2 track pipeline.
//!
//! E7/E8 report *modelled* FS2 times (Table 1 costs against the disk's
//! streaming rate). This experiment measures what a whole retrieval costs
//! the *host* (FS1 scan, FS2 sweep and full unification of the
//! candidates), across the FS2 sweep configurations:
//!
//! * **serial** — the pre-arena reference: every clause record re-parsed
//!   from bytes ([`ClauseRecord::from_bytes`]) on one thread, matching
//!   through the allocation-free engine path;
//! * **postings** — the sweep over the pre-decoded [`ClauseArena`]: the
//!   query binds its first argument, so each track walks only the clauses
//!   on the first-word posting lists for that key and for key 0, and the
//!   rest are charged their one MATCH as a count;
//! * **unkeyed** — `fact(K, v17, T)` over the arena: the first argument
//!   is unbound, so no posting list applies and every clause walks the
//!   Map ROM. Measured in `Fs2Only` mode so the sweep covers the same
//!   whole predicate as the other configurations.
//!
//! Every configuration returns byte-identical retrievals (property-tested
//! in `crs.rs`); only host wall-clock may differ. The checked-in
//! `BENCH_fs2.json` is regenerated by `clare-tables fs2bench`, with the
//! host, core count and commit recorded in the file.
//!
//! [`ClauseRecord::from_bytes`]: clare_pif::ClauseRecord::from_bytes
//! [`ClauseArena`]: clare_kb::ClauseArena

use super::fs1_wallclock::best_ns;
use clare_core::{retrieve, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_term::parser::parse_term;
use clare_term::Term;
use std::fmt;

/// One measured knowledge-base size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fs2WallclockRow {
    /// Clauses in the swept predicate.
    pub clauses: usize,
    /// Best observed serial byte-decoding retrieval, ns.
    pub serial_ns: f64,
    /// Best observed posting-list retrieval, ns.
    pub postings_ns: f64,
    /// Best observed first-argument-unbound arena retrieval, ns.
    pub unkeyed_ns: f64,
}

impl Fs2WallclockRow {
    /// Clauses filtered per second by the serial reference.
    pub fn serial_clauses_per_sec(&self) -> f64 {
        self.clauses as f64 / (self.serial_ns / 1e9)
    }

    /// Clauses filtered per second by the posting-list sweep.
    pub fn postings_clauses_per_sec(&self) -> f64 {
        self.clauses as f64 / (self.postings_ns / 1e9)
    }

    /// Posting-list speedup over the serial reference.
    pub fn postings_speedup(&self) -> f64 {
        self.serial_ns / self.postings_ns
    }

    /// Clauses filtered per second when the query's first argument is
    /// unbound.
    pub fn unkeyed_clauses_per_sec(&self) -> f64 {
        self.clauses as f64 / (self.unkeyed_ns / 1e9)
    }
}

/// The wall-clock report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fs2WallclockReport {
    /// Where the numbers come from: kernel hostname, cores available to
    /// the process, and `git describe --always --dirty` of the checkout.
    pub host: String,
    /// See `host`.
    pub cores: usize,
    /// See `host`.
    pub commit: String,
    /// One row per knowledge-base size, ascending.
    pub rows: Vec<Fs2WallclockRow>,
}

impl Fs2WallclockReport {
    /// Renders the report as a small JSON document (hand-written — the
    /// workspace deliberately carries no serde dependency).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fixed = |decimals: usize, value: f64| format!("{value:.decimals$}");
                let fields = [
                    ("clauses", row.clauses.to_string()),
                    ("serial_ns_per_retrieval", fixed(0, row.serial_ns)),
                    ("postings_ns_per_retrieval", fixed(0, row.postings_ns)),
                    ("unkeyed_ns_per_retrieval", fixed(0, row.unkeyed_ns)),
                    (
                        "serial_clauses_per_sec",
                        fixed(0, row.serial_clauses_per_sec()),
                    ),
                    (
                        "postings_clauses_per_sec",
                        fixed(0, row.postings_clauses_per_sec()),
                    ),
                    (
                        "unkeyed_clauses_per_sec",
                        fixed(0, row.unkeyed_clauses_per_sec()),
                    ),
                    (
                        "postings_speedup_vs_serial",
                        fixed(2, row.postings_speedup()),
                    ),
                ]
                .map(|(key, value)| format!("      \"{key}\": {value}"));
                format!("    {{\n{}\n    }}", fields.join(",\n"))
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"fs2_two_stage_wallclock\",\n  \"unit\": \"clauses_per_sec\",\n  \
             \"host\": \"{}\",\n  \"cores\": {},\n  \"commit\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.host,
            self.cores,
            self.commit,
            rows.join(",\n")
        )
    }
}

/// Builds a `fact/3` knowledge base whose FS1 hits for the benchmark
/// query land on every track — so the two-stage sweep streams the whole
/// predicate through FS2 and the host cost under test dominates.
fn build_kb(n: usize) -> (KnowledgeBase, Term, Term) {
    let mut b = KbBuilder::new();
    let facts: Vec<String> = (0..n)
        .map(|i| format!("fact(k{}, v{}, t{}).", i % 37, i, i % 11))
        .collect();
    b.consult("m", &facts.join("\n")).unwrap();
    let query = parse_term("fact(k17, X, T)", b.symbols_mut()).unwrap();
    // First argument unbound: no first-word key, every clause takes the
    // per-clause Map ROM walk (QUERY_STORE, then a MATCH that one clause
    // survives).
    let unkeyed = parse_term("fact(K, v17, T)", b.symbols_mut()).unwrap();
    (b.finish(KbConfig::default()), query, unkeyed)
}

/// The contender configurations.
fn options(predecoded: bool) -> CrsOptions {
    let mut opts = CrsOptions::default();
    opts.fs2 = opts.fs2.with_predecoded(predecoded);
    opts
}

/// Runs the experiment at the given knowledge-base sizes with a
/// per-measurement time budget. The checked-in `BENCH_fs2.json` uses
/// `&[1_000, 10_000, 100_000]` and a 1 s budget.
pub fn run(sizes: &[usize], budget: std::time::Duration) -> Fs2WallclockReport {
    let serial_opts = options(false);
    let postings_opts = options(true);
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let (kb, query, unkeyed) = build_kb(n);
        let time = |q: &Term, mode: SearchMode, opts: &CrsOptions| {
            best_ns(|| retrieve(&kb, q, mode, opts).candidates.len(), budget)
        };
        rows.push(Fs2WallclockRow {
            clauses: n,
            serial_ns: time(&query, SearchMode::TwoStage, &serial_opts),
            postings_ns: time(&query, SearchMode::TwoStage, &postings_opts),
            // Fs2Only streams the whole predicate, like the TwoStage rows
            // (whose FS1 hits land on every track by construction).
            unkeyed_ns: time(&unkeyed, SearchMode::Fs2Only, &postings_opts),
        });
    }
    let (host, cores, commit) = super::net_wallclock::provenance();
    Fs2WallclockReport {
        host,
        cores,
        commit,
        rows,
    }
}

impl fmt::Display for Fs2WallclockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E15: FS2 two-stage host throughput — serial byte decoding vs first-word \
             posting lists ({} cores on {}, commit {})\n",
            self.cores, self.host, self.commit
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.clauses.to_string(),
                    format!("{:.2}", r.serial_clauses_per_sec() / 1e6),
                    format!("{:.2}", r.postings_clauses_per_sec() / 1e6),
                    format!("{:.2}", r.unkeyed_clauses_per_sec() / 1e6),
                    format!("{:.2}x", r.postings_speedup()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::render_table(
                &[
                    "clauses",
                    "serial Mc/s",
                    "postings Mc/s",
                    "unkeyed Mc/s",
                    "postings speedup",
                ],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_shape_and_json() {
        let r = run(&[400, 1_500], Duration::from_millis(40));
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(row.serial_ns > 0.0);
            assert!(row.postings_ns > 0.0);
            assert!(row.unkeyed_ns > 0.0);
            assert!(row.postings_clauses_per_sec() > 0.0);
        }
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"fs2_two_stage_wallclock\""));
        assert!(json.contains("\"clauses\": 400"));
        assert!(json.contains("\"postings_speedup_vs_serial\""));
        assert!(json.contains("\"unkeyed_ns_per_retrieval\""));
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"commit\": \""));
        // Render path stays panic-free.
        assert!(format!("{r}").contains("clauses"));
    }

    #[test]
    fn postings_path_is_not_slower_than_byte_decoding() {
        // Perf assertions are deliberately loose for noisy CI hosts: the
        // posting-list sweep must at minimum not regress below re-parsing
        // every record per retrieval.
        let r = run(&[10_000], Duration::from_millis(150));
        assert!(
            r.rows[0].postings_speedup() > 1.0,
            "posting-list path slower than byte decoding: {:.2}x",
            r.rows[0].postings_speedup()
        );
    }
}
