//! E14 — host wall-clock throughput of the packed columnar FS1 scan.
//!
//! E6 ([`super::fs1`]) reports *modelled* times: the 4.5 MB/s FS1
//! prototype rate from the paper. This experiment measures the *host*
//! cost of the software scan itself — the retained scalar reference
//! path ([`IndexFile::scan_reference`]) and the packed columnar path
//! ([`IndexFile::scan_with_descriptor`]) — at several index sizes, and
//! emits a machine-readable `BENCH_fs1.json` so regressions are diffable.

use clare_scw::{ClauseAddr, IndexFile, QueryDescriptor, ScwConfig};
use clare_term::parser::parse_term;
use clare_term::SymbolTable;
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// One measured index size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fs1WallclockRow {
    /// Entries in the index.
    pub entries: usize,
    /// Best observed scalar reference scan, ns per full scan.
    pub scalar_ns: f64,
    /// Best observed packed columnar scan, ns per full scan.
    pub packed_ns: f64,
}

impl Fs1WallclockRow {
    /// Entries filtered per second by the scalar reference scan.
    pub fn scalar_entries_per_sec(&self) -> f64 {
        self.entries as f64 / (self.scalar_ns / 1e9)
    }

    /// Entries filtered per second by the packed scan.
    pub fn packed_entries_per_sec(&self) -> f64 {
        self.entries as f64 / (self.packed_ns / 1e9)
    }

    /// Packed speedup over the scalar reference.
    pub fn packed_speedup(&self) -> f64 {
        self.scalar_ns / self.packed_ns
    }
}

/// The wall-clock report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fs1WallclockReport {
    /// One row per index size, ascending.
    pub rows: Vec<Fs1WallclockRow>,
}

impl Fs1WallclockReport {
    /// Renders the report as a small JSON document (hand-written — the
    /// workspace deliberately carries no serde dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"fs1_scan_wallclock\",\n");
        out.push_str("  \"unit\": \"entries_per_sec\",\n");
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"entries\": {},\n", row.entries));
            out.push_str(&format!(
                "      \"scalar_ns_per_scan\": {:.0},\n",
                row.scalar_ns
            ));
            out.push_str(&format!(
                "      \"packed_ns_per_scan\": {:.0},\n",
                row.packed_ns
            ));
            out.push_str(&format!(
                "      \"scalar_entries_per_sec\": {:.0},\n",
                row.scalar_entries_per_sec()
            ));
            out.push_str(&format!(
                "      \"packed_entries_per_sec\": {:.0},\n",
                row.packed_entries_per_sec()
            ));
            out.push_str(&format!(
                "      \"packed_speedup_vs_scalar\": {:.2}\n",
                row.packed_speedup()
            ));
            out.push_str(if i + 1 == self.rows.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Builds the same synthetic index the criterion bench uses: `n` facts
/// `p(k{i}, v{i % 97})` so a ground query selects ~1% of entries.
fn build_index(n: usize, symbols: &mut SymbolTable) -> IndexFile {
    let mut index = IndexFile::with_capacity(ScwConfig::paper(), n);
    for i in 0..n {
        let head = parse_term(&format!("p(k{}, v{})", i, i % 97), symbols).unwrap();
        index.insert(&head, ClauseAddr::new((i / 200) as u32, (i % 200) as u16));
    }
    index
}

/// Times `scan` by calibrated batches and returns the best observed
/// per-scan time in ns (min over batches rejects scheduler noise).
/// Shared with [`super::fs2_wallclock`].
pub(crate) fn best_ns(mut scan: impl FnMut() -> usize, budget: std::time::Duration) -> f64 {
    // Warm up and calibrate a batch to ~1/8 of the budget.
    let start = Instant::now();
    black_box(scan());
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget.as_secs_f64() / 8.0 / once).ceil() as usize).clamp(1, 1 << 20);
    let mut best = f64::INFINITY;
    let deadline = Instant::now() + budget;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(scan());
        }
        let per_iter = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
        best = best.min(per_iter);
        if Instant::now() >= deadline {
            return best;
        }
    }
}

/// Runs the experiment at the given index sizes with a per-measurement
/// time budget. The checked-in `BENCH_fs1.json` uses
/// `&[1_000, 10_000, 100_000]` and a 1 s budget.
pub fn run(sizes: &[usize], budget: std::time::Duration) -> Fs1WallclockReport {
    let config = ScwConfig::paper();
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let mut symbols = SymbolTable::new();
        let index = build_index(n, &mut symbols);
        let query = parse_term("p(k42, X)", &mut symbols).unwrap();
        let descriptor: QueryDescriptor = clare_scw::encode_query_descriptor(&query, &config);
        let scalar_ns = best_ns(|| index.scan_reference(&descriptor).matches.len(), budget);
        let packed_ns = best_ns(
            || index.scan_with_descriptor(&descriptor).matches.len(),
            budget,
        );
        rows.push(Fs1WallclockRow {
            entries: n,
            scalar_ns,
            packed_ns,
        });
    }
    Fs1WallclockReport { rows }
}

impl fmt::Display for Fs1WallclockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14: FS1 host scan throughput — scalar reference vs packed columnar\n"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.entries.to_string(),
                    format!("{:.1}", r.scalar_entries_per_sec() / 1e6),
                    format!("{:.1}", r.packed_entries_per_sec() / 1e6),
                    format!("{:.2}x", r.packed_speedup()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::render_table(
                &["entries", "scalar Me/s", "packed Me/s", "packed speedup",],
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
        let r = run(&[500, 2_000], Duration::from_millis(40));
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(row.scalar_ns > 0.0);
            assert!(row.packed_ns > 0.0);
            assert!(row.packed_entries_per_sec() > 0.0);
        }
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"fs1_scan_wallclock\""));
        assert!(json.contains("\"entries\": 500"));
        assert!(json.contains("\"packed_speedup_vs_scalar\""));
        // Render path stays panic-free.
        assert!(format!("{r}").contains("entries"));
    }

    #[test]
    fn packed_scan_is_not_slower_than_reference() {
        // Perf assertions are deliberately loose for noisy CI hosts: the
        // packed scan must at minimum not regress below the reference.
        let r = run(&[20_000], Duration::from_millis(150));
        assert!(
            r.rows[0].packed_speedup() > 1.0,
            "packed scan slower than scalar reference: {:.2}x",
            r.rows[0].packed_speedup()
        );
    }
}
