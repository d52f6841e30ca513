//! Experiment harness for the CLARE reproduction.
//!
//! Every table and figure of the paper's evaluation maps to one module
//! under [`experiments`]; the `clare-tables` binary prints them all (or
//! one by name). Each experiment returns a structured report type whose
//! `Display` impl renders the table, so the same code is unit-tested for
//! the paper's qualitative claims and printed for EXPERIMENTS.md.
//!
//! E1–E13 model the 1989 hardware and are deterministic:
//! [`fidelity_report`] is their whole output, and the "Raw output" block
//! of EXPERIMENTS.md is checked against it (`tests/fidelity.rs`). Host
//! wall-clock is measured by the end-to-end benchmark (`benchmark/`);
//! E15 and E17 run only when named.
//!
//! | id | paper artefact | module |
//! |----|----------------|--------|
//! | E1 | Table 1 (FS2 op times) | [`experiments::table1`] |
//! | E2 | Figures 6–12 (route timings) | [`experiments::figures`] |
//! | E3 | Table A1 (PIF type scheme) | [`experiments::table_a1`] |
//! | E4 | Figure 1 (matching algorithm validation) | [`experiments::fig1`] |
//! | E5 | §4 FS2 worst-case rate vs disks | [`experiments::throughput`] |
//! | E6 | §4 FS1 scan rate / index vs exhaustive | [`experiments::fs1`] |
//! | E7 | §2.1 false-drop sources | [`experiments::false_drops`] |
//! | E8 | §2.2 search modes (a)–(d) | [`experiments::modes`] |
//! | E9 | §2.2 matching levels 1–5 | [`experiments::levels`] |
//! | E10 | §1 Warren-scale scalability | [`experiments::warren_scale`] |
//! | E11 | §3.2 Result Memory sizing | [`experiments::result_memory`] |
//! | E12 | database benchmark suite | [`experiments::bench_suite`] |
//! | E13 | unlimited-list matching | [`experiments::lists`] |
//! | E15 | FS2 two-stage host wall-clock (BENCH_fs2.json) | [`experiments::fs2_wallclock`] |
//!
//! [`board`] is the §2.2 model of the two filter boards behind their shared
//! VMEbus window; nothing on the query path drives it.

#![warn(missing_docs)]

pub mod board;
pub mod experiments;

/// A paper-fidelity experiment: its `clare-tables` name, a one-line
/// description, and the function that renders it with the arguments
/// EXPERIMENTS.md's raw output was generated with.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// The paper-fidelity experiments, in report order.
pub const FIDELITY_EXPERIMENTS: &[Experiment] = {
    use experiments::*;
    &[
        (
            "table1",
            "E1: Table 1 — FS2 operation execution times",
            || table1::run().to_string(),
        ),
        (
            "figures",
            "E2: Figures 6-12 — datapath route timings",
            || figures::run().to_string(),
        ),
        ("tableA1", "E3: Table A1 — PIF data type scheme", || {
            table_a1::run().to_string()
        }),
        (
            "fig1",
            "E4: Figure 1 — matching algorithm validation",
            || fig1::run(5000, 0xF1_61).to_string(),
        ),
        ("throughput", "E5: FS2 filtering rate vs disks", || {
            throughput::run(0.002).to_string()
        }),
        ("fs1", "E6: FS1 index scan vs exhaustive search", || {
            fs1::run(0.002).to_string()
        }),
        ("falsedrops", "E7: SCW+MB false-drop sources", || {
            false_drops::run().to_string()
        }),
        ("modes", "E8: the four search modes", || {
            modes::run().to_string()
        }),
        ("levels", "E9: matching levels 1-5 ablation", || {
            levels::run(4).to_string()
        }),
        ("warren", "E10: Warren-scale scalability", || {
            warren_scale::run(&[0.0005, 0.001, 0.002, 0.005]).to_string()
        }),
        ("resultmem", "E11: Result Memory sizing", || {
            result_memory::run().to_string()
        }),
        (
            "suite",
            "E12: database benchmark suite (refs [6,7] style)",
            || bench_suite::run(1).to_string(),
        ),
        (
            "lists",
            "E13: unlimited-list matching (two-counter rule)",
            || lists::run().to_string(),
        ),
        (
            "microprogram",
            "appendix: the assembled WCS microprogram listing",
            || clare_fs2::Microprogram::standard().to_string(),
        ),
    ]
};

/// One `clare-tables` section: a divider line, then `body` and a newline.
pub fn section(body: &str) -> String {
    format!("{}\n{body}\n", "=".repeat(72))
}

/// Every fidelity experiment, exactly as `clare-tables` with no arguments
/// prints it. Deterministic: the same bytes on every run and build.
pub fn fidelity_report() -> String {
    FIDELITY_EXPERIMENTS
        .iter()
        .map(|(_, _, run)| section(&run()))
        .collect()
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_owned()
    };
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_renders_aligned() {
        let t = super::render_table(
            &["op", "ns"],
            &[
                vec!["MATCH".into(), "105".into()],
                vec!["QUERY_CROSS_BOUND_FETCH".into(), "235".into()],
            ],
        );
        assert!(t.contains("MATCH"));
        assert_eq!(t.lines().count(), 4);
    }
}
