//! E8 — §2.2: the four search modes on fact- and rule-intensive
//! knowledge bases.
//!
//! "One of these modes will be selected depending on the nature of a query
//! (e.g. whether it contains cross bound variables) and the knowledge base
//! (e.g. whether it is rule or fact intensive)."
//!
//! The workload is one *large* disk-resident predicate (tens of tracks):
//! that is CLARE's design point — a small predicate fits a track or two
//! and any mode is dominated by a single seek. Two variants:
//!
//! * **fact-intensive** — 30 000 ground facts; the SCW index is highly
//!   selective for ground queries, so the two-stage filter reads only the
//!   candidate tracks.
//! * **rule-intensive** — the same size but the heads carry variables in
//!   the first argument (rule-style heads), so the index masks make FS1
//!   nearly useless and FS2's streaming filter is the right tool.

use clare_core::{choose_mode, retrieve, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_term::builder::TermBuilder;
use clare_term::Term;
use clare_workload::{derive_queries, QueryShape};
use std::fmt;

/// One measured cell: a (kb, query shape, mode) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeRow {
    /// Knowledge-base label.
    pub kb: &'static str,
    /// Query shape label.
    pub shape: &'static str,
    /// Search mode.
    pub mode: SearchMode,
    /// Candidates reaching full unification.
    pub candidates: usize,
    /// Final answers.
    pub unified: usize,
    /// Bytes read from disk.
    pub bytes: u64,
    /// Modelled elapsed milliseconds.
    pub elapsed_ms: f64,
}

/// The report: all cells plus the automatic mode choices.
#[derive(Debug, Clone, PartialEq)]
pub struct ModesReport {
    /// Measured cells.
    pub rows: Vec<ModeRow>,
    /// `(kb, shape, chosen mode)` from the selection heuristic.
    pub auto_choices: Vec<(&'static str, &'static str, SearchMode)>,
}

const FACTS: usize = 20_000;
const CONSTANTS: usize = 2_000;

/// A realistic record: key, value, and a structured payload ("clauses with
/// rules and structures will not be uncommon", §1). The payload fattens
/// records to ~150 bytes so clause files span many tracks, which is the
/// regime the index exists for.
fn fat_args(t: &mut TermBuilder<'_>, i: usize) -> Vec<Term> {
    let key = t.atom(&format!("k{}", i % CONSTANTS));
    let val = t.atom(&format!("v{}", (i * 7) % CONSTANTS));
    let d1 = t.int((i % 28) as i64 + 1);
    let d2 = t.int((i % 12) as i64 + 1);
    let date = t.structure("date", vec![d1, d2]);
    let t1 = t.atom(&format!("tag{}", i % 17));
    let t2 = t.atom(&format!("tag{}", i % 5));
    let tags = t.list(vec![t1, t2]);
    let payload = t.structure("info", vec![date, tags]);
    vec![key, val, payload]
}

fn build_kb(rule_heavy: bool) -> (KnowledgeBase, Vec<Term>, clare_term::Symbol) {
    let mut b = KbBuilder::new();
    let mut heads = Vec::new();
    let mut clauses = Vec::with_capacity(FACTS);
    {
        let mut t = TermBuilder::new(b.symbols_mut());
        for i in 0..FACTS {
            if rule_heavy {
                // Rule-style clause with a fully open head: the index
                // masks record every position as a variable, so FS1 has
                // nothing to discriminate on.
                t.reset_vars();
                let x = t.fresh_var();
                let y = t.fresh_var();
                let z = t.fresh_var();
                let head = t.structure("big", vec![x.clone(), y.clone(), z.clone()]);
                let goal = t.structure("aux", vec![x, y, z]);
                let clause = t.rule(head, vec![goal]).expect("structure head");
                heads.push(clause.head().clone());
                clauses.push(clause);
            } else {
                let args = fat_args(&mut t, i);
                let fact = t.fact("big", args);
                heads.push(fact.head().clone());
                clauses.push(fact);
            }
        }
        if rule_heavy {
            // A small aux relation so rule bodies resolve.
            for i in 0..64 {
                let args = fat_args(&mut t, i);
                clauses.push(t.fact("aux", args));
            }
        }
    }
    for clause in clauses {
        b.add_clause("m", clause);
    }
    let miss = b.symbols_mut().intern_atom("never_stored_atom");
    (b.finish(KbConfig::default()), heads, miss)
}

/// Runs the experiment.
pub fn run() -> ModesReport {
    let opts = CrsOptions::default();
    let mut rows = Vec::new();
    let mut auto_choices = Vec::new();
    for (kb_label, rule_heavy) in [("fact-intensive", false), ("rule-intensive", true)] {
        let (kb, heads, miss) = build_kb(rule_heavy);
        for shape in [
            QueryShape::GroundHit,
            QueryShape::HalfOpen,
            QueryShape::SharedVar,
        ] {
            let queries = derive_queries(&heads, shape, 2, miss, 0xE8E8);
            for mode in SearchMode::ALL {
                let mut candidates = 0usize;
                let mut unified = 0usize;
                let mut bytes = 0u64;
                let mut elapsed_ns = 0u64;
                for q in &queries {
                    let r = retrieve(&kb, q, mode, &opts);
                    candidates += r.stats.candidates;
                    unified += r.stats.unified;
                    bytes += r.stats.bytes_from_disk;
                    elapsed_ns += r.stats.elapsed.as_ns();
                }
                rows.push(ModeRow {
                    kb: kb_label,
                    shape: shape.label(),
                    mode,
                    candidates,
                    unified,
                    bytes,
                    elapsed_ms: elapsed_ns as f64 / 1e6,
                });
            }
            auto_choices.push((kb_label, shape.label(), choose_mode(&kb, &queries[0])));
        }
    }
    ModesReport { rows, auto_choices }
}

impl ModesReport {
    /// The fastest mode for each `(kb, shape)` group.
    pub fn winners(&self) -> Vec<(&'static str, &'static str, SearchMode)> {
        let mut out = Vec::new();
        for kb in ["fact-intensive", "rule-intensive"] {
            for shape in ["ground-hit", "half-open", "shared-var"] {
                if let Some(best) = self
                    .rows
                    .iter()
                    .filter(|r| r.kb == kb && r.shape == shape)
                    .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
                {
                    out.push((kb, shape, best.mode));
                }
            }
        }
        out
    }

    /// Finds one cell.
    pub fn cell(&self, kb: &str, shape: &str, mode: SearchMode) -> &ModeRow {
        self.rows
            .iter()
            .find(|r| r.kb == kb && r.shape == shape && r.mode == mode)
            .expect("cell exists")
    }
}

impl fmt::Display for ModesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E8 / §2.2: the four search modes ({FACTS} clauses, 2 queries per cell)\n"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.kb.to_owned(),
                    r.shape.to_owned(),
                    r.mode.to_string(),
                    r.candidates.to_string(),
                    r.unified.to_string(),
                    format!("{:.0} KB", r.bytes as f64 / 1024.0),
                    format!("{:.1}", r.elapsed_ms),
                ]
            })
            .collect();
        f.write_str(&crate::render_table(
            &[
                "kb",
                "query",
                "mode",
                "cand",
                "answers",
                "disk",
                "elapsed ms",
            ],
            &rows,
        ))?;
        writeln!(f, "\nfastest mode per scenario:")?;
        for (kb, shape, mode) in self.winners() {
            writeln!(f, "  {kb:<15} {shape:<12} -> {mode}")?;
        }
        writeln!(f, "\nautomatic mode selection (paper's heuristic):")?;
        for (kb, shape, mode) in &self.auto_choices {
            writeln!(f, "  {kb:<15} {shape:<12} -> {mode}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static ModesReport {
        static REPORT: OnceLock<ModesReport> = OnceLock::new();
        REPORT.get_or_init(run)
    }

    #[test]
    fn two_stage_wins_ground_queries_on_fact_kb() {
        let r = report();
        let two = r.cell("fact-intensive", "ground-hit", SearchMode::TwoStage);
        let sw = r.cell("fact-intensive", "ground-hit", SearchMode::SoftwareOnly);
        let fs2 = r.cell("fact-intensive", "ground-hit", SearchMode::Fs2Only);
        assert!(two.elapsed_ms < sw.elapsed_ms, "beats software scanning");
        assert!(two.elapsed_ms < fs2.elapsed_ms, "beats full FS2 streaming");
        assert!(two.bytes < fs2.bytes, "reads only candidate tracks");
    }

    #[test]
    fn fs2_wins_on_rule_kb() {
        let r = report();
        for shape in ["ground-hit", "half-open"] {
            let fs2 = r.cell("rule-intensive", shape, SearchMode::Fs2Only);
            let two = r.cell("rule-intensive", shape, SearchMode::TwoStage);
            let fs1 = r.cell("rule-intensive", shape, SearchMode::Fs1Only);
            assert!(
                fs2.elapsed_ms <= two.elapsed_ms,
                "{shape}: index adds nothing on rule-style heads"
            );
            assert!(fs2.elapsed_ms < fs1.elapsed_ms);
        }
    }

    #[test]
    fn hardware_beats_software_everywhere_at_this_scale() {
        let r = report();
        for kb in ["fact-intensive", "rule-intensive"] {
            for shape in ["ground-hit", "half-open", "shared-var"] {
                let sw = r.cell(kb, shape, SearchMode::SoftwareOnly);
                let fs2 = r.cell(kb, shape, SearchMode::Fs2Only);
                assert!(
                    fs2.elapsed_ms < sw.elapsed_ms,
                    "{kb}/{shape}: {} vs {}",
                    fs2.elapsed_ms,
                    sw.elapsed_ms
                );
            }
        }
    }

    #[test]
    fn auto_selection_follows_the_paper() {
        let r = report();
        for (kb, shape, mode) in &r.auto_choices {
            match (*kb, *shape) {
                (_, "shared-var") => assert_eq!(*mode, SearchMode::Fs2Only, "{kb}/{shape}"),
                ("rule-intensive", _) => assert_eq!(*mode, SearchMode::Fs2Only, "{kb}/{shape}"),
                ("fact-intensive", "ground-hit") => {
                    assert_eq!(*mode, SearchMode::Fs1Only, "{kb}/{shape}")
                }
                ("fact-intensive", "half-open") => {
                    assert_eq!(*mode, SearchMode::TwoStage, "{kb}/{shape}")
                }
                _ => {}
            }
        }
    }
}
