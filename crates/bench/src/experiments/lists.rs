//! E13 — §3.1's "unlimited lists": counter-driven matching of
//! unterminated lists.
//!
//! "As a subset of lists, unlimited lists are defined. They are lists
//! which contain a tail variable, e.g. `[a, b | Tail]`. The arities of the
//! terms being compared may not be equal in this case. The arities are
//! loaded into two counters and matching is repetitively carried out until
//! the value of either counter is zero."
//!
//! The workload stores `route/2` facts whose second argument is a stop
//! list of varying length; the queries probe exact lists (terminated:
//! length must match), prefixes (`[a, b | Rest]`: the two-counter rule),
//! and fully open lists. The SCW index can only see "this argument is a
//! list", so FS2 does all the discriminating.

use clare_core::{retrieve, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_term::parser::parse_term;
use clare_term::{SymbolTable, Term};
use std::fmt;

/// One probed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ListRow {
    /// Query description.
    pub label: &'static str,
    /// The query, rendered.
    pub query: String,
    /// FS1 candidates.
    pub fs1: usize,
    /// FS2 candidates.
    pub fs2: usize,
    /// True answers (full unification).
    pub answers: usize,
}

/// The report.
#[derive(Debug, Clone, PartialEq)]
pub struct ListsReport {
    /// Facts in the predicate.
    pub facts: usize,
    /// The probes.
    pub rows: Vec<ListRow>,
}

fn build_kb() -> (KnowledgeBase, SymbolTable) {
    let mut b = KbBuilder::new();
    let mut source = String::new();
    // 600 routes from 30 cities, stop lists of length 1..=6 drawn from a
    // pool of 20 stops; lengths and contents cycle deterministically.
    for i in 0..600usize {
        let city = format!("city{}", i % 30);
        // Decorrelate length from the city cycle so each city sees every
        // list length.
        let len = 1 + (i / 30) % 6;
        let stops: Vec<String> = (0..len).map(|k| format!("s{}", (i + k * 7) % 20)).collect();
        source.push_str(&format!("route({city}, [{}]).\n", stops.join(", ")));
    }
    b.consult("routes", &source).unwrap();
    let kb = b.finish(KbConfig::default());
    let symbols = kb.symbols().clone();
    (kb, symbols)
}

/// Runs the probes.
pub fn run() -> ListsReport {
    let (kb, symbols) = build_kb();
    let opts = CrsOptions::default();
    let mut rows = Vec::new();
    let mut probe = |label: &'static str, src: &str| {
        let mut local = symbols.clone();
        let q: Term = parse_term(src, &mut local).unwrap();
        let fs1 = retrieve(&kb, &q, SearchMode::Fs1Only, &opts);
        let fs2 = retrieve(&kb, &q, SearchMode::Fs2Only, &opts);
        debug_assert_eq!(fs1.stats.unified, fs2.stats.unified);
        rows.push(ListRow {
            label,
            query: src.to_owned(),
            fs1: fs1.stats.candidates,
            fs2: fs2.stats.candidates,
            answers: fs2.stats.unified,
        });
    };
    // route 0: city0, [s0] — also stored with longer lists elsewhere.
    probe("exact list (terminated)", "route(city0, [s0])");
    probe("exact list, wrong length", "route(city0, [s0, s0])");
    // Unterminated prefix: every city0 route whose first stop is s0,
    // regardless of length.
    probe(
        "prefix [s0 | R] (unterminated)",
        "route(city0, [s0 | Rest])",
    );
    probe(
        "two-stop prefix (unterminated)",
        "route(city0, [s0, s7 | Rest])",
    );
    probe("open list variable", "route(city0, Stops)");
    ListsReport { facts: 600, rows }
}

impl fmt::Display for ListsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13 / §3.1: unlimited-list matching over {} route facts\n",
            self.facts
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_owned(),
                    r.query.clone(),
                    r.fs1.to_string(),
                    r.fs2.to_string(),
                    r.answers.to_string(),
                ]
            })
            .collect();
        f.write_str(&crate::render_table(
            &["probe", "query", "FS1 cand", "FS2 cand", "answers"],
            &rows,
        ))?;
        writeln!(
            f,
            "\nthe index sees only \"argument 2 is a list\", so FS1 returns every\n\
             city0 route; FS2's element matching and two-counter rule do the rest"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static ListsReport {
        static REPORT: OnceLock<ListsReport> = OnceLock::new();
        REPORT.get_or_init(run)
    }

    fn row(label: &str) -> &'static ListRow {
        report()
            .rows
            .iter()
            .find(|r| r.label == label)
            .expect("row exists")
    }

    #[test]
    fn terminated_lists_pin_their_length() {
        let exact = row("exact list (terminated)");
        let wrong = row("exact list, wrong length");
        // A wrong-length terminated query matches nothing: FS2 compares
        // the length (and here FS1's deep key on the fully ground list
        // already rejects it too).
        assert_eq!(wrong.answers, 0);
        assert_eq!(wrong.fs2, 0, "FS2 discriminates length");
        assert!(exact.answers > 0);
        assert_eq!(exact.fs2, exact.answers);
    }

    #[test]
    fn prefix_queries_span_lengths() {
        let one = row("prefix [s0 | R] (unterminated)");
        let exact = row("exact list (terminated)");
        // The prefix query accepts every length ≥ 1 with first stop s0, so
        // it has at least as many answers as the exact one.
        assert!(one.answers >= exact.answers);
        assert!(one.answers > 0);
        let two = row("two-stop prefix (unterminated)");
        assert!(two.answers <= one.answers, "longer prefix is stricter");
    }

    #[test]
    fn open_list_retrieves_the_city() {
        let open = row("open list variable");
        assert_eq!(open.answers, 20, "600 routes / 30 cities");
        assert_eq!(open.fs2, open.answers, "city constant still filters");
    }

    #[test]
    fn fs1_is_blind_to_open_list_contents() {
        // Non-ground list arguments key on type only, so every such probe
        // gives FS1 the same candidate set: all 20 city0 routes. (Fully
        // ground list queries do better — they carry a deep key.)
        let one = row("prefix [s0 | R] (unterminated)");
        let two = row("two-stop prefix (unterminated)");
        let open = row("open list variable");
        assert_eq!(one.fs1, 20);
        assert_eq!(two.fs1, 20);
        assert_eq!(open.fs1, 20);
        // FS2 prunes on the prefix elements where FS1 cannot.
        assert!(one.fs2 < one.fs1, "{} < {}", one.fs2, one.fs1);
    }
}
