//! Human-readable rendering of FS2 match traces.
//!
//! A [`Trace`](crate::engine::Trace) observer records which word pairs
//! were compared and what the hardware did;
//! [`render_trace`] lays that out as a table — the closest software
//! equivalent of watching the Map ROM dispatch on a logic analyser.

use crate::engine::TraceStep;
use clare_pif::{PifWord, TypeTag};
use std::fmt::Write as _;

/// Short rendering of one PIF word: tag mnemonic plus content.
pub fn describe_word(word: &PifWord) -> String {
    match word.type_tag() {
        TypeTag::Anon => "_".to_owned(),
        TypeTag::QueryVar { first } => {
            format!("QV{}#{}", if first { "₁" } else { "ₙ" }, word.content())
        }
        TypeTag::DbVar { first } => {
            format!("DV{}#{}", if first { "₁" } else { "ₙ" }, word.content())
        }
        TypeTag::AtomPtr => format!("atom@{}", word.content()),
        TypeTag::FloatPtr => format!("float@{}", word.content()),
        TypeTag::IntInline { .. } => format!("int {}", word.int_value().unwrap_or_default()),
        TypeTag::StructInline { arity } => format!("struct@{}/{arity}", word.content()),
        TypeTag::StructPtr { arity } => format!("struct*@{}/{arity}", word.content()),
        TypeTag::ListInline { arity, terminated } => {
            format!("list[{arity}]{}", if terminated { "" } else { "|_" })
        }
        TypeTag::ListPtr { arity, terminated } => {
            format!("list*[{arity}]{}", if terminated { "" } else { "|_" })
        }
    }
}

/// Renders a match trace as an aligned table: one row per compared word
/// pair, with the Map ROM routine, the hardware operation (and its
/// Table 1 cost), and the pass/fail outcome.
pub fn render_trace(
    query_stream: &[PifWord],
    db_stream: &[PifWord],
    steps: &[TraceStep],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:<16} {:<16} {:<14} {:<26} outcome",
        "#", "query word", "db word", "routine", "operation"
    );
    for (i, step) in steps.iter().enumerate() {
        let q = query_stream
            .get(step.q_index)
            .map(describe_word)
            .unwrap_or_else(|| "?".to_owned());
        let d = db_stream
            .get(step.d_index)
            .map(describe_word)
            .unwrap_or_else(|| "?".to_owned());
        let op = step
            .op
            .map(|op| format!("{} ({} ns)", op.name(), op.execution_time().as_ns()))
            .unwrap_or_else(|| "-".to_owned());
        let _ = writeln!(
            out,
            "{:<4} {:<16} {:<16} {:<14} {:<26} {}",
            i,
            q,
            d,
            step.routine.to_string(),
            op,
            if step.passed { "pass" } else { "FAIL" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Fs2Engine, Trace};
    use clare_pif::{encode_clause_head, encode_query};
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    #[test]
    fn renders_a_full_trace() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(X, a, [1, 2])", &mut sy).unwrap();
        let c = parse_term("f(b, a, [1, 2])", &mut sy).unwrap();
        let q_stream = encode_query(&q).unwrap();
        let c_stream = encode_clause_head(&c).unwrap();
        let mut engine = Fs2Engine::new(&q_stream).unwrap();
        let mut trace = Trace::default();
        let verdict = engine.match_clause_observed(c_stream.words(), &mut trace);
        assert!(verdict.matched);
        let text = render_trace(q_stream.words(), c_stream.words(), &trace.steps);
        assert!(text.contains("QUERY_STORE"));
        assert!(text.contains("MATCH (105 ns)"));
        assert!(text.contains("pass"));
        assert!(text.contains("list[2]"));
        assert!(!text.contains("FAIL"));
    }

    #[test]
    fn failure_row_is_marked() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(a)", &mut sy).unwrap();
        let c = parse_term("f(b)", &mut sy).unwrap();
        let q_stream = encode_query(&q).unwrap();
        let c_stream = encode_clause_head(&c).unwrap();
        let mut engine = Fs2Engine::new(&q_stream).unwrap();
        let mut trace = Trace::default();
        let verdict = engine.match_clause_observed(c_stream.words(), &mut trace);
        assert!(!verdict.matched);
        let text = render_trace(q_stream.words(), c_stream.words(), &trace.steps);
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn word_descriptions_cover_all_tags() {
        use clare_pif::PifWord;
        let words = [
            (PifWord::new(TypeTag::Anon, 0), "_"),
            (PifWord::new(TypeTag::AtomPtr, 3), "atom@3"),
            (PifWord::int(-5).unwrap(), "int -5"),
            (
                PifWord::new(TypeTag::StructInline { arity: 2 }, 9),
                "struct@9/2",
            ),
            (
                PifWord::new(
                    TypeTag::ListInline {
                        arity: 3,
                        terminated: false,
                    },
                    0,
                ),
                "list[3]|_",
            ),
        ];
        for (word, expected) in words {
            assert_eq!(describe_word(&word), expected);
        }
    }
}
