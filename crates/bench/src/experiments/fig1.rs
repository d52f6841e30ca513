//! E4 — Figure 1: validation of the partial test unification algorithm.
//!
//! The paper states "the partial test unification algorithm has been
//! verified" (§4). This experiment performs that verification over a large
//! randomized term population:
//!
//! * **completeness** — no clause that fully unifies is ever rejected by
//!   the FS2 simulator (zero false negatives);
//! * **hardware/software agreement** — the word-level FS2 engine and the
//!   term-level Figure 1 reference render identical verdicts and identical
//!   operation traces;
//! * **false-drop rate** — how many Level-3 acceptances full unification
//!   later rejects.

use clare_fs2::Fs2Engine;
use clare_pif::{encode_clause_head, encode_query};
use clare_term::SymbolTable;
use clare_unify::partial::{partial_match, PartialConfig};
use clare_unify::unify_query_clause;
use clare_workload::{RandomTermSpec, RandomTerms};
use std::fmt;

/// Validation results over a random population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Report {
    /// Query/clause pairs examined.
    pub pairs: usize,
    /// Pairs that fully unify.
    pub unifiable: usize,
    /// Pairs the FS2 simulator accepts.
    pub fs2_accepts: usize,
    /// Unifiable pairs the FS2 simulator rejected (must be 0).
    pub false_negatives: usize,
    /// FS2 acceptances that fail full unification (Level-3 false drops).
    pub false_drops: usize,
    /// Pairs where the hardware engine and the software reference
    /// disagreed on verdict or op trace (must be 0).
    pub disagreements: usize,
}

/// Runs the validation over `pairs` random pairs.
pub fn run(pairs: usize, seed: u64) -> Fig1Report {
    let mut symbols = SymbolTable::new();
    let mut generator = RandomTerms::new(RandomTermSpec::default(), &mut symbols, seed);
    let mut report = Fig1Report {
        pairs,
        unifiable: 0,
        fs2_accepts: 0,
        false_negatives: 0,
        false_drops: 0,
        disagreements: 0,
    };
    for _ in 0..pairs {
        let query = generator.head();
        let clause = generator.head();
        let unifies = unify_query_clause(&query, &clause).is_some();
        let software = partial_match(&query, &clause, PartialConfig::fs2());
        let (q_stream, c_stream) = match (encode_query(&query), encode_clause_head(&clause)) {
            (Ok(q), Ok(c)) => (q, c),
            _ => continue,
        };
        let mut engine = Fs2Engine::new(&q_stream).expect("random queries fit query memory");
        let mut hardware_ops = Vec::new();
        let hardware = engine.match_clause_observed(c_stream.words(), &mut hardware_ops);
        if unifies {
            report.unifiable += 1;
        }
        if hardware.matched {
            report.fs2_accepts += 1;
            if !unifies {
                report.false_drops += 1;
            }
        } else if unifies {
            report.false_negatives += 1;
        }
        let traces_equal = hardware_ops.len() == software.ops.len()
            && hardware_ops
                .iter()
                .zip(&software.ops)
                .all(|(h, s)| h.name() == s.name());
        if hardware.matched != software.matched || !traces_equal {
            report.disagreements += 1;
        }
    }
    report
}

impl Fig1Report {
    /// Fraction of FS2 acceptances that are false drops.
    pub fn false_drop_rate(&self) -> f64 {
        if self.fs2_accepts == 0 {
            0.0
        } else {
            self.false_drops as f64 / self.fs2_accepts as f64
        }
    }
}

impl fmt::Display for Fig1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E4 / Figure 1: partial test unification algorithm validation\n"
        )?;
        writeln!(f, "random query/clause pairs : {}", self.pairs)?;
        writeln!(f, "fully unifiable           : {}", self.unifiable)?;
        writeln!(f, "FS2 (level 3 + cross) hits: {}", self.fs2_accepts)?;
        writeln!(
            f,
            "false negatives           : {} (completeness requires 0)",
            self.false_negatives
        )?;
        writeln!(
            f,
            "level-3 false drops       : {} ({:.1}% of hits, removed by full unification)",
            self.false_drops,
            100.0 * self.false_drop_rate()
        )?;
        writeln!(
            f,
            "hw/sw disagreements       : {} (verdicts and op traces must agree)",
            self.disagreements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_holds_over_large_population() {
        let r = run(3000, 0xF191);
        assert_eq!(r.false_negatives, 0, "completeness violated");
        assert_eq!(r.disagreements, 0, "hw and sw models diverge");
        assert!(r.unifiable > 100, "population has matches: {}", r.unifiable);
        assert!(r.fs2_accepts >= r.unifiable);
    }

    #[test]
    fn false_drops_exist_but_are_minority() {
        let r = run(3000, 0xF192);
        assert!(r.false_drops > 0, "level 3 must have some false drops");
        assert!(
            r.false_drop_rate() < 0.5,
            "filter still discriminates: {}",
            r.false_drop_rate()
        );
    }
}
