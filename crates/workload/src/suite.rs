//! A database-benchmark suite in the spirit of the paper's refs \[6,7\]
//! (Williams, Massey & Crammond, "Benchmarks for Prolog from a Database
//! Viewpoint"), whose data never appeared in print. The suite models the
//! classic supplier/part/supply schema with a representative query mix:
//! key selection, non-key selection, scans, two-goal joins through rules,
//! and a shared-variable query — the spectrum the CLARE modes are chosen
//! over. The paper closes by promising CLARE "will be subjected to
//! benchmark tests similar to the ones devised in \[7\]"; this module is
//! that test bed.

use clare_kb::KbBuilder;
use clare_term::builder::TermBuilder;
use clare_term::parser::parse_term_with_vars;
use clare_term::Term;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size parameters of the supplier/part/supply database.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Number of suppliers (`supplier/2`: supplier, city).
    pub suppliers: usize,
    /// Number of parts (`part/3`: part, colour, weight class).
    pub parts: usize,
    /// Number of supply facts (`supply/3`: supplier, part, quantity).
    pub supplies: usize,
    /// Number of cities suppliers spread over.
    pub cities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SuiteSpec {
    fn default() -> Self {
        SuiteSpec {
            suppliers: 200,
            parts: 1000,
            supplies: 10_000,
            cities: 10,
            seed: 0x5B17E,
        }
    }
}

/// One benchmark query: a label, the goal, and its variable names.
#[derive(Debug, Clone)]
pub struct SuiteQuery {
    /// Short label for reports.
    pub label: &'static str,
    /// The goal term.
    pub goal: Term,
    /// Variable names for binding reports.
    pub var_names: Vec<String>,
}

/// The generated database plus its query mix.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// The benchmark queries, in suite order.
    pub queries: Vec<SuiteQuery>,
}

impl SuiteSpec {
    /// Populates `module` with the database and its rule layer, returning
    /// the query mix (parsed in the same symbol namespace).
    pub fn generate(&self, builder: &mut KbBuilder, module: &str) -> SuiteSummary {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let colours = ["red", "green", "blue", "black", "white"];
        let mut clauses = Vec::new();
        {
            let mut t = TermBuilder::new(builder.symbols_mut());
            for s in 0..self.suppliers {
                let sup = t.atom(&format!("s{s}"));
                let city = t.atom(&format!("city{}", s % self.cities));
                clauses.push(t.fact("supplier", vec![sup, city]));
            }
            for p in 0..self.parts {
                let part = t.atom(&format!("p{p}"));
                let colour = t.atom(colours[p % colours.len()]);
                let weight = t.atom(if p % 3 == 0 { "heavy" } else { "light" });
                clauses.push(t.fact("part", vec![part, colour, weight]));
            }
            for _ in 0..self.supplies {
                let s = rng.gen_range(0..self.suppliers);
                let p = rng.gen_range(0..self.parts);
                let sup = t.atom(&format!("s{s}"));
                let part = t.atom(&format!("p{p}"));
                let qty = t.int(rng.gen_range(1..1000));
                clauses.push(t.fact("supply", vec![sup, part, qty]));
            }
        }
        for c in clauses {
            builder.add_clause(module, c);
        }
        builder
            .consult(
                module,
                "supplies_part(S, P) :- supply(S, P, _).
                 part_in_city(City, P) :- supplier(S, City), supply(S, P, _).
                 heavy_part(P) :- part(P, _, heavy).
                 co_supplied(P1, P2) :- supply(S, P1, _), supply(S, P2, _).",
            )
            .expect("rule text parses");

        let mut queries = Vec::new();
        let mut add = |label, src: String| {
            let (goal, names) =
                parse_term_with_vars(&src, builder.symbols_mut()).expect("query parses");
            queries.push(SuiteQuery {
                label,
                goal,
                var_names: names,
            });
        };
        let key_s = rng.gen_range(0..self.suppliers);
        let key_p = rng.gen_range(0..self.parts);
        add("key-selection", format!("supply(s{key_s}, p{key_p}, Q)"));
        add("nonkey-selection", format!("supply(S, p{}, Q)", key_p));
        add("colour-selection", "part(P, red, W)".to_owned());
        add(
            "join-via-rule",
            format!("part_in_city(city{}, P)", key_s % self.cities),
        );
        add(
            "rule-over-facts",
            format!("heavy_part(p{})", (key_p / 3) * 3),
        );
        add("shared-variable", "co_supplied(P, P)".to_owned());
        SuiteSummary { queries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbConfig, KbStats};

    fn small_spec() -> SuiteSpec {
        SuiteSpec {
            suppliers: 20,
            parts: 50,
            supplies: 300,
            cities: 4,
            seed: 1,
        }
    }

    #[test]
    fn generates_schema_and_rules() {
        let mut b = KbBuilder::new();
        let summary = small_spec().generate(&mut b, "db");
        let kb = b.finish(KbConfig::default());
        assert_eq!(kb.lookup("supplier", 2).unwrap().clauses().len(), 20);
        assert_eq!(kb.lookup("part", 3).unwrap().clauses().len(), 50);
        assert_eq!(kb.lookup("supply", 3).unwrap().clauses().len(), 300);
        assert!(kb.lookup("co_supplied", 2).is_some());
        assert_eq!(summary.queries.len(), 6);
        let stats = KbStats::gather(&kb);
        assert_eq!(stats.rules, 4);
    }

    #[test]
    fn queries_are_answerable() {
        use clare_core::{solve_goals, CrsOptions, RequestContext, SolveOptions};
        let mut b = KbBuilder::new();
        let summary = small_spec().generate(&mut b, "db");
        let kb = b.finish(KbConfig::default());
        for q in &summary.queries {
            let outcome = solve_goals(
                &kb,
                None,
                std::slice::from_ref(&q.goal),
                &q.var_names,
                &SolveOptions {
                    max_solutions: 2000,
                    ..SolveOptions::default()
                },
                &CrsOptions::default(),
                &mut RequestContext::unlimited(),
            )
            .unwrap();
            match q.label {
                "key-selection" => assert!(outcome.solutions.len() <= 4, "{}", q.label),
                "colour-selection" => assert_eq!(outcome.solutions.len(), 10, "{}", q.label),
                "rule-over-facts" => assert!(!outcome.solutions.is_empty(), "{}", q.label),
                "join-via-rule" | "nonkey-selection" => {
                    // Statistically present in any non-trivial instance.
                }
                "shared-variable" => {
                    // Every supply co-supplies its own part with itself.
                    assert!(outcome.solutions.len() >= 300, "{}", q.label);
                }
                other => panic!("unknown label {other}"),
            }
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut b = KbBuilder::new();
            let s = small_spec().generate(&mut b, "db");
            (
                b.finish(KbConfig::default()).clause_count(),
                s.queries.len(),
            )
        };
        assert_eq!(run(), run());
    }
}
