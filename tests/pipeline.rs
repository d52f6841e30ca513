//! Cross-crate properties of the full retrieval pipeline.
//!
//! These are the invariants DESIGN.md commits to:
//!
//! * every filter is complete (full unification ⇒ acceptance at FS1, FS2,
//!   and every software matching level);
//! * the FS2 hardware simulator and the software Figure 1 reference agree
//!   on verdicts *and* operation traces;
//! * software-only retrieval, which runs the FS2 engine's walk on the
//!   host, returns exactly what that reference accepts and charges its
//!   operation count;
//! * matching levels are monotone (L1 ⊇ L2 ⊇ L3 ⊇ L4 ⊇ L5);
//! * all four search modes return the same answer set;
//! * PIF clause records round-trip losslessly.

use clare::kb::ModuleKind;
use clare::prelude::*;
use clare::term::ClauseId;
use clare_workload::{RandomTermSpec, RandomTerms};
use proptest::prelude::*;

fn generator(seed: u64) -> (SymbolTable, RandomTerms) {
    let mut symbols = SymbolTable::new();
    let gen = RandomTerms::new(RandomTermSpec::default(), &mut symbols, seed);
    (symbols, gen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full unification implies acceptance by every filter level and by
    /// the FS2 hardware engine — no false negatives anywhere.
    #[test]
    fn filters_are_complete(seed in any::<u64>()) {
        let (_symbols, mut gen) = generator(seed);
        for _ in 0..24 {
            let query = gen.head();
            let clause = gen.head();
            let unifies = unify_query_clause(&query, &clause).is_some();
            if !unifies {
                continue;
            }
            for level in MatchLevel::ALL {
                prop_assert!(
                    partial_match(&query, &clause, PartialConfig::level(level)).matched,
                    "false negative at {level}"
                );
            }
            prop_assert!(
                partial_match(&query, &clause, PartialConfig::fs2()).matched,
                "false negative at the FS2 configuration"
            );
            let stream = encode_query(&query).unwrap();
            let mut engine = Fs2Engine::new(&stream).unwrap();
            let verdict = engine.match_clause_words(encode_clause_head(&clause).unwrap().words());
            prop_assert!(verdict.matched, "false negative in the hardware engine");
        }
    }

    /// The word-level hardware engine and the term-level software
    /// reference are the same algorithm: identical verdicts, identical
    /// operation traces.
    #[test]
    fn hardware_and_software_agree(seed in any::<u64>()) {
        let (_symbols, mut gen) = generator(seed);
        for _ in 0..24 {
            let query = gen.head();
            let clause = gen.head();
            let sw = partial_match(&query, &clause, PartialConfig::fs2());
            let stream = encode_query(&query).unwrap();
            let mut engine = Fs2Engine::new(&stream).unwrap();
            let mut ops = Vec::new();
            let hw = engine.match_clause_observed(encode_clause_head(&clause).unwrap().words(), &mut ops);
            prop_assert_eq!(hw.matched, sw.matched, "verdicts differ");
            let hw_ops: Vec<&str> = ops.iter().map(|o| o.name()).collect();
            let sw_ops: Vec<&str> = sw.ops.iter().map(|o| o.name()).collect();
            prop_assert_eq!(hw_ops, sw_ops, "op traces differ");
        }
    }

    /// Software mode walks the arena words through the FS2 engine; the
    /// term-level reference still decides what it must return. Over one
    /// memory-resident predicate of random heads it returns exactly the
    /// clauses `partial_match` accepts at the FS2 configuration, and
    /// charges one `partial_op` per reference operation, at least one per
    /// clause.
    #[test]
    fn software_mode_matches_the_reference(seed in any::<u64>()) {
        let (symbols, mut gen) = generator(seed);
        let mut render = || TermDisplay::new(&gen.head(), &symbols).to_string();
        let facts: Vec<String> = (0..24).map(|_| format!("{}.", render())).collect();
        let texts: Vec<String> = (0..8).map(|_| render()).collect();
        let mut builder = KbBuilder::new();
        builder.consult("m", &facts.join("\n")).unwrap();
        let queries: Vec<Term> = texts
            .iter()
            .map(|text| parse_term(text, builder.symbols_mut()).unwrap())
            .collect();
        let kb = builder.finish(KbConfig::default());
        let (functor, arity) = queries[0].functor_arity().unwrap();
        let (module, pred) = kb.module_of(functor, arity).unwrap();
        prop_assert_eq!(module.kind(), ModuleKind::Small);
        let opts = CrsOptions::default();
        for query in &queries {
            let got = retrieve(&kb, query, SearchMode::SoftwareOnly, &opts);
            let mut accepted = Vec::new();
            let mut ops = 0;
            for (i, clause) in pred.clauses().iter().enumerate() {
                let report = partial_match(query, clause.head(), PartialConfig::fs2());
                ops += report.ops.len().max(1) as u64;
                if report.matched {
                    accepted.push(ClauseId::new(i as u32));
                }
            }
            prop_assert_eq!(&got.candidates, &accepted);
            prop_assert_eq!(got.stats.software_filter_time, opts.cost.partial_op * ops);
        }
    }

    /// Levels accept monotonically decreasing candidate sets.
    #[test]
    fn levels_are_monotone(seed in any::<u64>()) {
        let (_symbols, mut gen) = generator(seed);
        for _ in 0..24 {
            let query = gen.head();
            let clause = gen.head();
            let verdicts: Vec<bool> = MatchLevel::ALL
                .iter()
                .map(|l| partial_match(&query, &clause, PartialConfig::level(*l)).matched)
                .collect();
            for w in verdicts.windows(2) {
                prop_assert!(w[0] || !w[1], "monotonicity violated: {:?}", verdicts);
            }
        }
    }

    /// PIF clause records serialize and parse back to the same clause and
    /// the same head stream.
    #[test]
    fn clause_records_roundtrip(seed in any::<u64>()) {
        let (_symbols, mut gen) = generator(seed);
        for _ in 0..24 {
            let head = gen.head();
            let n_vars = clare::unify::store::var_span(&head) as usize;
            let clause = Clause::new(
                head,
                vec![],
                (0..n_vars).map(|i| format!("V{i}")).collect(),
            )
            .unwrap();
            let record = match ClauseRecord::compile(&clause) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let bytes = record.to_bytes();
            let (back, used) = ClauseRecord::from_bytes(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back.clause(), &clause);
            prop_assert_eq!(back.head_stream(), record.head_stream());
        }
    }
}

/// All four search modes agree on the answer set, and the two-stage
/// candidates are contained in each single stage's.
#[test]
fn modes_agree_and_two_stage_is_an_intersection() {
    let mut builder = KbBuilder::new();
    let mut gen_symbols = SymbolTable::new();
    let mut gen = RandomTerms::new(RandomTermSpec::default(), &mut gen_symbols, 0xABCD);
    // Random heads become facts; share the symbol table via re-parsing.
    let mut heads = Vec::new();
    for _ in 0..300 {
        let head = gen.head();
        let rendered = format!("{}.", TermDisplay::new(&head, &gen_symbols));
        builder.consult("m", &rendered).unwrap();
        heads.push(rendered);
    }
    // Queries: a few of the stored heads re-parsed in the builder scope.
    let queries: Vec<Term> = heads
        .iter()
        .step_by(37)
        .map(|src| parse_term(src.trim_end_matches('.'), builder.symbols_mut()).unwrap())
        .collect();
    let kb = builder.finish(KbConfig::default());
    let opts = CrsOptions::default();
    for q in &queries {
        let by_mode: Vec<_> = SearchMode::ALL
            .iter()
            .map(|m| retrieve(&kb, q, *m, &opts))
            .collect();
        let unified: Vec<usize> = by_mode.iter().map(|r| r.stats.unified).collect();
        assert!(
            unified.windows(2).all(|w| w[0] == w[1]),
            "answer sets differ across modes: {unified:?}"
        );
        let fs1: std::collections::BTreeSet<_> = by_mode[1].candidates.iter().collect();
        let fs2: std::collections::BTreeSet<_> = by_mode[2].candidates.iter().collect();
        let two: std::collections::BTreeSet<_> = by_mode[3].candidates.iter().collect();
        assert!(two.is_subset(&fs1), "two-stage ⊆ FS1");
        assert!(two.is_subset(&fs2), "two-stage ⊆ FS2");
    }
}

/// The derived Table 1 stays pinned to the paper.
#[test]
fn table1_is_stable() {
    let expected = [105, 95, 115, 105, 170, 170, 235];
    for (op, ns) in HwOp::ALL.iter().zip(expected) {
        assert_eq!(op.execution_time().as_ns(), ns, "{op}");
    }
}
