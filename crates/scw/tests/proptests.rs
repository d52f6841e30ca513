//! Property tests for the SCW+MB index: soundness (a clause always
//! matches a query it trivially unifies with), structural properties
//! of codewords, and the bit-sliced scan against per-entry references.

use clare_scw::{
    encode_clause_signature, encode_query_descriptor, ClauseAddr, Codeword, IndexFile,
    QueryDescriptor, ScwConfig,
};
use clare_term::parser::parse_term;
use clare_term::{SymbolTable, Term, VarId};
use proptest::prelude::*;
use std::cell::Cell;

/// Source strategy for ground-ish clause heads.
fn head_source() -> impl Strategy<Value = String> {
    let arg = prop_oneof![
        "[a-z][a-z0-9]{0,4}".prop_map(|a| a),
        (-500i64..500).prop_map(|v| v.to_string()),
        "[A-Z]".prop_map(|v| v),
        Just("_".to_owned()),
        Just("g(x, Y)".to_owned()),
        Just("[1, 2]".to_owned()),
        Just("[a | T]".to_owned()),
    ];
    prop::collection::vec(arg, 1..6).prop_map(|args| format!("p({})", args.join(", ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Self-match soundness: every head matches the query that is its own
    /// text (which trivially unifies).
    #[test]
    fn clause_matches_itself(src in head_source()) {
        let mut symbols = SymbolTable::new();
        let head = parse_term(&src, &mut symbols).unwrap();
        let config = ScwConfig::paper();
        let signature = encode_clause_signature(&head, &config);
        let descriptor = encode_query_descriptor(&head, &config);
        prop_assert!(descriptor.matches(&signature), "self-match for {src}");
    }

    /// Replacing any query argument with a fresh variable can only widen
    /// the match (monotone relaxation).
    #[test]
    fn relaxing_a_query_never_loses_matches(
        q_src in head_source(),
        c_src in head_source(),
        victim in 0usize..6,
    ) {
        let mut symbols = SymbolTable::new();
        let q = parse_term(&q_src, &mut symbols).unwrap();
        let c = parse_term(&c_src, &mut symbols).unwrap();
        let config = ScwConfig::paper();
        let signature = encode_clause_signature(&c, &config);
        let strict = encode_query_descriptor(&q, &config).matches(&signature);
        // Relax one argument to a fresh variable.
        let clare_term::Term::Struct { functor, mut args } = q else { unreachable!() };
        let idx = victim % args.len();
        args[idx] = clare_term::Term::Var(clare_term::VarId::new(40));
        let relaxed = clare_term::Term::Struct { functor, args };
        let relaxed_match = encode_query_descriptor(&relaxed, &config).matches(&signature);
        prop_assert!(!strict || relaxed_match, "relaxation lost a match");
    }

    /// Codeword merge is the join: both operands are subsets of the merge,
    /// and subset testing is reflexive and transitive on generated words.
    #[test]
    fn codeword_lattice(keys in prop::collection::vec(any::<u64>(), 0..24)) {
        let config = ScwConfig::paper();
        let mut merged = Codeword::zero(&config);
        let words: Vec<Codeword> = keys
            .iter()
            .map(|k| Codeword::key_bits(&config, *k))
            .collect();
        for w in &words {
            merged.merge(w);
        }
        for w in &words {
            prop_assert!(w.subset_of(&merged));
            prop_assert!(w.subset_of(w));
        }
        prop_assert!(Codeword::zero(&config).subset_of(&merged));
        prop_assert!(merged.count_ones() <= (keys.len() as u32) * config.bits_per_key() as u32);
    }

    /// The index returns addresses in insertion order and never invents
    /// entries.
    #[test]
    fn index_scan_is_an_ordered_subset(heads in prop::collection::vec(head_source(), 1..40)) {
        let mut symbols = SymbolTable::new();
        let config = ScwConfig::paper();
        let mut index = IndexFile::new(config);
        let mut addrs = Vec::new();
        for (i, src) in heads.iter().enumerate() {
            let head = parse_term(src, &mut symbols).unwrap();
            let addr = ClauseAddr::new(0, i as u16);
            index.insert(&head, addr);
            addrs.push(addr);
        }
        let q = parse_term(&heads[0], &mut symbols).unwrap();
        let outcome = index.scan_with_descriptor(&encode_query_descriptor(&q, index.config()));
        // Subset of inserted addresses, strictly increasing slots.
        for m in &outcome.matches {
            prop_assert!(addrs.contains(m));
        }
        prop_assert!(outcome.matches.windows(2).all(|w| w[0] < w[1]));
        // And the self head is among them.
        prop_assert!(outcome.matches.contains(&addrs[0]));
    }

    /// The bit-sliced scan — one descriptor alone, all of them in one
    /// pass, and the hooked pass a budgeted retrieval takes — returns
    /// byte-identical outcomes to the retained scalar reference scan:
    /// same addresses, same clause order, same modelled times.
    #[test]
    fn sliced_scans_equal_reference(
        heads in prop::collection::vec(head_source(), 1..50),
        query_picks in prop::collection::vec(0usize..50, 1..5),
    ) {
        let mut symbols = SymbolTable::new();
        let mut index = IndexFile::with_capacity(ScwConfig::paper(), heads.len());
        for (i, src) in heads.iter().enumerate() {
            let head = parse_term(src, &mut symbols).unwrap();
            index.insert(&head, ClauseAddr::new((i / 8) as u32, (i % 8) as u16));
        }
        // Query with a mix of existing heads (guaranteed hits) — the
        // descriptors cover Any/Shallow/Ground argument kinds.
        let descriptors: Vec<QueryDescriptor> = query_picks
            .iter()
            .map(|&pick| {
                let q = parse_term(&heads[pick % heads.len()], &mut symbols).unwrap();
                encode_query_descriptor(&q, index.config())
            })
            .collect();
        let references: Vec<_> = descriptors.iter().map(|d| index.scan_reference(d)).collect();
        for (d, reference) in descriptors.iter().zip(&references) {
            prop_assert_eq!(&index.scan_with_descriptor(d), reference);
        }
        let batch = index.scan(&descriptors, None);
        prop_assert_eq!(batch.as_ref(), Some(&references), "batch diverged from reference");
        let hooked = index.scan(&descriptors, Some(&|| false));
        prop_assert_eq!(hooked.as_ref(), Some(&references), "hooked pass diverged");
    }

    /// The sliced scan against a reference that does not read the index:
    /// each entry's expected verdict is `QueryDescriptor::matches` on the
    /// signature freshly encoded from its head. Up to ~300 heads of mixed
    /// arity (mask columns added late), every mask state at every
    /// position, each inserted up to 31 times in a row so the index spans
    /// several words, ragged tails and more than one 4096-entry stride, and
    /// a wider head often first arrives after whole blocks; queries
    /// are heads with one argument relaxed to a variable; three codeword
    /// configurations, one and three limbs wide; capacities below and
    /// above the entry count; tracks of 1 to 129 clauses, so track
    /// boundaries fall anywhere in a bitmap word; and the hooked pass is
    /// polled once per stride and cancelled at every poll.
    #[test]
    fn sliced_scan_equals_freshly_encoded_signatures(
        heads in prop::collection::vec(head_source(), 1..300),
        copies in 1usize..32,
        config in prop_oneof![
            Just(ScwConfig::paper()),
            Just(ScwConfig::custom(192, 4, 12)),
            Just(ScwConfig::custom(16, 2, 4)),
        ],
        picks in prop::collection::vec((0usize..300, 0usize..7), 1..4),
        capacity in 0usize..12_000,
        per_track in 1usize..130,
    ) {
        let mut symbols = SymbolTable::new();
        let terms: Vec<Term> = heads
            .iter()
            .map(|src| parse_term(src, &mut symbols).unwrap())
            .collect();
        let signatures: Vec<_> = terms
            .iter()
            .map(|head| encode_clause_signature(head, &config))
            .collect();
        let n = terms.len() * copies;
        let addr = |i: usize| ClauseAddr::new((i / per_track) as u32, (i % per_track) as u16);
        let mut index = IndexFile::with_capacity(config, capacity);
        for i in 0..n {
            index.insert(&terms[i / copies], addr(i));
        }
        let descriptors: Vec<QueryDescriptor> = picks
            .iter()
            .map(|&(pick, relax)| {
                let Term::Struct { functor, mut args } = terms[pick % terms.len()].clone() else {
                    unreachable!("heads are p/N structures")
                };
                if relax < args.len() {
                    args[relax] = Term::Var(VarId::new(40));
                }
                encode_query_descriptor(&Term::Struct { functor, args }, &config)
            })
            .collect();
        let outcomes = index.scan(&descriptors, None).unwrap();
        for (descriptor, outcome) in descriptors.iter().zip(&outcomes) {
            let expected: Vec<ClauseAddr> = (0..n)
                .filter(|&i| descriptor.matches(&signatures[i / copies]))
                .map(addr)
                .collect();
            prop_assert_eq!(&outcome.matches, &expected);
            // Entries went in with ascending addresses, as a predicate's
            // do, so the outcome ascends: the FS1→FS2 hand-off relies on it.
            prop_assert!(outcome.matches.windows(2).all(|w| w[0] < w[1]), "FS1 outcomes ascend");
            prop_assert_eq!(outcome.entries_scanned, n);
        }
        let polls = n.div_ceil(4096) + 1;
        let count = Cell::new(0);
        let hooked = index.scan(&descriptors, Some(&|| {
            count.set(count.get() + 1);
            false
        }));
        prop_assert_eq!(hooked.as_ref(), Some(&outcomes));
        prop_assert_eq!(count.get(), polls, "one poll per stride, then the closing poll");
        for at in 1..=polls {
            count.set(0);
            let cancelled = index.scan(&descriptors, Some(&|| {
                count.set(count.get() + 1);
                count.get() == at
            }));
            prop_assert!(cancelled.is_none(), "cancelled at poll {}", at);
        }
    }
}
