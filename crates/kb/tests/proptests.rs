//! Property tests for knowledge-base compilation and persistence.

use clare_kb::{io, KbBuilder, KbConfig, KbStats};
use clare_scw::ClauseAddr;
use proptest::prelude::*;

/// Random small programs: facts and rules over a tiny vocabulary.
fn program_source() -> impl Strategy<Value = String> {
    let arg = prop_oneof![
        "[a-c]".prop_map(|a| a),
        (0i64..10).prop_map(|v| v.to_string()),
        "[X-Z]".prop_map(|v| v),
        Just("g(a, Y)".to_owned()),
        Just("[1, 2 | T]".to_owned()),
    ];
    let head = ("[pq]", prop::collection::vec(arg.clone(), 1..4))
        .prop_map(|(f, a)| format!("{f}({})", a.join(", ")));
    let clause = (head.clone(), proptest::option::of(head)).prop_map(|(h, body)| match body {
        Some(b) => format!("{h} :- {b}."),
        None => format!("{h}."),
    });
    prop::collection::vec(clause, 0..25).prop_map(|cs| cs.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compilation is total over generated programs, clause counts add up,
    /// and addresses resolve to the right records.
    #[test]
    fn compilation_invariants(source in program_source()) {
        let mut b = KbBuilder::new();
        b.consult("m", &source).unwrap();
        let kb = b.finish(KbConfig::default());
        let stats = KbStats::gather(&kb);
        prop_assert_eq!(stats.clauses, kb.clause_count());
        for module in kb.modules() {
            for pred in module.predicates() {
                prop_assert_eq!(pred.index().len(), pred.clauses().len());
                for i in 0..pred.index().len() {
                    let (clause, id) = pred.clause_at(pred.index().addr_at(i));
                    prop_assert_eq!(id.index() as usize, i);
                    prop_assert_eq!(clause, &pred.clauses()[i]);
                }
            }
        }
    }

    /// The pre-decoded arena agrees word for word with the persistence
    /// path: every clause's arena stream equals the head stream re-decoded
    /// from its on-disk record, and the arena's track ranges mirror the
    /// record addresses.
    #[test]
    fn arena_matches_redecoded_records(source in program_source()) {
        let mut b = KbBuilder::new();
        b.consult("m", &source).unwrap();
        let kb = b.finish(KbConfig::default());
        for module in kb.modules() {
            for pred in module.predicates() {
                let arena = pred.arena();
                prop_assert_eq!(arena.len(), pred.clauses().len());
                for i in 0..pred.index().len() {
                    let addr = pred.index().addr_at(i);
                    let (record, _) =
                        clare_pif::ClauseRecord::from_bytes(pred.record_at(addr)).unwrap();
                    prop_assert_eq!(
                        arena.stream(i),
                        record.head_stream().words(),
                        "clause {} at {}", i, addr
                    );
                    let range = arena.track_clauses(addr.track() as usize);
                    prop_assert_eq!(range.start + addr.slot() as usize, i);
                    prop_assert_eq!(pred.clause_id_at(addr).unwrap().index() as usize, i);
                    let column = arena.track_first_words(addr.track() as usize);
                    prop_assert_eq!(
                        column[addr.slot() as usize],
                        clare_pif::first_word_key(arena.stream(i))
                    );
                }
                // One past each track's last slot — including the empty
                // track past the end of the file — addresses no clause.
                for t in 0..=arena.track_count() {
                    let past = ClauseAddr::new(t as u32, arena.track_clauses(t).len() as u16);
                    prop_assert_eq!(pred.clause_id_at(past), None);
                }
            }
        }
    }

    /// Save/load is the identity on clauses, index entries (addresses and
    /// signatures), and statistics.
    #[test]
    fn persistence_roundtrip(source in program_source()) {
        let mut b = KbBuilder::new();
        b.consult("m", &source).unwrap();
        let kb = b.finish(KbConfig::default());
        let mut buf = Vec::new();
        io::save(&kb, &mut buf).unwrap();
        let loaded = io::load(&mut buf.as_slice(), KbConfig::default()).unwrap();
        prop_assert_eq!(KbStats::gather(&loaded), KbStats::gather(&kb));
        for (m, lm) in kb.modules().iter().zip(loaded.modules()) {
            prop_assert_eq!(m.name(), lm.name());
            for (p, lp) in m.predicates().iter().zip(lm.predicates()) {
                prop_assert_eq!(p.clauses(), lp.clauses());
                prop_assert!(p.index().iter_entries().eq(lp.index().iter_entries()));
                prop_assert_eq!(p.arena(), lp.arena());
            }
        }
    }

    /// The decompile/recompile cycle (to_builder) is also the identity.
    #[test]
    fn to_builder_roundtrip(source in program_source()) {
        let mut b = KbBuilder::new();
        b.consult("m", &source).unwrap();
        let kb = b.finish(KbConfig::default());
        let rebuilt = kb.to_builder().finish(KbConfig::default());
        prop_assert_eq!(KbStats::gather(&rebuilt), KbStats::gather(&kb));
        prop_assert_eq!(rebuilt.clause_count(), kb.clause_count());
    }
}
