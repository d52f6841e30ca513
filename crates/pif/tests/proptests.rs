//! Property tests for the PIF word and record encodings.

use clare_pif::termio::{decode_term, encode_term, TermLimits};
use clare_pif::word::{INT_MAX, INT_MIN};
use clare_pif::{ClauseRecord, PifError, PifStream, PifWord, TypeTag};
use clare_term::parser::{parse_clause, parse_term};
use clare_term::SymbolTable;
use proptest::prelude::*;

fn arbitrary_tag() -> impl Strategy<Value = TypeTag> {
    prop_oneof![
        Just(TypeTag::Anon),
        any::<bool>().prop_map(|first| TypeTag::QueryVar { first }),
        any::<bool>().prop_map(|first| TypeTag::DbVar { first }),
        Just(TypeTag::AtomPtr),
        Just(TypeTag::FloatPtr),
        (0u8..16).prop_map(|high_nibble| TypeTag::IntInline { high_nibble }),
        (0u8..32).prop_map(|arity| TypeTag::StructInline { arity }),
        (0u8..32).prop_map(|arity| TypeTag::StructPtr { arity }),
        (0u8..32, any::<bool>())
            .prop_map(|(arity, terminated)| TypeTag::ListInline { arity, terminated }),
        (0u8..32, any::<bool>())
            .prop_map(|(arity, terminated)| TypeTag::ListPtr { arity, terminated }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every constructible tag round-trips through its byte.
    #[test]
    fn tag_byte_roundtrip(tag in arbitrary_tag()) {
        prop_assert_eq!(TypeTag::from_byte(tag.to_byte()).unwrap(), tag);
    }

    /// In-range integers round-trip through the 28-bit in-line encoding.
    #[test]
    fn int_roundtrip(v in INT_MIN..=INT_MAX) {
        let word = PifWord::int(v).unwrap();
        prop_assert_eq!(word.int_value(), Some(v));
        // And through the packed 32-bit form.
        let packed = PifWord::from_u32(word.to_u32()).unwrap();
        prop_assert_eq!(packed.int_value(), Some(v));
    }

    /// Out-of-range integers are rejected, never truncated.
    #[test]
    fn int_out_of_range_rejected(v in prop_oneof![
        i64::MIN..INT_MIN,
        INT_MAX + 1..=i64::MAX,
    ]) {
        prop_assert!(PifWord::int(v).is_err());
    }

    /// Streams of arbitrary words survive serialization.
    #[test]
    fn stream_roundtrip(specs in prop::collection::vec(
        (arbitrary_tag(), 0u32..0x100_0000, proptest::option::of(any::<u32>())),
        0..40,
    )) {
        let stream: PifStream = specs
            .iter()
            .map(|(tag, content, ext)| match ext {
                Some(e) => PifWord::with_extension(*tag, *content, *e),
                None => PifWord::new(*tag, *content),
            })
            .collect();
        let mut buf = Vec::new();
        stream.write_to(&mut buf);
        let back = PifStream::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, stream);
    }

    /// Clause records round-trip for a grammar of generated clauses.
    #[test]
    fn record_roundtrip(
        functor in "[a-z][a-z0-9]{0,5}",
        args in prop::collection::vec(
            prop_oneof![
                "[a-z][a-z0-9]{0,4}".prop_map(|a| a),
                (-1000i64..1000).prop_map(|v| v.to_string()),
                "[A-Z]".prop_map(|v| v),
                Just("_".to_owned()),
                Just("[x, y | T]".to_owned()),
                Just("g(h(deep), [1])".to_owned()),
            ],
            1..6,
        ),
    ) {
        let mut symbols = SymbolTable::new();
        let src = format!("{functor}({}).", args.join(", "));
        let clause = parse_clause(&src, &mut symbols).unwrap();
        let record = ClauseRecord::compile(&clause).unwrap();
        let bytes = record.to_bytes();
        let (back, used) = ClauseRecord::from_bytes(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back.clause(), &clause);
    }

    /// Truncating a record anywhere makes it unreadable, never panics.
    #[test]
    fn truncation_is_detected(cut_fraction in 0.0f64..1.0) {
        let mut symbols = SymbolTable::new();
        let clause = parse_clause("p(a, [1, 2 | T], g(h)).", &mut symbols).unwrap();
        let bytes = ClauseRecord::compile(&clause).unwrap().to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(ClauseRecord::from_bytes(&bytes[..cut]).is_err());
    }

    /// Arbitrary byte strings never panic any decoder — they either parse
    /// or yield a typed `PifError`. These byte streams arrive off the
    /// network in `clare-net`, so this is an attack-surface guarantee, not
    /// a nicety.
    #[test]
    fn arbitrary_bytes_never_panic_decoders(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_term(&bytes, &TermLimits::default());
        let _ = PifStream::read_from(&mut bytes.as_slice());
        let _ = ClauseRecord::from_bytes(&bytes);
    }

    /// Terms, PIF streams and clause records — nested structs, lists with
    /// tails, extension words, variable names — round-trip, and every
    /// strict prefix of each decodes to `Malformed` rather than a panic or
    /// a value. Record bodies are also cut inside a correct length prefix,
    /// so the clause decoder itself, not only the length check, meets the
    /// end of its input.
    #[test]
    fn every_strict_prefix_is_malformed(
        args in prop::collection::vec(
            prop_oneof![
                "[a-z][a-z0-9]{0,4}".prop_map(|a| a),
                (-1000i64..1000).prop_map(|v| v.to_string()),
                "[A-Z]".prop_map(|v| v),
                Just("1.25".to_owned()),
                Just("[x, Y | T]".to_owned()),
                Just("g(h(deep, [1, f(Z)]), [a | B])".to_owned()),
            ],
            1..5,
        ),
        words in prop::collection::vec(
            (arbitrary_tag(), 0u32..0x100_0000, proptest::option::of(any::<u32>())),
            1..12,
        ),
    ) {
        let malformed = |r: Result<(), PifError>| matches!(r, Err(PifError::Malformed { .. }));
        let mut symbols = SymbolTable::new();
        let src = format!("p({}) :- q(X, [Y | T]), r(f(T), W).", args.join(", "));
        let clause = parse_clause(&src, &mut symbols).unwrap();

        let term = encode_term(clause.head());
        let (back, used) = decode_term(&term, &TermLimits::default()).unwrap();
        prop_assert_eq!((&back, used), (clause.head(), term.len()));
        for cut in 0..term.len() {
            let r = decode_term(&term[..cut], &TermLimits::default()).map(drop);
            prop_assert!(malformed(r), "term cut at {}", cut);
        }

        let stream: PifStream = words
            .iter()
            .map(|&(tag, content, ext)| match ext {
                Some(e) => PifWord::with_extension(tag, content, e),
                None => PifWord::new(tag, content),
            })
            .collect();
        let mut bytes = Vec::new();
        stream.write_to(&mut bytes);
        let mut rest = bytes.as_slice();
        prop_assert_eq!(PifStream::read_from(&mut rest).unwrap(), stream);
        prop_assert!(rest.is_empty());
        for cut in 0..bytes.len() {
            let r = PifStream::read_from(&mut &bytes[..cut]).map(drop);
            prop_assert!(malformed(r), "stream cut at {}", cut);
        }

        let record = ClauseRecord::compile(&clause).unwrap().to_bytes();
        let (back, used) = ClauseRecord::from_bytes(&record).unwrap();
        prop_assert_eq!((back.clause(), used), (&clause, record.len()));
        for cut in 0..record.len() {
            let r = ClauseRecord::from_bytes(&record[..cut]).map(drop);
            prop_assert!(malformed(r), "record cut at {}", cut);
            if cut >= 4 {
                let mut reframed = record[..cut].to_vec();
                reframed[..4].copy_from_slice(&(cut as u32).to_be_bytes());
                let r = ClauseRecord::from_bytes(&reframed).map(drop);
                prop_assert!(malformed(r), "record body cut at {}", cut);
            }
        }
    }

    /// Byte strings that *start* valid and trail off into garbage also
    /// never panic: prefix a genuine encoded term with mutations applied at
    /// a random position.
    #[test]
    fn mutated_term_bytes_never_panic(
        flip_at in 0usize..64,
        flip_to in any::<u8>(),
    ) {
        let mut symbols = SymbolTable::new();
        let term = parse_term("f(a, [1, 2 | T], g(h(B)), 3.5)", &mut symbols).unwrap();
        let mut bytes = encode_term(&term);
        let i = flip_at % bytes.len();
        bytes[i] = flip_to;
        let _ = decode_term(&bytes, &TermLimits::default());
    }

    /// Terms survive the wire codec bit-for-bit.
    #[test]
    fn term_bytes_roundtrip(
        functor in "[a-z][a-z0-9]{0,5}",
        args in prop::collection::vec(
            prop_oneof![
                "[a-z][a-z0-9]{0,4}".prop_map(|a| a),
                (-1000i64..1000).prop_map(|v| v.to_string()),
                "[A-Z]".prop_map(|v| v),
                Just("_".to_owned()),
                Just("1.25".to_owned()),
                Just("[x, y | T]".to_owned()),
                Just("g(h(deep), [1])".to_owned()),
            ],
            1..6,
        ),
    ) {
        let mut symbols = SymbolTable::new();
        let src = format!("{functor}({})", args.join(", "));
        let term = parse_term(&src, &mut symbols).unwrap();
        let bytes = encode_term(&term);
        let (back, used) = decode_term(&bytes, &TermLimits::default()).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, term);
    }
}
