//! Replication-shipping round-trip at the frame-encoding boundaries.
//!
//! A WAL op crosses the cluster's replication stream as the raw frame
//! payload (`encode_ship_record` → wire → `decode_ship_record`) and is
//! applied on the backup through the same `Overlay::apply` path the
//! primary used. These tests pin the contract at the length boundaries
//! of the encoding: module names of 0 / 1 / 65535 bytes (the `u16`
//! prefix) and sources of 0 / 1 / 65535 / 65536 bytes (bounded only by
//! `MAX_PAYLOAD`), with 65536-byte modules refused as a typed
//! `WalError::OpTooLarge` — never a silently truncated frame.

use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_wal::{decode_ship_record, encode_ship_record, Overlay, WalError, WalOp};
use proptest::prelude::*;

/// Module-name boundary lengths that must encode (the u16 prefix caps
/// at 65535; 65536 is the typed-refusal case below).
const MOD_BOUNDS: [usize; 3] = [0, 1, 65535];
/// Source boundary lengths; the source prefix is u32, so 65536 must
/// round-trip like any other length.
const SRC_BOUNDS: [usize; 4] = [0, 1, 65535, 65536];

fn base_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    b.consult("user", "p(a). p(b). q(c).").unwrap();
    b.finish(KbConfig::default())
}

/// A parseable source of exactly `len` bytes: whitespace (zero clauses)
/// below the smallest fact, else one fact padded through its atom name.
fn fact_of_len(len: usize) -> String {
    if len < 5 {
        " ".repeat(len)
    } else {
        format!("p({}).", "a".repeat(len - 4))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn boundary_ops_apply_identically_after_shipping(
        mlen_i in 0usize..3,
        slen_i in 0usize..4,
        retract in any::<bool>(),
        seq in 1u64..1_000_000,
    ) {
        let module = "m".repeat(MOD_BOUNDS[mlen_i]);
        let source = if retract {
            // Retract demands exactly one clause; pad to the boundary
            // where one fits, else use the smallest fact.
            fact_of_len(SRC_BOUNDS[slen_i].max(5))
        } else {
            fact_of_len(SRC_BOUNDS[slen_i])
        };
        let op = if retract {
            WalOp::Retract { module, source }
        } else {
            WalOp::Assert { module, source }
        };
        prop_assert!(op.validate().is_ok());

        // Ship: the exact bytes a LOG_FRAME carries.
        let bytes = encode_ship_record(seq, &op);
        let shipped = decode_ship_record(&bytes).expect("boundary op decodes");
        prop_assert_eq!(shipped.seq, seq);
        prop_assert_eq!(&shipped.op, &op);

        // Apply locally and apply the shipped copy; the overlays must be
        // indistinguishable.
        let kb = base_kb();
        let mut local = Overlay::new(kb.symbols().clone());
        let mut remote = Overlay::new(kb.symbols().clone());
        let a = local.apply(seq, &op, &kb);
        let b = remote.apply(shipped.seq, &shipped.op, &kb);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(x), Err(y)) => prop_assert_eq!(format!("{x:?}"), format!("{y:?}")),
            (a, b) => prop_assert!(false, "divergent apply: {a:?} vs {b:?}"),
        }
        prop_assert_eq!(local.ops(), remote.ops());
        prop_assert_eq!(local.added_clauses(), remote.added_clauses());
        prop_assert_eq!(local.max_seq(), remote.max_seq());
        for (key, delta) in local.predicates() {
            let mirrored = remote.delta(key.0, key.1).expect("delta shipped");
            prop_assert_eq!(delta.module(), mirrored.module());
            prop_assert_eq!(delta.added(), mirrored.added());
            prop_assert_eq!(delta.retracted_base(), mirrored.retracted_base());
        }
        // Re-encoding the applied record is byte-identical: shipping is
        // lossless end to end.
        prop_assert_eq!(encode_ship_record(shipped.seq, &shipped.op), bytes);
    }
}

#[test]
fn past_boundary_module_is_a_typed_refusal() {
    let op = WalOp::Assert {
        module: "m".repeat(65536),
        source: "p(a).".into(),
    };
    match op.validate() {
        Err(WalError::OpTooLarge { what, len, max }) => {
            assert_eq!(what, "module name");
            assert_eq!(len, 65536);
            assert_eq!(max, 65535);
        }
        other => panic!("expected OpTooLarge, got {other:?}"),
    }
}
