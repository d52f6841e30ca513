//! A knowledge base keeps the build config it was compiled under: the
//! overlay validates against it, and compaction and WAL replay rebuild
//! under it — never under `KbConfig::default()`.

use clare_core::{ClauseRetrievalServer, CompactionOutcome, CrsOptions};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase, ModuleKind};

/// Every module is disk resident: a config whose fingerprint differs
/// from the default's.
fn all_large() -> KbConfig {
    KbConfig {
        large_module_threshold: 0,
        ..KbConfig::default()
    }
}

fn base() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    b.consult("m", "p(a). p(b). q(1).").unwrap();
    b.finish(all_large())
}

fn assert_built_under_all_large(kb: &KnowledgeBase) {
    assert_eq!(kb.build_fingerprint(), all_large().fingerprint());
    assert_ne!(kb.build_fingerprint(), KbConfig::default().fingerprint());
    for module in kb.modules() {
        assert_eq!(module.kind(), ModuleKind::Large);
    }
}

#[test]
fn compaction_keeps_the_base_build_config() {
    let crs = ClauseRetrievalServer::new(base(), CrsOptions::default());
    assert_built_under_all_large(&crs.snapshot());

    crs.assert_source("m", "p(c).").unwrap();
    crs.retract_source("m", "q(1).").unwrap();
    assert!(matches!(
        crs.compact_now(),
        CompactionOutcome::Swapped { .. }
    ));
    assert_built_under_all_large(&crs.snapshot());
}

#[test]
fn wal_replay_then_compaction_keeps_the_base_build_config() {
    let path = std::env::temp_dir().join(format!(
        "clare-build-config-{}-{:?}.wal",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let crs = ClauseRetrievalServer::new(base(), CrsOptions::default());
        crs.attach_wal(&path).unwrap();
        crs.assert_source("m", "p(c). q(2).").unwrap();
    }
    let crs = ClauseRetrievalServer::new(base(), CrsOptions::default());
    let report = crs.attach_wal(&path).unwrap();
    assert_eq!(report.records, 1);
    assert!(matches!(
        crs.compact_now(),
        CompactionOutcome::Swapped { .. }
    ));
    assert_built_under_all_large(&crs.snapshot());
    let _ = std::fs::remove_file(&path);
}
