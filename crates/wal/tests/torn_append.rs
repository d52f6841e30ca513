//! An injected torn append poisons the handle; reopening recovers the
//! acknowledged prefix.
//!
//! This file holds exactly one test on purpose: the fault injector is
//! process-wide, so a sibling test appending concurrently in the same
//! binary would eat this test's `WalAppend` faults. Each integration-test
//! file is its own binary, so isolation at file granularity is enough.

use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
use clare_wal::{Wal, WalError, WalOp};
use std::sync::Arc;

fn op(i: usize) -> WalOp {
    WalOp::Assert {
        module: "m".into(),
        source: format!("p(a{i})."),
    }
}

#[test]
fn injected_torn_append_poisons_and_recovers() {
    let path = std::env::temp_dir().join(format!("clare-wal-inject-{}.wal", std::process::id()));
    let (mut wal, _, _) = Wal::open(&path).unwrap();
    wal.append_batch(&[op(0)]).unwrap();
    let guard = clare_fault::install(Arc::new(DeterministicInjector::new(
        12,
        FaultPlan::none().with(FaultSite::WalAppend, 1000),
    )));
    let err = wal.append_batch(&[op(1), op(2)]).unwrap_err();
    assert!(matches!(err, WalError::Io(_)));
    // Poisoned: even a clean retry is refused on this handle.
    drop(guard);
    assert!(matches!(
        wal.append_batch(&[op(1)]),
        Err(WalError::Poisoned)
    ));
    drop(wal);
    // Reopen recovers the acknowledged prefix and accepts appends.
    let (mut wal, records, _) = Wal::open(&path).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(wal.append_batch(&[op(1)]).unwrap(), 2..3);
    let _ = std::fs::remove_file(&path);
}
