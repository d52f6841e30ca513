//! A batch of any size is one fsync.
//!
//! This file holds exactly one test on purpose: `wal.fsyncs` is a
//! process-wide counter, and a sibling test appending concurrently in the
//! same binary would pollute the delta asserted here.

use clare_wal::{Wal, WalOp};

#[test]
fn group_commit_is_one_fsync_per_batch() {
    let path = std::env::temp_dir().join(format!("clare-wal-group-{}.wal", std::process::id()));
    let (mut wal, _, _) = Wal::open(&path).unwrap();
    let before = clare_trace::metrics().wal_fsyncs.get();
    let ops: Vec<WalOp> = (0..64)
        .map(|i| WalOp::Assert {
            module: "m".into(),
            source: format!("p(a{i})."),
        })
        .collect();
    wal.append_batch(&ops).unwrap();
    assert_eq!(clare_trace::metrics().wal_fsyncs.get(), before + 1);
    let _ = std::fs::remove_file(&path);
}
