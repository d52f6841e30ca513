//! The crash-safe write-ahead log.
//!
//! One append-only file of CRC32C-framed records, each carrying a
//! monotonic sequence number and one textual assert/retract operation.
//! A commit batch is encoded into a single buffered write followed by a
//! single `fdatasync` — the group-commit unit — and an operation is
//! *acknowledged* only after that sync returns. Opening a log replays
//! every intact frame and truncates the torn tail a mid-append crash
//! leaves behind, so replay recovers exactly the acknowledged prefix
//! (plus, possibly, a final batch that was synced but whose ack never
//! reached the caller — recovery is a superset of the acks, never a
//! subset).
//!
//! Frame layout, all integers little-endian:
//!
//! ```text
//! u32 payload_len   u32 crc32c(payload)   payload
//! payload = u64 seq   u8 op   u16 module_len   module   u32 src_len   source
//! ```
//!
//! Operations travel as *source text* (module name + Edinburgh-syntax
//! clauses) rather than compiled records: replay re-parses against the
//! base snapshot's symbol table, which keeps the log valid across
//! compactions that renumber clause addresses.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use clare_fault::{FaultAction, FaultSite};
use clare_trace::metrics;

/// One logged mutation, as transported: module name plus clause source
/// text. `Assert` appends every clause in `source` (in order) to its
/// predicate; `Retract` removes the first live clause structurally equal
/// to the single clause in `source` (a no-op if none matches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Append the clauses parsed from `source` to `module`.
    Assert {
        /// Target module name.
        module: String,
        /// Clause source text (one or more clauses).
        source: String,
    },
    /// Remove the first live clause structurally equal to the one clause
    /// in `source`.
    Retract {
        /// Target module name.
        module: String,
        /// Clause source text (exactly one clause).
        source: String,
    },
}

impl WalOp {
    /// The module this operation targets.
    pub fn module(&self) -> &str {
        match self {
            WalOp::Assert { module, .. } | WalOp::Retract { module, .. } => module,
        }
    }

    /// The clause source text this operation carries.
    pub fn source(&self) -> &str {
        match self {
            WalOp::Assert { source, .. } | WalOp::Retract { source, .. } => source,
        }
    }

    /// Checks that this op fits the frame encoding: the module name must
    /// fit its `u16` length prefix and the whole payload must stay under
    /// [`MAX_PAYLOAD`]. Without this gate, `module.len() as u16` would
    /// silently truncate the length prefix and write a structurally
    /// corrupt frame that poisons replay.
    pub fn validate(&self) -> Result<(), WalError> {
        let module = self.module();
        if module.len() > u16::MAX as usize {
            return Err(WalError::OpTooLarge {
                what: "module name",
                len: module.len(),
                max: u16::MAX as usize,
            });
        }
        let payload = 15 + module.len() + self.source().len();
        if payload > MAX_PAYLOAD as usize {
            return Err(WalError::OpTooLarge {
                what: "frame payload",
                len: payload,
                max: MAX_PAYLOAD as usize,
            });
        }
        Ok(())
    }
}

/// A [`WalOp`] with the sequence number the log assigned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (starts at 1, no gaps).
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Errors from opening or appending to a log.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error from the underlying file.
    Io(std::io::Error),
    /// A frame passed its CRC but decoded to garbage, or sequence
    /// numbers are not contiguous — not a torn tail, real corruption.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A previous append failed at an unknown point; the in-process
    /// handle refuses further appends (reopening the file recovers by
    /// truncating the torn tail).
    Poisoned,
    /// An operation does not fit the frame encoding (module name beyond
    /// its `u16` length prefix, or payload beyond [`MAX_PAYLOAD`]).
    /// Refused before any byte reaches the file.
    OpTooLarge {
        /// Which part overflowed (`"module name"` / `"frame payload"`).
        what: &'static str,
        /// The offending length in bytes.
        len: usize,
        /// The encoding's limit for that part.
        max: usize,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
            WalError::Poisoned => write!(
                f,
                "wal poisoned by an earlier failed append; reopen the file to recover"
            ),
            WalError::OpTooLarge { what, len, max } => {
                write!(f, "wal op {what} is {len} bytes (limit {max})")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records recovered.
    pub records: usize,
    /// Bytes of torn tail truncated (0 on a clean shutdown).
    pub truncated_tail_bytes: u64,
    /// The sequence number the next append will receive.
    pub next_seq: u64,
}

const FRAME_HEADER: usize = 8;
/// Upper bound on one frame's payload — a sanity gate that turns a
/// garbage length prefix (torn header) into a clean end-of-log, and the
/// size limit [`WalOp::validate`] enforces before encoding.
pub const MAX_PAYLOAD: u32 = 1 << 24;

const OP_ASSERT: u8 = 1;
const OP_RETRACT: u8 = 2;

/// Encodes one `(seq, op)` pair exactly the way a WAL frame payload
/// carries it (the bytes after the `len`/`crc` header). This is the unit
/// the cluster's replication stream ships: a backup decodes it with
/// [`decode_ship_record`] and applies it through `Overlay::apply` with
/// the primary's sequence number, so a shipped op is byte-identical to
/// the op the primary logged.
///
/// The op must satisfy [`WalOp::validate`]; an oversized op would encode
/// a truncated length prefix.
pub fn encode_ship_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let (code, module, source) = match op {
        WalOp::Assert { module, source } => (OP_ASSERT, module, source),
        WalOp::Retract { module, source } => (OP_RETRACT, module, source),
    };
    let mut payload = Vec::with_capacity(15 + module.len() + source.len());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.push(code);
    payload.extend_from_slice(&(module.len() as u16).to_le_bytes());
    payload.extend_from_slice(module.as_bytes());
    payload.extend_from_slice(&(source.len() as u32).to_le_bytes());
    payload.extend_from_slice(source.as_bytes());
    payload
}

/// Decodes a shipped record produced by [`encode_ship_record`] (a WAL
/// frame payload without its `len`/`crc` header). `None` on any
/// structural violation — the replication layer treats that as a
/// corrupt frame, never a partial record.
pub fn decode_ship_record(bytes: &[u8]) -> Option<WalRecord> {
    decode_payload(bytes)
}

fn encode_frame(out: &mut Vec<u8>, seq: u64, op: &WalOp) {
    let payload = encode_ship_record(seq, op);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&clare_fault::crc32c(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() < 15 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let code = payload[8];
    let mlen = u16::from_le_bytes(payload[9..11].try_into().ok()?) as usize;
    let rest = payload.get(11..)?;
    let module = std::str::from_utf8(rest.get(..mlen)?).ok()?.to_owned();
    let rest = rest.get(mlen..)?;
    let slen = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let source_bytes = rest.get(4..)?;
    if source_bytes.len() != slen {
        return None;
    }
    let source = std::str::from_utf8(source_bytes).ok()?.to_owned();
    let op = match code {
        OP_ASSERT => WalOp::Assert { module, source },
        OP_RETRACT => WalOp::Retract { module, source },
        _ => return None,
    };
    Some(WalRecord { seq, op })
}

/// Walks `bytes`, returning every intact record and the byte length of
/// the intact prefix. A short or CRC-failed frame ends the walk (torn
/// tail); a CRC-valid frame that decodes to garbage or breaks sequence
/// continuity is a [`WalError::Corrupt`].
fn decode_all(bytes: &[u8]) -> Result<(Vec<WalRecord>, u64), WalError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= FRAME_HEADER {
        let len =
            u32::from_le_bytes(
                bytes[at..at + 4]
                    .try_into()
                    .map_err(|_| WalError::Corrupt {
                        offset: at as u64,
                        detail: "unreachable: bad header slice".into(),
                    })?,
            );
        if len == 0 || len > MAX_PAYLOAD {
            break; // garbage length prefix: a torn header ends the log
        }
        let want_crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().map_err(|_| {
            WalError::Corrupt {
                offset: at as u64,
                detail: "unreachable: bad header slice".into(),
            }
        })?);
        let body_start = at + FRAME_HEADER;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            break; // frame cut short: torn tail
        }
        let payload = &bytes[body_start..body_end];
        if clare_fault::crc32c(payload) != want_crc {
            break; // torn or rotted frame ends the intact prefix
        }
        let record = decode_payload(payload).ok_or_else(|| WalError::Corrupt {
            offset: at as u64,
            detail: "CRC-valid frame decoded to garbage".into(),
        })?;
        let expect = records.last().map(|r: &WalRecord| r.seq + 1).unwrap_or(1);
        if record.seq != expect {
            return Err(WalError::Corrupt {
                offset: at as u64,
                detail: format!("sequence jumped to {} (expected {expect})", record.seq),
            });
        }
        records.push(record);
        at = body_end;
    }
    Ok((records, at as u64))
}

/// An open write-ahead log: an append handle positioned after the last
/// intact frame. All appends go through [`append_batch`](Wal::append_batch);
/// callers serialize externally (the server holds its commit lock).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays every
    /// intact record, and truncates any torn tail.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<(Wal, Vec<WalRecord>, ReplayReport), WalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, intact) = decode_all(&bytes)?;
        let torn = bytes.len() as u64 - intact;
        if torn > 0 {
            file.set_len(intact)?;
            file.sync_data()?;
            metrics().wal_truncated_tails.inc();
        }
        file.seek(SeekFrom::Start(intact))?;
        let next_seq = records.last().map(|r| r.seq + 1).unwrap_or(1);
        metrics().wal_replayed_records.add(records.len() as u64);
        let report = ReplayReport {
            records: records.len(),
            truncated_tail_bytes: torn,
            next_seq,
        };
        let wal = Wal {
            file,
            path,
            next_seq,
            poisoned: false,
        };
        Ok((wal, records, report))
    }

    /// The sequence number the next appended operation will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `ops` as one group-committed batch: one buffered write,
    /// one `fdatasync`. Returns the sequence range assigned. On any
    /// failure nothing is acknowledged and the handle is poisoned —
    /// the file may hold a torn tail that the next [`Wal::open`] will
    /// truncate away.
    pub fn append_batch(&mut self, ops: &[WalOp]) -> Result<Range<u64>, WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let first = self.next_seq;
        if ops.is_empty() {
            return Ok(first..first);
        }
        // Size-gate every op before any byte is encoded: an oversized
        // module name would truncate its u16 length prefix and write a
        // structurally corrupt frame. Refusal leaves the handle clean —
        // nothing was written, so nothing is poisoned.
        for op in ops {
            op.validate()?;
        }
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            encode_frame(&mut buf, first + i as u64, op);
        }
        if clare_fault::active() {
            if let FaultAction::Truncate { keep } = clare_fault::decide(FaultSite::WalAppend, first)
            {
                // Power loss mid-append: a prefix of the batch reaches the
                // platter, the ack never happens, and this handle is done.
                let keep = (keep % buf.len() as u64) as usize;
                let _ = self.file.write_all(&buf[..keep]);
                let _ = self.file.sync_data();
                self.poisoned = true;
                return Err(WalError::Io(std::io::Error::other(
                    "injected torn wal append",
                )));
            }
        }
        if let Err(e) = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data())
        {
            // How much hit the disk is unknowable from here; refuse
            // further appends so acknowledged frames can never land
            // after an unsynced hole.
            self.poisoned = true;
            return Err(e.into());
        }
        self.next_seq += ops.len() as u64;
        let m = metrics();
        m.wal_appends.inc();
        m.wal_records.add(ops.len() as u64);
        m.wal_fsyncs.inc();
        m.wal_bytes.add(buf.len() as u64);
        Ok(first..self.next_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("clare-wal-{tag}-{}-{n}.wal", std::process::id()))
    }

    fn op(i: usize) -> WalOp {
        if i % 3 == 2 {
            WalOp::Retract {
                module: "m".into(),
                source: format!("p(a{i})."),
            }
        } else {
            WalOp::Assert {
                module: "m".into(),
                source: format!("p(a{i})."),
            }
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("roundtrip");
        let ops: Vec<WalOp> = (0..10).map(op).collect();
        {
            let (mut wal, records, report) = Wal::open(&path).unwrap();
            assert!(records.is_empty());
            assert_eq!(report.next_seq, 1);
            assert_eq!(wal.append_batch(&ops[..4]).unwrap(), 1..5);
            assert_eq!(wal.append_batch(&ops[4..]).unwrap(), 5..11);
        }
        let (wal, records, report) = Wal::open(&path).unwrap();
        assert_eq!(report.records, 10);
        assert_eq!(report.truncated_tail_bytes, 0);
        assert_eq!(wal.next_seq(), 11);
        assert_eq!(records.len(), 10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.op, op(i));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_batch_is_free() {
        let path = temp_path("empty");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        assert_eq!(wal.append_batch(&[]).unwrap(), 1..1);
        assert_eq!(wal.next_seq(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append_batch(&[op(0), op(1)]).unwrap();
        }
        // Simulate a crash mid-append: garbage partial frame at the end.
        let clean_len = {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let len = f.metadata().unwrap().len();
            f.write_all(&[0x55, 0x02, 0x00, 0x00, 0x00, 0xAB]).unwrap();
            len
        };
        let (wal, records, report) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 2, "intact prefix survives");
        assert_eq!(report.truncated_tail_bytes, 6);
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_cut_inside_a_frame_is_truncated() {
        let path = temp_path("cut");
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append_batch(&[op(0), op(1), op(2)]).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Cut the file a few bytes into the last frame.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, records, report) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(report.truncated_tail_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_bitrot_is_an_end_of_log() {
        let path = temp_path("rot");
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append_batch(&[op(0), op(1), op(2)]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // LevelDB semantics: the first bad frame ends the log. The
        // records before it replay; everything after is dropped.
        let (_, records, _) = Wal::open(&path).unwrap();
        assert!(records.len() < 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_module_is_refused_not_corrupted() {
        // Regression: `module.len() as u16` used to truncate silently,
        // writing a frame whose length prefix disagreed with its bytes.
        let path = temp_path("oversized");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append_batch(&[op(0)]).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();

        let big = WalOp::Assert {
            module: "m".repeat(70_000), // > 64 KiB: overflows the u16 prefix
            source: "p(a).".into(),
        };
        match wal.append_batch(&[big]) {
            Err(WalError::OpTooLarge { what, len, max }) => {
                assert_eq!(what, "module name");
                assert_eq!(len, 70_000);
                assert_eq!(max, u16::MAX as usize);
            }
            other => panic!("expected OpTooLarge, got {other:?}"),
        }
        // A refusal is not a failure: no bytes written, handle not
        // poisoned, and the file still replays cleanly.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(wal.append_batch(&[op(1)]).unwrap(), 2..3);
        drop(wal);
        let (_, records, report) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.truncated_tail_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_payload_is_refused() {
        let big = WalOp::Assert {
            module: "m".into(),
            source: "x".repeat(MAX_PAYLOAD as usize),
        };
        assert!(matches!(
            big.validate(),
            Err(WalError::OpTooLarge {
                what: "frame payload",
                ..
            })
        ));
        // The boundary itself fits: payload == MAX_PAYLOAD exactly.
        let fits = WalOp::Assert {
            module: "m".into(),
            source: "x".repeat(MAX_PAYLOAD as usize - 16),
        };
        fits.validate().unwrap();
    }

    #[test]
    fn ship_record_round_trips() {
        for i in 0..6 {
            let rec = WalRecord {
                seq: i as u64 + 1,
                op: op(i),
            };
            let bytes = encode_ship_record(rec.seq, &rec.op);
            assert_eq!(decode_ship_record(&bytes).unwrap(), rec);
            // Every truncation is refused, never mis-decoded.
            for cut in 0..bytes.len() {
                assert!(decode_ship_record(&bytes[..cut]).is_none());
            }
        }
    }
}
