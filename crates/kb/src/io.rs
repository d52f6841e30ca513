//! Saving and loading knowledge bases.
//!
//! The persistent format (`.ckb`) stores the shared symbol table plus
//! every module's clauses as PIF clause records — the same bytes the
//! simulated disk holds. Loading rebuilds the compiled form (track
//! layout, secondary indexes) through [`KbBuilder`], so a loaded
//! knowledge base is bit-identical to recompiling the original source
//! under the same [`KbConfig`].
//!
//! # Format
//!
//! **`CKB2`**, the only format [`save`] writes and [`load`] accepts,
//! wraps the payload in checksummed sections:
//!
//! ```text
//! "CKB2"  u32 section_count
//! section 0:    u32 len  u32 crc32c  <symbol table body>
//! section 1..n: u32 len  u32 crc32c  <module body>
//! ```
//!
//! A section body is read in bounded chunks (a hostile length field can
//! never force a large allocation) while its CRC32C is folded; a
//! mismatch rejects the section before any of it is parsed. Nothing is
//! parsed unverified: a stream with any other magic — including the
//! checksum-free `CKB1` of earlier builds — is refused at offset 0.
//!
//! Every parse failure reports the byte offset where the stream went
//! wrong ([`KbIoError::Malformed`]). With a [fault injector]
//! (clare_fault) installed, loads see bit flips and short reads and
//! saves can be torn mid-write — the loader's contract under all of it
//! is *`Err`, never panic, never a silently wrong knowledge base*.

use crate::build::{KbBuilder, KbConfig, KbError};
use crate::predicate::KnowledgeBase;
use clare_fault::{crc32c, crc32c_append, FaultAction, FaultSite};
use clare_pif::ClauseRecord;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening a `.ckb` stream.
pub const MAGIC: &[u8; 4] = b"CKB2";

/// Longest credible string (atom or module name).
const MAX_STR_LEN: usize = 1 << 24;
/// Longest credible clause record.
const MAX_RECORD_LEN: usize = 1 << 24;
/// Longest credible section body.
const MAX_SECTION_LEN: usize = 1 << 30;
/// Bounded read unit: no length field can make us allocate more than
/// this ahead of the bytes actually arriving.
const READ_CHUNK: usize = 64 * 1024;

/// Errors from [`save`]/[`load`].
#[derive(Debug)]
pub enum KbIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a well-formed `.ckb`.
    Malformed {
        /// Byte offset (from the start of the stream) where parsing
        /// failed.
        offset: u64,
        /// What was wrong there.
        reason: String,
    },
    /// A stored clause failed to recompile.
    Build(KbError),
}

impl KbIoError {
    fn malformed(offset: u64, reason: impl Into<String>) -> Self {
        KbIoError::Malformed {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for KbIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbIoError::Io(e) => write!(f, "i/o error: {e}"),
            KbIoError::Malformed { offset, reason } => {
                write!(
                    f,
                    "malformed knowledge base file at byte {offset}: {reason}"
                )
            }
            KbIoError::Build(e) => write!(f, "rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for KbIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KbIoError::Io(e) => Some(e),
            KbIoError::Build(e) => Some(e),
            KbIoError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for KbIoError {
    fn from(e: std::io::Error) -> Self {
        KbIoError::Io(e)
    }
}

// --- fault-injecting wrappers -------------------------------------------

/// Applies installed [`FaultSite::KbRead`] faults to a byte source: bit
/// flips in delivered chunks, or a short read after which the stream
/// reports end-of-file.
struct FaultingReader<R> {
    inner: R,
    offset: u64,
    cut: bool,
}

impl<R> FaultingReader<R> {
    fn new(inner: R) -> Self {
        FaultingReader {
            inner,
            offset: 0,
            cut: false,
        }
    }
}

impl<R: Read> Read for FaultingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.cut {
            return Ok(0);
        }
        let n = self.inner.read(buf)?;
        if n > 0 && clare_fault::active() {
            match clare_fault::decide(FaultSite::KbRead, self.offset) {
                FaultAction::FlipBit { bit } => {
                    let i = (bit % (n as u64 * 8)) as usize;
                    buf[i / 8] ^= 1 << (i % 8);
                }
                FaultAction::Truncate { keep } => {
                    self.cut = true;
                    let keep = (keep % (n as u64 + 1)) as usize;
                    self.offset += keep as u64;
                    return Ok(keep);
                }
                _ => {}
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// Applies installed [`FaultSite::CkbWrite`] faults to a byte sink: a
/// torn write persists a prefix of one chunk and silently swallows the
/// rest — the save call still reports success, exactly like a power cut
/// after the OS accepted the bytes. The loader must catch it later.
struct TornWriter<W> {
    inner: W,
    offset: u64,
    torn: bool,
}

impl<W> TornWriter<W> {
    fn new(inner: W) -> Self {
        TornWriter {
            inner,
            offset: 0,
            torn: false,
        }
    }
}

impl<W: Write> Write for TornWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.torn {
            return Ok(buf.len());
        }
        if !buf.is_empty() && clare_fault::active() {
            if let FaultAction::Truncate { keep } =
                clare_fault::decide(FaultSite::CkbWrite, self.offset)
            {
                let keep = (keep % (buf.len() as u64 + 1)) as usize;
                self.inner.write_all(&buf[..keep])?;
                self.torn = true;
                self.offset += keep as u64;
                return Ok(buf.len());
            }
        }
        self.inner.write_all(buf)?;
        self.offset += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// --- offset-tracking primitives -----------------------------------------

/// A reader that knows how far into the stream it is, so every parse
/// error can say *where*.
struct Src<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> Src<R> {
    fn new(inner: R) -> Self {
        Src { inner, offset: 0 }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), KbIoError> {
        self.inner.read_exact(buf)?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, KbIoError> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf)?;
        Ok(u32::from_be_bytes(buf))
    }

    /// True when at least one more byte is readable (and consumes it).
    /// Used to reject streams with bytes after the last section — a
    /// count field corrupted downward must not silently drop modules.
    fn has_trailing_byte(&mut self) -> Result<bool, KbIoError> {
        let mut probe = [0u8; 1];
        loop {
            match self.inner.read(&mut probe) {
                Ok(0) => return Ok(false),
                Ok(_) => {
                    self.offset += 1;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// A cursor over an in-memory section body that reports absolute stream
/// offsets (`base` + position) in errors.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8], base: u64) -> Self {
        Cur {
            bytes,
            pos: 0,
            base,
        }
    }

    fn at(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], KbIoError> {
        if self.bytes.len() - self.pos < n {
            return Err(KbIoError::malformed(self.at(), "section body truncated"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, KbIoError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, KbIoError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str_(&mut self) -> Result<String, KbIoError> {
        let at = self.at();
        let len = self.u32()? as usize;
        if len > MAX_STR_LEN {
            return Err(KbIoError::malformed(at, "string length implausible"));
        }
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(KbIoError::malformed(at + 4, "non-UTF-8 string")),
        }
    }

    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_be_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_be_bytes())
}

fn write_str(w: &mut impl Write, s: &str) -> std::io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

// --- saving --------------------------------------------------------------

fn symbols_section(kb: &KnowledgeBase) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    let symbols = kb.symbols();
    write_u32(&mut body, symbols.atom_count() as u32)?;
    for (_, text) in symbols.atoms() {
        write_str(&mut body, text)?;
    }
    write_u32(&mut body, symbols.float_count() as u32)?;
    for offset in 0..symbols.float_count() {
        let value = symbols.float_value(clare_term::FloatId::from_offset(offset as u32));
        write_u64(&mut body, value.to_bits())?;
    }
    Ok(body)
}

fn module_section(module: &crate::predicate::Module) -> Result<Vec<u8>, KbIoError> {
    let mut body = Vec::new();
    write_str(&mut body, module.name())?;
    let clause_count: usize = module.predicates().iter().map(|p| p.clauses().len()).sum();
    write_u32(&mut body, clause_count as u32)?;
    for pred in module.predicates() {
        for clause in pred.clauses() {
            let record =
                ClauseRecord::compile(clause).map_err(|e| KbIoError::Build(KbError::Pif(e)))?;
            let bytes = record.to_bytes();
            write_u32(&mut body, bytes.len() as u32)?;
            body.extend_from_slice(&bytes);
        }
    }
    Ok(body)
}

/// Serializes a knowledge base as `CKB2` checksummed sections.
///
/// # Errors
///
/// Propagates I/O failures from `writer`; returns [`KbIoError::Build`]
/// if a stored clause no longer compiles (cannot happen for a knowledge
/// base built through [`KbBuilder`]).
pub fn save(kb: &KnowledgeBase, writer: &mut impl Write) -> Result<(), KbIoError> {
    let mut w = TornWriter::new(writer);
    w.write_all(MAGIC)?;
    let mut sections = vec![symbols_section(kb)?];
    for module in kb.modules() {
        sections.push(module_section(module)?);
    }
    write_u32(&mut w, sections.len() as u32)?;
    for body in &sections {
        write_u32(&mut w, body.len() as u32)?;
        write_u32(&mut w, crc32c(body))?;
        w.write_all(body)?;
    }
    w.flush()?;
    Ok(())
}

// --- loading -------------------------------------------------------------

/// Deserializes and recompiles a knowledge base under `config`. Every
/// section's checksum is verified before any of it is parsed.
///
/// # Errors
///
/// Returns [`KbIoError`] on I/O failure, malformed or corrupted data
/// (with the byte offset of the failure), or recompilation failure.
/// Never panics, whatever the input bytes.
pub fn load(reader: &mut impl Read, config: KbConfig) -> Result<KnowledgeBase, KbIoError> {
    let mut src = Src::new(FaultingReader::new(reader));
    let mut magic = [0u8; 4];
    src.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(KbIoError::malformed(0, "bad magic (not a CKB2 stream)"));
    }
    let at = src.offset;
    let section_count = src.u32()? as usize;
    if section_count == 0 {
        return Err(KbIoError::malformed(
            at,
            "no sections (symbol table missing)",
        ));
    }
    if section_count > 1 << 20 {
        return Err(KbIoError::malformed(at, "section count implausible"));
    }
    let mut builder = KbBuilder::new();
    for i in 0..section_count {
        let (body, base) = read_section(&mut src)?;
        let mut cur = Cur::new(&body, base);
        if i == 0 {
            parse_symbols(&mut cur, &mut builder)?;
        } else {
            parse_module(&mut cur, &mut builder)?;
        }
        if !cur.exhausted() {
            return Err(KbIoError::malformed(cur.at(), "trailing section bytes"));
        }
    }
    let kb = builder.try_finish(config).map_err(KbIoError::Build)?;
    if src.has_trailing_byte()? {
        return Err(KbIoError::malformed(
            src.offset - 1,
            "trailing bytes after knowledge base",
        ));
    }
    Ok(kb)
}

/// Reads one `len · crc · body` section, verifying the checksum while
/// the body streams in bounded chunks. Returns the body and its
/// absolute stream offset.
fn read_section(src: &mut Src<impl Read>) -> Result<(Vec<u8>, u64), KbIoError> {
    let header_at = src.offset;
    let len = src.u32()? as usize;
    if len > MAX_SECTION_LEN {
        return Err(KbIoError::malformed(
            header_at,
            "section length implausible",
        ));
    }
    let expected = src.u32()?;
    let base = src.offset;
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    let mut chunk = [0u8; READ_CHUNK];
    let mut running = 0u32;
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        src.read_exact(&mut chunk[..take])?;
        running = crc32c_append(running, &chunk[..take]);
        body.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    if running != expected {
        return Err(KbIoError::malformed(
            base,
            format!(
                "section checksum mismatch (stored {expected:#010x}, computed {running:#010x})"
            ),
        ));
    }
    Ok((body, base))
}

fn parse_symbols(cur: &mut Cur<'_>, builder: &mut KbBuilder) -> Result<(), KbIoError> {
    let atom_count = cur.u32()? as usize;
    for _ in 0..atom_count {
        let text = cur.str_()?;
        builder.symbols_mut().intern_atom(&text);
    }
    let float_count = cur.u32()? as usize;
    for _ in 0..float_count {
        let bits = cur.u64()?;
        builder.symbols_mut().intern_float(f64::from_bits(bits));
    }
    Ok(())
}

fn parse_module(cur: &mut Cur<'_>, builder: &mut KbBuilder) -> Result<(), KbIoError> {
    let name = cur.str_()?;
    let clause_count = cur.u32()? as usize;
    for _ in 0..clause_count {
        let at = cur.at();
        let len = cur.u32()? as usize;
        if len > MAX_RECORD_LEN {
            return Err(KbIoError::malformed(at, "record length implausible"));
        }
        let bytes = cur.take(len)?;
        let (record, used) = ClauseRecord::from_bytes(bytes)
            .map_err(|e| KbIoError::malformed(at + 4, format!("bad clause record: {e}")))?;
        if used != len {
            return Err(KbIoError::malformed(at + 4, "trailing record bytes"));
        }
        builder.add_clause(&name, record.clause().clone());
    }
    Ok(())
}

/// Saves to a filesystem path.
///
/// # Errors
///
/// As for [`save`].
pub fn save_to_path(kb: &KnowledgeBase, path: impl AsRef<Path>) -> Result<(), KbIoError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    save(kb, &mut file)
}

/// Loads from a filesystem path.
///
/// # Errors
///
/// As for [`load`].
pub fn load_from_path(
    path: impl AsRef<Path>,
    config: KbConfig,
) -> Result<KnowledgeBase, KbIoError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    load(&mut file, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::KbStats;

    fn sample_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.consult(
            "family",
            "parent(tom, bob). parent(bob, ann).
             weight('heavy item', 2.5).
             gp(X, Z) :- parent(X, Y), parent(Y, Z).",
        )
        .unwrap();
        b.consult("other", "colour(red). colour(blue).").unwrap();
        b.finish(KbConfig::default())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        save(&kb, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC);
        let loaded = load(&mut buf.as_slice(), KbConfig::default()).unwrap();
        assert_eq!(KbStats::gather(&loaded), KbStats::gather(&kb));
        assert_eq!(loaded.modules().len(), 2);
        assert_eq!(loaded.modules()[0].name(), "family");
        // Symbol offsets identical: terms compare equal across the trip.
        for (module, loaded_module) in kb.modules().iter().zip(loaded.modules()) {
            for (pred, loaded_pred) in module.predicates().iter().zip(loaded_module.predicates()) {
                assert_eq!(pred.clauses(), loaded_pred.clauses());
                assert!(pred
                    .index()
                    .iter_entries()
                    .eq(loaded_pred.index().iter_entries()));
            }
        }
        // Float survives by bit pattern.
        assert!(loaded.symbols().lookup_float(2.5).is_some());
    }

    #[test]
    fn loaded_kb_answers_queries_identically() {
        use clare_term::parser::parse_term;
        let kb = sample_kb();
        let mut buf = Vec::new();
        save(&kb, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice(), KbConfig::default()).unwrap();
        let mut symbols = loaded.symbols().clone();
        let q = parse_term("parent(tom, X)", &mut symbols).unwrap();
        let scan = |kb: &KnowledgeBase| {
            let index = kb.lookup("parent", 2).unwrap().index();
            index.scan_with_descriptor(&clare_scw::encode_query_descriptor(&q, index.config()))
        };
        assert_eq!(scan(&loaded).matches.len(), scan(&kb).matches.len());
    }

    #[test]
    fn file_roundtrip() {
        let kb = sample_kb();
        let path =
            std::env::temp_dir().join(format!("clare_kb_io_test_{}.ckb", std::process::id()));
        save_to_path(&kb, &path).unwrap();
        let loaded = load_from_path(&path, KbConfig::default()).unwrap();
        assert_eq!(loaded.clause_count(), kb.clause_count());
        std::fs::remove_file(&path).ok();
    }

    /// Anything but `CKB2` is refused at the magic, typed, before a byte
    /// of the body is parsed — including the checksum-free `CKB1` of
    /// earlier builds, here a well-formed empty knowledge base.
    #[test]
    fn bad_magic_rejected() {
        let mut ckb1 = b"CKB1".to_vec();
        ckb1.extend_from_slice(&[0u8; 12]); // no atoms, no floats, no modules
        for stream in [&b"NOPE"[..], &ckb1[..]] {
            let mut reader = stream;
            let err = load(&mut reader, KbConfig::default()).unwrap_err();
            assert!(
                matches!(err, KbIoError::Malformed { offset: 0, .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        save(&kb, &mut buf).unwrap();
        for cut in [3, buf.len() / 2, buf.len() - 1] {
            assert!(
                load(&mut buf[..cut].to_vec().as_slice(), KbConfig::default()).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn empty_kb_roundtrips() {
        let kb = KbBuilder::new().finish(KbConfig::default());
        let mut buf = Vec::new();
        save(&kb, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice(), KbConfig::default()).unwrap();
        assert_eq!(loaded.clause_count(), 0);
    }

    #[test]
    fn every_single_bit_flip_errors_with_an_offset_and_never_panics() {
        let kb = sample_kb();
        let mut clean = Vec::new();
        save(&kb, &mut clean).unwrap();
        let reference = KbStats::gather(&kb);
        // Flip every bit of the stream: the loader must either reject
        // (the overwhelmingly common case — the section CRC catches
        // payload damage, header damage trips bounds) or, never, accept
        // silently-wrong data. A flip confined to ignored header slack
        // does not exist in this format, so anything that loads must
        // gather identical stats.
        for bit in 0..clean.len() * 8 {
            let mut dirty = clean.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            match load(&mut dirty.as_slice(), KbConfig::default()) {
                Err(KbIoError::Malformed { offset, .. }) => {
                    assert!(offset <= clean.len() as u64, "offset {offset} out of range");
                }
                Err(_) => {}
                Ok(loaded) => {
                    assert_eq!(
                        KbStats::gather(&loaded),
                        reference,
                        "bit {bit} flipped into a different-but-accepted KB"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_length_fields_do_not_allocate() {
        // A CKB2 header claiming a section of MAX_SECTION_LEN bytes with
        // no body behind it: the chunked reader must fail at EOF having
        // allocated at most one chunk.
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        evil.extend_from_slice(&1u32.to_be_bytes()); // one section
        evil.extend_from_slice(&(MAX_SECTION_LEN as u32).to_be_bytes());
        evil.extend_from_slice(&0u32.to_be_bytes()); // bogus crc
        assert!(load(&mut evil.as_slice(), KbConfig::default()).is_err());

        // Section length over the cap is rejected before any read.
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        evil.extend_from_slice(&1u32.to_be_bytes());
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        evil.extend_from_slice(&0u32.to_be_bytes());
        match load(&mut evil.as_slice(), KbConfig::default()) {
            Err(KbIoError::Malformed { offset, reason }) => {
                assert_eq!(offset, 8);
                assert!(reason.contains("section length"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }

        // Same for a hostile record length inside a module section whose
        // checksum is valid (a writer bug, not line noise).
        let mut module = Vec::new();
        write_str(&mut module, "m").unwrap();
        module.extend_from_slice(&1u32.to_be_bytes()); // one clause
        module.extend_from_slice(&u32::MAX.to_be_bytes()); // hostile record len
        let symbols = [0u8; 8]; // no atoms, no floats
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        evil.extend_from_slice(&2u32.to_be_bytes());
        for body in [&symbols[..], &module[..]] {
            evil.extend_from_slice(&(body.len() as u32).to_be_bytes());
            evil.extend_from_slice(&crc32c(body).to_be_bytes());
            evil.extend_from_slice(body);
        }
        match load(&mut evil.as_slice(), KbConfig::default()) {
            Err(KbIoError::Malformed { reason, .. }) => {
                assert!(reason.contains("record length"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn torn_saves_are_caught_by_the_loader() {
        use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
        let kb = sample_kb();
        let reference = KbStats::gather(&kb);
        let plan = FaultPlan::none().with(FaultSite::CkbWrite, 400);
        let mut torn_seen = 0;
        for seed in 0..40u64 {
            let buf = {
                let _guard = clare_fault::install(std::sync::Arc::new(DeterministicInjector::new(
                    seed, plan,
                )));
                let mut buf = Vec::new();
                save(&kb, &mut buf).unwrap(); // a torn save still "succeeds"
                buf
            };
            // Correct-or-flagged: the file either loads back identical or
            // the loader rejects it — never panics, never loads wrong.
            match load(&mut buf.as_slice(), KbConfig::default()) {
                Ok(loaded) => assert_eq!(KbStats::gather(&loaded), reference, "seed {seed}"),
                Err(_) => torn_seen += 1,
            }
        }
        assert!(torn_seen > 0, "a 40% torn-write plan never tore a save");
    }

    #[test]
    fn faulted_reads_error_or_load_identically() {
        use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
        let kb = sample_kb();
        let reference = KbStats::gather(&kb);
        let mut clean = Vec::new();
        save(&kb, &mut clean).unwrap();
        let plan = FaultPlan::none().with(FaultSite::KbRead, 300);
        let mut rejected = 0;
        for seed in 0..40u64 {
            let _guard =
                clare_fault::install(std::sync::Arc::new(DeterministicInjector::new(seed, plan)));
            match load(&mut clean.as_slice(), KbConfig::default()) {
                Ok(loaded) => assert_eq!(KbStats::gather(&loaded), reference, "seed {seed}"),
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 0, "a 30% read-fault plan never corrupted a load");
    }
}
