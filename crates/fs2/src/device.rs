//! `Fs2Device` — the board as the host sees it.
//!
//! Ties the control register's mode protocol to the engine, Double Buffer,
//! and Result Memory: load the microprogram (Microprogramming mode), write
//! the query (Set Query mode), stream a track (Search mode), then harvest
//! satisfiers (Read Result mode). Mode violations are errors, mirroring a
//! driver driving the real register.

use crate::buffer::DoubleBuffer;
use crate::control::{ControlRegister, FilterSelect, OperationalMode};
use crate::engine::Fs2Engine;
use crate::micro::Microprogram;
use crate::result::{ResultMemory, ResultOverflow};
use clare_disk::{SimNanos, Track};
use clare_pif::{ClauseRecord, PifStream};
use std::fmt;

/// Errors from driving the device out of protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Fs2Error {
    /// The requested action needs a different operational mode.
    WrongMode {
        /// Mode the device is in.
        current: OperationalMode,
        /// Mode the action needs.
        needed: OperationalMode,
    },
    /// Search was started before loading a microprogram and a query.
    NotReady,
    /// The query stream exceeds the Query Memory.
    QueryTooLarge(crate::memory::QueryTooLargeError),
    /// A record in the track could not be parsed.
    BadRecord(clare_pif::PifError),
    /// The Result Memory overflowed mid-track.
    Overflow(ResultOverflow),
}

impl fmt::Display for Fs2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fs2Error::WrongMode { current, needed } => {
                write!(f, "device is in {current} mode but {needed} is required")
            }
            Fs2Error::NotReady => f.write_str("search started without microprogram and query"),
            Fs2Error::QueryTooLarge(e) => write!(f, "{e}"),
            Fs2Error::BadRecord(e) => write!(f, "bad clause record: {e}"),
            Fs2Error::Overflow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Fs2Error {}

/// Statistics from one search call (one track).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Clauses examined.
    pub clauses: u64,
    /// Clauses captured as satisfiers.
    pub satisfiers: u64,
    /// Total FS2 matching time (sum over clauses of operation times).
    pub match_time: SimNanos,
    /// PIF head-stream bytes the engine actually walked.
    pub stream_bytes: u64,
    /// Histogram over [`HwOp::ALL`](crate::ops::HwOp::ALL) of every
    /// operation performed.
    pub op_histogram: [u64; 7],
}

impl SearchStats {
    /// Merges another track's stats into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.clauses += other.clauses;
        self.satisfiers += other.satisfiers;
        self.match_time += other.match_time;
        self.stream_bytes += other.stream_bytes;
        for (a, b) in self.op_histogram.iter_mut().zip(other.op_histogram) {
            *a += b;
        }
    }
}

/// The FS2 board.
///
/// # Examples
///
/// ```
/// use clare_fs2::{Fs2Device, Microprogram, OperationalMode};
/// use clare_pif::{encode_query, ClauseRecord};
/// use clare_term::{SymbolTable, parser::{parse_term, parse_clause}};
/// use clare_disk::FileBuilder;
///
/// let mut sy = SymbolTable::new();
/// let mut device = Fs2Device::new();
/// device.set_mode(OperationalMode::Microprogramming);
/// device.load_program(&Microprogram::standard())?;
/// device.set_mode(OperationalMode::SetQuery);
/// device.set_query(&encode_query(&parse_term("p(a, X)", &mut sy)?)?)?;
///
/// let mut builder = FileBuilder::new(16 * 1024);
/// for src in ["p(a, 1).", "p(b, 2).", "p(a, 3)."] {
///     let record = ClauseRecord::compile(&parse_clause(src, &mut sy)?)?;
///     builder.append_record(&record.to_bytes())?;
/// }
/// let file = builder.finish("p.pdb");
///
/// device.set_mode(OperationalMode::Search);
/// let stats = device.search_track(&file.tracks()[0])?;
/// assert_eq!(stats.clauses, 3);
/// assert_eq!(stats.satisfiers, 2);
///
/// device.set_mode(OperationalMode::ReadResult);
/// assert_eq!(device.read_results()?.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Fs2Device {
    control: ControlRegister,
    engine: Option<Fs2Engine<'static>>,
    buffer: DoubleBuffer,
    result: ResultMemory,
    programmed: bool,
}

impl Fs2Device {
    /// A powered-up board: FS2 selected, Read Result mode, nothing loaded.
    pub fn new() -> Self {
        let mut control = ControlRegister::new();
        control.select_filter(FilterSelect::Fs2);
        Fs2Device {
            control,
            engine: None,
            buffer: DoubleBuffer::new(),
            result: ResultMemory::new(),
            programmed: false,
        }
    }

    /// The control register (host view).
    pub fn control(&self) -> ControlRegister {
        self.control
    }

    /// Sets the operational mode bits.
    pub fn set_mode(&mut self, mode: OperationalMode) {
        self.control.set_mode(mode);
    }

    fn require_mode(&self, needed: OperationalMode) -> Result<(), Fs2Error> {
        if self.control.mode() == needed {
            Ok(())
        } else {
            Err(Fs2Error::WrongMode {
                current: self.control.mode(),
                needed,
            })
        }
    }

    /// Loads `program` into the WCS (Microprogramming mode): checks that
    /// it fits the 2048-word store and marks the device programmed. Every
    /// program is [`Microprogram::standard`], the Level-3 program every
    /// search uses, and it fits.
    ///
    /// # Errors
    ///
    /// [`Fs2Error::WrongMode`].
    pub fn load_program(&mut self, program: &Microprogram) -> Result<(), Fs2Error> {
        self.require_mode(OperationalMode::Microprogramming)?;
        program
            .check_fits()
            .expect("the standard microprogram fits the WCS");
        self.programmed = true;
        Ok(())
    }

    /// Writes the query argument words (Set Query mode).
    ///
    /// # Errors
    ///
    /// [`Fs2Error::WrongMode`] or [`Fs2Error::QueryTooLarge`].
    pub fn set_query(&mut self, stream: &PifStream) -> Result<(), Fs2Error> {
        self.require_mode(OperationalMode::SetQuery)?;
        let engine = Fs2Engine::new(stream).map_err(Fs2Error::QueryTooLarge)?;
        self.engine = Some(engine.into_owned());
        Ok(())
    }

    /// Streams one disk track through the filter (Search mode). Satisfiers
    /// are captured into the Result Memory; the Result Memory is reset at
    /// the start of the call (one search call = one track, its worst
    /// case).
    ///
    /// # Errors
    ///
    /// [`Fs2Error::WrongMode`], [`Fs2Error::NotReady`],
    /// [`Fs2Error::BadRecord`], or [`Fs2Error::Overflow`].
    pub fn search_track(&mut self, track: &Track) -> Result<SearchStats, Fs2Error> {
        self.require_mode(OperationalMode::Search)?;
        if !self.programmed {
            return Err(Fs2Error::NotReady);
        }
        let engine = self.engine.as_mut().ok_or(Fs2Error::NotReady)?;
        self.result.reset();
        let mut stats = SearchStats::default();
        for record_bytes in track.records() {
            self.buffer.fill(record_bytes);
            let (record, _) =
                ClauseRecord::from_bytes(self.buffer.output()).map_err(Fs2Error::BadRecord)?;
            let verdict = engine.match_clause_words(record.head_stream().words());
            stats.clauses += 1;
            stats.match_time += verdict.time;
            stats.stream_bytes += record.head_stream().byte_len() as u64;
            for (total, count) in stats.op_histogram.iter_mut().zip(verdict.op_histogram) {
                *total += count as u64;
            }
            if verdict.matched {
                self.result
                    .capture(record_bytes)
                    .map_err(Fs2Error::Overflow)?;
                stats.satisfiers += 1;
            }
        }
        self.control.set_match_found(!self.result.is_empty());
        Ok(stats)
    }

    /// True if the last search captured at least one satisfier (control
    /// register bit 7).
    pub fn match_found(&self) -> bool {
        self.control.match_found()
    }

    /// Reads the captured satisfier records (Read Result mode), draining
    /// the Result Memory.
    ///
    /// # Errors
    ///
    /// [`Fs2Error::WrongMode`].
    pub fn read_results(&mut self) -> Result<Vec<Vec<u8>>, Fs2Error> {
        self.require_mode(OperationalMode::ReadResult)?;
        Ok(self.result.drain())
    }
}

impl Default for Fs2Device {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_disk::FileBuilder;
    use clare_pif::encode_query;
    use clare_term::parser::{parse_clause, parse_term};
    use clare_term::SymbolTable;

    fn make_track(clauses: &[&str], sy: &mut SymbolTable) -> clare_disk::StoredFile {
        let mut b = FileBuilder::new(16 * 1024);
        for src in clauses {
            let record = ClauseRecord::compile(&parse_clause(src, sy).unwrap()).unwrap();
            b.append_record(&record.to_bytes()).unwrap();
        }
        b.finish("test.pdb")
    }

    fn ready_device(query: &str, sy: &mut SymbolTable) -> Fs2Device {
        let mut d = Fs2Device::new();
        d.set_mode(OperationalMode::Microprogramming);
        d.load_program(&Microprogram::standard()).unwrap();
        d.set_mode(OperationalMode::SetQuery);
        d.set_query(&encode_query(&parse_term(query, sy).unwrap()).unwrap())
            .unwrap();
        d.set_mode(OperationalMode::Search);
        d
    }

    #[test]
    fn full_protocol_roundtrip() {
        let mut sy = SymbolTable::new();
        let file = make_track(&["q(a, 1).", "q(b, 2).", "q(a, 3).", "q(c, 4)."], &mut sy);
        let mut d = ready_device("q(a, X)", &mut sy);
        let stats = d.search_track(&file.tracks()[0]).unwrap();
        assert_eq!(stats.clauses, 4);
        assert_eq!(stats.satisfiers, 2);
        assert!(d.match_found());
        assert!(stats.match_time.as_ns() > 0);
        d.set_mode(OperationalMode::ReadResult);
        let results = d.read_results().unwrap();
        assert_eq!(results.len(), 2);
        // The records decode back to the matching clauses, in order.
        let (r0, _) = ClauseRecord::from_bytes(&results[0]).unwrap();
        let c0 = parse_clause("q(a, 1).", &mut sy).unwrap();
        assert_eq!(r0.clause().head(), c0.head());
    }

    #[test]
    fn mode_protocol_enforced() {
        let mut sy = SymbolTable::new();
        let mut d = Fs2Device::new();
        // Loading a microprogram in Read Result mode fails.
        assert!(matches!(
            d.load_program(&Microprogram::standard()),
            Err(Fs2Error::WrongMode { .. })
        ));
        // Setting a query in Microprogramming mode fails.
        d.set_mode(OperationalMode::Microprogramming);
        let q = encode_query(&parse_term("p(a)", &mut sy).unwrap()).unwrap();
        assert!(matches!(d.set_query(&q), Err(Fs2Error::WrongMode { .. })));
        // Searching before readiness fails.
        d.set_mode(OperationalMode::Search);
        let file = make_track(&["p(a)."], &mut sy);
        assert!(matches!(
            d.search_track(&file.tracks()[0]),
            Err(Fs2Error::NotReady)
        ));
    }

    #[test]
    fn real_microprogram_loads_into_wcs() {
        let mut d = Fs2Device::new();
        d.set_mode(OperationalMode::Microprogramming);
        let program = Microprogram::standard();
        d.load_program(&program).unwrap();
        // The device is search-ready once a query is set.
        let mut sy = SymbolTable::new();
        d.set_mode(OperationalMode::SetQuery);
        d.set_query(&encode_query(&parse_term("p(a)", &mut sy).unwrap()).unwrap())
            .unwrap();
        d.set_mode(OperationalMode::Search);
        let file = make_track(&["p(a)."], &mut sy);
        assert_eq!(d.search_track(&file.tracks()[0]).unwrap().satisfiers, 1);
    }

    #[test]
    fn no_match_clears_flag() {
        let mut sy = SymbolTable::new();
        let file = make_track(&["r(x).", "r(y)."], &mut sy);
        let mut d = ready_device("r(z)", &mut sy);
        let stats = d.search_track(&file.tracks()[0]).unwrap();
        assert_eq!(stats.satisfiers, 0);
        assert!(!d.match_found());
    }

    #[test]
    fn result_memory_resets_between_tracks() {
        let mut sy = SymbolTable::new();
        let file = make_track(&["s(a).", "s(a)."], &mut sy);
        let mut d = ready_device("s(a)", &mut sy);
        d.search_track(&file.tracks()[0]).unwrap();
        let again = d.search_track(&file.tracks()[0]).unwrap();
        assert_eq!(again.satisfiers, 2, "not accumulated across calls");
        d.set_mode(OperationalMode::ReadResult);
        assert_eq!(d.read_results().unwrap().len(), 2);
    }

    #[test]
    fn result_memory_overflow_surfaces_as_error() {
        // 100 tiny clauses that all match an open query: the 65th capture
        // exceeds the 6-bit satisfier counter.
        let mut sy = SymbolTable::new();
        let clauses: Vec<String> = (0..100).map(|i| format!("m(v{i}).")).collect();
        let refs: Vec<&str> = clauses.iter().map(String::as_str).collect();
        let file = make_track(&refs, &mut sy);
        let mut d = ready_device("m(X)", &mut sy);
        let err = d.search_track(&file.tracks()[0]).unwrap_err();
        assert!(matches!(
            err,
            Fs2Error::Overflow(crate::result::ResultOverflow::SatisfierCount { slots: 64 })
        ));
    }

    #[test]
    fn corrupt_record_surfaces_as_error() {
        let mut sy = SymbolTable::new();
        let mut fb = FileBuilder::new(16 * 1024);
        fb.append_record(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02])
            .unwrap();
        let file = fb.finish("corrupt");
        let mut d = ready_device("m(X)", &mut sy);
        assert!(matches!(
            d.search_track(&file.tracks()[0]),
            Err(Fs2Error::BadRecord(_))
        ));
    }

    #[test]
    fn op_histogram_populated() {
        let mut sy = SymbolTable::new();
        let file = make_track(&["t(a, a).", "t(A, A)."], &mut sy);
        let mut d = ready_device("t(a, a)", &mut sy);
        let stats = d.search_track(&file.tracks()[0]).unwrap();
        // Clause 1: MATCH MATCH; clause 2: DB_STORE DB_FETCH.
        assert_eq!(stats.op_histogram[0], 2); // Match
        assert_eq!(stats.op_histogram[1], 1); // DbStore
        assert_eq!(stats.op_histogram[3], 1); // DbFetch
        assert_eq!(stats.satisfiers, 2);
        let total_ops: u64 = stats.op_histogram.iter().sum();
        assert_eq!(total_ops, 4);
    }
}
