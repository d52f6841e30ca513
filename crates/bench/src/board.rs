//! The CLARE board as a whole: both filter stages behind the shared
//! VMEbus window.
//!
//! "Both filtering stages, FS1 and FS2, appear in the form of plug-in
//! circuit boards. A common address space from ffff7e00(hex) to
//! ffff7fff(hex) … is shared by FS1 and FS2. The two filters are mutually
//! exclusive. The selection between the two is governed by the third
//! least significant bit, b₂, of an 8-bit control register — a 0 in b₂
//! selects FS1 and a 1 selects FS2." (§2.2.)
//!
//! [`ClareBoard`] enforces exactly that: driving the deselected filter is
//! an error, and the control register is shared between the stages.

use clare_fs2::control::{VME_WINDOW_END, VME_WINDOW_START};
use clare_fs2::device::Fs2Error;
use clare_fs2::{ControlRegister, FilterSelect, Fs2Device, OperationalMode};
use clare_scw::ClauseAddr;
use clare_scw::{encode_query_descriptor, IndexFile, QueryDescriptor, ScanOutcome, ScwConfig};
use clare_term::Term;
use std::fmt;

/// Errors from driving the board against its select bit.
#[derive(Debug, Clone, PartialEq)]
pub enum BoardError {
    /// The addressed filter is not the one b₂ selects.
    FilterNotSelected {
        /// The filter currently mapped into the window.
        selected: FilterSelect,
    },
    /// An FS2 protocol error.
    Fs2(Fs2Error),
    /// The FS1 stage was driven out of its mode protocol.
    Fs1Protocol {
        /// The mode the register is in.
        current: OperationalMode,
        /// The mode the action needs.
        needed: OperationalMode,
    },
    /// An FS1 search started before a query descriptor was loaded.
    Fs1NotReady,
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::FilterNotSelected { selected } => write!(
                f,
                "the shared window currently addresses {selected:?}; flip control bit b2 first"
            ),
            BoardError::Fs2(e) => write!(f, "{e}"),
            BoardError::Fs1Protocol { current, needed } => {
                write!(f, "FS1 stage is in {current} mode but {needed} is required")
            }
            BoardError::Fs1NotReady => f.write_str("FS1 search started without a query descriptor"),
        }
    }
}

impl std::error::Error for BoardError {}

impl From<Fs2Error> for BoardError {
    fn from(e: Fs2Error) -> Self {
        BoardError::Fs2(e)
    }
}

/// Both CLARE filter boards behind one control register.
///
/// # Examples
///
/// ```
/// use clare_bench::board::ClareBoard;
/// use clare_fs2::FilterSelect;
///
/// let mut board = ClareBoard::new();
/// board.select(FilterSelect::Fs2);
/// assert!(board.fs2_mut().is_ok());
/// board.select(FilterSelect::Fs1);
/// assert!(board.fs2_mut().is_err(), "FS2 unmapped while FS1 selected");
/// ```
#[derive(Debug)]
pub struct ClareBoard {
    control: ControlRegister,
    fs2: Fs2Device,
    fs1_descriptor: Option<QueryDescriptor>,
    fs1_results: Vec<ClauseAddr>,
}

impl ClareBoard {
    /// A powered-up board: FS1 selected (b₂ = 0), Read Result mode.
    pub fn new() -> Self {
        ClareBoard {
            control: ControlRegister::new(),
            fs2: Fs2Device::new(),
            fs1_descriptor: None,
            fs1_results: Vec::new(),
        }
    }

    /// The first byte of the shared VME window.
    pub fn window_start() -> u32 {
        VME_WINDOW_START
    }

    /// The last byte of the shared VME window.
    pub fn window_end() -> u32 {
        VME_WINDOW_END
    }

    /// The shared control register, as the host reads it.
    pub fn control(&self) -> ControlRegister {
        self.control
    }

    /// Flips the b₂ select bit.
    pub fn select(&mut self, filter: FilterSelect) {
        self.control.select_filter(filter);
    }

    /// Which filter the window currently addresses.
    pub fn selected(&self) -> FilterSelect {
        self.control.filter()
    }

    /// Sets the operational mode bits (shared register; they apply to
    /// whichever filter is selected).
    pub fn set_mode(&mut self, mode: OperationalMode) {
        self.control.set_mode(mode);
        self.fs2.set_mode(mode);
    }

    /// Access to the FS2 device.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::FilterNotSelected`] while b₂ selects FS1.
    pub fn fs2_mut(&mut self) -> Result<&mut Fs2Device, BoardError> {
        if self.selected() == FilterSelect::Fs2 {
            Ok(&mut self.fs2)
        } else {
            Err(BoardError::FilterNotSelected {
                selected: self.selected(),
            })
        }
    }

    /// Runs an FS1 index scan through the board (one-shot convenience:
    /// encodes the query and scans, regardless of operational mode).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::FilterNotSelected`] while b₂ selects FS2.
    pub fn fs1_scan(&mut self, index: &IndexFile, query: &Term) -> Result<ScanOutcome, BoardError> {
        if self.selected() != FilterSelect::Fs1 {
            return Err(BoardError::FilterNotSelected {
                selected: self.selected(),
            });
        }
        let outcome = index.scan_with_descriptor(&encode_query_descriptor(query, index.config()));
        self.control.set_match_found(!outcome.matches.is_empty());
        Ok(outcome)
    }

    fn require_fs1(&self, needed: OperationalMode) -> Result<(), BoardError> {
        if self.selected() != FilterSelect::Fs1 {
            return Err(BoardError::FilterNotSelected {
                selected: self.selected(),
            });
        }
        if self.control.mode() != needed {
            return Err(BoardError::Fs1Protocol {
                current: self.control.mode(),
                needed,
            });
        }
        Ok(())
    }

    /// Compiles and loads the FS1 query descriptor (Set Query mode, FS1
    /// selected) — the register-level protocol, symmetric with FS2.
    ///
    /// # Errors
    ///
    /// [`BoardError::FilterNotSelected`] or [`BoardError::Fs1Protocol`].
    pub fn fs1_set_query(&mut self, query: &Term, config: &ScwConfig) -> Result<(), BoardError> {
        self.require_fs1(OperationalMode::SetQuery)?;
        self.fs1_descriptor = Some(encode_query_descriptor(query, config));
        self.fs1_results.clear();
        Ok(())
    }

    /// Streams a secondary file through the loaded descriptor (Search
    /// mode), accumulating clause addresses.
    ///
    /// # Errors
    ///
    /// [`BoardError::FilterNotSelected`], [`BoardError::Fs1Protocol`], or
    /// [`BoardError::Fs1NotReady`].
    pub fn fs1_search(&mut self, index: &IndexFile) -> Result<usize, BoardError> {
        self.require_fs1(OperationalMode::Search)?;
        let descriptor = self
            .fs1_descriptor
            .as_ref()
            .ok_or(BoardError::Fs1NotReady)?;
        let outcome = index.scan_with_descriptor(descriptor);
        let found = outcome.matches.len();
        self.fs1_results.extend(outcome.matches);
        self.control.set_match_found(!self.fs1_results.is_empty());
        Ok(found)
    }

    /// Reads (and drains) the accumulated FS1 matches (Read Result mode).
    ///
    /// # Errors
    ///
    /// [`BoardError::FilterNotSelected`] or [`BoardError::Fs1Protocol`].
    pub fn fs1_read_results(&mut self) -> Result<Vec<ClauseAddr>, BoardError> {
        self.require_fs1(OperationalMode::ReadResult)?;
        Ok(std::mem::take(&mut self.fs1_results))
    }

    /// The match-found flag (b₇) from the last operation on either stage.
    pub fn match_found(&self) -> bool {
        self.control.match_found() || self.fs2.match_found()
    }
}

impl Default for ClareBoard {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_pif::encode_query;
    use clare_scw::{ClauseAddr, ScwConfig};
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    #[test]
    fn powers_up_with_fs1_selected() {
        let board = ClareBoard::new();
        assert_eq!(board.selected(), FilterSelect::Fs1);
        assert!(!board.match_found());
    }

    #[test]
    fn mutual_exclusivity_enforced() {
        let mut board = ClareBoard::new();
        let mut sy = SymbolTable::new();
        let q = parse_term("p(a)", &mut sy).unwrap();
        let index = IndexFile::new(ScwConfig::paper());
        // FS1 selected: FS1 works, FS2 is unmapped.
        assert!(board.fs1_scan(&index, &q).is_ok());
        assert!(matches!(
            board.fs2_mut(),
            Err(BoardError::FilterNotSelected { .. })
        ));
        // Flip b2: the situation inverts.
        board.select(FilterSelect::Fs2);
        assert!(board.fs2_mut().is_ok());
        assert!(matches!(
            board.fs1_scan(&index, &q),
            Err(BoardError::FilterNotSelected { .. })
        ));
    }

    #[test]
    fn fs1_scan_sets_match_flag() {
        let mut board = ClareBoard::new();
        let mut sy = SymbolTable::new();
        let mut index = IndexFile::new(ScwConfig::paper());
        let head = parse_term("p(a)", &mut sy).unwrap();
        index.insert(&head, ClauseAddr::new(0, 0));
        let q = parse_term("p(a)", &mut sy).unwrap();
        let outcome = board.fs1_scan(&index, &q).unwrap();
        assert_eq!(outcome.matches.len(), 1);
        assert!(board.match_found());
        // A missing query clears it.
        let miss = parse_term("p(zzz)", &mut sy).unwrap();
        board.fs1_scan(&index, &miss).unwrap();
        assert!(!board.match_found());
    }

    #[test]
    fn full_fs2_protocol_through_the_board() {
        let mut board = ClareBoard::new();
        board.select(FilterSelect::Fs2);
        board.set_mode(OperationalMode::Microprogramming);
        let program = clare_fs2::Microprogram::standard();
        board.fs2_mut().unwrap().load_program(&program).unwrap();
        board.set_mode(OperationalMode::SetQuery);
        let mut sy = SymbolTable::new();
        let q = parse_term("p(a)", &mut sy).unwrap();
        board
            .fs2_mut()
            .unwrap()
            .set_query(&encode_query(&q).unwrap())
            .unwrap();
        board.set_mode(OperationalMode::Search);
        // Build one track with a hit.
        let mut fb = clare_disk::FileBuilder::new(16 * 1024);
        let clause = clare_term::parser::parse_clause("p(a).", &mut sy).unwrap();
        fb.append_record(
            &clare_pif::ClauseRecord::compile(&clause)
                .unwrap()
                .to_bytes(),
        )
        .unwrap();
        let file = fb.finish("t");
        let stats = board
            .fs2_mut()
            .unwrap()
            .search_track(&file.tracks()[0])
            .unwrap();
        assert_eq!(stats.satisfiers, 1);
        assert!(board.match_found());
    }

    #[test]
    fn fs1_register_protocol() {
        let mut board = ClareBoard::new();
        let mut sy = SymbolTable::new();
        let config = ScwConfig::paper();
        let mut index = IndexFile::new(config);
        for (i, src) in ["p(a)", "p(b)", "p(a)"].iter().enumerate() {
            let head = parse_term(src, &mut sy).unwrap();
            index.insert(&head, ClauseAddr::new(0, i as u16));
        }
        let q = parse_term("p(a)", &mut sy).unwrap();
        // Searching before Set Query is a protocol error.
        board.set_mode(OperationalMode::Search);
        assert!(matches!(
            board.fs1_search(&index),
            Err(BoardError::Fs1NotReady)
        ));
        // Setting the query in the wrong mode is a protocol error.
        assert!(matches!(
            board.fs1_set_query(&q, &config),
            Err(BoardError::Fs1Protocol { .. })
        ));
        // The correct sequence works.
        board.set_mode(OperationalMode::SetQuery);
        board.fs1_set_query(&q, &config).unwrap();
        board.set_mode(OperationalMode::Search);
        assert_eq!(board.fs1_search(&index).unwrap(), 2);
        assert!(board.match_found());
        board.set_mode(OperationalMode::ReadResult);
        let results = board.fs1_read_results().unwrap();
        assert_eq!(results, vec![ClauseAddr::new(0, 0), ClauseAddr::new(0, 2)]);
        // Draining empties the result store.
        assert!(board.fs1_read_results().unwrap().is_empty());
    }

    #[test]
    fn window_bounds_exposed() {
        assert_eq!(ClareBoard::window_start(), 0xffff_7e00);
        assert_eq!(ClareBoard::window_end(), 0xffff_7fff);
    }
}
