//! The Test Unification Engine's two memory banks (Figure 5).
//!
//! * **Query Memory** — pre-loaded in Set Query mode with the query's PIF
//!   argument words; also holds one binding cell per query variable
//!   (QUERY_STORE writes the database argument into "the location of the
//!   Query Memory which is addressed by the content field of the query
//!   argument").
//! * **DB Memory** — dual-ported, "used for storing bindings of database
//!   variables at run time. It is reset to pointing to itself at the
//!   beginning of each clause input."
//!
//! Cells hold raw 32-bit PIF words. An *unbound* cell holds a variable
//! word referencing itself — the hardware's self-pointer idiom — so
//! resolution is a chain of word reads that terminates at a self-reference
//! or a non-variable word.

use clare_pif::tags::{TAG_SUB_DV, TAG_SUB_QV};
use clare_pif::PifWord;
use std::borrow::Cow;

/// Query Memory capacity in words: the query address travels on microcode
/// bits 13–20, an 8-bit field.
pub const QUERY_MEMORY_WORDS: usize = 256;

/// Builds the raw self-reference word for a query-variable cell.
pub fn qv_self_word(offset: u32) -> u32 {
    ((TAG_SUB_QV as u32) << 24) | (offset & 0x00FF_FFFF)
}

/// Builds the raw self-reference word for a database-variable cell.
pub fn dv_self_word(offset: u32) -> u32 {
    ((TAG_SUB_DV as u32) << 24) | (offset & 0x00FF_FFFF)
}

/// A bank of variable-binding cells initialised to self-references.
#[derive(Debug, Clone)]
pub struct CellBank {
    cells: Vec<u32>,
    self_word: fn(u32) -> u32,
}

impl CellBank {
    /// A bank for query variables.
    pub fn query_vars(count: usize) -> Self {
        let mut bank = CellBank {
            cells: Vec::new(),
            self_word: qv_self_word,
        };
        bank.reset(count);
        bank
    }

    /// A bank for database variables.
    pub fn db_vars(count: usize) -> Self {
        let mut bank = CellBank {
            cells: Vec::new(),
            self_word: dv_self_word,
        };
        bank.reset(count);
        bank
    }

    /// Resets to `count` unbound (self-referencing) cells — what the
    /// hardware does "at the beginning of each clause input".
    pub fn reset(&mut self, count: usize) {
        self.cells.clear();
        self.cells.extend((0..count as u32).map(self.self_word));
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the bank has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads a cell's raw word.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range (a malformed stream; encoders
    /// number variables densely from zero).
    pub fn read(&self, offset: u32) -> u32 {
        self.cells[offset as usize]
    }

    /// Writes a cell.
    pub fn write(&mut self, offset: u32, raw: u32) {
        self.cells[offset as usize] = raw;
    }

    /// True if the cell still holds its self-reference (unbound).
    pub fn is_unbound(&self, offset: u32) -> bool {
        self.cells[offset as usize] == (self.self_word)(offset)
    }
}

/// The pre-loaded query side: the argument word stream plus the
/// query-variable cell region. The stream is borrowed from the caller's
/// [`PifStream`](clare_pif::PifStream), which outlives the retrieval, so
/// loading a query copies nothing.
#[derive(Debug, Clone)]
pub struct QueryMemory<'q> {
    stream: Cow<'q, [PifWord]>,
    n_vars: usize,
}

/// Error loading a query: the stream (plus variable cells) exceeds the
/// 8-bit addressable Query Memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTooLargeError {
    /// Words required.
    pub required: usize,
}

impl std::fmt::Display for QueryTooLargeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query needs {} words but the Query Memory holds {}",
            self.required, QUERY_MEMORY_WORDS
        )
    }
}

impl std::error::Error for QueryTooLargeError {}

impl<'q> QueryMemory<'q> {
    /// Loads a query stream (Set Query mode).
    ///
    /// # Errors
    ///
    /// Returns [`QueryTooLargeError`] if the stream plus one cell per
    /// query variable exceeds [`QUERY_MEMORY_WORDS`].
    pub fn load(stream: &'q clare_pif::PifStream) -> Result<Self, QueryTooLargeError> {
        let n_vars = stream
            .words()
            .iter()
            .filter_map(|w| match w.type_tag() {
                clare_pif::TypeTag::QueryVar { .. } => Some(w.content() + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0) as usize;
        let required = stream.len() + n_vars;
        if required > QUERY_MEMORY_WORDS {
            return Err(QueryTooLargeError { required });
        }
        Ok(QueryMemory {
            stream: Cow::Borrowed(stream.words()),
            n_vars,
        })
    }

    /// The same Query Memory holding its own copy of the stream.
    pub fn into_owned(self) -> QueryMemory<'static> {
        QueryMemory {
            stream: Cow::Owned(self.stream.into_owned()),
            n_vars: self.n_vars,
        }
    }

    /// The query argument words.
    pub fn stream(&self) -> &[PifWord] {
        &self.stream
    }

    /// Number of distinct query variables.
    pub fn var_count(&self) -> usize {
        self.n_vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_pif::encode_query;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    #[test]
    fn self_words_carry_tag_and_offset() {
        assert_eq!(qv_self_word(5) >> 24, TAG_SUB_QV as u32);
        assert_eq!(qv_self_word(5) & 0xFF_FFFF, 5);
        assert_eq!(dv_self_word(9) >> 24, TAG_SUB_DV as u32);
    }

    #[test]
    fn bank_starts_unbound_and_binds() {
        let mut bank = CellBank::db_vars(3);
        assert!(bank.is_unbound(0));
        assert!(bank.is_unbound(2));
        bank.write(1, 0x0800_0007); // atom word
        assert!(!bank.is_unbound(1));
        assert_eq!(bank.read(1), 0x0800_0007);
        bank.reset(3);
        assert!(bank.is_unbound(1), "reset restores self-references");
    }

    #[test]
    fn query_memory_counts_vars() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(X, a, Y, X)", &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let qm = QueryMemory::load(&stream).unwrap();
        assert_eq!(qm.var_count(), 2);
        assert_eq!(qm.stream().len(), 4);
    }

    #[test]
    fn oversized_query_rejected() {
        let mut sy = SymbolTable::new();
        let args: Vec<String> = (0..300).map(|i| format!("a{i}")).collect();
        let q = parse_term(&format!("p({})", args.join(", ")), &mut sy).unwrap();
        let err = QueryMemory::load(&encode_query(&q).unwrap()).unwrap_err();
        assert_eq!(err.required, 300);
    }

    #[test]
    fn ground_query_has_zero_cells() {
        let mut sy = SymbolTable::new();
        let q = parse_term("f(a, b)", &mut sy).unwrap();
        let stream = encode_query(&q).unwrap();
        let qm = QueryMemory::load(&stream).unwrap();
        assert_eq!(qm.var_count(), 0);
    }
}
