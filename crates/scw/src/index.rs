//! The secondary index file and the FS1 scanner.
//!
//! "For fast searching in large files, codewords are generated for facts
//! and rule heads and these are maintained in a secondary file. The
//! secondary file is effectively an index table associating codewords with
//! clause addresses." (§2.1.)
//!
//! # Bit-sliced layout
//!
//! The index stores its entries transposed: one bitmap per codeword bit,
//! in which bit `j` of word `w` says whether entry `64 w + j` has that
//! bit, and per encoded argument position two more bitmaps marking the
//! entries whose mask there is [`ArgMask::Open`] or [`ArgMask::Var`]
//! (`Ground` is neither). Clause addresses are not stored per entry:
//! entries go in track-major (see [`IndexFile::insert`]), so a table of
//! each track's first entry number gives every entry's address.
//!
//! A query that constrains k codeword bits then reads k bitmaps of N/64
//! words instead of every entry's codeword. The hit set is exactly the
//! one the per-entry test yields — the paper's false drops included; only
//! the host's work shrinks. The FS1 hardware still streams the whole
//! secondary file, and [`ScanOutcome::fs1_time`] still charges it.
//!
//! A query is compiled once per scan, from the same
//! [`QueryArg::required_codewords`] rules the reference matcher applies,
//! into lists of codeword columns: per constrained position, the columns
//! an `Open` entry must have and those a `Ground` entry must have. A
//! position where no entry is `Open` or `Var` needs no mask test, so all
//! such positions fold into one list of columns every hit has — for a
//! fact base, the whole query.
//!
//! # One scan
//!
//! [`IndexFile::scan`] filters any number of query descriptors in one
//! pass, 4096 entries at a time, on the calling thread: per stride and
//! query it ANDs the column slices, then reads the surviving bits out in
//! entry order, so each hit list comes back in clause order — Prolog
//! clause order is preserved. Each hit's address comes from a forward
//! cursor over the track table, which the ascending hits only ever move
//! forward.

use crate::codeword::key_positions;
use crate::config::ScwConfig;
use crate::encode::{encode_positions, ArgMask, ClauseSignature, QueryArg, QueryDescriptor};
use crate::Codeword;
use clare_disk::SimNanos;
use clare_term::Term;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Range;
use std::time::Instant;

/// Address of a clause in its compiled clause file: track plus slot within
/// the track. What FS1 hands to FS2 (or the CRS) after an index hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseAddr {
    track: u32,
    slot: u16,
}

impl ClauseAddr {
    /// Creates an address.
    pub fn new(track: u32, slot: u16) -> Self {
        ClauseAddr { track, slot }
    }

    /// Track index within the compiled clause file.
    pub fn track(self) -> u32 {
        self.track
    }

    /// Record slot within the track.
    pub fn slot(self) -> u16 {
        self.slot
    }
}

impl fmt::Display for ClauseAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}#{}", self.track, self.slot)
    }
}

/// One secondary-file entry: a clause signature plus the clause address.
///
/// The bit-sliced index does not store entries in this form; it is the
/// materialized row view returned by [`IndexFile::iter_entries`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Codeword and mask bits for the clause head.
    pub signature: ClauseSignature,
    /// Where the clause record lives.
    pub addr: ClauseAddr,
}

/// Result of one FS1 scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Addresses of clauses whose codewords matched (potential unifiers,
    /// including false drops), one per matching entry, in entry (insertion)
    /// order. A predicate's index is filled in clause order, whose
    /// addresses ascend, so for it this list ascends — the ordering the
    /// FS1→FS2 hand-off merges on instead of sorting.
    pub matches: Vec<ClauseAddr>,
    /// Entries examined (= clause count of the predicate).
    pub entries_scanned: usize,
    /// Secondary-file bytes streamed through the FS1 hardware.
    pub bytes_scanned: usize,
    /// Time the FS1 hardware needs at its scan rate (4.5 MB/s prototype).
    pub fs1_time: SimNanos,
}

impl ScanOutcome {
    /// Fraction of scanned entries that matched.
    pub fn selectivity(&self) -> f64 {
        if self.entries_scanned == 0 {
            0.0
        } else {
            self.matches.len() as f64 / self.entries_scanned as f64
        }
    }
}

/// Bitmap words a scan filters per pass (4096 entries), and between polls
/// of its cancellation hook.
const STRIDE_WORDS: usize = 64;

/// The secondary index file for one predicate's compiled clause file,
/// stored bit-sliced (see the module docs).
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_term};
/// use clare_scw::{encode_query_descriptor, ClauseAddr, IndexFile, ScwConfig};
///
/// let mut sy = SymbolTable::new();
/// let mut index = IndexFile::new(ScwConfig::paper());
/// for (i, fact) in ["p(a)", "p(b)", "p(X)"].iter().enumerate() {
///     let head = parse_term(fact, &mut sy)?;
///     index.insert(&head, ClauseAddr::new(0, i as u16));
/// }
/// let query = encode_query_descriptor(&parse_term("p(a)", &mut sy)?, index.config());
/// let outcome = index.scan_with_descriptor(&query);
/// // p(a) matches; p(X) matches via its mask bit; p(b) is filtered out.
/// assert_eq!(outcome.matches.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IndexFile {
    config: ScwConfig,
    /// Codeword columns: one per bit of the codeword's limbs. Column `c`
    /// is codeword bit `c`; column `code_columns + 2p` is position `p`'s
    /// `Open` column and `code_columns + 2p + 1` its `Var` column.
    code_columns: usize,
    /// Mask positions with columns: the widest head inserted so far.
    positions: usize,
    /// Bit `p` set: some entry's mask at position `p` is `Open` or `Var`.
    mixed: u32,
    /// Words reserved per column.
    stride: usize,
    /// Every column, column-major: column `c` is `bits[c * stride..]`.
    /// Allocated at the first insert, when the head width is known.
    bits: Vec<u64>,
    /// Number of real (clause-arity) mask fields per entry.
    mask_len: Vec<u8>,
    /// First entry number of each track: track `t` holds entries
    /// `track_starts[t]..track_starts[t + 1]` (the last one up to the end),
    /// slot `s` of it being entry `track_starts[t] + s`.
    track_starts: Vec<u32>,
}

impl IndexFile {
    /// Creates an empty index with the given scheme parameters.
    pub fn new(config: ScwConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty index pre-sized for `entries` clauses: the first
    /// insert reserves every column at its final length, in one
    /// allocation, so filling them never moves a column.
    pub fn with_capacity(config: ScwConfig, entries: usize) -> Self {
        IndexFile {
            config,
            code_columns: 64 * (config.width_bits() as usize).div_ceil(64),
            positions: 0,
            mixed: 0,
            stride: entries.div_ceil(64),
            bits: Vec::new(),
            mask_len: Vec::with_capacity(entries),
            track_starts: Vec::new(),
        }
    }

    /// The scheme parameters.
    pub fn config(&self) -> &ScwConfig {
        &self.config
    }

    /// Encodes and appends a clause head. Entries keep insertion order —
    /// clause order is user-significant in Prolog and the index preserves
    /// it so retrieval returns clauses in program order.
    ///
    /// Each key's bits go straight into the columns, where
    /// [`encode_clause_signature`](crate::encode_clause_signature) would
    /// set them, without materializing the signature.
    ///
    /// # Panics
    ///
    /// Addresses go in track-major, as a compiled clause file lays them
    /// out: the first entry is `t0#0`, and each next one is either the next
    /// slot of the same track or slot 0 of the next track. Any other
    /// address panics — the index keeps only where each track starts.
    pub fn insert(&mut self, head: &Term, addr: ClauseAddr) {
        let n = self.len();
        let (track, slot) = (addr.track() as usize, addr.slot() as usize);
        let next_slot = self.track_starts.last().map(|&first| n - first as usize);
        let track_major = match next_slot {
            None => track == 0 && slot == 0,
            Some(next) => {
                let current = self.track_starts.len() - 1;
                (track == current && slot == next) || (track == current + 1 && slot == 0)
            }
        };
        assert!(
            track_major,
            "index entries go in track-major: {addr} cannot be entry {n}"
        );
        if slot == 0 {
            self.track_starts
                .push(u32::try_from(n).expect("an index holds fewer than 2^32 entries"));
        }
        let config = self.config;
        let (word, bit) = (self.len() / 64, 1u64 << (self.len() % 64));
        let width = head.children().take(config.encoded_args()).count();
        if width > self.positions || word == self.stride || self.bits.is_empty() {
            let stride = if word < self.stride {
                self.stride
            } else {
                2 * self.stride + 1
            };
            self.relayout(width.max(self.positions), stride);
        }
        let mut position = 0;
        encode_positions(head, &config, |mask, keys| {
            for &key in keys {
                for column in key_positions(config.width_bits(), config.bits_per_key(), key) {
                    self.bits[column * self.stride + word] |= bit;
                }
            }
            self.set_mask(position, mask, word, bit);
            position += 1;
        });
        // Beyond this head's arity every position reads `Var`.
        for p in width..self.positions {
            self.set_mask(p, ArgMask::Var, word, bit);
        }
        self.mask_len.push(width as u8);
    }

    /// Records the mask at `position` of the entry at `bit` of `word`.
    fn set_mask(&mut self, position: usize, mask: ArgMask, word: usize, bit: u64) {
        let column = match mask {
            ArgMask::Ground => return,
            ArgMask::Open => self.code_columns + 2 * position,
            ArgMask::Var => self.code_columns + 2 * position + 1,
        };
        self.bits[column * self.stride + word] |= bit;
        self.mixed |= 1 << position;
    }

    /// Rebuilds the columns for `positions` mask positions at `stride`
    /// words each, keeping every stored word. Entries stored before a
    /// position existed have no mask there, which reads as `Var` — as
    /// [`QueryDescriptor::matches`] defaults a position beyond the
    /// signature.
    fn relayout(&mut self, positions: usize, stride: usize) {
        let len = self.len();
        let used = len.div_ceil(64);
        let had = self.code_columns + 2 * self.positions;
        let mut bits = vec![0u64; (self.code_columns + 2 * positions) * stride];
        if len > 0 {
            for (c, column) in bits.chunks_exact_mut(stride).enumerate() {
                let column = &mut column[..used];
                if c < had {
                    column.copy_from_slice(&self.bits[c * self.stride..][..used]);
                } else if (c - self.code_columns) % 2 == 1 {
                    column.fill(!0);
                    column[used - 1] = last_word_mask(len);
                    self.mixed |= 1 << ((c - self.code_columns) / 2);
                }
            }
        }
        self.bits = bits;
        self.positions = positions;
        self.stride = stride;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.mask_len.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.mask_len.is_empty()
    }

    /// The clause address of entry `i` (clause order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Self::len`].
    pub fn addr_at(&self, i: usize) -> ClauseAddr {
        assert!(i < self.len(), "entry {i} of {}", self.len());
        let track = self
            .track_starts
            .partition_point(|&first| first as usize <= i)
            - 1;
        ClauseAddr::new(track as u32, (i - self.track_starts[track] as usize) as u16)
    }

    /// Every entry's address, in clause order.
    fn addrs(&self) -> impl Iterator<Item = ClauseAddr> + '_ {
        let ends = self.track_starts[1..]
            .iter()
            .map(|&next| next as usize)
            .chain([self.len()]);
        self.track_starts
            .iter()
            .zip(ends)
            .enumerate()
            .flat_map(|(t, (&first, end))| {
                (0..end - first as usize).map(move |slot| ClauseAddr::new(t as u32, slot as u16))
            })
    }

    /// Reconstructs the signature of entry `i` from the bit columns.
    pub fn signature_at(&self, i: usize) -> ClauseSignature {
        let has = |column: usize| self.bits[column * self.stride + i / 64] >> (i % 64) & 1;
        let mut limbs = vec![0u64; self.code_columns / 64];
        for column in 0..self.code_columns {
            limbs[column / 64] |= has(column) << (column % 64);
        }
        let masks = (0..self.mask_len[i] as usize)
            .map(|p| {
                let open = self.code_columns + 2 * p;
                match (has(open), has(open + 1)) {
                    (1, _) => ArgMask::Open,
                    (_, 1) => ArgMask::Var,
                    _ => ArgMask::Ground,
                }
            })
            .collect();
        ClauseSignature {
            codeword: Codeword::from_raw(self.config.width_bits(), limbs),
            masks,
        }
    }

    /// Materializes the entries in clause order (a row view over the
    /// bit columns — for inspection and tests, not the scan path).
    pub fn iter_entries(&self) -> impl Iterator<Item = IndexEntry> + '_ {
        self.addrs().enumerate().map(|(i, addr)| IndexEntry {
            signature: self.signature_at(i),
            addr,
        })
    }

    /// Size of the secondary file in bytes.
    pub fn file_bytes(&self) -> usize {
        self.len() * self.config.entry_bytes()
    }

    /// Scans the whole index against every descriptor in one pass, as the
    /// FS1 hardware does: every entry is examined (the match is a
    /// streaming comparison, not a tree descent). Each outcome charges its
    /// query a full scan of the secondary file — the paper's hardware has
    /// a single comparator per head; what sharing the pass amortizes is
    /// the *host's* memory traffic, not the modelled disk sweep.
    ///
    /// `cancel`, when given, is polled every 4096 entries (and once before
    /// the first and after the last); a `true` answer abandons the
    /// scan and returns `None`. A cancelled scan never yields a partial
    /// match list and records no scan metrics — to the registry it never
    /// happened. The hook is a plain closure so this crate stays free of
    /// any budget-layer dependency. Without a hook the result is `Some`.
    ///
    /// The descriptors may be owned or borrowed (a caller that keeps each
    /// query's descriptor in a compiled plan passes references).
    pub fn scan<D: Borrow<QueryDescriptor>>(
        &self,
        descriptors: &[D],
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Option<Vec<ScanOutcome>> {
        let started = Instant::now();
        let compiled: Vec<CompiledQuery> = descriptors
            .iter()
            .map(|d| self.compile(d.borrow()))
            .collect();
        let mut per_query = vec![Hits::new(&self.track_starts); compiled.len()];
        let len = self.len();
        let words = len.div_ceil(64);
        let mut acc = [0u64; STRIDE_WORDS];
        let mut start = 0;
        loop {
            if cancel.is_some_and(|cancel| cancel()) {
                return None;
            }
            if start >= words {
                break;
            }
            let end = (start + STRIDE_WORDS).min(words);
            for (query, hits) in compiled.iter().zip(&mut per_query) {
                let acc = &mut acc[..end - start];
                self.filter(query, start..end, acc);
                if end == words {
                    // An unconstrained query passes the unused bits too.
                    acc[end - start - 1] &= last_word_mask(len);
                }
                for (w, &word) in acc.iter().enumerate() {
                    hits.extract(64 * (start + w) as u32, word);
                }
            }
            start = end;
        }
        let outcomes: Vec<ScanOutcome> = per_query
            .into_iter()
            .map(|hits| self.outcome(hits.matches))
            .collect();
        let m = clare_trace::metrics();
        if outcomes.len() > 1 {
            m.fs1_batch_scans.inc();
        }
        m.fs1_scans.add(outcomes.len() as u64);
        for o in &outcomes {
            m.fs1_entries_scanned.add(o.entries_scanned as u64);
            m.fs1_candidates_out.add(o.matches.len() as u64);
        }
        m.fs1_scan_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        Some(outcomes)
    }

    /// [`IndexFile::scan`] for one descriptor and no cancellation hook.
    pub fn scan_with_descriptor(&self, descriptor: &QueryDescriptor) -> ScanOutcome {
        self.scan(std::slice::from_ref(descriptor), None)
            .and_then(|mut outcomes| outcomes.pop())
            .expect("a scan without a hook cannot be cancelled")
    }

    /// Reference scalar scan: reconstructs each signature and applies
    /// [`QueryDescriptor::matches`] per entry. Retained as the semantic
    /// baseline the sliced scan is property-tested against
    /// (and as the benchmark's "seed scalar" contender).
    pub fn scan_reference(&self, descriptor: &QueryDescriptor) -> ScanOutcome {
        let matches = self
            .addrs()
            .enumerate()
            .filter(|&(i, _)| descriptor.matches(&self.signature_at(i)))
            .map(|(_, addr)| addr)
            .collect();
        self.outcome(matches)
    }

    fn outcome(&self, matches: Vec<ClauseAddr>) -> ScanOutcome {
        let bytes_scanned = self.file_bytes();
        ScanOutcome {
            matches,
            entries_scanned: self.len(),
            bytes_scanned,
            fs1_time: self.config.scan_rate().transfer_time(bytes_scanned as u64),
        }
    }

    /// Compiles a descriptor into the codeword columns the scan ANDs.
    fn compile(&self, descriptor: &QueryDescriptor) -> CompiledQuery {
        // The requirements come from the same `required_codewords` rules
        // the reference matcher applies. Per position the subset tests AND
        // together, and `(A ⊆ E) ∧ (B ⊆ E) ⟺ (A ∪ B) ⊆ E`, so a union of
        // codewords is one column set. A query encoded with a wider config
        // than the index contributes only the limbs the entries store —
        // the zip-truncation semantics of [`Codeword::subset_of`].
        let add = |columns: &mut [u64], arg: &QueryArg, mask| {
            for cw in arg.required_codewords(mask) {
                for (c, l) in columns.iter_mut().zip(cw.limbs()) {
                    *c |= l;
                }
            }
        };
        let union = |arg: &QueryArg, mask| {
            let mut columns = vec![0u64; self.code_columns / 64];
            add(&mut columns, arg, mask);
            columns
        };
        let mut query = CompiledQuery {
            always: vec![0u64; self.code_columns / 64],
            mixed: Vec::new(),
        };
        // Beyond the widest head every entry reads `Var`: no requirement.
        for (position, arg) in descriptor.args.iter().enumerate().take(self.positions) {
            if matches!(arg, QueryArg::Any) {
                continue;
            }
            if self.mixed & (1 << position) == 0 {
                add(&mut query.always, arg, ArgMask::Ground);
            } else {
                query.mixed.push(MixedPosition {
                    open_column: self.code_columns + 2 * position,
                    open: union(arg, ArgMask::Open),
                    ground: union(arg, ArgMask::Ground),
                });
            }
        }
        query
    }

    /// Sets `acc` to the entries of bitmap words `words` that pass `query`.
    fn filter(&self, query: &CompiledQuery, words: Range<usize>, acc: &mut [u64]) {
        let column = |c: usize| &self.bits[c * self.stride..][words.clone()];
        acc.fill(!0);
        and_columns(acc, &query.always, &column);
        for pos in &query.mixed {
            let (open, var) = (column(pos.open_column), column(pos.open_column + 1));
            let (mut open_pass, mut ground_pass) = ([!0u64; STRIDE_WORDS], [!0u64; STRIDE_WORDS]);
            and_columns(&mut open_pass[..acc.len()], &pos.open, &column);
            and_columns(&mut ground_pass[..acc.len()], &pos.ground, &column);
            for (w, a) in acc.iter_mut().enumerate() {
                *a &= var[w] | open[w] & open_pass[w] | !(open[w] | var[w]) & ground_pass[w];
            }
        }
    }
}

/// One query's hit list under construction, with the forward cursor that
/// turns entry numbers into addresses. Hits arrive ascending, so the
/// cursor only ever moves forward through the track table.
#[derive(Clone)]
struct Hits<'a> {
    track_starts: &'a [u32],
    /// The cursor's track, its first entry, and the next track's first
    /// entry (`u32::MAX` past the last track). A fresh cursor's `next` is
    /// 0, so the first hit seeks.
    track: usize,
    first: u32,
    next: u32,
    matches: Vec<ClauseAddr>,
}

impl<'a> Hits<'a> {
    fn new(track_starts: &'a [u32]) -> Self {
        Hits {
            track_starts,
            track: 0,
            first: 0,
            next: 0,
            // Room for a selective query's hits, so that most scans
            // allocate the list once.
            matches: Vec::with_capacity(16),
        }
    }

    /// Appends the address of every entry whose bit is set in `word`, the
    /// bitmap word of entries `base..base + 64`.
    #[inline]
    fn extract(&mut self, base: u32, word: u64) {
        let mut rest = word;
        while rest != 0 {
            let entry = base + rest.trailing_zeros();
            if entry >= self.next {
                self.seek(entry);
            }
            self.matches.push(ClauseAddr::new(
                self.track as u32,
                (entry - self.first) as u16,
            ));
            rest &= rest - 1;
        }
    }

    /// Moves the cursor forward to the track holding `entry`, eight track
    /// starts a step: the starts ascend, so the count of those at or below
    /// `entry` in a window is how far to move, with no branch per track.
    fn seek(&mut self, entry: u32) {
        let starts = self.track_starts;
        loop {
            let window = &starts[(self.track + 1).min(starts.len())..];
            let window = &window[..window.len().min(8)];
            let passed = window.iter().filter(|&&first| first <= entry).count();
            self.track += passed;
            if passed < 8 {
                break;
            }
        }
        self.first = starts.get(self.track).copied().unwrap_or(0);
        self.next = starts.get(self.track + 1).copied().unwrap_or(u32::MAX);
    }
}

/// The bits of the last of `len` entries' words that hold an entry.
fn last_word_mask(len: usize) -> u64 {
    u64::MAX >> ((64 - len % 64) % 64)
}

/// ANDs into `acc` every codeword column whose bit is set in `columns`,
/// a column slice at a time.
fn and_columns<'a>(acc: &mut [u64], columns: &[u64], column: &impl Fn(usize) -> &'a [u64]) {
    for (l, &limb) in columns.iter().enumerate() {
        let mut rest = limb;
        while rest != 0 {
            for (a, b) in acc
                .iter_mut()
                .zip(column(64 * l + rest.trailing_zeros() as usize))
            {
                *a &= b;
            }
            rest &= rest - 1;
        }
    }
}

/// A query compiled for the sliced scan. Column sets are bitsets over the
/// codeword columns, one bit per column, in codeword limb layout.
struct CompiledQuery {
    /// Columns every hit has: the `Ground` requirements of the constrained
    /// positions at which every entry is `Ground`.
    always: Vec<u64>,
    /// Constrained positions at which some entry is `Open` or `Var`.
    mixed: Vec<MixedPosition>,
}

struct MixedPosition {
    /// The position's `Open` column (its `Var` column is the next).
    open_column: usize,
    /// Columns required of an entry whose mask here is `Open`.
    open: Vec<u64>,
    /// Columns required of an entry whose mask here is `Ground` (`Var`
    /// requires nothing).
    ground: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_clause_signature, encode_query_descriptor};
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn scan_term(index: &IndexFile, query: &Term) -> ScanOutcome {
        index.scan_with_descriptor(&encode_query_descriptor(query, index.config()))
    }

    fn build_index(clauses: &[&str], sy: &mut SymbolTable) -> IndexFile {
        build_index_with(clauses, sy, ScwConfig::paper())
    }

    fn build_index_with(clauses: &[&str], sy: &mut SymbolTable, config: ScwConfig) -> IndexFile {
        let mut index = IndexFile::with_capacity(config, clauses.len());
        for (i, src) in clauses.iter().enumerate() {
            let head = parse_term(src, sy).unwrap();
            index.insert(&head, ClauseAddr::new((i / 4) as u32, (i % 4) as u16));
        }
        index
    }

    #[test]
    fn scan_filters_and_preserves_order() {
        let mut sy = SymbolTable::new();
        let index = build_index(
            &["p(a, 1)", "p(b, 2)", "p(a, 3)", "p(X, 4)", "p(a, 5)"],
            &mut sy,
        );
        let outcome = scan_term(&index, &parse_term("p(a, Y)", &mut sy).unwrap());
        // p(a,1), p(a,3), p(X,4) [mask], p(a,5) — in clause order.
        assert_eq!(
            outcome.matches,
            vec![
                ClauseAddr::new(0, 0),
                ClauseAddr::new(0, 2),
                ClauseAddr::new(0, 3),
                ClauseAddr::new(1, 0),
            ]
        );
        assert_eq!(outcome.entries_scanned, 5);
    }

    #[test]
    fn unconstrained_query_retrieves_everything() {
        let mut sy = SymbolTable::new();
        let index = build_index(&["m(a, b)", "m(c, d)", "m(e, e)"], &mut sy);
        let outcome = scan_term(&index, &parse_term("m(S, S)", &mut sy).unwrap());
        assert_eq!(outcome.matches.len(), 3, "shared vars defeat FS1");
        assert_eq!(outcome.selectivity(), 1.0);
    }

    #[test]
    fn selective_query_has_low_selectivity() {
        let mut sy = SymbolTable::new();
        let clauses: Vec<String> = (0..100).map(|i| format!("q(k{i}, v{i})")).collect();
        let refs: Vec<&str> = clauses.iter().map(String::as_str).collect();
        let index = build_index(&refs, &mut sy);
        let outcome = scan_term(&index, &parse_term("q(k42, X)", &mut sy).unwrap());
        assert!(!outcome.matches.is_empty(), "the true hit survives");
        assert!(
            outcome.selectivity() < 0.1,
            "selectivity {} too high",
            outcome.selectivity()
        );
        assert!(outcome
            .matches
            .contains(&ClauseAddr::new(42 / 4, (42 % 4) as u16)));
    }

    #[test]
    fn fs1_time_follows_file_size() {
        let mut sy = SymbolTable::new();
        let clauses: Vec<String> = (0..450).map(|i| format!("r(a{i})")).collect();
        let refs: Vec<&str> = clauses.iter().map(String::as_str).collect();
        let index = build_index(&refs, &mut sy);
        assert_eq!(index.file_bytes(), 450 * index.config().entry_bytes());
        let outcome = scan_term(&index, &parse_term("r(a7)", &mut sy).unwrap());
        // 450 entries × 17 B = 7650 B at 4.5 MB/s = 1.7 ms.
        let expected_ns = (index.file_bytes() as f64 / 4.5e6 * 1e9).round() as u64;
        assert!(
            (outcome.fs1_time.as_ns() as i64 - expected_ns as i64).abs() < 1000,
            "fs1 time {} vs expected {expected_ns} ns",
            outcome.fs1_time
        );
    }

    #[test]
    fn empty_index() {
        let mut sy = SymbolTable::new();
        let index = IndexFile::new(ScwConfig::paper());
        let outcome = scan_term(&index, &parse_term("p(a)", &mut sy).unwrap());
        assert!(outcome.matches.is_empty());
        assert_eq!(outcome.selectivity(), 0.0);
        assert_eq!(outcome.fs1_time, SimNanos::ZERO);
    }

    #[test]
    fn secondary_file_smaller_than_typical_clause_file() {
        // The scheme's whole point: entry size is a handful of bytes,
        // independent of clause size.
        let config = ScwConfig::paper();
        assert!(config.entry_bytes() <= 24);
    }

    #[test]
    fn sliced_scan_agrees_with_reference() {
        let mut sy = SymbolTable::new();
        let clauses: Vec<String> = (0..200)
            .map(|i| match i % 4 {
                0 => format!("s(k{i}, v{})", i % 9),
                1 => format!("s(k{i}, X)"),
                2 => "s(Y, Z)".to_owned(),
                _ => format!("s(g(k{i}), [1, {i}])"),
            })
            .collect();
        let refs: Vec<&str> = clauses.iter().map(String::as_str).collect();
        let index = build_index(&refs, &mut sy);
        for q in ["s(k8, X)", "s(A, v3)", "s(g(k7), [1, 7])", "s(Q, R)"] {
            let query = parse_term(q, &mut sy).unwrap();
            let descriptor = encode_query_descriptor(&query, index.config());
            let reference = index.scan_reference(&descriptor);
            assert_eq!(scan_term(&index, &query), reference, "query {q}");
        }
    }

    #[test]
    fn batch_scan_matches_individual_scans() {
        let mut sy = SymbolTable::new();
        let clauses: Vec<String> = (0..120).map(|i| format!("b(k{i}, v{})", i % 5)).collect();
        let refs: Vec<&str> = clauses.iter().map(String::as_str).collect();
        let index = build_index(&refs, &mut sy);
        let queries: Vec<Term> = ["b(k4, X)", "b(K, v2)", "b(W, Z)", "b(nope, nope)"]
            .iter()
            .map(|q| parse_term(q, &mut sy).unwrap())
            .collect();
        let descriptors: Vec<QueryDescriptor> = queries
            .iter()
            .map(|q| encode_query_descriptor(q, index.config()))
            .collect();
        let batch = index.scan(&descriptors, None).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], scan_term(&index, q), "batch outcome {i} diverged");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let index = IndexFile::new(ScwConfig::paper());
        assert!(index.scan::<QueryDescriptor>(&[], None).unwrap().is_empty());
    }

    #[test]
    fn hooked_scan_polls_every_stride_and_cancels_without_a_partial_list() {
        let mut sy = SymbolTable::new();
        let mut index = IndexFile::new(ScwConfig::paper());
        for i in 0..2 * 64 * STRIDE_WORDS + 10 {
            let head = parse_term(&format!("h(k{}, n{i})", i % 50), &mut sy).unwrap();
            index.insert(&head, ClauseAddr::new((i / 64) as u32, (i % 64) as u16));
        }
        let query = parse_term("h(k7, X)", &mut sy).unwrap();
        let descriptor = [encode_query_descriptor(&query, index.config())];
        let polls = std::cell::Cell::new(0usize);
        let hooked = index.scan(
            &descriptor,
            Some(&|| {
                polls.set(polls.get() + 1);
                false
            }),
        );
        assert_eq!(hooked, index.scan(&descriptor, None));
        assert_eq!(polls.get(), 4, "three strides, then the closing poll");
        polls.set(0);
        let cancelled = index.scan(
            &descriptor,
            Some(&|| {
                polls.set(polls.get() + 1);
                polls.get() == 2
            }),
        );
        assert_eq!(cancelled, None, "a cancelled scan yields nothing");
    }

    #[test]
    fn iter_entries_roundtrips_signatures() {
        let mut sy = SymbolTable::new();
        let sources = ["p(a, 1)", "p(X, g(b))", "p([1 | T], _)"];
        let index = build_index(&sources, &mut sy);
        let entries: Vec<IndexEntry> = index.iter_entries().collect();
        assert_eq!(entries.len(), 3);
        for (i, src) in sources.iter().enumerate() {
            let head = parse_term(src, &mut sy).unwrap();
            let expected = encode_clause_signature(&head, index.config());
            assert_eq!(entries[i].signature, expected, "entry {i} ({src})");
            assert_eq!(entries[i].addr, ClauseAddr::new(0, i as u16));
        }
    }

    #[test]
    fn wide_codewords_scan_correctly() {
        // Multi-limb codewords: 192 bit columns, three signature limbs.
        let mut sy = SymbolTable::new();
        let clauses: Vec<String> = (0..60).map(|i| format!("w(c{i})")).collect();
        let refs: Vec<&str> = clauses.iter().map(String::as_str).collect();
        let config = ScwConfig::custom(192, 4, 12);
        let index = build_index_with(&refs, &mut sy, config);
        let query = parse_term("w(c31)", &mut sy).unwrap();
        let descriptor = encode_query_descriptor(&query, index.config());
        let outcome = scan_term(&index, &query);
        assert_eq!(outcome, index.scan_reference(&descriptor));
        assert!(outcome.matches.contains(&ClauseAddr::new(31 / 4, 31 % 4)));
    }

    #[test]
    fn a_three_argument_fact_costs_at_most_9_85_resident_bytes() {
        // 64 codeword bits + 3 × 2 mask bits + mask_len = 9.75 B, plus one
        // 4-byte track start per 64-clause track: 9.8125 B.
        let mut sy = SymbolTable::new();
        let n = 64 * 100;
        let mut index = IndexFile::with_capacity(ScwConfig::paper(), n);
        for i in 0..n {
            let head = parse_term(&format!("f(k{i}, v{}, {i})", i % 9), &mut sy).unwrap();
            index.insert(&head, ClauseAddr::new((i / 64) as u32, (i % 64) as u16));
        }
        let bytes = 8 * index.bits.capacity()
            + index.mask_len.capacity()
            + 4 * index.track_starts.capacity();
        assert!(bytes as f64 / n as f64 <= 9.85, "{bytes} B for {n} entries");
    }

    #[test]
    fn only_track_major_inserts_are_accepted() {
        let mut sy = SymbolTable::new();
        let head = parse_term("p(a)", &mut sy).unwrap();
        let insert_all = |addrs: &[(u32, u16)]| {
            std::panic::catch_unwind(|| {
                let mut index = IndexFile::new(ScwConfig::paper());
                for &(track, slot) in addrs {
                    index.insert(&head, ClauseAddr::new(track, slot));
                }
            })
        };
        assert!(insert_all(&[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]).is_ok());
        for rejected in [
            &[(0, 1)][..],
            &[(1, 0)],
            &[(0, 0), (0, 0)],
            &[(0, 0), (0, 2)],
            &[(0, 0), (2, 0)],
            &[(0, 0), (1, 1)],
            &[(0, 0), (0, 1), (1, 0), (0, 2)],
        ] {
            let panic = insert_all(rejected).expect_err("not track-major");
            let message = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("track-major"), "{rejected:?}: {message}");
        }
    }

    #[test]
    fn addr_at_follows_the_track_table() {
        let mut sy = SymbolTable::new();
        let head = parse_term("p(a)", &mut sy).unwrap();
        let layout = [3usize, 1, 70, 2];
        let mut index = IndexFile::new(ScwConfig::paper());
        let mut addrs = Vec::new();
        for (t, &count) in layout.iter().enumerate() {
            for slot in 0..count {
                let addr = ClauseAddr::new(t as u32, slot as u16);
                index.insert(&head, addr);
                addrs.push(addr);
            }
        }
        let stored: Vec<ClauseAddr> = (0..index.len()).map(|i| index.addr_at(i)).collect();
        assert_eq!(stored, addrs);
        let rows: Vec<ClauseAddr> = index.iter_entries().map(|e| e.addr).collect();
        assert_eq!(rows, addrs);
    }

    /// `layout[t]` entries on each track `t`, each head `e(miss)` but the
    /// entries numbered in `hits`, which are `e(hit)`. (The two codewords
    /// are fixed, so `e(hit)` selects exactly the hits: no false drops.)
    fn index_with_hits(layout: &[usize], hits: &[usize], sy: &mut SymbolTable) -> IndexFile {
        let total: usize = layout.iter().sum();
        let mut index = IndexFile::with_capacity(ScwConfig::paper(), total);
        let (hit, miss) = (
            parse_term("e(hit)", sy).unwrap(),
            parse_term("e(miss)", sy).unwrap(),
        );
        let mut i = 0;
        for (t, &count) in layout.iter().enumerate() {
            for slot in 0..count {
                let head = if hits.contains(&i) { &hit } else { &miss };
                index.insert(head, ClauseAddr::new(t as u32, slot as u16));
                i += 1;
            }
        }
        index
    }

    #[test]
    fn extraction_edge_cases_equal_the_reference() {
        let mut sy = SymbolTable::new();
        // 4096-entry strides: entries 4095 | 4096 straddle the first one;
        // 9000 entries leave a last partial word of 40 entries.
        let layout: Vec<usize> = std::iter::repeat_n([1usize, 63, 64, 5, 130, 37], 24)
            .flatten()
            .chain([64])
            .collect();
        let total: usize = layout.iter().sum();
        let firsts: Vec<usize> = layout
            .iter()
            .scan(0, |next, &count| {
                let first = *next;
                *next += count;
                Some(first)
            })
            .collect();
        let cases: Vec<(&str, Vec<usize>)> = vec![
            ("entry 0", vec![0]),
            ("entries 63 and 64", vec![63, 64]),
            ("several hits in one word", vec![128, 129, 150, 191]),
            ("both sides of the stride", vec![4095, 4096]),
            (
                "the last partial word",
                vec![total - 40, total - 2, total - 1],
            ),
            ("the first entry of a track", firsts[1..6].to_vec()),
            ("every track's first entry", firsts.clone()),
            ("no hit", vec![]),
        ];
        for (what, hits) in &cases {
            let index = index_with_hits(&layout, hits, &mut sy);
            assert_eq!(index.len(), total);
            let query = parse_term("e(hit)", &mut sy).unwrap();
            let descriptor = encode_query_descriptor(&query, index.config());
            let reference = index.scan_reference(&descriptor);
            let expected: Vec<ClauseAddr> = hits.iter().map(|&i| index.addr_at(i)).collect();
            assert_eq!(reference.matches, expected, "{what}: reference");
            assert_eq!(
                index.scan_with_descriptor(&descriptor),
                reference,
                "{what}: single"
            );
            let batch = index
                .scan(&[&descriptor, &descriptor], None)
                .expect("no hook");
            assert_eq!(
                batch,
                vec![reference.clone(), reference.clone()],
                "{what}: batched"
            );
            let hooked = index
                .scan(&[&descriptor], Some(&|| false))
                .expect("never cancels");
            assert_eq!(hooked, vec![reference], "{what}: hooked");
        }
    }
}
