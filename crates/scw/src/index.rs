//! The secondary index file and the FS1 scanner.
//!
//! "For fast searching in large files, codewords are generated for facts
//! and rule heads and these are maintained in a secondary file. The
//! secondary file is effectively an index table associating codewords with
//! clause addresses." (§2.1.)
//!
//! # Packed columnar layout
//!
//! The index stores its entries struct-of-arrays: all codeword limbs in
//! one contiguous `Vec<u64>` (a fixed stride per entry), all mask bits
//! packed two per position into one `u64` word per entry, and all clause
//! addresses in a parallel array. A scan is then a branch-light sweep over
//! dense machine words — the software analogue of the FS1 streaming
//! comparator, which sees the secondary file as a flat byte stream rather
//! than a collection of records.
//!
//! A query is compiled once per scan into the bit requirements each mask
//! state implies, so the per-entry test collapses to a single
//! subset-of-codeword check: for every position the per-position subset
//! tests AND together, and `(A ⊆ E) ∧ (B ⊆ E) ⟺ (A ∪ B) ⊆ E`, so the
//! union of the required bits is tested at once. Which bits are required
//! depends only on the entry's (masked) mask word, so requirements are
//! cached per distinct mask word — typically a handful per predicate.
//!
//! # One scan
//!
//! [`IndexFile::scan`] tests any number of query descriptors in a single
//! pass over the packed columns, on the calling thread. Each query's hit
//! list comes back in clause order — Prolog clause order is preserved —
//! and the modelled [`ScanOutcome::fs1_time`] is the secondary-file size
//! over the FS1 scan rate, independent of how the software host organises
//! the sweep.

use crate::config::ScwConfig;
use crate::encode::{encode_clause_signature, ArgMask, ClauseSignature, QueryArg, QueryDescriptor};
use crate::Codeword;
use clare_disk::SimNanos;
use clare_term::Term;
use std::fmt;
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
/// The packed index does not store entries in this form; it is the
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
    /// including false drops).
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

/// Entries a scan walks between polls of its cancellation hook.
const CANCEL_POLL_ENTRIES: usize = 4096;

/// Every 2-bit mask field set to [`ArgMask::Var`] (0b10): the packed mask
/// word starts here so positions beyond a clause's arity read as `Var`,
/// exactly as [`QueryDescriptor::matches`] defaults missing positions.
const ALL_VAR: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// The secondary index file for one predicate's compiled clause file,
/// stored columnar (see the module docs).
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
    /// Codeword limbs per entry (fixed stride into `limbs`).
    limbs_per_entry: usize,
    /// All entries' codeword limbs, contiguous.
    limbs: Vec<u64>,
    /// One packed mask word per entry: 2 bits per position, low to high,
    /// `Var`-filled beyond the clause's arity.
    mask_words: Vec<u64>,
    /// Number of real (clause-arity) mask fields per entry.
    mask_len: Vec<u8>,
    /// Clause address per entry, in clause order.
    addrs: Vec<ClauseAddr>,
}

impl IndexFile {
    /// Creates an empty index with the given scheme parameters.
    pub fn new(config: ScwConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty index pre-sized for `entries` clauses.
    pub fn with_capacity(config: ScwConfig, entries: usize) -> Self {
        let limbs_per_entry = (config.width_bits() as usize).div_ceil(64);
        IndexFile {
            config,
            limbs_per_entry,
            limbs: Vec::with_capacity(entries * limbs_per_entry),
            mask_words: Vec::with_capacity(entries),
            mask_len: Vec::with_capacity(entries),
            addrs: Vec::with_capacity(entries),
        }
    }

    /// The scheme parameters.
    pub fn config(&self) -> &ScwConfig {
        &self.config
    }

    /// Encodes and appends a clause head. Entries keep insertion order —
    /// clause order is user-significant in Prolog and the index preserves
    /// it so retrieval returns clauses in program order.
    pub fn insert(&mut self, head: &Term, addr: ClauseAddr) {
        let signature = encode_clause_signature(head, &self.config);
        self.push_signature(&signature, addr);
    }

    /// Appends an already-encoded signature (the compile path encodes
    /// once and reuses the signature elsewhere).
    pub fn push_signature(&mut self, signature: &ClauseSignature, addr: ClauseAddr) {
        let limbs = signature.codeword.limbs();
        debug_assert_eq!(limbs.len(), self.limbs_per_entry);
        debug_assert!(signature.masks.len() <= 32, "mask word holds 32 positions");
        self.limbs.extend_from_slice(limbs);
        let mut word = ALL_VAR;
        for (i, mask) in signature.masks.iter().enumerate() {
            let shift = 2 * i as u32;
            word = (word & !(0b11 << shift)) | (u64::from(mask.to_bits()) << shift);
        }
        self.mask_words.push(word);
        self.mask_len.push(signature.masks.len() as u8);
        self.addrs.push(addr);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The clause address of entry `i` (clause order).
    pub fn addr_at(&self, i: usize) -> ClauseAddr {
        self.addrs[i]
    }

    /// Reconstructs the signature of entry `i` from the packed columns.
    pub fn signature_at(&self, i: usize) -> ClauseSignature {
        let base = i * self.limbs_per_entry;
        let codeword = Codeword::from_raw(
            self.config.width_bits(),
            self.limbs[base..base + self.limbs_per_entry].to_vec(),
        );
        let word = self.mask_words[i];
        let masks = (0..self.mask_len[i] as usize)
            .map(|p| ArgMask::from_bits(((word >> (2 * p)) & 0b11) as u8))
            .collect();
        ClauseSignature { codeword, masks }
    }

    /// Materializes the entries in clause order (a row view over the
    /// columnar storage — for inspection and tests, not the scan path).
    pub fn iter_entries(&self) -> impl Iterator<Item = IndexEntry> + '_ {
        (0..self.len()).map(|i| IndexEntry {
            signature: self.signature_at(i),
            addr: self.addrs[i],
        })
    }

    /// Size of the secondary file in bytes.
    pub fn file_bytes(&self) -> usize {
        self.len() * self.config.entry_bytes()
    }

    /// Scans the whole index against every descriptor in one pass over the
    /// packed columns, as the FS1 hardware does: every entry is examined
    /// (the match is a streaming comparison, not a tree descent). Each
    /// outcome charges its query a full scan of the secondary file — the
    /// paper's hardware has a single comparator per head; what sharing the
    /// pass amortizes is the *host's* memory traffic, not the modelled
    /// disk sweep.
    ///
    /// `cancel`, when given, is polled every 4096 entries (and once before
    /// the first and after the last); a `true` answer abandons the
    /// scan and returns `None`. A cancelled scan never yields a partial
    /// match list and records no scan metrics — to the registry it never
    /// happened. The hook is a plain closure so this crate stays free of
    /// any budget-layer dependency. Without a hook the result is `Some`.
    pub fn scan(
        &self,
        descriptors: &[QueryDescriptor],
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Option<Vec<ScanOutcome>> {
        let started = Instant::now();
        let compiled: Vec<CompiledQuery> = descriptors
            .iter()
            .map(|d| CompiledQuery::compile(d, self.limbs_per_entry))
            .collect();
        let len = self.len();
        let per_query = match cancel {
            None => self.scan_range(&compiled, 0, len),
            Some(cancel) => {
                let mut per_query = vec![Vec::new(); compiled.len()];
                let mut start = 0;
                loop {
                    if cancel() {
                        return None;
                    }
                    if start >= len {
                        break;
                    }
                    let end = (start + CANCEL_POLL_ENTRIES).min(len);
                    for (all, hits) in per_query
                        .iter_mut()
                        .zip(self.scan_range(&compiled, start, end))
                    {
                        all.extend(hits);
                    }
                    start = end;
                }
                per_query
            }
        };
        let outcomes: Vec<ScanOutcome> = per_query.into_iter().map(|m| self.outcome(m)).collect();
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
    /// baseline the packed path is property-tested against
    /// (and as the benchmark's "seed scalar" contender).
    pub fn scan_reference(&self, descriptor: &QueryDescriptor) -> ScanOutcome {
        let matches = (0..self.len())
            .filter(|&i| descriptor.matches(&self.signature_at(i)))
            .map(|i| self.addrs[i])
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

    /// Scans entries `[start, end)` for every query.
    ///
    /// The bit requirement of an entry depends only on its mask word, so
    /// the range is walked as maximal runs of entries sharing a raw mask
    /// word (facts are all-ground, so a predicate typically has one long
    /// run per rule-head shape). Within a run every query's requirement is
    /// a constant vector, and the subset test over the run's contiguous
    /// limbs is handed to the [`clare_simd::fs1_subset_hits`] kernel — the
    /// AVX2/NEON path when the host has it, the identical scalar loop
    /// otherwise.
    fn scan_range(
        &self,
        queries: &[CompiledQuery],
        start: usize,
        end: usize,
    ) -> Vec<Vec<ClauseAddr>> {
        let stride = self.limbs_per_entry;
        let level = clare_simd::level();
        let mut hits = vec![Vec::new(); queries.len()];
        let mut caches: Vec<RequirementCache> =
            queries.iter().map(|_| RequirementCache::new()).collect();
        let mut scratch: Vec<u32> = Vec::new();
        let mut run = start;
        while run < end {
            let word = self.mask_words[run];
            let mut run_end = run + 1;
            while run_end < end && self.mask_words[run_end] == word {
                run_end += 1;
            }
            let limbs = &self.limbs[run * stride..run_end * stride];
            for (q, query) in queries.iter().enumerate() {
                let required = caches[q].required(query, word);
                scratch.clear();
                clare_simd::fs1_subset_hits(level, required, limbs, &mut scratch);
                hits[q].extend(scratch.iter().map(|&rel| self.addrs[run + rel as usize]));
            }
            run = run_end;
        }
        hits
    }
}

/// A query compiled for the packed scan: for each constrained position,
/// the codeword bits required when the entry's mask is `Open` and when it
/// is `Ground` (`Var` requires nothing).
struct CompiledQuery {
    positions: Vec<PositionReq>,
    /// 0b11 in the 2-bit field of every constrained position: masking an
    /// entry's mask word with this canonicalizes it for the cache.
    relevance: u64,
    limbs_per_entry: usize,
}

struct PositionReq {
    /// Bit shift of this position's 2-bit mask field.
    shift: u32,
    /// Required limbs when the entry's mask is [`ArgMask::Open`].
    open: Vec<u64>,
    /// Required limbs when the entry's mask is [`ArgMask::Ground`].
    ground: Vec<u64>,
}

impl CompiledQuery {
    fn compile(descriptor: &QueryDescriptor, limbs_per_entry: usize) -> Self {
        let mut positions = Vec::new();
        let mut relevance = 0u64;
        for (i, arg) in descriptor.args.iter().enumerate() {
            if matches!(arg, QueryArg::Any) {
                continue;
            }
            let shift = 2 * i as u32;
            // The per-mask-state requirements come from the same
            // `required_codewords` rules the reference matcher applies;
            // per position the subset tests AND together, so the union of
            // the required bits is one test. A query encoded with a wider
            // config than the index contributes only the limbs the entries
            // actually store — the same zip-truncation semantics as
            // [`Codeword::subset_of`].
            let union_for = |mask: ArgMask| {
                let mut bits = vec![0u64; limbs_per_entry];
                for cw in arg.required_codewords(mask) {
                    for (b, l) in bits.iter_mut().zip(cw.limbs()) {
                        *b |= l;
                    }
                }
                bits
            };
            relevance |= 0b11 << shift;
            positions.push(PositionReq {
                shift,
                open: union_for(ArgMask::Open),
                ground: union_for(ArgMask::Ground),
            });
        }
        CompiledQuery {
            positions,
            relevance,
            limbs_per_entry,
        }
    }

    /// The union of required bits for an entry whose masked mask word is
    /// `key`.
    fn required_for(&self, key: u64) -> Vec<u64> {
        let mut required = vec![0u64; self.limbs_per_entry];
        for pos in &self.positions {
            let bits = match (key >> pos.shift) & 0b11 {
                0 => &pos.ground,
                1 => &pos.open,
                // Var (2, or the defensive 3): no requirement.
                _ => continue,
            };
            for (r, b) in required.iter_mut().zip(bits) {
                *r |= b;
            }
        }
        required
    }
}

/// Memoizes [`CompiledQuery::required_for`] per distinct masked mask
/// word. Predicates exhibit very few distinct mask words (facts are
/// all-ground; each rule-head shape adds one), so a small linear-probed
/// list beats a hash map.
struct RequirementCache {
    entries: Vec<(u64, Vec<u64>)>,
}

impl RequirementCache {
    fn new() -> Self {
        RequirementCache {
            entries: Vec::new(),
        }
    }

    fn required<'a>(&'a mut self, query: &CompiledQuery, mask_word: u64) -> &'a [u64] {
        let key = mask_word & query.relevance;
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            return &self.entries[i].1;
        }
        self.entries.push((key, query.required_for(key)));
        &self.entries.last().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_query_descriptor;
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
    fn packed_scan_agrees_with_reference() {
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
        assert!(index.scan(&[], None).unwrap().is_empty());
    }

    #[test]
    fn hooked_scan_polls_every_stride_and_cancels_without_a_partial_list() {
        let mut sy = SymbolTable::new();
        let mut index = IndexFile::new(ScwConfig::paper());
        for i in 0..2 * CANCEL_POLL_ENTRIES + 10 {
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
        // Multi-limb codewords exercise the strided limb layout.
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
}
