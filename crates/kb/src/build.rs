//! Building knowledge bases: consult source text or add clauses
//! programmatically, then compile every predicate to its clause file and
//! secondary index.

use crate::arena::ClauseArena;
use crate::predicate::{KnowledgeBase, Module, ModuleKind, Predicate};
use clare_disk::{DiskProfile, FileBuilder};
use clare_pif::ClauseRecord;
use clare_scw::{ClauseAddr, IndexFile, ScwConfig};
use clare_term::parser::{parse_program, ParseError};
use clare_term::{Clause, Symbol, SymbolTable};
use std::collections::HashMap;
use std::fmt;

/// Compilation parameters.
#[derive(Debug, Clone)]
pub struct KbConfig {
    /// Disk whose track geometry lays out the clause files.
    pub disk: DiskProfile,
    /// SCW+MB scheme for the secondary files.
    pub scw: ScwConfig,
    /// Modules whose compiled size exceeds this many bytes are classified
    /// [`ModuleKind::Large`] (disk resident). The default, 64 KB, keeps
    /// toy modules in memory and pushes anything substantial to disk.
    pub large_module_threshold: usize,
}

impl Default for KbConfig {
    fn default() -> Self {
        KbConfig {
            disk: DiskProfile::fujitsu_m2351a(),
            scw: ScwConfig::paper(),
            large_module_threshold: 64 * 1024,
        }
    }
}

impl KbConfig {
    /// Fingerprint of every parameter that affects compiled retrieval
    /// results (index bits, modelled scan rate, track layout). Two
    /// compilations of the same clauses agree byte-for-byte iff their
    /// fingerprints agree — the guard that lets
    /// [`KnowledgeBase::touched_predicates`] justify per-predicate cache
    /// invalidation.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            u64::from(self.scw.width_bits()),
            u64::from(self.scw.bits_per_key()),
            self.scw.encoded_args() as u64,
            self.scw.scan_rate().as_bytes_per_sec().to_bits(),
            self.disk.track_bytes() as u64,
            self.large_module_threshold as u64,
        ] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Mints process-unique knowledge-base generations.
fn next_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Errors while building a knowledge base.
#[derive(Debug)]
pub enum KbError {
    /// Source text failed to parse.
    Parse(ParseError),
    /// A clause could not be compiled to PIF.
    Pif(clare_pif::PifError),
    /// A clause record exceeds one disk track.
    RecordTooLarge(clare_disk::RecordTooLargeError),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::Parse(e) => write!(f, "parse error: {e}"),
            KbError::Pif(e) => write!(f, "PIF compilation error: {e}"),
            KbError::RecordTooLarge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KbError::Parse(e) => Some(e),
            KbError::Pif(e) => Some(e),
            KbError::RecordTooLarge(e) => Some(e),
        }
    }
}

impl From<ParseError> for KbError {
    fn from(e: ParseError) -> Self {
        KbError::Parse(e)
    }
}

impl From<clare_pif::PifError> for KbError {
    fn from(e: clare_pif::PifError) -> Self {
        KbError::Pif(e)
    }
}

impl From<clare_disk::RecordTooLargeError> for KbError {
    fn from(e: clare_disk::RecordTooLargeError) -> Self {
        KbError::RecordTooLarge(e)
    }
}

/// Accumulates clauses module by module, then compiles.
///
/// # Examples
///
/// ```
/// use clare_kb::{KbBuilder, KbConfig};
///
/// let mut b = KbBuilder::new();
/// b.consult("m", "p(a). p(b).")?;
/// let kb = b.finish(KbConfig::default());
/// assert_eq!(kb.modules().len(), 1);
/// # Ok::<(), clare_kb::KbError>(())
/// ```
#[derive(Debug, Default)]
pub struct KbBuilder {
    symbols: SymbolTable,
    modules: Vec<(String, Vec<Clause>)>,
    module_index: HashMap<String, usize>,
    /// Generation of the base this builder was decompiled from, if any.
    parent_generation: Option<u64>,
    /// Module slots that gained clauses since [`Self::set_baseline`] (or
    /// since creation, for a from-scratch builder). Dirtiness is tracked
    /// per *module*, not per predicate: appending clauses anywhere in a
    /// module can flip its [`ModuleKind`] across the large-module
    /// threshold, which changes the retrieval timing of every sibling
    /// predicate — so they must all count as touched.
    dirty_modules: std::collections::HashSet<usize>,
}

impl KbBuilder {
    /// An empty builder with a fresh symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The symbol table being populated (e.g. for building query terms in
    /// the same namespace).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Parses `source` and adds its clauses to `module` (created on first
    /// use), preserving order.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::Parse`] on malformed source.
    pub fn consult(&mut self, module: &str, source: &str) -> Result<(), KbError> {
        let clauses = parse_program(source, &mut self.symbols)?;
        let slot = self.module_slot(module);
        if !clauses.is_empty() {
            self.dirty_modules.insert(slot);
        }
        self.modules[slot].1.extend(clauses);
        Ok(())
    }

    /// Adds one already-built clause to `module`.
    pub fn add_clause(&mut self, module: &str, clause: Clause) {
        let slot = self.module_slot(module);
        self.dirty_modules.insert(slot);
        self.modules[slot].1.push(clause);
    }

    /// The clauses currently staged for `module`, if it exists.
    pub fn module_clauses(&self, module: &str) -> Option<&[Clause]> {
        self.module_index
            .get(module)
            .map(|&i| self.modules[i].1.as_slice())
    }

    /// Replaces `module`'s staged clauses wholesale (the module is
    /// created on first use) and marks it dirty, so `try_finish` records
    /// every one of its predicates as touched. Compaction uses this to
    /// fold the memtable overlay into rebuilt track segments while the
    /// epoch scheme invalidates only the affected predicates.
    pub fn set_module_clauses(&mut self, module: &str, clauses: Vec<Clause>) {
        let slot = self.module_slot(module);
        self.dirty_modules.insert(slot);
        self.modules[slot].1 = clauses;
    }

    /// Declares the clauses added so far to be the verbatim content of the
    /// base with generation `parent`: the dirty set restarts empty, so the
    /// finished base's [`KnowledgeBase::touched_predicates`] lists only
    /// predicates modified *after* this point.
    pub(crate) fn set_baseline(&mut self, parent: u64) {
        self.parent_generation = Some(parent);
        self.dirty_modules.clear();
    }

    fn module_slot(&mut self, module: &str) -> usize {
        if let Some(&i) = self.module_index.get(module) {
            return i;
        }
        let i = self.modules.len();
        self.modules.push((module.to_owned(), Vec::new()));
        self.module_index.insert(module.to_owned(), i);
        i
    }

    /// Compiles everything: groups clauses into predicates (preserving
    /// clause order within each), lays each predicate's records onto disk
    /// tracks, and builds its secondary index.
    ///
    /// Clauses that fail PIF compilation are skipped with a debug
    /// assertion; use [`Self::try_finish`] to surface the error.
    pub fn finish(self, config: KbConfig) -> KnowledgeBase {
        self.try_finish(config).expect("clauses compile to PIF")
    }

    /// Fallible variant of [`Self::finish`].
    ///
    /// # Errors
    ///
    /// Returns the first PIF or layout error encountered.
    pub fn try_finish(self, config: KbConfig) -> Result<KnowledgeBase, KbError> {
        let mut modules = Vec::new();
        let mut by_indicator = HashMap::new();
        let mut touched: Vec<(Symbol, usize)> = Vec::new();
        for (mi, (name, clauses)) in self.modules.into_iter().enumerate() {
            // Group into predicates, preserving first-seen order.
            let mut order: Vec<(Symbol, usize)> = Vec::new();
            let mut grouped: HashMap<(Symbol, usize), Vec<Clause>> = HashMap::new();
            for clause in clauses {
                let key = clause.predicate();
                if !grouped.contains_key(&key) {
                    order.push(key);
                }
                grouped.entry(key).or_default().push(clause);
            }
            if self.dirty_modules.contains(&mi) {
                // Every predicate of a dirty module counts as touched: new
                // clauses elsewhere in the module can flip its ModuleKind,
                // which changes sibling predicates' retrieval timing.
                touched.extend(order.iter().copied());
            }
            let mut predicates = Vec::new();
            for (pi, key) in order.iter().enumerate() {
                let clauses = grouped.remove(key).expect("grouped by key");
                let predicate = compile_predicate(*key, clauses, &config)?;
                by_indicator.insert(*key, (mi, pi));
                predicates.push(predicate);
            }
            let mut module = Module {
                name,
                kind: ModuleKind::Small,
                predicates,
            };
            if module.compiled_bytes() > config.large_module_threshold {
                module.kind = ModuleKind::Large;
            }
            modules.push(module);
        }
        touched.sort_unstable_by_key(|(s, a)| (s.offset(), *a));
        let mut kb = KnowledgeBase {
            symbols: self.symbols,
            modules,
            by_indicator,
            generation: next_generation(),
            parent_generation: self.parent_generation,
            touched,
            build_fingerprint: config.fingerprint(),
            content_fingerprint: 0,
        };
        kb.content_fingerprint = kb.compute_content_fingerprint();
        Ok(kb)
    }
}

fn compile_predicate(
    (functor, arity): (Symbol, usize),
    clauses: Vec<Clause>,
    config: &KbConfig,
) -> Result<Predicate, KbError> {
    let mut file_builder = FileBuilder::new(config.disk.track_bytes());
    let mut index = IndexFile::with_capacity(config.scw, clauses.len());
    let mut arena = ClauseArena::with_capacity(clauses.len());
    // Track layout mirrors FileBuilder's first-fit so addresses line up.
    let mut track = 0u32;
    let mut slot = 0u16;
    let mut used = 0usize;
    for clause in &clauses {
        let record = ClauseRecord::compile(clause)?;
        let bytes = record.to_bytes();
        if used + bytes.len() > config.disk.track_bytes() && used > 0 {
            track += 1;
            slot = 0;
            used = 0;
        }
        file_builder.append_record(&bytes)?;
        let addr = ClauseAddr::new(track, slot);
        index.insert(clause.head(), addr);
        // The head stream is already decoded here — capture it so
        // retrievals never re-parse record bytes.
        arena.push_clause(track as usize, record.head_stream().words());
        used += bytes.len();
        slot += 1;
    }
    arena.index_first_words();
    Ok(Predicate {
        functor,
        arity,
        clauses,
        file: file_builder.finish(format!("pred_{}_{arity}.pdb", functor.offset())),
        index,
        arena,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_agree_with_file_layout() {
        let mut b = KbBuilder::new();
        let facts: Vec<String> = (0..2000).map(|i| format!("big(k{i}, v{i}).")).collect();
        b.consult("m", &facts.join("\n")).unwrap();
        let kb = b.finish(KbConfig::default());
        let p = kb.lookup("big", 2).unwrap();
        assert!(p.file().track_count() > 1, "spans multiple tracks");
        // Every address must point at the right record.
        for i in 0..p.index().len() {
            let addr = p.index().addr_at(i);
            let record = p.record_at(addr);
            let (decoded, _) = clare_pif::ClauseRecord::from_bytes(record).unwrap();
            assert_eq!(
                decoded.clause(),
                &p.clauses()[i],
                "address {addr} for clause {i}"
            );
            assert_eq!(p.clause_id_at(addr).unwrap().index() as usize, i);
        }
        // A slot past a full track's last record must not alias the next
        // track's first clause; a track past the end holds nothing.
        let tracks = p.file().track_count();
        for t in 0..tracks {
            let slots = p.arena().track_clauses(t).len() as u16;
            assert_eq!(p.clause_id_at(ClauseAddr::new(t as u32, slots)), None);
        }
        assert_eq!(p.clause_id_at(ClauseAddr::new(tracks as u32, 0)), None);
    }

    #[test]
    fn small_and_large_module_classification() {
        let mut b = KbBuilder::new();
        b.consult("tiny", "p(a).").unwrap();
        let facts: Vec<String> = (0..5000).map(|i| format!("q(k{i}, data{i}).")).collect();
        b.consult("huge", &facts.join("\n")).unwrap();
        let kb = b.finish(KbConfig::default());
        assert_eq!(kb.modules()[0].kind(), ModuleKind::Small);
        assert_eq!(kb.modules()[1].kind(), ModuleKind::Large);
    }

    #[test]
    fn consult_accumulates_across_calls() {
        let mut b = KbBuilder::new();
        b.consult("m", "p(a).").unwrap();
        b.consult("m", "p(b). q(c).").unwrap();
        let kb = b.finish(KbConfig::default());
        assert_eq!(kb.modules().len(), 1);
        assert_eq!(kb.lookup("p", 1).unwrap().clauses().len(), 2);
        assert_eq!(kb.lookup("q", 1).unwrap().clauses().len(), 1);
    }

    #[test]
    fn parse_errors_surface() {
        let mut b = KbBuilder::new();
        assert!(matches!(b.consult("m", "p(a"), Err(KbError::Parse(_))));
    }

    #[test]
    fn pif_errors_surface_in_try_finish() {
        let mut b = KbBuilder::new();
        b.consult("m", "p(999999999999).").unwrap();
        assert!(matches!(
            b.try_finish(KbConfig::default()),
            Err(KbError::Pif(_))
        ));
    }

    #[test]
    fn incremental_builders_track_touched_predicates() {
        let mut b = KbBuilder::new();
        b.consult("m", "p(a). q(b).").unwrap();
        b.consult("other", "r(z).").unwrap();
        let kb = b.finish(KbConfig::default());
        assert!(kb.parent_generation().is_none());
        assert_eq!(kb.touched_predicates().len(), 3);

        let mut inc = kb.to_builder();
        inc.consult("m", "p(c).").unwrap();
        let kb2 = inc.finish(KbConfig::default());
        assert_eq!(kb2.parent_generation(), Some(kb.generation()));
        assert_ne!(kb2.generation(), kb.generation());
        // Touching p/1 touches its whole module (the module's kind could
        // have flipped), but not the untouched `other` module.
        let p = kb2.symbols().lookup_atom("p").unwrap();
        let q = kb2.symbols().lookup_atom("q").unwrap();
        let mut want = vec![(p, 1), (q, 1)];
        want.sort_unstable_by_key(|(s, a)| (s.offset(), *a));
        assert_eq!(kb2.touched_predicates(), want.as_slice());
        assert_eq!(kb.build_fingerprint(), kb2.build_fingerprint());

        // An untouched incremental rebuild touches nothing.
        let kb3 = kb2.to_builder().finish(KbConfig::default());
        assert!(kb3.touched_predicates().is_empty());
        assert_eq!(kb3.parent_generation(), Some(kb2.generation()));
    }

    #[test]
    fn fingerprint_tracks_result_affecting_parameters() {
        let base = KbConfig::default();
        assert_eq!(base.fingerprint(), KbConfig::default().fingerprint());
        let wider = KbConfig {
            scw: ScwConfig::custom(128, 3, 12),
            ..KbConfig::default()
        };
        assert_ne!(base.fingerprint(), wider.fingerprint());
    }

    #[test]
    fn add_clause_programmatically() {
        let mut b = KbBuilder::new();
        let mut builder_scope = clare_term::builder::TermBuilder::new(b.symbols_mut());
        let args = vec![builder_scope.atom("x"), builder_scope.int(1)];
        let fact = builder_scope.fact("p", args);
        b.add_clause("m", fact);
        let kb = b.finish(KbConfig::default());
        assert_eq!(kb.lookup("p", 2).unwrap().clauses().len(), 1);
    }
}
