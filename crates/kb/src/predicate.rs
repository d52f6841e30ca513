//! Predicates, modules, and the knowledge base proper.

use crate::arena::ClauseArena;
use crate::build::KbConfig;
use clare_disk::StoredFile;
use clare_scw::{ClauseAddr, IndexFile};
use clare_term::{Clause, ClauseId, Symbol, SymbolTable};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled predicate: the clause list (user order), its compiled clause
/// file, its secondary index file (which holds the address of every clause
/// record, in clause order), plus one retrieval accelerator built at
/// compile/load time — the pre-decoded head-stream [`ClauseArena`], whose
/// track ranges double as the address → clause-id map — and the rule
/// count the search-mode heuristic reads.
/// It is immutable and is the unit of sharing: modules hold it by [`Arc`].
#[derive(Debug, Clone)]
pub struct Predicate {
    pub(crate) functor: Symbol,
    pub(crate) arity: usize,
    pub(crate) clauses: Vec<Clause>,
    /// Clauses with a non-empty body, counted in the compile loop.
    pub(crate) rules: usize,
    pub(crate) file: StoredFile,
    pub(crate) index: IndexFile,
    pub(crate) arena: ClauseArena,
}

impl Predicate {
    /// The predicate indicator.
    pub fn indicator(&self) -> (Symbol, usize) {
        (self.functor, self.arity)
    }

    /// The clauses in user (program) order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The compiled clause file (track-organised records).
    pub fn file(&self) -> &StoredFile {
        &self.file
    }

    /// The SCW+MB secondary index file.
    pub fn index(&self) -> &IndexFile {
        &self.index
    }

    /// The pre-decoded clause-head stream arena (built once at
    /// compile/load time; see [`ClauseArena`]).
    pub fn arena(&self) -> &ClauseArena {
        &self.arena
    }

    /// Clause position (program order) of the record at `addr`, in O(1):
    /// clauses sit in `(track, slot)` order, so it is the track's first
    /// clause plus the slot. `None` if the address was not produced for
    /// this predicate (slot past the track's last record, or track past
    /// the end of the file).
    pub fn clause_id_at(&self, addr: ClauseAddr) -> Option<ClauseId> {
        let range = self.arena.track_clauses(addr.track() as usize);
        let pos = range.start + addr.slot() as usize;
        range.contains(&pos).then(|| ClauseId::new(pos as u32))
    }

    /// The clause stored at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not produced for this predicate.
    pub fn clause_at(&self, addr: ClauseAddr) -> (&Clause, ClauseId) {
        let id = self
            .clause_id_at(addr)
            .expect("address belongs to this predicate");
        (&self.clauses[id.index() as usize], id)
    }

    /// The raw clause record bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn record_at(&self, addr: ClauseAddr) -> &[u8] {
        &self.file.tracks()[addr.track() as usize].records()[addr.slot() as usize]
    }

    /// True if the predicate mixes ground facts with rules or non-ground
    /// facts — the "mixed relation" a coupled EDB/IDB system disallows.
    pub fn is_mixed(&self) -> bool {
        let ground = self.clauses.iter().filter(|c| c.is_ground_fact()).count();
        ground != 0 && ground != self.clauses.len()
    }

    /// Fraction of clauses that are rules (non-empty body), in O(1): the
    /// rule count is compiled with the predicate.
    pub fn rule_fraction(&self) -> f64 {
        if self.clauses.is_empty() {
            return 0.0;
        }
        self.rules as f64 / self.clauses.len() as f64
    }
}

/// Memory- or disk-residency of a module (§2: small modules are loaded
/// into main memory when required, large modules are disk resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Loaded into main memory when required.
    Small,
    /// Disk resident; searched through the CLARE filters.
    Large,
}

/// A named module: a group of predicates.
#[derive(Debug, Clone)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) kind: ModuleKind,
    pub(crate) predicates: Vec<Arc<Predicate>>,
}

impl Module {
    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Small (memory) or large (disk) classification.
    pub fn kind(&self) -> ModuleKind {
        self.kind
    }

    /// The predicates in definition order.
    pub fn predicates(&self) -> &[Arc<Predicate>] {
        &self.predicates
    }

    /// Total compiled bytes (clause files plus index files).
    pub fn compiled_bytes(&self) -> usize {
        self.predicates
            .iter()
            .map(|p| p.file.occupied_bytes() + p.index.file_bytes())
            .sum()
    }
}

/// The assembled knowledge base.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    pub(crate) symbols: SymbolTable,
    pub(crate) modules: Vec<Module>,
    pub(crate) by_indicator: HashMap<(Symbol, usize), (usize, usize)>,
    /// Process-unique build generation (see [`Self::generation`]).
    pub(crate) generation: u64,
    /// Generation of the knowledge base this one was derived from via
    /// [`Self::with_predicates`], if any.
    pub(crate) parent_generation: Option<u64>,
    /// Predicates whose clause lists changed relative to the parent.
    pub(crate) touched: Vec<(Symbol, usize)>,
    /// The compilation parameters the base was built under. Everything
    /// derived from it — overlay validation, compaction, WAL replay —
    /// reads them from here, so a rebuild keeps the base's layout.
    pub(crate) config: KbConfig,
    /// Fingerprint of the compiled *contents* (see
    /// [`Self::content_fingerprint`]); computed once at build time.
    pub(crate) content_fingerprint: u64,
}

impl KnowledgeBase {
    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Process-unique identifier of this compiled knowledge base: every
    /// [`KbBuilder`](crate::build::KbBuilder) finish mints a fresh one.
    /// Retrieval caches use it to tell "the same base" from "a different
    /// base with the same shape".
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation of the base this one was derived from through
    /// [`Self::with_predicates`], or `None` for a base built from scratch
    /// (a [`Self::to_builder`] rebuild included).
    pub fn parent_generation(&self) -> Option<u64> {
        self.parent_generation
    }

    /// The predicates possibly affected by changes relative to the parent
    /// base (meaningful only when [`Self::parent_generation`] is set).
    /// [`Self::with_predicates`] lists every predicate of each module it
    /// changed, because a change anywhere in a module can flip its
    /// [`ModuleKind`] and with it the retrieval timing of sibling
    /// predicates. Predicates outside those modules are the parent's own,
    /// shared by pointer, which is what lets a retrieval cache invalidate
    /// per predicate instead of globally. A base built from scratch lists
    /// every predicate.
    pub fn touched_predicates(&self) -> &[(Symbol, usize)] {
        &self.touched
    }

    /// Fingerprint of the result-affecting compilation parameters (SCW
    /// scheme, scan rate, track size). Two bases with equal fingerprints
    /// and equal clause lists produce byte-identical retrievals.
    pub fn build_fingerprint(&self) -> u64 {
        self.config.fingerprint()
    }

    /// The compilation parameters this base was built under.
    pub fn config(&self) -> &KbConfig {
        &self.config
    }

    /// Fingerprint of the compiled contents: the build parameters plus,
    /// per module and predicate, the functor text, arity, clause count,
    /// and every track's record-stream CRC. Two bases with equal content
    /// fingerprints serve byte-identical retrievals over their base
    /// clauses. The serving hello carries this value, and a cluster
    /// router refuses a backend whose fingerprint disagrees — a
    /// wrong-base backend would silently serve wrong answers.
    pub fn content_fingerprint(&self) -> u64 {
        self.content_fingerprint
    }

    pub(crate) fn compute_content_fingerprint(&self) -> u64 {
        let mut h = self.build_fingerprint() ^ 0x9e37_79b9_7f4a_7c15;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        for module in &self.modules {
            for &b in module.name.as_bytes() {
                mix(u64::from(b));
            }
            for pred in &module.predicates {
                if let Some(text) = self.symbols.try_atom_text(pred.functor) {
                    for &b in text.as_bytes() {
                        mix(u64::from(b));
                    }
                }
                mix(pred.arity as u64);
                mix(pred.clauses.len() as u64);
                for track in pred.file.tracks() {
                    mix(u64::from(track.stored_crc()));
                    mix(track.used_bytes() as u64);
                }
            }
        }
        h
    }

    /// The modules in creation order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Looks up a predicate by indicator.
    pub fn predicate(&self, functor: Symbol, arity: usize) -> Option<&Predicate> {
        self.by_indicator
            .get(&(functor, arity))
            .map(|&(m, p)| &*self.modules[m].predicates[p])
    }

    /// Looks up a predicate by functor *name* (convenience for tests and
    /// examples).
    pub fn lookup(&self, name: &str, arity: usize) -> Option<&Predicate> {
        let sym = self.symbols.lookup_atom(name)?;
        self.predicate(sym, arity)
    }

    /// The module containing a predicate, with the predicate itself.
    pub fn module_of(&self, functor: Symbol, arity: usize) -> Option<(&Module, &Predicate)> {
        self.by_indicator.get(&(functor, arity)).map(|&(m, p)| {
            let module = &self.modules[m];
            (module, &*module.predicates[p])
        })
    }

    /// Total clause count across all modules.
    pub fn clause_count(&self) -> usize {
        self.modules
            .iter()
            .flat_map(|m| &m.predicates)
            .map(|p| p.clauses.len())
            .sum()
    }

    /// Total compiled size on disk in bytes.
    pub fn compiled_bytes(&self) -> usize {
        self.modules.iter().map(Module::compiled_bytes).sum()
    }

    /// Decompiles the knowledge base back into a [`KbBuilder`] carrying
    /// the same symbol table and every clause in module/predicate order.
    /// Its finish is a base built from scratch, with no parent; a change
    /// to a few predicates goes through [`Self::with_predicates`].
    ///
    /// [`KbBuilder`]: crate::build::KbBuilder
    pub fn to_builder(&self) -> crate::build::KbBuilder {
        let mut builder = crate::build::KbBuilder::new();
        *builder.symbols_mut() = self.symbols.clone();
        for module in &self.modules {
            for pred in &module.predicates {
                for clause in &pred.clauses {
                    builder.add_clause(&module.name, clause.clone());
                }
            }
        }
        builder
    }

    /// Approximate bytes needed to hold every clause in main memory — the
    /// quantity that breaks in-RAM Prolog systems at scale (the paper's
    /// footnote: benchmarked systems "were unable to cope with more than
    /// about 60k clauses").
    pub fn in_memory_bytes(&self) -> usize {
        self.symbols.approx_bytes()
            + self
                .modules
                .iter()
                .flat_map(|m| &m.predicates)
                .map(|p| p.file.payload_bytes() * 2)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{KbBuilder, KbConfig};

    fn family() -> crate::KnowledgeBase {
        let mut b = KbBuilder::new();
        b.consult(
            "family",
            "parent(tom, bob). parent(bob, ann). parent(bob, pat).
             male(tom). male(bob).
             grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
             ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
        )
        .unwrap();
        b.finish(KbConfig::default())
    }

    #[test]
    fn predicates_grouped_by_indicator() {
        let kb = family();
        assert_eq!(kb.lookup("parent", 2).unwrap().clauses().len(), 3);
        assert_eq!(kb.lookup("male", 1).unwrap().clauses().len(), 2);
        assert_eq!(kb.lookup("ancestor", 2).unwrap().clauses().len(), 2);
        assert!(kb.lookup("parent", 3).is_none());
        assert!(kb.lookup("unknown", 1).is_none());
        assert_eq!(kb.clause_count(), 8);
    }

    #[test]
    fn clause_order_is_preserved() {
        let kb = family();
        let parent = kb.lookup("parent", 2).unwrap();
        let firsts: Vec<String> = parent
            .clauses()
            .iter()
            .map(|c| {
                let (f, _) = c.predicate();
                kb.symbols().atom_text(f).to_owned()
            })
            .collect();
        assert_eq!(firsts, vec!["parent"; 3]);
        // Order check via the second argument atoms of the heads.
        let arg1: Vec<&str> = parent
            .clauses()
            .iter()
            .map(|c| match c.head() {
                clare_term::Term::Struct { args, .. } => match &args[1] {
                    clare_term::Term::Atom(s) => kb.symbols().atom_text(*s),
                    _ => panic!("expected atom"),
                },
                _ => panic!("expected struct"),
            })
            .collect();
        assert_eq!(arg1, vec!["bob", "ann", "pat"]);
    }

    #[test]
    fn addresses_resolve_to_records() {
        let kb = family();
        let p = kb.lookup("parent", 2).unwrap();
        assert_eq!(p.index().len(), 3);
        for i in 0..3 {
            let addr = p.index().addr_at(i);
            let (clause, id) = p.clause_at(addr);
            assert_eq!(id.index() as usize, i);
            assert_eq!(clause, &p.clauses()[i]);
            let record = p.record_at(addr);
            let (decoded, _) = clare_pif::ClauseRecord::from_bytes(record).unwrap();
            assert_eq!(decoded.clause(), clause);
        }
    }

    #[test]
    fn index_sized_per_clause() {
        let kb = family();
        let p = kb.lookup("parent", 2).unwrap();
        assert_eq!(p.index().len(), 3);
        assert!(p.index().file_bytes() < p.file().payload_bytes());
    }

    #[test]
    fn mixed_relation_detected() {
        let mut b = KbBuilder::new();
        b.consult(
            "mix",
            "status(server1, up). status(server2, down).
             status(S, unknown) :- not_monitored(S).
             not_monitored(printer).",
        )
        .unwrap();
        let kb = b.finish(KbConfig::default());
        assert!(kb.lookup("status", 2).unwrap().is_mixed());
        assert!(!kb.lookup("not_monitored", 1).unwrap().is_mixed());
        let frac = kb.lookup("status", 2).unwrap().rule_fraction();
        assert!((frac - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn memory_and_disk_sizes_positive() {
        let kb = family();
        assert!(kb.compiled_bytes() > 0);
        assert!(kb.in_memory_bytes() > 0);
    }
}
