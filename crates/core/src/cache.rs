//! Epoch-invalidated retrieval cache.
//!
//! The filters are deterministic: for a fixed knowledge base and a fixed
//! query, [`crate::retrieve`] returns byte-identical [`Retrieval`]s every
//! time. [`ClauseRetrievalServer`](crate::ClauseRetrievalServer) exploits
//! that with a sharded, bounded cache of two layers:
//!
//! * **answers** — the full [`Retrieval`] (candidates and every stat),
//!   keyed by predicate, [`SearchMode`], and the canonical PIF encoding
//!   of the query;
//! * **FS1 outcomes** — the first-stage [`ScanOutcome`] keyed without the
//!   mode, so a `TwoStage` miss can still skip the index scan a prior
//!   `Fs1Only` retrieval already paid for (and vice versa).
//!
//! # The epoch invariant
//!
//! Every entry is stamped with `(global epoch, predicate epoch)` at
//! insert, and a hit requires both stamps to still be current. Epochs
//! move only forward:
//!
//! * an **incremental** update ([`KnowledgeBase::with_predicates`] of the
//!   currently published base, same [`KbConfig`](clare_kb::KbConfig) fingerprint)
//!   bumps the predicate epoch of every touched predicate — module
//!   granularity, see [`KnowledgeBase::touched_predicates`];
//! * any **other** update (fresh build, loaded `.ckb`, different
//!   compilation parameters) bumps the global epoch, invalidating
//!   everything at once;
//! * a **track quarantine** bumps the affected predicate's epoch: the
//!   stored file memoizes CRC verdicts, so post-fault retrievals may
//!   legitimately differ (degraded) from what was cached before.
//!
//! The server reads the stamp and the knowledge-base snapshot under one
//! read-lock acquisition, and updates bump epochs while holding the write
//! lock — so a stamp can never pair an old base with a new epoch or vice
//! versa, and a hit is provably the byte-identical answer a fresh run of
//! the filters against the current base would produce. Degraded answers
//! are never inserted: a hit is always a fault-free answer.
//!
//! Keying by the canonical PIF stream rather than by codeword matters:
//! codewords are a lossy superimposition (false drops are the design
//! premise of FS1), so two distinct queries can share a codeword yet have
//! different answer sets. The PIF stream is lossless up to variable
//! renaming, and retrieval results are invariant under renaming.

use crate::crs::{Retrieval, SearchMode};
use clare_kb::KnowledgeBase;
use clare_pif::PifStream;
use clare_scw::ScanOutcome;
use clare_term::{Symbol, Term};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Retrieval-cache knobs, carried on [`crate::CrsOptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether the server consults the cache at all. Disabled, every
    /// retrieval runs the full filter pipeline.
    pub enabled: bool,
    /// Upper bound on entries *per layer* (answers and FS1 outcomes are
    /// bounded independently), spread across the shards. Zero disables
    /// the cache.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            capacity: 2048,
        }
    }
}

impl CacheConfig {
    /// A disabled cache (every retrieval runs the filters).
    pub fn off() -> Self {
        CacheConfig {
            enabled: false,
            capacity: 0,
        }
    }
}

/// Lock striping: keys hash to one of this many independently locked
/// shards, so concurrent clients on different predicates never contend.
const SHARDS: usize = 8;

/// The `(global, predicate)` epoch pair an entry was inserted under. A
/// hit requires exact equality with the current pair — epochs only move
/// forward, so a stale entry can never validate again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Stamp {
    global: u64,
    predicate: u64,
}

/// Canonical identity of a cacheable query: its predicate plus the PIF
/// query stream, word for word (tag, content, *and* extension — the
/// stream is lossless up to variable renaming, and retrievals are
/// invariant under renaming). Queries that fail PIF encoding have no
/// stream to key on; they fall back to the uncached path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    functor: Symbol,
    arity: usize,
    sig: Box<[u64]>,
}

impl QueryKey {
    /// Builds the canonical key of `query` from its already-encoded PIF
    /// `stream`, or `None` for a query that is not callable.
    pub(crate) fn new(query: &Term, stream: &PifStream) -> Option<QueryKey> {
        let (functor, arity) = query.functor_arity()?;
        let mut sig = Vec::with_capacity(stream.words().len() * 2);
        for w in stream.words() {
            sig.push(u64::from(w.to_u32()));
            // `u64::MAX` cannot collide with a real extension (u32).
            sig.push(w.extension().map_or(u64::MAX, u64::from));
        }
        Some(QueryKey {
            functor,
            arity,
            sig: sig.into(),
        })
    }

    /// The `(functor, arity)` pair epochs are tracked under.
    pub(crate) fn pred(&self) -> (Symbol, usize) {
        (self.functor, self.arity)
    }
}

/// One query's handle on the FS1 layer, handed into the scan stage: `get`
/// is tried before scanning, `put` is called with a freshly computed
/// outcome. The server captures the key and stamp here, so the pipeline
/// stays ignorant of epochs.
#[derive(Clone, Copy)]
pub(crate) struct Fs1Slot<'a> {
    pub(crate) cache: &'a RetrievalCache,
    pub(crate) key: &'a QueryKey,
    pub(crate) stamp: Stamp,
}

impl Fs1Slot<'_> {
    /// A still-valid cached outcome, if any.
    pub(crate) fn get(&self) -> Option<ScanOutcome> {
        self.cache.get_fs1(self.key, self.stamp)
    }

    /// Offers a freshly computed outcome for caching.
    pub(crate) fn put(&self, outcome: &ScanOutcome) {
        self.cache
            .put_fs1(self.key.clone(), self.stamp, outcome.clone());
    }
}

/// One bounded, FIFO-evicted cache layer. Stale entries (stamp mismatch)
/// are dropped lazily on lookup; the eviction queue bounds the map.
#[derive(Debug)]
struct Layer<K, V> {
    map: HashMap<K, (Stamp, V)>,
    order: VecDeque<K>,
}

// Manual impl: the derive would demand `K: Default, V: Default`.
impl<K, V> Default for Layer<K, V> {
    fn default() -> Self {
        Layer {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Layer<K, V> {
    fn get(&mut self, key: &K, now: Stamp) -> Option<V> {
        let m = clare_trace::metrics();
        match self.map.get(key) {
            Some((stamp, value)) if *stamp == now => {
                m.cache_hits.inc();
                Some(value.clone())
            }
            Some(_) => {
                // An epoch moved under this entry; its queue slot is
                // reclaimed when eviction reaches it.
                self.map.remove(key);
                m.cache_epoch_invalidations.inc();
                m.cache_misses.inc();
                None
            }
            None => {
                m.cache_misses.inc();
                None
            }
        }
    }

    fn put(&mut self, key: K, stamp: Stamp, value: V, cap: usize) {
        if cap == 0 {
            return;
        }
        if self.map.insert(key.clone(), (stamp, value)).is_none() {
            self.order.push_back(key);
        }
        // Bounding the queue bounds the map: every live key sits in the
        // queue at least once. Popped keys already removed by a stale-on-
        // lookup drop are not double-counted as evictions.
        while self.order.len() > cap {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&old).is_some() {
                clare_trace::metrics().cache_evictions.inc();
            }
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    answers: Layer<(QueryKey, SearchMode), Retrieval>,
    fs1: Layer<QueryKey, ScanOutcome>,
}

/// The server-side cache: epoch state plus the sharded layers.
#[derive(Debug)]
pub(crate) struct RetrievalCache {
    enabled: bool,
    /// Per-shard, per-layer entry bound.
    shard_cap: usize,
    /// Bumped by non-incremental updates; invalidates every entry.
    global: AtomicU64,
    /// Per-predicate epochs, bumped by incremental updates (touched
    /// predicates) and by track quarantines. Absent means epoch 0.
    preds: Mutex<HashMap<(Symbol, usize), u64>>,
    shards: [Mutex<Shard>; SHARDS],
}

impl RetrievalCache {
    pub(crate) fn new(config: &CacheConfig) -> Self {
        RetrievalCache {
            enabled: config.enabled && config.capacity > 0,
            shard_cap: config.capacity.div_ceil(SHARDS).max(1),
            global: AtomicU64::new(0),
            preds: Mutex::new(HashMap::new()),
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// The current epoch pair for `pred`. The server must call this while
    /// holding the same read lock its knowledge-base snapshot comes from,
    /// so the stamp and the snapshot are mutually consistent.
    pub(crate) fn stamp(&self, pred: (Symbol, usize)) -> Stamp {
        Stamp {
            global: self.global.load(Ordering::Acquire),
            predicate: self.preds.lock().get(&pred).copied().unwrap_or(0),
        }
    }

    /// Invalidates every cached entry for one predicate.
    pub(crate) fn bump_predicate(&self, pred: (Symbol, usize)) {
        *self.preds.lock().entry(pred).or_insert(0) += 1;
    }

    /// Invalidates the whole cache.
    pub(crate) fn bump_global(&self) {
        self.global.fetch_add(1, Ordering::Release);
    }

    /// Epoch bookkeeping for a knowledge-base swap, called under the
    /// server's write lock: an incremental successor of the currently
    /// published base (same lineage, same compilation fingerprint) bumps
    /// only its touched predicates; anything else bumps the global epoch.
    pub(crate) fn bump_for_update(&self, old: &KnowledgeBase, new: &KnowledgeBase) {
        let incremental = new.parent_generation() == Some(old.generation())
            && new.build_fingerprint() == old.build_fingerprint();
        if incremental {
            for &pred in new.touched_predicates() {
                self.bump_predicate(pred);
            }
        } else {
            self.bump_global();
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    pub(crate) fn get_answer(
        &self,
        key: &QueryKey,
        mode: SearchMode,
        now: Stamp,
    ) -> Option<Retrieval> {
        if !self.enabled {
            return None;
        }
        self.shard(key)
            .lock()
            .answers
            .get(&(key.clone(), mode), now)
    }

    pub(crate) fn put_answer(
        &self,
        key: QueryKey,
        mode: SearchMode,
        stamp: Stamp,
        answer: Retrieval,
    ) {
        if !self.enabled {
            return;
        }
        self.shard(&key)
            .lock()
            .answers
            .put((key, mode), stamp, answer, self.shard_cap);
    }

    pub(crate) fn get_fs1(&self, key: &QueryKey, now: Stamp) -> Option<ScanOutcome> {
        if !self.enabled {
            return None;
        }
        self.shard(key).lock().fs1.get(key, now)
    }

    pub(crate) fn put_fs1(&self, key: QueryKey, stamp: Stamp, outcome: ScanOutcome) {
        if !self.enabled {
            return;
        }
        self.shard(&key)
            .lock()
            .fs1
            .put(key.clone(), stamp, outcome, self.shard_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::encode_keyed;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    fn key(src: &str, symbols: &mut SymbolTable) -> QueryKey {
        encode_keyed(&parse_term(src, symbols).unwrap()).1.unwrap()
    }

    #[test]
    fn query_keys_are_canonical_up_to_renaming() {
        let mut symbols = SymbolTable::default();
        let a = key("p(a, X, X)", &mut symbols);
        let renamed = key("p(a, Y, Y)", &mut symbols);
        assert_eq!(a, renamed, "alpha-renaming preserves the key");
        let distinct_vars = key("p(a, X, Z)", &mut symbols);
        assert_ne!(a, distinct_vars, "cross-binding structure is kept");
        let other = key("p(b, X, X)", &mut symbols);
        assert_ne!(a, other);
    }

    #[test]
    fn unencodable_queries_have_no_key() {
        let mut symbols = SymbolTable::default();
        let q = parse_term("p(999999999999)", &mut symbols).unwrap();
        assert!(encode_keyed(&q).1.is_none());
    }

    #[test]
    fn epoch_bumps_invalidate_selectively() {
        let mut symbols = SymbolTable::default();
        let cache = RetrievalCache::new(&CacheConfig::default());
        let p = key("p(a)", &mut symbols);
        let q = key("q(a)", &mut symbols);
        let empty = Retrieval {
            candidates: Vec::new(),
            stats: crate::crs::RetrievalStats::empty(SearchMode::SoftwareOnly),
        };
        let sp = cache.stamp(p.pred());
        let sq = cache.stamp(q.pred());
        cache.put_answer(p.clone(), SearchMode::TwoStage, sp, empty.clone());
        cache.put_answer(q.clone(), SearchMode::TwoStage, sq, empty.clone());
        assert!(cache.get_answer(&p, SearchMode::TwoStage, sp).is_some());
        assert!(
            cache.get_answer(&p, SearchMode::Fs1Only, sp).is_none(),
            "mode is part of the key"
        );

        cache.bump_predicate(p.pred());
        let sp2 = cache.stamp(p.pred());
        assert_ne!(sp, sp2);
        assert!(cache.get_answer(&p, SearchMode::TwoStage, sp2).is_none());
        assert!(
            cache
                .get_answer(&q, SearchMode::TwoStage, cache.stamp(q.pred()))
                .is_some(),
            "bumping p leaves q valid"
        );

        cache.bump_global();
        assert!(cache
            .get_answer(&q, SearchMode::TwoStage, cache.stamp(q.pred()))
            .is_none());
    }

    #[test]
    fn layers_stay_bounded() {
        let mut symbols = SymbolTable::default();
        let cache = RetrievalCache::new(&CacheConfig {
            enabled: true,
            capacity: 8,
        });
        let evictions_before = clare_trace::metrics().cache_evictions.get();
        let keys: Vec<QueryKey> = (0..200)
            .map(|i| key(&format!("p(k{i})"), &mut symbols))
            .collect();
        let empty = Retrieval {
            candidates: Vec::new(),
            stats: crate::crs::RetrievalStats::empty(SearchMode::SoftwareOnly),
        };
        for k in &keys {
            let s = cache.stamp(k.pred());
            cache.put_answer(k.clone(), SearchMode::TwoStage, s, empty.clone());
        }
        let live: usize = cache
            .shards
            .iter()
            .map(|s| s.lock().answers.map.len())
            .sum();
        assert!(live <= 8 * 2, "bounded: {live} entries live");
        assert!(clare_trace::metrics().cache_evictions.get() > evictions_before);
    }
}
