//! Multi-client access: the Clause Retrieval Server proper.
//!
//! "The CRS will also support simultaneous access by multiple clients
//! which involves procedures for concurrency control and transaction
//! handling." (§2.2.) The server holds the published state behind a
//! read/write lock: retrievals and solves run concurrently (each client
//! gets its own FS2 engine state — the simulated hardware is virtualised
//! per call, as a time-sliced CRS would do), while writers publish
//! atomically.
//!
//! # The mutable knowledge base
//!
//! The published state is a pair: an **immutable base snapshot**
//! ([`KnowledgeBase`]) plus a **memtable overlay**
//! ([`clare_wal::Overlay`]) holding every `assert`/`retract` since the
//! base was built. The write path is LevelDB-shaped:
//!
//! 1. every commit serializes on one commit lock, applies its ops to a
//!    *clone* of the overlay (copy-on-write — readers never see a
//!    partial commit), and — when a write-ahead log is attached via
//!    [`ClauseRetrievalServer::attach_wal`] — appends the batch to the
//!    WAL. **The fsynced append is the acknowledgement point**: an error
//!    anywhere publishes nothing;
//! 2. the new overlay is swapped in under the write lock, bumping the
//!    retrieval-cache epoch of every touched predicate;
//! 3. a background **compaction** ([`ClauseRetrievalServer::compact_now`]
//!    / [`spawn_compaction`](ClauseRetrievalServer::spawn_compaction))
//!    folds the overlay into a fresh base — track segments and FS1
//!    codeword indexes rewritten off the write path — and swaps it in
//!    atomically, re-applying any ops that committed while it ran.
//!    In-flight retrievals keep their snapshot pair; nothing blocks.
//!
//! Retrievals merge the overlay at lookup time
//! ([`crate::crs::retrieve_batch`]): overlay clauses have no codewords
//! yet, so the filters pass them unconditionally — the superset
//! (no-false-negative) invariant is preserved, and the merged answer is
//! byte-identical to a from-scratch rebuild.

use crate::budget::BudgetExceeded;
use crate::cache::{Fs1Slot, QueryKey, RetrievalCache, Stamp};
use crate::crs::{CrsOptions, Retrieval, SearchMode};
use crate::plan::{encode_keyed, QueryPlan};
use crate::request::{RequestContext, Stage};
use crate::resolve::{ModeChoice, SolveOptions, SolveOutcome};
use crate::{lock, read, write};
use clare_disk::SimNanos;
use clare_kb::KnowledgeBase;
use clare_pif::{PifError, PifStream};
use clare_term::{ClauseDisplay, SymbolTable, Term};
use clare_wal::{Overlay, OverlayError, ReplayReport, Wal, WalError, WalOp, WalRecord};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Instant;

/// Aggregate service statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Retrievals served (batch members count individually).
    pub retrievals: u64,
    /// Retrieval requests served that carried more than one query (each
    /// also bumps `retrievals` by its size).
    pub batches: u64,
    /// Solve calls served.
    pub solves: u64,
    /// Knowledge-base updates committed (wholesale swaps and overlay
    /// commits both count; no-op commits do not).
    pub updates: u64,
    /// Requests refused by admission control (e.g. a network front-end
    /// shedding load when its queue is full); see
    /// [`ClauseRetrievalServer::note_rejected`].
    pub rejected: u64,
    /// Answers (retrievals or solves) served degraded: a storage fault
    /// quarantined at least one track, so the hardware filter was skipped
    /// there and the clauses re-served via software unification. Degraded
    /// answers are still correct — the count is a health signal, not an
    /// error count.
    pub degraded: u64,
    /// Total modelled retrieval time across clients.
    pub total_elapsed: SimNanos,
}

/// The atomically published serving state: an immutable base snapshot
/// plus the memtable overlay of everything asserted/retracted since it
/// was built. Readers clone both `Arc`s under one read-lock acquisition
/// and keep a consistent pair for the whole call.
#[derive(Debug, Clone)]
struct Published {
    base: Arc<KnowledgeBase>,
    overlay: Arc<Overlay>,
}

/// Writer-side state, all behind the commit lock: holding it is what
/// serializes every publisher (overlay commits, wholesale updates, WAL
/// attachment, and the compaction swap), so the published base can never
/// move under a writer between its read and its write.
#[derive(Debug)]
struct CommitState {
    /// The attached write-ahead log, if any. Appends happen under the
    /// commit lock; the fsynced batch is the acknowledgement point.
    wal: Option<Wal>,
    /// Next sequence number when no WAL is attached (the overlay still
    /// orders its ops by seq; durability simply isn't promised).
    mem_seq: u64,
    /// Highest sequence number whose record has been folded out of the
    /// overlay (by compaction or a wholesale update). A replication
    /// subscriber asking to catch up from below this point cannot be
    /// served from the overlay — [`SubscribeError::Gap`].
    folded_through: u64,
}

/// What a successful commit did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The WAL sequence numbers this commit occupies (`start == end` for
    /// a no-op commit, which skips the log entirely).
    pub seqs: std::ops::Range<u64>,
    /// Clauses added to the overlay.
    pub asserted: usize,
    /// Clauses removed (retracted out of the base view or out of the
    /// overlay).
    pub retracted: usize,
    /// Whether the commit was durably logged (a WAL is attached and the
    /// batch was fsynced before this receipt was produced).
    pub durable: bool,
}

impl CommitReceipt {
    fn noop() -> Self {
        CommitReceipt {
            seqs: 0..0,
            asserted: 0,
            retracted: 0,
            durable: false,
        }
    }
}

/// Errors from committing mutations. In every case **nothing was
/// published**: the overlay clone is discarded and readers keep the old
/// state.
#[derive(Debug)]
pub enum CommitError {
    /// A clause failed validation (parse, PIF compile, or track fit).
    Overlay(OverlayError),
    /// The write-ahead log refused or failed the append, so the commit
    /// was never acknowledged.
    Wal(WalError),
    /// A replicated record arrived out of order
    /// ([`ClauseRetrievalServer::apply_replicated`]): its sequence number
    /// skips past what this replica has applied. The shipper must resend
    /// from `expected`.
    ReplicaGap {
        /// The sequence number this replica will accept next.
        expected: u64,
    },
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Overlay(e) => write!(f, "commit rejected: {e}"),
            CommitError::Wal(e) => write!(f, "commit not acknowledged: {e}"),
            CommitError::ReplicaGap { expected } => {
                write!(f, "replication gap: expected seq {expected}")
            }
        }
    }
}

impl std::error::Error for CommitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommitError::Overlay(e) => Some(e),
            CommitError::Wal(e) => Some(e),
            CommitError::ReplicaGap { .. } => None,
        }
    }
}

/// Errors from [`ClauseRetrievalServer::subscribe_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeError {
    /// Catch-up from the requested point is impossible: every record
    /// through `folded_through` has been folded into the base (by
    /// compaction or a wholesale update), so the overlay no longer holds
    /// it. The subscriber must resynchronise some other way (e.g. restart
    /// from a fresh copy of the base).
    Gap {
        /// Records at or below this sequence are gone from the overlay.
        folded_through: u64,
    },
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::Gap { folded_through } => write!(
                f,
                "cannot catch up: records through seq {folded_through} were compacted away"
            ),
        }
    }
}

impl std::error::Error for SubscribeError {}

/// A replication subscriber's delivery callback: called under the commit
/// lock with each committed batch's records, in sequence order, with no
/// gaps from the subscription point. Return `false` to cancel the
/// subscription (e.g. the peer hung up).
pub type LogWatcher = Box<dyn FnMut(&[WalRecord]) -> bool + Send>;

/// The registered replication subscribers. Deliveries happen under the
/// commit lock (commit order **is** delivery order); this inner mutex
/// only protects the vector against concurrent registration.
#[derive(Default)]
struct WatcherSet {
    inner: Mutex<Vec<LogWatcher>>,
}

impl WatcherSet {
    /// Delivers `records` to every live watcher, dropping the ones that
    /// decline. Caller must hold the commit lock.
    fn notify(&self, records: &[WalRecord]) {
        if records.is_empty() {
            return;
        }
        let mut watchers = lock(&self.inner);
        watchers.retain_mut(|w| w(records));
    }
}

impl fmt::Debug for WatcherSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WatcherSet({})", lock(&self.inner).len())
    }
}

impl From<OverlayError> for CommitError {
    fn from(e: OverlayError) -> Self {
        CommitError::Overlay(e)
    }
}

impl From<WalError> for CommitError {
    fn from(e: WalError) -> Self {
        CommitError::Wal(e)
    }
}

/// What one [`ClauseRetrievalServer::compact_now`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionOutcome {
    /// Another compaction was already in flight; this call did nothing.
    AlreadyRunning,
    /// The overlay was empty; there was nothing to fold.
    Clean,
    /// The rebuilt base was swapped in; `folded` logged operations left
    /// the overlay (ops that committed during the rebuild were re-applied
    /// on top of the new base).
    Swapped {
        /// Operations folded into the new base.
        folded: usize,
    },
    /// The published base moved while the rebuild ran (a wholesale
    /// [`update`](ClauseRetrievalServer::update) swapped it); the rebuilt
    /// base was discarded. Run compaction again against the new state.
    Aborted,
    /// The rebuild failed to compile; the overlay is kept as-is. (Commit
    /// validation makes this unreachable for ordinary clause traffic.)
    Failed,
}

/// A shared, thread-safe clause retrieval service.
///
/// # Examples
///
/// ```
/// use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
/// use clare_kb::{KbBuilder, KbConfig};
/// use clare_term::parser::parse_term;
///
/// let mut b = KbBuilder::new();
/// b.consult("m", "p(a). p(b).")?;
/// let query = parse_term("p(a)", b.symbols_mut())?;
/// let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default());
///
/// let outcome = server.retrieve(&query, SearchMode::TwoStage);
/// assert_eq!(outcome.stats.unified, 1);
/// assert_eq!(server.stats().retrievals, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClauseRetrievalServer {
    kb: RwLock<Published>,
    /// Lock order: `commit` strictly before `kb` — every writer takes the
    /// commit lock first and the `kb` write lock only for the final swap.
    commit: Mutex<CommitState>,
    /// Single-flight guard for compaction; also lets the serving path
    /// count retrievals that overlap a compaction window.
    compacting: AtomicBool,
    options: CrsOptions,
    /// Service statistics. Every update and every snapshot takes this
    /// lock, so a snapshot is a copy of one consistent state.
    stats: Mutex<ServerStats>,
    /// Epoch-invalidated answer/FS1 cache ([`crate::cache`]). Epoch
    /// stamps are read under the same `kb` read lock the snapshot comes
    /// from, and updates bump epochs under the write lock, so a stamp and
    /// its snapshot are always mutually consistent.
    cache: RetrievalCache,
    /// Replication subscribers ([`Self::subscribe_ops`]); notified under
    /// the commit lock after every publish.
    watchers: WatcherSet,
    /// Back-reference populated by [`Self::shared`]: lets auto-compaction
    /// spawn a detached background pass. Dangling for plain [`Self::new`]
    /// servers, which compact synchronously instead.
    self_weak: Weak<ClauseRetrievalServer>,
}

/// The `functor/arity` metric key of a query, if it has one. Resolved
/// against the overlay's symbol table — a superset of the base's, so
/// predicates that exist only in the overlay still report. A functor the
/// server has never interned (a query minted in some newer lineage) has
/// no name here and no clauses either; it gets no key.
fn pred_key(symbols: &SymbolTable, query: &Term) -> Option<String> {
    let (functor, arity) = query.functor_arity()?;
    Some(format!("{}/{arity}", symbols.try_atom_text(functor)?))
}

impl ClauseRetrievalServer {
    /// Wraps a compiled knowledge base (with an initially empty overlay).
    pub fn new(kb: KnowledgeBase, options: CrsOptions) -> Self {
        let cache = RetrievalCache::new(&options.cache);
        let overlay = Overlay::new(kb.symbols().clone());
        ClauseRetrievalServer {
            kb: RwLock::new(Published {
                base: Arc::new(kb),
                overlay: Arc::new(overlay),
            }),
            commit: Mutex::new(CommitState {
                wal: None,
                mem_seq: 1,
                folded_through: 0,
            }),
            compacting: AtomicBool::new(false),
            options,
            stats: Mutex::new(ServerStats::default()),
            cache,
            watchers: WatcherSet::default(),
            self_weak: Weak::new(),
        }
    }

    /// Like [`new`](Self::new), but shared from birth: the server holds a
    /// weak back-reference to its own `Arc`, which lets threshold-
    /// triggered auto-compaction run on a detached background thread
    /// (exactly like [`spawn_compaction`](Self::spawn_compaction))
    /// instead of synchronously inside the committing call.
    pub fn shared(kb: KnowledgeBase, options: CrsOptions) -> Arc<Self> {
        Arc::new_cyclic(|weak| {
            let mut server = Self::new(kb, options);
            server.self_weak = weak.clone();
            server
        })
    }

    /// A snapshot of the current immutable base (clients keep a
    /// consistent view even across a concurrent update). Note this is the
    /// *base only* — [`snapshot_merged`](Self::snapshot_merged) also
    /// returns the overlay the serving path merges in.
    pub fn snapshot(&self) -> Arc<KnowledgeBase> {
        read(&self.kb).base.clone()
    }

    /// The full serving state: base snapshot plus memtable overlay, read
    /// under one lock acquisition so the pair is consistent.
    pub fn snapshot_merged(&self) -> (Arc<KnowledgeBase>, Arc<Overlay>) {
        let guard = read(&self.kb);
        (guard.base.clone(), guard.overlay.clone())
    }

    /// A clone of the serving symbol table: the base's, extended by every
    /// atom the overlay has interned since. Parse queries against this to
    /// reach overlay-only predicates.
    pub fn symbols(&self) -> SymbolTable {
        read(&self.kb).overlay.symbols().clone()
    }

    /// The CRS configuration this server retrieves and solves with.
    pub fn options(&self) -> &CrsOptions {
        &self.options
    }

    /// Serves one retrieval: a one-query [`retrieve_batch`](Self::retrieve_batch)
    /// under the unlimited budget.
    pub fn retrieve(&self, query: &Term, mode: SearchMode) -> Retrieval {
        let queries = std::slice::from_ref(query);
        crate::crs::only(self.retrieve_batch(queries, mode, &mut RequestContext::unlimited()))
    }

    /// Post-retrieval cache bookkeeping: a quarantine invalidates the
    /// predicate (the stored file memoizes CRC verdicts, so later runs
    /// may legitimately differ); clean answers are inserted under the
    /// requested mode. That includes the fallback of a query the FS2
    /// engine cannot load, which depends only on the query and the base.
    fn note_outcome(&self, key: &QueryKey, mode: SearchMode, stamp: Stamp, outcome: &Retrieval) {
        if outcome.stats.quarantined_tracks > 0 {
            self.cache.bump_predicate(key.pred());
        }
        if !outcome.stats.degraded {
            self.cache
                .put_answer(key.clone(), mode, stamp, outcome.clone());
        }
    }

    /// Serves a retrieval request over the merged (base + overlay) view,
    /// against one consistent snapshot pair: the state is read once,
    /// same-predicate queries share a single FS1 index pass
    /// ([`crate::crs::retrieve_batch`]), and the service statistics are
    /// updated under one lock acquisition. Results are in query order, and
    /// each is what the query would get if issued alone.
    ///
    /// With the cache enabled (the default), a repeat of a recently served
    /// query skips the filter pipeline entirely and returns the
    /// byte-identical cached [`Retrieval`]; degraded answers are never
    /// cached, and any commit or track quarantine invalidates the
    /// affected entries.
    ///
    /// The context's budget covers the request as a whole: the pipeline
    /// checkpoints the token between index strides, tracks and candidates,
    /// and one trip anywhere abandons the remaining members with a typed
    /// [`BudgetExceeded`] — never a partial result vector. Cache *hits*
    /// are always served — a hit costs nothing, so a budget can never
    /// refuse it — while a tripped miss **never** populates the cache. A
    /// recording context's stage record covers the cache front and the
    /// pipeline, not the server's own bookkeeping after it.
    pub fn retrieve_batch(
        &self,
        queries: &[Term],
        mode: SearchMode,
        cx: &mut RequestContext,
    ) -> Result<Vec<Retrieval>, BudgetExceeded> {
        let started = Instant::now();
        cx.begin();
        let through_cache = self.retrieve_batch_through_cache(queries, mode, cx);
        cx.end();
        let (published, outcomes) = through_cache?;
        let batch = queries.len() > 1;
        {
            let mut stats = lock(&self.stats);
            stats.batches += u64::from(batch);
            stats.retrievals += outcomes.len() as u64;
            for outcome in &outcomes {
                stats.degraded += u64::from(outcome.stats.degraded);
                stats.total_elapsed += outcome.stats.elapsed;
            }
        }
        let m = clare_trace::metrics();
        if self.compacting.load(Ordering::Relaxed) {
            m.compaction_concurrent_retrievals.inc();
        }
        if batch {
            m.crs_batch_size.record(queries.len() as u64);
        }
        m.crs_retrieve_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        for (query, outcome) in queries.iter().zip(&outcomes) {
            if let Some(key) = pred_key(published.overlay.symbols(), query) {
                m.crs_predicates.record(&key, outcome.stats.elapsed.as_ns());
            }
        }
        Ok(outcomes)
    }

    /// The cache front: answer-layer hits are taken per query, and only
    /// the misses flow through the pipeline (each with its own FS1-layer
    /// slot), preserving both query order and the sharing wins for the
    /// cold subset. Clean (non-degraded) answers are inserted afterwards;
    /// a budget trip exits with `?` *before* the insertion, so a cancelled
    /// partial answer is structurally unreachable from the cache. Queries
    /// with no canonical encoding (or all of them, with the cache off)
    /// simply run uncached.
    ///
    /// A query is encoded once: its PIF stream keys the cache and, on a
    /// miss, is handed to the query plan the pipeline runs. A hit compiles
    /// nothing beyond that stream.
    fn retrieve_batch_through_cache(
        &self,
        queries: &[Term],
        mode: SearchMode,
        cx: &mut RequestContext,
    ) -> Result<(Published, Vec<Retrieval>), BudgetExceeded> {
        type Keyed = (
            Option<Result<PifStream, PifError>>,
            Option<(QueryKey, Stamp)>,
        );
        let mut keyed: Vec<Keyed> = queries
            .iter()
            .map(|query| {
                if !self.cache.enabled() {
                    return (None, None);
                }
                let (stream, key) = encode_keyed(query);
                (Some(stream), key.map(|key| (key, Stamp::default())))
            })
            .collect();
        // One read-lock acquisition covers the snapshot and every stamp.
        // Commits bump epochs while holding the write lock, so the pair
        // can never mix an old state with a new stamp or vice versa — the
        // soundness core of the cache.
        let published = {
            let guard = read(&self.kb);
            for (key, stamp) in keyed.iter_mut().filter_map(|(_, key)| key.as_mut()) {
                *stamp = self.cache.stamp(key.pred());
            }
            guard.clone()
        };
        let mut outcomes: Vec<Option<Retrieval>> = keyed
            .iter()
            .map(|(_, keyed)| {
                let (key, stamp) = keyed.as_ref()?;
                self.cache.get_answer(key, mode, *stamp)
            })
            .collect();
        let misses: Vec<usize> = (0..queries.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        for _hit in misses.len()..queries.len() {
            cx.note_retrieval();
        }
        cx.lap(Stage::Plan);
        if !misses.is_empty() {
            let plans: Vec<QueryPlan<'_, '_>> = misses
                .iter()
                .map(|&i| {
                    let (base, query) = (&*published.base, Cow::Borrowed(&queries[i]));
                    let choice = ModeChoice::Fixed(mode);
                    QueryPlan::new(base, query, keyed[i].0.take(), choice)
                })
                .collect();
            let slots: Vec<Option<Fs1Slot<'_>>> = misses
                .iter()
                .map(|&i| {
                    keyed[i].1.as_ref().map(|(key, stamp)| Fs1Slot {
                        cache: &self.cache,
                        key,
                        stamp: *stamp,
                    })
                })
                .collect();
            let computed = crate::crs::retrieve_plans(
                Some(&published.overlay),
                &plans,
                &self.options,
                &slots,
                cx,
            )?;
            for (&i, outcome) in misses.iter().zip(computed) {
                if let Some((key, stamp)) = &keyed[i].1 {
                    self.note_outcome(key, mode, *stamp, &outcome);
                }
                outcomes[i] = Some(outcome);
            }
        }
        let outcomes = outcomes
            .into_iter()
            .map(|outcome| outcome.unwrap_or_else(|| unreachable!("every slot filled above")))
            .collect();
        Ok((published, outcomes))
    }

    /// Serves one solve call: a one-goal [`solve_goals`](Self::solve_goals)
    /// under the unlimited budget.
    pub fn solve(
        &self,
        query: &Term,
        var_names: &[String],
        options: &SolveOptions,
    ) -> SolveOutcome {
        let (goals, mut cx) = (std::slice::from_ref(query), RequestContext::unlimited());
        match self.solve_goals(goals, var_names, options, &mut cx) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("the unlimited budget cannot trip"),
        }
    }

    /// Serves a conjunction of goals sharing one variable scope, over the
    /// merged view, retrieving under this server's own [`CrsOptions`].
    /// Every resolution step checkpoints the token (which also covers the
    /// deadline), so a runaway recursion releases its worker within one
    /// expansion of the budget tripping. The typed [`BudgetExceeded`]
    /// carries the partial [`crate::resolve::SolveStats`]; the partial
    /// solution set is dropped, never returned, never cached.
    pub fn solve_goals(
        &self,
        goals: &[Term],
        var_names: &[String],
        options: &SolveOptions,
        cx: &mut RequestContext,
    ) -> Result<SolveOutcome, BudgetExceeded> {
        let started = Instant::now();
        let (base, overlay) = self.snapshot_merged();
        let outcome = crate::resolve::solve_goals(
            &base,
            Some(&overlay),
            goals,
            var_names,
            options,
            &self.options,
            cx,
        )?;
        {
            let mut stats = lock(&self.stats);
            stats.solves += 1;
            stats.degraded += u64::from(outcome.stats.degraded);
            stats.total_elapsed += outcome.stats.retrieval_elapsed;
        }
        let m = clare_trace::metrics();
        if self.compacting.load(Ordering::Relaxed) {
            m.compaction_concurrent_retrievals.inc();
        }
        m.crs_solve_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(outcome)
    }

    /// Commits a new compiled knowledge base atomically, **discarding the
    /// overlay**: the new base is taken as the complete state (callers
    /// have already folded whatever they wanted to keep). In-flight
    /// clients finish against their snapshot pair; new calls see the
    /// update. A successor built by [`KnowledgeBase::with_predicates`]
    /// from the published base invalidates only its touched predicates'
    /// cache entries; any other base, a [`KnowledgeBase::to_builder`]
    /// rebuild included, invalidates the whole cache.
    ///
    /// A wholesale update is an in-memory operation: it is *not* logged
    /// to an attached WAL, and prior WAL records replay against the base
    /// that was live when they were logged. Servers that own a WAL should
    /// mutate through transactions ([`begin_update`](Self::begin_update))
    /// and fold with [`compact_now`](Self::compact_now) instead.
    pub fn update(&self, kb: KnowledgeBase) {
        let mut commit = lock(&self.commit);
        // The overlay is discarded wholesale: subscribers can no longer
        // catch up from below the current frontier.
        commit.folded_through = commit
            .wal
            .as_ref()
            .map_or(commit.mem_seq, |wal| wal.next_seq())
            - 1;
        let overlay = Overlay::new(kb.symbols().clone());
        let mut guard = write(&self.kb);
        // Bump cache epochs *while holding the write lock*: readers take
        // (snapshot, stamp) under the read lock, so they can never pair
        // the outgoing state with the incoming stamp or vice versa.
        self.cache.bump_for_update(&guard.base, &kb);
        *guard = Published {
            base: Arc::new(kb),
            overlay: Arc::new(overlay),
        };
        drop(guard);
        drop(commit);
        lock(&self.stats).updates += 1;
    }

    /// Attaches (creating if absent) a write-ahead log and replays it:
    /// every intact record is re-applied to a fresh overlay over the
    /// current base, any torn tail a crash left is truncated, and from
    /// here on every commit is fsynced into the log before it is
    /// acknowledged. Call this right after construction, before serving
    /// writes — any uncommitted overlay state is replaced by the replay.
    ///
    /// # Errors
    ///
    /// I/O failure or real corruption (CRC-valid garbage, sequence gaps —
    /// not a torn tail, which is recovered silently).
    pub fn attach_wal<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<ReplayReport, CommitError> {
        let (wal, records, report) = Wal::open(path)?;
        let mut commit = lock(&self.commit);
        let base = read(&self.kb).base.clone();
        let (overlay, _skipped) = Overlay::rebuild(&base, &records);
        let mut guard = write(&self.kb);
        // Replay can resurrect anything; invalidate wholesale.
        self.cache.bump_global();
        guard.overlay = Arc::new(overlay);
        drop(guard);
        commit.wal = Some(wal);
        Ok(report)
    }

    /// Applies a batch of assert/retract operations as one atomic,
    /// serialized commit: every clause is validated against a clone of
    /// the overlay, the batch is group-committed to the WAL (when
    /// attached — the fsync is the acknowledgement point), and only then
    /// is the new overlay published. Concurrent callers serialize on the
    /// commit lock, so **no committed operation is ever lost** — unlike
    /// the old last-writer-wins rebuild-and-swap transactions.
    ///
    /// An empty batch is a no-op: nothing is logged, published, or
    /// invalidated (`wal.noop_commits` counts them).
    ///
    /// # Errors
    ///
    /// Validation or WAL failure; nothing is published.
    pub fn apply_ops(&self, ops: Vec<WalOp>) -> Result<CommitReceipt, CommitError> {
        if ops.is_empty() {
            // The whole point of the skip: no recompile, no swap, no
            // epoch bumps flushing hot cache entries.
            clare_trace::metrics().wal_noop_commits.inc();
            return Ok(CommitReceipt::noop());
        }
        let mut commit = lock(&self.commit);
        let receipt = self.commit_under_lock(&mut commit, &ops)?;
        drop(commit);
        lock(&self.stats).updates += 1;
        self.maybe_auto_compact();
        Ok(receipt)
    }

    /// One-op convenience for [`apply_ops`](Self::apply_ops): asserts
    /// every clause in `source` (in order) to `module`.
    pub fn assert_source(&self, module: &str, source: &str) -> Result<CommitReceipt, CommitError> {
        self.apply_ops(vec![WalOp::Assert {
            module: module.to_string(),
            source: source.to_string(),
        }])
    }

    /// One-op convenience for [`apply_ops`](Self::apply_ops): retracts
    /// the first live clause structurally equal to the single clause in
    /// `source` (a quiet no-op if none matches, mirroring Prolog's
    /// `retract/1` failure being harmless to the store).
    pub fn retract_source(&self, module: &str, source: &str) -> Result<CommitReceipt, CommitError> {
        self.apply_ops(vec![WalOp::Retract {
            module: module.to_string(),
            source: source.to_string(),
        }])
    }

    /// The shared commit body: validate → apply to an overlay clone →
    /// WAL append (the acknowledgement point) → publish → notify
    /// replication subscribers. Caller holds the commit lock.
    fn commit_under_lock(
        &self,
        commit: &mut CommitState,
        ops: &[WalOp],
    ) -> Result<CommitReceipt, CommitError> {
        // Refuse structurally unencodable ops up front — before any of
        // them mutates the overlay clone and regardless of whether a WAL
        // is attached (the memory-only and replica paths must refuse the
        // same ops the durable path would).
        for op in ops {
            op.validate()?;
        }
        // Holding the commit lock pins the published pair: every other
        // publisher (commits, wholesale updates, the compaction swap)
        // also takes it.
        let published = read(&self.kb).clone();
        let mut overlay = (*published.overlay).clone();
        let first_seq = commit
            .wal
            .as_ref()
            .map_or(commit.mem_seq, |wal| wal.next_seq());
        let mut asserted = 0usize;
        let mut retracted = 0usize;
        let mut touched: BTreeSet<(clare_term::Symbol, usize)> = BTreeSet::new();
        for (k, op) in ops.iter().enumerate() {
            let outcome = overlay.apply(first_seq + k as u64, op, &published.base)?;
            asserted += outcome.clauses_added;
            retracted += outcome.clauses_removed;
            touched.extend(outcome.touched);
        }
        // Durability point: the batch goes down in one buffered write and
        // one fsync; an error acknowledges nothing (the clone above is
        // simply dropped, and the WAL handle poisons itself until the
        // file is reopened and its torn tail truncated).
        let durable = match commit.wal.as_mut() {
            Some(wal) => {
                wal.append_batch(ops)?;
                true
            }
            None => {
                commit.mem_seq = first_seq + ops.len() as u64;
                false
            }
        };
        let mut guard = write(&self.kb);
        debug_assert!(
            Arc::ptr_eq(&guard.base, &published.base),
            "commit lock pins the base"
        );
        for &pred in &touched {
            self.cache.bump_predicate(pred);
        }
        guard.overlay = Arc::new(overlay);
        drop(guard);
        // Ship to subscribers while still holding the commit lock: the
        // delivery order across commits is exactly the commit order, and
        // a subscriber registered in between sees each record exactly
        // once (either in its catch-up or here).
        let records: Vec<WalRecord> = ops
            .iter()
            .enumerate()
            .map(|(k, op)| WalRecord {
                seq: first_seq + k as u64,
                op: op.clone(),
            })
            .collect();
        self.watchers.notify(&records);
        let m = clare_trace::metrics();
        m.wal_overlay_asserts.add(asserted as u64);
        m.wal_overlay_retracts.add(retracted as u64);
        Ok(CommitReceipt {
            seqs: first_seq..first_seq + ops.len() as u64,
            asserted,
            retracted,
            durable,
        })
    }

    /// Applies one record shipped from a replication stream, enforcing
    /// gapless in-order delivery. Returns the sequence number this
    /// replica has applied through:
    ///
    /// * `record.seq` is exactly the next expected sequence — the record
    ///   commits through the ordinary (WAL-backed, if attached) path;
    /// * `record.seq` is below the frontier — an idempotent duplicate
    ///   (the shipper resent something already applied): skipped;
    /// * `record.seq` skips ahead — [`CommitError::ReplicaGap`], and the
    ///   shipper must resend from the reported `expected`.
    pub fn apply_replicated(&self, record: &WalRecord) -> Result<u64, CommitError> {
        let mut commit = lock(&self.commit);
        let expected = commit
            .wal
            .as_ref()
            .map_or(commit.mem_seq, |wal| wal.next_seq());
        if record.seq < expected {
            return Ok(expected - 1);
        }
        if record.seq > expected {
            return Err(CommitError::ReplicaGap { expected });
        }
        let ops = std::slice::from_ref(&record.op);
        self.commit_under_lock(&mut commit, ops)?;
        drop(commit);
        lock(&self.stats).updates += 1;
        self.maybe_auto_compact();
        Ok(record.seq)
    }

    /// The highest committed sequence number (0 before the first
    /// commit). On a primary this is the replication frontier its
    /// backups chase.
    pub fn current_seq(&self) -> u64 {
        let commit = lock(&self.commit);
        commit
            .wal
            .as_ref()
            .map_or(commit.mem_seq, |wal| wal.next_seq())
            - 1
    }

    /// Subscribes to the committed-operation stream: `watcher` is first
    /// called (under the commit lock, before this returns) with every
    /// overlay record past `from_seq` — the catch-up — and thereafter
    /// with each committed batch, in commit order, gapless. Returns the
    /// sequence the stream is current through. The watcher stays
    /// registered until it returns `false`.
    ///
    /// # Errors
    ///
    /// [`SubscribeError::Gap`] when records past `from_seq` have already
    /// been folded out of the overlay (compaction or wholesale update):
    /// catch-up through this stream is impossible.
    pub fn subscribe_ops(
        &self,
        from_seq: u64,
        mut watcher: LogWatcher,
    ) -> Result<u64, SubscribeError> {
        let commit = lock(&self.commit);
        if from_seq < commit.folded_through {
            return Err(SubscribeError::Gap {
                folded_through: commit.folded_through,
            });
        }
        let current = commit
            .wal
            .as_ref()
            .map_or(commit.mem_seq, |wal| wal.next_seq())
            - 1;
        let overlay = read(&self.kb).overlay.clone();
        let catch_up: Vec<WalRecord> = overlay
            .ops()
            .iter()
            .filter(|r| r.seq > from_seq)
            .cloned()
            .collect();
        if !catch_up.is_empty() && !watcher(&catch_up) {
            return Ok(current);
        }
        lock(&self.watchers.inner).push(watcher);
        Ok(current)
    }

    /// Triggers a compaction pass when the just-committed overlay holds
    /// at least `overlay_auto_compact_ops` operations. Called after every
    /// commit, outside all locks. Shared servers ([`Self::shared`]) get a
    /// detached background pass; plain ones compact synchronously (the
    /// committing caller pays the rebuild, keeping the bound honest
    /// without a handle to spawn through).
    fn maybe_auto_compact(&self) {
        let Some(threshold) = self.options.overlay_auto_compact_ops else {
            return;
        };
        let len = read(&self.kb).overlay.len();
        if len == 0 || len < threshold {
            return;
        }
        if self.compacting.load(Ordering::Relaxed) {
            // A pass is already folding; it will pick this state up.
            return;
        }
        clare_trace::metrics().compaction_auto_triggers.inc();
        if let Some(server) = self.self_weak.upgrade() {
            let _ = std::thread::Builder::new()
                .name("clare-compact".into())
                .spawn(move || server.compact_now());
        } else {
            let _ = self.compact_now();
        }
    }

    /// Folds the overlay into a fresh immutable base — track segments and
    /// FS1 codeword indexes rebuilt for exactly the changed predicates,
    /// off the write path, every other predicate shared with the old base
    /// by pointer — and swaps it in atomically. Operations that
    /// commit while the rebuild runs are re-applied on top of the new
    /// base, so no commit is ever lost to a compaction. Retrievals are
    /// never blocked: in-flight calls keep their snapshot pair, and the
    /// swap holds the write lock only for the pointer exchange.
    ///
    /// The rebuild reads in-memory clause terms — never the simulated
    /// disk — so degraded (quarantined-track) data can never be compacted
    /// into the new segments.
    pub fn compact_now(&self) -> CompactionOutcome {
        if self.compacting.swap(true, Ordering::Acquire) {
            return CompactionOutcome::AlreadyRunning;
        }
        self.compact_claimed()
    }

    /// Runs the fold with the `compacting` flag already claimed by the
    /// caller, releasing it on the way out.
    fn compact_claimed(&self) -> CompactionOutcome {
        let outcome = self.compact_inner();
        self.compacting.store(false, Ordering::Release);
        outcome
    }

    fn compact_inner(&self) -> CompactionOutcome {
        let started = Instant::now();
        let sealed = read(&self.kb).clone();
        if sealed.overlay.is_empty() {
            return CompactionOutcome::Clean;
        }
        let m = clare_trace::metrics();
        m.compaction_runs.inc();
        // The expensive part — recompiling the changed predicates' clauses,
        // track segments and codeword indexes — runs with no lock held.
        let rebuilt = match sealed.overlay.compacted_kb(&sealed.base) {
            Ok(kb) => kb,
            Err(_) => {
                m.compaction_aborts.inc();
                return CompactionOutcome::Failed;
            }
        };
        let folded = sealed.overlay.len();
        let sealed_max = sealed.overlay.max_seq();
        // Swap: serialize with publishers; if the base moved under the
        // rebuild (a wholesale update), the result no longer applies.
        let mut commit = lock(&self.commit);
        let mut guard = write(&self.kb);
        if !Arc::ptr_eq(&guard.base, &sealed.base) {
            m.compaction_aborts.inc();
            return CompactionOutcome::Aborted;
        }
        // Ops that committed during the rebuild (the current overlay is a
        // successor of the sealed one): replay just the tail on top of
        // the new base. Base modules those ops touch were not rewritten
        // by this compaction, so the replay reproduces their delta
        // exactly.
        let residue: Vec<WalRecord> = guard
            .overlay
            .ops()
            .iter()
            .filter(|r| r.seq > sealed_max)
            .cloned()
            .collect();
        // Everything at or below the sealed frontier leaves the overlay:
        // new replication subscribers must start past it.
        commit.folded_through = commit.folded_through.max(sealed_max);
        let (overlay, _skipped) = Overlay::rebuild(&rebuilt, &residue);
        // The rebuilt base is an incremental successor (same lineage and
        // fingerprint), so only the folded predicates' epochs bump —
        // cached answers for untouched predicates stay valid.
        self.cache.bump_for_update(&guard.base, &rebuilt);
        *guard = Published {
            base: Arc::new(rebuilt),
            overlay: Arc::new(overlay),
        };
        drop(guard);
        drop(commit);
        m.compaction_swaps.inc();
        m.compaction_clauses.add(folded as u64);
        m.compaction_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        CompactionOutcome::Swapped { folded }
    }

    /// Runs [`compact_now`](Self::compact_now) on a detached background
    /// thread and returns its handle. The serving path is never blocked;
    /// join the handle to observe the outcome.
    ///
    /// The pass is claimed *before* the thread spawns, so the
    /// in-compaction window (and the `compaction.concurrent_retrievals`
    /// counter) opens at the call — a retrieval racing the spawn counts
    /// as concurrent even if the scheduler runs the whole fold before
    /// the caller's next instruction.
    pub fn spawn_compaction(self: &Arc<Self>) -> std::thread::JoinHandle<CompactionOutcome> {
        let claimed = !self.compacting.swap(true, Ordering::Acquire);
        let server = Arc::clone(self);
        std::thread::Builder::new()
            .name("clare-compact".into())
            .spawn(move || {
                if claimed {
                    server.compact_claimed()
                } else {
                    CompactionOutcome::AlreadyRunning
                }
            })
            .expect("spawning the compaction thread")
    }

    /// Begins an update transaction: the returned [`UpdateTransaction`]
    /// accumulates assert/retract operations and commits them as one
    /// atomic, WAL-serialized batch via
    /// [`commit`](UpdateTransaction::commit). Readers are never blocked;
    /// concurrent transactions serialize on the commit lock, so none of
    /// their operations are lost (the paper's CRS promises "procedures
    /// for concurrency control and transaction handling" — this replaces
    /// the old optimistic last-writer-wins variant).
    pub fn begin_update(&self) -> UpdateTransaction<'_> {
        UpdateTransaction {
            server: self,
            symbols: self.symbols(),
            ops: Vec::new(),
        }
    }

    /// Records one admission-control refusal. Front-ends (such as the
    /// `clare-net` daemon) call this when they shed a request *before* it
    /// reaches the retrieval pipeline, so refusals stay observable in one
    /// place alongside the work that was served.
    pub fn note_rejected(&self) {
        lock(&self.stats).rejected += 1;
    }

    /// Service statistics so far: a copy taken under the stats lock, so
    /// it never tears (e.g. a batch's `batches` bump without its
    /// `retrievals` bump).
    pub fn stats(&self) -> ServerStats {
        *lock(&self.stats)
    }
}

/// An in-progress update: a batch of assert/retract operations validated
/// eagerly for parseability and committed as one atomic, serialized,
/// durably logged batch. Dropping it without
/// [`commit`](Self::commit) discards every change.
#[derive(Debug)]
pub struct UpdateTransaction<'a> {
    server: &'a ClauseRetrievalServer,
    /// Transaction-local symbol table (a clone of the serving one) so
    /// queries and clauses can be parsed in the right namespace before
    /// the commit publishes anything.
    symbols: SymbolTable,
    ops: Vec<WalOp>,
}

impl UpdateTransaction<'_> {
    /// Records an assert of every clause in `source` (in order) to
    /// `module` (created on first use). A source with zero clauses
    /// records nothing — committing a transaction of only such calls is
    /// a no-op commit and skips the recompile/swap entirely.
    ///
    /// # Errors
    ///
    /// Returns the parse error; the transaction stays usable.
    pub fn consult(&mut self, module: &str, source: &str) -> Result<(), CommitError> {
        let clauses = clare_term::parser::parse_program(source, &mut self.symbols)
            .map_err(|e| CommitError::Overlay(OverlayError::Parse(e)))?;
        if clauses.is_empty() {
            return Ok(());
        }
        self.ops.push(WalOp::Assert {
            module: module.to_string(),
            source: source.to_string(),
        });
        Ok(())
    }

    /// Records an assert of one clause to `module`.
    pub fn add_clause(&mut self, module: &str, clause: clare_term::Clause) {
        let source = format!("{}.", ClauseDisplay::new(&clause, &self.symbols));
        self.ops.push(WalOp::Assert {
            module: module.to_string(),
            source,
        });
    }

    /// Records a retract of the first live clause structurally equal to
    /// the single clause in `source`.
    ///
    /// # Errors
    ///
    /// Parse failure, or a source holding zero or several clauses.
    pub fn retract(&mut self, module: &str, source: &str) -> Result<(), CommitError> {
        let clauses = clare_term::parser::parse_program(source, &mut self.symbols)
            .map_err(|e| CommitError::Overlay(OverlayError::Parse(e)))?;
        if clauses.len() != 1 {
            return Err(CommitError::Overlay(OverlayError::RetractNotSingle(
                clauses.len(),
            )));
        }
        self.ops.push(WalOp::Retract {
            module: module.to_string(),
            source: source.to_string(),
        });
        Ok(())
    }

    /// The transaction's symbol table (parse queries/terms against it).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// The operations recorded so far.
    pub fn ops(&self) -> &[WalOp] {
        &self.ops
    }

    /// Commits the batch atomically: validation against a clone, WAL
    /// group-commit (the fsync is the acknowledgement), then publication.
    /// An empty transaction is a no-op — nothing is recompiled, swapped,
    /// or invalidated.
    ///
    /// # Errors
    ///
    /// Validation or WAL failure; nothing is published.
    pub fn commit(self) -> Result<CommitReceipt, CommitError> {
        self.server.apply_ops(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbBuilder, KbConfig};
    use clare_term::parser::parse_term;

    fn server_with(source: &str, queries: &[&str]) -> (ClauseRetrievalServer, Vec<Term>) {
        let mut b = KbBuilder::new();
        b.consult("m", source).unwrap();
        let terms: Vec<Term> = queries
            .iter()
            .map(|q| parse_term(q, b.symbols_mut()).unwrap())
            .collect();
        (
            ClauseRetrievalServer::new(b.finish(KbConfig::default()), CrsOptions::default()),
            terms,
        )
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let facts: String = (0..400)
            .map(|i| format!("item(k{i}, v{}).", i % 7))
            .collect::<Vec<_>>()
            .join("\n");
        let (server, queries) = server_with(&facts, &["item(k13, X)", "item(K, v3)"]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                for (qi, expected) in [(0usize, 1usize), (1, 57)] {
                    let server = &server;
                    let q = &queries[qi];
                    scope.spawn(move || {
                        for mode in SearchMode::ALL {
                            let r = server.retrieve(q, mode);
                            assert_eq!(r.stats.unified, expected);
                        }
                    });
                }
            }
        });
        assert_eq!(server.stats().retrievals, 8 * 2 * 4);
        assert!(server.stats().total_elapsed.as_ns() > 0);
    }

    #[test]
    fn batch_and_rejection_counters() {
        let (server, queries) = server_with("p(a). p(b).", &["p(a)", "p(X)"]);
        assert_eq!(server.stats(), ServerStats::default());
        server
            .retrieve_batch(
                &queries,
                SearchMode::TwoStage,
                &mut RequestContext::unlimited(),
            )
            .unwrap();
        server.retrieve(&queries[0], SearchMode::TwoStage);
        server.note_rejected();
        server.note_rejected();
        let stats = server.stats();
        assert_eq!(stats.batches, 1, "the lone retrieval is not a batch");
        assert_eq!(stats.retrievals, 3, "batch members count individually");
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.solves, 0);
    }

    #[test]
    fn stats_snapshots_never_tear() {
        // Writers serve only 2-query batches, so `retrievals == 2 * batches`
        // holds after every update. A snapshot that tore a batch's
        // `batches += 1` apart from its `retrievals += 2` (or caught the
        // mirror mid-publication) would break the equality.
        let (server, queries) = server_with("p(a). p(b).", &["p(a)", "p(X)"]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = &server;
                let queries = &queries;
                scope.spawn(move || {
                    for _ in 0..50 {
                        server
                            .retrieve_batch(
                                queries,
                                SearchMode::SoftwareOnly,
                                &mut RequestContext::unlimited(),
                            )
                            .unwrap();
                    }
                });
            }
            for _ in 0..4 {
                let server = &server;
                scope.spawn(move || {
                    for _ in 0..2000 {
                        let s = server.stats();
                        assert_eq!(s.retrievals, 2 * s.batches, "torn stats snapshot: {s:?}");
                    }
                });
            }
        });
        let s = server.stats();
        assert_eq!(s.batches, 4 * 50);
        assert_eq!(s.retrievals, 2 * 4 * 50);
    }

    #[test]
    fn solve_retrieves_under_the_servers_own_options() {
        let facts: String = (0..400)
            .map(|i| format!("item(k{i}, v{}).", i % 7))
            .collect::<Vec<_>>()
            .join("\n");
        let mut b = KbBuilder::new();
        b.consult("m", &facts).unwrap();
        let query = parse_term("item(k13, X)", b.symbols_mut()).unwrap();
        let micropolis = CrsOptions {
            disk: clare_disk::DiskProfile::micropolis_1325(),
            ..CrsOptions::default()
        };
        let server = ClauseRetrievalServer::new(b.finish(KbConfig::default()), micropolis.clone());
        // A fixed hardware mode, so every retrieval is timed against the disk.
        let options = SolveOptions {
            mode: crate::resolve::ModeChoice::Fixed(SearchMode::TwoStage),
            ..SolveOptions::default()
        };
        let served = server.solve(&query, &[], &options).stats.retrieval_elapsed;
        let kb = server.snapshot();
        let free = |crs: &CrsOptions| {
            let (goals, mut cx) = (std::slice::from_ref(&query), RequestContext::unlimited());
            crate::resolve::solve_goals(&kb, None, goals, &[], &options, crs, &mut cx)
                .expect("the unlimited budget cannot trip")
                .stats
                .retrieval_elapsed
        };
        assert_eq!(served, free(&micropolis));
        assert_ne!(served, free(&CrsOptions::default()));
    }

    #[test]
    fn empty_transaction_commit_is_a_noop() {
        let (server, queries) = server_with("p(a).", &["p(a)"]);
        server.retrieve(&queries[0], SearchMode::TwoStage); // warm the cache
        let hits_before = clare_trace::metrics().cache_hits.get();
        let noops_before = clare_trace::metrics().wal_noop_commits.get();
        let mut tx = server.begin_update();
        tx.consult("m", "  % only whitespace and nothing else\n")
            .unwrap();
        let receipt = tx.commit().unwrap();
        assert_eq!(receipt, CommitReceipt::noop());
        assert_eq!(
            clare_trace::metrics().wal_noop_commits.get(),
            noops_before + 1
        );
        assert_eq!(server.stats().updates, 0, "no-op commits don't count");
        // The hot cache entry survived: the repeat is a hit, proving no
        // epoch was bumped.
        server.retrieve(&queries[0], SearchMode::TwoStage);
        assert!(clare_trace::metrics().cache_hits.get() > hits_before);
    }

    #[test]
    fn dropped_transaction_changes_nothing() {
        let (server, queries) = server_with("p(a).", &["p(a)"]);
        {
            let mut tx = server.begin_update();
            tx.consult("m", "p(a).").unwrap();
            // dropped without commit
        }
        assert_eq!(
            server
                .retrieve(&queries[0], SearchMode::SoftwareOnly)
                .stats
                .unified,
            1
        );
        assert_eq!(server.stats().updates, 0);
    }

    #[test]
    fn failing_commit_publishes_nothing() {
        let (server, queries) = server_with("p(a).", &["p(a)"]);
        let mut tx = server.begin_update();
        tx.consult("m", "p(999999999999).").unwrap(); // un-encodable int
        assert!(tx.commit().is_err());
        assert_eq!(
            server
                .retrieve(&queries[0], SearchMode::SoftwareOnly)
                .stats
                .unified,
            1
        );
        assert_eq!(server.stats().updates, 0);
    }

    #[test]
    fn wal_round_trip_recovers_committed_ops() {
        let path = std::env::temp_dir().join(format!(
            "clare-server-wal-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let (server, queries) = server_with("p(a).", &["p(X)"]);
        server.attach_wal(&path).unwrap();
        let mut tx = server.begin_update();
        tx.consult("m", "p(b). p(c).").unwrap();
        let receipt = tx.commit().unwrap();
        assert!(receipt.durable);
        assert_eq!(receipt.seqs, 1..2, "one op logged");

        // A second server over the same base recovers the commit.
        let (reborn, _) = server_with("p(a).", &[]);
        let report = reborn.attach_wal(&path).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.truncated_tail_bytes, 0);
        assert_eq!(
            reborn
                .retrieve(&queries[0], SearchMode::TwoStage)
                .stats
                .unified,
            3
        );
        let _ = std::fs::remove_file(&path);
    }
}
