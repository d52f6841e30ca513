//! The four CRS search modes and their timing pipelines (§2.2).
//!
//! Every mode ends with **full unification** of the surviving candidates
//! on the host CPU; what differs is which filters run first and what has
//! to come off the disk:
//!
//! | mode | index scanned | clause file read | filter |
//! |---|---|---|---|
//! | (a) `SoftwareOnly` | no | all of it (if disk resident) | FS2's walk, on the host CPU |
//! | (b) `Fs1Only` | yes, via FS1 | candidate tracks | codewords only |
//! | (c) `Fs2Only` | no | all of it, streamed through FS2 | test unification |
//! | (d) `TwoStage` | yes, via FS1 | candidate tracks through FS2 | both |
//!
//! Because each filter is *complete* (no false negatives — property-tested
//! across the workspace), every mode returns the same answer set; the
//! modes differ in elapsed time and in how many false drops reach the full
//! unifier.

use crate::budget::{BudgetExceeded, BudgetReason};
use crate::cache::{CacheConfig, Fs1Slot};
use crate::cost::SoftwareCostModel;
use crate::plan::QueryPlan;
use crate::request::{RequestContext, RequestCounts, Stage};
use crate::resolve::ModeChoice;
use clare_disk::{DiskProfile, SimNanos, Track};
use clare_fs2::{Fs2Engine, Selection};
use clare_kb::{KnowledgeBase, ModuleKind, Predicate};
use clare_scw::{ClauseAddr, QueryDescriptor};
use clare_term::{term_size, Clause, ClauseId, Term};
use clare_unify::store::{shift_vars, var_span};
use clare_unify::{unify, BindingStore};
use clare_wal::{Overlay, PredDelta};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;

/// The four searching modes of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchMode {
    /// (a) The CRS performs all the search operations itself.
    SoftwareOnly,
    /// (b) The superimposed-codeword hardware only.
    Fs1Only,
    /// (c) The partial-test-unification hardware only.
    Fs2Only,
    /// (d) The two-stage hardware filter.
    TwoStage,
}

impl SearchMode {
    /// All four modes, in the paper's (a)–(d) order.
    pub const ALL: [SearchMode; 4] = [
        SearchMode::SoftwareOnly,
        SearchMode::Fs1Only,
        SearchMode::Fs2Only,
        SearchMode::TwoStage,
    ];
}

impl fmt::Display for SearchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SearchMode::SoftwareOnly => "software only",
            SearchMode::Fs1Only => "FS1 only",
            SearchMode::Fs2Only => "FS2 only",
            SearchMode::TwoStage => "FS1+FS2",
        })
    }
}

/// CRS configuration: the disk the knowledge base lives on and the host
/// software cost model.
#[derive(Debug, Clone)]
pub struct CrsOptions {
    /// Disk profile for all streaming/fetch timing.
    pub disk: DiskProfile,
    /// Host CPU cost model.
    pub cost: SoftwareCostModel,
    /// Epoch-invalidated retrieval cache served by
    /// [`crate::ClauseRetrievalServer`]. Hits are byte-identical to the
    /// uncached pipeline; the free [`retrieve`] function never caches.
    pub cache: CacheConfig,
    /// Auto-compaction size threshold: when a commit leaves the overlay
    /// holding at least this many logged operations, the server triggers
    /// a compaction pass on its own (`compaction.auto_triggers` counts
    /// them). Overlay clauses bypass the FS1 filter, so an unbounded
    /// overlay pays software-side filtering on every retrieval — this
    /// bound keeps that cost finite without any manual `compact_now`
    /// call. `None` disables auto-compaction.
    pub overlay_auto_compact_ops: Option<usize>,
}

impl Default for CrsOptions {
    fn default() -> Self {
        CrsOptions {
            disk: DiskProfile::fujitsu_m2351a(),
            cost: SoftwareCostModel::m68020(),
            cache: CacheConfig::default(),
            overlay_auto_compact_ops: Some(8192),
        }
    }
}

/// Timing and selectivity statistics for one retrieval.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalStats {
    /// The mode that ran.
    pub mode: SearchMode,
    /// Clauses in the predicate.
    pub clauses_total: usize,
    /// Candidates surviving FS1, when it ran. Counts base-file clauses
    /// only: memtable-overlay additions have no codewords yet and join
    /// the candidate set after the hardware phases.
    pub after_fs1: Option<usize>,
    /// Candidates surviving FS2, when it ran. Base-file clauses only,
    /// as for `after_fs1`.
    pub after_fs2: Option<usize>,
    /// Candidates handed to full unification.
    pub candidates: usize,
    /// Clauses that fully unify (the answer set — identical across modes).
    pub unified: usize,
    /// `candidates - unified`: filter false drops that reached the host.
    pub false_drops: usize,
    /// Simulated disk time (streaming + fetches).
    pub disk_time: SimNanos,
    /// FS1 hardware scan time.
    pub fs1_time: SimNanos,
    /// FS2 hardware matching time (sum of Table 1 costs).
    pub fs2_time: SimNanos,
    /// Host time spent software-filtering (mode (a) only).
    pub software_filter_time: SimNanos,
    /// Host time spent fully unifying the candidates.
    pub full_unify_time: SimNanos,
    /// Modelled wall-clock for the whole retrieval, with disk/filter
    /// overlap where the double-buffered hardware provides it.
    pub elapsed: SimNanos,
    /// Bytes that came off the disk.
    pub bytes_from_disk: u64,
    /// Tracks whose satisfier count exceeded the 64-slot Result Memory
    /// (each would force a re-read on the real hardware).
    pub result_memory_overflows: usize,
    /// Tracks whose CRC failed on read (or whose records would not parse):
    /// their FS2 pass was skipped and every clause re-served to the host
    /// unifier instead. A skipped filter passes a *superset*, so the answer
    /// set is unchanged — only `candidates`/`false_drops` grow.
    pub quarantined_tracks: usize,
    /// Whether any fault degraded this retrieval (quarantined tracks).
    /// Degraded answers are still *correct* — the filters are complete and
    /// full unification finishes every mode — but they cost more host work.
    pub degraded: bool,
}

impl RetrievalStats {
    pub(crate) fn empty(mode: SearchMode) -> Self {
        RetrievalStats {
            mode,
            clauses_total: 0,
            after_fs1: None,
            after_fs2: None,
            candidates: 0,
            unified: 0,
            false_drops: 0,
            disk_time: SimNanos::ZERO,
            fs1_time: SimNanos::ZERO,
            fs2_time: SimNanos::ZERO,
            software_filter_time: SimNanos::ZERO,
            full_unify_time: SimNanos::ZERO,
            elapsed: SimNanos::ZERO,
            bytes_from_disk: 0,
            result_memory_overflows: 0,
            quarantined_tracks: 0,
            degraded: false,
        }
    }
}

/// A retrieval's outcome: the candidate clause ids (in program order) that
/// survived the filters, plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieval {
    /// Candidates for full unification, in clause order.
    pub candidates: Vec<ClauseId>,
    /// Timing and selectivity.
    pub stats: RetrievalStats,
}

impl Retrieval {
    /// Flags this answer degraded after the fact. The retrieval pipeline
    /// sets [`RetrievalStats::degraded`] itself for storage faults; this
    /// hook is for serving layers that learn of degradation elsewhere —
    /// e.g. a cluster router that had to serve the answer from a stale
    /// backup after a failover. A degraded answer is delivered, never
    /// dropped; the flag is the client's signal to treat it as possibly
    /// behind the acknowledged write frontier.
    pub fn mark_degraded(&mut self) {
        self.stats.degraded = true;
    }
}

/// Retrieves all candidate clauses for `query` using `mode`: a one-query
/// [`retrieve_batch`] over the bare base snapshot under the unlimited
/// budget.
pub fn retrieve(
    kb: &KnowledgeBase,
    query: &Term,
    mode: SearchMode,
    opts: &CrsOptions,
) -> Retrieval {
    let mut cx = RequestContext::unlimited();
    only(retrieve_batch(kb, None, &[query], mode, opts, &mut cx))
}

/// [`retrieve`] over the base snapshot *merged with* a memtable overlay:
/// a one-query [`retrieve_batch`] under the unlimited budget.
pub fn retrieve_merged(
    kb: &KnowledgeBase,
    overlay: &Overlay,
    query: &Term,
    mode: SearchMode,
    opts: &CrsOptions,
) -> Retrieval {
    let (overlay, mut cx) = (Some(overlay), RequestContext::unlimited());
    only(retrieve_batch(kb, overlay, &[query], mode, opts, &mut cx))
}

/// The single result of a one-query request under the unlimited budget,
/// which cannot trip.
pub(crate) fn only(result: Result<Vec<Retrieval>, BudgetExceeded>) -> Retrieval {
    match result.map(|mut outcomes| outcomes.pop()) {
        Ok(Some(outcome)) => outcome,
        _ => unreachable!("one query under the unlimited budget yields one retrieval"),
    }
}

/// The retrieval pipeline: candidates for every query of a request, in
/// input order. A single retrieval is a request of one.
///
/// **Modes.** Every mode but FS1 alone runs the FS2 engine's Level-3
/// walk: in the track sweep, or clause by clause on the host in software
/// mode. A query the engine cannot load (an encode error such as an
/// integer outside the 28-bit in-line range, or a stream too large for the
/// Query Memory) loses only that walk: a two-stage request runs FS1 alone,
/// and software or FS2-only mode passes every live clause to full
/// unification. `stats.mode` reports what actually ran.
///
/// **Overlay.** With `Some(overlay)` the answer covers the base snapshot
/// *merged with* the memtable overlay (see [`clare_wal::Overlay`]):
/// retracted base clauses leave the candidate set and overlay additions
/// join it unconditionally, so the answer is byte-identical to retrieving
/// over a knowledge base rebuilt from scratch with the overlay folded in.
/// `None`, an empty overlay, or one with no delta for the query's
/// predicate all give the bare-base answer. Overlay additions carry
/// synthetic [`ClauseId`]s `base_len..base_len + added`, in assert order.
///
/// **Sharing.** Queries against the same predicate have their descriptors
/// tested in one pass over the bit-sliced secondary file
/// ([`clare_scw::IndexFile::scan`]) and their FS2 track sweeps run
/// back to back over the shared pre-decoded arena. Each result is exactly
/// what the query would get alone — sharing changes host wall-clock, not
/// semantics or modelled times.
///
/// **Budget.** The context's token: its deadline and candidate limit cover
/// the request as a whole and are checked at cooperative checkpoints (every few
/// thousand index entries, every FS2 track, every ~64 candidates of the
/// host filter and the full unifier). A tripped budget abandons the request
/// with a typed [`BudgetExceeded`] — no member gets a partial candidate
/// list. It carries the partial statistics of the query whose host phase
/// tripped, or none when the trip landed in a shared hardware pass.
/// [`RequestContext::unlimited`] never trips and costs nothing.
///
/// **Stage record.** A context made by [`RequestContext::recording`] gets
/// the request's host time charged stage by stage
/// ([`crate::StageRecord`]).
pub fn retrieve_batch(
    kb: &KnowledgeBase,
    overlay: Option<&Overlay>,
    queries: &[&Term],
    mode: SearchMode,
    opts: &CrsOptions,
    cx: &mut RequestContext,
) -> Result<Vec<Retrieval>, BudgetExceeded> {
    cx.begin();
    let plans: Vec<QueryPlan<'_, '_>> = queries
        .iter()
        .map(|query| QueryPlan::new(kb, Cow::Borrowed(*query), None, ModeChoice::Fixed(mode)))
        .collect();
    let outcome = retrieve_plans(overlay, &plans, opts, &[], cx);
    cx.end();
    outcome
}

/// [`retrieve_batch`] over queries already compiled against one base
/// snapshot, each carrying its own mode: the [`pipeline`]'s filters, then
/// each query's [`Filtered::unify`] tail, in input order.
pub(crate) fn retrieve_plans(
    overlay: Option<&Overlay>,
    queries: &[QueryPlan<'_, '_>],
    opts: &CrsOptions,
    fs1_slots: &[Option<Fs1Slot<'_>>],
    cx: &mut RequestContext,
) -> Result<Vec<Retrieval>, BudgetExceeded> {
    let filtered = pipeline(overlay, queries, opts, fs1_slots, cx)?;
    queries
        .iter()
        .zip(filtered)
        .map(|(plan, filtered)| {
            let stats = filtered.unify(&plan.query, opts, cx)?;
            Ok(Retrieval {
                candidates: filtered.candidates,
                stats,
            })
        })
        .collect()
}

/// The retrieval pipeline up to full unification: every query's
/// [`Filtered`] output, in input order. The queries are compiled against
/// one base snapshot and each carries its own mode.
///
/// `fs1_slots` is the server cache's FS1 seam, parallel to `queries` (or
/// empty for none). Before the shared index pass each member's slot is
/// consulted; only the misses are scanned, and their fresh outcomes are
/// offered back. The answer — and every modelled stat — is identical with
/// and without slots; only the host work changes. (An FS1 outcome depends
/// only on the base index, so it stays valid across overlay commits; the
/// server's epoch bumps invalidate it conservatively anyway.)
pub(crate) fn pipeline<'p, 'a>(
    overlay: Option<&'a Overlay>,
    queries: &'p [QueryPlan<'p, 'a>],
    opts: &CrsOptions,
    fs1_slots: &[Option<Fs1Slot<'_>>],
    cx: &mut RequestContext,
) -> Result<Vec<Filtered<'a>>, BudgetExceeded> {
    // Decide every query's effective mode first: only what will really
    // run on the hardware joins the shared passes below.
    let mut plans: Vec<Plan<'p, 'a>> = queries
        .iter()
        .map(|query| Plan::new(query, overlay))
        .collect();
    cx.counts.crs_query_compiles += plans.len() as u64;
    cx.counts.fs2_queries_loaded +=
        plans.iter().filter(|plan| plan.engine.is_some()).count() as u64;
    // The hardware queries grouped by predicate: a stable sort keeps each
    // group's members in input order.
    let mut grouped = std::mem::take(&mut cx.groups);
    grouped.clear();
    grouped.extend(
        plans
            .iter()
            .enumerate()
            .filter(|(_, plan)| plan.pred.is_some() && plan.mode != SearchMode::SoftwareOnly)
            .map(|(i, plan)| (plan.query.key, i)),
    );
    grouped.sort_by_key(|&(key, _)| key);
    let mut need = std::mem::take(&mut cx.fs1_misses);
    cx.lap(Stage::Plan);

    let slot = |i: usize| fs1_slots.get(i).copied().flatten();
    for group in grouped.chunk_by(|a, b| a.0 == b.0) {
        cx.open_passes();
        let members = || group.iter().map(|&(_, i)| i);
        let pred = plans[group[0].1]
            .pred
            .expect("grouped plans have a base predicate");
        // FS1: cached outcomes first; the misses share one index pass.
        let index = pred.index();
        need.clear();
        for i in members() {
            if matches!(plans[i].mode, SearchMode::Fs1Only | SearchMode::TwoStage) {
                plans[i].fs1 = slot(i).and_then(|slot| slot.get());
                if plans[i].fs1.is_none() {
                    need.push(i);
                }
            }
        }
        if !need.is_empty() {
            let descriptors: Vec<&QueryDescriptor> = need
                .iter()
                .map(|&i| {
                    let descriptor = plans[i].query.descriptor.as_ref();
                    descriptor.expect("an FS1-mode plan carries its descriptor")
                })
                .collect();
            let cancel = &cx.cancel;
            let tripped = || cancel.checkpoint().is_err();
            let hook: Option<&dyn Fn() -> bool> = if cancel.is_unlimited() {
                None
            } else {
                Some(&tripped)
            };
            let Some(outcomes) = index.scan(&descriptors, hook) else {
                // The hook just observed a tripped token; deadline is the
                // conservative fallback if a race hid the reason.
                let reason = cancel.checkpoint().err().unwrap_or(BudgetReason::Deadline);
                return Err(exceeded(reason, None));
            };
            cx.scanned(&outcomes);
            for (&i, outcome) in need.iter().zip(outcomes) {
                if let Some(slot) = slot(i) {
                    slot.put(&outcome);
                }
                plans[i].fs1 = Some(outcome);
            }
        }
        // FS2: each member's engine sweeps its own tracks — the whole
        // file, or just the tracks its FS1 candidates live on — once, in
        // ascending order, folding each track's satisfiers and accounting
        // into the sweep as it goes. The token is polled once per track,
        // so cancellation latency is one track.
        for i in members() {
            let Plan {
                engine: Some(engine),
                fs1,
                sweep,
                ..
            } = &mut plans[i]
            else {
                continue;
            };
            // One of the two track sources is present; chained, the sweep
            // consumes it without collecting the tracks first.
            let (fs1_tracks, every_track) = match fs1 {
                Some(outcome) => (Some(candidate_tracks(&outcome.matches)), None),
                None => (None, Some(0..pred.file().track_count())),
            };
            let mut swept = Fs2Sweep::new(pred, opts);
            let arena = pred.arena();
            let mut selection = match engine.first_key() {
                Some(key) => Selection::Keyed {
                    keyed: arena.key_clauses(key),
                    zero: arena.zero_key_clauses(),
                },
                None => Selection::All,
            };
            let tracks = fs1_tracks.into_iter().flatten();
            for t in tracks.chain(every_track.into_iter().flatten()) {
                if let Err(reason) = cx.cancel.checkpoint() {
                    // The tracks that finished were really swept; the
                    // context publishes their counts.
                    return Err(exceeded(reason, None));
                }
                match_track(pred, engine, &mut selection, t, &mut cx.counts, &mut swept);
            }
            cx.swept(swept.fs2_time);
            *sweep = Some(swept);
        }
    }

    (cx.groups, cx.fs1_misses) = (grouped, need);
    let filtered = plans
        .into_iter()
        .map(|plan| plan.filter(opts, cx))
        .collect();
    cx.lap(Stage::Filter);
    filtered
}

/// Packages a tripped budget as the typed retrieval outcome.
fn exceeded(reason: BudgetReason, stats: Option<RetrievalStats>) -> BudgetExceeded {
    BudgetExceeded {
        reason: Some(reason),
        retrieval_stats: stats.map(Box::new),
        solve_stats: None,
    }
}

/// The clauses a query's candidate ids index: the base predicate's
/// clause list, then the overlay delta's additions under the synthetic ids
/// `base_len..`, in assert order.
pub(crate) struct Clauses<'a> {
    base: &'a [Clause],
    delta: Option<&'a PredDelta>,
}

impl<'a> Clauses<'a> {
    /// The clause `id` names.
    pub(crate) fn get(&self, id: ClauseId) -> &'a Clause {
        let idx = id.index() as usize;
        match self.base.get(idx) {
            Some(clause) => clause,
            None => {
                let delta = self.delta.expect("synthetic ids come from a delta");
                &delta.added()[idx - self.base.len()].clause
            }
        }
    }
}

/// What a query's filters hand to full unification: the merged candidate
/// ids in clause order, the statistics of every phase before it, and the
/// clauses the ids index. It depends only on the goal, the snapshot pair,
/// the mode policy and the [`CrsOptions`], so a caller that meets the
/// same goal again, the other three unchanged, may run [`Filtered::unify`]
/// on it again instead of filtering twice.
pub(crate) struct Filtered<'a> {
    pub(crate) candidates: Vec<ClauseId>,
    pub(crate) stats: RetrievalStats,
    pub(crate) clauses: Clauses<'a>,
    /// What a tail that ran to the end counted: the survivors and the
    /// modelled time. They depend only on the goal the filters ran, so a
    /// repeat of the goal reuses them.
    counted: OnceCell<(usize, SimNanos)>,
}

impl Filtered<'_> {
    /// The tail of every retrieval: charges the candidate ceiling on the
    /// merged set, before any full-unification work is spent on it, then
    /// fully unifies each candidate with `query` (the goal the filters
    /// ran), counting the survivors. Returns the retrieval's complete
    /// statistics. A repeat pays the candidate charge again and reuses the
    /// count.
    pub(crate) fn unify(
        &self,
        query: &Term,
        opts: &CrsOptions,
        cx: &mut RequestContext,
    ) -> Result<RetrievalStats, BudgetExceeded> {
        if let Err(reason) = cx.cancel.note_candidates(self.candidates.len() as u64) {
            return Err(exceeded(reason, Some(self.stats.clone())));
        }
        let (unified, full_unify_time) = match self.counted.get() {
            Some(&counted) => counted,
            None => {
                let counted = self.count_unifiers(query, opts, cx)?;
                *self.counted.get_or_init(|| counted)
            }
        };
        let mut stats = self.stats.clone();
        stats.full_unify_time += full_unify_time;
        stats.candidates = self.candidates.len();
        stats.unified = unified;
        stats.false_drops = self.candidates.len() - unified;
        stats.elapsed += stats.full_unify_time;
        cx.counts.crs_degraded_answers += u64::from(stats.degraded);
        cx.note_retrievals(1);
        cx.lap(Stage::Unify);
        Ok(stats)
    }

    /// Fully unifies each candidate with `query`: the survivors and the
    /// modelled time that took. A tripped budget carries the filters'
    /// statistics with the time spent so far.
    fn count_unifiers(
        &self,
        query: &Term,
        opts: &CrsOptions,
        cx: &mut RequestContext,
    ) -> Result<(usize, SimNanos), BudgetExceeded> {
        let candidates = &self.candidates;
        let query_nodes = term_size(query);
        // The query is renamed apart from every candidate's head, not each
        // head from the query: one copy per retrieval at most, and none
        // when either side is ground. A clause's variables all lie below
        // its `var_count` (`Clause::new` checks).
        let heads_span = candidates
            .iter()
            .map(|&id| self.clauses.get(id).var_count());
        let query = renamed(query, heads_span.max().unwrap_or(0) as u32);
        let (mut unified, mut time) = (0usize, SimNanos::ZERO);
        for (i, &id) in candidates.iter().enumerate() {
            if i % 64 == 0 {
                if let Err(reason) = cx.cancel.checkpoint() {
                    let mut stats = self.stats.clone();
                    stats.full_unify_time += time;
                    return Err(exceeded(reason, Some(stats)));
                }
            }
            let head = self.clauses.get(id).head();
            time += opts.cost.full_unify_cost(query_nodes, term_size(head));
            if head_unifies(&query, head, &mut cx.scratch) {
                unified += 1;
            }
        }
        Ok((unified, time))
    }
}

/// Whether `query` fully unifies with `head`, their variables apart:
/// [`clare_unify::unify_query_clause`]'s test, in a `store` every candidate
/// reuses and leaves as it found it.
fn head_unifies(query: &Term, head: &Term, store: &mut BindingStore) -> bool {
    let mark = store.mark();
    let unifies = unify(query, head, store);
    store.undo(mark);
    unifies
}

/// `term` with its variables shifted up by `offset`: borrowed as it is
/// when the shift moves nothing.
fn renamed(term: &Term, offset: u32) -> Cow<'_, Term> {
    if offset == 0 || var_span(term) == 0 {
        Cow::Borrowed(term)
    } else {
        Cow::Owned(shift_vars(term, offset))
    }
}

/// One query's way through the pipeline: what the first stage decided,
/// then what the shared hardware passes produced for it.
struct Plan<'p, 'a> {
    /// The compiled query: stream, descriptor, requested mode.
    query: &'p QueryPlan<'p, 'a>,
    /// The base predicate, if the snapshot has one.
    pred: Option<&'a Predicate>,
    /// The overlay's non-empty delta for the predicate, if any.
    delta: Option<&'a PredDelta>,
    disk_resident: bool,
    /// The mode that will actually run: the requested one, or, when the
    /// Level-3 walk is wanted and the query cannot be loaded for it,
    /// `Fs1Only` for a two-stage request and `SoftwareOnly` otherwise.
    /// (FS1 needs no query stream, only a descriptor, so `Fs1Only` always
    /// stays viable.)
    mode: SearchMode,
    /// The loaded FS2 engine, in every mode but `Fs1Only` over a base
    /// predicate when the query loads. It borrows the plan's stream.
    engine: Option<Fs2Engine<'p>>,
    /// The FS1 scan outcome; filled in exactly in the FS1 modes.
    fs1: Option<clare_scw::ScanOutcome>,
    /// The FS2 sweep; filled in exactly in the FS2 modes.
    sweep: Option<Fs2Sweep>,
}

impl<'p, 'a> Plan<'p, 'a> {
    fn new(query: &'p QueryPlan<'p, 'a>, overlay: Option<&'a Overlay>) -> Self {
        let delta = query
            .key
            .and_then(|(functor, arity)| overlay?.delta(functor, arity))
            .filter(|d| !d.is_empty());
        let base = query.base;
        // The Level-3 walk needs a stream the Query Memory can hold.
        let walks = query.walks();
        let engine = walks
            .then(|| Fs2Engine::new(query.stream.as_ref()?.as_ref().ok()?).ok())
            .flatten();
        // A query the engine cannot load keeps what needs no stream: a
        // two-stage request still runs FS1 on the descriptor its plan
        // compiled, and the modes with no FS1 stage pass every clause.
        let mode = match query.mode {
            mode if !walks || engine.is_some() => mode,
            SearchMode::TwoStage => SearchMode::Fs1Only,
            _ => SearchMode::SoftwareOnly,
        };
        Plan {
            query,
            pred: base.map(|(_, pred)| pred),
            delta,
            disk_resident: base.is_some_and(|(module, _)| module.kind() == ModuleKind::Large),
            mode,
            engine,
            fs1: None,
            sweep: None,
        }
    }

    /// The per-query filter output: timing accounting for the hardware
    /// phases (or the host filter of mode (a)), then the overlay merge.
    fn filter(
        self,
        opts: &CrsOptions,
        cx: &mut RequestContext,
    ) -> Result<Filtered<'a>, BudgetExceeded> {
        let delta = self.delta;
        let mut stats = RetrievalStats::empty(self.mode);
        let base = self.pred.map_or(&[][..], Predicate::clauses);
        let base_len = base.len();
        stats.clauses_total = base_len;
        let clauses = Clauses { base, delta };

        let mut candidates = match self.pred {
            Some(pred) => match self.phase_candidates(pred, opts, &mut stats, cx) {
                Ok(candidates) => candidates,
                // A tripped budget surfaces the partial stats, never a
                // partial candidate list — and (structurally) never
                // reaches any cache: the server only caches `Ok` results.
                Err(reason) => return Err(exceeded(reason, Some(stats))),
            },
            // A predicate that exists only in the overlay has no base
            // file, no codeword index, no track segment — nothing for the
            // hardware to filter: every overlay clause is a candidate (the
            // superset invariant holds trivially) and full unification
            // weeds them. One that exists nowhere has no candidates.
            None => Vec::new(),
        };

        // Merge the memtable delta: retracted base clauses leave the
        // candidate set, and overlay additions join it unconditionally —
        // they have no codewords yet, so every filter must pass them (a
        // superset filter can only over-approximate, never drop an answer).
        // Synthetic ids `base_len + j` index the delta's added clauses; they
        // sort after every base id, so the candidate list stays in clause
        // order.
        if let Some(delta) = delta {
            candidates.retain(|id| !delta.is_retracted(id.index() as usize));
            let adds = delta.added().len();
            candidates.extend((0..adds).map(|j| ClauseId::new((base_len + j) as u32)));
            stats.clauses_total = base_len - delta.retracted_base().len() + adds;
        }
        Ok(Filtered {
            candidates,
            stats,
            clauses,
            counted: OnceCell::new(),
        })
    }

    /// Accounts the mode-selected filter phases and produces the
    /// base-file candidate ids. Split out of [`Plan::filter`] so a tripped
    /// budget can return through one seam with the partial stats still in
    /// hand.
    fn phase_candidates(
        self,
        pred: &Predicate,
        opts: &CrsOptions,
        stats: &mut RetrievalStats,
        cx: &mut RequestContext,
    ) -> Result<Vec<ClauseId>, BudgetReason> {
        const SCANNED: &str = "the shared pass scanned every FS1-mode query";
        const SWEPT: &str = "the shared pass swept every FS2-mode query";
        Ok(match self.mode {
            SearchMode::SoftwareOnly => {
                software_phase(pred, self.engine, opts, self.disk_resident, stats, cx)?
            }
            SearchMode::Fs1Only => {
                let addrs = fs1_phase(self.fs1.expect(SCANNED), opts, stats);
                fetch_candidate_tracks(pred, &addrs, opts, stats);
                stats.after_fs1 = Some(addrs.len());
                addrs_to_ids(pred, &addrs)
            }
            SearchMode::Fs2Only => {
                let satisfiers = self.sweep.expect(SWEPT).finish(stats);
                stats.after_fs2 = Some(satisfiers.len());
                addrs_to_ids(pred, &satisfiers)
            }
            SearchMode::TwoStage => {
                let fs1_addrs = fs1_phase(self.fs1.expect(SCANNED), opts, stats);
                stats.after_fs1 = Some(fs1_addrs.len());
                let fs2_addrs = self.sweep.expect(SWEPT).finish(stats);
                // Intersect: only clauses selected by both stages go on.
                let joint = intersect_ascending(&fs1_addrs, &fs2_addrs);
                // FS1 candidates the FS2 verdicts rejected: the numerator of
                // the FS1 false-drop rate (`fs1.false_drops / fs1.candidates_out`).
                cx.counts.fs1_false_drops += (fs1_addrs.len() - joint.len()) as u64;
                stats.after_fs2 = Some(joint.len());
                addrs_to_ids(pred, &joint)
            }
        })
    }
}

// Every address list below ascends: FS1 outcomes do (see
// `clare_scw::ScanOutcome::matches`), an FS2 sweep visits tracks in
// ascending order and reports each track's hits in slot order, and an
// intersection of ascending lists ascends. Clause order is address order,
// so ids ascend too.

/// The clause ids of the ascending `addrs`, in clause order.
fn addrs_to_ids(pred: &Predicate, addrs: &[ClauseAddr]) -> Vec<ClauseId> {
    debug_assert!(addrs.is_sorted(), "candidate addresses ascend");
    addrs
        .iter()
        .map(|a| {
            pred.clause_id_at(*a)
                .expect("candidate addresses come from this predicate")
        })
        .collect()
}

/// The addresses on both ascending lists, ascending.
fn intersect_ascending(a: &[ClauseAddr], b: &[ClauseAddr]) -> Vec<ClauseAddr> {
    debug_assert!(
        a.is_sorted() && b.is_sorted(),
        "both stages' addresses ascend"
    );
    let (mut i, mut j) = (0, 0);
    let mut joint = Vec::new();
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                joint.push(*x);
                i += 1;
                j += 1;
            }
        }
    }
    joint
}

/// The distinct tracks holding the ascending FS1 candidates `addrs`,
/// ascending: one per run of equal tracks.
fn candidate_tracks(addrs: &[ClauseAddr]) -> impl Iterator<Item = usize> + '_ {
    debug_assert!(addrs.is_sorted(), "FS1 outcomes ascend");
    addrs
        .chunk_by(|a, b| a.track() == b.track())
        .map(|run| run[0].track() as usize)
}

/// Mode (a): stream everything (if disk resident) and filter on the host
/// with the walk the FS2 sweep runs, over each clause's arena words,
/// counting the walk into the request's `fs2.*` totals (clauses,
/// satisfiers, ops). Without an engine (a query that cannot be loaded)
/// every clause passes and no filter time is charged.
fn software_phase(
    pred: &Predicate,
    engine: Option<Fs2Engine<'_>>,
    opts: &CrsOptions,
    disk_resident: bool,
    stats: &mut RetrievalStats,
    cx: &mut RequestContext,
) -> Result<Vec<ClauseId>, BudgetReason> {
    if disk_resident {
        stats.disk_time = pred.file().scan_time(&opts.disk);
        stats.bytes_from_disk = pred.file().occupied_bytes() as u64;
    }
    let arena = pred.arena();
    let Some(mut engine) = engine else {
        stats.elapsed = stats.disk_time;
        return Ok((0..arena.len()).map(|c| ClauseId::new(c as u32)).collect());
    };
    let mut out = Vec::new();
    let counts = &mut cx.counts;
    for c in 0..arena.len() {
        if c % 64 == 0 {
            cx.cancel.checkpoint()?;
        }
        let verdict = engine.match_clause_words(arena.stream(c));
        let ops: usize = verdict.op_histogram.iter().sum();
        stats.software_filter_time += opts.cost.partial_match_cost(ops.max(1));
        counts.fs2_clauses += 1;
        for (total, n) in counts.fs2_ops.iter_mut().zip(verdict.op_histogram) {
            *total += n as u64;
        }
        if verdict.matched {
            counts.fs2_satisfiers += 1;
            out.push(ClauseId::new(c as u32));
        }
    }
    // The host cannot overlap its own filtering with much else.
    stats.elapsed = stats.disk_time + stats.software_filter_time;
    Ok(out)
}

/// FS1 phase accounting: the secondary file streams off the disk while
/// FS1 scans its codewords at 4.5 MB/s. The `outcome` may come from this
/// request's index pass or from the server's FS1 cache — either is exactly
/// what a fresh scan would produce, so every stat is the same.
fn fs1_phase(
    outcome: clare_scw::ScanOutcome,
    opts: &CrsOptions,
    stats: &mut RetrievalStats,
) -> Vec<ClauseAddr> {
    let index_bytes = outcome.bytes_scanned as u64;
    let disk_transfer = opts.disk.sustained_rate().transfer_time(index_bytes);
    let positioning = opts.disk.avg_seek() + opts.disk.avg_rotational_latency();
    stats.fs1_time += outcome.fs1_time;
    stats.disk_time += positioning + disk_transfer;
    stats.bytes_from_disk += index_bytes;
    // FS1 filters on the fly: the scan overlaps the transfer.
    stats.elapsed += positioning + disk_transfer.max(outcome.fs1_time);
    outcome.matches
}

/// Disk time to fetch the tracks containing `addrs` (mode (b): the host
/// reads candidate tracks whole, then unifies).
fn fetch_candidate_tracks(
    pred: &Predicate,
    addrs: &[ClauseAddr],
    opts: &CrsOptions,
    stats: &mut RetrievalStats,
) {
    let seek = opts.disk.avg_seek() + opts.disk.avg_rotational_latency();
    let transfer = opts.disk.track_transfer_time();
    let track_bytes = pred.file().track_bytes() as u64;
    let mut prev: Option<usize> = None;
    for t in candidate_tracks(addrs) {
        let contiguous = prev.is_some_and(|p| t == p + 1);
        let positioning = if contiguous { SimNanos::ZERO } else { seek };
        stats.disk_time += positioning + transfer;
        stats.elapsed += positioning + transfer;
        stats.bytes_from_disk += track_bytes;
        prev = Some(t);
    }
}

/// One FS2 sweep, built track by track in ascending order: the satisfiers
/// so far, ascending, and the Table 1 and disk accounting of the tracks
/// swept so far. Each track streams from disk into the Double Buffer while
/// the previous track's clauses are matched, so its elapsed time is
/// `max(transfer, matching)` — the single hardware pipeline of the paper,
/// whatever order the host ran the request's sweeps in.
struct Fs2Sweep {
    satisfiers: Vec<ClauseAddr>,
    /// The last track swept: the next one continues the sweep for free
    /// when adjacent, and needs a fresh positioning otherwise.
    prev: Option<usize>,
    /// Seek plus rotational latency, one track's transfer time and size.
    positioning: SimNanos,
    transfer: SimNanos,
    track_bytes: u64,
    fs2_time: SimNanos,
    disk_time: SimNanos,
    elapsed: SimNanos,
    bytes_from_disk: u64,
    result_memory_overflows: usize,
    quarantined_tracks: usize,
}

impl Fs2Sweep {
    fn new(pred: &Predicate, opts: &CrsOptions) -> Self {
        Fs2Sweep {
            satisfiers: Vec::new(),
            prev: None,
            positioning: opts.disk.avg_seek() + opts.disk.avg_rotational_latency(),
            transfer: opts.disk.track_transfer_time(),
            track_bytes: pred.file().track_bytes() as u64,
            fs2_time: SimNanos::ZERO,
            disk_time: SimNanos::ZERO,
            elapsed: SimNanos::ZERO,
            bytes_from_disk: 0,
            result_memory_overflows: 0,
            quarantined_tracks: 0,
        }
    }

    /// Charges track `t`, after every track swept before it: FS2 matched
    /// it in `fs2_time` and `hits` of its clauses (already pushed onto
    /// `satisfiers`) survived; a `quarantined` track was not matched.
    fn charge(&mut self, t: usize, fs2_time: SimNanos, hits: usize, quarantined: bool) {
        if hits > clare_fs2::result::SATISFIER_SLOTS {
            self.result_memory_overflows += 1;
        }
        self.quarantined_tracks += usize::from(quarantined);
        // Adjacent tracks continue the sweep for free; the first track and
        // any gap cost a fresh positioning (seek + rotational latency).
        let contiguous = self.prev.is_some_and(|p| t == p + 1);
        let positioning = if contiguous {
            SimNanos::ZERO
        } else {
            self.positioning
        };
        self.fs2_time += fs2_time;
        self.disk_time += positioning + self.transfer;
        self.bytes_from_disk += self.track_bytes;
        // Double buffering overlaps matching with the next transfer.
        self.elapsed += positioning + self.transfer.max(fs2_time);
        self.prev = Some(t);
    }

    /// FS2 phase accounting: adds the sweep's times, bytes and fault
    /// counts to `stats` and hands over the satisfiers.
    fn finish(self, stats: &mut RetrievalStats) -> Vec<ClauseAddr> {
        stats.fs2_time += self.fs2_time;
        stats.disk_time += self.disk_time;
        stats.bytes_from_disk += self.bytes_from_disk;
        stats.elapsed += self.elapsed;
        stats.result_memory_overflows += self.result_memory_overflows;
        stats.quarantined_tracks += self.quarantined_tracks;
        stats.degraded |= self.quarantined_tracks > 0;
        self.satisfiers
    }
}

/// Streams track `t`'s clauses through the engine into `sweep`: one
/// [`Fs2Engine::match_track`] call over the predicate's [`ClauseArena`]
/// (head streams decoded once at build/load time), walking only the
/// clauses `selection` lists on the track — the sweep's first-word posting
/// lists.
///
/// A keyed track the posting lists name no clause on skips the call: it
/// is charged in bulk exactly what the call would charge
/// ([`Selection::unlisted`]).
///
/// A track whose stored bytes fail their CRC is quarantined instead: the
/// hardware filter is skipped and every clause on the track becomes a
/// hit, so the filter's completeness contract (no false negatives) holds
/// even over data it could not trust. Downstream full unification weeds
/// the extra false drops; the answer set is exactly the fault-free one.
/// No FS2 time is charged — the hardware did not run.
///
/// [`ClauseArena`]: clare_kb::ClauseArena
// Kept out of line: inlined into the large pipeline body, the sweep
// measured ~4 % slower (E15, `clare-tables fs2bench`).
#[inline(never)]
fn match_track(
    pred: &Predicate,
    engine: &mut Fs2Engine<'_>,
    selection: &mut Selection<'_>,
    t: usize,
    counts: &mut RequestCounts,
    sweep: &mut Fs2Sweep,
) {
    let track = t as u32;
    // The CRC verdict is memoized per track inside the stored file, so the
    // fault-free fast path pays the checksum exactly once per track.
    if pred.file().read_track(t) != Some(true) {
        let slots = pred.file().tracks().get(t).map_or(0, Track::record_count);
        counts.fs2_quarantined_tracks += 1;
        counts.disk_track_crc_failures += 1;
        let all = (0..slots as u16).map(|slot| ClauseAddr::new(track, slot));
        sweep.satisfiers.extend(all);
        sweep.charge(t, SimNanos::ZERO, slots, true);
        return;
    }
    let arena = pred.arena();
    let clauses = arena.track_clauses(t);
    let verdict = match selection.unlisted(&clauses) {
        Some(verdict) => verdict,
        None => {
            let satisfiers = &mut sweep.satisfiers;
            engine.match_track(
                clauses.clone(),
                selection,
                |c| arena.stream(c),
                |slot| satisfiers.push(ClauseAddr::new(track, slot)),
            )
        }
    };
    counts.fs2_tracks += 1;
    counts.fs2_clauses += clauses.len() as u64;
    counts.fs2_satisfiers += verdict.satisfiers as u64;
    for (total, n) in counts.fs2_ops.iter_mut().zip(verdict.op_histogram) {
        *total += n;
    }
    sweep.charge(t, verdict.time, verdict.satisfiers, false);
}

/// The mode-selection heuristic the paper sketches: "depending on the
/// nature of a query (e.g. whether it contains cross bound variables) and
/// the knowledge base (e.g. whether it is rule or fact intensive)".
///
/// Memory-resident modules are searched in software. Otherwise a query
/// whose FS1 descriptor constrains nothing, or a rule-intensive predicate
/// (rule share above 1/2), goes to FS2 alone; a ground query against a
/// fact-intensive predicate (rule share below 1/5) to FS1 alone; anything
/// else to both stages. The predicate's share was counted when it was
/// compiled, so the choice costs O(query). This compiles a throwaway
/// plan with no PIF stream, and does not count in `crs.query_compiles`;
/// the resolver reads the mode off the plan it retrieves with.
pub fn choose_mode(kb: &KnowledgeBase, query: &Term) -> SearchMode {
    QueryPlan::choose(kb, Cow::Borrowed(query), ModeChoice::Auto).mode
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbBuilder, KbConfig};
    use clare_pif::PifError;
    use clare_term::parser::parse_term;
    use clare_wal::WalOp;

    fn kb_with(source: &str) -> (KnowledgeBase, Vec<Term>) {
        (build(source, &[]).0, vec![])
    }

    fn build(source: &str, queries: &[&str]) -> (KnowledgeBase, Vec<Term>) {
        let mut b = KbBuilder::new();
        b.consult("m", source).unwrap();
        let terms: Vec<Term> = queries
            .iter()
            .map(|q| parse_term(q, b.symbols_mut()).unwrap())
            .collect();
        (b.finish(KbConfig::default()), terms)
    }

    fn big_facts(n: usize) -> String {
        (0..n)
            .map(|i| format!("fact(k{i}, v{}).", i % 10))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn shared_variable_query_defeats_fs1_but_not_fs2() {
        let mut src = big_facts(100);
        src.push_str("\nfact(same, same).");
        let (kb, queries) = build(&src, &["fact(S, S)"]);
        let opts = CrsOptions::default();
        let fs1 = retrieve(&kb, &queries[0], SearchMode::Fs1Only, &opts);
        let fs2 = retrieve(&kb, &queries[0], SearchMode::Fs2Only, &opts);
        assert_eq!(
            fs1.stats.candidates, 101,
            "FS1 retrieves the entire predicate"
        );
        assert!(
            fs2.stats.candidates < 15,
            "FS2 cross-binding checks cut it down: {}",
            fs2.stats.candidates
        );
        assert_eq!(fs2.stats.unified, fs1.stats.unified);
    }

    #[test]
    fn timing_fields_populated_per_mode() {
        let (kb, queries) = build(&big_facts(2000), &["fact(k100, X)"]);
        let opts = CrsOptions::default();
        let q = &queries[0];
        let sw = retrieve(&kb, q, SearchMode::SoftwareOnly, &opts);
        assert!(sw.stats.software_filter_time.as_ns() > 0);
        assert_eq!(sw.stats.fs1_time, SimNanos::ZERO);
        assert_eq!(sw.stats.fs2_time, SimNanos::ZERO);
        let fs1 = retrieve(&kb, q, SearchMode::Fs1Only, &opts);
        assert!(fs1.stats.fs1_time.as_ns() > 0);
        assert_eq!(fs1.stats.fs2_time, SimNanos::ZERO);
        let fs2 = retrieve(&kb, q, SearchMode::Fs2Only, &opts);
        assert!(fs2.stats.fs2_time.as_ns() > 0);
        assert_eq!(fs2.stats.fs1_time, SimNanos::ZERO);
        let two = retrieve(&kb, q, SearchMode::TwoStage, &opts);
        assert!(two.stats.fs1_time.as_ns() > 0);
        assert!(two.stats.fs2_time.as_ns() > 0);
        // The two-stage filter reads fewer bytes than a full FS2 scan.
        assert!(two.stats.bytes_from_disk < fs2.stats.bytes_from_disk);
    }

    /// A query the FS2 engine cannot load loses only the Level-3 walk:
    /// software and FS2-only mode pass every live clause, unfiltered, and
    /// a two-stage request returns exactly what an FS1-only request does.
    #[test]
    fn unencodable_query_falls_back_to_software() {
        // `w/130`'s head, every argument `arg`.
        let w = |arg: &str| format!("w({})", vec![arg; 130].join(", "));
        let source = format!(
            "p(1). p(X). p(a). p(g(b)). p(Z) :- q(Z).
             {}. {}. {}. {}. {} :- p(Z).",
            w("1"),
            w("X"),
            w("a"),
            w("g(b)"),
            w("Z")
        );
        // 130 stream words and 129 distinct variables overflow the 256
        // words of Query Memory.
        let vars: Vec<String> = (1..130).map(|i| format!("V{i}")).collect();
        let too_large = format!("w(c, {})", vars.join(", "));
        let (kb, queries) = build(&source, &["p(999999999999)", &too_large]);
        let fs2 = ModeChoice::Fixed(SearchMode::Fs2Only);
        let plan = |query| QueryPlan::new(&kb, Cow::Borrowed(query), None, fs2);
        let out_of_range = plan(&queries[0]).stream.unwrap();
        assert!(matches!(out_of_range, Err(PifError::IntOutOfRange(_))));
        let stream = plan(&queries[1]).stream.unwrap().unwrap();
        assert!(Fs2Engine::new(&stream).is_err(), "the stream overflows");

        // Each predicate loses its variable fact and gains a non-answer
        // and another variable fact.
        let mut overlay = Overlay::new(kb.symbols().clone());
        let ops = [
            WalOp::Retract {
                module: "m".to_owned(),
                source: "p(X).".to_owned(),
            },
            WalOp::Retract {
                module: "m".to_owned(),
                source: format!("{}.", w("X")),
            },
            WalOp::Assert {
                module: "m".to_owned(),
                source: format!("p(new). p(W). {}. {}.", w("new"), w("W")),
            },
        ];
        for (seq, op) in (1..).zip(&ops) {
            overlay.apply(seq, op, &kb).unwrap();
        }
        let opts = CrsOptions::default();
        let ids = |ids: &[u32]| ids.iter().map(|&i| ClauseId::new(i)).collect::<Vec<_>>();
        let live = [
            (None, ids(&[0, 1, 2, 3, 4])),
            (Some(&overlay), ids(&[0, 2, 3, 4, 5, 6])),
        ];
        for query in &queries {
            for (overlay, live) in &live {
                let run = |mode| match overlay {
                    None => retrieve(&kb, query, mode, &opts),
                    Some(overlay) => retrieve_merged(&kb, overlay, query, mode, &opts),
                };
                for mode in [SearchMode::SoftwareOnly, SearchMode::Fs2Only] {
                    let r = run(mode);
                    assert_eq!(r.stats.mode, SearchMode::SoftwareOnly, "{mode}");
                    assert_eq!(&r.candidates, live, "{mode}");
                    assert_eq!(r.stats.software_filter_time, SimNanos::ZERO, "{mode}");
                    // Memory resident: no disk time either.
                    assert_eq!(r.stats.elapsed, r.stats.full_unify_time, "{mode}");
                    // The variable fact (retracted or asserted) and the
                    // rule's head.
                    assert_eq!(r.stats.unified, 2, "{mode}");
                }
                let two_stage = run(SearchMode::TwoStage);
                assert_eq!(two_stage.stats.mode, SearchMode::Fs1Only);
                assert_eq!(two_stage, run(SearchMode::Fs1Only));
                assert_eq!(two_stage.stats.unified, 2);
            }
        }
    }

    #[test]
    fn mode_selection_heuristic() {
        let mut src = big_facts(3000); // large module
        src.push_str("\nrule_pred(X) :- fact(X, v0).\n");
        let (kb, queries) = build(&src, &["fact(S, S)", "fact(k1, v1)", "fact(k1, X)"]);
        assert_eq!(choose_mode(&kb, &queries[0]), SearchMode::Fs2Only);
        assert_eq!(choose_mode(&kb, &queries[1]), SearchMode::Fs1Only);
        assert_eq!(choose_mode(&kb, &queries[2]), SearchMode::TwoStage);
        // Small module -> software.
        let (small_kb, small_q) = build("p(a).", &["p(a)"]);
        assert_eq!(
            choose_mode(&small_kb, &small_q[0]),
            SearchMode::SoftwareOnly
        );
    }

    #[test]
    fn empty_source_ignored() {
        let (kb, _) = kb_with("p(a).");
        assert_eq!(kb.clause_count(), 1);
    }

    #[test]
    fn fs2_positioning_charged_per_gap_not_per_track() {
        // Enough facts to span several tracks.
        let (kb, _) = build(&big_facts(3000), &[]);
        let pred = kb.lookup("fact", 2).unwrap();
        assert!(pred.file().track_count() >= 4, "predicate spans 4+ tracks");
        let opts = CrsOptions::default();
        // Positioning depends only on which tracks were visited, not on
        // what matched there.
        let sweep = |tracks: &[usize]| {
            let mut sweep = Fs2Sweep::new(pred, &opts);
            for &t in tracks {
                sweep.charge(t, SimNanos::ZERO, 0, false);
            }
            let mut stats = RetrievalStats::empty(SearchMode::Fs2Only);
            sweep.finish(&mut stats);
            stats
        };
        let contiguous = sweep(&[0, 1, 2]);
        let gapped = sweep(&[0, 2, 3]);
        // [0, 1, 2] positions once (at track 0); [0, 2, 3] re-positions
        // after the 0 -> 2 gap, so it pays exactly one extra positioning.
        let positioning = opts.disk.avg_seek() + opts.disk.avg_rotational_latency();
        assert_eq!(gapped.disk_time, contiguous.disk_time + positioning);
        assert_eq!(gapped.bytes_from_disk, contiguous.bytes_from_disk);
    }
}
