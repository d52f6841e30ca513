//! The four CRS search modes and their timing pipelines (§2.2).
//!
//! Every mode ends with **full unification** of the surviving candidates
//! on the host CPU; what differs is which filters run first and what has
//! to come off the disk:
//!
//! | mode | index scanned | clause file read | filter |
//! |---|---|---|---|
//! | (a) `SoftwareOnly` | no | all of it (if disk resident) | host CPU |
//! | (b) `Fs1Only` | yes, via FS1 | candidate tracks | codewords only |
//! | (c) `Fs2Only` | no | all of it, streamed through FS2 | test unification |
//! | (d) `TwoStage` | yes, via FS1 | candidate tracks through FS2 | both |
//!
//! Because each filter is *complete* (no false negatives — property-tested
//! across the workspace), every mode returns the same answer set; the
//! modes differ in elapsed time and in how many false drops reach the full
//! unifier.

use crate::budget::{BudgetExceeded, BudgetReason, CancelToken};
use crate::cache::{CacheConfig, Fs1Slot};
use crate::cost::SoftwareCostModel;
use clare_disk::{DiskProfile, SimNanos, Track};
use clare_fs2::{Fs2Config, Fs2Engine, Selection, TrackVerdict};
use clare_kb::{KnowledgeBase, ModuleKind, Predicate};
use clare_pif::{encode_query, ClauseRecord};
use clare_scw::{encode_query_descriptor, ClauseAddr};
use clare_term::{term_size, ClauseId, Term};
use clare_unify::partial::{partial_match, PartialConfig};
use clare_unify::unify_query_clause;
use clare_wal::{Overlay, PredDelta};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

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
    /// Whether FS2 matching reads the pre-decoded [`clare_kb::ClauseArena`]
    /// (the default) or re-parses record bytes — the reference path. The
    /// answer set and every modelled time are identical either way.
    pub fs2: Fs2Config,
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
    /// call. `None` disables the size trigger.
    pub overlay_auto_compact_ops: Option<usize>,
    /// Auto-compaction age threshold: when a commit finds the oldest
    /// uncompacted operation at least this old, a pass is triggered. The
    /// age is only examined at commit time (there is no timer thread), so
    /// a write-idle server keeps its overlay until the next commit.
    /// `None` (the default) disables the age trigger.
    pub overlay_auto_compact_age: Option<std::time::Duration>,
}

impl Default for CrsOptions {
    fn default() -> Self {
        CrsOptions {
            disk: DiskProfile::fujitsu_m2351a(),
            cost: SoftwareCostModel::m68020(),
            fs2: Fs2Config::paper(),
            cache: CacheConfig::default(),
            overlay_auto_compact_ops: Some(8192),
            overlay_auto_compact_age: None,
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
    let (queries, unlimited) = ([query], CancelToken::unlimited());
    only(retrieve_batch(kb, None, &queries, mode, opts, &unlimited))
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
    let (queries, unlimited) = ([query], CancelToken::unlimited());
    let merged = retrieve_batch(kb, Some(overlay), &queries, mode, opts, &unlimited);
    only(merged)
}

/// The single result of a one-query request under the unlimited token,
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
/// **Modes.** A query that cannot be compiled for the hardware (an
/// integer outside the 28-bit in-line range, or a stream larger than the
/// Query Memory) falls back to software-only retrieval; `stats.mode`
/// reports what actually ran.
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
/// **Budget.** The token's deadline and candidate limit cover the request
/// as a whole and are checked at cooperative checkpoints (every few
/// thousand index entries, every FS2 track, every ~64 candidates of the
/// host filter and the full unifier). A tripped budget abandons the request
/// with a typed [`BudgetExceeded`] — no member gets a partial candidate
/// list. It carries the partial statistics of the query whose host phase
/// tripped, or none when the trip landed in a shared hardware pass.
/// [`CancelToken::unlimited`] never trips and costs nothing.
pub fn retrieve_batch(
    kb: &KnowledgeBase,
    overlay: Option<&Overlay>,
    queries: &[&Term],
    mode: SearchMode,
    opts: &CrsOptions,
    cancel: &CancelToken,
) -> Result<Vec<Retrieval>, BudgetExceeded> {
    pipeline(kb, overlay, queries, mode, opts, &[], cancel)
}

/// [`retrieve_batch`] with the server cache's FS1 seam: `fs1_slots` is
/// parallel to `queries` (or empty for none). Before the shared index
/// pass each member's slot is consulted; only the misses are scanned, and
/// their fresh outcomes are offered back. The answer — and every modelled
/// stat — is identical with and without slots; only the host work
/// changes. (An FS1 outcome depends only on the base index, so it stays
/// valid across overlay commits; the server's epoch bumps invalidate it
/// conservatively anyway.)
pub(crate) fn pipeline(
    kb: &KnowledgeBase,
    overlay: Option<&Overlay>,
    queries: &[&Term],
    mode: SearchMode,
    opts: &CrsOptions,
    fs1_slots: &[Option<Fs1Slot<'_>>],
    cancel: &CancelToken,
) -> Result<Vec<Retrieval>, BudgetExceeded> {
    // Decide every query's effective mode first: only what will really
    // run on the hardware joins the shared passes below.
    let mut plans: Vec<Plan<'_>> = queries
        .iter()
        .map(|query| Plan::new(kb, overlay, query, mode))
        .collect();
    let mut groups: HashMap<_, (&Predicate, Vec<usize>)> = HashMap::new();
    for (i, plan) in plans.iter().enumerate() {
        if let (Some(pred), Some(key)) = (plan.pred, plan.query.functor_arity()) {
            if plan.mode != SearchMode::SoftwareOnly {
                groups.entry(key).or_insert((pred, Vec::new())).1.push(i);
            }
        }
    }

    let slot = |i: usize| fs1_slots.get(i).copied().flatten();
    let predecoded = opts.fs2.predecoded();
    for (pred, members) in groups.into_values() {
        // FS1: cached outcomes first; the misses share one index pass.
        let index = pred.index();
        let mut need: Vec<usize> = Vec::new();
        for &i in &members {
            if matches!(plans[i].mode, SearchMode::Fs1Only | SearchMode::TwoStage) {
                plans[i].fs1 = slot(i).and_then(|slot| slot.get());
                if plans[i].fs1.is_none() {
                    need.push(i);
                }
            }
        }
        if !need.is_empty() {
            let descriptors: Vec<_> = need
                .iter()
                .map(|&i| encode_query_descriptor(plans[i].query, index.config()))
                .collect();
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
            for (&i, outcome) in need.iter().zip(outcomes) {
                if let Some(slot) = slot(i) {
                    slot.put(&outcome);
                }
                plans[i].fs1 = Some(outcome);
            }
        }
        // FS2: each member's engine sweeps its own tracks — the whole
        // file, or just the tracks its FS1 candidates live on. The token
        // is polled once per track, so cancellation latency is one track.
        for &i in &members {
            let plan = &mut plans[i];
            let Some(engine) = plan.engine.as_mut() else {
                continue;
            };
            let tracks: Vec<usize> = match &plan.fs1 {
                Some(outcome) => candidate_tracks(&outcome.matches).collect(),
                None => (0..pred.file().track_count()).collect(),
            };
            let started = Instant::now();
            let mut matches = Vec::with_capacity(tracks.len());
            let mut counts = SweepCounts::default();
            let arena = pred.arena();
            let mut selection = match engine.first_key() {
                Some(key) => Selection::Keyed {
                    keyed: arena.key_clauses(key),
                    zero: arena.zero_key_clauses(),
                },
                None => Selection::All,
            };
            for &t in &tracks {
                if let Err(reason) = cancel.checkpoint() {
                    // The tracks that finished were really swept.
                    counts.publish();
                    return Err(exceeded(reason, None));
                }
                let track = match_track(pred, engine, &mut selection, t, predecoded, &mut counts);
                matches.push(track);
            }
            counts.publish();
            let m = clare_trace::metrics();
            m.fs2_sweeps.inc();
            m.fs2_modelled_ns.record(
                matches
                    .iter()
                    .map(|tm| tm.fs2_time)
                    .sum::<SimNanos>()
                    .as_ns(),
            );
            m.fs2_wall_ns.record(started.elapsed().as_nanos() as u64);
            plan.sweep = Some(Fs2Sweep { tracks, matches });
        }
    }

    plans
        .into_iter()
        .map(|plan| plan.finish(opts, cancel))
        .collect()
}

/// Packages a tripped budget as the typed retrieval outcome.
fn exceeded(reason: BudgetReason, stats: Option<RetrievalStats>) -> BudgetExceeded {
    BudgetExceeded {
        reason: Some(reason),
        retrieval_stats: stats.map(Box::new),
        solve_stats: None,
    }
}

/// One query's way through the pipeline: what the first stage decided,
/// then what the shared hardware passes produced for it.
struct Plan<'a> {
    query: &'a Term,
    /// The base predicate, if the snapshot has one.
    pred: Option<&'a Predicate>,
    /// The overlay's non-empty delta for the predicate, if any.
    delta: Option<&'a PredDelta>,
    disk_resident: bool,
    /// The mode that will actually run: the requested one, or
    /// `SoftwareOnly` when FS2 is wanted and the query cannot be compiled
    /// for it. (FS1 needs no query stream, only a descriptor, so
    /// `Fs1Only` always stays viable.)
    mode: SearchMode,
    /// The loaded FS2 engine; present exactly in the FS2 modes.
    engine: Option<Fs2Engine>,
    /// The FS1 scan outcome; filled in exactly in the FS1 modes.
    fs1: Option<clare_scw::ScanOutcome>,
    /// The FS2 sweep; filled in exactly in the FS2 modes.
    sweep: Option<Fs2Sweep>,
}

/// A finished FS2 sweep: per-track match results for exactly `tracks`, in
/// that order.
struct Fs2Sweep {
    tracks: Vec<usize>,
    matches: Vec<TrackMatches>,
}

impl<'a> Plan<'a> {
    fn new(
        kb: &'a KnowledgeBase,
        overlay: Option<&'a Overlay>,
        query: &'a Term,
        requested: SearchMode,
    ) -> Self {
        let key = query.functor_arity();
        let delta = key
            .and_then(|(functor, arity)| overlay?.delta(functor, arity))
            .filter(|d| !d.is_empty());
        let base = key.and_then(|(functor, arity)| kb.module_of(functor, arity));
        // FS2 modes need an encodable query.
        let wants_fs2 =
            base.is_some() && matches!(requested, SearchMode::Fs2Only | SearchMode::TwoStage);
        let engine = wants_fs2
            .then(|| Fs2Engine::new(&encode_query(query).ok()?).ok())
            .flatten();
        let mode = if wants_fs2 && engine.is_none() {
            SearchMode::SoftwareOnly
        } else {
            requested
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

    /// The per-query tail: timing accounting for the hardware phases (or
    /// the host filter of mode (a)), the overlay merge, and full
    /// unification of the survivors.
    fn finish(self, opts: &CrsOptions, cancel: &CancelToken) -> Result<Retrieval, BudgetExceeded> {
        let (query, delta) = (self.query, self.delta);
        let mut stats = RetrievalStats::empty(self.mode);
        let base_clauses = self.pred.map_or(&[][..], Predicate::clauses);
        let base_len = base_clauses.len();
        stats.clauses_total = base_len;

        let mut candidates = match self.pred {
            Some(pred) => match self.phase_candidates(pred, opts, &mut stats, cancel) {
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
            None if delta.is_some() => Vec::new(),
            None => {
                return Ok(Retrieval {
                    candidates: Vec::new(),
                    stats,
                })
            }
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

        // The candidate ceiling is charged on the final merged set, before
        // any full-unification work is spent on it.
        if let Err(reason) = cancel.note_candidates(candidates.len() as u64) {
            return Err(exceeded(reason, Some(stats)));
        }

        // Full unification of the survivors — the answer set.
        let query_nodes = term_size(query);
        let mut unified = 0usize;
        for (i, id) in candidates.iter().enumerate() {
            if i % 64 == 0 {
                if let Err(reason) = cancel.checkpoint() {
                    return Err(exceeded(reason, Some(stats)));
                }
            }
            let idx = id.index() as usize;
            let clause = match delta {
                Some(d) if idx >= base_len => &d.added()[idx - base_len].clause,
                _ => &base_clauses[idx],
            };
            stats.full_unify_time += opts
                .cost
                .full_unify_cost(query_nodes, term_size(clause.head()));
            if unify_query_clause(query, clause.head()).is_some() {
                unified += 1;
            }
        }
        stats.candidates = candidates.len();
        stats.unified = unified;
        stats.false_drops = candidates.len() - unified;
        stats.elapsed += stats.full_unify_time;
        if stats.degraded {
            clare_trace::metrics().crs_degraded_answers.inc();
        }

        Ok(Retrieval { candidates, stats })
    }

    /// Accounts the mode-selected filter phases and produces the
    /// base-file candidate ids. Split out of [`Plan::finish`] so a tripped
    /// budget can return through one seam with the partial stats still in
    /// hand.
    fn phase_candidates(
        self,
        pred: &Predicate,
        opts: &CrsOptions,
        stats: &mut RetrievalStats,
        cancel: &CancelToken,
    ) -> Result<Vec<ClauseId>, BudgetReason> {
        const SCANNED: &str = "the shared pass scanned every FS1-mode query";
        const SWEPT: &str = "the shared pass swept every FS2-mode query";
        Ok(match self.mode {
            SearchMode::SoftwareOnly => {
                software_phase(pred, self.query, opts, self.disk_resident, stats, cancel)?
            }
            SearchMode::Fs1Only => {
                let addrs = fs1_phase(self.fs1.expect(SCANNED), opts, stats);
                fetch_candidate_tracks(pred, &addrs, opts, stats);
                stats.after_fs1 = Some(addrs.len());
                addrs_to_ids(pred, &addrs)
            }
            SearchMode::Fs2Only => {
                let satisfiers = fs2_phase(pred, self.sweep.expect(SWEPT), opts, stats);
                stats.after_fs2 = Some(satisfiers.len());
                addrs_to_ids(pred, &satisfiers)
            }
            SearchMode::TwoStage => {
                let fs1_addrs = fs1_phase(self.fs1.expect(SCANNED), opts, stats);
                stats.after_fs1 = Some(fs1_addrs.len());
                let fs2_addrs = fs2_phase(pred, self.sweep.expect(SWEPT), opts, stats);
                // Intersect: only clauses selected by both stages go on.
                let joint = intersect_ascending(&fs1_addrs, &fs2_addrs);
                // FS1 candidates the FS2 verdicts rejected: the numerator of
                // the FS1 false-drop rate (`fs1.false_drops / fs1.candidates_out`).
                clare_trace::metrics()
                    .fs1_false_drops
                    .add((fs1_addrs.len() - joint.len()) as u64);
                stats.after_fs2 = Some(joint.len());
                addrs_to_ids(pred, &joint)
            }
        })
    }
}

// Every address list below ascends: FS1 outcomes do (see
// `clare_scw::ScanOutcome::matches`), FS2 sweeps visit tracks in ascending
// order and report hits in slot order, and an intersection of ascending
// lists ascends. Clause order is address order, so ids ascend too.

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

/// Mode (a): stream everything (if disk resident) and filter on the host.
fn software_phase(
    pred: &Predicate,
    query: &Term,
    opts: &CrsOptions,
    disk_resident: bool,
    stats: &mut RetrievalStats,
    cancel: &CancelToken,
) -> Result<Vec<ClauseId>, BudgetReason> {
    if disk_resident {
        stats.disk_time = pred.file().scan_time(&opts.disk);
        stats.bytes_from_disk = pred.file().occupied_bytes() as u64;
    }
    let mut out = Vec::new();
    for (i, clause) in pred.clauses().iter().enumerate() {
        if i % 64 == 0 {
            cancel.checkpoint()?;
        }
        let report = partial_match(query, clause.head(), PartialConfig::fs2());
        stats.software_filter_time += opts.cost.partial_match_cost(report.ops.len().max(1));
        if report.matched {
            out.push(ClauseId::new(i as u32));
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

/// One track's FS2 outcome: total modelled matching time plus the slots
/// of the clauses that satisfied the partial test. A `degraded` track was
/// quarantined — its FS2 pass was skipped and every clause passes.
struct TrackMatches {
    fs2_time: SimNanos,
    hits: Vec<u16>,
    degraded: bool,
}

/// Quarantines track `t`: the hardware filter is skipped and every clause
/// on the track becomes a hit, so the filter's completeness contract (no
/// false negatives) holds even over data it could not trust. Downstream
/// full unification weeds the extra false drops; the answer set is exactly
/// the fault-free one. No FS2 time is charged — the hardware did not run.
fn quarantine_track(pred: &Predicate, t: usize) -> TrackMatches {
    let slots = pred.file().tracks().get(t).map_or(0, Track::record_count);
    let m = clare_trace::metrics();
    m.fs2_quarantined_tracks.inc();
    m.disk_track_crc_failures.inc();
    TrackMatches {
        fs2_time: SimNanos::ZERO,
        hits: (0..slots as u16).collect(),
        degraded: true,
    }
}

/// What a sweep adds to the `fs2.*` registry counters, kept in locals and
/// published once per sweep: eleven atomic adds per track are not noise
/// when a track costs well under a microsecond.
#[derive(Default)]
struct SweepCounts {
    tracks: u64,
    clauses: u64,
    satisfiers: u64,
    ops: [u64; 7],
}

impl SweepCounts {
    fn publish(&self) {
        let m = clare_trace::metrics();
        m.fs2_tracks.add(self.tracks);
        m.fs2_clauses.add(self.clauses);
        m.fs2_satisfiers.add(self.satisfiers);
        for (counter, n) in m.fs2_ops.iter().zip(self.ops) {
            counter.add(n);
        }
    }
}

/// Streams one track's clauses through the engine. With `predecoded` the
/// track goes to [`Fs2Engine::match_track`] as one call over the
/// predicate's [`ClauseArena`] (head streams decoded once at build/load
/// time), walking only the clauses `selection` lists on it — the sweep's
/// first-word posting lists; otherwise each record is re-parsed from its
/// on-disk bytes and matched on its own — the reference path the arena is
/// property-tested against.
///
/// [`ClauseArena`]: clare_kb::ClauseArena
// Kept out of line: folded into the large pipeline body, the per-record
// loop below measures ~4 % slower (E15, `clare-tables fs2bench`).
#[inline(never)]
fn match_track(
    pred: &Predicate,
    engine: &mut Fs2Engine,
    selection: &mut Selection<'_>,
    t: usize,
    predecoded: bool,
    counts: &mut SweepCounts,
) -> TrackMatches {
    // Integrity gate *before* the arena-vs-byte choice, so both paths make
    // the same quarantine decision and stay byte-identical downstream. The
    // CRC verdict is memoized per track inside the stored file, so the
    // fault-free fast path pays the checksum exactly once per track.
    let Some(read) = pred.file().read_track(t) else {
        return quarantine_track(pred, t);
    };
    if !read.intact() {
        return quarantine_track(pred, t);
    }
    let (clauses, verdict) = if predecoded {
        let arena = pred.arena();
        let range = arena.track_clauses(t);
        let verdict = engine.match_track(range.clone(), selection, |c| arena.stream(c));
        (range.len(), verdict)
    } else {
        let records = read.track().records();
        let mut verdict = TrackVerdict::default();
        for (slot, record_bytes) in records.iter().enumerate() {
            // A record that fails to parse despite a good CRC means the
            // stored bytes themselves are bad: quarantine the whole track
            // rather than trust a partial sweep (or panic, as this path
            // once did).
            let Ok((record, _)) = ClauseRecord::from_bytes(record_bytes) else {
                return quarantine_track(pred, t);
            };
            let clause = engine.match_clause_words(record.head_stream().words());
            verdict.add_clause(slot as u16, clause);
        }
        (records.len(), verdict)
    };
    counts.tracks += 1;
    counts.clauses += clauses as u64;
    counts.satisfiers += verdict.hits.len() as u64;
    for (total, n) in counts.ops.iter_mut().zip(verdict.op_histogram) {
        *total += n;
    }
    TrackMatches {
        fs2_time: verdict.time,
        hits: verdict.hits,
        degraded: false,
    }
}

/// FS2 phase accounting over a finished sweep: each track streams from
/// disk into the Double Buffer while the previous track's clauses are
/// matched, so the per-track elapsed time is `max(transfer, matching)` —
/// the single hardware pipeline of the paper, whatever order the host ran
/// the request's sweeps in.
fn fs2_phase(
    pred: &Predicate,
    sweep: Fs2Sweep,
    opts: &CrsOptions,
    stats: &mut RetrievalStats,
) -> Vec<ClauseAddr> {
    let seek = opts.disk.avg_seek() + opts.disk.avg_rotational_latency();
    let transfer = opts.disk.track_transfer_time();
    let track_bytes = pred.file().track_bytes() as u64;
    let mut satisfiers = Vec::new();
    let mut prev: Option<usize> = None;
    for (&t, tm) in sweep.tracks.iter().zip(&sweep.matches) {
        for &slot in &tm.hits {
            satisfiers.push(ClauseAddr::new(t as u32, slot));
        }
        if tm.hits.len() > clare_fs2::result::SATISFIER_SLOTS {
            stats.result_memory_overflows += 1;
        }
        if tm.degraded {
            stats.quarantined_tracks += 1;
            stats.degraded = true;
        }
        // Adjacent tracks continue the sweep for free; the first track and
        // any gap cost a fresh positioning (seek + rotational latency).
        let contiguous = prev.is_some_and(|p| t == p + 1);
        let positioning = if contiguous { SimNanos::ZERO } else { seek };
        stats.fs2_time += tm.fs2_time;
        stats.disk_time += positioning + transfer;
        stats.bytes_from_disk += track_bytes;
        // Double buffering overlaps matching with the next transfer.
        stats.elapsed += positioning + transfer.max(tm.fs2_time);
        prev = Some(t);
    }
    satisfiers
}

/// The mode-selection heuristic the paper sketches: "depending on the
/// nature of a query (e.g. whether it contains cross bound variables) and
/// the knowledge base (e.g. whether it is rule or fact intensive)".
pub fn choose_mode(kb: &KnowledgeBase, query: &Term) -> SearchMode {
    let Some((functor, arity)) = query.functor_arity() else {
        return SearchMode::SoftwareOnly;
    };
    let Some((module, pred)) = kb.module_of(functor, arity) else {
        return SearchMode::SoftwareOnly;
    };
    // Memory-resident modules are searched by the host directly.
    if module.kind() == ModuleKind::Small {
        return SearchMode::SoftwareOnly;
    }
    let descriptor = encode_query_descriptor(query, pred.index().config());
    let shared_vars = clare_term::visit::has_repeated_vars(query);
    if descriptor.is_unconstrained() {
        // FS1 would retrieve the whole predicate (the married_couple
        // case); go straight to FS2, which shared variables need anyway.
        return SearchMode::Fs2Only;
    }
    if pred.rule_fraction() > 0.5 {
        // Rule-intensive predicate: heads are mostly non-ground, so their
        // index masks make FS1 unselective — the paper's "rule or fact
        // intensive" criterion.
        return SearchMode::Fs2Only;
    }
    if query.is_ground() && pred.rule_fraction() < 0.2 && !shared_vars {
        // Ground queries against fact-intensive predicates: FS1's deep
        // keys are already highly selective.
        return SearchMode::Fs1Only;
    }
    SearchMode::TwoStage
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_kb::{KbBuilder, KbConfig};
    use clare_term::parser::parse_term;

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
    fn all_modes_agree_on_answer_set() {
        let (kb, queries) = build(
            &big_facts(500),
            &["fact(k42, X)", "fact(K, v3)", "fact(S, S)", "fact(k1, v1)"],
        );
        let opts = CrsOptions::default();
        for q in &queries {
            let unified: Vec<usize> = SearchMode::ALL
                .iter()
                .map(|m| retrieve(&kb, q, *m, &opts).stats.unified)
                .collect();
            assert!(
                unified.windows(2).all(|w| w[0] == w[1]),
                "modes disagree for query: {unified:?}"
            );
        }
    }

    #[test]
    fn candidates_superset_of_answers_and_ordered() {
        let (kb, queries) = build(&big_facts(300), &["fact(k7, X)"]);
        let opts = CrsOptions::default();
        for mode in SearchMode::ALL {
            let r = retrieve(&kb, &queries[0], mode, &opts);
            assert!(r.stats.candidates >= r.stats.unified);
            assert_eq!(r.stats.false_drops, r.stats.candidates - r.stats.unified);
            assert!(
                r.candidates.windows(2).all(|w| w[0] < w[1]),
                "clause order preserved"
            );
        }
    }

    #[test]
    fn two_stage_never_more_candidates_than_single_stages() {
        let (kb, queries) = build(&big_facts(400), &["fact(k9, X)", "fact(K, v2)"]);
        let opts = CrsOptions::default();
        for q in &queries {
            let fs1 = retrieve(&kb, q, SearchMode::Fs1Only, &opts);
            let fs2 = retrieve(&kb, q, SearchMode::Fs2Only, &opts);
            let two = retrieve(&kb, q, SearchMode::TwoStage, &opts);
            assert!(two.stats.candidates <= fs1.stats.candidates);
            assert!(two.stats.candidates <= fs2.stats.candidates);
        }
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

    #[test]
    fn missing_predicate_is_empty() {
        let (kb, queries) = build("p(a).", &["q(a)"]);
        let r = retrieve(
            &kb,
            &queries[0],
            SearchMode::TwoStage,
            &CrsOptions::default(),
        );
        assert!(r.candidates.is_empty());
        assert_eq!(r.stats.unified, 0);
    }

    #[test]
    fn unencodable_query_falls_back_to_software() {
        let (kb, queries) = build("p(1).", &["p(999999999999)"]);
        let r = retrieve(
            &kb,
            &queries[0],
            SearchMode::Fs2Only,
            &CrsOptions::default(),
        );
        assert_eq!(r.stats.mode, SearchMode::SoftwareOnly);
        assert_eq!(r.stats.unified, 0);
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
    fn rules_are_retrieved_too() {
        let (kb, queries) = build(
            "anc(X, Y) :- parent(X, Y).
             anc(X, Z) :- parent(X, Y), anc(Y, Z).
             parent(a, b).",
            &["anc(a, Q)"],
        );
        let r = retrieve(
            &kb,
            &queries[0],
            SearchMode::TwoStage,
            &CrsOptions::default(),
        );
        assert_eq!(r.stats.unified, 2, "both rule heads unify");
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
            let matches = tracks
                .iter()
                .map(|_| TrackMatches {
                    fs2_time: SimNanos::ZERO,
                    hits: Vec::new(),
                    degraded: false,
                })
                .collect();
            let sweep = Fs2Sweep {
                tracks: tracks.to_vec(),
                matches,
            };
            let mut stats = RetrievalStats::empty(SearchMode::Fs2Only);
            fs2_phase(pred, sweep, &opts, &mut stats);
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

    #[test]
    fn predecoded_and_byte_decoded_paths_agree() {
        let (kb, queries) = build(&big_facts(1500), &["fact(k3, X)", "fact(S, S)"]);
        let bytes = CrsOptions {
            fs2: Fs2Config::paper().with_predecoded(false),
            ..CrsOptions::default()
        };
        let opts = CrsOptions::default();
        assert!(opts.fs2.predecoded(), "arena path is the default");
        for q in &queries {
            for mode in [SearchMode::Fs2Only, SearchMode::TwoStage] {
                assert_eq!(
                    retrieve(&kb, q, mode, &opts),
                    retrieve(&kb, q, mode, &bytes),
                    "mode = {mode}"
                );
            }
        }
    }

    #[test]
    fn batch_fs2_matches_individual_retrievals() {
        let (kb, queries) = build(
            &big_facts(2000),
            &[
                "fact(k11, X)",
                "fact(K, v5)",
                "fact(k11, v1)",
                "unknown(x)",
                "fact(S, S)",
            ],
        );
        let opts = CrsOptions::default();
        let refs: Vec<&Term> = queries.iter().collect();
        for mode in [SearchMode::Fs2Only, SearchMode::TwoStage] {
            let batch =
                retrieve_batch(&kb, None, &refs, mode, &opts, &CancelToken::unlimited()).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (q, got) in queries.iter().zip(&batch) {
                assert_eq!(got, &retrieve(&kb, q, mode, &opts), "mode = {mode}");
            }
        }
    }
}
