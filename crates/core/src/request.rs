//! The request context: what one request carries through the engine
//! besides its inputs.
//!
//! A [`RequestContext`] is minted once per request — by the serving layer
//! per job, by an in-process caller per call — and lent to every layer the
//! request runs through: the server's cache front, the retrieval pipeline
//! and the resolver. It holds
//!
//! * the request's [`CancelToken`];
//! * its [`StageRecord`], when the caller asks for one
//!   ([`RequestContext::recording`]);
//! * the `fs2.*` walk counters its FS2 sweeps and software-mode walks
//!   accumulate, published to the registry once, when the engine call
//!   that took the context returns;
//! * scratch the engine reuses across the request's retrievals: the
//!   pipeline's grouping buffers and the binding store the counting
//!   unification undoes after every candidate.
//!
//! A context that asks for nothing costs what the bare unlimited token
//! cost: one branch per checkpoint, and one per stage boundary.

use crate::budget::CancelToken;
use clare_term::Symbol;
use clare_unify::BindingStore;
use std::time::Instant;

/// The engine stages a [`StageRecord`] times. Every stretch of an engine
/// call between its entry and its last stage boundary is charged to
/// exactly one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Query compile: the server cache front's encode and lookup,
    /// `QueryPlan` compiles, FS2 engine loads and the grouping of a
    /// request's queries by predicate.
    Plan,
    /// The shared FS1 index passes.
    Fs1Scan,
    /// The FS2 track sweeps.
    Fs2Sweep,
    /// Per-query phase accounting, software mode's host walk and the
    /// overlay merge.
    Filter,
    /// Full unification of the candidates: the candidate charge and the
    /// counting unification.
    Unify,
    /// A solve's memo of filter outputs: hashing, lookup and insert.
    Memo,
    /// The resolver's own work: instantiating each goal, renaming clauses
    /// apart, unifying heads to descend and recording solutions.
    Resolver,
}

/// Where one request's host time went, stage by stage, with the counts
/// the pipeline computes anyway.
///
/// The clock is read once per stage boundary: each read closes the
/// stretch since the previous one and charges it to the stage that just
/// ended, so the stages of one engine call sum to the time from its entry
/// to its last boundary. Boundaries sit between stages, never per track
/// or per clause.
#[derive(Debug, Clone)]
pub struct StageRecord {
    ns: [u64; 7],
    retrievals: u64,
    filter_runs: u64,
    clock_reads: u64,
    mark: Instant,
}

impl StageRecord {
    fn new() -> Self {
        StageRecord {
            ns: [0; 7],
            retrievals: 0,
            filter_runs: 0,
            clock_reads: 0,
            mark: Instant::now(),
        }
    }

    /// Nanoseconds charged to `stage`.
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Nanoseconds charged to every stage together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Logical retrievals: every query of a batch, and every goal a solve
    /// expands, a repeat served from the solve's memo included.
    pub fn retrievals(&self) -> u64 {
        self.retrievals
    }

    /// Filter runs: the retrievals that ran the filter pipeline, so a
    /// solve's memo hits are not among them.
    pub fn filter_runs(&self) -> u64 {
        self.filter_runs
    }

    /// Clock reads taken: one per engine entry and one per stage
    /// boundary.
    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }

    fn read_clock(&mut self) -> Instant {
        self.clock_reads += 1;
        Instant::now()
    }

    fn lap(&mut self, stage: Stage) {
        let now = self.read_clock();
        self.ns[stage as usize] += now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
    }
}

/// What one request's FS2 walks add to the `fs2.*` registry counters,
/// kept here and published once per engine call: eleven atomic adds per
/// sweep are not noise when a sweep costs a microsecond. Software mode's
/// host walk adds clauses, satisfiers and ops; tracks and sweeps are the
/// track sweep's alone.
#[derive(Debug, Default)]
pub(crate) struct Fs2Counts {
    pub(crate) sweeps: u64,
    pub(crate) tracks: u64,
    pub(crate) clauses: u64,
    pub(crate) satisfiers: u64,
    pub(crate) ops: [u64; 7],
}

impl Fs2Counts {
    /// Adds the counts to the registry and starts again from zero.
    fn publish(&mut self) {
        let counts = std::mem::take(self);
        if counts.clauses == 0 && counts.sweeps == 0 {
            return;
        }
        let m = clare_trace::metrics();
        m.fs2_sweeps.add(counts.sweeps);
        m.fs2_tracks.add(counts.tracks);
        m.fs2_clauses.add(counts.clauses);
        m.fs2_satisfiers.add(counts.satisfiers);
        for (counter, n) in m.fs2_ops.iter().zip(counts.ops) {
            counter.add(n);
        }
    }
}

/// One request's passage through the engine: its budget token, its stage
/// record when asked for, and the per-request state the engine reuses
/// across the request's retrievals. Lend the same context to one engine
/// call at a time; the record and the counts carry over between calls.
#[derive(Debug, Default)]
pub struct RequestContext {
    pub(crate) cancel: CancelToken,
    record: Option<StageRecord>,
    pub(crate) fs2: Fs2Counts,
    /// The counting unification's binding store, undone after every
    /// candidate.
    pub(crate) scratch: BindingStore,
    /// The pipeline's hardware queries as (predicate, query index), and
    /// one group's FS1 misses: emptied by each pipeline run, their room
    /// kept for the next.
    pub(crate) groups: Vec<(Option<(Symbol, usize)>, usize)>,
    pub(crate) fs1_misses: Vec<usize>,
}

impl RequestContext {
    /// A context for a request bounded by `cancel`, with no stage record.
    pub fn new(cancel: CancelToken) -> Self {
        RequestContext {
            cancel,
            ..RequestContext::default()
        }
    }

    /// The context of an unbudgeted request that asks for nothing.
    pub fn unlimited() -> Self {
        RequestContext::default()
    }

    /// A context for a request bounded by `cancel` that asks for its
    /// [`StageRecord`].
    pub fn recording(cancel: CancelToken) -> Self {
        RequestContext {
            record: Some(StageRecord::new()),
            ..RequestContext::new(cancel)
        }
    }

    /// The stage record, when the request asked for one.
    pub fn stage_record(&self) -> Option<&StageRecord> {
        self.record.as_ref()
    }

    /// An engine call starts: the record's next stage runs from here.
    pub(crate) fn begin(&mut self) {
        if let Some(record) = &mut self.record {
            record.mark = record.read_clock();
        }
    }

    /// A stage boundary: the stretch since the last one was `stage`.
    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some(record) = &mut self.record {
            record.lap(stage);
        }
    }

    /// One logical retrieval finished.
    #[inline]
    pub(crate) fn note_retrieval(&mut self) {
        if let Some(record) = &mut self.record {
            record.retrievals += 1;
        }
    }

    /// The filter pipeline ran for `n` queries.
    #[inline]
    pub(crate) fn note_filter_runs(&mut self, n: usize) {
        if let Some(record) = &mut self.record {
            record.filter_runs += n as u64;
        }
    }

    /// An engine call returns: publishes what its walks counted.
    pub(crate) fn end(&mut self) {
        self.fs2.publish();
    }
}
