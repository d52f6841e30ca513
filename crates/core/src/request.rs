//! The request context: what one request carries through the engine
//! besides its inputs, and the one way an engine call reaches the metric
//! registry and the clock.
//!
//! A [`RequestContext`] is minted once per request — by the serving layer
//! per job, by an in-process caller per call — and lent to every layer the
//! request runs through: the server's cache front, the retrieval pipeline
//! and the resolver. The wall histograms sample from its stage-boundary
//! clock reads.

use crate::budget::CancelToken;
use clare_disk::SimNanos;
use clare_scw::ScanOutcome;
use clare_term::Symbol;
use clare_trace::{Counter, Histogram, Metrics, FS2_OPS};
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
/// the pipeline computes anyway and what the request's engine calls
/// published to the registry.
///
/// The clock is read once per stage boundary: each read closes the
/// stretch since the previous one and charges it to the stage that just
/// ended, so the stages of one engine call sum to the time from its entry
/// to its last boundary. Boundaries sit between stages, never per track
/// or per clause.
#[derive(Debug, Clone, Default)]
pub struct StageRecord {
    ns: [u64; 7],
    retrievals: u64,
    clock_reads: u64,
    counts: RequestCounts,
}

impl StageRecord {
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

    /// Clock reads the request's engine calls took: one per engine entry
    /// and one per stage boundary.
    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }

    /// What the request's engine calls published to the registry.
    pub fn counts(&self) -> &RequestCounts {
        &self.counts
    }
}

/// Declares [`RequestCounts`], one field per registry counter an engine
/// call moves, named as the [`Metrics`] field it publishes to.
macro_rules! request_counts {
    ($( $field:ident ),*) => {
        /// What one request's engine work adds to the registry's counters,
        /// counted in its context and published once per engine call: a
        /// scan or a sweep costs microseconds, and a dozen atomic adds on
        /// each are not noise.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct RequestCounts {
            $(
                #[doc = concat!("Added to [`Metrics::", stringify!($field), "`].")]
                pub $field: u64,
            )*
            /// Added to [`Metrics::fs2_ops`], by hardware operation.
            pub fs2_ops: [u64; FS2_OPS],
        }

        impl RequestCounts {
            /// Adds every count to `m`'s counter of the same name; a zero
            /// costs no atomic add. An engine call's context does this once,
            /// when the call returns.
            pub fn publish(&self, m: &Metrics) {
                let add = |counter: &Counter, n| if n > 0 { counter.add(n) };
                $( add(&m.$field, self.$field); )*
                for (counter, &n) in m.fs2_ops.iter().zip(&self.fs2_ops) {
                    add(counter, n);
                }
            }

            /// Adds `other`'s counts to these.
            fn absorb(&mut self, other: &RequestCounts) {
                $( self.$field += other.$field; )*
                for (total, n) in self.fs2_ops.iter_mut().zip(other.fs2_ops) {
                    *total += n;
                }
            }
        }
    };
}

request_counts! {
    fs1_scans, fs1_batch_scans, fs1_entries_scanned, fs1_candidates_out, fs1_false_drops,
    fs2_queries_loaded, fs2_sweeps, fs2_tracks, fs2_clauses, fs2_satisfiers,
    fs2_quarantined_tracks, disk_track_crc_failures,
    crs_query_compiles, crs_degraded_answers, solve_repeat_retrievals, solve_depth_cap_hits
}

/// One request's passage through the engine: its budget token, its stage
/// record, its counts, and the per-request state the engine
/// reuses across the request's retrievals. Lend the same context to one
/// engine call at a time; the record carries over between calls.
#[derive(Debug, Default)]
pub struct RequestContext {
    pub(crate) cancel: CancelToken,
    /// Whether the caller asked for the record: only then does every stage
    /// boundary read the clock. The record is kept either way.
    recording: bool,
    pub(crate) record: StageRecord,
    pub(crate) counts: RequestCounts,
    /// A served request's entry, while its engine call runs.
    entry: Option<Instant>,
    /// The last stage boundary, while the clock read it: a boundary an
    /// unrecorded context passes without reading clears it.
    mark: Option<Instant>,
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
            recording: true,
            ..RequestContext::new(cancel)
        }
    }

    /// The stage record, when the request asked for one.
    pub fn stage_record(&self) -> Option<&StageRecord> {
        self.recording.then_some(&self.record)
    }

    fn read_clock(&mut self) -> Instant {
        self.record.clock_reads += 1;
        Instant::now()
    }

    /// An engine call starts: its first stage runs from here. Only a
    /// recording context reads the clock, and not inside [`Self::serve`],
    /// whose entry read already started the call.
    pub(crate) fn begin(&mut self) {
        if self.entry.is_none() {
            self.mark = self.recording.then(|| self.read_clock());
        }
    }

    /// A stage boundary: the stretch since the last one was `stage`. Only
    /// a recording context reads the clock here.
    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage) {
        if self.recording {
            self.read_lap(stage);
        } else {
            self.mark = None;
        }
    }

    /// Reads the clock at a stage boundary: the stretch since the last
    /// one, in ns, charged to `stage` in the record.
    fn read_lap(&mut self, stage: Stage) -> u64 {
        let now = self.read_clock();
        let ns = self.mark.map_or(0, |mark| nanos(mark, now));
        self.mark = Some(now);
        self.record.ns[stage as usize] += ns;
        ns
    }

    /// A run of hardware passes starts: the first pass's wall sample runs
    /// from the last boundary, or from here when the clock did not read it.
    pub(crate) fn open_passes(&mut self) {
        self.mark = self.mark.or_else(|| Some(self.read_clock()));
    }

    /// The boundary after a shared FS1 index pass: counts the pass's
    /// `outcomes` and samples `fs1.scan_wall_ns`.
    pub(crate) fn scanned(&mut self, outcomes: &[ScanOutcome]) {
        let counts = &mut self.counts;
        counts.fs1_scans += outcomes.len() as u64;
        counts.fs1_batch_scans += u64::from(outcomes.len() > 1);
        for outcome in outcomes {
            counts.fs1_entries_scanned += outcome.entries_scanned as u64;
            counts.fs1_candidates_out += outcome.matches.len() as u64;
        }
        let ns = self.read_lap(Stage::Fs1Scan);
        clare_trace::metrics().fs1_scan_wall_ns.record(ns);
    }

    /// The boundary after one FS2 sweep whose Table 1 time was
    /// `modelled`: counts the sweep and samples `fs2.modelled_ns` and
    /// `fs2.wall_ns`.
    pub(crate) fn swept(&mut self, modelled: SimNanos) {
        self.counts.fs2_sweeps += 1;
        let ns = self.read_lap(Stage::Fs2Sweep);
        let m = clare_trace::metrics();
        m.fs2_modelled_ns.record(modelled.as_ns());
        m.fs2_wall_ns.record(ns);
    }

    /// `n` logical retrievals finished.
    #[inline]
    pub(crate) fn note_retrievals(&mut self, n: usize) {
        self.record.retrievals += n as u64;
    }

    /// An engine call returns: publishes its counts, and keeps them in the
    /// record.
    pub(crate) fn end(&mut self) {
        let counts = std::mem::take(&mut self.counts);
        counts.publish(clare_trace::metrics());
        self.record.counts.absorb(&counts);
    }

    /// Runs a served request's engine `call` and, when it succeeds,
    /// samples its `wall` time: from the entry, which the clock reads
    /// here recorded or not, to the call's last boundary, which the clock
    /// reads on return if it did not then.
    pub(crate) fn serve<T, E>(
        &mut self,
        wall: fn(&Metrics) -> &Histogram,
        call: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        let entry = self.read_clock();
        (self.entry, self.mark) = (Some(entry), Some(entry));
        let outcome = call(self);
        self.entry = None;
        if outcome.is_ok() {
            let last = self.mark.unwrap_or_else(|| self.read_clock());
            wall(clare_trace::metrics()).record(nanos(entry, last));
        }
        outcome
    }
}

/// Nanoseconds from `from` to `to`.
fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}
