//! The four workloads: their inputs, oracles, set-up, and closed-loop
//! callers. `run.rs` drives them.
//!
//! Every workload is a **closed loop** — CLARE's callers are Prolog
//! engines that each wait for a reply — with a stated caller count that
//! never exceeds the two cores of the reference host. One run is:
//! set-up (several times over; the median is `setup_s`) → a fixed-count
//! **count pass** by one caller on the fresh system (every number it
//! yields repeats exactly for a seed) → warm-up (untimed) → three
//! back-to-back timed windows with tracing off. A traced run replaces
//! the windows with one untraced window (the overhead baseline) and two
//! traced ones in which every k-th op is followed by a stage replay.

use crate::gen::{self, KbSource, Query, Rng, TableShape, Zipf};
use crate::layers::{
    self, Client, Cluster, Commit, Engine, Goal, Node, ReplySums, Retrieval, ScratchLog, Symbols,
    Term,
};
use crate::oracle::{self, Descent, Expectation, Oracle, ReplyView, Tally, ID_SAMPLE};
use crate::spans::Tracer;
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Names are fixed: later issues cite them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "inproc_select_100k",
        "The paper's case: selective two-stage retrievals over 4 x 100 000 facts, in process, one \
         caller, working set far beyond the cache. FS1 + FS2 + unify do the work; net, cluster and \
         wal do none.",
    ),
    (
        "served_zipf_1k",
        "Warren-shaped 256 x 1 000 facts behind a loopback NetServer, two client connections, \
         Zipf(1.0) over 8 192 queries. Wire, intake, queue and cache dominate; filter work is \
         small.",
    ),
    (
        "routed_mixed_10k",
        "Router over two WAL-backed shards of 32 x 10 000 facts, two callers, 90 % cold reads and \
         10 % durable commits; overlay auto-compaction at 1 024 ops (the one non-default knob) so \
         compaction cycles land inside a run.",
    ),
    (
        "solve_genealogy",
        "All solutions of ancestor(p, X) over a six-generation genealogy, in process, one caller: \
         the resolver, binding store and ~45 small retrievals per solve.",
    ),
];

/// How one run is to go.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    /// Total measured time; split into [`WINDOWS`] windows.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// A directory of the benchmark's own for WAL files; removed by the
    /// caller's guard.
    pub scratch: PathBuf,
}

pub const WINDOWS: usize = 3;

impl RunSpec {
    pub(crate) fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    pub(crate) fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.quick { 0.3 } else { 2.0 })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Retrieve,
    Commit,
    Solve,
}

impl Kind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Retrieve => "retrieve",
            Kind::Commit => "commit",
            Kind::Solve => "solve",
        }
    }
}

/// One completed op of the closed loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpRecord {
    pub(crate) kind: Kind,
    /// For `routed_mixed_10k` reads: whether the predicate is one this
    /// caller mutates.
    pub(crate) mutated: bool,
    pub(crate) lat_ns: u64,
    pub(crate) ok: bool,
}

/// What a count pass accumulates beside the registry deltas.
#[derive(Debug, Default, Clone)]
pub(crate) struct CountSums {
    pub(crate) replies: ReplySums,
    pub(crate) solves: u64,
    pub(crate) solve_retrievals: u64,
    pub(crate) solve_solutions: u64,
    pub(crate) solve_candidates: u64,
    pub(crate) solve_unified: u64,
    pub(crate) solve_modeled_ns: u64,
    pub(crate) commits: u64,
    pub(crate) commit_user_bytes: u64,
    pub(crate) per_shard: Vec<u64>,
}

/// The bookkeeping every caller carries.
#[derive(Debug)]
pub(crate) struct Book {
    ops: u64,
    trace_every: u64,
    pub(crate) tally: Tally,
    pub(crate) sums: CountSums,
}

impl Book {
    fn new(trace_every: u64) -> Book {
        Book {
            ops: 0,
            trace_every,
            tally: Tally::default(),
            sums: CountSums::default(),
        }
    }

    /// Counts the op about to run; hands the tracer on for every k-th
    /// only, so only those are replayed.
    fn next_op<'t>(&mut self, tracer: Option<&'t mut Tracer>) -> Option<&'t mut Tracer> {
        self.ops += 1;
        tracer.filter(|_| self.ops.is_multiple_of(self.trace_every))
    }
}

/// One closed-loop caller: executes its next op, verifies the reply, and
/// (traced run) replays it stage by stage after the timed call.
pub(crate) trait Caller: Send {
    fn step(&mut self, tracer: Option<&mut Tracer>) -> OpRecord;
    fn book(&mut self) -> &mut Book;
}

fn check(expect: &Expectation, reply: &Result<Retrieval, String>) -> Result<(), String> {
    oracle::check_retrieval(
        expect,
        reply
            .as_ref()
            .map(|r| ReplyView {
                unified: layers::unified(r),
                degraded: layers::degraded(r),
                candidates: if expect.ids.is_some() {
                    layers::candidate_ids(r)
                } else {
                    Vec::new()
                },
            })
            .map_err(String::as_str),
    )
}

/// Whether a timed retrieval was served from the cache, filed as the work
/// count of its `e2e` span.
pub(crate) const RAN_FILTERS: u64 = 0;
pub(crate) const CACHE_HIT: u64 = 1;
/// Another caller's lookups landed inside the same interval.
pub(crate) const AMBIGUOUS: u64 = 2;

/// Times one retrieval call: `(reply, latency in ns, cache verdict)`. The
/// verdict is read off the registry's `cache.hits` / `cache.misses` either
/// side of the call.
fn timed_retrieval<T>(call: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = layers::cache_counters();
    let started = Instant::now();
    let reply = call();
    let lat_ns = started.elapsed().as_nanos() as u64;
    let after = layers::cache_counters();
    let verdict = match (after.0 - before.0, after.1 - before.1) {
        (hits, 0) if hits > 0 => CACHE_HIT,
        (0, misses) if misses > 0 => RAN_FILTERS,
        _ => AMBIGUOUS,
    };
    (reply, lat_ns, verdict)
}

/// The read side shared by the three retrieval workloads.
struct Pool {
    queries: Vec<Query>,
    terms: Vec<Term>,
    expect: Arc<Vec<Expectation>>,
}

/// What the oracle expects of every pool query over a static KB, and how
/// long working that out took (`oracle_s`, outside `setup_s`).
fn static_expectations(kb: &KbSource, queries: &[Query]) -> (Arc<Vec<Expectation>>, f64) {
    let (expect, oracle_s) = timed(|| {
        let mut oracle = Oracle::new();
        for (_, source) in &kb.modules {
            oracle.assert(source);
        }
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| Expectation::of(&mut oracle, &q.text, i % ID_SAMPLE == 0))
            .collect()
    });
    (Arc::new(expect), oracle_s)
}

fn texts(queries: &[Query]) -> Vec<&str> {
    queries.iter().map(|q| q.text.as_str()).collect()
}

// ---------------------------------------------------------------------------
// What a workload provides
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SetupTimes {
    pub(crate) generate_s: f64,
    pub(crate) consult_s: f64,
    pub(crate) build_s: f64,
    pub(crate) start_s: f64,
}

impl SetupTimes {
    pub(crate) fn total(&self) -> f64 {
        self.generate_s + self.consult_s + self.build_s + self.start_s
    }
}

/// A set-up system: its callers and what the set-up measured.
pub(crate) struct Live {
    pub(crate) callers: Vec<Box<dyn Caller>>,
    /// Dropped (servers shut down) after the callers.
    pub(crate) nodes: Vec<Node>,
    pub(crate) times: SetupTimes,
    pub(crate) clauses: usize,
    pub(crate) kb_bytes: usize,
    /// `(save_s, load_s, file_bytes)`, traced runs only.
    pub(crate) io: Option<(f64, f64, usize)>,
}

/// The fixed numbers of a workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Profile {
    /// Ops in the count pass; fixed per workload so it is always reached.
    pub(crate) count_ops: usize,
    /// The op kind `op_*` and `trace.overhead_share` refer to.
    pub(crate) primary: Kind,
    pub(crate) oracle_s: f64,
}

pub(crate) trait Workload {
    /// Generate + consult + build + start + connect, from the seed.
    fn setup(&self, trace: bool, scratch: &Path) -> Live;
    fn profile(&self) -> Profile;
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// What the three retrieval workloads keep between set-ups.
struct Inputs {
    seed: u64,
    quick: bool,
    expect: Arc<Vec<Expectation>>,
    oracle_s: f64,
}

impl Inputs {
    fn new(seed: u64, quick: bool, kb: &KbSource, queries: &[Query]) -> Inputs {
        let (expect, oracle_s) = static_expectations(kb, queries);
        Inputs {
            seed,
            quick,
            expect,
            oracle_s,
        }
    }

    fn profile(&self, count_ops: usize) -> Profile {
        Profile {
            count_ops: if self.quick { count_ops / 2 } else { count_ops },
            primary: Kind::Retrieve,
            oracle_s: self.oracle_s,
        }
    }
}

// ---------------------------------------------------------------------------
// inproc_select_100k
// ---------------------------------------------------------------------------

struct InprocSelect(Inputs);

impl InprocSelect {
    /// Every how many ops a traced run replays one.
    const TRACE_EVERY: u64 = 8;

    fn new(seed: u64, quick: bool) -> Self {
        let (_, kb, queries) = gen::select_100k(seed, quick);
        InprocSelect(Inputs::new(seed, quick, &kb, &queries))
    }
}

impl Workload for InprocSelect {
    fn setup(&self, trace: bool, _scratch: &Path) -> Live {
        let Inputs { seed, quick, .. } = self.0;
        let ((_, source, queries), generate_s) = timed(|| gen::select_100k(seed, quick));
        let built = layers::build(&source, &texts(&queries));
        let size = layers::kb_size(&built.kb);
        let io = trace.then(|| layers::kb_io_roundtrip(&built.kb));
        let (engine, start_s) = timed(|| Engine::start(built.kb, None));
        Live {
            callers: vec![Box::new(SelectCaller {
                symbols: engine.symbols(),
                engine,
                pool: Arc::new(Pool {
                    queries,
                    terms: built.queries,
                    expect: self.0.expect.clone(),
                }),
                rng: Rng::new(seed, 100),
                book: Book::new(Self::TRACE_EVERY),
            })],
            nodes: Vec::new(),
            times: SetupTimes {
                generate_s,
                consult_s: built.consult_s,
                build_s: built.build_s,
                start_s,
            },
            clauses: size.clauses,
            kb_bytes: size.in_memory_bytes,
            io,
        }
    }

    fn profile(&self) -> Profile {
        self.0.profile(400)
    }
}

struct SelectCaller {
    engine: Engine,
    symbols: Symbols,
    pool: Arc<Pool>,
    rng: Rng,
    book: Book,
}

impl Caller for SelectCaller {
    fn step(&mut self, tracer: Option<&mut Tracer>) -> OpRecord {
        let tracer = self.book.next_op(tracer);
        let i = self.rng.below(self.pool.terms.len());
        let query = &self.pool.terms[i];
        let (reply, lat_ns, verdict) = timed_retrieval(|| self.engine.retrieve(query));
        self.book.sums.replies.add(&reply);
        let ok = self
            .book
            .tally
            .note(check(&self.pool.expect[i], &Ok(reply)));
        if let Some(tracer) = tracer {
            tracer.begin_op("retrieve", self.book.ops);
            tracer.record("e2e", lat_ns, verdict);
            let text = &self.pool.queries[i].text;
            layers::replay_retrieval(&self.engine, &mut self.symbols, text, query, tracer);
            tracer.end_op();
        }
        OpRecord {
            kind: Kind::Retrieve,
            mutated: false,
            lat_ns,
            ok,
        }
    }

    fn book(&mut self) -> &mut Book {
        &mut self.book
    }
}

// ---------------------------------------------------------------------------
// served_zipf_1k
// ---------------------------------------------------------------------------

struct ServedZipf(Inputs);

impl ServedZipf {
    const CALLERS: usize = 2;
    const TRACE_EVERY: u64 = 16;

    fn new(seed: u64, quick: bool) -> Self {
        let (_, kb, queries, _) = gen::zipf_1k(seed, quick);
        ServedZipf(Inputs::new(seed, quick, &kb, &queries))
    }
}

impl Workload for ServedZipf {
    fn setup(&self, trace: bool, _scratch: &Path) -> Live {
        let Inputs { seed, quick, .. } = self.0;
        let ((_, source, queries, zipf), generate_s) = timed(|| gen::zipf_1k(seed, quick));
        let built = layers::build(&source, &texts(&queries));
        let size = layers::kb_size(&built.kb);
        let io = trace.then(|| layers::kb_io_roundtrip(&built.kb));
        let ((node, clients), start_s) = timed(|| {
            let node = Node::start(built.kb, None, None);
            let clients: Vec<Client> = (0..Self::CALLERS).map(|_| node.connect()).collect();
            (node, clients)
        });
        let pool = Arc::new(Pool {
            queries,
            terms: built.queries,
            expect: self.0.expect.clone(),
        });
        let zipf = Arc::new(zipf);
        let callers = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                Box::new(ServedCaller {
                    client,
                    engine: node.engine().clone(),
                    symbols: node.engine().symbols(),
                    pool: pool.clone(),
                    zipf: zipf.clone(),
                    rng: Rng::new(seed, 100 + c as u64),
                    book: Book::new(Self::TRACE_EVERY),
                }) as Box<dyn Caller>
            })
            .collect();
        Live {
            callers,
            nodes: vec![node],
            times: SetupTimes {
                generate_s,
                consult_s: built.consult_s,
                build_s: built.build_s,
                start_s,
            },
            clauses: size.clauses,
            kb_bytes: size.in_memory_bytes,
            io,
        }
    }

    fn profile(&self) -> Profile {
        self.0.profile(4000)
    }
}

struct ServedCaller {
    client: Client,
    engine: Engine,
    symbols: Symbols,
    pool: Arc<Pool>,
    zipf: Arc<Zipf>,
    rng: Rng,
    book: Book,
}

impl Caller for ServedCaller {
    fn step(&mut self, tracer: Option<&mut Tracer>) -> OpRecord {
        let tracer = self.book.next_op(tracer);
        let i = self.zipf.sample(&mut self.rng);
        let query = &self.pool.terms[i];
        let (reply, lat_ns, verdict) = timed_retrieval(|| self.client.retrieve(query));
        if let Ok(r) = &reply {
            self.book.sums.replies.add(r);
        }
        let ok = self.book.tally.note(check(&self.pool.expect[i], &reply));
        if let (Some(tracer), Ok(reply)) = (tracer, &reply) {
            tracer.begin_op("retrieve", self.book.ops);
            tracer.record("e2e", lat_ns, verdict);
            // The same query again is a cache hit on the server, so the
            // client call, the in-process call and the codecs below are
            // all measured on the one path and can be differenced.
            tracer.span("net.direct_hit_ns", || {
                (self.client.retrieve(query).is_ok(), 0)
            });
            layers::replay_wire(query, reply, tracer);
            tracer.span("net.ping_ns", || (self.client.ping().is_ok(), 0));
            let text = &self.pool.queries[i].text;
            layers::replay_retrieval(&self.engine, &mut self.symbols, text, query, tracer);
            tracer.end_op();
        }
        OpRecord {
            kind: Kind::Retrieve,
            mutated: false,
            lat_ns,
            ok,
        }
    }

    fn book(&mut self) -> &mut Book {
        &mut self.book
    }
}

// ---------------------------------------------------------------------------
// routed_mixed_10k
// ---------------------------------------------------------------------------

struct RoutedMixed(Inputs);

impl RoutedMixed {
    const CALLERS: usize = 2;
    const SHARDS: usize = 2;
    const TRACE_EVERY: u64 = 16;
    /// At the default 8 192 a run never compacts; 1 024 gives several
    /// cycles per shard.
    const COMPACT_OPS: usize = 1024;

    fn new(seed: u64, quick: bool) -> Self {
        let (_, kb, queries) = gen::mixed_10k(seed, quick);
        RoutedMixed(Inputs::new(seed, quick, &kb, &queries))
    }
}

impl Workload for RoutedMixed {
    fn setup(&self, trace: bool, scratch: &Path) -> Live {
        let Inputs { seed, quick, .. } = self.0;
        let ((shape, source, queries), generate_s) = timed(|| gen::mixed_10k(seed, quick));
        let mut times = SetupTimes {
            generate_s,
            ..SetupTimes::default()
        };
        let mut nodes = Vec::new();
        let mut terms = Vec::new();
        let mut size = None;
        let mut io = None;
        for shard in 0..Self::SHARDS {
            // Both shards hold the full base (same fingerprint); the
            // router sends each predicate to one of them.
            let built = layers::build(&source, &texts(&queries));
            times.consult_s += built.consult_s;
            times.build_s += built.build_s;
            if shard == 0 {
                size = Some(layers::kb_size(&built.kb));
                io = trace.then(|| layers::kb_io_roundtrip(&built.kb));
            }
            terms = built.queries;
            let wal = scratch.join(format!("shard{shard}.wal"));
            let _ = std::fs::remove_file(&wal);
            let (node, start_s) =
                timed(|| Node::start(built.kb, Some(Self::COMPACT_OPS), Some(&wal)));
            times.start_s += start_s;
            nodes.push(node);
        }
        let (cluster, connect_s) = timed(|| Cluster::connect(&nodes));
        times.start_s += connect_s;
        let size = size.expect("at least one shard");

        // Ownership: each caller mutates one predicate on each shard, so
        // both shards see commits from both callers; nobody reads a
        // predicate another caller mutates (the oracle stays per-caller).
        let shard_of: Arc<Vec<usize>> = Arc::new(
            (0..shape.preds)
                .map(|p| cluster.shard_of(&shape.pred_name(p), 3))
                .collect(),
        );
        let owned: Vec<Vec<usize>> = (0..Self::CALLERS)
            .map(|c| {
                (0..Self::SHARDS)
                    .filter_map(|shard| (0..shape.preds).filter(|&p| shard_of[p] == shard).nth(c))
                    .collect()
            })
            .collect();
        let pool = Arc::new(Pool {
            queries,
            terms,
            expect: self.0.expect.clone(),
        });
        let callers = (0..Self::CALLERS)
            .map(|c| {
                let foreign = |pred: usize| {
                    owned
                        .iter()
                        .enumerate()
                        .any(|(other, preds)| other != c && preds.contains(&pred))
                };
                // The caller's own oracle: the modules its predicates live
                // in, each once (their sibling predicates ride along,
                // unqueried).
                let mut own = Oracle::new();
                let own_modules: BTreeSet<String> =
                    owned[c].iter().map(|&p| shape.module_of(p)).collect();
                for (_, text) in source
                    .modules
                    .iter()
                    .filter(|(name, _)| own_modules.contains(name))
                {
                    own.assert(text);
                }
                let replay = trace.then(|| {
                    let tiny = tiny_base(&shape);
                    Replay {
                        directs: nodes.iter().map(Node::connect).collect(),
                        symbols: nodes[0].engine().symbols(),
                        log: ScratchLog::open(&scratch.join(format!("scratch{c}.wal"))),
                        shadow: Engine::start(layers::build(&tiny, &[]).kb, Some(usize::MAX)),
                        shadow_ops: 0,
                        tiny,
                    }
                });
                Box::new(RoutedCaller {
                    caller: c,
                    cluster: cluster.clone(),
                    engines: nodes.iter().map(|n| n.engine().clone()).collect(),
                    shape,
                    shard_of: shard_of.clone(),
                    readable: (0..pool.queries.len())
                        .filter(|&i| !foreign(pool.queries[i].pred))
                        .collect(),
                    pool: pool.clone(),
                    owned: owned[c].clone(),
                    own,
                    live: VecDeque::new(),
                    commits: 0,
                    asserts: 0,
                    rng: Rng::new(seed, 100 + c as u64),
                    replay,
                    book: Book::new(Self::TRACE_EVERY),
                }) as Box<dyn Caller>
            })
            .collect();
        Live {
            callers,
            nodes,
            times,
            clauses: size.clauses,
            kb_bytes: size.in_memory_bytes,
            io,
        }
    }

    fn profile(&self) -> Profile {
        // A tenth are commits: far below the compaction threshold, so the
        // count pass never races a background rebuild.
        self.0.profile(1000)
    }
}

/// One fact per predicate: the base a shadow engine applies commits over,
/// so `wal.overlay_apply_ns` times the overlay work and nothing else.
fn tiny_base(shape: &TableShape) -> KbSource {
    let mut kb = KbSource::default();
    for p in 0..shape.preds {
        kb.modules.push((
            shape.module_of(p),
            format!("{}(k0, v0, 0).\n", shape.pred_name(p)),
        ));
    }
    kb
}

/// What a traced routed caller replays with.
struct Replay {
    /// A direct connection to each shard, beside the router's own.
    directs: Vec<Client>,
    /// The shards' shared namespace, for the parse replay.
    symbols: Symbols,
    log: ScratchLog,
    /// No WAL attached, no auto-compaction: reset by hand at the same
    /// overlay size the real shards compact at.
    shadow: Engine,
    shadow_ops: usize,
    tiny: KbSource,
}

struct RoutedCaller {
    caller: usize,
    cluster: Cluster,
    engines: Vec<Engine>,
    shape: TableShape,
    /// The shard each predicate routes to.
    shard_of: Arc<Vec<usize>>,
    pool: Arc<Pool>,
    /// Pool entries this caller may read: everything but the predicates
    /// another caller mutates.
    readable: Vec<usize>,
    owned: Vec<usize>,
    /// The caller's view of its own predicates, commits applied in order.
    own: Oracle,
    /// Clauses it asserted and has not yet retracted, oldest first.
    live: VecDeque<(usize, String)>,
    commits: u64,
    asserts: u64,
    rng: Rng,
    replay: Option<Replay>,
    book: Book,
}

impl RoutedCaller {
    /// Commits cycle: one four-clause assert, then four single-clause
    /// retracts of the oldest live clauses — the predicate's size stays
    /// put, so the read path is measured on a stationary base.
    fn next_commit(&mut self) -> (Commit, usize) {
        let commit = if self.commits.is_multiple_of(5) || self.live.is_empty() {
            let pred = self.owned[(self.asserts % self.owned.len() as u64) as usize];
            let clauses =
                gen::assert_batch(&self.shape, pred, self.caller, self.asserts, &mut self.rng);
            self.asserts += 1;
            (
                Commit::Assert {
                    module: self.shape.module_of(pred),
                    source: clauses.join("\n"),
                },
                pred,
            )
        } else {
            let (pred, clause) = self.live.front().cloned().expect("checked non-empty");
            (
                Commit::Retract {
                    module: self.shape.module_of(pred),
                    source: clause,
                },
                pred,
            )
        };
        self.commits += 1;
        commit
    }

    fn commit(&mut self, tracer: Option<&mut Tracer>) -> OpRecord {
        let (op, pred) = self.next_commit();
        let started = Instant::now();
        let outcome = self.cluster.commit(&op);
        let lat_ns = started.elapsed().as_nanos() as u64;
        if outcome.is_ok() {
            // Acknowledged: the caller's oracle follows, in commit order.
            match &op {
                Commit::Assert { source, .. } => {
                    self.own.assert(source);
                    self.live
                        .extend(source.lines().map(|clause| (pred, clause.to_owned())));
                }
                Commit::Retract { source, .. } => {
                    self.own.retract(source);
                    self.live.pop_front();
                }
            }
            self.book.sums.commits += 1;
            self.book.sums.commit_user_bytes += op.user_bytes() as u64;
        }
        let ok = self.book.tally.note(outcome);
        if let (Some(tracer), Some(replay)) = (tracer, self.replay.as_mut()) {
            tracer.begin_op("commit", self.book.ops);
            tracer.record("e2e", lat_ns, 0);
            replay.log.replay_append(&op, tracer);
            tracer.span("wal.overlay_apply_ns", || (replay.shadow.commit(&op), 0));
            replay.shadow_ops += 1;
            if replay.shadow_ops >= RoutedMixed::COMPACT_OPS {
                replay.shadow.reset(layers::build(&replay.tiny, &[]).kb);
                replay.shadow_ops = 0;
            }
            tracer.end_op();
        }
        OpRecord {
            kind: Kind::Commit,
            mutated: true,
            lat_ns,
            ok,
        }
    }

    fn read(&mut self, tracer: Option<&mut Tracer>) -> OpRecord {
        let i = self.readable[self.rng.below(self.readable.len())];
        let query = &self.pool.queries[i];
        let term = &self.pool.terms[i];
        let mutated = self.owned.contains(&query.pred);
        // A predicate this caller mutates is checked against its own
        // oracle as of its last acknowledged commit; ids are only
        // comparable on a predicate nobody has touched.
        let own_expect;
        let expect = if mutated {
            own_expect = Expectation::of(&mut self.own, &query.text, false);
            &own_expect
        } else {
            &self.pool.expect[i]
        };
        let shard = self.shard_of[query.pred];
        let (reply, lat_ns, verdict) = timed_retrieval(|| self.cluster.retrieve(term));
        if let Ok(r) = &reply {
            let sums = &mut self.book.sums;
            sums.replies.add(r);
            if sums.per_shard.len() <= shard {
                sums.per_shard.resize(shard + 1, 0);
            }
            sums.per_shard[shard] += 1;
        }
        let ok = self.book.tally.note(check(expect, &reply));
        if let (Some(tracer), Some(replay), Ok(reply)) = (tracer, self.replay.as_mut(), &reply) {
            tracer.begin_op("retrieve", self.book.ops);
            tracer.record("e2e", lat_ns, verdict);
            // Repeats of the same query are cache hits on the shard, so
            // router-vs-client and client-vs-in-process are differenced
            // on one path: same query, same shard, same (hit) work.
            tracer.span("cluster.router_hit_ns", || {
                (self.cluster.retrieve(term).is_ok(), 0)
            });
            let direct = &mut replay.directs[shard];
            tracer.span("net.direct_hit_ns", || (direct.retrieve(term).is_ok(), 0));
            layers::replay_wire(term, reply, tracer);
            tracer.span("net.ping_ns", || (direct.ping().is_ok(), 0));
            self.cluster
                .replay_place(&self.shape.pred_name(query.pred), 3, tracer);
            layers::replay_retrieval(
                &self.engines[shard],
                &mut replay.symbols,
                &query.text,
                term,
                tracer,
            );
            tracer.end_op();
        }
        OpRecord {
            kind: Kind::Retrieve,
            mutated,
            lat_ns,
            ok,
        }
    }
}

impl Caller for RoutedCaller {
    fn step(&mut self, tracer: Option<&mut Tracer>) -> OpRecord {
        let tracer = self.book.next_op(tracer);
        if self.rng.below(10) == 0 {
            self.commit(tracer)
        } else {
            self.read(tracer)
        }
    }

    fn book(&mut self) -> &mut Book {
        &mut self.book
    }
}

// ---------------------------------------------------------------------------
// solve_genealogy
// ---------------------------------------------------------------------------

struct SolveGenealogy {
    seed: u64,
    quick: bool,
    expect: Arc<Vec<Descent>>,
    oracle_s: f64,
}

impl SolveGenealogy {
    const TRACE_EVERY: u64 = 4;

    fn new(seed: u64, quick: bool) -> Self {
        let (kb, roots) = gen::genealogy(seed, quick);
        let (expect, oracle_s) = timed(|| {
            let mut oracle = Oracle::new();
            // Facts only: the oracle walks parent/2 itself.
            oracle.assert(kb.modules[0].1.trim_end_matches(gen::FAMILY_RULES));
            roots.iter().map(|root| oracle.descendants(root)).collect()
        });
        SolveGenealogy {
            seed,
            quick,
            expect: Arc::new(expect),
            oracle_s,
        }
    }
}

impl Workload for SolveGenealogy {
    fn setup(&self, trace: bool, _scratch: &Path) -> Live {
        let ((source, roots), generate_s) = timed(|| gen::genealogy(self.seed, self.quick));
        let built = layers::build(&source, &[]);
        let size = layers::kb_size(&built.kb);
        let io = trace.then(|| layers::kb_io_roundtrip(&built.kb));
        let ((engine, goals), start_s) = timed(|| {
            let engine = Engine::start(built.kb, None);
            let texts: Vec<String> = roots
                .iter()
                .map(|root| format!("ancestor({root}, X)"))
                .collect();
            let goals = engine.goals(&texts);
            (engine, goals)
        });
        Live {
            callers: vec![Box::new(SolveCaller {
                symbols: engine.symbols(),
                engine,
                goals,
                expect: self.expect.clone(),
                rng: Rng::new(self.seed, 100),
                book: Book::new(Self::TRACE_EVERY),
            })],
            nodes: Vec::new(),
            times: SetupTimes {
                generate_s,
                consult_s: built.consult_s,
                build_s: built.build_s,
                start_s,
            },
            clauses: size.clauses,
            kb_bytes: size.in_memory_bytes,
            io,
        }
    }

    fn profile(&self) -> Profile {
        Profile {
            count_ops: if self.quick { 50 } else { 100 },
            primary: Kind::Solve,
            oracle_s: self.oracle_s,
        }
    }
}

struct SolveCaller {
    engine: Engine,
    symbols: Symbols,
    goals: Vec<Goal>,
    expect: Arc<Vec<Descent>>,
    rng: Rng,
    book: Book,
}

impl Caller for SolveCaller {
    fn step(&mut self, tracer: Option<&mut Tracer>) -> OpRecord {
        let tracer = self.book.next_op(tracer);
        let i = self.rng.below(self.goals.len());
        let started = Instant::now();
        let outcome = self.engine.solve(&self.goals[i]);
        let lat_ns = started.elapsed().as_nanos() as u64;
        let solved = Engine::solved(&outcome, &self.symbols);
        let ok = self
            .book
            .tally
            .note(oracle::check_solve(&self.expect[i].solutions, &solved));
        let s = &mut self.book.sums;
        s.solves += 1;
        s.solve_retrievals += solved.retrievals as u64;
        s.solve_solutions += solved.answers.len() as u64;
        s.solve_candidates += solved.candidates as u64;
        s.solve_unified += solved.clauses_unified as u64;
        s.solve_modeled_ns += solved.modeled_ns;
        if let Some(tracer) = tracer {
            tracer.begin_op("solve", self.book.ops);
            tracer.record("e2e", lat_ns, solved.retrievals as u64);
            // The retrievals this resolution made: per ancestor/2 call,
            // the call itself and the two parent/2 goals of its clauses.
            let goals: Vec<String> = self.expect[i]
                .calls
                .iter()
                .flat_map(|p| {
                    [
                        format!("ancestor({p}, D)"),
                        format!("parent({p}, D)"),
                        format!("parent({p}, P)"),
                    ]
                })
                .collect();
            layers::replay_solve_goals(&self.engine, &mut self.symbols, &goals, tracer);
            tracer.end_op();
        }
        OpRecord {
            kind: Kind::Solve,
            mutated: false,
            lat_ns,
            ok,
        }
    }

    fn book(&mut self) -> &mut Book {
        &mut self.book
    }
}

/// The workload called `name` (one of [`WORKLOADS`]), with its inputs
/// generated and its oracle built.
pub(crate) fn by_name(name: &str, seed: u64, quick: bool) -> Box<dyn Workload> {
    match name {
        "inproc_select_100k" => Box::new(InprocSelect::new(seed, quick)),
        "served_zipf_1k" => Box::new(ServedZipf::new(seed, quick)),
        "routed_mixed_10k" => Box::new(RoutedMixed::new(seed, quick)),
        "solve_genealogy" => Box::new(SolveGenealogy::new(seed, quick)),
        other => panic!("{other} is not in WORKLOADS"),
    }
}
