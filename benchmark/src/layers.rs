//! The one file that calls the engine. Every `clare_*` item the benchmark
//! uses — building and serving knowledge bases, the end-to-end calls, and
//! the per-layer stage replays — is reached through here, so an API change
//! in the engine has exactly one file to port.
//!
//! Every layer runs its **default configuration** (`CrsOptions`,
//! `NetConfig`, `ClientConfig`, `RouterConfig`); the single exception is
//! [`Node::start`]'s `compact_ops`, which `routed_mixed_10k` sets.

use crate::gen::KbSource;
use crate::spans::Tracer;
use clare_cluster::{Router, RouterConfig, ShardMap, ShardSpec};
use clare_core::{
    choose_mode, retrieve_merged, ClauseRetrievalServer, CrsOptions, SearchMode, SolveOptions,
};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_net::protocol::{
    decode_retrieval, decode_retrieve, encode_retrieval, encode_retrieve, BudgetExt, RetrieveReq,
};
use clare_net::{ClientConfig, NetClient, NetConfig, NetServer};
use clare_scw::ClauseAddr;
use clare_term::parser::{parse_program, parse_term, parse_term_with_vars};
use clare_term::SymbolTable;
use clare_trace::MetricsSnapshot;
use clare_wal::{Wal, WalOp};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type Term = clare_term::Term;
pub type Retrieval = clare_core::Retrieval;
pub type SolveOutcome = clare_core::SolveOutcome;

/// The mode every retrieval workload asks for: the paper's two-stage
/// filter. (`solve_genealogy` lets the resolver choose per goal.)
const MODE: SearchMode = SearchMode::TwoStage;

// ---------------------------------------------------------------------------
// Terms (also the oracle's only window onto the engine's term types)
// ---------------------------------------------------------------------------

/// A symbol namespace to parse against.
#[derive(Debug, Clone, Default)]
pub struct Symbols(SymbolTable);

impl Symbols {
    pub fn new() -> Self {
        Symbols(SymbolTable::new())
    }

    pub fn term(&mut self, text: &str) -> Term {
        parse_term(text, &mut self.0).unwrap_or_else(|e| panic!("generated term {text:?}: {e}"))
    }

    /// The clause heads of `source`, in order.
    pub fn heads(&mut self, source: &str) -> Vec<Term> {
        parse_program(source, &mut self.0)
            .unwrap_or_else(|e| panic!("generated program: {e}"))
            .into_iter()
            .map(|clause| clause.into_parts().0)
            .collect()
    }

    pub fn atom_text(&self, term: &Term) -> Option<&str> {
        match term {
            Term::Atom(sym) => self.0.try_atom_text(*sym),
            _ => None,
        }
    }
}

/// What a first-argument bucket is keyed by; `None` for anything that is
/// not an atom or an integer (variables, compounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgKey {
    Atom(u32),
    Int(i64),
}

/// `(functor, arity, first-argument key)` of a head or query.
pub fn shape_of(term: &Term) -> Option<((u32, usize), Option<ArgKey>)> {
    let (functor, arity) = term.functor_arity()?;
    let first = match term {
        Term::Struct { args, .. } => match &args[0] {
            Term::Atom(sym) => Some(ArgKey::Atom(sym.offset())),
            Term::Int(i) => Some(ArgKey::Int(*i)),
            _ => None,
        },
        _ => None,
    };
    Some(((functor.offset(), arity), first))
}

pub fn arg(term: &Term, i: usize) -> Option<&Term> {
    match term {
        Term::Struct { args, .. } => args.get(i),
        _ => None,
    }
}

/// Full unification of a query against a clause head.
pub fn unifies(query: &Term, head: &Term) -> bool {
    clare_unify::unify_query_clause(query, head).is_some()
}

pub fn simd_level() -> String {
    format!("{:?}", clare_simd::level()).to_lowercase()
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

/// A compiled knowledge base plus the pre-parsed query pool.
pub struct Built {
    pub kb: KnowledgeBase,
    pub queries: Vec<Term>,
    pub consult_s: f64,
    pub build_s: f64,
}

/// Consults every module, parses the query pool in the same namespace,
/// and compiles (`KbBuilder::finish`, default `KbConfig`).
pub fn build(source: &KbSource, queries: &[&str]) -> Built {
    let mut builder = KbBuilder::new();
    let started = Instant::now();
    for (module, text) in &source.modules {
        builder
            .consult(module, text)
            .unwrap_or_else(|e| panic!("generated module {module}: {e}"));
    }
    let consult_s = started.elapsed().as_secs_f64();
    let queries = queries
        .iter()
        .map(|q| {
            parse_term(q, builder.symbols_mut())
                .unwrap_or_else(|e| panic!("generated query {q:?}: {e}"))
        })
        .collect();
    let started = Instant::now();
    let kb = builder.finish(KbConfig::default());
    Built {
        kb,
        queries,
        consult_s,
        build_s: started.elapsed().as_secs_f64(),
    }
}

/// Size figures of a compiled knowledge base.
pub struct KbSize {
    pub clauses: usize,
    pub in_memory_bytes: usize,
}

pub fn kb_size(kb: &KnowledgeBase) -> KbSize {
    KbSize {
        clauses: kb.clause_count(),
        in_memory_bytes: kb.in_memory_bytes(),
    }
}

/// `kb::io` round trip through memory: `(save_s, load_s, file_bytes)`.
pub fn kb_io_roundtrip(kb: &KnowledgeBase) -> (f64, f64, usize) {
    let mut file = Vec::new();
    let started = Instant::now();
    clare_kb::io::save(kb, &mut file).expect("saving to memory");
    let save_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let loaded =
        clare_kb::io::load(&mut file.as_slice(), KbConfig::default()).expect("loading own save");
    let load_s = started.elapsed().as_secs_f64();
    assert_eq!(loaded.clause_count(), kb.clause_count());
    (save_s, load_s, file.len())
}

// ---------------------------------------------------------------------------
// In-process engine
// ---------------------------------------------------------------------------

/// A shared in-process retrieval server.
#[derive(Clone)]
pub struct Engine {
    crs: Arc<ClauseRetrievalServer>,
}

/// A parsed solve goal with its variable names.
pub struct Goal {
    term: Term,
    vars: Vec<String>,
}

/// What one all-solutions solve returned, reduced to plain data.
pub struct Solved {
    /// The first named variable's binding in each solution, as atom text.
    pub answers: Vec<String>,
    pub retrievals: usize,
    pub candidates: usize,
    pub clauses_unified: usize,
    pub modeled_ns: u64,
    pub degraded: bool,
    pub depth_capped: bool,
}

impl Engine {
    /// `compact_ops`: `None` keeps the default `CrsOptions`; `Some(n)`
    /// overrides `overlay_auto_compact_ops` (see `routed_mixed_10k`).
    pub fn start(kb: KnowledgeBase, compact_ops: Option<usize>) -> Engine {
        let mut options = CrsOptions::default();
        if let Some(ops) = compact_ops {
            options.overlay_auto_compact_ops = Some(ops);
        }
        Engine {
            crs: ClauseRetrievalServer::shared(kb, options),
        }
    }

    pub fn symbols(&self) -> Symbols {
        Symbols(self.crs.symbols())
    }

    /// `ClauseRetrievalServer::retrieve`, through the cache.
    pub fn retrieve(&self, query: &Term) -> Retrieval {
        self.crs.retrieve(query, MODE)
    }

    pub fn goals(&self, texts: &[String]) -> Vec<Goal> {
        let mut symbols = self.crs.symbols();
        texts
            .iter()
            .map(|text| {
                let (term, vars) = parse_term_with_vars(text, &mut symbols)
                    .unwrap_or_else(|e| panic!("generated goal {text:?}: {e}"));
                Goal { term, vars }
            })
            .collect()
    }

    /// `ClauseRetrievalServer::solve`, all solutions, `ModeChoice::Auto`.
    pub fn solve(&self, goal: &Goal) -> SolveOutcome {
        self.crs
            .solve(&goal.term, &goal.vars, &SolveOptions::default())
    }

    /// `symbols`: this engine's namespace, cloned once by the caller
    /// ([`Engine::symbols`]) rather than once per solve.
    pub fn solved(outcome: &SolveOutcome, symbols: &Symbols) -> Solved {
        let symbols = &symbols.0;
        Solved {
            answers: outcome
                .solutions
                .iter()
                .map(|s| match s.bindings.first() {
                    Some((_, Term::Atom(sym))) => symbols.atom_text(*sym).to_owned(),
                    other => format!("{other:?}"),
                })
                .collect(),
            retrievals: outcome.stats.retrievals,
            candidates: outcome.stats.candidates,
            clauses_unified: outcome.stats.clauses_unified,
            modeled_ns: outcome.stats.retrieval_elapsed.as_ns(),
            degraded: outcome.stats.degraded,
            depth_capped: outcome.depth_capped(),
        }
    }

    /// In-memory commit with whatever log is attached (none, for a
    /// shadow engine): the overlay-apply share of a commit.
    pub fn commit(&self, op: &Commit) -> bool {
        match op {
            Commit::Assert { module, source } => self.crs.assert_source(module, source).is_ok(),
            Commit::Retract { module, source } => self.crs.retract_source(module, source).is_ok(),
        }
    }

    /// Discards the overlay (a wholesale update to the given base), which
    /// keeps a shadow engine's overlay the size the real one's would be.
    pub fn reset(&self, kb: KnowledgeBase) {
        self.crs.update(kb);
    }
}

/// Plain-data view of a retrieval reply for the oracle check.
pub fn unified(r: &Retrieval) -> usize {
    r.stats.unified
}

pub fn degraded(r: &Retrieval) -> bool {
    r.stats.degraded
}

pub fn candidate_ids(r: &Retrieval) -> Vec<u32> {
    r.candidates.iter().map(|id| id.index()).collect()
}

/// Sums of the deterministic per-reply statistics over a count pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReplySums {
    pub replies: u64,
    pub modeled_ns: u64,
    pub disk_ns: u64,
    pub fs2_ns: u64,
    pub disk_bytes: u64,
    pub after_fs1: u64,
    pub after_fs2: u64,
    pub candidates: u64,
    pub unified: u64,
}

impl ReplySums {
    pub fn add(&mut self, r: &Retrieval) {
        let s = &r.stats;
        self.replies += 1;
        self.modeled_ns += s.elapsed.as_ns();
        self.disk_ns += s.disk_time.as_ns();
        self.fs2_ns += s.fs2_time.as_ns();
        self.disk_bytes += s.bytes_from_disk;
        self.after_fs1 += s.after_fs1.unwrap_or(0) as u64;
        self.after_fs2 += s.after_fs2.unwrap_or(0) as u64;
        self.candidates += s.candidates as u64;
        self.unified += s.unified as u64;
    }
}

// ---------------------------------------------------------------------------
// Served and routed
// ---------------------------------------------------------------------------

/// One `NetServer` on a loopback port the OS picked.
pub struct Node {
    server: Option<NetServer>,
    engine: Engine,
    addr: SocketAddr,
}

impl Node {
    /// Serves `kb` with the default `NetConfig` (reactor, 4 workers). With
    /// `wal`, attaches a write-ahead log at that path first.
    pub fn start(kb: KnowledgeBase, compact_ops: Option<usize>, wal: Option<&Path>) -> Node {
        let engine = Engine::start(kb, compact_ops);
        if let Some(path) = wal {
            engine.crs.attach_wal(path).expect("attaching a fresh WAL");
        }
        let server = NetServer::bind(engine.crs.clone(), "127.0.0.1:0", NetConfig::default())
            .expect("binding a loopback port");
        let addr = server.local_addr();
        Node {
            server: Some(server),
            engine,
            addr,
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn connect(&self) -> Client {
        Client(
            NetClient::connect(self.addr, ClientConfig::default())
                .expect("connecting to own server"),
        )
    }

    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One blocking client connection.
pub struct Client(NetClient);

impl Client {
    pub fn retrieve(&mut self, query: &Term) -> Result<Retrieval, String> {
        self.0.retrieve(query, MODE).map_err(|e| e.to_string())
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(|e| e.to_string())
    }
}

/// A durable mutation, as the WAL and the wire carry it.
#[derive(Debug, Clone)]
pub enum Commit {
    Assert { module: String, source: String },
    Retract { module: String, source: String },
}

impl Commit {
    pub fn user_bytes(&self) -> usize {
        match self {
            Commit::Assert { source, .. } | Commit::Retract { source, .. } => source.len(),
        }
    }
}

/// The router over a set of nodes (no backups), default `RouterConfig`.
#[derive(Clone)]
pub struct Cluster {
    router: Arc<Router>,
    map: ShardMap,
}

impl Cluster {
    pub fn connect(nodes: &[Node]) -> Cluster {
        let map = ShardMap {
            shards: nodes
                .iter()
                .map(|n| ShardSpec {
                    primary: n.addr.to_string(),
                    backup: None,
                })
                .collect(),
            hot: Vec::new(),
            fingerprint: None,
        };
        let router = Router::connect(map.clone(), RouterConfig::default())
            .expect("connecting the router to own shards");
        Cluster {
            router: Arc::new(router),
            map,
        }
    }

    pub fn shard_of(&self, functor: &str, arity: usize) -> usize {
        self.map.route(functor, arity)
    }

    pub fn retrieve(&self, query: &Term) -> Result<Retrieval, String> {
        self.router.retrieve(query, MODE).map_err(|e| e.to_string())
    }

    /// An acknowledged commit must be durable (fsynced) to count.
    pub fn commit(&self, op: &Commit) -> Result<(), String> {
        let receipt = match op {
            Commit::Assert { module, source } => self.router.assert(module, source),
            Commit::Retract { module, source } => self.router.retract(module, source),
        }
        .map_err(|e| e.to_string())?;
        if receipt.receipt.durable {
            Ok(())
        } else {
            Err("commit acknowledged without a durable log".to_owned())
        }
    }

    /// `ShardMap::place` on its own.
    pub fn replay_place(&self, functor: &str, arity: usize, tracer: &mut Tracer) {
        tracer.span("cluster.place_ns", || {
            (
                std::hint::black_box(self.map.place(functor, arity, None)),
                0,
            )
        });
    }
}

// ---------------------------------------------------------------------------
// Stage replay (traced run only; always after the timed call)
// ---------------------------------------------------------------------------

/// Replays one two-stage retrieval through each layer's public function
/// with the op's own inputs, one span per stage:
/// `term.parse_ns`, `pif.encode_query_ns`, `fs2.load_query_ns`,
/// `scw.encode_descriptor_ns`, `scw.scan_ns`, `fs2.sweep_ns`,
/// `unify.full_ns`, then the whole uncached pipeline (`core.miss_ns`) and a
/// repeat through the server cache (`core.cache_hit_ns` — the timed call
/// just inserted the answer).
pub fn replay_retrieval(
    engine: &Engine,
    symbols: &mut Symbols,
    text: &str,
    query: &Term,
    tracer: &mut Tracer,
) {
    tracer.span("term.parse_ns", || {
        (
            std::hint::black_box(parse_term(text, &mut symbols.0).ok()),
            text.len() as u64,
        )
    });
    let (base, overlay) = engine.crs.snapshot_merged();
    let options = engine.crs.options();
    if let (Some((functor, arity)), Ok(stream)) =
        (query.functor_arity(), clare_pif::encode_query(query))
    {
        tracer.span("pif.encode_query_ns", || {
            (std::hint::black_box(clare_pif::encode_query(query).ok()), 0)
        });
        let fs2 = tracer.span("fs2.load_query_ns", || {
            (clare_fs2::Fs2Engine::new(&stream).ok(), 0)
        });
        if let (Some(mut fs2), Some(pred)) = (fs2, base.predicate(functor, arity)) {
            let index = pred.index();
            let descriptor = tracer.span("scw.encode_descriptor_ns", || {
                (clare_scw::encode_query_descriptor(query, index.config()), 0)
            });
            let scan = tracer.span("scw.scan_ns", || {
                let outcome = index.scan_with_descriptor(&descriptor);
                let entries = outcome.entries_scanned as u64;
                (outcome, entries)
            });
            let fs1: BTreeSet<ClauseAddr> = scan.matches.iter().copied().collect();
            let tracks: BTreeSet<usize> = fs1.iter().map(|a| a.track() as usize).collect();
            let arena = pred.arena();
            let survivors = tracer.span("fs2.sweep_ns", || {
                let mut clauses = 0u64;
                let mut survivors = Vec::new();
                for &t in &tracks {
                    let range = arena.track_clauses(t);
                    let start = range.start;
                    for i in range {
                        clauses += 1;
                        if fs2.match_clause_words(arena.stream(i)).matched {
                            let addr = ClauseAddr::new(t as u32, (i - start) as u16);
                            if fs1.contains(&addr) {
                                survivors.push(i);
                            }
                        }
                    }
                }
                (survivors, clauses)
            });
            tracer.span("unify.full_ns", || {
                let hits = survivors
                    .iter()
                    .filter(|&&i| unifies(query, pred.clauses()[i].head()))
                    .count();
                (std::hint::black_box(hits), survivors.len() as u64)
            });
        }
    }
    tracer.span("core.miss_ns", || {
        (
            std::hint::black_box(retrieve_merged(&base, &overlay, query, MODE, options)),
            0,
        )
    });
    tracer.span("core.cache_hit_ns", || {
        (std::hint::black_box(engine.crs.retrieve(query, MODE)), 0)
    });
}

/// Replays the four wire codecs of one retrieve exchange.
pub fn replay_wire(query: &Term, reply: &Retrieval, tracer: &mut Tracer) {
    let request = RetrieveReq {
        mode: MODE,
        deadline_micros: 0,
        budget: BudgetExt::NONE,
        query: query.clone(),
    };
    let request_bytes = tracer.span("net.encode_request_ns", || {
        let bytes = encode_retrieve(&request);
        let n = bytes.len() as u64;
        (bytes, n)
    });
    tracer.span("net.decode_request_ns", || {
        (
            std::hint::black_box(decode_retrieve(&request_bytes).ok()),
            0,
        )
    });
    let reply_bytes = tracer.span("net.encode_reply_ns", || {
        let bytes = encode_retrieval(reply);
        let n = bytes.len() as u64;
        (bytes, n)
    });
    tracer.span("net.decode_reply_ns", || {
        (std::hint::black_box(decode_retrieval(&reply_bytes).ok()), 0)
    });
}

/// Replays the retrievals one `ancestor/2` solve expands to — each goal
/// through the uncached pipeline in the mode the resolver's `Auto` policy
/// picks — as `core.solve_retrieval_ns` spans.
pub fn replay_solve_goals(
    engine: &Engine,
    symbols: &mut Symbols,
    goals: &[String],
    tracer: &mut Tracer,
) {
    let (base, overlay) = engine.crs.snapshot_merged();
    for text in goals {
        let Ok(goal) = parse_term(text, &mut symbols.0) else {
            continue;
        };
        tracer.span("core.solve_retrieval_ns", || {
            let mode = choose_mode(&base, &goal);
            let r = retrieve_merged(&base, &overlay, &goal, mode, engine.crs.options());
            let candidates = r.stats.candidates as u64;
            (std::hint::black_box(r), candidates)
        });
    }
}

/// A scratch write-ahead log for replaying `Wal::append_batch` with a
/// commit's own payload.
pub struct ScratchLog(Wal);

impl ScratchLog {
    pub fn open(path: &Path) -> ScratchLog {
        ScratchLog(Wal::open(path).expect("opening a scratch WAL").0)
    }

    pub fn replay_append(&mut self, op: &Commit, tracer: &mut Tracer) {
        let op = match op.clone() {
            Commit::Assert { module, source } => WalOp::Assert { module, source },
            Commit::Retract { module, source } => WalOp::Retract { module, source },
        };
        tracer.span("wal.append_ns", || {
            (self.0.append_batch(std::slice::from_ref(&op)).is_ok(), 0)
        });
    }
}

// ---------------------------------------------------------------------------
// The public metrics registry, read from outside
// ---------------------------------------------------------------------------

/// `(cache.hits, cache.misses)` right now, without a full snapshot: read
/// either side of a timed call to tell whether it was served from the
/// cache.
pub fn cache_counters() -> (u64, u64) {
    let m = clare_trace::metrics();
    (m.cache_hits.get(), m.cache_misses.get())
}

/// A point-in-time copy of `clare_trace::metrics()`.
pub struct Registry(MetricsSnapshot);

impl Registry {
    pub fn now() -> Registry {
        Registry(clare_trace::metrics().snapshot())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name).unwrap_or(0)
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Registry, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Summed growth of every counter whose name starts with `prefix`.
    pub fn since_prefix(&self, earlier: &Registry, prefix: &str) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| self.since(earlier, name))
            .sum()
    }

    /// `(count, sum, quantile(q))` of the observations a histogram took
    /// since `earlier`. The registry's histograms have log2 buckets, so a
    /// quantile is good to a factor of two.
    pub fn histogram_since(&self, earlier: &Registry, name: &str, q: f64) -> (u64, u64, u64) {
        let (Some(now), Some(then)) = (self.0.histogram(name), earlier.0.histogram(name)) else {
            return (0, 0, 0);
        };
        let mut delta = now.clone();
        delta.count = now.count.saturating_sub(then.count);
        delta.sum = now.sum.saturating_sub(then.sum);
        for (d, t) in delta.buckets.iter_mut().zip(&then.buckets) {
            *d = d.saturating_sub(*t);
        }
        (delta.count, delta.sum, delta.quantile(q))
    }
}
