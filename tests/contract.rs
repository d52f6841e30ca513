//! The retrieval contract, checked from one place against one reference.
//!
//! FS1 and FS2 are superset filters, so full unification over the live
//! knowledge base alone decides every answer. Seeded (knowledge base,
//! mutation script, queries) triples run each script step on the engine in
//! every serving configuration and on the naive [`Oracle`]; after each step
//! every cell is checked against it: 4 modes × cache on/off ×
//! overlay/compacted × path (free `retrieve_batch`, `ClauseRetrievalServer`,
//! loopback `NetServer`, 2-shard `Router`) × budget unlimited/generous ×
//! alone/mixed batch (routed cells unlimited: the router forwards no
//! budget), and at the end the solve cells (4 fixed modes and `Auto`, in
//! process and served). (1) `unified` is the oracle's answer count, and its
//! answers appear among the candidates, which are live clauses in clause
//! order. (2) TwoStage candidates ⊆ Fs1Only's and ⊆ Fs2Only's. (3) Every
//! cell of one (mode, snapshot) returns the free alone/unlimited cell's
//! `Retrieval`; a served solve, the in-process one. (4) A solve returns the
//! oracle's solutions in order, never depth-capped. (5) After every fold,
//! every retrieval from the compacted base equals one from a `KbBuilder`
//! build of the oracle's live clauses in the compacted order; one fold
//! flips the memory module to disk resident. A failure names the seed,
//! the cell, and the source, script and query as Prolog text.

use clare::core::resolve::{compact_vars, ModeChoice};
use clare::core::{CacheConfig, Overlay, QueryBudget, SolveOutcome};
use clare::prelude::*;
use clare_cluster::{Router, RouterConfig, ShardMap, ShardSpec};
use clare_kb::ModuleKind;
use clare_net::protocol::BudgetExt;
use clare_net::Service;
use clare_oracle::Oracle;
use clare_workload::{RandomTermSpec, RandomTerms};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Triples per run, and script steps per triple.
const SEEDS: u64 = 10;
const STEPS: usize = 10;
/// Each predicate's module, in the order an update swap consults them.
/// The disk module's five base predicates take five tracks at least, so it
/// is disk resident, and the memory module's two stay under the threshold
/// until the bulk step. `extra/1` has no base clauses: only scripts assert
/// it. A script never retracts a rule predicate's last clause, so the disk
/// module keeps its kind, on one server and on either shard.
const PREDICATES: [(&str, usize, &str); 8] = [
    ("key", 2, "disk"),
    ("edge", 2, "disk"),
    ("extra", 1, "disk"),
    ("path", 2, "disk"),
    ("link", 2, "disk"),
    ("tag", 2, "disk"),
    ("rt", 3, "mem"),
    ("pool", 1, "mem"),
];
const RULES: [&str; 5] = [
    "key(K, v3) :- edge(K, k9).",
    "path(X, Y) :- edge(X, Y).",
    "path(X, Z) :- edge(X, Y), path(Y, Z).",
    "link(X, Z) :- edge(X, Y), edge(Y, Z).",
    "tag(K, V) :- key(K, V), edge(K, _).",
];
/// `edge/2` points from a lower node `k<i>` to a higher one only, so the
/// recursive `path/2` terminates.
const NODES: usize = 10;
/// Step `FLIP` asserts `BULK` clauses of each memory predicate and folds.
/// Their index entries (17 bytes each) put the memory module's two tracks
/// over `LARGE_MODULE_THRESHOLD` on every server and shard; the few a
/// random script asserts there never do (it takes 20).
const FLIP: usize = 5;
const BULK: usize = 48;
const LARGE_MODULE_THRESHOLD: usize = 41 * 1024;
/// A budget no request here comes near.
const GENEROUS: QueryBudget = QueryBudget {
    deadline_micros: 60_000_000,
    solve_step_limit: 1 << 40,
    candidate_limit: 1 << 40,
};

#[test]
fn every_configuration_answers_like_the_oracle() {
    for seed in 0..SEEDS {
        let mut case = Case::new(seed);
        case.check(false);
        for step in 1..=STEPS {
            case.step(step);
            case.check(step == STEPS);
        }
        case.compact();
        case.check(true);
    }
}

/// One generated triple, the oracle and the engine it drives.
struct Case {
    seed: u64,
    rng: StdRng,
    /// `rt/3` heads as text: the base holds the first 40.
    heads: Vec<String>,
    source: String,
    /// The steps run so far, as Prolog text.
    script: Vec<String>,
    /// Each query as text, and parsed for the engine and for the oracle.
    queries: Vec<(String, Term, Term)>,
    goals: Vec<String>,
    oracle: Oracle,
    engine: Engine,
    /// The memory module's kind: Large once the bulk step folded.
    memory: ModuleKind,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut term_symbols = SymbolTable::new();
        let mut terms = RandomTerms::new(RandomTermSpec::default(), &mut term_symbols, seed);
        let mut disk: Vec<String> = (0..120).map(|_| key_fact(&mut rng)).collect();
        disk.insert(60, RULES[0].into());
        for i in 0..NODES {
            for j in i + 1..NODES {
                if rng.gen_bool(0.25) {
                    disk.push(format!("edge(k{i}, k{j})."));
                }
            }
        }
        disk.extend(RULES[1..].iter().map(|rule| rule.to_string()));
        // `pool/1` names every atom a script or query names, so they are in
        // the base namespace, as the cluster requires of runtime writes.
        let head = |_: usize| TermDisplay::new(&terms.head(), &term_symbols).to_string();
        let heads: Vec<String> = (0..60).map(head).collect();
        let pool =
            "pool([a0, a1, a2, a3, a4, a5, s0, s1, s2, v0, v1, v2, v3, missing, x, extra, k0, \
                    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11]).";
        let mem: Vec<String> = heads[..40].iter().map(|h| format!("{h}.")).collect();

        let (mut builder, mut oracle, mut source) =
            (KbBuilder::new(), Oracle::new(), String::new());
        for (module, clauses) in [("disk", disk), ("mem", mem)] {
            let text = clauses.join("\n") + "\n" + if module == "mem" { pool } else { "" };
            builder.consult(module, &text).unwrap();
            oracle.assert(&text);
            source.push_str(&format!("% module {module}\n{text}"));
        }
        let kb = builder.finish(config());

        let (k, v) = (rng.gen_range(0..12), rng.gen_range(0..4));
        let n = rng.gen_range(0..NODES);
        let mut texts: Vec<String> = (0..3)
            .map(|_| heads[rng.gen_range(0..40usize)].clone())
            .collect();
        texts.extend([
            heads[59].clone(),
            "rt(S, S, T)".into(),
            format!("key(k{k}, X)"),
            format!("key(K, v{v})"),
            format!("key(k{k}, v{v})"),
            format!("edge(k{n}, Y)"),
            "path(X, Y)".into(),
            "tag(K, v1)".into(),
            "pool(P)".into(),
            "missing(x)".into(),
            "extra(X)".into(),
            // Outside the 28-bit in-line range: FS2 cannot load it.
            "key(99999999999, V)".into(),
        ]);
        let mut symbols = kb.symbols().clone();
        let mut parse = |text: &String| {
            let engine = parse_term(text, &mut symbols).unwrap();
            (
                text.clone(),
                engine,
                parse_term(text, oracle.symbols_mut()).unwrap(),
            )
        };
        let queries = texts.iter().map(&mut parse).collect();
        assert_eq!(
            symbols.atom_count(),
            kb.symbols().atom_count(),
            "base atoms only"
        );
        // Every query is a goal too; two more conjoin across modules.
        let more = [format!("edge(k{n}, Y), key(Y, V)"), "link(X, Y)".into()];
        let goals = texts.iter().cloned().chain(more).collect();
        Case {
            seed,
            rng,
            heads,
            source,
            script: Vec::new(),
            queries,
            goals,
            oracle,
            engine: Engine::new(kb),
            memory: ModuleKind::Small,
        }
    }

    /// Draws script step `step` from the live state and runs it on the
    /// engine and on the oracle. The last is a transaction: the script ends
    /// on an overlay.
    fn step(&mut self, step: usize) {
        if step == FLIP {
            let rt = (0..BULK).map(|i| format!("{}.", self.heads[30 + i % 30]));
            let pool = (0..BULK).map(|i| format!("pool(k{}).", i % 12));
            self.transact(rt.chain(pool).map(|c| (true, c)).collect());
            self.script.push("compact_now.".into());
            self.compact();
            self.memory = ModuleKind::Large;
            return;
        }
        let last = step == STEPS;
        match if last { 0 } else { self.rng.gen_range(0..10) } {
            0..=6 => {
                let ops = (0..self.rng.gen_range(1..=3)).map(|_| self.op()).collect();
                self.transact(ops);
            }
            7 | 8 => {
                self.script.push("compact_now.".into());
                self.compact();
            }
            _ => {
                let source = |module| {
                    let preds = PREDICATES.iter().filter(|p| p.2 == module);
                    let live = preds.flat_map(|(name, arity, _)| self.live(name, *arity));
                    (module, live.map(|c| c + "\n").collect())
                };
                self.engine.swap(&[source("disk"), source("mem")]);
                self.script.push("update. % a rebuilt base".into());
            }
        }
    }

    /// One transaction of `ops` on every path and on the oracle.
    fn transact(&mut self, ops: Vec<(bool, String)>) {
        let (mut text, mut want) = (String::from("% transaction"), (0, 0));
        for (assert, clause) in &ops {
            match assert {
                true => self.oracle.assert(clause),
                false => want.1 += usize::from(self.oracle.retract(clause)),
            }
            want.0 += usize::from(*assert);
            let verb = if *assert { "assert" } else { "retract" };
            let (module, clause) = (module_of(clause), clause.trim_end_matches('.'));
            text.push_str(&format!("\n{verb}({module}, ({clause}))."));
        }
        self.script.push(text);
        // Each path's receipts count what the oracle changed.
        let counts = self.engine.commit(&ops);
        if counts.iter().any(|c| *c != want) {
            let detail = format!("(asserted, retracted) {counts:?}, the oracle's {want:?}");
            self.fail("commit receipts", "", &detail);
        }
    }

    /// One assert or retract: of a random fact, of a live one, or of a
    /// rule (retracted under renamed variables while its predicate keeps
    /// another clause).
    fn op(&mut self) -> (bool, String) {
        let assert = self.rng.gen_bool(0.5);
        let (name, arity) = match self.rng.gen_range(0..10) {
            0..=3 => ("key", 2),
            4 | 5 => ("rt", 3),
            6 => ("edge", 2),
            7 => ("extra", 1),
            _ => {
                let rule = RULES[self.rng.gen_range(0..RULES.len())];
                let predicate = rule.split('(').next().unwrap();
                if assert || self.live(predicate, 2).len() < 2 {
                    return (true, rule.into());
                }
                let renamed = rule.chars().flat_map(|c| match c.is_ascii_uppercase() {
                    true => vec!['R', c],
                    false => vec![c],
                });
                return (false, renamed.collect());
            }
        };
        let live = self.live(name, arity);
        let facts: Vec<&String> = live.iter().filter(|c| !c.contains(":-")).collect();
        if !assert && !facts.is_empty() && self.rng.gen_bool(0.8) {
            return (false, facts[self.rng.gen_range(0..facts.len())].clone());
        }
        let fact = match name {
            "key" => key_fact(&mut self.rng),
            "rt" => format!("{}.", self.heads[self.rng.gen_range(30..60usize)]),
            "extra" => format!("extra(k{}).", self.rng.gen_range(0..4)),
            _ => {
                let i = self.rng.gen_range(0..NODES - 1);
                format!("edge(k{i}, k{}).", self.rng.gen_range(i + 1..NODES))
            }
        };
        (assert, fact)
    }

    /// Folds every server, then checks criterion 5.
    fn compact(&self) {
        let folds = self.engine.compact();
        if folds.iter().any(|[got, want]| got != want) {
            let detail = format!("[(outcome, ops left)]: {folds:?}");
            self.fail("compaction", "", &detail);
        }
        let (compacted, opts) = (self.engine.servers[1].snapshot(), CrsOptions::default());
        let mut builder = KbBuilder::new();
        *builder.symbols_mut() = compacted.symbols().clone();
        for module in compacted.modules() {
            let keys = module.predicates().iter().map(|p| p.indicator());
            let live = keys.flat_map(|(f, a)| self.live(compacted.symbols().atom_text(f), a));
            let source: String = live.map(|c| c + "\n").collect();
            builder.consult(module.name(), &source).unwrap();
        }
        let rebuilt = builder.finish(config());
        for (text, query, _) in &self.queries {
            for mode in SearchMode::ALL {
                let got = retrieve(&compacted, query, mode, &opts);
                let want = retrieve(&rebuilt, query, mode, &opts);
                if got != want {
                    let detail = format!("rebuilt: {want:?}\ncompacted: {got:?}");
                    self.fail(&format!("{mode:?}, compacted vs rebuilt"), text, &detail);
                }
            }
        }
    }

    /// The oracle's live clauses of `name/arity`, as Prolog text.
    fn live(&self, name: &str, arity: usize) -> Vec<String> {
        let symbols = self.oracle.symbols();
        let functor = symbols.lookup_atom(name).expect("a base atom");
        let clauses = self.oracle.clauses(functor, arity).iter();
        clauses.map(|c| clause_text(c, symbols)).collect()
    }

    /// Checks every retrieval cell, and the solve cells too when `solve`.
    fn check(&mut self, solve: bool) {
        let (base, overlay) = self.engine.servers[1].snapshot_merged();
        let snapshot = ["overlay", "compacted"][usize::from(overlay.is_empty())];
        let kinds = base.modules().iter().map(|m| m.kind());
        assert!(
            kinds.eq([ModuleKind::Large, self.memory]),
            "disk, then memory"
        );
        let queries: Vec<Term> = self.queries.iter().map(|q| q.1.clone()).collect();
        let mut by_mode = Vec::new();
        for mode in SearchMode::ALL {
            let free = Cell {
                mode,
                cache: false,
                path: Path::Free,
                generous: false,
                batch: false,
            };
            let name = |cell: Cell| format!("{cell:?} over the {snapshot} snapshot");
            let want = self.engine.run(&base, &overlay, &queries, free);
            for (query, got) in self.queries.iter().zip(&want) {
                self.check_oracle(&name(free), query, got, &base, &overlay);
            }
            for cell in free.siblings() {
                let got = self.engine.run(&base, &overlay, &queries, cell);
                for ((query, want), got) in self.queries.iter().zip(&want).zip(got) {
                    if got != *want {
                        let detail = format!("free cell: {want:?}\nthis cell: {got:?}");
                        self.fail(&name(cell), &query.0, &detail);
                    }
                }
            }
            by_mode.push(want);
        }
        let ids =
            |mode: usize, i: usize| -> BTreeSet<_> { by_mode[mode][i].candidates.iter().collect() };
        for (i, query) in self.queries.iter().enumerate() {
            // `SearchMode::ALL` is in the paper's (a)–(d) order.
            if !ids(3, i).is_subset(&ids(1, i)) || !ids(3, i).is_subset(&ids(2, i)) {
                let detail = "two-stage candidates are not within each single stage's";
                let cell = format!("modes over the {snapshot} snapshot");
                self.fail(&cell, &query.0, detail);
            }
        }
        if solve {
            self.check_solves(snapshot);
        }
    }

    /// Criterion 1 for one query's retrieval.
    fn check_oracle(
        &self,
        cell: &str,
        (text, query, reference): &(String, Term, Term),
        got: &Retrieval,
        base: &KnowledgeBase,
        overlay: &Overlay,
    ) {
        let symbols = self.oracle.symbols();
        let answers = self.oracle.answers(reference).into_iter();
        let answers: Vec<String> = answers.map(|c| clause_text(c, symbols)).collect();
        let (functor, arity) = reference.functor_arity().unwrap();
        let live = self.live(symbols.atom_text(functor), arity);
        let (functor, arity) = query.functor_arity().unwrap();
        let stored = base
            .predicate(functor, arity)
            .map_or(&[][..], |p| p.clauses());
        let candidates: Vec<String> = got
            .candidates
            .iter()
            .map(|id| {
                let i = id.index() as usize;
                let clause = stored.get(i).unwrap_or_else(|| {
                    let delta = overlay.delta(functor, arity).expect("a synthetic id");
                    &delta.added()[i - stored.len()].clause
                });
                clause_text(clause, overlay.symbols())
            })
            .collect();
        let stats = &got.stats;
        let counted = stats.unified + stats.false_drops == stats.candidates;
        let detail = if (stats.unified, stats.candidates) != (answers.len(), candidates.len())
            || !counted
        {
            format!("the oracle's answers {answers:?}, counted as {stats:?}")
        } else if !got.candidates.windows(2).all(|w| w[0] < w[1]) {
            format!("candidates out of clause order: {:?}", got.candidates)
        } else if !is_subsequence(answers.iter(), &candidates) {
            format!("the oracle's answers {answers:?} are not among the candidates {candidates:?}")
        } else if !is_subsequence(candidates.iter(), &live) {
            format!("candidates {candidates:?} are not live clauses in program order")
        } else {
            return;
        };
        self.fail(cell, text, &detail);
    }

    /// Criteria 3 and 4 for the solves.
    fn check_solves(&mut self, snapshot: &str) {
        let choices = SearchMode::ALL.map(ModeChoice::Fixed);
        for text in self.goals.clone() {
            let mut symbols = self.engine.servers[0].symbols();
            let (goals, names) = parse_goals(&text, &mut symbols).unwrap();
            let (reference, _) = parse_goals(&text, self.oracle.symbols_mut()).unwrap();
            // Shaped like `Solution::term`: the goal, or the list of goals.
            let solved = |mut goals: Vec<Term>| match goals.len() {
                1 => goals.remove(0),
                _ => Term::List {
                    items: goals,
                    tail: None,
                },
            };
            let solutions = self.oracle.solve(&reference).into_iter().map(solved);
            let oracle = self.oracle.symbols();
            let want: Vec<String> = solutions.map(|s| canonical(&s, oracle)).collect();
            for mode in choices.into_iter().chain([ModeChoice::Auto]) {
                let cell = format!("solve, mode = {mode:?}, snapshot = {snapshot}");
                let options = SolveOptions {
                    mode,
                    ..SolveOptions::default()
                };
                let [local, served] = self.engine.solve(&goals, &names, &options);
                if served != local {
                    let detail = format!("in process: {local:?}\nserved: {served:?}");
                    self.fail(&cell, &text, &detail);
                }
                let got = local.solutions.iter().map(|s| canonical(&s.term, &symbols));
                let got: Vec<String> = got.collect();
                if local.depth_capped() || got != want {
                    let detail = format!(
                        "depth capped: {}; solutions {got:?}\n  the oracle's {want:?}",
                        local.depth_capped()
                    );
                    self.fail(&cell, &text, &detail);
                }
            }
        }
    }

    fn fail(&self, cell: &str, query: &str, detail: &str) -> ! {
        panic!(
            "the retrieval contract is broken\n  seed: {}\n  cell: {cell}\n  query: {query}\n  \
             {detail}\nknowledge base:\n{}script, as far as it ran:\n{}\n",
            self.seed,
            self.source,
            self.script.join("\n")
        )
    }
}

/// The build configuration of every base here.
fn config() -> KbConfig {
    KbConfig {
        large_module_threshold: LARGE_MODULE_THRESHOLD,
        ..KbConfig::default()
    }
}

fn key_fact(rng: &mut StdRng) -> String {
    format!("key(k{}, v{}).", rng.gen_range(0..12), rng.gen_range(0..4))
}

/// The module of the predicate `clause` defines.
fn module_of(clause: &str) -> &'static str {
    let name = clause.split('(').next().unwrap();
    PREDICATES.iter().find(|p| p.0 == name).unwrap().2
}

/// Whether `needles` appear in `hay` in order.
fn is_subsequence<'a>(mut needles: impl Iterator<Item = &'a String>, hay: &[String]) -> bool {
    let mut hay = hay.iter();
    needles.all(|needle| hay.any(|straw| straw == needle))
}

/// A clause as Prolog text with positional variable names: structurally
/// equal clauses read the same whatever their source names.
fn clause_text(clause: &Clause, symbols: &SymbolTable) -> String {
    let mut text = TermDisplay::new(clause.head(), symbols).to_string();
    for (i, goal) in clause.body().iter().enumerate() {
        text.push_str(if i == 0 { " :- " } else { ", " });
        text.push_str(&TermDisplay::new(goal, symbols).to_string());
    }
    text + "."
}

/// A solved query as text, its variables renumbered by first occurrence,
/// so that two resolvers' renamings read the same.
fn canonical(term: &Term, symbols: &SymbolTable) -> String {
    TermDisplay::new(&compact_vars(term), symbols).to_string()
}

#[derive(Clone, Copy, Debug)]
enum Path {
    Free,
    Server,
    Served,
    Routed,
}

/// One retrieval configuration.
#[derive(Clone, Copy, Debug)]
struct Cell {
    mode: SearchMode,
    cache: bool,
    path: Path,
    /// A generous budget rather than the unlimited token.
    generous: bool,
    /// In one mixed-predicate batch rather than one request per query.
    batch: bool,
}

impl Cell {
    /// Every other cell of this mode.
    fn siblings(self) -> impl Iterator<Item = Cell> {
        let paths = [Path::Free, Path::Server, Path::Served, Path::Routed];
        let paths = paths
            .into_iter()
            .flat_map(|path| [(path, true), (path, false)]);
        let shapes = [(false, false), (false, true), (true, false), (true, true)];
        let cells = paths.flat_map(move |(path, cache)| {
            shapes.map(|(generous, batch)| Cell {
                path,
                cache,
                generous,
                batch,
                ..self
            })
        });
        cells.filter(|c| match c.path {
            Path::Free => !c.cache && (c.generous || c.batch),
            Path::Routed => !c.generous,
            _ => true,
        })
    }
}

/// The engine in every serving configuration, all fed the same script.
/// Fields drop in order: routers and clients before their servers.
struct Engine {
    /// Cache on, cache off.
    routers: [Router; 2],
    /// `[cache on, cache off][unlimited, generous]`, over `servers[..2]`.
    clients: [[NetClient; 2]; 2],
    /// Cache on, cache off, then the routers' shards: two with the cache
    /// on, two with it off.
    servers: Vec<Arc<ClauseRetrievalServer>>,
    _listeners: Vec<NetServer>,
}

impl Engine {
    fn new(kb: KnowledgeBase) -> Engine {
        let servers: Vec<_> = [true, false, true, true, false, false]
            .map(|on| {
                let cache = if on {
                    CacheConfig::default()
                } else {
                    CacheConfig::off()
                };
                let options = CrsOptions {
                    cache,
                    ..CrsOptions::default()
                };
                ClauseRetrievalServer::shared(kb.clone(), options)
            })
            .into();
        let mut listeners = Vec::new();
        let mut listen = |server: &Arc<ClauseRetrievalServer>, workers| {
            let config = NetConfig {
                workers,
                ..NetConfig::default()
            };
            listeners.push(NetServer::bind(Arc::clone(server), "127.0.0.1:0", config).unwrap());
            listeners.last().unwrap().local_addr().to_string()
        };
        let mut client = |server, generous: bool| {
            // Unlimited cells are served by one worker, generous ones by
            // four, so every mode and shape runs at both pool sizes.
            let addr = listen(server, if generous { 4 } else { 1 });
            let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
            if generous {
                assert!(client.budget_capable());
                client.set_deadline(Some(Duration::from_micros(GENEROUS.deadline_micros)));
                let QueryBudget {
                    solve_step_limit,
                    candidate_limit,
                    ..
                } = GENEROUS;
                client.set_budget(BudgetExt {
                    solve_step_limit,
                    candidate_limit,
                });
            }
            client
        };
        let clients = [0, 1].map(|i| [false, true].map(|generous| client(&servers[i], generous)));
        let mut router = |pair: &[Arc<ClauseRetrievalServer>]| {
            let shards = pair.iter().map(|s| ShardSpec {
                primary: listen(s, 2),
                backup: None,
            });
            let map = ShardMap {
                shards: shards.collect(),
                ..ShardMap::default()
            };
            let homes: BTreeSet<_> = PREDICATES.iter().map(|p| map.route(p.0, p.1)).collect();
            assert_eq!(homes.len(), 2, "the predicates live on both shards");
            Router::connect(map, RouterConfig::default()).unwrap()
        };
        let routers = [router(&servers[2..4]), router(&servers[4..])];
        Engine {
            routers,
            clients,
            servers,
            _listeners: listeners,
        }
    }

    /// One transaction in process, and op by op through each router: the
    /// (asserted, retracted) counts of each path's receipts.
    fn commit(&self, ops: &[(bool, String)]) -> Vec<(usize, usize)> {
        let mut counts = Vec::new();
        for server in &self.servers[..2] {
            let mut tx = server.begin_update();
            for (assert, clause) in ops {
                match assert {
                    true => tx.consult(module_of(clause), clause).unwrap(),
                    false => tx.retract(module_of(clause), clause).unwrap(),
                }
            }
            let receipt = tx.commit().unwrap();
            counts.push((receipt.asserted, receipt.retracted));
        }
        for router in &self.routers {
            let receipts = ops.iter().map(|(assert, clause)| match assert {
                true => router.assert(module_of(clause), clause).unwrap().receipt,
                false => router.retract(module_of(clause), clause).unwrap().receipt,
            });
            let sum =
                |(a, r), receipt: CommitReceipt| (a + receipt.asserted, r + receipt.retracted);
            counts.push(receipts.fold((0, 0), sum));
        }
        counts
    }

    /// Folds every server's overlay: (outcome, ops left) against what a
    /// fold of that overlay must give.
    fn compact(&self) -> Vec<[(CompactionOutcome, usize); 2]> {
        let fold = |server: &Arc<ClauseRetrievalServer>| {
            let folded = server.snapshot_merged().1.len();
            let want = match folded {
                0 => CompactionOutcome::Clean,
                _ => CompactionOutcome::Swapped { folded },
            };
            let got = server.compact_now();
            [(got, server.snapshot_merged().1.len()), (want, 0)]
        };
        self.servers.iter().map(fold).collect()
    }

    /// A wholesale update to a base built from `modules`' source.
    fn swap(&self, modules: &[(&str, String)]) {
        let mut builder = KbBuilder::new();
        *builder.symbols_mut() = self.servers[0].symbols();
        for (module, source) in modules {
            builder.consult(module, source).unwrap();
        }
        let kb = builder.finish(config());
        for server in &self.servers {
            server.update(kb.clone());
        }
    }

    /// Every query's retrieval in `cell`, in query order.
    fn run(
        &mut self,
        base: &KnowledgeBase,
        overlay: &Overlay,
        queries: &[Term],
        cell: Cell,
    ) -> Vec<Retrieval> {
        let (mode, cache) = (cell.mode, usize::from(!cell.cache));
        let budget = [QueryBudget::UNLIMITED, GENEROUS][usize::from(cell.generous)];
        let token = CancelToken::new(&budget);
        let requests = queries.chunks(if cell.batch { queries.len() } else { 1 });
        let client = &mut self.clients[cache][usize::from(cell.generous)];
        let router = &self.routers[cache];
        let batches = requests.map(|request| match (cell.path, cell.batch) {
            (Path::Free, _) => {
                // The bare base when there is nothing to merge.
                let overlay = Some(overlay).filter(|o| !o.is_empty());
                let refs: Vec<&Term> = request.iter().collect();
                let cx = &mut RequestContext::new(token.clone());
                retrieve_batch(base, overlay, &refs, mode, &CrsOptions::default(), cx).unwrap()
            }
            (Path::Server, _) => self.servers[cache]
                .retrieve_batch(request, mode, &mut RequestContext::new(token.clone()))
                .unwrap(),
            (Path::Served, false) => vec![client.retrieve(&request[0], mode).unwrap()],
            (Path::Served, true) => client.retrieve_batch(request, mode).unwrap(),
            (Path::Routed, false) => vec![router.retrieve(&request[0], mode).unwrap()],
            (Path::Routed, true) => {
                let cx = &mut RequestContext::new(token.clone());
                Service::retrieve_batch(router, request, mode, cx).unwrap()
            }
        });
        batches.flatten().collect()
    }

    /// A solve on the cache-on server, in process and served.
    fn solve(
        &mut self,
        goals: &[Term],
        names: &[String],
        options: &SolveOptions,
    ) -> [SolveOutcome; 2] {
        let local =
            self.servers[0].solve_goals(goals, names, options, &mut RequestContext::unlimited());
        let served = self.clients[0][0].solve_goals(goals, names, options);
        [local.unwrap(), served.unwrap()]
    }
}
