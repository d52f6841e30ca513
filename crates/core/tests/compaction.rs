//! A compacted base has the shape of a fresh build of the same clause
//! lists, and shares what it did not change.
//!
//! Random multi-module bases take random assert/retract scripts through a
//! memtable [`Overlay`] and fold twice through [`Overlay::compacted_kb`].
//! Every first round ends by asserting a new predicate into an existing
//! module and two into a new one, then retracting every clause of two
//! predicates (one of them alone in its module). Every second round ends
//! with a bulk assert that pushes a Small module over the large-module
//! threshold. After each fold:
//!
//! - (a) modules, predicates and clause lists equal a plain model of the
//!   script: base order kept, retracts removed, adds appended in assert
//!   order, new predicates placed in first-assert order;
//! - (b) the content fingerprint equals a from-scratch build of those
//!   lists under the overlay's symbol table;
//! - (c) every predicate without a delta is the old base's, by pointer;
//! - (d) the touched predicates are exactly those of the modules that had
//!   a delta.
//!
//! That every retrieval over a compacted base equals a fresh build's, in
//! all four modes, is criterion 5 of the contract harness
//! (`tests/contract.rs`), which folds a Small module over the threshold too.

use clare_kb::{KbBuilder, KbConfig, KnowledgeBase, Module, ModuleKind};
use clare_term::{Symbol, SymbolTable};
use clare_wal::{Overlay, WalOp};
use proptest::prelude::*;

/// Every predicate a script touches, with its arity and home module. `u`,
/// `v` and `w` are not in the base; `mc` holds `t` alone; `md` is new.
const PREDS: [(&str, usize, &str); 8] = [
    ("p", 2, "ma"),
    ("q", 2, "ma"),
    ("r", 1, "ma"),
    ("s", 2, "mb"),
    ("t", 1, "mc"),
    ("u", 1, "ma"),
    ("v", 2, "md"),
    ("w", 1, "md"),
];

/// A deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn clause(&mut self, pred: usize) -> String {
        let (name, arity, _) = PREDS[pred];
        let (k, v) = (self.below(12), self.below(4));
        match (name, arity) {
            ("r", _) if self.below(2) == 0 => format!("r(k{k}) :- p(k{k}, v{v})."),
            ("r", _) => format!("r(X) :- q(X, v{v})."),
            (_, 2) => format!("{name}(k{k}, v{v})."),
            _ => format!("{name}(k{k})."),
        }
    }
}

/// One predicate of the model: its clause texts with the seq that
/// asserted each (0 for a clause of the folded base).
struct Pred {
    at: usize,
    clauses: Vec<(String, u64)>,
}

/// The plain model: folded modules in base order, plus the predicates
/// created since the last fold in creation order.
#[derive(Default)]
struct Model {
    modules: Vec<(&'static str, Vec<Pred>)>,
    fresh: Vec<Pred>,
}

impl Model {
    fn pred_mut(&mut self, at: usize) -> Option<&mut Pred> {
        let folded = self.modules.iter_mut().flat_map(|(_, ps)| ps.iter_mut());
        folded.chain(self.fresh.iter_mut()).find(|p| p.at == at)
    }

    fn assert(&mut self, at: usize, text: String, seq: u64) {
        match self.pred_mut(at) {
            Some(pred) => pred.clauses.push((text, seq)),
            None => self.fresh.push(Pred {
                at,
                clauses: vec![(text, seq)],
            }),
        }
    }

    /// Removes the first live clause equal to `text`; absent is a no-op.
    fn retract(&mut self, at: usize, text: &str) {
        if let Some(pred) = self.pred_mut(at) {
            if let Some(i) = pred.clauses.iter().position(|(t, _)| t == text) {
                pred.clauses.remove(i);
            }
        }
    }

    fn live(&mut self, at: usize) -> Vec<String> {
        let clauses = self.pred_mut(at).map(|p| p.clauses.clone());
        clauses
            .unwrap_or_default()
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// What a fold does: emptied predicates go; each new predicate joins
    /// its home module (or a new one), by the seq of its earliest live
    /// clause, ties by symbol id.
    fn fold(&mut self, symbols: &SymbolTable) {
        for (_, preds) in &mut self.modules {
            preds.retain(|p| !p.clauses.is_empty());
        }
        let mut fresh: Vec<Pred> = std::mem::take(&mut self.fresh);
        fresh.retain(|p| !p.clauses.is_empty());
        fresh.sort_by_key(|p| {
            let (name, arity, _) = PREDS[p.at];
            let offset = symbols.lookup_atom(name).map(Symbol::offset);
            (p.clauses[0].1, offset, arity)
        });
        for pred in fresh {
            let home = PREDS[pred.at].2;
            match self.modules.iter_mut().find(|(m, _)| *m == home) {
                Some((_, preds)) => preds.push(pred),
                None => self.modules.push((home, vec![pred])),
            }
        }
    }

    fn build(&self, symbols: &SymbolTable, config: &KbConfig) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        *b.symbols_mut() = symbols.clone();
        for (module, preds) in &self.modules {
            let texts = preds
                .iter()
                .flat_map(|p| p.clauses.iter().map(|(t, _)| t.as_str()));
            b.consult(module, &texts.collect::<Vec<_>>().join("\n"))
                .unwrap();
        }
        b.finish(config.clone())
    }
}

/// Applies one op to the overlay and the model alike.
fn run(op: (usize, bool, String), overlay: &mut Overlay, model: &mut Model, base: &KnowledgeBase) {
    let (at, is_assert, text) = op;
    let seq = overlay.max_seq() + 1;
    let (module, source) = (PREDS[at].2.to_owned(), text.clone());
    let wal_op = match is_assert {
        true => WalOp::Assert { module, source },
        false => WalOp::Retract { module, source },
    };
    overlay.apply(seq, &wal_op, base).unwrap();
    match is_assert {
        true => model.assert(at, text, seq),
        false => model.retract(at, &text),
    }
}

/// Folds `overlay` into `base` and checks (a)–(d) against the model.
fn fold_and_check(
    seed: u64,
    base: &KnowledgeBase,
    overlay: &Overlay,
    model: &mut Model,
) -> KnowledgeBase {
    let compacted = overlay.compacted_kb(base).unwrap();
    let symbols = overlay.symbols();
    model.fold(symbols);
    let fresh = model.build(symbols, base.config());

    // (a) and (b).
    let shape = |kb: &KnowledgeBase| -> Vec<(String, Vec<(String, usize)>)> {
        let preds = |m: &Module| -> Vec<(String, usize)> {
            let keys = m.predicates().iter().map(|p| p.indicator());
            keys.map(|(f, a)| (symbols.atom_text(f).to_owned(), a))
                .collect()
        };
        kb.modules()
            .iter()
            .map(|m| (m.name().to_owned(), preds(m)))
            .collect()
    };
    let want: Vec<(String, Vec<(String, usize)>)> = model
        .modules
        .iter()
        .map(|(m, preds)| {
            let keys = preds
                .iter()
                .map(|p| (PREDS[p.at].0.to_owned(), PREDS[p.at].1));
            (m.to_string(), keys.collect())
        })
        .collect();
    assert_eq!(
        shape(&compacted),
        want,
        "seed {seed}: module and predicate order"
    );
    assert_eq!(shape(&fresh), want, "seed {seed}: the model's own build");
    for (got, fresh) in compacted.modules().iter().zip(fresh.modules()) {
        assert_eq!(
            got.kind(),
            fresh.kind(),
            "seed {seed}: kind of {}",
            got.name()
        );
        for (p, f) in got.predicates().iter().zip(fresh.predicates()) {
            assert_eq!(
                p.clauses(),
                f.clauses(),
                "seed {seed}: clauses of {:?}",
                p.indicator()
            );
        }
    }
    assert_eq!(
        compacted.content_fingerprint(),
        fresh.content_fingerprint(),
        "seed {seed}: fingerprint"
    );

    // (c) and (d).
    let changed = |(functor, arity): (Symbol, usize)| {
        overlay.delta(functor, arity).is_some_and(|d| !d.is_empty())
    };
    let mut dirty: Vec<&str> = Vec::new();
    for (&(functor, arity), delta) in overlay.predicates() {
        if !delta.is_empty() {
            let home = base.module_of(functor, arity).map(|(m, _)| m.name());
            dirty.push(home.unwrap_or(delta.module()));
        }
    }
    let mut touched = Vec::new();
    for module in compacted.modules() {
        for pred in module.predicates() {
            let key = pred.indicator();
            if dirty.contains(&module.name()) {
                touched.push(key);
            }
            if !changed(key) {
                let old = base
                    .predicate(key.0, key.1)
                    .expect("unchanged predicates are the base's");
                assert!(
                    std::ptr::eq(&**pred, old),
                    "seed {seed}: {key:?} was recompiled"
                );
            }
        }
    }
    touched.sort_unstable_by_key(|(s, a)| (s.offset(), *a));
    assert_eq!(
        compacted.touched_predicates(),
        touched.as_slice(),
        "seed {seed}: touched"
    );
    assert_eq!(compacted.parent_generation(), Some(base.generation()));

    compacted
}

/// Runs `n` random asserts and retracts; most retracts hit a live clause.
fn random_ops(
    rng: &mut Rng,
    n: usize,
    overlay: &mut Overlay,
    model: &mut Model,
    base: &KnowledgeBase,
) {
    for _ in 0..n {
        let at = rng.below(PREDS.len());
        let live = model.live(at);
        let op = match rng.below(20) {
            0..=10 => (at, true, rng.clause(at)),
            11..=17 if !live.is_empty() => (at, false, live[rng.below(live.len())].clone()),
            _ => (at, false, rng.clause(at)),
        };
        run(op, overlay, model, base);
    }
}

fn check_script(seed: u64) {
    let mut rng = Rng(seed);
    // The base: p, q, r in `ma`, s in `mb`, t alone in `mc`.
    let mut model = Model::default();
    for (at, size) in [
        (0, 5 + rng.below(35)),
        (1, 5 + rng.below(25)),
        (2, 2 + rng.below(8)),
        (3, 5 + rng.below(55)),
        (4, 1 + rng.below(5)),
    ] {
        let home = PREDS[at].2;
        let clauses = (0..size).map(|_| (rng.clause(at), 0)).collect();
        let pred = Pred { at, clauses };
        match model.modules.iter_mut().find(|(m, _)| *m == home) {
            Some((_, preds)) => preds.push(pred),
            None => model.modules.push((home, vec![pred])),
        }
    }
    // `ma` starts Small with room for every random assert but not for the
    // bulk one.
    let probe = model.build(&SymbolTable::new(), &KbConfig::default());
    let config = KbConfig {
        large_module_threshold: probe.modules()[0].compiled_bytes() + 4096,
        ..KbConfig::default()
    };
    let mut base = model.build(&SymbolTable::new(), &config);
    assert_eq!(base.modules()[0].kind(), ModuleKind::Small);

    // Round one: random ops, then new predicates in an existing and a new
    // module, then every clause of q and of t retracted.
    let mut overlay = Overlay::new(base.symbols().clone());
    let n = 10 + rng.below(20);
    random_ops(&mut rng, n, &mut overlay, &mut model, &base);
    for at in [7, 5, 6] {
        let text = rng.clause(at);
        run((at, true, text), &mut overlay, &mut model, &base);
    }
    for at in [1, 4] {
        for text in model.live(at) {
            run((at, false, text), &mut overlay, &mut model, &base);
        }
    }
    base = fold_and_check(seed, &base, &overlay, &mut model);
    assert!(base.lookup("q", 2).is_none() && base.lookup("t", 1).is_none());
    assert_eq!(base.modules()[0].kind(), ModuleKind::Small);

    // Round two: random ops, then a bulk assert that flips `ma` to Large.
    let mut overlay = Overlay::new(base.symbols().clone());
    let n = 10 + rng.below(20);
    random_ops(&mut rng, n, &mut overlay, &mut model, &base);
    let bulk = (0..base.config().large_module_threshold / 8)
        .map(|i| format!("p(bulk{i}, v{}).", i % 4))
        .collect::<Vec<_>>()
        .join("\n");
    let seq = overlay.max_seq() + 1;
    let op = WalOp::Assert {
        module: "ma".into(),
        source: bulk.clone(),
    };
    overlay.apply(seq, &op, &base).unwrap();
    for text in bulk.lines() {
        model.assert(0, text.to_owned(), seq);
    }
    let last = fold_and_check(seed, &base, &overlay, &mut model);
    assert_eq!(
        last.modules()[0].kind(),
        ModuleKind::Large,
        "seed {seed}: no flip"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacted_base_equals_a_fresh_build(seed in any::<u64>()) {
        check_script(seed);
    }
}
