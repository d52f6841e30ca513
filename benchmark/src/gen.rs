//! Seeded input generators: knowledge-base source text, query pools and
//! per-caller operation sequences for the four workloads. Everything
//! here is plain text and numbers — the engine only ever sees the
//! generated inputs, never the seed — and the same seed gives the same
//! inputs on every host (the generator carries its own PRNG rather than
//! depending on the workspace's `rand` shim, whose stream may change).

use std::fmt::Write;

/// SplitMix64: tiny, seedable, and identical everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so caller threads
    /// and generators never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1.0) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Knowledge-base source text, one entry per module, in consult order.
#[derive(Debug, Clone, Default)]
pub struct KbSource {
    pub modules: Vec<(String, String)>,
}

/// One retrieval query: its text and the index of the predicate it
/// targets (for ownership and placement decisions).
#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    pub pred: usize,
}

/// Shape of a fact-table knowledge base: `preds` predicates
/// `<prefix><P>(k<K>, v<V>, <I>)`, `facts` clauses each, keys drawn
/// uniformly from `keys` atoms (so ~`facts / keys` clauses per key) and
/// values from `values` atoms; `preds_per_module` predicates share a
/// module.
#[derive(Debug, Clone, Copy)]
pub struct TableShape {
    pub prefix: &'static str,
    pub preds: usize,
    pub facts: usize,
    pub keys: usize,
    pub values: usize,
    pub preds_per_module: usize,
}

impl TableShape {
    pub fn pred_name(&self, p: usize) -> String {
        format!("{}{p}", self.prefix)
    }

    /// The module a predicate is consulted into.
    pub fn module_of(&self, p: usize) -> String {
        format!("m{}", p / self.preds_per_module)
    }

    pub fn generate(&self, rng: &mut Rng) -> KbSource {
        let mut kb = KbSource::default();
        for p in 0..self.preds {
            let module = self.module_of(p);
            if kb.modules.last().map(|(m, _)| m != &module).unwrap_or(true) {
                kb.modules.push((module, String::new()));
            }
            let source = &mut kb.modules.last_mut().expect("pushed above").1;
            for i in 0..self.facts {
                let k = rng.below(self.keys);
                let v = rng.below(self.values);
                writeln!(source, "{}{p}(k{k}, v{v}, {i}).", self.prefix).expect("string write");
            }
        }
        kb
    }

    /// `p<P>(k<K>, V, I)`: every clause filed under one key.
    pub fn key_query(&self, p: usize, k: usize) -> Query {
        Query {
            text: format!("{}{p}(k{k}, V, I)", self.prefix),
            pred: p,
        }
    }
}

/// Scales a full-size count down for `--quick` (1/20, never below `min`).
pub fn scaled(n: usize, quick: bool, min: usize) -> usize {
    if quick {
        (n / 20).max(min)
    } else {
        n
    }
}

/// `inproc_select_100k`: 4 predicates x 100 000 facts over 12 500 keys
/// (~8 clauses per key), and a pool of 50 000 distinct selective queries:
/// 50 % bound key that exists, 25 % bound key that does not, 25 % key
/// and value both bound.
pub fn select_100k(seed: u64, quick: bool) -> (TableShape, KbSource, Vec<Query>) {
    let facts = scaled(100_000, quick, 1000);
    let shape = TableShape {
        prefix: "p",
        preds: 4,
        facts,
        keys: facts / 8,
        values: 64,
        preds_per_module: 4,
    };
    let kb = shape.generate(&mut Rng::new(seed, 1));
    let mut rng = Rng::new(seed, 2);
    let pool_size = scaled(50_000, quick, 500);
    let mut pool = Vec::with_capacity(pool_size);
    // Distinctness: hit queries walk the (pred, key) grid once; miss
    // queries number their absent keys; key+value queries walk the grid
    // again with a drawn value.
    let mut grid: Vec<(usize, usize)> = (0..shape.preds)
        .flat_map(|p| (0..shape.keys).map(move |k| (p, k)))
        .collect();
    rng.shuffle(&mut grid);
    let mut hits = grid.iter().cycle();
    let mut both = grid.iter().rev().cycle();
    for i in 0..pool_size {
        let query = match i % 4 {
            0 | 1 => {
                let &(p, k) = hits.next().expect("cycle");
                shape.key_query(p, k)
            }
            2 => {
                let p = rng.below(shape.preds);
                Query {
                    text: format!("p{p}(absent{i}, V, I)"),
                    pred: p,
                }
            }
            _ => {
                let &(p, k) = both.next().expect("cycle");
                let v = rng.below(shape.values);
                Query {
                    text: format!("p{p}(k{k}, v{v}, I)"),
                    pred: p,
                }
            }
        };
        pool.push(query);
    }
    (shape, kb, pool)
}

/// `served_zipf_1k`: Warren-shaped — 256 small predicates of 1 000 facts —
/// and a pool of 8 192 distinct bound-key queries whose popularity is
/// Zipf(1.0) by pool position.
pub fn zipf_1k(seed: u64, quick: bool) -> (TableShape, KbSource, Vec<Query>, Zipf) {
    let shape = TableShape {
        prefix: "q",
        preds: scaled(256, quick, 16),
        facts: 1000,
        keys: 125,
        values: 16,
        preds_per_module: 16,
    };
    let kb = shape.generate(&mut Rng::new(seed, 1));
    let mut rng = Rng::new(seed, 2);
    let mut grid: Vec<(usize, usize)> = (0..shape.preds)
        .flat_map(|p| (0..shape.keys).map(move |k| (p, k)))
        .collect();
    rng.shuffle(&mut grid);
    // The pool is not scaled with the KB: the cache (2 048 entries) must
    // see the same hot-set/tail split in quick mode.
    let pool_size = 8192.min(grid.len());
    let pool: Vec<Query> = grid[..pool_size]
        .iter()
        .map(|&(p, k)| shape.key_query(p, k))
        .collect();
    let zipf = Zipf::new(pool.len());
    (shape, kb, pool, zipf)
}

/// `routed_mixed_10k`: 32 predicates x 10 000 facts (both shards hold the
/// full base); the read pool is every `(pred, key)` pair.
pub fn mixed_10k(seed: u64, quick: bool) -> (TableShape, KbSource, Vec<Query>) {
    let facts = scaled(10_000, quick, 500);
    let shape = TableShape {
        prefix: "r",
        preds: 32,
        facts,
        keys: facts / 8,
        values: 32,
        preds_per_module: 4,
    };
    let kb = shape.generate(&mut Rng::new(seed, 1));
    let pool = (0..shape.preds)
        .flat_map(|p| (0..shape.keys).map(move |k| (p, k)))
        .map(|(p, k)| shape.key_query(p, k))
        .collect();
    (shape, kb, pool)
}

/// The clause batch one caller asserts on its `n`-th assert commit: four
/// facts under existing key/value atoms (the cluster's symbol namespace
/// is fixed at connect time) with integers no base fact or other caller
/// uses, so each is retractable by structural equality.
pub fn assert_batch(
    shape: &TableShape,
    pred: usize,
    caller: usize,
    n: u64,
    rng: &mut Rng,
) -> Vec<String> {
    (0..4)
        .map(|j| {
            let k = rng.below(shape.keys);
            let v = rng.below(shape.values);
            let id = 10_000_000 * (caller as u64 + 1) + n * 4 + j;
            format!("{}{pred}(k{k}, v{v}, {id}).", shape.prefix)
        })
        .collect()
}

/// The rule set of `clare_workload::family` (which only generates one
/// generation, so `ancestor/2` never recurses there).
pub const FAMILY_RULES: &str = "grandparent(G, C) :- parent(G, P), parent(P, C).
father(F, C) :- parent(F, C), male(F).
mother(M, C) :- parent(M, C), female(M).
sibling(A, B) :- parent(P, A), parent(P, B).
ancestor(A, D) :- parent(A, D).
ancestor(A, D) :- parent(A, P), ancestor(P, D).
";

/// `solve_genealogy`: `generations` generations of `width` persons; each
/// generation is shuffled into couples (a male and a female) and every
/// couple has two children in the next generation, so every person has
/// exactly two children, four grandchildren and eight great-grandchildren.
/// Returns the source and the persons three generations above the leaves
/// (the `ancestor(p, X)` roots: 14 solutions, 15 recursive calls each).
pub fn genealogy(seed: u64, quick: bool) -> (KbSource, Vec<String>) {
    let generations = 6;
    let width = scaled(2048, quick, 128);
    let mut rng = Rng::new(seed, 1);
    let mut facts = String::new();
    let mut genders = String::new();
    let person = |g: usize, i: usize| format!("g{g}_{i}");
    for g in 0..generations {
        for i in 0..width {
            let gender = if i % 2 == 0 { "male" } else { "female" };
            writeln!(genders, "{gender}({}).", person(g, i)).expect("string write");
        }
        if g + 1 == generations {
            break;
        }
        // Even indices are male, odd female: shuffle each half and pair.
        let mut men: Vec<usize> = (0..width).step_by(2).collect();
        let mut women: Vec<usize> = (1..width).step_by(2).collect();
        rng.shuffle(&mut men);
        rng.shuffle(&mut women);
        let mut children: Vec<usize> = (0..width).collect();
        rng.shuffle(&mut children);
        for (c, (&m, &w)) in men.iter().zip(&women).enumerate() {
            for &child in &children[2 * c..2 * c + 2] {
                writeln!(facts, "parent({}, {}).", person(g, m), person(g + 1, child))
                    .expect("string write");
                writeln!(facts, "parent({}, {}).", person(g, w), person(g + 1, child))
                    .expect("string write");
            }
        }
    }
    let mut source = facts;
    source.push_str(&genders);
    source.push_str(FAMILY_RULES);
    let roots = (0..width).map(|i| person(generations - 4, i)).collect();
    (
        KbSource {
            modules: vec![("family".to_owned(), source)],
        },
        roots,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (_, a, qa) = select_100k(7, true);
        let (_, b, qb) = select_100k(7, true);
        let (_, c, _) = select_100k(8, true);
        assert_eq!(a.modules, b.modules);
        assert_eq!(
            qa.iter().map(|q| &q.text).collect::<Vec<_>>(),
            qb.iter().map(|q| &q.text).collect::<Vec<_>>()
        );
        assert_ne!(a.modules, c.modules);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(1, 1);
        let draws = 20_000;
        let head = (0..draws).filter(|_| zipf.sample(&mut rng) < 10).count();
        // H(10) / H(1000) = 2.93 / 7.49 = 0.39.
        assert!((0.34..0.44).contains(&(head as f64 / draws as f64)));
    }

    #[test]
    fn genealogy_gives_every_person_two_children() {
        let (kb, roots) = genealogy(3, true);
        let source = &kb.modules[0].1;
        let root = &roots[0];
        let children = source
            .lines()
            .filter(|l| l.starts_with(&format!("parent({root},")))
            .count();
        assert_eq!(children, 2);
    }
}
