//! The shard map: which backend owns which predicate.
//!
//! Every backend holds the *full* base knowledge base (same build, same
//! symbol namespace — enforced by the hello fingerprint), so sharding is
//! purely a routing discipline over the mutable overlay: each predicate's
//! writes land on exactly one primary, and reads for it go to the same
//! place. The map hashes `functor/arity` with FNV-1a; a predicate listed
//! as *hot* is split one level further by its first argument, so a
//! write-heavy predicate spreads over every shard while queries with a
//! bound first argument still touch exactly one.

/// One shard: a primary backend and an optional log-shipping backup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Address of the primary `clare-served` backend (`host:port`).
    pub primary: String,
    /// Address of the backup, if the shard is replicated.
    pub backup: Option<String>,
}

/// The cluster topology handed to the router.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    /// The shards, in hash order (the routing hash indexes this vector).
    pub shards: Vec<ShardSpec>,
    /// Predicates (`functor`, arity) split by first argument across all
    /// shards instead of living on one.
    ///
    /// Hot predicates are best kept *overlay-only* (no base clauses,
    /// functor merely interned in the base namespace): every shard holds
    /// the full base, so base clauses of a hot predicate would be
    /// answered once per shard when an unbound first argument forces a
    /// broadcast.
    pub hot: Vec<(String, usize)>,
    /// When set, every backend's hello must report exactly this
    /// knowledge-base fingerprint; when `None`, the first backend's
    /// fingerprint becomes the cluster's.
    pub fingerprint: Option<u64>,
}

/// 64-bit FNV-1a — stable across processes and platforms, unlike
/// `DefaultHasher`, so router instances always agree on placement.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where a retrieval (or a single-clause write) must go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Exactly one shard owns the predicate (or the hot sub-shard).
    One(usize),
    /// A hot predicate queried without a bound first argument: every
    /// shard may hold matching overlay clauses, so ask all and merge.
    All,
}

impl ShardMap {
    /// The home shard of a non-hot predicate.
    pub fn route(&self, functor: &str, arity: usize) -> usize {
        let mut key = Vec::with_capacity(functor.len() + 9);
        key.extend_from_slice(functor.as_bytes());
        key.push(b'/');
        key.extend_from_slice(&(arity as u64).to_le_bytes());
        (fnv1a64(&key) % self.shards.len().max(1) as u64) as usize
    }

    /// The sub-shard of a hot predicate for one bound first argument,
    /// identified by a stable byte signature (`arg_sig`).
    pub fn route_hot(&self, functor: &str, arity: usize, arg_sig: &[u8]) -> usize {
        let mut key = Vec::with_capacity(functor.len() + arg_sig.len() + 10);
        key.extend_from_slice(functor.as_bytes());
        key.push(b'/');
        key.extend_from_slice(&(arity as u64).to_le_bytes());
        key.push(0xff);
        key.extend_from_slice(arg_sig);
        (fnv1a64(&key) % self.shards.len().max(1) as u64) as usize
    }

    /// Whether the predicate is first-argument-split.
    pub fn is_hot(&self, functor: &str, arity: usize) -> bool {
        self.hot.iter().any(|(f, a)| f == functor && *a == arity)
    }

    /// Routes one predicate occurrence: `arg_sig` is the stable byte
    /// signature of the bound first argument, or `None` when it is
    /// unbound (or the predicate has no arguments).
    pub fn place(&self, functor: &str, arity: usize, arg_sig: Option<&[u8]>) -> Placement {
        if self.is_hot(functor, arity) {
            match arg_sig {
                Some(sig) => Placement::One(self.route_hot(functor, arity, sig)),
                None => Placement::All,
            }
        } else {
            Placement::One(self.route(functor, arity))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(n: usize) -> ShardMap {
        ShardMap {
            shards: (0..n)
                .map(|i| ShardSpec {
                    primary: format!("127.0.0.1:{}", 7000 + i),
                    backup: None,
                })
                .collect(),
            hot: vec![("hot".to_owned(), 2)],
            fingerprint: None,
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let m = map(4);
        for (f, a) in [("p", 2), ("q", 0), ("edge", 3), ("p", 3)] {
            let s = m.route(f, a);
            assert!(s < 4);
            assert_eq!(s, m.route(f, a), "same key must route identically");
        }
        // Arity is part of the key: p/2 and p/3 may differ (and the hash
        // must at least distinguish the byte encodings).
        assert_eq!(m.place("p", 2, None), Placement::One(m.route("p", 2)));
    }

    #[test]
    fn hot_predicates_split_by_first_argument() {
        let m = map(4);
        assert_eq!(m.place("hot", 2, None), Placement::All);
        let one = m.place("hot", 2, Some(b"k1"));
        assert!(matches!(one, Placement::One(s) if s < 4));
        assert_eq!(one, m.place("hot", 2, Some(b"k1")));
        // Different first arguments spread over the shards: with 64 keys
        // and 4 shards, seeing only one shard would be a broken hash.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            if let Placement::One(s) = m.place("hot", 2, Some(format!("k{i}").as_bytes())) {
                seen.insert(s);
            }
        }
        assert!(seen.len() > 1, "first-arg split never left one shard");
    }

    #[test]
    fn sixteen_predicates_spread_evenly() {
        // pred0/2 .. pred15/2 place 8/8 over two shards and 4/4/4/4 over
        // four, so a routed mix over them is balanced; a skewed split is
        // a placement change that moves every shard's load.
        for shards in [2, 4] {
            let m = map(shards);
            let mut load = vec![0; shards];
            for p in 0..16 {
                load[m.route(&format!("pred{p}"), 2)] += 1;
            }
            assert_eq!(load, vec![16 / shards; shards], "{shards} shards");
        }
    }
}
