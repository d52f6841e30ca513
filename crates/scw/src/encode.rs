//! Encoding clause heads into codeword+mask signatures and queries into
//! match descriptors.
//!
//! The key discipline (documented in DESIGN.md):
//!
//! * every argument position `i` below the encoding limit contributes a
//!   **shallow key** — its type and top-level content (atom/int/float
//!   value; functor and arity for structures; a bare type marker for
//!   lists, whose length a partial list does not pin);
//! * a fully ground argument additionally contributes a **deep key** —
//!   a structural hash of the whole term;
//! * a variable argument contributes nothing and sets its mask to
//!   [`ArgMask::Var`]; a complex argument containing variables contributes
//!   only its shallow key and sets [`ArgMask::Open`].
//!
//! At match time the query's required bits are checked per position,
//! relaxed by the clause's mask — exactly the role of the paper's "mask
//! bits" extension: without them, a clause head `p(X)` could never match a
//! query `p(a)` because the clause encoded no bits for the position.

use crate::codeword::{hash_term, splitmix64, Codeword};
use crate::config::ScwConfig;
use clare_term::Term;

/// Per-position mask state stored in an index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgMask {
    /// The argument is fully ground: both keys were encoded.
    Ground,
    /// The argument is complex but contains variables: only the shallow
    /// key was encoded.
    Open,
    /// The argument is a variable: nothing was encoded; any query bits for
    /// this position must be ignored.
    Var,
}

/// A clause head's index signature: superimposed codeword plus mask bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseSignature {
    /// The superimposed codeword over all encoded argument keys.
    pub codeword: Codeword,
    /// Mask per encoded argument position.
    pub masks: Vec<ArgMask>,
}

/// Key domain separators so a shallow key can never collide with a deep
/// key of the same position by construction.
const DOMAIN_SHALLOW: u64 = 0x51;
const DOMAIN_DEEP: u64 = 0xDE;

fn position_key(position: usize, domain: u64, payload: u64) -> u64 {
    splitmix64(payload ^ splitmix64((position as u64) << 8 | domain))
}

/// The shallow (type + top content) key payload of an argument, or `None`
/// for variables.
fn shallow_payload(term: &Term) -> Option<u64> {
    match term {
        Term::Atom(s) => Some(0xA1_0000_0000 ^ s.offset() as u64),
        Term::Int(v) => Some(0x12_0000_0000 ^ (*v as u64)),
        Term::Float(id) => Some(0xF3_0000_0000 ^ id.offset() as u64),
        Term::Struct { functor, args } => {
            Some(0x57_0000_0000 ^ ((functor.offset() as u64) << 8) ^ args.len() as u64)
        }
        // Lists key on type only: a partial list does not pin its length,
        // so including the arity would create false negatives against
        // queries like [a, b] vs clause [a | T].
        Term::List { .. } => Some(0x4C_0000_0000),
        Term::Var(_) | Term::Anon => None,
    }
}

/// Walks a clause head's encoding, one encoded position at a time in
/// position order: its mask and the keys it contributes (none, the shallow
/// key, or the shallow and the deep key). The single statement of the key
/// discipline — [`encode_clause_signature`] and
/// [`IndexFile::insert`](crate::IndexFile::insert) both fold it.
///
/// Arguments beyond `config.encoded_args()` are ignored — the paper's
/// "restrictive codeword representation" truncation.
pub(crate) fn encode_positions(
    head: &Term,
    config: &ScwConfig,
    mut position: impl FnMut(ArgMask, &[u64]),
) {
    for (i, arg) in head.children().take(config.encoded_args()).enumerate() {
        match shallow_payload(arg) {
            None => position(ArgMask::Var, &[]),
            Some(payload) => {
                let shallow = position_key(i, DOMAIN_SHALLOW, payload);
                if !arg.is_complex() {
                    position(ArgMask::Ground, &[shallow]);
                } else if arg.is_ground() {
                    let deep = position_key(i, DOMAIN_DEEP, hash_term(arg));
                    position(ArgMask::Ground, &[shallow, deep]);
                } else {
                    position(ArgMask::Open, &[shallow]);
                }
            }
        }
    }
}

/// Encodes a clause head into its index signature.
///
/// Arguments beyond `config.encoded_args()` are ignored — the paper's
/// "restrictive codeword representation" truncation.
pub fn encode_clause_signature(head: &Term, config: &ScwConfig) -> ClauseSignature {
    let mut codeword = Codeword::zero(config);
    let mut masks = Vec::new();
    encode_positions(head, config, |mask, keys| {
        for &key in keys {
            codeword.set_key(config, key);
        }
        masks.push(mask);
    });
    ClauseSignature { codeword, masks }
}

/// One query argument's matching requirement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryArg {
    /// A variable: matches every clause (contributes no bits) — the
    /// shared-variable false-drop source.
    Any,
    /// Only the shallow key is required (complex argument containing
    /// variables, or a simple constant).
    Shallow(Codeword),
    /// Both keys are required against fully-ground clause arguments
    /// (ground complex argument).
    Ground {
        /// Shallow-key bits.
        shallow: Codeword,
        /// Deep-key bits, checked only when the clause argument is ground.
        deep: Codeword,
    },
}

/// A compiled query: per-position requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDescriptor {
    /// Requirements for each encoded argument position.
    pub args: Vec<QueryArg>,
}

impl QueryArg {
    /// The codewords a clause argument with mask state `mask` must be a
    /// superset of for this query argument to pass FS1.
    ///
    /// This is the single statement of the SCW+MB relaxation rules —
    /// `Var` relaxes everything, `Open` drops the deep key — consumed by
    /// both the reference matcher ([`QueryDescriptor::matches`]) and the
    /// bit-sliced scan's query compiler, so the two paths cannot drift
    /// apart.
    pub fn required_codewords(&self, mask: ArgMask) -> impl Iterator<Item = &Codeword> {
        let (first, second): (Option<&Codeword>, Option<&Codeword>) = match (self, mask) {
            (QueryArg::Any, _) | (_, ArgMask::Var) => (None, None),
            (QueryArg::Shallow(cw), _) => (Some(cw), None),
            (QueryArg::Ground { shallow, .. }, ArgMask::Open) => (Some(shallow), None),
            (QueryArg::Ground { shallow, deep }, ArgMask::Ground) => (Some(shallow), Some(deep)),
        };
        first.into_iter().chain(second)
    }
}

impl QueryDescriptor {
    /// True if no position constrains anything — FS1 degenerates to
    /// retrieving the entire predicate (e.g. `married_couple(S, S)`).
    pub fn is_unconstrained(&self) -> bool {
        self.args.iter().all(|a| matches!(a, QueryArg::Any))
    }

    /// Tests this query against a clause signature.
    pub fn matches(&self, signature: &ClauseSignature) -> bool {
        self.args.iter().enumerate().all(|(i, req)| {
            // A clause position beyond the signature means the clause had
            // fewer encoded args (arity mismatch is caught before FS1).
            let mask = signature.masks.get(i).copied().unwrap_or(ArgMask::Var);
            req.required_codewords(mask)
                .all(|cw| cw.subset_of(&signature.codeword))
        })
    }
}

/// Encodes a query into its per-position requirements.
pub fn encode_query_descriptor(query: &Term, config: &ScwConfig) -> QueryDescriptor {
    let mut args = Vec::new();
    for (i, arg) in query.children().take(config.encoded_args()).enumerate() {
        match shallow_payload(arg) {
            None => args.push(QueryArg::Any),
            Some(payload) => {
                let shallow = Codeword::key_bits(config, position_key(i, DOMAIN_SHALLOW, payload));
                if arg.is_complex() && arg.is_ground() {
                    let deep =
                        Codeword::key_bits(config, position_key(i, DOMAIN_DEEP, hash_term(arg)));
                    args.push(QueryArg::Ground { shallow, deep });
                } else {
                    args.push(QueryArg::Shallow(shallow));
                }
            }
        }
    }
    QueryDescriptor { args }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_term::parser::parse_term;
    use clare_term::SymbolTable;

    // clare-scw deliberately does not depend on clare-unify; soundness
    // against full unification is property-tested at the integration level.

    fn accepts(query: &str, clause: &str) -> bool {
        let mut sy = SymbolTable::new();
        let q = parse_term(query, &mut sy).unwrap();
        let c = parse_term(clause, &mut sy).unwrap();
        let config = ScwConfig::paper();
        let sig = encode_clause_signature(&c, &config);
        encode_query_descriptor(&q, &config).matches(&sig)
    }

    #[test]
    fn ground_equality_accepted() {
        assert!(accepts("p(a, 1)", "p(a, 1)"));
        assert!(accepts("p(f(x), [1, 2])", "p(f(x), [1, 2])"));
    }

    #[test]
    fn distinct_constants_usually_rejected() {
        // With 64-bit codewords collisions are rare for single keys.
        assert!(!accepts("p(a)", "p(b)"));
        assert!(!accepts("p(1)", "p(2)"));
    }

    #[test]
    fn clause_variable_mask_prevents_false_negative() {
        assert!(accepts("p(a)", "p(X)"));
        assert!(accepts("p(f(a, b))", "p(Y)"));
        assert!(accepts("p(a, b)", "p(X, b)"));
    }

    #[test]
    fn open_structure_mask_relaxes_deep_key() {
        assert!(
            accepts("p(g(a))", "p(g(X))"),
            "open clause arg matches any g/1"
        );
        assert!(
            accepts("p(g(X))", "p(g(a))"),
            "open query arg requires only g/1"
        );
        assert!(!accepts("p(g(a))", "p(h(X))"), "different functor rejected");
        assert!(
            !accepts("p(g(a))", "p(g(X, Y))"),
            "different arity rejected"
        );
    }

    #[test]
    fn ground_structure_deep_key_discriminates() {
        assert!(!accepts("p(g(a))", "p(g(b))"));
        assert!(accepts("p(g(a))", "p(g(a))"));
    }

    #[test]
    fn query_variables_match_everything() {
        assert!(accepts("p(X)", "p(a)"));
        assert!(accepts("p(X, Y)", "p(f(1), [2])"));
        assert!(accepts("p(_, _)", "p(a, b)"));
    }

    #[test]
    fn shared_variables_are_invisible_to_fs1() {
        // The paper's motivating example: FS1 cannot distinguish these.
        assert!(accepts("married_couple(S, S)", "married_couple(ann, bob)"));
        assert!(accepts("married_couple(S, S)", "married_couple(sue, sue)"));
        let mut sy = SymbolTable::new();
        let q = parse_term("married_couple(S, S)", &mut sy).unwrap();
        let d = encode_query_descriptor(&q, &ScwConfig::paper());
        assert!(d.is_unconstrained());
    }

    #[test]
    fn partial_lists_do_not_false_negative() {
        assert!(accepts("p([a, b])", "p([a | T])"));
        assert!(accepts("p([a | T])", "p([a, b])"));
        assert!(accepts("p([a, b])", "p([a, b])"));
    }

    #[test]
    fn truncation_beyond_encoded_args() {
        // Arguments beyond position 12 are invisible: mismatches there
        // survive FS1 (a documented false-drop source).
        let args_q: Vec<String> = (0..13).map(|i| format!("q{i}")).collect();
        let mut args_c = args_q.clone();
        args_c[12] = "different".to_owned();
        let q = format!("p({})", args_q.join(", "));
        let c = format!("p({})", args_c.join(", "));
        assert!(accepts(&q, &c), "13th argument mismatch is not seen");
        // …but a mismatch within the first 12 is.
        let mut args_c2 = args_q.clone();
        args_c2[5] = "different".to_owned();
        let c2 = format!("p({})", args_c2.join(", "));
        assert!(!accepts(&q, &c2));
    }

    #[test]
    fn signature_codeword_density() {
        let mut sy = SymbolTable::new();
        let c = parse_term("p(a, b, c, d)", &mut sy).unwrap();
        let config = ScwConfig::paper();
        let sig = encode_clause_signature(&c, &config);
        let ones = sig.codeword.count_ones();
        assert!(ones > 0);
        assert!(ones <= 4 * config.bits_per_key() as u32);
        assert_eq!(sig.masks, vec![ArgMask::Ground; 4]);
    }
}
