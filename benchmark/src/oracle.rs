//! The naive reference the engine's replies are checked against, and the
//! failure accounting built on it.
//!
//! The oracle is a `(functor, arity) -> Vec<clause head>` list with
//! assert/retract applied in commit order, plus full unification. It has
//! no FS1, no FS2, no cache and no threads. Its one concession to the
//! 100 000-clause predicates is a first-argument bucket (the classic
//! Prolog index): a query whose first argument is an atom or integer only
//! visits heads filed under that constant, plus every head whose first
//! argument is not a constant. The oracle parses the generated source in
//! its own symbol namespace, so it shares nothing with the engine but the
//! text.

use crate::layers::{self, ArgKey, Symbols, Term};
use std::collections::HashMap;

#[derive(Debug, Default)]
struct Predicate {
    /// Heads in clause order; `None` once retracted. An index into this
    /// list is the clause's id for as long as the predicate is unmutated.
    heads: Vec<Option<Term>>,
    by_first: HashMap<ArgKey, Vec<u32>>,
    /// Heads whose first argument is a variable or compound.
    open: Vec<u32>,
}

impl Predicate {
    fn push(&mut self, head: Term, first: Option<ArgKey>) {
        let id = self.heads.len() as u32;
        match first {
            Some(key) => self.by_first.entry(key).or_default().push(id),
            None => self.open.push(id),
        }
        self.heads.push(Some(head));
    }
}

#[derive(Debug, Default)]
pub struct Oracle {
    symbols: Symbols,
    preds: HashMap<(u32, usize), Predicate>,
}

impl Oracle {
    pub fn new() -> Self {
        Oracle {
            symbols: Symbols::new(),
            preds: HashMap::new(),
        }
    }

    /// Appends every clause of `source`, in order (consult and assert are
    /// the same operation here).
    pub fn assert(&mut self, source: &str) {
        for head in self.symbols.heads(source) {
            let (pred, first) = layers::shape_of(&head).expect("clause heads are callable");
            self.preds.entry(pred).or_default().push(head, first);
        }
    }

    /// Removes the first live clause structurally equal to the single
    /// clause in `source`; `false` if none matched.
    pub fn retract(&mut self, source: &str) -> bool {
        let heads = self.symbols.heads(source);
        let [target] = heads.as_slice() else {
            panic!("retract takes exactly one clause: {source:?}");
        };
        let (pred, _) = layers::shape_of(target).expect("clause heads are callable");
        let Some(pred) = self.preds.get_mut(&pred) else {
            return false;
        };
        match pred
            .heads
            .iter_mut()
            .find(|slot| slot.as_ref() == Some(target))
        {
            Some(slot) => {
                *slot = None;
                true
            }
            None => false,
        }
    }

    /// Ids (positions in the predicate's clause order) of the live heads
    /// that unify with `query`, ascending.
    pub fn answers(&mut self, query: &str) -> Vec<u32> {
        let query = self.symbols.term(query);
        self.answer_heads(&query)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    fn answer_heads(&self, query: &Term) -> Vec<(u32, &Term)> {
        let Some((pred, first)) = layers::shape_of(query) else {
            return Vec::new();
        };
        let Some(pred) = self.preds.get(&pred) else {
            return Vec::new();
        };
        let mut ids: Vec<u32> = match first {
            Some(key) => {
                let mut ids = pred.by_first.get(&key).cloned().unwrap_or_default();
                ids.extend_from_slice(&pred.open);
                ids.sort_unstable();
                ids
            }
            None => (0..pred.heads.len() as u32).collect(),
        };
        ids.retain(|&id| {
            pred.heads[id as usize]
                .as_ref()
                .is_some_and(|head| layers::unifies(query, head))
        });
        ids.into_iter()
            .map(|id| (id, pred.heads[id as usize].as_ref().expect("retained live")))
            .collect()
    }

    /// The same answers by scanning every head: what the bucket must agree
    /// with (used by the tests).
    #[cfg(test)]
    fn answers_by_full_scan(&mut self, query: &str) -> Vec<u32> {
        let query = self.symbols.term(query);
        let Some((pred, _)) = layers::shape_of(&query) else {
            return Vec::new();
        };
        let Some(pred) = self.preds.get(&pred) else {
            return Vec::new();
        };
        (0..pred.heads.len() as u32)
            .filter(|&id| {
                pred.heads[id as usize]
                    .as_ref()
                    .is_some_and(|head| layers::unifies(&query, head))
            })
            .collect()
    }

    /// The second argument of every `functor(first, X)` fact, as atom
    /// text, in clause order.
    fn second_args(&mut self, functor: &str, first: &str) -> Vec<String> {
        let query = self.symbols.term(&format!("{functor}({first}, X)"));
        self.answer_heads(&query)
            .into_iter()
            .filter_map(|(_, head)| layers::arg(head, 1))
            .filter_map(|arg| self.symbols.atom_text(arg))
            .map(str::to_owned)
            .collect()
    }

    /// What `ancestor(root, X)` must yield under
    /// `ancestor(A,D) :- parent(A,D).  ancestor(A,D) :- parent(A,P), ancestor(P,D).`:
    /// one solution per derivation path, by walking `parent/2` through the
    /// oracle. Also returns every `ancestor/2` call the resolution makes
    /// (the root first), for replaying its retrievals.
    pub fn descendants(&mut self, root: &str) -> Descent {
        let mut descent = Descent::default();
        self.descend(root, &mut descent);
        descent
    }

    fn descend(&mut self, person: &str, out: &mut Descent) {
        out.calls.push(person.to_owned());
        let children = self.second_args("parent", person);
        out.solutions.extend(children.iter().cloned());
        for child in &children {
            self.descend(child, out);
        }
    }
}

#[derive(Debug, Default, Clone)]
pub struct Descent {
    pub solutions: Vec<String>,
    pub calls: Vec<String>,
}

/// What the oracle expects of one retrieval: the answer count always, the
/// ids for the 1-in-64 sample that is also checked for containment.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    pub count: u32,
    pub ids: Option<Vec<u32>>,
}

/// Every 64th pool entry also carries its ids.
pub const ID_SAMPLE: usize = 64;

impl Expectation {
    pub fn of(oracle: &mut Oracle, query: &str, with_ids: bool) -> Expectation {
        let ids = oracle.answers(query);
        Expectation {
            count: ids.len() as u32,
            ids: with_ids.then_some(ids),
        }
    }
}

/// A retrieval reply as plain data.
pub struct ReplyView {
    pub unified: usize,
    pub degraded: bool,
    /// Sorted candidate ids; the caller fills them in only when the
    /// expectation carries ids to look for.
    pub candidates: Vec<u32>,
}

/// Checks one reply (or the error that came instead) against the oracle.
pub fn check_retrieval(expect: &Expectation, reply: Result<ReplyView, &str>) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("refused or errored: {e}"))?;
    if reply.degraded {
        return Err("reply flagged degraded".to_owned());
    }
    if reply.unified != expect.count as usize {
        return Err(format!(
            "engine unified {} clauses, oracle {}",
            reply.unified, expect.count
        ));
    }
    if let Some(ids) = &expect.ids {
        if let Some(missing) = ids
            .iter()
            .find(|id| reply.candidates.binary_search(id).is_err())
        {
            return Err(format!(
                "false negative: oracle answer {missing} not among the candidates"
            ));
        }
    }
    Ok(())
}

/// Checks one all-solutions solve: same multiset of answers, not cut
/// short, not degraded.
pub fn check_solve(expect: &[String], solved: &layers::Solved) -> Result<(), String> {
    if solved.degraded {
        return Err("solve flagged degraded".to_owned());
    }
    if solved.depth_capped {
        return Err("solve hit the depth cap".to_owned());
    }
    let mut want = expect.to_vec();
    let mut got = solved.answers.clone();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err(format!(
            "engine gave {} solutions, oracle {} (or the sets differ)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Attempted/failed accounting. A failed op counts as missing every
/// latency figure: callers only record a latency for `Ok`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one op; returns whether it passed.
    pub fn note(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Oracle {
        let mut o = Oracle::new();
        o.assert("p(k1, v1, 0). p(k2, v1, 1). p(k1, v2, 2). p(X, v9, 3). q(k1).");
        o
    }

    #[test]
    fn bucket_agrees_with_full_scan() {
        let mut o = sample();
        for q in [
            "p(k1, V, I)",
            "p(k1, v2, I)",
            "p(k3, V, I)",
            "p(K, v1, I)",
            "q(k1)",
            "z(a)",
        ] {
            assert_eq!(o.answers(q), o.answers_by_full_scan(q), "{q}");
        }
        assert_eq!(o.answers("p(k1, V, I)"), vec![0, 2, 3]);
    }

    #[test]
    fn assert_and_retract_apply_in_order() {
        let mut o = sample();
        o.assert("p(k1, v1, 0).");
        assert_eq!(o.answers("p(k1, v1, I)"), vec![0, 4]);
        assert!(o.retract("p(k1, v1, 0)."));
        assert_eq!(
            o.answers("p(k1, v1, I)"),
            vec![4],
            "the first equal clause goes"
        );
        assert!(o.retract("p(k1, v1, 0)."));
        assert!(!o.retract("p(k1, v1, 0)."));
        assert!(o.answers("p(k1, v1, I)").is_empty());
    }

    #[test]
    fn descent_counts_one_solution_per_path() {
        let mut o = Oracle::new();
        o.assert("parent(a, b). parent(a, c). parent(b, d). parent(c, d).");
        let d = o.descendants("a");
        assert_eq!(d.solutions, ["b", "c", "d", "d"]);
        assert_eq!(d.calls, ["a", "b", "d", "c", "d"]);
    }

    /// The self-test the harness rests on: a deliberately wrong reply is
    /// counted as a failure, every way a reply can be wrong.
    #[test]
    fn wrong_replies_are_counted() {
        let mut o = sample();
        let expect = Expectation::of(&mut o, "p(k1, V, I)", true);
        assert_eq!(expect.count, 3);
        let view = |unified, degraded, ids: &[u32]| ReplyView {
            unified,
            degraded,
            candidates: ids.to_vec(),
        };
        let mut tally = Tally::default();
        assert!(tally.note(check_retrieval(&expect, Ok(view(3, false, &[0, 1, 2, 3])))));
        assert!(
            !tally.note(check_retrieval(&expect, Ok(view(2, false, &[0, 2, 3])))),
            "wrong count"
        );
        assert!(
            !tally.note(check_retrieval(&expect, Ok(view(3, false, &[0, 1, 3])))),
            "false negative"
        );
        assert!(
            !tally.note(check_retrieval(&expect, Ok(view(3, true, &[0, 2, 3])))),
            "degraded"
        );
        assert!(
            !tally.note(check_retrieval(&expect, Err("Busy"))),
            "refusal"
        );
        assert_eq!((tally.attempted, tally.failed), (5, 4));
        assert_eq!(tally.failed_share(), 0.8);
        assert!(tally.first_failure.unwrap().contains("oracle 3"));

        let solved = |answers: &[&str], depth_capped| layers::Solved {
            answers: answers.iter().map(|s| s.to_string()).collect(),
            retrievals: 1,
            candidates: 1,
            clauses_unified: 1,
            modeled_ns: 1,
            degraded: false,
            depth_capped,
        };
        let want = ["b".to_owned(), "c".to_owned()];
        assert!(check_solve(&want, &solved(&["c", "b"], false)).is_ok());
        assert!(check_solve(&want, &solved(&["b"], false)).is_err());
        assert!(check_solve(&want, &solved(&["b", "c"], true)).is_err());
    }
}
