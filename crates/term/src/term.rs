//! Prolog terms and clauses.
//!
//! The term shape mirrors the CLARE hardware type scheme (Table A1 of the
//! paper) rather than classical Prolog cons-pair lists: lists are first-class
//! with an explicit optional tail, because the hardware distinguishes
//! *terminated* list tags (`111aaaaa` / `110aaaaa`) from *unterminated* list
//! tags (`101aaaaa` / `100aaaaa`), and anonymous variables (`0x20`) are
//! distinct from named variables.

#[cfg(test)]
use crate::symbol::SymbolTable;
use crate::symbol::{FloatId, Symbol};
use std::fmt;

/// A clause-scoped variable identity.
///
/// Variables are numbered by first occurrence within a clause (or query).
/// Two occurrences of the same source-text name in the same clause share one
/// `VarId`; the PIF compiler later classifies each *occurrence* as "first"
/// or "subsequent", which is where the paper's `1st-QV`/`Sub-QV` and
/// `1st-DV`/`Sub-DV` type tags come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable id from its first-occurrence index.
    pub fn new(index: u32) -> Self {
        VarId(index)
    }

    /// The first-occurrence index of this variable within its clause.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_V{}", self.0)
    }
}

/// Position of a clause within its predicate.
///
/// Prolog attaches meaning to clause order (the paper stresses that a
/// general-purpose knowledge base must preserve the user-specified ordering,
/// unlike relational-database coupling). `ClauseId` is that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseId(u32);

impl ClauseId {
    /// Creates a clause id from a zero-based position.
    pub fn new(index: u32) -> Self {
        ClauseId(index)
    }

    /// Zero-based position of the clause in its predicate.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clause#{}", self.0)
    }
}

/// A Prolog term.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, Term};
///
/// let mut symbols = SymbolTable::new();
/// let likes = symbols.intern_atom("likes");
/// let mary = symbols.intern_atom("mary");
/// let t = Term::Struct {
///     functor: likes,
///     args: vec![Term::Atom(mary), Term::Var(clare_term::VarId::new(0))],
/// };
/// assert_eq!(t.arity(), 2);
/// assert!(!t.is_ground());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named constant, interned in the symbol table.
    Atom(Symbol),
    /// An integer constant. PIF encodes these in-line (28-bit two's
    /// complement); the encoder rejects values outside that range.
    Int(i64),
    /// A floating point constant, interned in the symbol table.
    Float(FloatId),
    /// A named variable, numbered by first occurrence within the clause.
    Var(VarId),
    /// The anonymous variable `_`: matches anything, binds nothing
    /// (type tag `0x20` in Table A1).
    Anon,
    /// A compound term `functor(arg1, ..., argN)` with `N >= 1`.
    Struct {
        /// Interned functor name.
        functor: Symbol,
        /// Argument terms; never empty (a zero-arity "structure" is an
        /// [`Term::Atom`]).
        args: Vec<Term>,
    },
    /// A list `[e1, ..., eN]` (terminated, `tail == None`) or
    /// `[e1, ..., eN | Tail]` (unterminated, `tail == Some(..)`).
    ///
    /// The empty terminated list is `List { items: vec![], tail: None }`,
    /// i.e. `[]`.
    List {
        /// The listed elements.
        items: Vec<Term>,
        /// `None` for a proper (terminated) list; `Some(tail)` for a partial
        /// list such as `[a, b | T]`. A well-formed tail is a variable or
        /// another list, but any term is representable (as in Prolog).
        tail: Option<Box<Term>>,
    },
}

impl Term {
    /// Builds the empty list `[]`.
    pub fn nil() -> Self {
        Term::List {
            items: Vec::new(),
            tail: None,
        }
    }

    /// The number of arguments of a structure, elements of a list, and zero
    /// for everything else.
    ///
    /// This matches the "arity" the hardware loads into its element counters
    /// when matching complex terms.
    pub fn arity(&self) -> usize {
        match self {
            Term::Struct { args, .. } => args.len(),
            Term::List { items, .. } => items.len(),
            _ => 0,
        }
    }

    /// Returns the predicate indicator `(functor, arity)` if this term can
    /// head a clause: a structure, or an atom (arity 0).
    pub fn functor_arity(&self) -> Option<(Symbol, usize)> {
        match self {
            Term::Atom(sym) => Some((*sym, 0)),
            Term::Struct { functor, args } => Some((*functor, args.len())),
            _ => None,
        }
    }

    /// True if the term contains no variables (named or anonymous).
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => true,
            Term::Var(_) | Term::Anon => false,
            Term::Struct { args, .. } => args.iter().all(Term::is_ground),
            Term::List { items, tail } => {
                items.iter().all(Term::is_ground) && tail.as_deref().is_none_or(Term::is_ground)
            }
        }
    }

    /// True for atoms, integers and floats — the paper's "simple terms"
    /// category, which the hardware compares by plain equality.
    pub fn is_simple(&self) -> bool {
        matches!(self, Term::Atom(_) | Term::Int(_) | Term::Float(_))
    }

    /// True for structures and lists — the paper's "complex terms" category,
    /// which the hardware matches element-by-element with counters.
    pub fn is_complex(&self) -> bool {
        matches!(self, Term::Struct { .. } | Term::List { .. })
    }

    /// True for named or anonymous variables.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_) | Term::Anon)
    }

    /// True for an unterminated ("unlimited" in the paper's words) list,
    /// e.g. `[a, b | Tail]`.
    pub fn is_partial_list(&self) -> bool {
        matches!(self, Term::List { tail: Some(_), .. })
    }

    /// Immediate subterms: structure arguments, list items plus tail.
    pub fn children(&self) -> impl Iterator<Item = &Term> {
        let (args, tail): (&[Term], Option<&Term>) = match self {
            Term::Struct { args, .. } => (args.as_slice(), None),
            Term::List { items, tail } => (items.as_slice(), tail.as_deref()),
            _ => (&[], None),
        };
        args.iter().chain(tail)
    }
}

/// A stored clause: a fact (`body` empty) or a rule (`head :- body`).
///
/// The clause owns the name table for its variables so that tooling can print
/// source-faithful variable names; [`VarId`]s index into it.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_clause};
///
/// let mut symbols = SymbolTable::new();
/// let clause = parse_clause("grandparent(X, Z) :- parent(X, Y), parent(Y, Z).", &mut symbols)?;
/// assert!(!clause.is_fact());
/// assert_eq!(clause.body().len(), 2);
/// assert_eq!(clause.var_names(), ["X", "Z", "Y"]);
/// # Ok::<(), clare_term::parser::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    head: Term,
    body: Vec<Term>,
    var_names: Vec<String>,
}

/// Error from [`Clause::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidClauseError {
    /// The head is not an atom or a structure.
    HeadNotCallable,
    /// A variable's index has no entry in the clause's name table, so the
    /// table would not bound the clause's variable scope.
    UnnamedVar(VarId),
}

impl fmt::Display for InvalidClauseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidClauseError::HeadNotCallable => {
                f.write_str("clause head must be an atom or a structure")
            }
            InvalidClauseError::UnnamedVar(v) => {
                write!(f, "clause variable _{} has no name", v.index())
            }
        }
    }
}

impl std::error::Error for InvalidClauseError {}

impl Clause {
    /// Creates a clause, validating that the head is callable and that
    /// every variable is named.
    ///
    /// `var_names[i]` is the source name of `VarId::new(i)`; pass generated
    /// names (or an appropriately sized vector of placeholders) for
    /// synthesised clauses.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidClauseError::HeadNotCallable`] if `head` is not an
    /// atom or structure, and [`InvalidClauseError::UnnamedVar`] if a
    /// variable's index is not below `var_names.len()`.
    pub fn new(
        head: Term,
        body: Vec<Term>,
        var_names: Vec<String>,
    ) -> Result<Self, InvalidClauseError> {
        if head.functor_arity().is_none() {
            return Err(InvalidClauseError::HeadNotCallable);
        }
        if let Some(v) = first_unnamed(&head, &body, var_names.len()) {
            return Err(InvalidClauseError::UnnamedVar(v));
        }
        Clause::scoped(head, body, var_names)
    }

    /// [`Clause::new`] for a name table built while scoping the clause's
    /// variables, which names each one it hands out (the parser's): only
    /// the head is checked, so consulting a program walks no clause twice.
    pub(crate) fn scoped(
        head: Term,
        body: Vec<Term>,
        var_names: Vec<String>,
    ) -> Result<Self, InvalidClauseError> {
        if head.functor_arity().is_none() {
            return Err(InvalidClauseError::HeadNotCallable);
        }
        debug_assert_eq!(first_unnamed(&head, &body, var_names.len()), None);
        Ok(Clause {
            head,
            body,
            var_names,
        })
    }

    /// Creates a ground-headed fact with no variables.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not an atom or structure, or holds a variable.
    /// Use [`Clause::new`] for fallible construction.
    pub fn fact(head: Term) -> Self {
        Clause::new(head, Vec::new(), Vec::new()).expect("fact head must be callable and ground")
    }

    /// The clause head.
    pub fn head(&self) -> &Term {
        &self.head
    }

    /// The body goals; empty for a fact.
    pub fn body(&self) -> &[Term] {
        &self.body
    }

    /// Source names for this clause's variables, indexed by [`VarId`].
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Size of the clause's variable scope: every variable's index is
    /// below it ([`Clause::new`] checks).
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// True if the clause has no body goals.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// True if the clause is a fact whose head is ground — an *extensional*
    /// clause in the paper's EDB/IDB discussion.
    pub fn is_ground_fact(&self) -> bool {
        self.is_fact() && self.head.is_ground()
    }

    /// The predicate indicator of the head.
    pub fn predicate(&self) -> (Symbol, usize) {
        self.head
            .functor_arity()
            .expect("clause invariant: head is callable")
    }

    /// Consumes the clause, returning `(head, body, var_names)`.
    pub fn into_parts(self) -> (Term, Vec<Term>, Vec<String>) {
        (self.head, self.body, self.var_names)
    }
}

/// The first variable of `head` or `body` whose index is not below
/// `names`.
fn first_unnamed(head: &Term, body: &[Term], names: usize) -> Option<VarId> {
    let mut unnamed = None;
    for term in std::iter::once(head).chain(body) {
        crate::visit::for_each_subterm(term, &mut |t| {
            if let Term::Var(v) = t {
                if v.index() as usize >= names {
                    unnamed.get_or_insert(*v);
                }
            }
        });
    }
    unnamed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        SymbolTable::new()
    }

    #[test]
    fn arity_of_each_shape() {
        let mut t = table();
        let f = t.intern_atom("f");
        assert_eq!(Term::Atom(f).arity(), 0);
        assert_eq!(Term::Int(7).arity(), 0);
        assert_eq!(
            Term::Struct {
                functor: f,
                args: vec![Term::Int(1), Term::Int(2)]
            }
            .arity(),
            2
        );
        assert_eq!(
            Term::List {
                items: vec![Term::Int(1)],
                tail: Some(Box::new(Term::Var(VarId::new(0))))
            }
            .arity(),
            1
        );
        assert_eq!(Term::nil().arity(), 0);
    }

    #[test]
    fn functor_arity_only_for_callable() {
        let mut t = table();
        let f = t.intern_atom("f");
        assert_eq!(Term::Atom(f).functor_arity(), Some((f, 0)));
        assert_eq!(
            Term::Struct {
                functor: f,
                args: vec![Term::Anon]
            }
            .functor_arity(),
            Some((f, 1))
        );
        assert_eq!(Term::Int(3).functor_arity(), None);
        assert_eq!(Term::nil().functor_arity(), None);
        assert_eq!(Term::Var(VarId::new(0)).functor_arity(), None);
    }

    #[test]
    fn groundness() {
        let mut t = table();
        let f = t.intern_atom("f");
        let ground = Term::Struct {
            functor: f,
            args: vec![Term::Int(1), Term::nil()],
        };
        assert!(ground.is_ground());
        let open = Term::Struct {
            functor: f,
            args: vec![Term::Int(1), Term::Var(VarId::new(0))],
        };
        assert!(!open.is_ground());
        let anon_list = Term::List {
            items: vec![Term::Int(1)],
            tail: Some(Box::new(Term::Anon)),
        };
        assert!(!anon_list.is_ground());
    }

    #[test]
    fn category_predicates_partition() {
        let mut t = table();
        let a = t.intern_atom("a");
        let fid = t.intern_float(1.0);
        let cases = [
            Term::Atom(a),
            Term::Int(0),
            Term::Float(fid),
            Term::Var(VarId::new(0)),
            Term::Anon,
            Term::Struct {
                functor: a,
                args: vec![Term::Int(1)],
            },
            Term::nil(),
        ];
        for term in &cases {
            let cats = [term.is_simple(), term.is_var(), term.is_complex()];
            assert_eq!(
                cats.iter().filter(|&&b| b).count(),
                1,
                "exactly one category for {term:?}"
            );
        }
    }

    #[test]
    fn partial_list_detection() {
        assert!(!Term::nil().is_partial_list());
        let partial = Term::List {
            items: vec![Term::Int(1)],
            tail: Some(Box::new(Term::Var(VarId::new(0)))),
        };
        assert!(partial.is_partial_list());
    }

    #[test]
    fn children_cover_args_and_tail() {
        let mut t = table();
        let f = t.intern_atom("f");
        let s = Term::Struct {
            functor: f,
            args: vec![Term::Int(1), Term::Int(2)],
        };
        assert_eq!(s.children().count(), 2);
        let l = Term::List {
            items: vec![Term::Int(1)],
            tail: Some(Box::new(Term::Anon)),
        };
        assert_eq!(l.children().count(), 2);
        assert_eq!(Term::Int(9).children().count(), 0);
    }

    #[test]
    fn clause_head_validation() {
        let mut t = table();
        let p = t.intern_atom("p");
        assert!(Clause::new(Term::Atom(p), vec![], vec![]).is_ok());
        assert_eq!(
            Clause::new(Term::Int(1), vec![], vec![]),
            Err(InvalidClauseError::HeadNotCallable)
        );
        assert_eq!(
            Clause::new(Term::Var(VarId::new(0)), vec![], vec![]),
            Err(InvalidClauseError::HeadNotCallable)
        );
    }

    #[test]
    fn every_variable_needs_a_name() {
        let mut t = table();
        let p = t.intern_atom("p");
        let [x, y] = [0, 1].map(|i| Term::Var(VarId::new(i)));
        let head = Term::Struct {
            functor: p,
            args: vec![x.clone()],
        };
        let body = Term::Struct {
            functor: p,
            args: vec![y],
        };
        assert_eq!(
            Clause::new(head.clone(), vec![], vec![]),
            Err(InvalidClauseError::UnnamedVar(VarId::new(0)))
        );
        assert_eq!(
            Clause::new(head.clone(), vec![body.clone()], vec!["X".into()]),
            Err(InvalidClauseError::UnnamedVar(VarId::new(1)))
        );
        let clause = Clause::new(head, vec![body], vec!["X".into(), "Y".into()]).unwrap();
        assert_eq!(clause.var_count(), 2);
    }

    #[test]
    fn ground_fact_classification() {
        let mut t = table();
        let p = t.intern_atom("p");
        let fact = Clause::fact(Term::Struct {
            functor: p,
            args: vec![Term::Int(1)],
        });
        assert!(fact.is_ground_fact());
        let open = Clause::new(
            Term::Struct {
                functor: p,
                args: vec![Term::Var(VarId::new(0))],
            },
            vec![],
            vec!["X".into()],
        )
        .unwrap();
        assert!(open.is_fact());
        assert!(!open.is_ground_fact());
    }

    #[test]
    fn predicate_indicator() {
        let mut t = table();
        let p = t.intern_atom("p");
        let c = Clause::fact(Term::Struct {
            functor: p,
            args: vec![Term::Int(1), Term::Int(2)],
        });
        assert_eq!(c.predicate(), (p, 2));
    }
}
