//! Reader for an Edinburgh-syntax subset.
//!
//! Supported forms cover everything the paper's workloads need:
//!
//! * facts — `parent(tom, bob).`
//! * rules — `grandparent(X, Z) :- parent(X, Y), parent(Y, Z).`
//! * structures, nested arbitrarily — `f(g(h(1)), 'quoted atom')`
//! * terminated and unterminated lists — `[a, b]`, `[a, b | Tail]`
//! * integers, floats, negative literals, anonymous variables
//! * `%` line comments and `/* */` block comments
//!
//! Operator expressions (arithmetic, `;`, `->`) are out of scope: the CLARE
//! engine filters clause *heads*, and heads in all the paper's examples are
//! plain structures.
//!
//! # Examples
//!
//! ```
//! use clare_term::{SymbolTable, parser::parse_program};
//!
//! let mut symbols = SymbolTable::new();
//! let clauses = parse_program(
//!     "parent(tom, bob). parent(bob, ann).
//!      grandparent(X, Z) :- parent(X, Y), parent(Y, Z).",
//!     &mut symbols,
//! )?;
//! assert_eq!(clauses.len(), 3);
//! # Ok::<(), clare_term::parser::ParseError>(())
//! ```

pub mod lexer;

use crate::symbol::SymbolTable;
use crate::term::{Clause, Term, VarId};
use lexer::{LexError, Lexer, Token, TokenKind};
use std::collections::HashMap;
use std::fmt;

/// Parse error: lexical failure or unexpected token.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// The token stream did not match the grammar.
    Unexpected {
        /// What the parser found.
        found: String,
        /// What it was looking for.
        expected: String,
        /// Byte offset of the offending token.
        offset: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                found,
                expected,
                offset,
            } => write!(
                f,
                "parse error at byte {offset}: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Lex(e) => Some(e),
            ParseError::Unexpected { .. } => None,
        }
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Variable scope for one clause or query: maps source names to [`VarId`]s
/// in order of first occurrence.
#[derive(Debug, Default, Clone)]
pub struct VarScope {
    names: Vec<String>,
    index: HashMap<String, VarId>,
}

impl VarScope {
    /// Creates an empty scope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, allocating on first sight.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.index.get(name) {
            return v;
        }
        let v = VarId::new(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), v);
        v
    }

    /// Source names indexed by [`VarId`].
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Consumes the scope, returning the name table.
    pub fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// Parses a single term (no trailing `.`), using a fresh variable scope.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_term(src: &str, symbols: &mut SymbolTable) -> Result<Term, ParseError> {
    let (term, _) = parse_term_with_vars(src, symbols)?;
    Ok(term)
}

/// Parses a single term and returns the variable name table alongside it.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_term_with_vars(
    src: &str,
    symbols: &mut SymbolTable,
) -> Result<(Term, Vec<String>), ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::new(&tokens, symbols);
    let mut scope = VarScope::new();
    let term = p.term(&mut scope)?;
    p.expect_eof()?;
    Ok((term, scope.into_names()))
}

/// Parses a comma-separated conjunction of goals (no trailing `.`),
/// sharing one variable scope — the shape of an interactive query.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
///
/// # Examples
///
/// ```
/// use clare_term::{SymbolTable, parser::parse_goals};
///
/// let mut symbols = SymbolTable::new();
/// let (goals, names) = parse_goals("parent(tom, X), male(X)", &mut symbols)?;
/// assert_eq!(goals.len(), 2);
/// assert_eq!(names, ["X"]);
/// # Ok::<(), clare_term::parser::ParseError>(())
/// ```
pub fn parse_goals(
    src: &str,
    symbols: &mut SymbolTable,
) -> Result<(Vec<Term>, Vec<String>), ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::new(&tokens, symbols);
    let mut scope = VarScope::new();
    let goals = p.goal_list(&mut scope)?;
    p.expect_eof()?;
    Ok((goals, scope.into_names()))
}

/// Parses one clause terminated by `.`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, a non-callable head, or
/// trailing tokens after the final `.`.
pub fn parse_clause(src: &str, symbols: &mut SymbolTable) -> Result<Clause, ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::new(&tokens, symbols);
    let clause = p.clause()?;
    p.expect_eof()?;
    Ok(clause)
}

/// Parses a whole program: zero or more clauses, each terminated by `.`.
///
/// # Errors
///
/// Returns [`ParseError`] for the first malformed clause.
pub fn parse_program(src: &str, symbols: &mut SymbolTable) -> Result<Vec<Clause>, ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::new(&tokens, symbols);
    let mut clauses = Vec::new();
    while !p.at_eof() {
        clauses.push(p.clause()?);
    }
    Ok(clauses)
}

struct Parser<'a, 'st> {
    tokens: &'a [Token],
    pos: usize,
    symbols: &'st mut SymbolTable,
}

impl<'a, 'st> Parser<'a, 'st> {
    fn new(tokens: &'a [Token], symbols: &'st mut SymbolTable) -> Self {
        Parser {
            tokens,
            pos: 0,
            symbols,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let t = self.peek();
        ParseError::Unexpected {
            found: t.kind.to_string(),
            expected: expected.to_owned(),
            offset: t.offset,
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        let mut scope = VarScope::new();
        let head_offset = self.peek().offset;
        let head = self.term(&mut scope)?;
        let body = if self.peek().kind == TokenKind::Neck {
            self.bump();
            self.goal_list(&mut scope)?
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::Dot, "`.` ending the clause")?;
        Clause::scoped(head, body, scope.into_names()).map_err(|_| ParseError::Unexpected {
            found: "non-callable term".into(),
            expected: "an atom or structure as clause head".into(),
            offset: head_offset,
        })
    }

    fn goal_list(&mut self, scope: &mut VarScope) -> Result<Vec<Term>, ParseError> {
        let mut goals = vec![self.term(scope)?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            goals.push(self.term(scope)?);
        }
        Ok(goals)
    }

    fn term(&mut self, scope: &mut VarScope) -> Result<Term, ParseError> {
        match self.bump().kind {
            TokenKind::Int(v) => Ok(Term::Int(v)),
            TokenKind::Float(v) => Ok(Term::Float(self.symbols.intern_float(v))),
            TokenKind::Var(name) => {
                if name == "_" {
                    Ok(Term::Anon)
                } else {
                    Ok(Term::Var(scope.intern(&name)))
                }
            }
            TokenKind::Atom(name) => {
                if self.peek().kind == TokenKind::LParen {
                    self.bump();
                    let mut args = vec![self.term(scope)?];
                    while self.peek().kind == TokenKind::Comma {
                        self.bump();
                        args.push(self.term(scope)?);
                    }
                    self.expect(&TokenKind::RParen, "`)` closing the argument list")?;
                    Ok(Term::Struct {
                        functor: self.symbols.intern_atom(&name),
                        args,
                    })
                } else {
                    Ok(Term::Atom(self.symbols.intern_atom(&name)))
                }
            }
            TokenKind::LBracket => self.list_tail(scope),
            _ => {
                self.pos -= 1;
                Err(self.unexpected("a term"))
            }
        }
    }

    fn list_tail(&mut self, scope: &mut VarScope) -> Result<Term, ParseError> {
        if self.peek().kind == TokenKind::RBracket {
            self.bump();
            return Ok(Term::nil());
        }
        let mut items = vec![self.term(scope)?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            items.push(self.term(scope)?);
        }
        let tail = if self.peek().kind == TokenKind::Bar {
            self.bump();
            Some(Box::new(self.term(scope)?))
        } else {
            None
        };
        self.expect(&TokenKind::RBracket, "`]` closing the list")?;
        Ok(Term::List { items, tail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn st() -> SymbolTable {
        SymbolTable::new()
    }

    #[test]
    fn parses_fact() {
        let mut s = st();
        let c = parse_clause("parent(tom, bob).", &mut s).unwrap();
        assert!(c.is_ground_fact());
        let (f, a) = c.predicate();
        assert_eq!(s.atom_text(f), "parent");
        assert_eq!(a, 2);
    }

    #[test]
    fn parses_rule_with_shared_vars() {
        let mut s = st();
        let c = parse_clause("gp(X, Z) :- p(X, Y), p(Y, Z).", &mut s).unwrap();
        assert_eq!(c.body().len(), 2);
        assert_eq!(c.var_names(), ["X", "Z", "Y"]);
        // X in head and X in first goal share a VarId.
        let head_vars = crate::visit::collect_vars(c.head());
        let goal_vars = crate::visit::collect_vars(&c.body()[0]);
        assert_eq!(head_vars[0], goal_vars[0]);
    }

    #[test]
    fn atom_headed_clause() {
        let mut s = st();
        let c = parse_clause("halt.", &mut s).unwrap();
        assert_eq!(c.predicate().1, 0);
    }

    #[test]
    fn nested_structures() {
        let mut s = st();
        let t = parse_term("f(g(h(1)), 'quoted atom')", &mut s).unwrap();
        assert_eq!(crate::visit::term_depth(&t), 3);
    }

    #[test]
    fn lists_terminated_and_not() {
        let mut s = st();
        let closed = parse_term("[a, b, c]", &mut s).unwrap();
        assert!(!closed.is_partial_list());
        assert_eq!(closed.arity(), 3);
        let open = parse_term("[a, b | Tail]", &mut s).unwrap();
        assert!(open.is_partial_list());
        assert_eq!(open.arity(), 2);
        let nil = parse_term("[]", &mut s).unwrap();
        assert_eq!(nil, Term::nil());
    }

    #[test]
    fn anonymous_variables_never_share() {
        let mut s = st();
        let t = parse_term("f(_, _)", &mut s).unwrap();
        assert!(crate::visit::collect_vars(&t).is_empty());
        match &t {
            Term::Struct { args, .. } => {
                assert_eq!(args[0], Term::Anon);
                assert_eq!(args[1], Term::Anon);
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn named_underscore_var_is_named() {
        let mut s = st();
        let t = parse_term("f(_Tail, _Tail)", &mut s).unwrap();
        let vars = crate::visit::collect_vars(&t);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0], vars[1]);
    }

    #[test]
    fn numbers_parse() {
        let mut s = st();
        assert_eq!(parse_term("42", &mut s).unwrap(), Term::Int(42));
        assert_eq!(parse_term("-7", &mut s).unwrap(), Term::Int(-7));
        let f = parse_term("2.5", &mut s).unwrap();
        match f {
            Term::Float(id) => assert_eq!(s.float_value(id), 2.5),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn program_with_comments() {
        let mut s = st();
        let clauses = parse_program(
            "% the parents\nparent(tom, bob). /* more */ parent(bob, ann).",
            &mut s,
        )
        .unwrap();
        assert_eq!(clauses.len(), 2);
    }

    #[test]
    fn empty_program() {
        let mut s = st();
        assert!(parse_program("  % nothing\n", &mut s).unwrap().is_empty());
    }

    #[test]
    fn error_on_missing_dot() {
        let mut s = st();
        let err = parse_clause("parent(tom, bob)", &mut s).unwrap_err();
        assert!(err.to_string().contains("`.`"), "got: {err}");
    }

    #[test]
    fn error_on_unbalanced_paren() {
        let mut s = st();
        assert!(parse_term("f(a, b", &mut s).is_err());
    }

    #[test]
    fn error_on_integer_head() {
        let mut s = st();
        let err = parse_clause("42.", &mut s).unwrap_err();
        assert!(err.to_string().contains("head"), "got: {err}");
    }

    #[test]
    fn error_on_trailing_tokens() {
        let mut s = st();
        assert!(parse_term("a b", &mut s).is_err());
    }

    #[test]
    fn var_scope_is_per_clause() {
        let mut s = st();
        let clauses = parse_program("p(X). q(X).", &mut s).unwrap();
        // Each clause has its own scope; both X's are VarId 0 locally.
        assert_eq!(clauses[0].var_names(), ["X"]);
        assert_eq!(clauses[1].var_names(), ["X"]);
    }
}
