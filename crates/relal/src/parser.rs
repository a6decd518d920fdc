//! A small text syntax for queries, shared by the whole workspace.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query   := atom "<-" literal ("," literal)*
//! union   := query (";" query)*          -- or newline-separated
//! literal := atom | "not" atom | "!" atom | term "!=" term
//! atom    := ident "(" (term ("," term)*)? ")"
//! term    := ident            -- a variable
//!          | "'" ident "'"    -- a named constant
//!          | integer          -- an integer constant
//! ```
//!
//! Following the survey's notation, `H(x,z) <- R(x,y), R(y,z), S(z,x)` is
//! the query of Example 4.1 and
//! `H(x,y,z) <- E(x,y), E(y,z), not E(z,x), x != y` an open-triangle
//! variant from Example 5.1.

use crate::atom::{Atom, Term};
use crate::fact::Val;
use crate::query::{ConjunctiveQuery, QueryError, UnionQuery};
use crate::symbols::rel;
use std::fmt;

/// Parse errors with a byte position into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was noticed.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> ParseError {
        ParseError {
            message: e.to_string(),
            position: 0,
        }
    }
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_whitespace())
        {
            self.pos += self.rest().chars().next().unwrap().len_utf8();
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut end = start;
        for c in self.rest().chars() {
            if c.is_alphanumeric() || c == '_' {
                end += c.len_utf8();
            } else {
                break;
            }
        }
        if end == start {
            return Err(self.error("expected identifier"));
        }
        self.pos = end;
        Ok(&self.src[start..end])
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('\'') => {
                self.expect("'")?;
                let name = self.ident()?;
                self.expect("'")?;
                Ok(Term::val(Val::named(name)))
            }
            Some(c) if c.is_ascii_digit() => {
                let id = self.ident()?;
                let n: u64 = id
                    .parse()
                    .map_err(|_| self.error(format!("invalid integer `{id}`")))?;
                Ok(Term::val(Val(n)))
            }
            _ => Ok(Term::var(self.ident()?.to_owned())),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = self.ident()?;
        self.expect("(")?;
        let mut terms = Vec::new();
        if self.peek() != Some(')') {
            loop {
                terms.push(self.term()?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(")")?;
        Ok(Atom::new(rel(name), terms))
    }
}

/// Parse a single atom, e.g. `R(x, 'a', 3)`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let mut c = Cursor::new(src);
    let a = c.atom()?;
    c.skip_ws();
    if !c.rest().is_empty() {
        return Err(c.error("trailing input after atom"));
    }
    Ok(a)
}

/// The parsed pieces of a rule body: positive atoms, negated atoms and
/// inequalities.
type ParsedBody = (Vec<Atom>, Vec<Atom>, Vec<(Term, Term)>);

fn parse_body(c: &mut Cursor<'_>) -> Result<ParsedBody, ParseError> {
    let mut body = Vec::new();
    let mut negated = Vec::new();
    let mut inequalities = Vec::new();
    loop {
        c.skip_ws();
        let mut is_negation = c.eat("not ") || c.eat("not\t") || c.eat("¬");
        if !is_negation {
            // `!` negates an atom, but `!=` belongs to an inequality; only
            // commit to negation if `=` does not follow.
            let save = c.pos;
            if c.eat("!") {
                if c.rest().starts_with('=') {
                    c.pos = save;
                } else {
                    is_negation = true;
                }
            }
        }
        if is_negation {
            negated.push(c.atom()?);
        } else {
            // Either an atom or an inequality `term != term`.
            let save = c.pos;
            // Try to detect an inequality: term followed by `!=`.
            let lhs = c.term()?;
            if c.eat("!=") || c.eat("≠") {
                let rhs = c.term()?;
                inequalities.push((lhs, rhs));
            } else {
                c.pos = save;
                body.push(c.atom()?);
            }
        }
        if !c.eat(",") {
            break;
        }
    }
    Ok((body, negated, inequalities))
}

/// The raw pieces of a parsed rule: head, positive atoms, negated atoms,
/// inequalities.
pub type RawRule = (Atom, Vec<Atom>, Vec<Atom>, Vec<(Term, Term)>);

/// Parse a rule-shaped string `head <- body` into its raw pieces without
/// any safety validation. Used by `parlog-datalog`'s value-invention rules,
/// where head variables may legitimately be absent from the body.
pub fn parse_rule_unchecked(src: &str) -> Result<RawRule, ParseError> {
    let mut c = Cursor::new(src);
    let head = c.atom()?;
    c.expect("<-")?;
    let (body, negated, inequalities) = parse_body(&mut c)?;
    c.skip_ws();
    if !c.rest().is_empty() {
        return Err(c.error("trailing input after rule"));
    }
    Ok((head, body, negated, inequalities))
}

/// Parse a conjunctive query with optional negation and inequalities.
///
/// ```
/// use parlog_relal::parser::parse_query;
/// let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x), x != z").unwrap();
/// assert_eq!(q.body.len(), 2);
/// assert_eq!(q.negated.len(), 1);
/// assert_eq!(q.inequalities.len(), 1);
/// ```
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut c = Cursor::new(src);
    let head = c.atom()?;
    c.expect("<-")?;
    let (body, negated, inequalities) = parse_body(&mut c)?;
    c.skip_ws();
    if !c.rest().is_empty() {
        return Err(c.error("trailing input after query"));
    }
    Ok(ConjunctiveQuery::with_extras(
        head,
        body,
        negated,
        inequalities,
    )?)
}

/// Parse a union of conjunctive queries, separated by `;` or newlines.
/// Every disjunct must share the first one's head relation and arity;
/// an error's position is a byte offset into `src`, inside the offending
/// disjunct.
///
/// ```
/// use parlog_relal::parser::parse_union;
/// let u = parse_union("H(x) <- R(x); H(x) <- S(x)").unwrap();
/// assert_eq!(u.disjuncts.len(), 2);
/// assert!(parse_union("H(x) <- R(x); G(x) <- S(x)").is_err());
/// ```
pub fn parse_union(src: &str) -> Result<UnionQuery, ParseError> {
    let mut disjuncts: Vec<ConjunctiveQuery> = Vec::new();
    let mut next = 0;
    for part in src.split([';', '\n']) {
        let at = next;
        // Both separators are one byte long.
        next += part.len() + 1;
        let start = at + part.len() - part.trim_start().len();
        if part.trim().is_empty() {
            continue;
        }
        let q = parse_query(part).map_err(|e| ParseError {
            position: (at + e.position).max(start),
            ..e
        })?;
        if let Some(first) = disjuncts.first() {
            if (q.head.rel, q.head.arity()) != (first.head.rel, first.head.arity()) {
                return Err(ParseError {
                    message: format!(
                        "disjunct head `{}` does not match the first disjunct's `{}`",
                        q.head, first.head
                    ),
                    position: start,
                });
            }
        }
        disjuncts.push(q);
    }
    if disjuncts.is_empty() {
        return Err(ParseError {
            message: "no query found".into(),
            position: 0,
        });
    }
    Ok(UnionQuery::new(disjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Var;

    #[test]
    fn parses_plain_cq() {
        let q = parse_query("H(x, z) <- R(x,y), R(y,z), S(z, x)").unwrap();
        assert_eq!(q.body.len(), 3);
        assert!(q.is_plain_cq());
        assert_eq!(q.head.variables(), vec![Var::new("x"), Var::new("z")]);
    }

    #[test]
    fn parses_constants() {
        let q = parse_query("H(x) <- R(x, 'a'), S(x, 42)").unwrap();
        assert_eq!(q.body[0].constants(), vec![Val::named("a")]);
        assert_eq!(q.body[1].constants(), vec![Val(42)]);
    }

    #[test]
    fn parses_negation_variants() {
        for src in [
            "H(x) <- R(x,y), not S(y)",
            "H(x) <- R(x,y), !S(y)",
            "H(x) <- R(x,y), ¬S(y)",
        ] {
            let q = parse_query(src).unwrap();
            assert_eq!(q.negated.len(), 1, "src: {src}");
        }
    }

    #[test]
    fn parses_inequalities() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, z != x").unwrap();
        assert_eq!(q.inequalities.len(), 3);
        assert_eq!(q.body.len(), 3);
    }

    #[test]
    fn parses_boolean_query() {
        let q = parse_query("H() <- S(x), R(x,x), T(x)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.body.len(), 3);
    }

    #[test]
    fn parses_nullary_atom_in_body() {
        let q = parse_query("H(x) <- R(x), Flag()").unwrap();
        assert_eq!(q.body[1].arity(), 0);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("H(x) <- ").is_err());
        assert!(parse_query("H(x)").is_err());
        assert!(parse_query("H(x) <- R(x) extra").is_err());
        assert!(parse_atom("R(x").is_err());
    }

    #[test]
    fn error_carries_position() {
        let e = parse_query("H(x) <- R(x) garbage").unwrap_err();
        assert!(e.position > 0);
        assert!(e.to_string().contains("parse error"));
    }

    #[test]
    fn union_roundtrip() {
        let u = parse_union("H(x) <- R(x,y)\nH(x) <- S(x), T(x)").unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        assert!(u.is_plain());
    }

    #[test]
    fn union_with_mismatched_heads_is_a_parse_error() {
        let e = parse_union("H(x) <- R(x); G(x) <- S(x)").unwrap_err();
        assert_eq!(e.position, 14, "{e}");
        assert!(e.message.contains("G(x)"), "{e}");
        let e = parse_union("H(x) <- R(x)\n  H(x,y) <- S(x,y)").unwrap_err();
        assert_eq!(e.position, 15, "{e}");
        // Errors inside a later disjunct are offsets into the whole text.
        let e = parse_union("H(x) <- R(x); H(x) <- S(x) junk").unwrap_err();
        assert_eq!(e.position, 27, "{e}");
        let e = parse_union("H(x) <- R(x); H(w) <- S(x)").unwrap_err();
        assert_eq!(e.position, 14, "{e}");
    }

    #[test]
    fn unsafe_query_is_rejected_at_parse_time() {
        assert!(parse_query("H(w) <- R(x,y)").is_err());
    }
}
