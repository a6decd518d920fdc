//! Variables, terms and atoms.

use crate::fact::{Args, Fact, Val};
use crate::symbols::{rel, RelId};
use std::fmt;

/// A query variable. Variables are interned per query by the parser / query
/// builder; the `name` is kept for display.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct Var(pub String);

impl Var {
    /// Build a variable from its name.
    pub fn new(name: impl Into<String>) -> Var {
        Var(name.into())
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A term in an atom: either a variable or a constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub enum Term {
    /// A variable, e.g. `x`.
    Var(Var),
    /// A constant value, e.g. `'a'` or `3`.
    Const(Val),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(Var::new(name))
    }

    /// Shorthand for a constant term.
    pub fn val(v: impl Into<Val>) -> Term {
        Term::Const(v.into())
    }

    /// The constant inside, if any.
    pub fn as_const(&self) -> Option<Val> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(*c),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An atom `R(t₁, …, tₖ)` over terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct Atom {
    /// Relation name.
    pub rel: RelId,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(rel_id: RelId, terms: Vec<Term>) -> Atom {
        Atom { rel: rel_id, terms }
    }

    /// Construct an atom over variables only: `Atom::vars("R", &["x","y"])`.
    pub fn vars(rel_name: &str, var_names: &[&str]) -> Atom {
        Atom {
            rel: rel(rel_name),
            terms: var_names.iter().map(|n| Term::var(*n)).collect(),
        }
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The distinct variables of the atom, in order of first occurrence.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// The constants of the atom.
    pub fn constants(&self) -> Vec<Val> {
        self.terms.iter().filter_map(Term::as_const).collect()
    }

    /// Is the atom ground (variable-free)? If so it denotes a fact.
    pub fn as_fact(&self) -> Option<Fact> {
        let args = self.terms.iter().map(Term::as_const);
        Some(Fact::new(self.rel, args.collect::<Option<Args>>()?))
    }

    /// Could `f` be an instantiation of this atom? (Same relation, same
    /// arity, constants match, and repeated variables carry equal values.)
    /// Allocation-free: a repeated variable is checked against its first
    /// position.
    pub fn matches(&self, f: &Fact) -> bool {
        let first = |i: usize, v: &Var| {
            let var = |t: &Term| matches!(t, Term::Var(w) if w == v);
            self.terms[..i].iter().position(var).unwrap_or(i)
        };
        f.rel == self.rel
            && f.args.len() == self.terms.len()
            && self
                .terms
                .iter()
                .zip(f.args.iter())
                .enumerate()
                .all(|(i, (t, &a))| match t {
                    Term::Const(c) => *c == a,
                    Term::Var(v) => f.args[first(i, v)] == a,
                })
    }

    /// The values `f` gives this atom's variables, in order of first
    /// occurrence — `None` unless [`Atom::matches`] holds.
    pub fn binding(&self, f: &Fact) -> Option<Vec<(&Var, Val)>> {
        if !self.matches(f) {
            return None;
        }
        let mut bound: Vec<(&Var, Val)> = Vec::new();
        for (t, &a) in self.terms.iter().zip(f.args.iter()) {
            if let Term::Var(v) = t {
                if bound.iter().all(|(w, _)| *w != v) {
                    bound.push((v, a));
                }
            }
        }
        Some(bound)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;

    #[test]
    fn atom_variables_ordered_and_distinct() {
        let a = Atom::vars("R", &["x", "y", "x"]);
        assert_eq!(a.variables(), vec![Var::new("x"), Var::new("y")]);
        assert_eq!(a.arity(), 3);
    }

    #[test]
    fn ground_atom_is_fact() {
        let a = Atom::new(rel("R"), vec![Term::val(1u64), Term::val(2u64)]);
        assert_eq!(a.as_fact(), Some(fact("R", &[1, 2])));
        let b = Atom::vars("R", &["x"]);
        assert_eq!(b.as_fact(), None);
    }

    #[test]
    fn matches_respects_repeated_variables() {
        let a = Atom::vars("R", &["x", "x"]);
        assert!(a.matches(&fact("R", &[5, 5])));
        assert!(!a.matches(&fact("R", &[5, 6])));
        assert!(!a.matches(&fact("S", &[5, 5])));
    }

    #[test]
    fn matches_respects_constants() {
        let a = Atom::new(rel("R"), vec![Term::val(7u64), Term::var("y")]);
        assert!(a.matches(&fact("R", &[7, 9])));
        assert!(!a.matches(&fact("R", &[8, 9])));
    }

    #[test]
    fn display_roundtrip_shape() {
        let a = Atom::vars("Edge", &["x", "y"]);
        assert_eq!(format!("{a}"), "Edge(x,y)");
    }
}
