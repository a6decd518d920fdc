//! Conjunctive queries, with the extensions the survey reasons about:
//! inequalities (`CQ≠`), negated atoms (`CQ¬`) and unions (`UCQ`).
//!
//! A conjunctive query (Section 2) is an expression
//!
//! ```text
//! H(x̄) ← R₁(ȳ₁), …, Rₘ(ȳₘ)
//! ```
//!
//! where every head variable occurs in some body atom (*safety*). For
//! `CQ¬` we additionally require every variable of a negated atom to occur
//! in a positive atom, and for inequalities likewise — the standard
//! safe-range conditions.

use crate::atom::{Atom, Term, Var};
use crate::symbols::RelId;
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised when constructing an ill-formed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in any positive body atom.
    UnsafeHeadVar(Var),
    /// A variable of a negated atom does not occur in any positive atom.
    UnsafeNegatedVar(Var),
    /// A variable of an inequality does not occur in any positive atom.
    UnsafeInequalityVar(Var),
    /// The body is empty (we require at least one positive atom).
    EmptyBody,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeHeadVar(v) => {
                write!(f, "head variable {v} does not occur in the positive body")
            }
            QueryError::UnsafeNegatedVar(v) => {
                write!(
                    f,
                    "negated-atom variable {v} does not occur in the positive body"
                )
            }
            QueryError::UnsafeInequalityVar(v) => {
                write!(
                    f,
                    "inequality variable {v} does not occur in the positive body"
                )
            }
            QueryError::EmptyBody => write!(f, "query body has no positive atom"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive query, possibly with inequalities and negated atoms.
///
/// Plain CQs have empty `negated` and `inequalities`; helpers like
/// [`ConjunctiveQuery::is_plain_cq`] let the decision procedures insist on
/// the fragment they are proven correct for.
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ConjunctiveQuery {
    /// The head atom `H(x̄)`.
    pub head: Atom,
    /// The positive body atoms.
    pub body: Vec<Atom>,
    /// Negated body atoms (`not S(ȳ)`), empty for plain CQs.
    pub negated: Vec<Atom>,
    /// Inequalities `t ≠ t'`, empty for plain CQs.
    pub inequalities: Vec<(Term, Term)>,
}

impl ConjunctiveQuery {
    /// Construct and validate a plain CQ.
    pub fn new(head: Atom, body: Vec<Atom>) -> Result<ConjunctiveQuery, QueryError> {
        ConjunctiveQuery::with_extras(head, body, Vec::new(), Vec::new())
    }

    /// Construct and validate a CQ with negation and/or inequalities.
    pub fn with_extras(
        head: Atom,
        body: Vec<Atom>,
        negated: Vec<Atom>,
        inequalities: Vec<(Term, Term)>,
    ) -> Result<ConjunctiveQuery, QueryError> {
        let q = ConjunctiveQuery {
            head,
            body,
            negated,
            inequalities,
        };
        q.validate()?;
        Ok(q)
    }

    /// The safety checks of the constructors, for a query that may have
    /// been assembled field by field: a nonempty positive body that
    /// binds every variable of the head, of the negated atoms and of the
    /// inequalities. Every evaluator relies on them.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.body.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        let positive: BTreeSet<Var> = self.body.iter().flat_map(|a| a.variables()).collect();
        for v in self.head.variables() {
            if !positive.contains(&v) {
                return Err(QueryError::UnsafeHeadVar(v));
            }
        }
        for a in &self.negated {
            for v in a.variables() {
                if !positive.contains(&v) {
                    return Err(QueryError::UnsafeNegatedVar(v));
                }
            }
        }
        for (s, t) in &self.inequalities {
            for term in [s, t] {
                if let Term::Var(v) = term {
                    if !positive.contains(v) {
                        return Err(QueryError::UnsafeInequalityVar(v.clone()));
                    }
                }
            }
        }
        Ok(())
    }

    /// All variables of the query (`vars(Q)`), in order of first occurrence
    /// across head then body.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut push = |v: Var| {
            if !out.contains(&v) {
                out.push(v);
            }
        };
        for v in self.head.variables() {
            push(v);
        }
        for a in self.body.iter().chain(self.negated.iter()) {
            for v in a.variables() {
                push(v);
            }
        }
        out
    }

    /// Variables of the positive body, in order of first occurrence.
    pub fn body_variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for a in &self.body {
            for v in a.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// All constants mentioned anywhere in the query.
    pub fn constants(&self) -> Vec<crate::fact::Val> {
        let mut out: Vec<_> = self
            .body
            .iter()
            .chain(self.negated.iter())
            .chain(std::iter::once(&self.head))
            .flat_map(|a| a.constants())
            .collect();
        for (s, t) in &self.inequalities {
            out.extend(s.as_const());
            out.extend(t.as_const());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Is this a plain CQ (no negation, no inequalities)?
    pub fn is_plain_cq(&self) -> bool {
        self.negated.is_empty() && self.inequalities.is_empty()
    }

    /// Is the query *full*: every body variable appears in the head?
    /// Full CQs are the fragment for which Shares/HyperCube is analyzed.
    pub fn is_full(&self) -> bool {
        let head_vars = self.head.variables();
        self.body_variables().iter().all(|v| head_vars.contains(v))
    }

    /// Is the query Boolean (empty head)?
    pub fn is_boolean(&self) -> bool {
        self.head.terms.is_empty()
    }

    /// Does the query have a self-join (two positive atoms over the same
    /// relation)? Relevant for the economical broadcasting strategies of
    /// Ketsman–Neven discussed in Section 6.
    pub fn has_self_join(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.body.iter().any(|a| !seen.insert(a.rel))
    }

    /// The distinct relations of the positive body.
    pub fn body_relations(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self.body.iter().map(|a| a.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    /// Rename all variables with a prefix — used to make two queries
    /// variable-disjoint before comparing them.
    pub fn rename_vars(&self, prefix: &str) -> ConjunctiveQuery {
        let ren = |a: &Atom| Atom {
            rel: a.rel,
            terms: a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::var(format!("{prefix}{}", v.0)),
                    c => c.clone(),
                })
                .collect(),
        };
        ConjunctiveQuery {
            head: ren(&self.head),
            body: self.body.iter().map(ren).collect(),
            negated: self.negated.iter().map(ren).collect(),
            inequalities: self
                .inequalities
                .iter()
                .map(|(s, t)| {
                    let r = |t: &Term| match t {
                        Term::Var(v) => Term::var(format!("{prefix}{}", v.0)),
                        c => c.clone(),
                    };
                    (r(s), r(t))
                })
                .collect(),
        }
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <- ", self.head)?;
        let mut first = true;
        for a in &self.body {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        for a in &self.negated {
            write!(f, ", not {a}")?;
        }
        for (s, t) in &self.inequalities {
            write!(f, ", {s} != {t}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A union of conjunctive queries. All disjuncts must share the head
/// relation and arity.
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct UnionQuery {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Construct a UCQ; panics if disjuncts disagree on head relation/arity.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> UnionQuery {
        assert!(!disjuncts.is_empty(), "a UCQ needs at least one disjunct");
        let rel0 = disjuncts[0].head.rel;
        let ar0 = disjuncts[0].head.arity();
        for d in &disjuncts[1..] {
            assert_eq!(d.head.rel, rel0, "UCQ disjuncts must share head relation");
            assert_eq!(d.head.arity(), ar0, "UCQ disjuncts must share head arity");
        }
        UnionQuery { disjuncts }
    }

    /// Are all disjuncts plain CQs?
    pub fn is_plain(&self) -> bool {
        self.disjuncts.iter().all(|d| d.is_plain_cq())
    }
}

impl fmt::Debug for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            Atom::vars("H", &["x", "y", "z"]),
            vec![
                Atom::vars("R", &["x", "y"]),
                Atom::vars("S", &["y", "z"]),
                Atom::vars("T", &["z", "x"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn safety_rejects_free_head_var() {
        let err = ConjunctiveQuery::new(
            Atom::vars("H", &["x", "w"]),
            vec![Atom::vars("R", &["x", "y"])],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::UnsafeHeadVar(Var::new("w")));
    }

    #[test]
    fn safety_rejects_free_negated_var() {
        let err = ConjunctiveQuery::with_extras(
            Atom::vars("H", &["x"]),
            vec![Atom::vars("R", &["x"])],
            vec![Atom::vars("S", &["z"])],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::UnsafeNegatedVar(Var::new("z")));
    }

    #[test]
    fn validate_checks_a_query_built_field_by_field() {
        let mut q = triangle();
        assert_eq!(q.validate(), Ok(()));
        q.inequalities.push((Term::var("w"), Term::var("x")));
        assert_eq!(
            q.validate(),
            Err(QueryError::UnsafeInequalityVar(Var::new("w")))
        );
    }

    #[test]
    fn safety_rejects_empty_body() {
        let err = ConjunctiveQuery::new(Atom::vars("H", &[]), vec![]).unwrap_err();
        assert_eq!(err, QueryError::EmptyBody);
    }

    #[test]
    fn triangle_is_full_plain_and_selfjoin_free() {
        let q = triangle();
        assert!(q.is_full());
        assert!(q.is_plain_cq());
        assert!(!q.has_self_join());
        assert!(!q.is_boolean());
        assert_eq!(q.variables().len(), 3);
    }

    #[test]
    fn projection_is_not_full() {
        let q = ConjunctiveQuery::new(Atom::vars("H", &["x"]), vec![Atom::vars("R", &["x", "y"])])
            .unwrap();
        assert!(!q.is_full());
    }

    #[test]
    fn self_join_detected() {
        let q = ConjunctiveQuery::new(
            Atom::vars("H", &["x", "z"]),
            vec![Atom::vars("R", &["x", "y"]), Atom::vars("R", &["y", "z"])],
        )
        .unwrap();
        assert!(q.has_self_join());
        assert_eq!(q.body_relations().len(), 1);
    }

    #[test]
    fn rename_vars_keeps_structure() {
        let q = triangle().rename_vars("p_");
        assert_eq!(q.body.len(), 3);
        assert!(q.variables().iter().all(|v| v.0.starts_with("p_")));
    }

    #[test]
    fn display_shape() {
        let q = triangle();
        assert_eq!(format!("{q}"), "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    }

    #[test]
    #[should_panic(expected = "share head relation")]
    fn ucq_mixed_heads_panics() {
        let a =
            ConjunctiveQuery::new(Atom::vars("H", &["x"]), vec![Atom::vars("R", &["x"])]).unwrap();
        let b =
            ConjunctiveQuery::new(Atom::vars("G", &["x"]), vec![Atom::vars("R", &["x"])]).unwrap();
        UnionQuery::new(vec![a, b]);
    }
}
