//! Valuations: total functions from query variables to domain values.
//!
//! Section 2: "A valuation V satisfies Q on instance I if all facts
//! required by V are in I. In that case, V derives the fact V(head_Q)."

use crate::atom::{Atom, Term, Var};
use crate::fact::{Args, Fact, Val};
use crate::instance::Instance;
use crate::query::ConjunctiveQuery;
use std::collections::BTreeMap;
use std::fmt;

/// A (possibly partial while being built) mapping from variables to values.
///
/// Backed by a `BTreeMap` for deterministic iteration and cheap ordering —
/// valuations are enumerated, deduplicated and compared constantly in the
/// parallel-correctness procedures.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Valuation {
    map: BTreeMap<Var, Val>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Valuation {
        Valuation::default()
    }

    /// Build from pairs; later bindings override earlier ones.
    pub fn from_pairs<I: IntoIterator<Item = (Var, Val)>>(pairs: I) -> Valuation {
        Valuation {
            map: pairs.into_iter().collect(),
        }
    }

    /// Convenience constructor over `&str` variable names and `u64` values.
    pub fn of(pairs: &[(&str, u64)]) -> Valuation {
        Valuation::from_pairs(pairs.iter().map(|&(n, v)| (Var::new(n), Val(v))))
    }

    /// Bind a variable. Returns the previous value, if any.
    pub fn bind(&mut self, v: Var, val: Val) -> Option<Val> {
        self.map.insert(v, val)
    }

    /// Remove a binding.
    pub fn unbind(&mut self, v: &Var) -> Option<Val> {
        self.map.remove(v)
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: &Var) -> Option<Val> {
        self.map.get(v).copied()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is no variable bound?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, Val)> {
        self.map.iter().map(|(v, &val)| (v, val))
    }

    /// Is the valuation total on the variables of `q`?
    pub fn is_total_for(&self, q: &ConjunctiveQuery) -> bool {
        q.variables().iter().all(|v| self.map.contains_key(v))
    }

    /// Apply to a term; `None` if the term is an unbound variable.
    pub fn apply_term(&self, t: &Term) -> Option<Val> {
        match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => self.get(v),
        }
    }

    /// Apply to an atom, producing a fact; `None` if some variable is
    /// unbound.
    pub fn apply(&self, a: &Atom) -> Option<Fact> {
        let args = a.terms.iter().map(|t| self.apply_term(t));
        Some(Fact::new(a.rel, args.collect::<Option<Args>>()?))
    }

    /// The facts required by this valuation for `q`: `V(body_Q)`.
    ///
    /// # Panics
    /// Panics if the valuation is not total on the positive body.
    pub fn required_facts(&self, q: &ConjunctiveQuery) -> Instance {
        Instance::from_facts(self.body_facts(q))
    }

    /// The required facts as a vec (may contain duplicates if two atoms
    /// instantiate to the same fact — set semantics are obtained via
    /// [`Valuation::required_facts`]).
    pub fn body_facts(&self, q: &ConjunctiveQuery) -> Vec<Fact> {
        q.body
            .iter()
            .map(|a| {
                self.apply(a)
                    .expect("valuation must be total on the positive body")
            })
            .collect()
    }

    /// The derived head fact `V(head_Q)`.
    ///
    /// # Panics
    /// Panics if the valuation is not total on the head.
    pub fn derived_fact(&self, q: &ConjunctiveQuery) -> Fact {
        self.apply(&q.head)
            .expect("valuation must be total on the head")
    }

    /// Do the inequalities of `q` hold under this valuation?
    pub fn satisfies_inequalities(&self, q: &ConjunctiveQuery) -> bool {
        q.inequalities.iter().all(|(s, t)| {
            match (self.apply_term(s), self.apply_term(t)) {
                (Some(a), Some(b)) => a != b,
                // Unbound inequality terms cannot happen for safe queries
                // with total valuations; treat as unsatisfied defensively.
                _ => false,
            }
        })
    }

    /// Does the valuation **satisfy** `q` on `I`: all positive facts
    /// present, all negated facts absent, all inequalities hold?
    pub fn satisfies(&self, q: &ConjunctiveQuery, instance: &Instance) -> bool {
        if !self.satisfies_inequalities(q) {
            return false;
        }
        for a in &q.body {
            match self.apply(a) {
                Some(f) if instance.contains(&f) => {}
                _ => return false,
            }
        }
        for a in &q.negated {
            match self.apply(a) {
                Some(f) if !instance.contains(&f) => {}
                _ => return false,
            }
        }
        true
    }
}

impl FromIterator<(Var, Val)> for Valuation {
    fn from_iter<I: IntoIterator<Item = (Var, Val)>>(iter: I) -> Valuation {
        Valuation::from_pairs(iter)
    }
}

impl fmt::Debug for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, val)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}↦{val}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::parser::parse_query;

    #[test]
    fn apply_and_required_facts() {
        // Example 4.5 of the survey.
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let v1 = Valuation::of(&[("x", 1), ("y", 2), ("z", 1)]);
        let req = v1.required_facts(&q);
        assert_eq!(req.len(), 3);
        assert!(req.contains(&fact("R", &[1, 2])));
        assert!(req.contains(&fact("R", &[2, 1])));
        assert!(req.contains(&fact("R", &[1, 1])));
        assert_eq!(v1.derived_fact(&q), fact("H", &[1, 1]));

        let v2 = Valuation::of(&[("x", 1), ("y", 1), ("z", 1)]);
        assert_eq!(v2.required_facts(&q).len(), 1);
        assert_eq!(v2.derived_fact(&q), v1.derived_fact(&q));
    }

    #[test]
    fn satisfies_checks_positive_negative_and_inequalities() {
        let q = parse_query("H(x) <- R(x,y), not S(y), x != y").unwrap();
        let mut i = Instance::new();
        i.insert(fact("R", &[1, 2]));
        i.insert(fact("S", &[3]));
        let good = Valuation::of(&[("x", 1), ("y", 2)]);
        assert!(good.satisfies(&q, &i));
        // Fails the inequality:
        let mut i2 = Instance::new();
        i2.insert(fact("R", &[5, 5]));
        let eq = Valuation::of(&[("x", 5), ("y", 5)]);
        assert!(!eq.satisfies(&q, &i2));
        // Fails negation:
        let mut i3 = Instance::new();
        i3.insert(fact("R", &[1, 3]));
        i3.insert(fact("S", &[3]));
        let neg = Valuation::of(&[("x", 1), ("y", 3)]);
        assert!(!neg.satisfies(&q, &i3));
    }

    #[test]
    fn totality_check() {
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let partial = Valuation::of(&[("x", 1)]);
        assert!(!partial.is_total_for(&q));
        let total = Valuation::of(&[("x", 1), ("y", 2)]);
        assert!(total.is_total_for(&q));
    }

    #[test]
    fn bind_unbind() {
        let mut v = Valuation::new();
        assert_eq!(v.bind(Var::new("x"), Val(1)), None);
        assert_eq!(v.bind(Var::new("x"), Val(2)), Some(Val(1)));
        assert_eq!(v.get(&Var::new("x")), Some(Val(2)));
        assert_eq!(v.unbind(&Var::new("x")), Some(Val(2)));
        assert!(v.is_empty());
    }
}
