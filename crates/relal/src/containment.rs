//! Homomorphisms, query containment and cores.
//!
//! Classical Chandra–Merlin machinery: for plain CQs, `Q ⊆ Q′` holds iff
//! there is a homomorphism from `Q′` to `Q` mapping head to head.
//! Section 4.2 of the survey (Figure 1) contrasts containment with
//! parallel-correctness transfer — the two are orthogonal — and Section 6
//! suggests relating them; this module provides the containment side.

use crate::atom::{Atom, Term, Var};
use crate::fastmap::{fxmap, FxMap};
use crate::query::{ConjunctiveQuery, UnionQuery};
use std::collections::BTreeMap;

/// A homomorphism between queries: a mapping from the variables of the
/// source query to terms (variables or constants) of the target query.
pub type Homomorphism = BTreeMap<Var, Term>;

/// Find a homomorphism from `from` to `to`: a variable mapping `h` such
/// that `h(body_from) ⊆ body_to` (as atom sets) and `h(head_from) =
/// head_to`. Constants map to themselves.
///
/// Returns the first homomorphism found, or `None`.
///
/// Both queries must be plain CQs (no negation; inequalities are ignored —
/// callers needing `CQ≠` containment should use semantic checks).
pub fn homomorphism(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Homomorphism> {
    assert!(
        from.negated.is_empty() && to.negated.is_empty(),
        "homomorphism containment is defined for negation-free queries"
    );
    // Head shapes must agree.
    if from.head.rel != to.head.rel || from.head.arity() != to.head.arity() {
        return None;
    }
    let mut h: Homomorphism = Homomorphism::new();
    // Head constraint: h(head_from) = head_to, position-wise.
    for (s, t) in from.head.terms.iter().zip(to.head.terms.iter()) {
        match s {
            Term::Const(c) => {
                if Term::Const(*c) != *t {
                    return None;
                }
            }
            Term::Var(v) => match h.get(v) {
                Some(prev) => {
                    if prev != t {
                        return None;
                    }
                }
                None => {
                    h.insert(v.clone(), t.clone());
                }
            },
        }
    }

    // Index target atoms by relation.
    let mut target: FxMap<crate::symbols::RelId, Vec<&Atom>> = fxmap();
    for a in &to.body {
        target.entry(a.rel).or_default().push(a);
    }

    fn search(
        body: &[Atom],
        depth: usize,
        target: &FxMap<crate::symbols::RelId, Vec<&Atom>>,
        h: &mut Homomorphism,
    ) -> bool {
        if depth == body.len() {
            return true;
        }
        let a = &body[depth];
        let Some(candidates) = target.get(&a.rel) else {
            return false;
        };
        'cand: for cand in candidates {
            if cand.arity() != a.arity() {
                continue;
            }
            let mut newly: Vec<Var> = Vec::new();
            for (s, t) in a.terms.iter().zip(cand.terms.iter()) {
                match s {
                    Term::Const(c) => {
                        if Term::Const(*c) != *t {
                            for v in newly.drain(..) {
                                h.remove(&v);
                            }
                            continue 'cand;
                        }
                    }
                    Term::Var(v) => match h.get(v) {
                        Some(prev) => {
                            if prev != t {
                                for v in newly.drain(..) {
                                    h.remove(&v);
                                }
                                continue 'cand;
                            }
                        }
                        None => {
                            h.insert(v.clone(), t.clone());
                            newly.push(v.clone());
                        }
                    },
                }
            }
            if search(body, depth + 1, target, h) {
                return true;
            }
            for v in newly {
                h.remove(&v);
            }
        }
        false
    }

    if search(&from.body, 0, &target, &mut h) {
        Some(h)
    } else {
        None
    }
}

/// Containment `q ⊆ q′` for plain CQs: true iff a homomorphism `q′ → q`
/// exists (Chandra–Merlin).
pub fn contains(sub: &ConjunctiveQuery, sup: &ConjunctiveQuery) -> bool {
    homomorphism(sup, sub).is_some()
}

/// Equivalence of plain CQs: containment both ways.
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    contains(a, b) && contains(b, a)
}

/// UCQ containment `u ⊆ u′` (Sagiv–Yannakakis): every disjunct of `u` is
/// contained in some disjunct of `u′`.
pub fn union_contains(sub: &UnionQuery, sup: &UnionQuery) -> bool {
    sub.disjuncts
        .iter()
        .all(|d| sup.disjuncts.iter().any(|e| contains(d, e)))
}

/// Containment for CQs **with negation**, decided by bounded
/// counterexample search.
///
/// Section 4.1 of the survey shows `CQ¬` containment is
/// coNEXPTIME-complete (for unbounded arities, counterexample instances
/// can be exponentially large), so no homomorphism test applies. We
/// search exhaustively over all instances whose facts draw values from a
/// canonical universe of `extra_values` fresh constants plus both
/// queries' constants: a returned counterexample is definitive; `true`
/// means "contained up to the bound" (exact for the bounded-arity,
/// small-variable queries the survey discusses).
///
/// # Panics
/// Panics when the candidate-fact space exceeds 22 facts.
pub fn contains_neg_bounded(
    sub: &ConjunctiveQuery,
    sup: &ConjunctiveQuery,
    extra_values: usize,
) -> Result<(), Box<crate::instance::Instance>> {
    use crate::eval::eval_query;
    use crate::fact::Val;
    use crate::instance::Instance;

    // Candidate universe: both queries' constants + fresh values.
    let mut universe: Vec<Val> = sub.constants();
    universe.extend(sup.constants());
    universe.extend((0..extra_values as u64).map(|i| Val(0x70_0000 + i)));
    universe.sort_unstable();
    universe.dedup();

    // Combined schema.
    let mut schema: Vec<(crate::symbols::RelId, usize)> = sub
        .body
        .iter()
        .chain(sub.negated.iter())
        .chain(sup.body.iter())
        .chain(sup.negated.iter())
        .map(|a| (a.rel, a.arity()))
        .collect();
    schema.sort_unstable();
    schema.dedup();

    let mut facts = Vec::new();
    for &(rel, arity) in &schema {
        let mut idx = vec![0usize; arity];
        if arity == 0 {
            facts.push(crate::fact::Fact::new(rel, Vec::new()));
            continue;
        }
        loop {
            facts.push(crate::fact::Fact::new(
                rel,
                idx.iter()
                    .map(|&i| universe[i])
                    .collect::<crate::fact::Args>(),
            ));
            let mut k = 0;
            while k < arity {
                idx[k] += 1;
                if idx[k] < universe.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == arity {
                break;
            }
        }
    }
    assert!(
        facts.len() <= 22,
        "candidate space too large: {}",
        facts.len()
    );
    for mask in 0u64..(1u64 << facts.len()) {
        let instance = Instance::from_facts(
            facts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, f)| f.clone()),
        );
        if !eval_query(sub, &instance).is_subset_of(&eval_query(sup, &instance)) {
            return Err(Box::new(instance));
        }
    }
    Ok(())
}

/// Compute the **core** of a plain CQ: an equivalent query with a minimal
/// set of body atoms, obtained by repeatedly dropping atoms that are
/// redundant (the query without the atom still maps homomorphically into
/// itself while fixing the head).
pub fn core(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    assert!(q.is_plain_cq(), "core is defined for plain CQs");
    let mut current = q.clone();
    'outer: loop {
        for i in 0..current.body.len() {
            if current.body.len() == 1 {
                break 'outer;
            }
            let mut reduced_body = current.body.clone();
            reduced_body.remove(i);
            if let Ok(reduced) = ConjunctiveQuery::new(current.head.clone(), reduced_body) {
                // Dropping atoms relaxes the body, so current ⊆ reduced
                // always holds. Equivalence needs reduced ⊆ current, i.e. a
                // homomorphism from `current` into `reduced`:
                if homomorphism(&current, &reduced).is_some() {
                    current = reduced;
                    continue 'outer;
                }
            }
        }
        break;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn identity_containment() {
        let q = parse_query("H(x,y) <- R(x,y)").unwrap();
        assert!(contains(&q, &q));
        assert!(equivalent(&q, &q));
    }

    #[test]
    fn specialization_is_contained() {
        // Q: R(x,x) is contained in Q': R(x,y) (every loop edge is an edge).
        let q = parse_query("H(x) <- R(x,x)").unwrap();
        let qp = parse_query("H(x) <- R(x,y)").unwrap();
        assert!(contains(&q, &qp));
        assert!(!contains(&qp, &q));
    }

    /// Figure 1(b) of the survey: containment among Q1..Q4 of Example 4.11.
    #[test]
    fn figure_1b_containments() {
        let q1 = parse_query("H() <- S(x), R(x,x), T(x)").unwrap();
        let q2 = parse_query("H() <- R(x,x), T(x)").unwrap();
        let q3 = parse_query("H() <- S(x), R(x,y), T(y)").unwrap();
        let q4 = parse_query("H() <- R(x,y), T(y)").unwrap();
        // Arrows in the figure (⊆ direction): Q1 ⊆ Q2, Q1 ⊆ Q3, Q3 ⊆ Q4,
        // Q2 ⊆ Q4, Q1 ⊆ Q4.
        assert!(contains(&q1, &q2));
        assert!(contains(&q1, &q3));
        assert!(contains(&q3, &q4));
        assert!(contains(&q2, &q4));
        assert!(contains(&q1, &q4));
        // And the non-containments.
        assert!(!contains(&q2, &q1));
        assert!(!contains(&q3, &q1));
        assert!(!contains(&q4, &q3));
        assert!(!contains(&q4, &q2));
        assert!(!contains(&q2, &q3));
        assert!(!contains(&q3, &q2));
    }

    #[test]
    fn head_must_be_preserved() {
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let qp = parse_query("H(y) <- R(x,y)").unwrap();
        // H(x) <- R(x,y) returns sources; H(y) <- R(x,y) returns targets.
        assert!(!contains(&q, &qp));
        assert!(!contains(&qp, &q));
    }

    #[test]
    fn constants_map_to_themselves() {
        let q = parse_query("H(x) <- R(x, 'a')").unwrap();
        let qp = parse_query("H(x) <- R(x, y)").unwrap();
        assert!(contains(&q, &qp));
        assert!(!contains(&qp, &q));
    }

    #[test]
    fn union_containment() {
        use crate::parser::parse_union;
        let u = parse_union("H(x) <- R(x,x)").unwrap();
        let v = parse_union("H(x) <- R(x,y); H(x) <- S(x)").unwrap();
        assert!(union_contains(&u, &v));
        assert!(!union_contains(&v, &u));
    }

    #[test]
    fn core_removes_redundant_atoms() {
        // R(x,y), R(x,z) folds onto R(x,y) when only x is in the head.
        let q = parse_query("H(x) <- R(x,y), R(x,z)").unwrap();
        let c = core(&q);
        assert_eq!(c.body.len(), 1);
        assert!(equivalent(&q, &c));
    }

    #[test]
    fn core_keeps_non_redundant_atoms() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let c = core(&q);
        assert_eq!(c.body.len(), 3);
    }

    #[test]
    fn core_of_path_with_loop() {
        // H(x,z) <- R(x,y), R(y,z), R(x,x): collapsing y,z to x maps the
        // body into {R(x,x)} but changes the head (z↦x), so the core keeps
        // all three atoms.
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let c = core(&q);
        assert_eq!(c.body.len(), 3);
    }

    #[test]
    fn neg_containment_agrees_with_hom_on_plain_cqs() {
        let q = parse_query("H(x) <- R(x,x)").unwrap();
        let qp = parse_query("H(x) <- R(x,y)").unwrap();
        assert!(contains_neg_bounded(&q, &qp, 2).is_ok());
        assert!(contains_neg_bounded(&qp, &q, 2).is_err());
    }

    #[test]
    fn neg_containment_with_negated_atoms() {
        // H(x) <- R(x), not S(x) is contained in H(x) <- R(x)…
        let a = parse_query("H(x) <- R(x), not S(x)").unwrap();
        let b = parse_query("H(x) <- R(x)").unwrap();
        assert!(contains_neg_bounded(&a, &b, 2).is_ok());
        // …but not vice versa (witness: I = {R(c), S(c)}).
        let ce = contains_neg_bounded(&b, &a, 2).unwrap_err();
        assert!(ce.len() >= 2);
        // And two incomparable negations.
        let c = parse_query("H(x) <- R(x), not T(x)").unwrap();
        assert!(contains_neg_bounded(&a, &c, 2).is_err());
    }

    #[test]
    fn neg_containment_open_vs_unconstrained_triangle() {
        let open = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let wedge = parse_query("H(x,y,z) <- E(x,y), E(y,z)").unwrap();
        assert!(contains_neg_bounded(&open, &wedge, 3).is_ok());
        assert!(contains_neg_bounded(&wedge, &open, 3).is_err());
    }

    #[test]
    fn boolean_core_collapses() {
        // Boolean version: head is empty, so y,z may collapse onto x.
        let q = parse_query("H() <- R(x,y), R(y,z), R(x,x)").unwrap();
        let c = core(&q);
        assert_eq!(c.body.len(), 1);
        assert!(equivalent(&q, &c));
    }
}
