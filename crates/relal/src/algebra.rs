//! A positional (unnamed) relational algebra.
//!
//! Section 3.2 of the survey cites the formalization of MapReduce by
//! Neven et al. \[47\], which identifies fragments expressing "the semi-join
//! algebra and the complete relational algebra". This module provides
//! that algebra as a first-class AST — selections, projections, products,
//! equi-joins, semijoins, antijoins, union, difference — with a
//! centralized evaluator; `parlog-mpc::ra_distributed` evaluates the same
//! expressions as multi-round MPC programs and the tests cross-validate
//! the two.
//!
//! Attributes are positional: a relation of arity `k` has columns
//! `0..k`. Expression arities are checked at construction.

use crate::fact::Val;
use crate::fastmap::{fxmap, fxset, FxSet};
use crate::instance::Instance;
use crate::symbols::RelId;
use std::fmt;

/// A selection predicate over one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// Columns `a` and `b` are equal.
    Eq(usize, usize),
    /// Columns `a` and `b` differ.
    Neq(usize, usize),
    /// Column `a` equals the constant.
    EqConst(usize, Val),
    /// Column `a` differs from the constant.
    NeqConst(usize, Val),
}

impl Condition {
    fn max_col(&self) -> usize {
        match self {
            Condition::Eq(a, b) | Condition::Neq(a, b) => *a.max(b),
            Condition::EqConst(a, _) | Condition::NeqConst(a, _) => *a,
        }
    }

    /// Does the tuple satisfy the condition?
    pub fn holds(&self, t: &[Val]) -> bool {
        match self {
            Condition::Eq(a, b) => t[*a] == t[*b],
            Condition::Neq(a, b) => t[*a] != t[*b],
            Condition::EqConst(a, c) => t[*a] == *c,
            Condition::NeqConst(a, c) => t[*a] != *c,
        }
    }
}

/// A relational-algebra expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaExpr {
    /// A base relation with the given arity.
    Rel(RelId, usize),
    /// σ: keep tuples satisfying all conditions.
    Select(Box<RaExpr>, Vec<Condition>),
    /// π: reorder/duplicate/drop columns.
    Project(Box<RaExpr>, Vec<usize>),
    /// ×: cartesian product (columns of left then right).
    Product(Box<RaExpr>, Box<RaExpr>),
    /// ⋈: equi-join on pairs (left column, right column); output = left
    /// columns then the right's non-join columns.
    Join(Box<RaExpr>, Box<RaExpr>, Vec<(usize, usize)>),
    /// ⋉: left tuples with a join partner.
    Semijoin(Box<RaExpr>, Box<RaExpr>, Vec<(usize, usize)>),
    /// ▷: left tuples without a join partner.
    Antijoin(Box<RaExpr>, Box<RaExpr>, Vec<(usize, usize)>),
    /// ∪ (same arity).
    Union(Box<RaExpr>, Box<RaExpr>),
    /// ∖ (same arity).
    Difference(Box<RaExpr>, Box<RaExpr>),
}

/// Errors from arity checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityError(pub String);

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arity error: {}", self.0)
    }
}

impl std::error::Error for ArityError {}

impl RaExpr {
    /// Base-relation shorthand.
    pub fn rel(name: &str, arity: usize) -> RaExpr {
        RaExpr::Rel(crate::symbols::rel(name), arity)
    }

    /// σ shorthand.
    pub fn select(self, conds: Vec<Condition>) -> RaExpr {
        RaExpr::Select(Box::new(self), conds)
    }

    /// π shorthand.
    pub fn project(self, cols: Vec<usize>) -> RaExpr {
        RaExpr::Project(Box::new(self), cols)
    }

    /// ⋈ shorthand.
    pub fn join(self, other: RaExpr, on: Vec<(usize, usize)>) -> RaExpr {
        RaExpr::Join(Box::new(self), Box::new(other), on)
    }

    /// ⋉ shorthand.
    pub fn semijoin(self, other: RaExpr, on: Vec<(usize, usize)>) -> RaExpr {
        RaExpr::Semijoin(Box::new(self), Box::new(other), on)
    }

    /// ▷ shorthand.
    pub fn antijoin(self, other: RaExpr, on: Vec<(usize, usize)>) -> RaExpr {
        RaExpr::Antijoin(Box::new(self), Box::new(other), on)
    }

    /// ∪ shorthand.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union(Box::new(self), Box::new(other))
    }

    /// ∖ shorthand.
    pub fn difference(self, other: RaExpr) -> RaExpr {
        RaExpr::Difference(Box::new(self), Box::new(other))
    }

    /// The output arity; errors on inconsistent column references.
    pub fn arity(&self) -> Result<usize, ArityError> {
        match self {
            RaExpr::Rel(_, k) => Ok(*k),
            RaExpr::Select(e, conds) => {
                let k = e.arity()?;
                for c in conds {
                    if c.max_col() >= k {
                        return Err(ArityError(format!(
                            "selection condition {c:?} out of range for arity {k}"
                        )));
                    }
                }
                Ok(k)
            }
            RaExpr::Project(e, cols) => {
                let k = e.arity()?;
                if let Some(&bad) = cols.iter().find(|&&c| c >= k) {
                    return Err(ArityError(format!(
                        "projection column {bad} out of range for arity {k}"
                    )));
                }
                Ok(cols.len())
            }
            RaExpr::Product(l, r) => Ok(l.arity()? + r.arity()?),
            RaExpr::Join(l, r, on) => {
                let (kl, kr) = (l.arity()?, r.arity()?);
                check_on(on, kl, kr)?;
                Ok(kl + kr - on.len())
            }
            RaExpr::Semijoin(l, r, on) | RaExpr::Antijoin(l, r, on) => {
                let (kl, kr) = (l.arity()?, r.arity()?);
                check_on(on, kl, kr)?;
                Ok(kl)
            }
            RaExpr::Union(l, r) | RaExpr::Difference(l, r) => {
                let (kl, kr) = (l.arity()?, r.arity()?);
                if kl != kr {
                    return Err(ArityError(format!(
                        "set operation over arities {kl} and {kr}"
                    )));
                }
                Ok(kl)
            }
        }
    }

    /// Is the expression in the **semijoin algebra** (no join, product or
    /// difference — the fragment the survey’s reference \[47\] shows
    /// expressible with constant-memory reducers)?
    pub fn is_semijoin_algebra(&self) -> bool {
        match self {
            RaExpr::Rel(..) => true,
            RaExpr::Select(e, _) | RaExpr::Project(e, _) => e.is_semijoin_algebra(),
            RaExpr::Semijoin(l, r, _) | RaExpr::Antijoin(l, r, _) | RaExpr::Union(l, r) => {
                l.is_semijoin_algebra() && r.is_semijoin_algebra()
            }
            RaExpr::Product(..) | RaExpr::Join(..) | RaExpr::Difference(..) => false,
        }
    }
}

fn check_on(on: &[(usize, usize)], kl: usize, kr: usize) -> Result<(), ArityError> {
    for &(a, b) in on {
        if a >= kl || b >= kr {
            return Err(ArityError(format!(
                "join column pair ({a},{b}) out of range for arities {kl}/{kr}"
            )));
        }
    }
    Ok(())
}

/// A set of positional tuples — the value an algebra expression denotes.
pub type Tuples = FxSet<Vec<Val>>;

/// Evaluate an expression against an instance (base relations read facts
/// of matching arity).
pub fn eval_ra(expr: &RaExpr, db: &Instance) -> Result<Tuples, ArityError> {
    expr.arity()?; // validate the whole tree up front
    Ok(eval_inner(expr, db))
}

fn eval_inner(expr: &RaExpr, db: &Instance) -> Tuples {
    match expr {
        RaExpr::Rel(r, k) => db
            .relation(*r)
            .filter(|f| f.arity() == *k)
            .map(|f| f.args.to_vec())
            .collect(),
        RaExpr::Select(e, conds) => eval_inner(e, db)
            .into_iter()
            .filter(|t| conds.iter().all(|c| c.holds(t)))
            .collect(),
        RaExpr::Project(e, cols) => eval_inner(e, db)
            .into_iter()
            .map(|t| cols.iter().map(|&c| t[c]).collect())
            .collect(),
        RaExpr::Product(l, r) => {
            let lt = eval_inner(l, db);
            let rt = eval_inner(r, db);
            let mut out = fxset();
            for a in &lt {
                for b in &rt {
                    let mut t = a.clone();
                    t.extend_from_slice(b);
                    out.insert(t);
                }
            }
            out
        }
        RaExpr::Join(l, r, on) => {
            let lt = eval_inner(l, db);
            let rt = eval_inner(r, db);
            let mut index: crate::fastmap::FxMap<Vec<Val>, Vec<&Vec<Val>>> = fxmap();
            for b in &rt {
                let key: Vec<Val> = on.iter().map(|&(_, j)| b[j]).collect();
                index.entry(key).or_default().push(b);
            }
            let drop_right: Vec<usize> = on.iter().map(|&(_, j)| j).collect();
            let mut out = fxset();
            for a in &lt {
                let key: Vec<Val> = on.iter().map(|&(i, _)| a[i]).collect();
                if let Some(bs) = index.get(&key) {
                    for b in bs {
                        let mut t = a.clone();
                        for (j, v) in b.iter().enumerate() {
                            if !drop_right.contains(&j) {
                                t.push(*v);
                            }
                        }
                        out.insert(t);
                    }
                }
            }
            out
        }
        RaExpr::Semijoin(l, r, on) | RaExpr::Antijoin(l, r, on) => {
            let keep_matches = matches!(expr, RaExpr::Semijoin(..));
            let lt = eval_inner(l, db);
            let rt = eval_inner(r, db);
            let keys: FxSet<Vec<Val>> = rt
                .iter()
                .map(|b| on.iter().map(|&(_, j)| b[j]).collect())
                .collect();
            lt.into_iter()
                .filter(|a| {
                    let key: Vec<Val> = on.iter().map(|&(i, _)| a[i]).collect();
                    keys.contains(&key) == keep_matches
                })
                .collect()
        }
        RaExpr::Union(l, r) => {
            let mut out = eval_inner(l, db);
            out.extend(eval_inner(r, db));
            out
        }
        RaExpr::Difference(l, r) => {
            let rt = eval_inner(r, db);
            eval_inner(l, db)
                .into_iter()
                .filter(|t| !rt.contains(t))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;

    fn db() -> Instance {
        Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[2, 3]),
            fact("R", &[3, 3]),
            fact("S", &[2, 10]),
            fact("S", &[3, 20]),
        ])
    }

    fn tuples(ts: &[&[u64]]) -> Tuples {
        ts.iter()
            .map(|t| t.iter().map(|&v| Val(v)).collect())
            .collect()
    }

    #[test]
    fn base_select_project() {
        let e = RaExpr::rel("R", 2).select(vec![Condition::Eq(0, 1)]);
        assert_eq!(eval_ra(&e, &db()).unwrap(), tuples(&[&[3, 3]]));
        let p = RaExpr::rel("R", 2).project(vec![1]);
        assert_eq!(eval_ra(&p, &db()).unwrap(), tuples(&[&[2], &[3]]));
        // Projection may duplicate and reorder.
        let pp = RaExpr::rel("S", 2).project(vec![1, 0, 1]);
        assert!(eval_ra(&pp, &db())
            .unwrap()
            .contains(&vec![Val(10), Val(2), Val(10)]));
    }

    #[test]
    fn join_drops_duplicate_columns() {
        let e = RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![(1, 0)]);
        assert_eq!(e.arity().unwrap(), 3);
        assert_eq!(
            eval_ra(&e, &db()).unwrap(),
            tuples(&[&[1, 2, 10], &[2, 3, 20], &[3, 3, 20]])
        );
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let semi = RaExpr::rel("R", 2).semijoin(RaExpr::rel("S", 2), vec![(1, 0)]);
        let anti = RaExpr::rel("R", 2).antijoin(RaExpr::rel("S", 2), vec![(1, 0)]);
        let s = eval_ra(&semi, &db()).unwrap();
        let a = eval_ra(&anti, &db()).unwrap();
        assert_eq!(s.len() + a.len(), 3);
        assert!(s.contains(&vec![Val(1), Val(2)]));
        assert!(a.is_empty() || a.iter().all(|t| !s.contains(t)));
    }

    #[test]
    fn union_and_difference() {
        let u = RaExpr::rel("R", 2).union(RaExpr::rel("S", 2));
        assert_eq!(eval_ra(&u, &db()).unwrap().len(), 5);
        let d = RaExpr::rel("R", 2).difference(RaExpr::rel("S", 2));
        assert_eq!(eval_ra(&d, &db()).unwrap().len(), 3);
    }

    #[test]
    fn product_arity_and_size() {
        let p = RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![]);
        // Empty `on` join = product without dropped columns.
        assert_eq!(p.arity().unwrap(), 4);
        assert_eq!(eval_ra(&p, &db()).unwrap().len(), 6);
        let prod = RaExpr::Product(Box::new(RaExpr::rel("R", 2)), Box::new(RaExpr::rel("S", 2)));
        assert_eq!(eval_ra(&prod, &db()).unwrap().len(), 6);
    }

    #[test]
    fn arity_errors_are_caught() {
        assert!(RaExpr::rel("R", 2).project(vec![5]).arity().is_err());
        assert!(RaExpr::rel("R", 2)
            .select(vec![Condition::Eq(0, 9)])
            .arity()
            .is_err());
        assert!(RaExpr::rel("R", 2)
            .union(RaExpr::rel("S", 1))
            .arity()
            .is_err());
        assert!(RaExpr::rel("R", 2)
            .join(RaExpr::rel("S", 2), vec![(0, 7)])
            .arity()
            .is_err());
    }

    #[test]
    fn semijoin_algebra_fragment_detection() {
        let sj = RaExpr::rel("R", 2)
            .semijoin(RaExpr::rel("S", 2), vec![(1, 0)])
            .select(vec![Condition::NeqConst(0, Val(9))])
            .union(RaExpr::rel("R", 2).antijoin(RaExpr::rel("S", 2), vec![(0, 0)]));
        assert!(sj.is_semijoin_algebra());
        let j = RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![(1, 0)]);
        assert!(!j.is_semijoin_algebra());
    }

    #[test]
    fn matches_cq_evaluation_on_conjunctive_expression() {
        // H(x,y,z) <- R(x,y), S(y,z) as algebra: R ⋈ S on (1,0).
        use crate::parser::parse_query;
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let cq_out = crate::eval::eval_query(&q, &db());
        let ra_out = eval_ra(
            &RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![(1, 0)]),
            &db(),
        )
        .unwrap();
        let cq_tuples: Tuples = cq_out.iter().map(|f| f.args.to_vec()).collect();
        assert_eq!(cq_tuples, ra_out);
    }

    #[test]
    fn complement_of_tc_step_via_difference() {
        // One algebraic step of ¬TC: (adom × adom) ∖ E.
        let adom = RaExpr::rel("R", 2)
            .project(vec![0])
            .union(RaExpr::rel("R", 2).project(vec![1]));
        let pairs = RaExpr::Product(Box::new(adom.clone()), Box::new(adom));
        let non_edges = pairs.difference(RaExpr::rel("R", 2));
        let out = eval_ra(&non_edges, &db()).unwrap();
        // adom = {1,2,3}: 9 pairs − 3 edges = 6.
        assert_eq!(out.len(), 6);
        assert!(!out.contains(&vec![Val(1), Val(2)]));
    }
}
