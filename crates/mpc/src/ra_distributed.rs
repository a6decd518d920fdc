//! Distributed evaluation of the complete relational algebra in the MPC
//! model.
//!
//! Section 3.2 cites the formalization of MapReduce \[47\] obtaining
//! "fragments that can express the semi-join algebra and the complete
//! relational algebra". This module compiles
//! [`parlog_relal::algebra::RaExpr`] trees into multi-round MPC programs:
//!
//! | operator | rounds | routing |
//! |---|---|---|
//! | σ, π, ∪ | 0 (local) | — |
//! | ⋈, ⋉, ▷ | 1 | hash on the join key (both sides) |
//! | ∖ | 1 | hash on the whole tuple (both sides) |
//! | × | 1 | grouped √p-grid (value-oblivious, skew-free) |
//!
//! Antijoin and difference are correct distributed because hashing
//! co-locates *all* tuples sharing a key/value: absence at the
//! responsible server is global absence. Expressions in the semijoin
//! algebra never materialize anything larger than their inputs — the
//! property reference \[47\] exploits.

use crate::cluster::{layer, rule, rule_unless, Cluster, Routing};
use crate::partition::{route_by_key, seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use parlog_relal::algebra::{ArityError, Condition, RaExpr};
use parlog_relal::atom::{Atom, Term};
use parlog_relal::eval::QueryPlan;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::{rel, rel_name, RelId};

/// Distributed RA evaluator.
pub struct DistributedRa {
    p: usize,
    seed: u64,
}

/// The positional variables `{name}0, …, {name}{k−1}`: column `i` of a
/// relation is the variable `{name}i` in the rules an expression lowers to.
fn columns(name: &str, k: usize) -> Vec<Term> {
    (0..k).map(|i| Term::var(format!("{name}{i}"))).collect()
}

/// Make `a` and `b` one term throughout `terms`. Two different constants
/// cannot be made equal; an always-false inequality records that.
fn unify(terms: &mut [Term], never: &mut Vec<(Term, Term)>, a: &Term, b: &Term) {
    let (from, to) = match (a, b) {
        (Term::Const(x), Term::Const(y)) => {
            if x != y {
                never.push((a.clone(), a.clone()));
            }
            return;
        }
        (Term::Var(_), _) => (a.clone(), b.clone()),
        _ => (b.clone(), a.clone()),
    };
    for t in terms.iter_mut().filter(|t| **t == from) {
        *t = to.clone();
    }
}

/// σ as one rule: equalities merge columns or fix them to constants, and
/// inequalities stay inequalities, so `out(t̄) <- input(t̄), …` keeps
/// exactly the tuples satisfying every condition.
fn select_rule(out: RelId, input: RelId, k: usize, conds: &[Condition]) -> ConjunctiveQuery {
    let mut terms = columns("x", k);
    let mut inequalities = Vec::new();
    for c in conds {
        match *c {
            Condition::Eq(a, b) => {
                let (ta, tb) = (terms[a].clone(), terms[b].clone());
                unify(&mut terms, &mut inequalities, &ta, &tb);
            }
            Condition::EqConst(a, v) => {
                let ta = terms[a].clone();
                unify(&mut terms, &mut inequalities, &ta, &Term::Const(v));
            }
            Condition::Neq(..) | Condition::NeqConst(..) => {}
        }
    }
    for c in conds {
        match *c {
            Condition::Neq(a, b) => inequalities.push((terms[a].clone(), terms[b].clone())),
            Condition::NeqConst(a, v) => inequalities.push((terms[a].clone(), Term::Const(v))),
            Condition::Eq(..) | Condition::EqConst(..) => {}
        }
    }
    ConjunctiveQuery {
        head: Atom::new(out, terms.clone()),
        body: vec![Atom::new(input, terms)],
        negated: Vec::new(),
        inequalities,
    }
}

/// ⋈ as one rule: `out(x̄, ȳ′) <- L(x̄), R(ȳ)` where each key pair shares
/// one variable and `ȳ′` is `ȳ` without the right key columns.
fn join_rule(
    out: RelId,
    (l, kl): (RelId, usize),
    (r, kr): (RelId, usize),
    on: &[(usize, usize)],
) -> ConjunctiveQuery {
    let mut terms = columns("x", kl);
    terms.extend(columns("y", kr));
    for &(i, j) in on {
        let (ti, tj) = (terms[i].clone(), terms[kl + j].clone());
        unify(&mut terms, &mut Vec::new(), &ti, &tj);
    }
    let right: Vec<Term> = terms.split_off(kl);
    let mut head = terms.clone();
    head.extend(
        (0..kr)
            .filter(|j| on.iter().all(|&(_, oj)| oj != *j))
            .map(|j| right[j].clone()),
    );
    rule(
        Atom::new(out, head),
        vec![Atom::new(l, terms), Atom::new(r, right)],
    )
}

impl DistributedRa {
    /// Build for `p` servers.
    pub fn new(p: usize, seed: u64) -> DistributedRa {
        assert!(p >= 1);
        DistributedRa { p, seed }
    }

    /// Evaluate `expr` over `db`. The output tuples are returned as facts
    /// of the relation `out_name`; the report carries loads and rounds.
    pub fn run(
        &self,
        expr: &RaExpr,
        db: &Instance,
        out_name: &str,
    ) -> Result<RunReport, ArityError> {
        expr.arity()?;
        let mut cluster = Cluster::new(self.p);
        seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
        let mut counter = 0usize;
        let (root, k) = self.eval_node(expr, &mut cluster, &mut counter);
        // Final local steps: the inputs go, then the result is copied
        // into `out_name` (which may name an input relation).
        let xs = columns("x", k);
        let copy = rule(
            Atom::new(rel(out_name), xs.clone()),
            vec![Atom::new(root, xs)],
        );
        cluster.compute_rules(&[], &db.relations().collect::<Vec<_>>());
        cluster.compute_rules(&[layer(&[copy])], &[root]);
        Ok(RunReport::from_cluster(
            "distributed-ra",
            &cluster,
            db.len(),
        ))
    }

    /// Lower `expr` onto the cluster: its children first, then — for
    /// the pairwise operators — one hash-on-key round (a grid round for
    /// ×), then one rule phase deriving the node's fresh relation from
    /// its children's, which it consumes. Returns the relation and arity.
    fn eval_node(
        &self,
        expr: &RaExpr,
        cluster: &mut Cluster,
        counter: &mut usize,
    ) -> (RelId, usize) {
        *counter += 1;
        let out = rel(&format!("‡ra{}_{counter}", self.seed));
        let k = expr.arity().expect("validated by run");
        let mut eval = |e: &RaExpr| self.eval_node(e, cluster, counter);
        let kids: Vec<(RelId, usize)> = match expr {
            RaExpr::Rel(..) => vec![],
            RaExpr::Select(e, _) | RaExpr::Project(e, _) => vec![eval(e)],
            RaExpr::Product(l, r)
            | RaExpr::Join(l, r, _)
            | RaExpr::Semijoin(l, r, _)
            | RaExpr::Antijoin(l, r, _)
            | RaExpr::Union(l, r)
            | RaExpr::Difference(l, r) => vec![eval(l), eval(r)],
        };
        let mut drop: Vec<RelId> = kids.iter().map(|&(r, _)| r).collect();
        let seed = self.seed ^ ((*counter as u64) << 9);
        let h = HashPartitioner::new(seed, self.p);
        match expr {
            RaExpr::Join(.., on) | RaExpr::Semijoin(.., on) | RaExpr::Antijoin(.., on) => {
                let (lkey, rkey) = on.iter().copied().unzip();
                route_by_key(cluster, &[(drop[0], lkey, h), (drop[1], rkey, h)]);
            }
            RaExpr::Difference(..) => {
                let all: Vec<usize> = (0..k).collect();
                route_by_key(cluster, &[(drop[0], all.clone(), h), (drop[1], all, h)]);
            }
            RaExpr::Product(..) => grid_round(cluster, drop[0], drop[1], seed),
            _ => {}
        }
        let xs = columns("x", k);
        let head = Atom::new(out, xs.clone());
        let kid = |i: usize, terms: Vec<Term>| Atom::new(kids[i].0, terms);
        let layers: Vec<Vec<ConjunctiveQuery>> = match expr {
            RaExpr::Rel(r, _) => vec![vec![rule(head, vec![Atom::new(*r, xs)])]],
            RaExpr::Select(_, conds) => vec![vec![select_rule(out, kids[0].0, k, conds)]],
            RaExpr::Project(_, cols) => {
                let xi = columns("x", kids[0].1);
                let head = Atom::new(out, cols.iter().map(|&c| xi[c].clone()).collect());
                vec![vec![rule(head, vec![kid(0, xi)])]]
            }
            RaExpr::Union(..) => vec![(0..2)
                .map(|i| rule(head.clone(), vec![kid(i, xs.clone())]))
                .collect()],
            RaExpr::Join(.., on) => vec![vec![join_rule(out, kids[0], kids[1], on)]],
            RaExpr::Semijoin(.., on) | RaExpr::Antijoin(.., on) => {
                // Two layers, so the step costs |L| + |R|: the right
                // side's keys, then L's tuples with (⋉) or without (▷) one.
                let key_rel = rel(&format!("{}k", rel_name(out)));
                drop.push(key_rel);
                let ys = columns("y", kids[1].1);
                let keys = Atom::new(key_rel, on.iter().map(|&(_, j)| ys[j].clone()).collect());
                let key = Atom::new(key_rel, on.iter().map(|&(i, _)| xs[i].clone()).collect());
                let filter = match expr {
                    RaExpr::Semijoin(..) => rule(head, vec![kid(0, xs), key]),
                    _ => rule_unless(head, vec![kid(0, xs)], vec![key]),
                };
                vec![vec![rule(keys, vec![kid(1, ys)])], vec![filter]]
            }
            RaExpr::Difference(..) => vec![vec![rule_unless(
                head,
                vec![kid(0, xs.clone())],
                vec![kid(1, xs)],
            )]],
            RaExpr::Product(..) => {
                let (left, right) = xs.split_at(kids[0].1);
                vec![vec![rule(
                    head.clone(),
                    vec![kid(0, left.to_vec()), kid(1, right.to_vec())],
                )]]
            }
        };
        let layers: Vec<QueryPlan> = layers.iter().map(|rules| layer(rules)).collect();
        cluster.compute_rules(&layers, &drop);
        (out, k)
    }
}

/// The grouped √p-grid round of ×: `L` tuples fill a row, `R` tuples a
/// column, so every pair meets in exactly one cell; other facts stay.
fn grid_round(cluster: &mut Cluster, l: RelId, r: RelId, seed: u64) {
    let g = ((cluster.p() as f64).sqrt().floor() as usize).max(1);
    let h = HashPartitioner::new(seed, g);
    cluster.reshuffle(|_, f| {
        if f.rel == l {
            let row = h.bucket_of(&f.args);
            Routing::Send((0..g).map(|c| row * g + c).collect())
        } else if f.rel == r {
            let col = h.bucket_of(&f.args);
            Routing::Send((0..g).map(|r| r * g + col).collect())
        } else {
            Routing::Keep
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::algebra::eval_ra;
    use parlog_relal::fact::Val;

    /// Compare distributed output with the centralized evaluator.
    fn check(expr: &RaExpr, db: &Instance, p: usize) -> RunReport {
        let report = DistributedRa::new(p, 7).run(expr, db, "Out").unwrap();
        let expected = eval_ra(expr, db).unwrap();
        let got: parlog_relal::fastmap::FxSet<Vec<Val>> = report
            .output
            .relation(rel("Out"))
            .map(|f| f.args.to_vec())
            .collect();
        assert_eq!(got, expected);
        report
    }

    fn db() -> Instance {
        let mut d = datagen::uniform_relation("R", 150, 40, 1);
        d.extend_from(&datagen::uniform_relation("S", 150, 40, 2));
        d
    }

    #[test]
    fn join_one_round() {
        let e = RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![(1, 0)]);
        let r = check(&e, &db(), 8);
        assert_eq!(r.stats.rounds, 1);
    }

    /// A base relation holding facts of two arities: `rel("R", 2)` reads
    /// only the binary ones, as `eval_ra` does.
    #[test]
    fn base_relation_reads_only_its_arity() {
        let mut d = db();
        d.extend_from(&Instance::from_facts(
            (0..40u64).map(|i| parlog_relal::fact::fact("R", &[i, i % 7, 1])),
        ));
        let e = RaExpr::rel("R", 2)
            .join(RaExpr::rel("S", 2), vec![(1, 0)])
            .union(RaExpr::rel("R", 3).project(vec![0, 1, 1]));
        let r = check(&e, &d, 8);
        assert!(r.output.iter().all(|f| f.arity() == 3));
        let binary = check(&RaExpr::rel("R", 2), &d, 8);
        assert_eq!(binary.output.len(), 150);
    }

    /// The output relation may carry an input's name: the output is the
    /// result alone.
    #[test]
    fn output_may_reuse_an_input_name() {
        let e = RaExpr::rel("R", 2).project(vec![1, 0]);
        let r = DistributedRa::new(4, 7).run(&e, &db(), "R").unwrap();
        let flipped = |f: &parlog_relal::fact::Fact| vec![f.args[1], f.args[0]];
        let want: parlog_relal::fastmap::FxSet<Vec<Val>> =
            db().relation(rel("R")).map(flipped).collect();
        let got: parlog_relal::fastmap::FxSet<Vec<Val>> =
            r.output.iter().map(|f| f.args.to_vec()).collect();
        assert_eq!(got, want);
        assert_eq!(r.output.relation_len(rel("R")), r.output.len());
    }

    /// The rule lowering on the shapes the tests above miss: empty and
    /// repeated keys, merged and constant-fixed columns, contradictory
    /// constants and nullary projections.
    #[test]
    fn lowering_matches_eval_ra_on_edge_shapes() {
        use Condition::{Eq, EqConst, Neq, NeqConst};
        let (r, s) = (RaExpr::rel("R", 2), RaExpr::rel("S", 2));
        let mut d = db();
        d.extend_from(&Instance::from_facts(
            (0..20u64).map(|i| parlog_relal::fact::fact("R", &[i % 5, i % 5])),
        ));
        let exprs = [
            r.clone().semijoin(s.clone(), vec![]),
            r.clone().antijoin(s.clone(), vec![]),
            r.clone().join(s.clone(), vec![(1, 0), (1, 1)]),
            r.clone().semijoin(s.clone(), vec![(0, 1), (1, 1)]),
            r.clone().select(vec![Eq(0, 1)]),
            r.clone().select(vec![Eq(0, 1), EqConst(1, Val(3))]),
            r.clone()
                .select(vec![EqConst(0, Val(3)), EqConst(1, Val(4)), Eq(0, 1)]),
            r.clone().select(vec![Neq(0, 1), NeqConst(0, Val(2))]),
            r.clone().project(vec![]),
            r.clone()
                .project(vec![1, 1, 0])
                .difference(s.clone().join(s, vec![(1, 0)])),
        ];
        for e in &exprs {
            check(e, &d, 5);
        }
    }

    #[test]
    fn semijoin_and_antijoin() {
        let semi = RaExpr::rel("R", 2).semijoin(RaExpr::rel("S", 2), vec![(1, 0)]);
        check(&semi, &db(), 8);
        let anti = RaExpr::rel("R", 2).antijoin(RaExpr::rel("S", 2), vec![(1, 0)]);
        check(&anti, &db(), 8);
    }

    #[test]
    fn union_is_free_difference_costs_a_round() {
        let u = RaExpr::rel("R", 2).union(RaExpr::rel("S", 2));
        let r = check(&u, &db(), 4);
        assert_eq!(r.stats.rounds, 0, "union needs no communication");
        let d = RaExpr::rel("R", 2).difference(RaExpr::rel("S", 2));
        let r = check(&d, &db(), 4);
        assert_eq!(r.stats.rounds, 1);
    }

    #[test]
    fn product_uses_grouped_grid() {
        let small = Instance::from_facts(
            (0..12u64)
                .map(|i| parlog_relal::fact::fact("R", &[i, i]))
                .chain((0..12u64).map(|i| parlog_relal::fact::fact("S", &[100 + i, i]))),
        );
        let p = RaExpr::Product(Box::new(RaExpr::rel("R", 2)), Box::new(RaExpr::rel("S", 2)));
        let r = check(&p, &small, 9);
        assert_eq!(r.stats.rounds, 1);
        assert_eq!(r.output.len(), 144);
    }

    #[test]
    fn composed_expression_semijoin_reduction() {
        // (R ⋉ S) ⋈ S, then a selection — 2 communication rounds.
        let e = RaExpr::rel("R", 2)
            .semijoin(RaExpr::rel("S", 2), vec![(1, 0)])
            .join(RaExpr::rel("S", 2), vec![(1, 0)])
            .select(vec![Condition::Neq(0, 2)]);
        let r = check(&e, &db(), 8);
        assert_eq!(r.stats.rounds, 2);
    }

    #[test]
    fn complement_pairs_via_product_and_difference() {
        let small = Instance::from_facts([
            parlog_relal::fact::fact("R", &[1, 2]),
            parlog_relal::fact::fact("R", &[2, 3]),
        ]);
        let adom = RaExpr::rel("R", 2)
            .project(vec![0])
            .union(RaExpr::rel("R", 2).project(vec![1]));
        let e =
            RaExpr::Product(Box::new(adom.clone()), Box::new(adom)).difference(RaExpr::rel("R", 2));
        let r = check(&e, &small, 4);
        assert_eq!(r.output.len(), 7); // 9 pairs − 2 edges
    }

    /// The exact rounds, max load and total communication of every
    /// expression the tests above build. A moved count is a routing
    /// change, not noise.
    #[test]
    fn ra_loads_are_pinned() {
        let stats = |e: &RaExpr, db: &Instance, p: usize| {
            let s = check(e, db, p).stats;
            (s.rounds, s.max_load, s.total_comm)
        };
        let (r, s) = (RaExpr::rel("R", 2), RaExpr::rel("S", 2));
        let d = db();
        assert_eq!(
            stats(&r.clone().join(s.clone(), vec![(1, 0)]), &d, 8),
            (1, 50, 300)
        );
        assert_eq!(
            stats(&r.clone().semijoin(s.clone(), vec![(1, 0)]), &d, 8),
            (1, 50, 300)
        );
        assert_eq!(
            stats(&r.clone().antijoin(s.clone(), vec![(1, 0)]), &d, 8),
            (1, 50, 300)
        );
        assert_eq!(stats(&r.clone().union(s.clone()), &d, 4), (0, 0, 0));
        assert_eq!(stats(&r.clone().difference(s.clone()), &d, 4), (1, 88, 300));
        let composed = r
            .clone()
            .semijoin(s.clone(), vec![(1, 0)])
            .join(s.clone(), vec![(1, 0)])
            .select(vec![Condition::Neq(0, 2)]);
        assert_eq!(stats(&composed, &d, 8), (2, 59, 600));
        let grid = Instance::from_facts(
            (0..12u64)
                .map(|i| parlog_relal::fact::fact("R", &[i, i]))
                .chain((0..12u64).map(|i| parlog_relal::fact::fact("S", &[100 + i, i]))),
        );
        let product = RaExpr::Product(Box::new(r.clone()), Box::new(s));
        assert_eq!(stats(&product, &grid, 9), (1, 10, 72));
        let edges = Instance::from_facts([
            parlog_relal::fact::fact("R", &[1, 2]),
            parlog_relal::fact::fact("R", &[2, 3]),
        ]);
        let adom = r.clone().project(vec![0]).union(r.clone().project(vec![1]));
        let complement = RaExpr::Product(Box::new(adom.clone()), Box::new(adom)).difference(r);
        assert_eq!(stats(&complement, &edges, 4), (2, 4, 23));
    }

    #[test]
    fn selectivity_shows_in_loads() {
        // Semijoin-algebra expressions communicate at most their inputs.
        let semi = RaExpr::rel("R", 2).semijoin(RaExpr::rel("S", 2), vec![(1, 0)]);
        assert!(semi.is_semijoin_algebra());
        let d = db();
        let r = DistributedRa::new(8, 7).run(&semi, &d, "Out").unwrap();
        assert!(r.stats.total_comm <= d.len());
    }
}
