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

use crate::cluster::{Cluster, Routing};
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use parlog_relal::algebra::{ArityError, RaExpr};
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::fastmap::{fxmap, fxset};
use parlog_relal::instance::Instance;
use parlog_relal::symbols::{rel, RelId};

/// Distributed RA evaluator.
pub struct DistributedRa {
    p: usize,
    seed: u64,
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
        let out_rel = self.eval_node(expr, &mut cluster, &mut counter)?;
        // Final local step: rename the result relation to `out_name` and
        // drop everything else.
        let target = rel(out_name);
        cluster.compute(move |local| {
            Instance::from_facts(
                local
                    .relation(out_rel)
                    .map(|f| Fact::new(target, f.args.clone()))
                    .collect::<Vec<_>>(),
            )
        });
        Ok(RunReport::from_cluster(
            "distributed-ra",
            &cluster,
            db.len(),
        ))
    }

    fn fresh(&self, counter: &mut usize) -> RelId {
        *counter += 1;
        rel(&format!("‡ra{}_{}", self.seed, *counter))
    }

    fn eval_node(
        &self,
        expr: &RaExpr,
        cluster: &mut Cluster,
        counter: &mut usize,
    ) -> Result<RelId, ArityError> {
        let out = self.fresh(counter);
        match expr {
            RaExpr::Rel(r, k) => {
                let (r, k) = (*r, *k);
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let copies: Vec<Fact> = local
                        .relation(r)
                        .filter(|f| f.arity() == k)
                        .map(|f| Fact::new(out, f.args.clone()))
                        .collect();
                    for f in copies {
                        next.insert(f);
                    }
                    next
                });
            }
            RaExpr::Select(e, conds) => {
                let input = self.eval_node(e, cluster, counter)?;
                let conds = conds.clone();
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let kept: Vec<Fact> = local
                        .relation(input)
                        .filter(|f| conds.iter().all(|c| c.holds(&f.args)))
                        .map(|f| Fact::new(out, f.args.clone()))
                        .collect();
                    for f in kept {
                        next.insert(f);
                    }
                    next
                });
            }
            RaExpr::Project(e, cols) => {
                let input = self.eval_node(e, cluster, counter)?;
                let cols = cols.clone();
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let projected: Vec<Fact> = local
                        .relation(input)
                        .map(|f| Fact::new(out, cols.iter().map(|&c| f.args[c]).collect::<Args>()))
                        .collect();
                    for f in projected {
                        next.insert(f);
                    }
                    next
                });
            }
            RaExpr::Union(l, r) => {
                let li = self.eval_node(l, cluster, counter)?;
                let ri = self.eval_node(r, cluster, counter)?;
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let both: Vec<Fact> = local
                        .relation(li)
                        .chain(local.relation(ri))
                        .map(|f| Fact::new(out, f.args.clone()))
                        .collect();
                    for f in both {
                        next.insert(f);
                    }
                    next
                });
            }
            RaExpr::Join(l, r, on) | RaExpr::Semijoin(l, r, on) | RaExpr::Antijoin(l, r, on) => {
                let li = self.eval_node(l, cluster, counter)?;
                let ri = self.eval_node(r, cluster, counter)?;
                let on = on.clone();
                let h = HashPartitioner::new(self.seed ^ ((*counter as u64) << 9), self.p);
                let on_route = on.clone();
                cluster.reshuffle(move |_, f| {
                    if f.rel == li {
                        let key: Vec<Val> = on_route.iter().map(|&(i, _)| f.args[i]).collect();
                        Routing::Send(vec![h.bucket_of(&key)])
                    } else if f.rel == ri {
                        let key: Vec<Val> = on_route.iter().map(|&(_, j)| f.args[j]).collect();
                        Routing::Send(vec![h.bucket_of(&key)])
                    } else {
                        Routing::Keep
                    }
                });
                let kind = match expr {
                    RaExpr::Join(..) => 0u8,
                    RaExpr::Semijoin(..) => 1,
                    _ => 2,
                };
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let mut index: parlog_relal::fastmap::FxMap<Vec<Val>, Vec<Vec<Val>>> = fxmap();
                    for f in local.relation(ri) {
                        let key: Vec<Val> = on.iter().map(|&(_, j)| f.args[j]).collect();
                        index.entry(key).or_default().push(f.args.to_vec());
                    }
                    let drop_right: Vec<usize> = on.iter().map(|&(_, j)| j).collect();
                    let mut results: Vec<Fact> = Vec::new();
                    for f in local.relation(li) {
                        let key: Vec<Val> = on.iter().map(|&(i, _)| f.args[i]).collect();
                        match kind {
                            0 => {
                                if let Some(bs) = index.get(&key) {
                                    for b in bs {
                                        let mut t = f.args.to_vec();
                                        for (j, v) in b.iter().enumerate() {
                                            if !drop_right.contains(&j) {
                                                t.push(*v);
                                            }
                                        }
                                        results.push(Fact::new(out, t));
                                    }
                                }
                            }
                            1 => {
                                if index.contains_key(&key) {
                                    results.push(Fact::new(out, f.args.clone()));
                                }
                            }
                            _ => {
                                if !index.contains_key(&key) {
                                    results.push(Fact::new(out, f.args.clone()));
                                }
                            }
                        }
                    }
                    for f in results {
                        next.insert(f);
                    }
                    next
                });
            }
            RaExpr::Difference(l, r) => {
                let li = self.eval_node(l, cluster, counter)?;
                let ri = self.eval_node(r, cluster, counter)?;
                let h = HashPartitioner::new(self.seed ^ ((*counter as u64) << 9), self.p);
                cluster.reshuffle(move |_, f| {
                    if f.rel == li || f.rel == ri {
                        Routing::Send(vec![h.bucket_of(&f.args)])
                    } else {
                        Routing::Keep
                    }
                });
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let right: parlog_relal::fastmap::FxSet<&[Val]> =
                        local.relation(ri).map(|f| &f.args[..]).collect();
                    let kept: Vec<Fact> = local
                        .relation(li)
                        .filter(|f| !right.contains(&f.args[..]))
                        .map(|f| Fact::new(out, f.args.clone()))
                        .collect();
                    for f in kept {
                        next.insert(f);
                    }
                    next
                });
            }
            RaExpr::Product(l, r) => {
                let li = self.eval_node(l, cluster, counter)?;
                let ri = self.eval_node(r, cluster, counter)?;
                let g = ((self.p as f64).sqrt().floor() as usize).max(1);
                let h = HashPartitioner::new(self.seed ^ ((*counter as u64) << 9), g);
                cluster.reshuffle(move |_, f| {
                    if f.rel == li {
                        let row = h.bucket_of(&f.args);
                        Routing::Send((0..g).map(|c| row * g + c).collect())
                    } else if f.rel == ri {
                        let col = h.bucket_of(&f.args);
                        Routing::Send((0..g).map(|r| r * g + col).collect())
                    } else {
                        Routing::Keep
                    }
                });
                cluster.compute(move |local| {
                    let mut next = local.clone();
                    let mut results = fxset();
                    for a in local.relation(li) {
                        for b in local.relation(ri) {
                            let mut t = a.args.to_vec();
                            t.extend_from_slice(&b.args);
                            results.insert(t);
                        }
                    }
                    for t in results {
                        next.insert(Fact::new(out, t));
                    }
                    next
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::algebra::{eval_ra, Condition};

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
