//! Cascaded binary hash joins — the multi-round strategy of
//! Example 3.1(2): "One way to evaluate Q2 is through a cascade of binary
//! joins leading to a two-round algorithm. That is, first joining R and S
//! followed by a join of T."
//!
//! The cascade evaluates a plain CQ left-deep in `k−1` rounds (one per
//! join). Each round repartitions the running intermediate and the next
//! atom's relation by the shared variables — so, unlike HyperCube, it
//! materializes (and communicates) intermediate results, which is exactly
//! the trade-off Chu–Balazinska–Suciu measured: HyperCube wins when
//! intermediates are large, cascades win when they are small.
//!
//! The rounds are [`join_pass`] over a left-deep [`RelTree`]: a chain up
//! the join order, whose bottom-up schedule joins one atom per round.

use crate::algorithms::treejoin::{batch_edges, join_pass, load_atoms, RelTree};
use crate::report::RunReport;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// Multi-round left-deep cascade of binary hash joins.
#[derive(Debug, Clone)]
pub struct CascadeJoin {
    query: ConjunctiveQuery,
    /// Atom evaluation order (defaults to a connectivity-preserving greedy
    /// order).
    pub order: Vec<usize>,
    p: usize,
    seed: u64,
}

impl CascadeJoin {
    /// Build for a plain CQ on `p` servers.
    pub fn new(q: &ConjunctiveQuery, p: usize, seed: u64) -> CascadeJoin {
        assert!(q.is_plain_cq(), "cascade handles plain CQs");
        assert!(!q.body.is_empty());
        // Greedy order: start at atom 0, then repeatedly append the atom
        // sharing most variables with the prefix (avoids accidental
        // cartesian rounds where possible).
        let n = q.body.len();
        let mut order = vec![0usize];
        let mut seen_vars = q.body[0].variables();
        let mut remaining: Vec<usize> = (1..n).collect();
        while !remaining.is_empty() {
            let (k, &best) = remaining
                .iter()
                .enumerate()
                .max_by_key(|&(_, &i)| {
                    q.body[i]
                        .variables()
                        .iter()
                        .filter(|v| seen_vars.contains(v))
                        .count()
                })
                .expect("nonempty");
            for v in q.body[best].variables() {
                if !seen_vars.contains(&v) {
                    seen_vars.push(v);
                }
            }
            order.push(best);
            remaining.remove(k);
        }
        CascadeJoin {
            query: q.clone(),
            order,
            p,
            seed,
        }
    }

    /// Run on `db` from a round-robin initial partition.
    pub fn run(&self, db: &Instance) -> RunReport {
        let q = &self.query;
        let (mut cluster, nodes) = load_atoms(self.p, db, &q.body, "cas", self.seed);
        // A chain up the order: each atom is the parent of the
        // intermediate below it, so the bottom-up schedule joins one atom
        // per round.
        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        for w in self.order.windows(2) {
            parent[w[0]] = w[1];
        }
        let tree = RelTree {
            nodes,
            parent,
            root: *self.order.last().expect("nonempty body"),
        };
        let schedule = batch_edges(&tree.edges_bottom_up());
        join_pass(&mut cluster, &tree, &schedule, self.seed, &q.head);
        RunReport::from_cluster("cascade", &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::eval::eval_query;
    use parlog_relal::parser::parse_query;

    #[test]
    fn triangle_in_two_rounds() {
        // Example 3.1(2): triangle by cascade = 2 rounds (plus the free
        // normalization).
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = datagen::triangle_db(150, 30, 3);
        let report = CascadeJoin::new(&q, 8, 1).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
        assert_eq!(report.stats.rounds, 2);
    }

    #[test]
    fn path_query_correct() {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        let mut db = datagen::uniform_relation("R", 120, 30, 1);
        db.extend_from(&datagen::uniform_relation("S", 120, 30, 2));
        db.extend_from(&datagen::uniform_relation("T", 120, 30, 3));
        let report = CascadeJoin::new(&q, 8, 5).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn order_is_connectivity_preserving() {
        // Body listed so that a naive left-deep order would do a cartesian
        // product in round 1: atoms 0 and 1 are disconnected.
        let q = parse_query("H(x,y,z) <- R(x,y), T(z,x), S(y,z)").unwrap();
        let c = CascadeJoin::new(&q, 4, 0);
        // After atom 0 (R(x,y)), both T and S share a variable; the greedy
        // order must not leave a disconnected atom in the middle.
        assert_eq!(c.order[0], 0);
        assert_eq!(c.order.len(), 3);
    }

    #[test]
    fn self_join_cascade() {
        let q = parse_query("H(x,z) <- R(x,y), R(y,z)").unwrap();
        let db = datagen::random_graph("R", 20, 60, 2);
        let report = CascadeJoin::new(&q, 4, 7).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn single_atom_query_needs_no_rounds() {
        let q = parse_query("H(x,y) <- R(x,y)").unwrap();
        let db = datagen::uniform_relation("R", 50, 20, 1);
        let report = CascadeJoin::new(&q, 4, 0).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
        assert_eq!(report.stats.rounds, 0);
    }

    #[test]
    fn intermediate_blowup_shows_in_total_comm() {
        // Two-path through a hub: |R ⋈ S| ≫ |output| when projecting.
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let mut db = Instance::new();
        for i in 0..40u64 {
            db.insert(parlog_relal::fact::fact("R", &[i, 0]));
            db.insert(parlog_relal::fact::fact("S", &[0, i]));
        }
        let report = CascadeJoin::new(&q, 4, 3).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
        // All 80 facts hash to the hub server: skew sensitivity visible.
        assert!(
            report.stats.max_load >= 79,
            "load {}",
            report.stats.max_load
        );
    }
}
