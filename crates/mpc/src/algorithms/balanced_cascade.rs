//! Balanced (logarithmic-depth) join cascades — the rounds-vs-
//! communication trade-off of §3.2 in its purest form.
//!
//! The left-deep cascade of Example 3.1(2) needs `k−1` rounds for a
//! `k`-atom query; joining *disjoint pairs in parallel* needs only
//! `⌈log₂ k⌉` rounds (this is the depth trade-off the survey attributes
//! to the shapes of GYM's tree decompositions: "the shapes of possible
//! tree decompositions (in particular, their depth) delineate trade-offs
//! between the number of rounds and the total amount of communication").
//!
//! The rounds are [`join_pass`] over a balanced [`RelTree`] built level
//! by level: neighbouring relations pair up (the right one a child of the
//! left), an odd trailing relation passes through, and the schedule runs
//! one batch per level — pairs at the same level share a round.

use crate::algorithms::treejoin::{join_pass, load_atoms, RelTree};
use crate::report::RunReport;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// Log-depth cascade of pairwise hash joins.
#[derive(Debug, Clone)]
pub struct BalancedCascade {
    query: ConjunctiveQuery,
    p: usize,
    seed: u64,
}

impl BalancedCascade {
    /// Build for a plain CQ on `p` servers.
    pub fn new(q: &ConjunctiveQuery, p: usize, seed: u64) -> BalancedCascade {
        assert!(q.is_plain_cq(), "balanced cascade handles plain CQs");
        BalancedCascade {
            query: q.clone(),
            p,
            seed,
        }
    }

    /// Run on `db` from a round-robin initial partition.
    pub fn run(&self, db: &Instance) -> RunReport {
        let q = &self.query;
        // Atoms pair up in body order (for path-shaped queries this is
        // already adjacency order; for others correctness is unaffected —
        // disconnected pairs degrade to single-server products).
        let (mut cluster, nodes) = load_atoms(self.p, db, &q.body, "bc", self.seed);
        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        // The nodes holding the current level's intermediates.
        let mut level: Vec<usize> = (0..nodes.len()).collect();
        let mut schedule: Vec<Vec<(usize, usize)>> = Vec::new();
        while level.len() > 1 {
            let batch: Vec<(usize, usize)> = level.chunks_exact(2).map(|c| (c[1], c[0])).collect();
            for &(c, pa) in &batch {
                parent[c] = pa;
            }
            level = level.into_iter().step_by(2).collect();
            schedule.push(batch);
        }
        let tree = RelTree {
            nodes,
            parent,
            root: 0,
        };
        join_pass(&mut cluster, &tree, &schedule, self.seed, &q.head);
        RunReport::from_cluster("balanced-cascade", &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::cascade::CascadeJoin;
    use crate::datagen;
    use parlog_relal::eval::eval_query;
    use parlog_relal::parser::parse_query;

    fn path_query(k: usize) -> ConjunctiveQuery {
        let body: Vec<String> = (0..k).map(|i| format!("R{i}(v{i}, v{})", i + 1)).collect();
        parse_query(&format!("H(v0, v{k}) <- {}", body.join(", "))).unwrap()
    }

    fn path_db(k: usize, m: usize) -> Instance {
        let mut db = Instance::new();
        for i in 0..k {
            for j in 0..m as u64 {
                db.insert(parlog_relal::fact::fact(
                    &format!("R{i}"),
                    &[(i as u64) * 10_000 + j, (i as u64 + 1) * 10_000 + j],
                ));
            }
        }
        db
    }

    #[test]
    fn log_depth_rounds() {
        // 8 atoms: balanced = 3 rounds, left-deep = 7.
        let q = path_query(8);
        let db = path_db(8, 60);
        let bal = BalancedCascade::new(&q, 8, 3).run(&db);
        let deep = CascadeJoin::new(&q, 8, 3).run(&db);
        assert_eq!(bal.output, eval_query(&q, &db));
        assert_eq!(bal.output, deep.output);
        assert_eq!(bal.stats.rounds, 3);
        assert_eq!(deep.stats.rounds, 7);
    }

    #[test]
    fn odd_number_of_atoms() {
        let q = path_query(5);
        let db = path_db(5, 40);
        let bal = BalancedCascade::new(&q, 8, 1).run(&db);
        assert_eq!(bal.output, eval_query(&q, &db));
        // levels: 5 → 3 → 2 → 1 = 3 rounds.
        assert_eq!(bal.stats.rounds, 3);
    }

    #[test]
    fn two_atoms_single_round() {
        let q = path_query(2);
        let db = path_db(2, 50);
        let bal = BalancedCascade::new(&q, 4, 2).run(&db);
        assert_eq!(bal.output, eval_query(&q, &db));
        assert_eq!(bal.stats.rounds, 1);
    }

    #[test]
    fn triangle_via_balanced_cascade() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = datagen::triangle_db(200, 40, 7);
        let bal = BalancedCascade::new(&q, 8, 5).run(&db);
        assert_eq!(bal.output, eval_query(&q, &db));
        assert_eq!(bal.stats.rounds, 2); // 3 atoms → 2 → 1
    }

    #[test]
    fn single_atom_no_rounds() {
        let q = parse_query("H(x,y) <- R(x,y)").unwrap();
        let db = datagen::uniform_relation("R", 40, 20, 1);
        let bal = BalancedCascade::new(&q, 4, 1).run(&db);
        assert_eq!(bal.output, eval_query(&q, &db));
        assert_eq!(bal.stats.rounds, 0);
    }
}
