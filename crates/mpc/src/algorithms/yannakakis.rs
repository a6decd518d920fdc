//! Distributed Yannakakis for acyclic conjunctive queries (§3.2).
//!
//! "Yannakakis' algorithm for acyclic conjunctive queries consists of a
//! semi-join phase aimed at eliminating dangling tuples followed by a join
//! phase such that the sizes of the intermediate results are never larger
//! than the final output."
//!
//! The distributed version executes each semijoin/join as a hash
//! repartitioning round; independent tree edges share a round (see
//! [`crate::algorithms::treejoin::batch_edges`]), so the number of rounds
//! is governed by the join-tree depth rather than the atom count.

use crate::algorithms::treejoin::{load_atoms, yannakakis_passes, RelTree};
use crate::report::RunReport;
use parlog_relal::hypergraph::gyo_join_tree;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// Distributed Yannakakis evaluation of an acyclic plain CQ.
#[derive(Debug, Clone)]
pub struct DistributedYannakakis {
    query: ConjunctiveQuery,
    p: usize,
    seed: u64,
    /// Skip the top-down semijoin pass (half-reducer only) — exposed for
    /// the ablation bench comparing full vs. half reduction.
    pub full_reducer: bool,
}

impl DistributedYannakakis {
    /// Build for an acyclic plain CQ on `p` servers.
    ///
    /// # Panics
    /// Panics if the query is cyclic or not a plain CQ.
    pub fn new(q: &ConjunctiveQuery, p: usize, seed: u64) -> DistributedYannakakis {
        assert!(q.is_plain_cq(), "Yannakakis handles plain CQs");
        assert!(
            gyo_join_tree(q).is_some(),
            "query must be acyclic; use GYM for cyclic queries"
        );
        DistributedYannakakis {
            query: q.clone(),
            p,
            seed,
            full_reducer: true,
        }
    }

    /// Run on `db` from a round-robin initial partition.
    pub fn run(&self, db: &Instance) -> RunReport {
        let q = &self.query;
        let jt = gyo_join_tree(q).expect("validated acyclic");

        // One normalized relation per body atom, on the join tree.
        let (mut cluster, nodes) = load_atoms(self.p, db, &q.body, "yk", self.seed);
        let tree = RelTree {
            nodes,
            parent: jt.parent,
            root: jt.root,
        };
        // Semi-join phase: bottom-up (children filter parents), then
        // top-down (parents filter children) for the full reducer; then
        // the join phase bottom-up, and the projection onto the head.
        let seeds = [self.seed, self.seed ^ 0x55, self.seed];
        yannakakis_passes(&mut cluster, tree, self.full_reducer, seeds, &q.head);
        RunReport::from_cluster("yannakakis", &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::eval::eval_query;
    use parlog_relal::parser::parse_query;

    #[test]
    fn path_join_is_correct() {
        let q = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        let mut db = datagen::uniform_relation("R", 150, 40, 1);
        db.extend_from(&datagen::uniform_relation("S", 150, 40, 2));
        db.extend_from(&datagen::uniform_relation("T", 150, 40, 3));
        let report = DistributedYannakakis::new(&q, 8, 9).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
        assert!(report.stats.rounds >= 3);
    }

    #[test]
    fn projection_head_is_respected() {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        let mut db = datagen::uniform_relation("R", 100, 30, 4);
        db.extend_from(&datagen::uniform_relation("S", 100, 30, 5));
        db.extend_from(&datagen::uniform_relation("T", 100, 30, 6));
        let report = DistributedYannakakis::new(&q, 4, 1).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn star_query_is_correct() {
        let q = parse_query("H(x,a,b,c) <- R(x,a), S(x,b), T(x,c)").unwrap();
        let mut db = datagen::uniform_relation("R", 80, 20, 7);
        db.extend_from(&datagen::uniform_relation("S", 80, 20, 8));
        db.extend_from(&datagen::uniform_relation("T", 80, 20, 9));
        let report = DistributedYannakakis::new(&q, 4, 2).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn semijoins_prune_dangling_tuples() {
        // A selective path query: most R tuples dangle. With the full
        // reducer, the join phase communicates only surviving tuples, so
        // total communication stays near the output size.
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let mut db = Instance::new();
        for i in 0..300u64 {
            db.insert(parlog_relal::fact::fact("R", &[i, 1000 + i]));
        }
        // Only 5 S-tuples join.
        for i in 0..5u64 {
            db.insert(parlog_relal::fact::fact("S", &[1000 + i, 2000 + i]));
        }
        let full = DistributedYannakakis::new(&q, 4, 3).run(&db);
        let mut half = DistributedYannakakis::new(&q, 4, 3);
        half.full_reducer = false;
        let half_report = half.run(&db);
        assert_eq!(full.output, eval_query(&q, &db));
        assert_eq!(half_report.output, eval_query(&q, &db));
        assert_eq!(full.output.len(), 5);
    }

    #[test]
    fn self_join_path() {
        let q = parse_query("H(x,y,z) <- R(x,y), R(y,z)").unwrap();
        let db = datagen::random_graph("R", 25, 80, 11);
        let report = DistributedYannakakis::new(&q, 4, 5).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn empty_input_empty_output() {
        let q = parse_query("H(x,y) <- R(x,y), S(y,x)").unwrap();
        let report = DistributedYannakakis::new(&q, 4, 0).run(&Instance::new());
        assert!(report.output.is_empty());
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_query_rejected() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        DistributedYannakakis::new(&q, 4, 0);
    }
}
