//! The skew-resilient grouped join of Example 3.1(1b) — Ullman's "drug
//! interaction" strategy, used explicitly in DYM-n.
//!
//! "The algorithm divides R and S into p^{1/2} disjoint groups of size
//! m/p^{1/2}. Every combination of an R-group and an S-group can now be
//! sent to a different server … The load per server is O(m/p^{1/2})
//! **independent of any skew** in the database."
//!
//! Grouping is by a hash of the *whole tuple* (value-oblivious), so no
//! value frequency can concentrate load.

use crate::cluster::Cluster;
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// One-round grouped (cross-product of groups) join for a two-atom CQ.
#[derive(Debug, Clone)]
pub struct GroupedJoin {
    query: ConjunctiveQuery,
    /// Number of groups per relation (`g`); `g²` servers are used.
    pub groups: usize,
    hasher: HashPartitioner,
}

impl GroupedJoin {
    /// Build for a two-atom query on (at most) `p` servers: `g = ⌊√p⌋`.
    pub fn new(q: &ConjunctiveQuery, p: usize, seed: u64) -> GroupedJoin {
        assert_eq!(q.body.len(), 2, "grouped join needs exactly two atoms");
        let groups = ((p as f64).sqrt().floor() as usize).max(1);
        GroupedJoin {
            query: q.clone(),
            groups,
            hasher: HashPartitioner::new(seed, groups),
        }
    }

    /// The group of a fact: a hash of its entire tuple.
    fn group_of(&self, f: &Fact) -> usize {
        let mut vals = vec![parlog_relal::fact::Val(f.rel.0 as u64)];
        vals.extend(f.args.iter().copied());
        self.hasher.bucket_of(&vals)
    }

    /// Destinations: an `R`-fact (first atom) in group `i` goes to servers
    /// `(i, *)`; an `S`-fact (second atom) in group `j` goes to `(*, j)`.
    /// A fact matching both atoms (self-join) goes to both sets.
    pub fn destinations(&self, f: &Fact) -> Vec<usize> {
        let g = self.groups;
        let mut out = Vec::new();
        if self.query.body[0].matches(f) {
            let i = self.group_of(f);
            out.extend((0..g).map(|j| i * g + j));
        }
        if self.query.body[1].matches(f) {
            let j = self.group_of(f);
            out.extend((0..g).map(|i| i * g + j));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Run on `db` from a round-robin initial partition.
    pub fn run(&self, db: &Instance) -> RunReport {
        let mut cluster = Cluster::new(self.groups * self.groups);
        seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
        cluster.communicate(|f| self.destinations(f));
        cluster.compute_query(&self.query, EvalStrategy::Auto);
        RunReport::from_cluster("grouped-join", &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::parser::parse_query;

    fn q1() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
    }

    #[test]
    fn output_is_correct() {
        let q = q1();
        let mut db = datagen::uniform_relation("R", 200, 50, 1);
        db.extend_from(&datagen::uniform_relation("S", 200, 50, 2));
        let report = GroupedJoin::new(&q, 16, 5).run(&db);
        assert_eq!(report.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn every_r_s_pair_meets_somewhere() {
        let q = q1();
        let alg = GroupedJoin::new(&q, 9, 2);
        let r = parlog_relal::fact::fact("R", &[1, 2]);
        let s = parlog_relal::fact::fact("S", &[7, 8]);
        let dr = alg.destinations(&r);
        let ds = alg.destinations(&s);
        assert!(dr.iter().any(|d| ds.contains(d)), "{dr:?} vs {ds:?}");
    }

    #[test]
    fn skew_does_not_matter() {
        let q = q1();
        // Extreme skew: every tuple shares the join value.
        let mut db = datagen::heavy_hitter_relation("R", 400, 1.0, 0, 1, 0);
        db.extend_from(&datagen::heavy_hitter_relation("S", 400, 1.0, 0, 0, 50_000));
        let report = GroupedJoin::new(&q, 16, 3).run(&db);
        let m = db.len();
        // Theory: ≤ 2·(m/2)/g per server with g = 4 ⇒ ~m/4; allow hash
        // variance.
        assert!(
            report.stats.max_load < m / 2,
            "grouped join should spread skew: load {}",
            report.stats.max_load
        );
        assert_eq!(report.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn load_scales_as_inverse_sqrt_p() {
        let q = q1();
        let mut db = datagen::uniform_relation("R", 800, 2000, 1);
        db.extend_from(&datagen::uniform_relation("S", 800, 2000, 2));
        let l4 = GroupedJoin::new(&q, 4, 9).run(&db).stats.max_load;
        let l64 = GroupedJoin::new(&q, 64, 9).run(&db).stats.max_load;
        // g goes 2 → 8, so load should shrink ≈ 4×; allow slack.
        assert!((l4 as f64) / (l64 as f64) > 2.5, "l4 = {l4}, l64 = {l64}");
    }

    #[test]
    fn replication_is_sqrt_p() {
        let q = q1();
        let mut db = datagen::uniform_relation("R", 300, 1000, 1);
        db.extend_from(&datagen::uniform_relation("S", 300, 1000, 2));
        let report = GroupedJoin::new(&q, 25, 4).run(&db);
        assert!((report.stats.replication - 5.0).abs() < 0.5);
    }
}
