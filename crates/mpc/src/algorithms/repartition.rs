//! The repartition join of Example 3.1(1a).
//!
//! For `Q1: H(x,y,z) ← R(x,y), S(y,z)`: "every tuple R(a,b) is sent to
//! server h(b) while every tuple S(c,d) is sent to server h(c)", then each
//! server joins locally. Load `O(m/p)` without skew, but "not resilient to
//! skew as it is quite possible that a large part of the database is sent
//! to one server".
//!
//! We implement the natural generalization to any two-atom conjunctive
//! query: facts are hashed on the values of the shared variables.

use crate::cluster::Cluster;
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use parlog_relal::atom::{Atom, Term, Var};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::{Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// One-round repartition (hash) join for a two-atom CQ.
#[derive(Debug, Clone)]
pub struct RepartitionJoin {
    query: ConjunctiveQuery,
    join_vars: Vec<Var>,
    hasher: HashPartitioner,
}

impl RepartitionJoin {
    /// Build for a query with exactly two positive atoms sharing at least
    /// one variable.
    ///
    /// # Panics
    /// Panics if the query does not have exactly two body atoms or the
    /// atoms share no variable.
    pub fn new(q: &ConjunctiveQuery, p: usize, seed: u64) -> RepartitionJoin {
        assert_eq!(q.body.len(), 2, "repartition join needs exactly two atoms");
        let a_vars = q.body[0].variables();
        let join_vars: Vec<Var> = q.body[1]
            .variables()
            .into_iter()
            .filter(|v| a_vars.contains(v))
            .collect();
        assert!(
            !join_vars.is_empty(),
            "the two atoms must share a join variable"
        );
        RepartitionJoin {
            query: q.clone(),
            join_vars,
            hasher: HashPartitioner::new(seed, p),
        }
    }

    /// The values a fact binds for the join variables via `atom`, if it
    /// matches.
    fn key_via(&self, atom: &Atom, f: &Fact) -> Option<Vec<Val>> {
        if !atom.matches(f) {
            return None;
        }
        let mut key = Vec::with_capacity(self.join_vars.len());
        for v in &self.join_vars {
            let pos = atom
                .terms
                .iter()
                .position(|t| matches!(t, Term::Var(w) if w == v))?;
            key.push(f.args[pos]);
        }
        Some(key)
    }

    /// Destinations of a fact: the hash of its join key, through every
    /// matching atom.
    pub fn destinations(&self, f: &Fact) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .query
            .body
            .iter()
            .filter_map(|a| self.key_via(a, f))
            .map(|key| self.hasher.bucket_of(&key))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Run on `db` from a round-robin initial partition.
    pub fn run(&self, db: &Instance) -> RunReport {
        let mut cluster = Cluster::new(self.hasher.buckets);
        seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
        cluster.communicate(|f| self.destinations(f));
        cluster.compute_query(&self.query, EvalStrategy::Auto);
        RunReport::from_cluster("repartition-join", &cluster, db.len())
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
        let mut db = datagen::uniform_relation("R", 300, 60, 1);
        db.extend_from(&datagen::uniform_relation("S", 300, 60, 2));
        let alg = RepartitionJoin::new(&q, 8, 7);
        let report = alg.run(&db);
        assert_eq!(report.output, parlog_relal::eval::eval_query(&q, &db));
        assert_eq!(report.stats.rounds, 1);
    }

    #[test]
    fn skew_free_load_is_near_m_over_p() {
        let q = q1();
        // Matching data joined on shared midpoints: R(i, 5000+i),
        // S(5000+i, 9999+i) — every y value occurs once per relation.
        let mut db = Instance::new();
        for i in 0..512u64 {
            db.insert(parlog_relal::fact::fact("R", &[i, 5000 + i]));
            db.insert(parlog_relal::fact::fact("S", &[5000 + i, 20000 + i]));
        }
        let alg = RepartitionJoin::new(&q, 8, 3);
        let report = alg.run(&db);
        // Perfect balance would be m/p = 128; hashing variance allows ~2×.
        assert!(
            report.stats.max_load <= 2 * db.len() / 8,
            "load {} too high",
            report.stats.max_load
        );
        assert!(report.stats.load_exponent > 0.6);
    }

    #[test]
    fn heavy_hitter_degenerates_to_one_server() {
        let q = q1();
        // Half of R has y = 0 and half of S has y = 0: all of it meets at
        // server h(0).
        let mut db = datagen::heavy_hitter_relation("R", 400, 1.0, 0, 1, 0);
        db.extend_from(&datagen::heavy_hitter_relation("S", 400, 1.0, 0, 0, 50_000));
        let alg = RepartitionJoin::new(&q, 8, 3);
        let report = alg.run(&db);
        assert_eq!(report.stats.max_load, 800, "all data on one server");
        assert!(report.stats.load_exponent < 0.05);
    }

    #[test]
    fn multi_variable_join_key() {
        let q = parse_query("H(x,y,z) <- R(x,y,z), S(y,z)").unwrap();
        let mut db = Instance::new();
        db.insert(parlog_relal::fact::fact("R", &[1, 2, 3]));
        db.insert(parlog_relal::fact::fact("S", &[2, 3]));
        db.insert(parlog_relal::fact::fact("S", &[9, 9]));
        let alg = RepartitionJoin::new(&q, 4, 1);
        let report = alg.run(&db);
        assert_eq!(
            report.output.sorted_facts(),
            vec![parlog_relal::fact::fact("H", &[1, 2, 3])]
        );
        // Matching R and S facts share a server.
        let r = parlog_relal::fact::fact("R", &[1, 2, 3]);
        let s = parlog_relal::fact::fact("S", &[2, 3]);
        assert_eq!(alg.destinations(&r), alg.destinations(&s));
    }

    #[test]
    #[should_panic(expected = "exactly two atoms")]
    fn three_atoms_rejected() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        RepartitionJoin::new(&q, 4, 0);
    }

    #[test]
    #[should_panic(expected = "share a join variable")]
    fn cartesian_product_rejected() {
        let q = parse_query("H(x,y) <- R(x), S(y)").unwrap();
        RepartitionJoin::new(&q, 4, 0);
    }
}
