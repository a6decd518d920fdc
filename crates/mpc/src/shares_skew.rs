//! SharesSkew — heavy-hitter-aware share allocation (Afrati,
//! Stasinopoulos, Ullman, Vasilakopoulos; §3.1).
//!
//! "Afrati et al. provide a generalization of the Shares algorithm
//! incorporating skew by distinguishing tuples that are heavy hitters."
//!
//! The valuation space of the query is partitioned by **heavy patterns**:
//! the set of variables that take heavy values, together with those
//! values. Each pattern gets its own block of servers and its own
//! **residual** share allocation — the share LP re-solved with the
//! pattern's variables bound (they need no axis: their value is fixed, so
//! the freed shares go to the light variables, exactly the residual-query
//! treatment of Beame–Koutris–Suciu's skewed bounds). A tuple is routed,
//! through every atom it matches, to every pattern consistent with its
//! binding: heavy-bound variables must agree with the pattern, light
//! variables are hashed on the residual grid.

use crate::cluster::Cluster;
use crate::hypercube::HypercubeAlgorithm;
use crate::partition::{seed_cluster, InitialPartition};
use crate::report::RunReport;
use crate::shares::Shares;
use crate::skew_rounds::{
    enumerate_patterns, heavy_values_per_var, pattern_consistent, residual_query,
};
use parlog_relal::atom::Var;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::{Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// A heavy pattern: an assignment of heavy values to a subset of the
/// query's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyPattern {
    /// `(variable, heavy value)` pairs, sorted by variable.
    pub bound: Vec<(Var, Val)>,
}

impl HeavyPattern {
    pub(crate) fn value_of(&self, v: &Var) -> Option<Val> {
        self.bound.iter().find(|(w, _)| w == v).map(|(_, val)| *val)
    }

    /// Human-readable label: `"light"` for the all-light pattern,
    /// otherwise the bound assignments, e.g. `"y=7"`.
    pub fn label(&self) -> String {
        if self.bound.is_empty() {
            return "light".to_string();
        }
        self.bound
            .iter()
            .map(|(v, val)| format!("{v}={val}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// The SharesSkew one-round algorithm.
pub struct SharesSkewAlgorithm {
    query: ConjunctiveQuery,
    patterns: Vec<HeavyPattern>,
    /// One residual HyperCube per pattern, over its server block.
    residuals: Vec<HypercubeAlgorithm>,
    block: usize,
    /// Per-variable heavy value lists (sorted).
    heavy: Vec<(Var, Vec<Val>)>,
    /// Local-join strategy for the computation phase (default `Auto`).
    strategy: EvalStrategy,
}

impl SharesSkewAlgorithm {
    /// Build for `q` on `p` servers from the database's statistics:
    /// values occurring more than `threshold` times in a position bound
    /// to a variable are heavy for that variable (capped at the
    /// `max_heavy_per_var` *most frequent* per variable to bound the
    /// pattern count).
    pub fn from_stats(
        q: &ConjunctiveQuery,
        db: &Instance,
        p: usize,
        threshold: usize,
        max_heavy_per_var: usize,
        seed: u64,
    ) -> SharesSkewAlgorithm {
        assert!(q.is_plain_cq(), "SharesSkew handles plain CQs");
        let heavy = heavy_values_per_var(q, db, threshold, max_heavy_per_var);
        let patterns = enumerate_patterns(&heavy);
        assert!(
            patterns.len() <= p.max(64),
            "{} heavy patterns exceed the server budget; raise the threshold",
            patterns.len()
        );

        let block = (p / patterns.len()).max(1);
        // Residual query per pattern: substitute the bound variables by
        // their heavy constants; the share LP then optimizes the light
        // variables only.
        let residuals = patterns
            .iter()
            .map(|pat| {
                let residual = residual_query(q, pat);
                let shares = Shares::optimal(&residual, block)
                    .unwrap_or_else(|_| Shares::uniform(&residual, block));
                HypercubeAlgorithm::with_shares(&residual, shares, seed ^ 0x5afe)
            })
            .collect();

        SharesSkewAlgorithm {
            query: q.clone(),
            patterns,
            residuals,
            block,
            heavy,
            strategy: EvalStrategy::Auto,
        }
    }

    /// Override the computation-phase [`EvalStrategy`] (default `Auto`).
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> SharesSkewAlgorithm {
        self.strategy = strategy;
        self
    }

    /// Number of heavy patterns (1 = no skew detected).
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Destinations of a fact: union over atoms and consistent patterns
    /// of the residual-grid destinations, offset by the pattern block.
    pub fn destinations(&self, f: &Fact) -> Vec<usize> {
        let mut out = Vec::new();
        for atom in &self.query.body {
            let Some(binding) = crate::algorithms::treejoin::binding_of(atom, f) else {
                continue;
            };
            for (pi, pat) in self.patterns.iter().enumerate() {
                if !pattern_consistent(&binding, pat, &self.heavy) {
                    continue;
                }
                let offset = pi * self.block;
                out.extend(
                    self.residuals[pi]
                        .destinations(f)
                        .into_iter()
                        .map(|d| offset + d),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of servers addressed: one block per pattern.
    pub fn servers(&self) -> usize {
        self.patterns.len() * self.block
    }

    /// Run the one-round algorithm on a fresh cluster.
    pub fn run(&self, db: &Instance) -> RunReport {
        self.run_on(&mut Cluster::new(self.servers()), db)
    }

    /// [`SharesSkewAlgorithm::run`] on a caller-prepared fresh cluster of
    /// [`SharesSkewAlgorithm::servers`] servers (parallelism, trace and
    /// fault plans pre-installed), honoring the configured
    /// [`EvalStrategy`] in the computation phase like every other
    /// algorithm. The report is byte-identical for every worker-thread
    /// count.
    pub fn run_on(&self, cluster: &mut Cluster, db: &Instance) -> RunReport {
        assert_eq!(cluster.p(), self.servers(), "cluster sized for the blocks");
        seed_cluster(cluster, db, InitialPartition::RoundRobin);
        cluster.communicate(|f| self.destinations(f));
        cluster.compute_query(&self.query, self.strategy);
        RunReport::from_cluster("shares-skew", cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::parser::parse_query;

    fn join() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
    }

    fn skewed_join_db(m: usize) -> Instance {
        let mut db = datagen::heavy_hitter_relation("R", m, 0.4, 7, 1, 0);
        db.extend_from(&datagen::heavy_hitter_relation("S", m, 0.4, 7, 0, 50_000));
        db
    }

    #[test]
    fn no_skew_degenerates_to_plain_shares() {
        let q = join();
        let db = datagen::matching_relation("R", 100, 0)
            .union(&datagen::matching_relation("S", 100, 10_000));
        let alg = SharesSkewAlgorithm::from_stats(&q, &db, 16, 10, 4, 1);
        assert_eq!(alg.pattern_count(), 1);
        let r = alg.run(&db);
        assert_eq!(r.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn detects_heavy_hitters_and_stays_correct() {
        let q = join();
        let db = skewed_join_db(400);
        let alg = SharesSkewAlgorithm::from_stats(&q, &db, 16, 50, 4, 2);
        assert!(alg.pattern_count() > 1, "the heavy y must form a pattern");
        let r = alg.run(&db);
        assert_eq!(r.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn beats_plain_hypercube_under_skew() {
        let q = join();
        let db = skewed_join_db(2000);
        let skew_aware = SharesSkewAlgorithm::from_stats(&q, &db, 64, 100, 4, 3);
        let plain = crate::hypercube::HypercubeAlgorithm::new(&q, 64).unwrap();
        let rs = skew_aware.run(&db);
        let rp = plain.run(&db);
        assert_eq!(rs.output, rp.output);
        assert!(
            rs.stats.max_load < rp.stats.max_load,
            "shares-skew {} should beat plain hypercube {} on skewed data",
            rs.stats.max_load,
            rp.stats.max_load
        );
    }

    #[test]
    fn triangle_with_heavy_join_value() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = datagen::triangle_heavy_db(400, 80, 3);
        let alg = SharesSkewAlgorithm::from_stats(&q, &db, 27, 40, 3, 9);
        let r = alg.run(&db);
        assert_eq!(r.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn heavy_and_light_facts_route_disjointly_by_pattern() {
        let q = join();
        let db = skewed_join_db(400);
        let alg = SharesSkewAlgorithm::from_stats(&q, &db, 16, 50, 4, 2);
        // A heavy-y R fact and a light-y R fact must use different
        // pattern blocks.
        let heavy_f = db
            .relation(parlog_relal::symbols::rel("R"))
            .find(|f| f.args[1] == Val(7))
            .unwrap()
            .clone();
        let light_f = db
            .relation(parlog_relal::symbols::rel("R"))
            .find(|f| f.args[1] != Val(7))
            .unwrap()
            .clone();
        let dh = alg.destinations(&heavy_f);
        let dl = alg.destinations(&light_f);
        assert!(dh.iter().all(|d| !dl.contains(d)), "{dh:?} vs {dl:?}");
    }
}
