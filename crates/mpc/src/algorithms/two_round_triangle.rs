//! The two-round skew-resilient triangle algorithm (§3.2).
//!
//! "Beame, Koutris and Suciu show that for some queries, the maximum load
//! for skewed data can be brought down to the load of skew-free data by
//! using multiple rounds. For example, the triangle query can be computed
//! with load m/p^{2/3} in two rounds, even if the data is skewed, while it
//! is provably at least m/p^{1/2} for one round."
//!
//! Structure (after BKS's residual-query treatment of heavy hitters):
//!
//! * **Heavy** join values `y` (frequency above a threshold) are handled
//!   in round 1 by the *residual query* `H(x,z) ← R'(x), S'(z), T(z,x)`
//!   on a shared √p × √p grid: `R(x,y)` goes to row `h(x)`, `S(y,z)` to
//!   column `h(z)`, and `T(z,x)` to the single cell `(h(x), h(z))`. All
//!   heavy triangles close locally in round 1 — no quadratic intermediate
//!   is ever materialized.
//! * **Light** values follow the cascade: round 1 hash-joins `R ⋈ S` on
//!   `y` (safe — light frequencies are bounded), round 2 joins the
//!   intermediate with `T` on the pair `(x, z)`.
//!
//! Following the survey's setting for the skewed upper bounds, the heavy
//! hitters "and their frequencies are known" — the simulator computes them
//! globally; a real system would piggyback a statistics round.

use crate::algorithms::treejoin::{joined_schema, load_atoms, VarRel};
use crate::cluster::{layer, rule, rule_unless, Fate};
use crate::datagen::heavy_hitters;
use crate::partition::{route_by_key, HashPartitioner};
use crate::report::RunReport;
use parlog_relal::atom::{Atom, Term};
use parlog_relal::fact::{Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::rel;

/// The canonical triangle query over relations `R`, `S`, `T`.
pub fn triangle_query() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").expect("valid query")
}

/// Two-round, skew-resilient triangle join.
#[derive(Debug, Clone)]
pub struct TwoRoundTriangle {
    p: usize,
    seed: u64,
    /// Values with more occurrences than this on the join attribute are
    /// treated as heavy. Defaults to `m/p` at run time when `None`.
    pub heavy_threshold: Option<usize>,
}

impl TwoRoundTriangle {
    /// Build for `p` servers.
    pub fn new(p: usize, seed: u64) -> TwoRoundTriangle {
        TwoRoundTriangle {
            p,
            seed,
            heavy_threshold: None,
        }
    }

    /// Run on a database over binary relations `R`, `S`, `T`.
    pub fn run(&self, db: &Instance) -> RunReport {
        let q = triangle_query();
        let p = self.p;
        let g = ((p as f64).sqrt().floor() as usize).max(1);

        let (mut cluster, nodes) = load_atoms(p, db, &q.body, "t2", self.seed);
        let [r_node, s_node, t_node] = <[VarRel; 3]>::try_from(nodes).expect("three atoms");
        let k_node = joined_schema(&r_node, &s_node, "⋈");

        // Heavy hitters of the join attribute y (R position 1, S position 0).
        let m = db.len();
        let threshold = self.heavy_threshold.unwrap_or((m / p).max(1));
        let mut heavy: Vec<Val> = heavy_hitters(db, rel("R"), 1, threshold);
        heavy.extend(heavy_hitters(db, rel("S"), 0, threshold));
        heavy.sort_unstable();
        heavy.dedup();
        let is_heavy = |v: Val| heavy.binary_search(&v).is_ok();

        // Round 1. Heavy: residual grid over cells (h_x(x), h_z(z)); a
        // heavy R(x,y) fills the row h_x(x), a heavy S(y,z) the column
        // h_z(z), and every T(z,x) lands in its cell (round 2 reshuffles T
        // again for the light side). Light: hash on y. Grid cells and
        // hash buckets share the p servers; the cluster holds nothing but
        // the three atoms' relations.
        let hx = HashPartitioner::new(self.seed ^ 0x11, g);
        let hz = HashPartitioner::new(self.seed ^ 0x22, g);
        let hy = HashPartitioner::new(self.seed ^ 0x33, p);
        cluster.route(&[], |_, f, out| {
            let (a, b) = (f.args[0], f.args[1]);
            match (f.rel == r_node.rel, f.rel == s_node.rel) {
                (true, _) if is_heavy(b) => out.extend((0..g).map(|c| hx.bucket(a) * g + c)),
                (true, _) => out.push(hy.bucket(b)),
                (_, true) if is_heavy(a) => out.extend((0..g).map(|r| r * g + hz.bucket(b))),
                (_, true) => out.push(hy.bucket(a)),
                _ => out.push(hx.bucket(b) * g + hz.bucket(a)),
            }
            Fate::Send
        });

        // The heavy hitters "and their frequencies are known": a free
        // local step puts them on every server.
        let heavy_rel = rel(&format!("t2Heavy_{}", self.seed));
        for s in 0..p {
            cluster.place(s, heavy.iter().map(|&v| Fact::new(heavy_rel, [v])));
        }

        // Compute phase 1: close every triangle among co-located facts
        // (any one found is genuine; the grid guarantees the heavy ones
        // all appear somewhere) and join the light R ⋈ S into K. T stays.
        let (r, s, t) = (r_node.atom(), s_node.atom(), t_node.atom());
        let heavy_y = Atom::new(heavy_rel, vec![Term::var("y")]);
        let light = rule_unless(k_node.atom(), vec![r.clone(), s.clone()], vec![heavy_y]);
        let triangles = rule(q.head.clone(), vec![r, s, t.clone()]);
        cluster.compute_rules(
            &[layer(&[triangles, light])],
            &[r_node.rel, s_node.rel, heavy_rel],
        );

        // Round 2: join light K(x,y,z) with T(z,x) on (x,z); finished H
        // facts stay where they are.
        let h2 = HashPartitioner::new(self.seed ^ 0x44, p);
        route_by_key(
            &mut cluster,
            &[(k_node.rel, vec![0, 2], h2), (t_node.rel, vec![1, 0], h2)],
        );
        let closed = rule(q.head.clone(), vec![k_node.atom(), t]);
        cluster.compute_rules(&[layer(&[closed])], &[k_node.rel, t_node.rel]);

        RunReport::from_cluster("two-round-triangle", &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use crate::hypercube::HypercubeAlgorithm;
    use parlog_relal::eval::eval_query;

    /// Are the head terms of the triangle query plain variables in x, y,
    /// z order? (They are — guards against query drift.)
    fn head_shape_is_xyz(q: &ConjunctiveQuery) -> bool {
        q.head
            .terms
            .iter()
            .zip(["x", "y", "z"])
            .all(|(t, n)| matches!(t, Term::Var(v) if v.0 == n))
    }

    #[test]
    fn head_shape_guard() {
        assert!(head_shape_is_xyz(&triangle_query()));
    }

    #[test]
    fn correct_on_skew_free_data() {
        let db = datagen::triangle_db(200, 40, 3);
        let report = TwoRoundTriangle::new(16, 1).run(&db);
        assert_eq!(report.output, eval_query(&triangle_query(), &db));
        assert_eq!(report.stats.rounds, 2);
    }

    #[test]
    fn correct_on_heavily_skewed_data() {
        let db = datagen::triangle_heavy_db(200, 50, 5);
        let report = TwoRoundTriangle::new(16, 2).run(&db);
        assert_eq!(report.output, eval_query(&triangle_query(), &db));
    }

    #[test]
    fn beats_single_round_repartition_under_skew() {
        // The fair one-round baseline that skew hurts: cascade's first
        // round is a hash join on y, which concentrates the heavy hitters.
        let db = datagen::triangle_heavy_db(600, 100, 7);
        let q = triangle_query();
        let mut cas = crate::algorithms::cascade::CascadeJoin::new(&q, 64, 7);
        cas.order = vec![0, 1, 2]; // join on the skewed attribute y first
        let cascade = cas.run(&db);
        let two = TwoRoundTriangle::new(64, 7).run(&db);
        assert_eq!(cascade.output, two.output);
        assert!(
            two.stats.max_load < cascade.stats.max_load,
            "two-round {} should beat hash-cascade {} under skew",
            two.stats.max_load,
            cascade.stats.max_load
        );
    }

    #[test]
    fn load_stays_within_sqrt_p_regime_under_skew() {
        let db = datagen::triangle_heavy_db(600, 100, 7);
        let q = triangle_query();
        let two = TwoRoundTriangle::new(64, 7).run(&db);
        let one = HypercubeAlgorithm::new(&q, 64).unwrap().run(&db);
        assert_eq!(one.output, two.output);
        // m/p^{1/2} with m = 1800, p = 64 is 225; the two-round algorithm
        // must stay in that regime (generous 2× allowance for hashing
        // variance and the light-side intermediate).
        let m = db.len();
        let bound = 2 * (m as f64 / (64f64).sqrt()) as usize;
        assert!(
            two.stats.max_load <= bound,
            "two-round load {} above bound {bound}",
            two.stats.max_load
        );
    }

    /// The exact rounds, max load and total communication on the
    /// skew-free, skewed, all-heavy and all-light inputs of the tests
    /// above. A moved count is a routing change, not noise.
    #[test]
    fn two_round_loads_are_pinned() {
        let stats = |alg: &TwoRoundTriangle, db: &Instance| {
            let r = alg.run(db);
            assert_eq!(r.output, eval_query(&triangle_query(), db));
            (r.stats.rounds, r.stats.max_load, r.stats.total_comm)
        };
        let free = datagen::triangle_db(200, 40, 3);
        assert_eq!(stats(&TwoRoundTriangle::new(16, 1), &free), (2, 85, 1780));
        let skewed = datagen::triangle_heavy_db(200, 50, 5);
        assert_eq!(stats(&TwoRoundTriangle::new(16, 2), &skewed), (2, 94, 1618));
        let big = datagen::triangle_heavy_db(600, 100, 7);
        assert_eq!(stats(&TwoRoundTriangle::new(64, 7), &big), (2, 134, 7520));
        let small = datagen::triangle_db(120, 25, 4);
        let mut heavy = TwoRoundTriangle::new(9, 3);
        heavy.heavy_threshold = Some(0);
        assert_eq!(stats(&heavy, &small), (2, 110, 952));
        let mut light = TwoRoundTriangle::new(9, 3);
        light.heavy_threshold = Some(usize::MAX);
        assert_eq!(stats(&light, &small), (2, 101, 1033));
    }

    #[test]
    fn empty_db() {
        let report = TwoRoundTriangle::new(8, 0).run(&Instance::new());
        assert!(report.output.is_empty());
    }

    #[test]
    fn all_heavy_threshold_zero_still_correct() {
        // Forcing everything heavy exercises the pure residual-grid path.
        let db = datagen::triangle_db(120, 25, 4);
        let mut alg = TwoRoundTriangle::new(9, 3);
        alg.heavy_threshold = Some(0);
        let report = alg.run(&db);
        assert_eq!(report.output, eval_query(&triangle_query(), &db));
    }

    #[test]
    fn none_heavy_threshold_huge_still_correct() {
        // Forcing everything light exercises the pure cascade path.
        let db = datagen::triangle_db(120, 25, 4);
        let mut alg = TwoRoundTriangle::new(9, 3);
        alg.heavy_threshold = Some(usize::MAX);
        let report = alg.run(&db);
        assert_eq!(report.output, eval_query(&triangle_query(), &db));
    }
}
