//! The HyperCube distribution and one-round evaluation (Example 3.2,
//! Beame–Koutris–Suciu).
//!
//! Servers are identified with points of the grid
//! `[0,α₁) × … × [0,αₖ)` (one axis per query variable, `αᵢ` the shares).
//! A fact matching a body atom is sent to every server whose coordinates
//! agree with the hashes of the values the atom binds; the unbound axes
//! range over their whole extent (that's the replication). The algorithm
//! is correct because for every valuation `V` the facts `V(body_Q)` all
//! meet at the server with coordinates `(h₁(V(x₁)), …, hₖ(V(xₖ)))` —
//! the HyperCube distribution **strongly saturates** every CQ
//! (Section 4.1).

use crate::cluster::Cluster;
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use crate::shares::Shares;
use parlog_relal::atom::{Atom, Term};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::simplex::LpError;

/// The one-round HyperCube algorithm for a conjunctive query.
#[derive(Debug, Clone)]
pub struct HypercubeAlgorithm {
    query: ConjunctiveQuery,
    shares: Shares,
    /// Per-variable hash functions `h_c` (independent via distinct seeds).
    hashers: Vec<HashPartitioner>,
}

impl HypercubeAlgorithm {
    /// Build with optimal shares for `p` servers.
    pub fn new(q: &ConjunctiveQuery, p: usize) -> Result<HypercubeAlgorithm, LpError> {
        let shares = Shares::optimal(q, p)?;
        Ok(HypercubeAlgorithm::with_shares(q, shares, 0x9c0_ffee))
    }

    /// Build with explicit shares and hash seed.
    pub fn with_shares(q: &ConjunctiveQuery, shares: Shares, seed: u64) -> HypercubeAlgorithm {
        let hashers = shares
            .shares
            .iter()
            .enumerate()
            .map(|(i, &s)| HashPartitioner::new(seed.wrapping_add(i as u64 * 0x9e37), s))
            .collect();
        HypercubeAlgorithm {
            query: q.clone(),
            shares,
            hashers,
        }
    }

    /// The shares in use.
    pub fn shares(&self) -> &Shares {
        &self.shares
    }

    /// Number of servers addressed.
    pub fn servers(&self) -> usize {
        self.shares.servers()
    }

    /// The hash of value `v` on the axis of variable index `i`.
    fn axis_hash(&self, i: usize, v: parlog_relal::fact::Val) -> usize {
        self.hashers[i].bucket(v)
    }

    /// The destination servers of `f` *through one atom*: `None` if `f`
    /// does not match the atom. The skew engine routes per-atom (a fact
    /// may be pattern-consistent through one atom and not another).
    pub(crate) fn destinations_via(&self, atom: &Atom, f: &Fact) -> Option<Vec<usize>> {
        if atom.rel != f.rel || atom.arity() != f.arity() || !atom.matches(f) {
            return None;
        }
        // Grow the flat server ids one axis at a time (mixed radix, as
        // `Shares::flatten`): an axis whose variable the atom binds
        // contributes the hash of the bound value, a free axis every
        // coordinate.
        let mut ids = vec![0usize];
        for (i, &share) in self.shares.shares.iter().enumerate() {
            let name = &self.shares.vars[i];
            let bound = atom.terms.iter().zip(&f.args).find_map(|(t, &v)| match t {
                Term::Var(var) if var.0 == *name => Some(self.axis_hash(i, v)),
                _ => None,
            });
            match bound {
                Some(c) => ids.iter_mut().for_each(|id| *id = *id * share + c),
                None => {
                    ids = ids
                        .iter()
                        .flat_map(|&id| (0..share).map(move |c| id * share + c))
                        .collect()
                }
            }
        }
        Some(ids)
    }

    /// All destination servers of a fact (union over matching atoms —
    /// self-joins route through every atom of the relation).
    pub fn destinations(&self, f: &Fact) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .query
            .body
            .iter()
            .filter_map(|a| self.destinations_via(a, f))
            .flatten()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Run the one-round algorithm on `db` on a fresh cluster, starting
    /// from a round-robin initial partition. Returns the output and the
    /// load report.
    pub fn run(&self, db: &Instance) -> RunReport {
        self.run_on(&mut Cluster::new(self.servers()), db)
    }

    /// [`HypercubeAlgorithm::run`] on a caller-prepared fresh cluster of
    /// [`HypercubeAlgorithm::servers`] servers (parallelism, trace and
    /// fault plans pre-installed). The report is byte-identical for every
    /// worker-thread count.
    pub fn run_on(&self, cluster: &mut Cluster, db: &Instance) -> RunReport {
        assert_eq!(cluster.p(), self.servers(), "cluster sized for the shares");
        seed_cluster(cluster, db, InitialPartition::RoundRobin);
        cluster.communicate(|f| self.destinations(f));
        cluster.compute_query(&self.query, EvalStrategy::Auto);
        RunReport::from_cluster("hypercube", cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::parser::parse_query;

    fn triangle() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
    }

    #[test]
    fn example_3_2_replication() {
        // p = 27, shares 3×3×3: every R-tuple is replicated αz = 3 times.
        let q = triangle();
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        assert_eq!(hc.servers(), 27);
        let f = parlog_relal::fact::fact("R", &[10, 20]);
        assert_eq!(hc.destinations(&f).len(), 3);
    }

    #[test]
    fn triangle_output_is_correct() {
        let q = triangle();
        let db = datagen::triangle_db(200, 40, 7);
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        let report = hc.run(&db);
        assert_eq!(report.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn triangle_load_is_sublinear_on_skew_free_data() {
        let q = triangle();
        // Matching relations: perfectly skew-free.
        let mut db = datagen::matching_relation("R", 600, 0);
        db.extend_from(&datagen::matching_relation("S", 600, 2000));
        db.extend_from(&datagen::matching_relation("T", 600, 4000));
        let hc = HypercubeAlgorithm::new(&q, 64).unwrap();
        let report = hc.run(&db);
        let m = db.len();
        // Theory: per-relation load ≈ m_R/p^{2/3} · 3 relations; allow slack.
        let bound = 3 * (600.0 / 16.0_f64).ceil() as usize * 3;
        assert!(
            report.stats.max_load < bound,
            "load {} ≥ bound {bound} (m = {m})",
            report.stats.max_load
        );
    }

    #[test]
    fn self_join_routes_through_both_atoms() {
        let q = parse_query("H(x,y,z) <- R(x,y), R(y,z)").unwrap();
        let hc = HypercubeAlgorithm::with_shares(
            &q,
            Shares::manual(vec!["x".into(), "y".into(), "z".into()], vec![2, 2, 2]),
            99,
        );
        let f = parlog_relal::fact::fact("R", &[1, 2]);
        // Through atom R(x,y): z free → 2 servers; through atom R(y,z):
        // x free → 2 servers. Up to overlap: between 2 and 4 distinct.
        let d = hc.destinations(&f);
        assert!(d.len() >= 2 && d.len() <= 4, "{d:?}");
        // Output correctness on a small path graph.
        let db = Instance::from_facts([
            parlog_relal::fact::fact("R", &[1, 2]),
            parlog_relal::fact::fact("R", &[2, 3]),
            parlog_relal::fact::fact("R", &[3, 4]),
        ]);
        let out = hc.run(&db).output;
        assert_eq!(out, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn constants_restrict_matching() {
        let q = parse_query("H(x) <- R(x, 5)").unwrap();
        let hc = HypercubeAlgorithm::with_shares(&q, Shares::manual(vec!["x".into()], vec![4]), 1);
        assert_eq!(
            hc.destinations(&parlog_relal::fact::fact("R", &[1, 5]))
                .len(),
            1
        );
        assert!(hc
            .destinations(&parlog_relal::fact::fact("R", &[1, 6]))
            .is_empty());
    }

    #[test]
    fn valuation_meeting_property() {
        // For every satisfying valuation, all required facts share a
        // destination — the strong-saturation property that makes
        // HyperCube correct (Section 4.1).
        let q = triangle();
        let db = datagen::triangle_db(80, 20, 5);
        let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
        for v in parlog_relal::eval::satisfying_valuations(&q, &db) {
            let req = v.required_facts(&q);
            let mut meet: Option<Vec<usize>> = None;
            for f in req.iter() {
                let d = hc.destinations(f);
                meet = Some(match meet {
                    None => d,
                    Some(prev) => prev.into_iter().filter(|s| d.contains(s)).collect(),
                });
            }
            assert!(
                meet.is_some_and(|m| !m.is_empty()),
                "valuation {v} does not meet"
            );
        }
    }

    #[test]
    fn parallel_run_report_is_identical() {
        let q = triangle();
        let db = datagen::triangle_db(300, 50, 11);
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        let seq = hc.run(&db);
        for threads in [2, 4, 16] {
            let par = hc.run_on(&mut Cluster::new(27).with_parallelism(threads), &db);
            assert_eq!(par.output, seq.output);
            assert_eq!(
                serde_json::to_string(&par.stats).unwrap(),
                serde_json::to_string(&seq.stats).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn nonmatching_relation_goes_nowhere() {
        let q = triangle();
        let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
        assert!(hc
            .destinations(&parlog_relal::fact::fact("Z", &[1, 2]))
            .is_empty());
    }
}
