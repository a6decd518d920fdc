//! GYM — Generalized Yannakakis in MapReduce (Afrati et al., §3.2).
//!
//! "GYM takes a tree decomposition of a possibly cyclic query as input,
//! evaluates joins of relations grouped at the same node through the
//! Shares algorithm and executes Yannakakis' algorithm on the resulting
//! tree, taking advantage of the structure of the tree to perform some
//! joins and semi-joins in parallel. … Interestingly, the approach is
//! resilient to skew."
//!
//! Implementation: the query's reduced min-fill tree decomposition (no
//! bag inside a neighbour, so no round is spent on one) assigns every
//! atom to a bag; bags whose variables are not fully covered by their
//! assigned atoms borrow covering atoms (re-enforcing an atom in a second
//! bag only adds implied constraints, so correctness is preserved). Each
//! bag's relation is computed in **one** shared round by running a
//! HyperCube distribution per bag on a disjoint block of servers; the bag
//! tree — acyclic by construction — is then evaluated with the Yannakakis
//! passes of [`crate::algorithms::treejoin`].

use crate::algorithms::treejoin::{yannakakis_passes, RelTree, VarRel};
use crate::cluster::{layer, Cluster, Fate};
use crate::hypercube::HypercubeAlgorithm;
use crate::partition::{seed_cluster, InitialPartition};
use crate::report::RunReport;
use crate::shares::Shares;
use parlog_relal::atom::Atom;
use parlog_relal::eval::QueryPlan;
use parlog_relal::hypergraph::{tree_decomposition, TreeDecomposition};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::RelId;

/// GYM evaluation of a (possibly cyclic) plain CQ over a tree
/// decomposition.
#[derive(Debug, Clone)]
pub struct Gym {
    query: ConjunctiveQuery,
    td: TreeDecomposition,
    p: usize,
    seed: u64,
}

impl Gym {
    /// Build with the default min-fill decomposition.
    pub fn new(q: &ConjunctiveQuery, p: usize, seed: u64) -> Gym {
        assert!(q.is_plain_cq(), "GYM handles plain CQs");
        let td = tree_decomposition(q);
        td.validate(q).expect("decomposition must be valid");
        Gym {
            query: q.clone(),
            td,
            p,
            seed,
        }
    }

    /// The decomposition in use (its width and depth drive the trade-offs
    /// discussed in §3.2).
    pub fn decomposition(&self) -> &TreeDecomposition {
        &self.td
    }

    /// The conjunctive query computing one bag's relation: head = the bag's
    /// variables, body = assigned atoms plus covering atoms for any
    /// variable the assigned atoms miss.
    fn bag_query(&self, bag: usize, head_rel: &str) -> ConjunctiveQuery {
        let q = &self.query;
        let bag_vars: Vec<parlog_relal::atom::Var> = self.td.bags[bag].iter().cloned().collect();
        let mut body: Vec<Atom> = q
            .body
            .iter()
            .enumerate()
            .filter(|(i, _)| self.td.atom_bag[*i] == bag)
            .map(|(_, a)| a.clone())
            .collect();
        // Cover missing bag variables by borrowing atoms.
        for v in &bag_vars {
            let covered = body.iter().any(|a| a.variables().contains(v));
            if !covered {
                let donor = q
                    .body
                    .iter()
                    .find(|a| a.variables().contains(v))
                    .expect("every bag variable occurs in some atom")
                    .clone();
                body.push(donor);
            }
        }
        let head = Atom::new(
            parlog_relal::symbols::rel(head_rel),
            bag_vars
                .iter()
                .map(|v| parlog_relal::atom::Term::Var(v.clone()))
                .collect(),
        );
        ConjunctiveQuery::new(head, body).expect("bag query is safe by construction")
    }

    /// Run on `db` from a round-robin initial partition.
    pub fn run(&self, db: &Instance) -> RunReport {
        let q = &self.query;
        let nbags = self.td.bags.len();
        let p = self.p.max(nbags);
        let block = (p / nbags).max(1);

        // Per-bag HyperCube over its block of servers.
        let bag_queries: Vec<ConjunctiveQuery> = (0..nbags)
            .map(|b| self.bag_query(b, &format!("gymB{b}_{}", self.seed)))
            .collect();
        let hcs: Vec<HypercubeAlgorithm> = bag_queries
            .iter()
            .map(|bq| {
                let shares =
                    Shares::optimal(bq, block).unwrap_or_else(|_| Shares::uniform(bq, block));
                HypercubeAlgorithm::with_shares(bq, shares, self.seed ^ 0x77)
            })
            .collect();

        let mut cluster = Cluster::new(p);
        seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);

        // One round: every fact goes to the HyperCube destinations of every
        // bag whose atoms it matches, offset by the bag's server block —
        // blocks are disjoint, so no server is named twice.
        cluster.route(&[], |_, f, out| {
            for (b, hc) in hcs.iter().enumerate() {
                hc.destinations_into(f, b * block, out);
            }
            Fate::Send
        });

        // Local bag evaluation: a server in block b runs bag b's query as
        // a rule, compiled once for the phase; the inputs go. Servers
        // beyond the addressed sub-grid may hold nothing.
        let plans: Vec<QueryPlan> = bag_queries
            .iter()
            .map(|bq| layer(std::slice::from_ref(bq)))
            .collect();
        let inputs: Vec<RelId> = db.relations().collect();
        cluster.compute_rules_per_server(
            |s| std::slice::from_ref(&plans[(s / block).min(nbags - 1)]),
            &inputs,
        );

        // Yannakakis over the bag tree.
        let nodes: Vec<VarRel> = (0..nbags)
            .map(|b| {
                VarRel::new(
                    &format!("gymB{b}_{}", self.seed),
                    self.td.bags[b].iter().cloned().collect(),
                )
            })
            .collect();
        let tree = RelTree {
            nodes,
            parent: self.td.parent.clone(),
            root: self.td.root,
        };
        let seeds = [0xa1, 0xa2, 0xa3].map(|s| self.seed ^ s);
        yannakakis_passes(&mut cluster, tree, true, seeds, &q.head);
        RunReport::from_cluster("gym", &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::eval::eval_query;
    use parlog_relal::parser::parse_query;

    #[test]
    fn triangle_via_gym() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = datagen::triangle_db(150, 30, 3);
        let report = Gym::new(&q, 16, 1).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn four_cycle_via_gym() {
        let q = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)").unwrap();
        let mut db = datagen::uniform_relation("R", 80, 15, 1);
        db.extend_from(&datagen::uniform_relation("S", 80, 15, 2));
        db.extend_from(&datagen::uniform_relation("T", 80, 15, 3));
        db.extend_from(&datagen::uniform_relation("U", 80, 15, 4));
        let report = Gym::new(&q, 16, 5).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn acyclic_path_via_gym() {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        let mut db = datagen::uniform_relation("R", 100, 25, 1);
        db.extend_from(&datagen::uniform_relation("S", 100, 25, 2));
        db.extend_from(&datagen::uniform_relation("T", 100, 25, 3));
        let report = Gym::new(&q, 12, 2).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }

    #[test]
    fn gym_is_skew_resilient_where_cascade_is_not() {
        // §3.2: "the approach is resilient to skew". The right reading is
        // that GYM's load does not degrade when the data becomes skewed,
        // whereas a hash cascade joining on the skewed attribute
        // concentrates. Compare each algorithm against itself on uniform
        // vs. skewed inputs of the same size.
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let uniform = datagen::triangle_db(300, 150, 9);
        let skewed = datagen::triangle_heavy_db(300, 150, 9);

        let gym_u = Gym::new(&q, 16, 3).run(&uniform);
        let gym_s = Gym::new(&q, 16, 3).run(&skewed);
        let mut cas = crate::algorithms::cascade::CascadeJoin::new(&q, 16, 3);
        cas.order = vec![0, 1, 2]; // force the join on the skewed attribute y
        let cas_u = cas.run(&uniform);
        let cas_s = cas.run(&skewed);

        assert_eq!(gym_s.output, cas_s.output);
        let gym_ratio = gym_s.stats.max_load as f64 / gym_u.stats.max_load as f64;
        let cas_ratio = cas_s.stats.max_load as f64 / cas_u.stats.max_load as f64;
        assert!(
            gym_ratio < 2.0,
            "GYM load should not degrade under skew: ratio {gym_ratio:.2}"
        );
        assert!(
            cas_ratio > gym_ratio,
            "cascade ({cas_ratio:.2}) should degrade more than GYM ({gym_ratio:.2})"
        );
    }

    #[test]
    fn decomposition_is_exposed() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let g = Gym::new(&q, 8, 0);
        assert_eq!(g.decomposition().width(), 2);
    }

    #[test]
    fn five_cycle_with_projection() {
        let q = parse_query("H(a,c) <- R(a,b), S(b,c), T(c,d), U(d,e), V(e,a)").unwrap();
        let mut db = datagen::uniform_relation("R", 60, 12, 1);
        db.extend_from(&datagen::uniform_relation("S", 60, 12, 2));
        db.extend_from(&datagen::uniform_relation("T", 60, 12, 3));
        db.extend_from(&datagen::uniform_relation("U", 60, 12, 4));
        db.extend_from(&datagen::uniform_relation("V", 60, 12, 5));
        let report = Gym::new(&q, 20, 8).run(&db);
        assert_eq!(report.output, eval_query(&q, &db));
    }
}
