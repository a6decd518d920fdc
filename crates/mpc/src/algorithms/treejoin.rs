//! The one executor behind every tree-structured multi-round algorithm
//! (Yannakakis, GYM, the left-deep and balanced cascades):
//! relations-with-schemas and the semijoin and join passes that run a
//! relation tree on the cluster, one round per batch of edges. Edges
//! touching disjoint relations share a round — "taking advantage of the
//! structure of the tree to perform some joins and semi-joins in
//! parallel", §3.2 — and a caller picks the trade-off between rounds and
//! communication by the tree's shape and the schedule it hands
//! [`join_pass`]. Every round is one [`route_by_key`] on the edges'
//! shared variables and one [`Cluster::compute_rules`] phase; the local
//! loads, semijoins, joins and projections are rules.

use crate::cluster::{layer, rule, Cluster};
use crate::partition::{route_by_key, seed_cluster, HashPartitioner, InitialPartition};
use parlog_relal::atom::{Atom, Term, Var};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::{rel, rel_name, RelId};

/// A materialized relation with a variable schema: facts of `rel` whose
/// `i`-th argument is the value of `vars[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarRel {
    /// The (fresh) relation name holding the tuples.
    pub rel: RelId,
    /// The variable schema, in argument order.
    pub vars: Vec<Var>,
}

impl VarRel {
    /// A fresh relation named `name` with the given schema.
    pub fn new(name: &str, vars: Vec<Var>) -> VarRel {
        VarRel {
            rel: rel(name),
            vars,
        }
    }

    /// A relation named after this one with `suffix` appended.
    fn derived(&self, suffix: &str, vars: Vec<Var>) -> VarRel {
        VarRel::new(&format!("{}{suffix}", rel_name(self.rel)), vars)
    }

    /// The shared variables with another schema, in this schema's order.
    pub fn shared_with(&self, other: &VarRel) -> Vec<Var> {
        self.vars
            .iter()
            .filter(|v| other.vars.contains(v))
            .cloned()
            .collect()
    }

    /// The atom `rel(vars)`.
    pub fn atom(&self) -> Atom {
        Atom::new(self.rel, self.vars.iter().cloned().map(Term::Var).collect())
    }
}

/// The free local "loading" step of the tree algorithms: a fresh
/// `p`-server cluster seeded round-robin with `db`, whose every shard is
/// then rewritten by one rule per body atom into a var-schema relation
/// named `{prefix}{i}_{seed}` — the atom's facts (constants and repeated
/// variables checked) on its variables. The base relations go. Returns
/// the cluster and the relations, in body order.
pub fn load_atoms(
    p: usize,
    db: &Instance,
    body: &[Atom],
    prefix: &str,
    seed: u64,
) -> (Cluster, Vec<VarRel>) {
    let nodes: Vec<VarRel> = body
        .iter()
        .enumerate()
        .map(|(i, a)| VarRel::new(&format!("{prefix}{i}_{seed}"), a.variables()))
        .collect();
    let mut cluster = Cluster::new(p);
    seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
    let loads: Vec<ConjunctiveQuery> = body
        .iter()
        .zip(&nodes)
        .map(|(a, node)| rule(node.atom(), vec![a.clone()]))
        .collect();
    let base: Vec<RelId> = db.relations().collect();
    cluster.compute_rules(&[layer(&loads)], &base);
    (cluster, nodes)
}

/// The joined schema of two [`VarRel`]s: `a`'s variables, then `b`'s
/// others, under `a`'s name with `suffix` appended.
pub fn joined_schema(a: &VarRel, b: &VarRel, suffix: &str) -> VarRel {
    let mut vars = a.vars.clone();
    for v in &b.vars {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    a.derived(suffix, vars)
}

/// A tree of var-schema relations: `parent[i]` points upward, the root
/// points to itself. Used as a join tree (Yannakakis), a bag tree (GYM),
/// or the shape of a cascade.
#[derive(Debug, Clone)]
pub struct RelTree {
    /// One materialized relation per node.
    pub nodes: Vec<VarRel>,
    /// Parent pointers.
    pub parent: Vec<usize>,
    /// The root node.
    pub root: usize,
}

impl RelTree {
    fn depth(&self, mut i: usize) -> usize {
        let mut d = 0;
        while self.parent[i] != i {
            i = self.parent[i];
            d += 1;
        }
        d
    }

    /// Edges `(child, parent)` ordered deepest-child-first.
    pub fn edges_bottom_up(&self) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = (0..self.nodes.len())
            .filter(|&i| i != self.root)
            .map(|i| (i, self.parent[i]))
            .collect();
        edges.sort_by_key(|&(c, _)| std::cmp::Reverse(self.depth(c)));
        edges
    }
}

/// Group an ordered edge list into *rounds*: consecutive edges are packed
/// into the same round as long as no relation (by node index) is touched
/// twice in the round — those semijoins/joins hash different keys and
/// must not collide.
pub fn batch_edges(edges: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut batches: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut current: Vec<(usize, usize)> = Vec::new();
    let mut used: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for &(c, p) in edges {
        if used.contains(&c) || used.contains(&p) {
            batches.push(std::mem::take(&mut current));
            used.clear();
        }
        used.insert(c);
        used.insert(p);
        current.push((c, p));
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// The communication phase of one pair round: both relations of the
/// batch's `k`-th edge are hashed on their shared variables with
/// `hasher(k)`; facts of every other relation stay put.
fn route_pairs(
    cluster: &mut Cluster,
    state: &[VarRel],
    batch: &[(usize, usize)],
    hasher: impl Fn(usize) -> HashPartitioner,
) {
    let mut routes = Vec::new();
    for (k, &(c, pa)) in batch.iter().enumerate() {
        let on = state[c].shared_with(&state[pa]);
        for side in [&state[c], &state[pa]] {
            let at = |v: &Var| side.vars.iter().position(|w| w == v).expect("shared");
            routes.push((side.rel, on.iter().map(at).collect(), hasher(k)));
        }
    }
    route_by_key(cluster, &routes);
}

/// Execute a **semijoin pass** over the tree on the cluster: for every
/// edge in `edges` (already ordered), replace `filtered ⟵ filtered ⋉
/// other`. With `child_filters_parent = true` this is the bottom-up
/// (full-reducer first half) pass; with `false` the top-down second half.
///
/// `state` maps node index → its current [`VarRel`]. A semijoin keeps the
/// schema and moves the filtered node to a fresh relation: two layers,
/// `key(on) <- other` and `filtered'(vars) <- filtered, key(on)`, so the
/// local step costs `O(|filtered| + |other|)`, never their join.
pub fn semijoin_pass(
    cluster: &mut Cluster,
    state: &mut [VarRel],
    edges: &[(usize, usize)],
    child_filters_parent: bool,
    seed: u64,
) {
    let p = cluster.p();
    for batch in batch_edges(edges) {
        route_pairs(cluster, state, &batch, |k| {
            HashPartitioner::new(seed ^ (k as u64) << 17, p)
        });
        let (mut keys, mut kept, mut drop) = (Vec::new(), Vec::new(), Vec::new());
        for &(c, pa) in &batch {
            let (f, o) = if child_filters_parent {
                (pa, c)
            } else {
                (c, pa)
            };
            let key = state[f].derived("⋉", state[f].shared_with(&state[o]));
            let next = state[f].derived("'", state[f].vars.clone());
            keys.push(rule(key.atom(), vec![state[o].atom()]));
            kept.push(rule(next.atom(), vec![state[f].atom(), key.atom()]));
            drop.extend([state[f].rel, key.rel]);
            state[f] = next;
        }
        cluster.compute_rules(&[layer(&keys), layer(&kept)], &drop);
    }
}

/// Execute a **join pass**: one round per batch of `schedule`, in which
/// every edge `(child, parent)` merges the child's accumulated state into
/// the parent's (`parent ⟵ parent ⋈ child`), growing the parent's schema.
/// The batches must touch disjoint nodes and the last one must leave
/// everything merged into the root, whose facts — the full join — a last
/// local step projects onto `head` (the rule `head <- root`).
pub fn join_pass(
    cluster: &mut Cluster,
    tree: &RelTree,
    schedule: &[Vec<(usize, usize)>],
    seed: u64,
    head: &Atom,
) {
    let p = cluster.p();
    let mut state: Vec<VarRel> = tree.nodes.clone();
    for batch in schedule {
        route_pairs(cluster, &state, batch, |k| {
            HashPartitioner::new(seed ^ 0xbeef ^ ((k as u64) << 21), p)
        });
        // Local joins into fresh relations; each parent's schema grows.
        let (mut joins, mut drop) = (Vec::new(), Vec::new());
        for &(c, pa) in batch {
            let out = joined_schema(&state[pa], &state[c], "⋈");
            joins.push(rule(out.atom(), vec![state[pa].atom(), state[c].atom()]));
            drop.extend([state[pa].rel, state[c].rel]);
            state[pa] = out;
        }
        cluster.compute_rules(&[layer(&joins)], &drop);
    }
    let root = &state[tree.root];
    let project = rule(head.clone(), vec![root.atom()]);
    cluster.compute_rules(&[layer(&[project])], &[root.rel]);
}

/// Yannakakis over `tree` (§3.2): the bottom-up semijoin pass, the
/// top-down one when `full`, then the join pass on the bottom-up batches,
/// projected onto `head`. `seeds` pick the three passes' hashes.
pub(crate) fn yannakakis_passes(
    cluster: &mut Cluster,
    mut tree: RelTree,
    full: bool,
    seeds: [u64; 3],
    head: &Atom,
) {
    let up = tree.edges_bottom_up();
    semijoin_pass(cluster, &mut tree.nodes, &up, true, seeds[0]);
    if full {
        let down: Vec<(usize, usize)> = up.iter().rev().copied().collect();
        semijoin_pass(cluster, &mut tree.nodes, &down, false, seeds[1]);
    }
    join_pass(cluster, &tree, &batch_edges(&up), seeds[2], head);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::{fact, Fact, Val};
    use parlog_relal::parser::parse_atom;

    fn vr(name: &str, vars: &[&str]) -> VarRel {
        VarRel::new(name, vars.iter().map(|v| Var::new(*v)).collect())
    }

    #[test]
    fn binding_extraction() {
        let a = parse_atom("R(x, y, x)").unwrap();
        let (x, y) = (Var::new("x"), Var::new("y"));
        assert_eq!(
            a.binding(&fact("R", &[1, 2, 1])),
            Some(vec![(&x, Val(1)), (&y, Val(2))])
        );
        assert_eq!(a.binding(&fact("R", &[1, 2, 3])), None);
        assert_eq!(a.binding(&fact("S", &[1, 2, 1])), None);
    }

    /// A one-server cluster holding `facts`: every local step sees them
    /// all.
    fn one_server(facts: Vec<Fact>) -> Cluster {
        let mut c = Cluster::new(1);
        let db = Instance::from_facts(facts);
        seed_cluster(&mut c, &db, InitialPartition::RoundRobin);
        c
    }

    #[test]
    fn normalization() {
        let a = parse_atom("R(x, 7, y)").unwrap();
        let shard = Instance::from_facts([fact("R", &[1, 7, 2]), fact("R", &[1, 8, 2])]);
        let (c, nodes) = load_atoms(1, &shard, &[a], "n", 0);
        assert_eq!(nodes[0].vars, vec![Var::new("x"), Var::new("y")]);
        assert_eq!(c.union_all().sorted_facts(), vec![fact("n0_0", &[1, 2])]);
    }

    #[test]
    fn local_semijoin_and_join() {
        let mut c = one_server(vec![
            fact("A", &[1, 2]),
            fact("A", &[1, 9]),
            fact("B", &[2, 3]),
            fact("B", &[2, 4]),
        ]);
        let mut state = vec![vr("A", &["x", "y"]), vr("B", &["y", "z"])];
        semijoin_pass(&mut c, &mut state, &[(0, 1)], false, 0);
        let semi: Vec<Fact> = c.union_all().relation(state[0].rel).cloned().collect();
        assert_eq!(semi, vec![fact("A'", &[1, 2])]);
        let tree = RelTree {
            nodes: state,
            parent: vec![1, 1],
            root: 1,
        };
        let head = parse_atom("AB(x, y, z)").unwrap();
        join_pass(&mut c, &tree, &[vec![(0, 1)]], 0, &head);
        assert_eq!(
            c.union_all().sorted_facts(),
            vec![fact("AB", &[1, 2, 3]), fact("AB", &[1, 2, 4])]
        );
    }

    #[test]
    fn batching_respects_relation_disjointness() {
        // Edges (0,1), (2,1) share parent 1 → separate rounds; (3,4) can
        // join the first round.
        let batches = batch_edges(&[(0, 1), (3, 4), (2, 1)]);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], vec![(0, 1), (3, 4)]);
        assert_eq!(batches[1], vec![(2, 1)]);
    }

    /// Every tree algorithm's exact rounds and communication on one
    /// acyclic and one cyclic input. Yannakakis and GYM are pinned in
    /// full; the cascades' max loads follow the executor's hash seeds, so
    /// only their rounds and total communication are.
    #[test]
    fn tree_passes_are_pinned() {
        use crate::algorithms::{
            balanced_cascade::BalancedCascade, cascade::CascadeJoin, gym::Gym,
            yannakakis::DistributedYannakakis,
        };
        use crate::datagen::{triangle_db, uniform_relation};
        use crate::report::RunReport;
        use parlog_relal::eval::eval_query;
        use parlog_relal::parser::parse_query;

        let path4 = parse_query("H(a,e) <- R(a,b), S(b,c), T(c,d), U(d,e)").unwrap();
        let mut pdb = Instance::new();
        for (name, seed) in [("R", 1), ("S", 2), ("T", 3), ("U", 4)] {
            pdb.extend_from(&uniform_relation(name, 300, 60, seed));
        }
        let tri = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let tdb = triangle_db(300, 50, 11);
        let (pexp, texp) = (eval_query(&path4, &pdb), eval_query(&tri, &tdb));

        let full = |r: RunReport, expected: &Instance| {
            assert_eq!(&r.output, expected);
            (r.stats.rounds, r.stats.max_load, r.stats.total_comm)
        };
        let comm = |r: RunReport, expected: &Instance| {
            let (rounds, _, total) = full(r, expected);
            (rounds, total)
        };
        let yannakakis = full(DistributedYannakakis::new(&path4, 16, 7).run(&pdb), &pexp);
        assert_eq!(yannakakis, (9, 893, 13_711));
        // On the reduced decomposition GYM's bags are the path's atoms:
        // one bag round ahead of Yannakakis' passes over the same tree.
        let gym = full(Gym::new(&path4, 16, 7).run(&pdb), &pexp);
        assert_eq!(gym, (10, 894, 14_902));
        assert!(
            gym.0 <= yannakakis.0 + 1,
            "GYM rounds {} vs {}",
            gym.0,
            yannakakis.0
        );
        assert_eq!(
            full(Gym::new(&tri, 16, 1).run(&tdb), &texp),
            (1, 185, 2_400)
        );
        assert_eq!(
            comm(CascadeJoin::new(&path4, 16, 7).run(&pdb), &pexp),
            (3, 10_130)
        );
        assert_eq!(
            comm(BalancedCascade::new(&path4, 16, 7).run(&pdb), &pexp),
            (2, 4_140)
        );
        assert_eq!(
            comm(CascadeJoin::new(&tri, 16, 1).run(&tdb), &texp),
            (2, 2_744)
        );
    }

    #[test]
    fn empty_shared_vars_join_is_cartesian() {
        let mut c = one_server(vec![fact("Ax", &[1]), fact("Ax", &[2]), fact("By", &[7])]);
        let tree = RelTree {
            nodes: vec![vr("Ax", &["x"]), vr("By", &["y"])],
            parent: vec![1, 1],
            root: 1,
        };
        let head = parse_atom("AxBy(x, y)").unwrap();
        join_pass(&mut c, &tree, &[vec![(0, 1)]], 0, &head);
        assert_eq!(c.union_all().relation_len(head.rel), 2);
    }
}
