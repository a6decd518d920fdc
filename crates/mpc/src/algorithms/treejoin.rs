//! The one executor behind every tree-structured multi-round algorithm
//! (Yannakakis, GYM, the left-deep and balanced cascades):
//! relations-with-schemas, local join/semijoin operators, and the semijoin
//! and join passes that run a relation tree on the cluster, one round per
//! batch of edges. Edges touching disjoint relations share a round —
//! "taking advantage of the structure of the tree to perform some joins
//! and semi-joins in parallel", §3.2 — and a caller picks the trade-off
//! between rounds and communication by the tree's shape and the schedule
//! it hands [`join_pass`].

use crate::cluster::{Cluster, Routing};
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use parlog_relal::atom::{Atom, Term, Var};
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::symbols::{rel, RelId};

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

    /// The shared variables with another schema, in this schema's order.
    pub fn shared_with(&self, other: &VarRel) -> Vec<Var> {
        self.vars
            .iter()
            .filter(|v| other.vars.contains(v))
            .cloned()
            .collect()
    }

    /// The values a fact takes on `on` (which must be a subset of the
    /// schema).
    pub fn key_of(&self, f: &Fact, on: &[Var]) -> Args {
        on.iter()
            .map(|v| {
                let i = self
                    .vars
                    .iter()
                    .position(|w| w == v)
                    .expect("key variable must be in the schema");
                f.args[i]
            })
            .collect()
    }
}

/// Extract the variable binding a fact induces through an atom, or `None`
/// if the fact does not match (wrong constants / repeated-variable clash).
pub fn binding_of(atom: &Atom, f: &Fact) -> Option<Vec<(Var, Val)>> {
    if atom.rel != f.rel || atom.arity() != f.arity() {
        return None;
    }
    let mut out: Vec<(Var, Val)> = Vec::new();
    for (t, &a) in atom.terms.iter().zip(f.args.iter()) {
        match t {
            Term::Const(c) => {
                if *c != a {
                    return None;
                }
            }
            Term::Var(v) => match out.iter().find(|(w, _)| w == v) {
                Some((_, prev)) => {
                    if *prev != a {
                        return None;
                    }
                }
                None => out.push((v.clone(), a)),
            },
        }
    }
    Some(out)
}

/// Convert the facts of `shard` matching `atom` into facts of the
/// var-schema relation `target` (whose schema must equal
/// `atom.variables()`).
pub fn normalize_atom(shard: &Instance, atom: &Atom, target: &VarRel) -> Instance {
    debug_assert_eq!(target.vars, atom.variables());
    // Each schema variable's first position in the atom.
    let firsts: Vec<usize> = target
        .vars
        .iter()
        .map(|v| {
            let var = |t: &Term| matches!(t, Term::Var(w) if w == v);
            atom.terms.iter().position(var).expect("schema var")
        })
        .collect();
    let mut out = Instance::new();
    for f in shard.relation(atom.rel) {
        if atom.matches(f) {
            let args = firsts.iter().map(|&i| f.args[i]).collect::<Args>();
            out.insert(Fact::new(target.rel, args));
        }
    }
    out
}

/// The free local "loading" step of the tree algorithms: a fresh
/// `p`-server cluster seeded round-robin with `db`, whose every shard is
/// then rewritten into one var-schema relation per body atom, named
/// `{prefix}{i}_{seed}`. Returns the cluster and the relations, in body
/// order.
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
    cluster.compute(|shard| {
        let mut out = Instance::new();
        for (a, node) in body.iter().zip(&nodes) {
            out.extend_from(&normalize_atom(shard, a, node));
        }
        out
    });
    (cluster, nodes)
}

/// Local semijoin: the facts of `a` (in `inst`) having a matching `b`
/// fact on the shared variables.
pub fn semijoin_local(a: &VarRel, b: &VarRel, inst: &Instance) -> Instance {
    let on = a.shared_with(b);
    let keys: parlog_relal::fastmap::FxSet<Args> =
        inst.relation(b.rel).map(|f| b.key_of(f, &on)).collect();
    Instance::from_facts(
        inst.relation(a.rel)
            .filter(|f| keys.contains(&a.key_of(f, &on)))
            .cloned(),
    )
}

/// Local join of `a` and `b` into schema `out` (= `a.vars` followed by
/// `b`'s private variables).
pub fn join_local(a: &VarRel, b: &VarRel, out: &VarRel, inst: &Instance) -> Instance {
    let on = a.shared_with(b);
    let mut index: parlog_relal::fastmap::FxMap<Args, Vec<&Fact>> = parlog_relal::fastmap::fxmap();
    for f in inst.relation(b.rel) {
        index.entry(b.key_of(f, &on)).or_default().push(f);
    }
    let mut result = Instance::new();
    for fa in inst.relation(a.rel) {
        if let Some(bs) = index.get(&a.key_of(fa, &on)) {
            for fb in bs {
                let args: Args = out
                    .vars
                    .iter()
                    .map(|v| {
                        if let Some(i) = a.vars.iter().position(|w| w == v) {
                            fa.args[i]
                        } else {
                            let i = b.vars.iter().position(|w| w == v).expect("var in b");
                            fb.args[i]
                        }
                    })
                    .collect();
                result.insert(Fact::new(out.rel, args));
            }
        }
    }
    result
}

/// The joined schema of two [`VarRel`]s under a fresh relation name.
pub fn joined_schema(a: &VarRel, b: &VarRel, name: &str) -> VarRel {
    let mut vars = a.vars.clone();
    for v in &b.vars {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    VarRel::new(name, vars)
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
    let plan: Vec<(&VarRel, &VarRel, Vec<Var>, HashPartitioner)> = batch
        .iter()
        .enumerate()
        .map(|(k, &(c, pa))| {
            let on = state[c].shared_with(&state[pa]);
            (&state[c], &state[pa], on, hasher(k))
        })
        .collect();
    cluster.reshuffle(|_, f| {
        for (child, parent, on, h) in &plan {
            for side in [child, parent] {
                if f.rel == side.rel {
                    return Routing::Send(vec![h.bucket_of(&side.key_of(f, on))]);
                }
            }
        }
        Routing::Keep
    });
}

/// Execute a **semijoin pass** over the tree on the cluster: for every
/// edge in `edges` (already ordered), replace `filtered ⟵ filtered ⋉
/// other`. With `child_filters_parent = true` this is the bottom-up
/// (full-reducer first half) pass; with `false` the top-down second half.
///
/// `state` maps node index → its current [`VarRel`]; the pass filters in
/// place (schemas do not change under semijoins).
pub fn semijoin_pass(
    cluster: &mut Cluster,
    state: &[VarRel],
    edges: &[(usize, usize)],
    child_filters_parent: bool,
    seed: u64,
) {
    let p = cluster.p();
    for batch in batch_edges(edges) {
        route_pairs(cluster, state, &batch, |k| {
            HashPartitioner::new(seed ^ (k as u64) << 17, p)
        });
        cluster.compute(|local| {
            let mut out = local.clone();
            for &(c, pa) in &batch {
                let (filtered, other) = if child_filters_parent {
                    (pa, c)
                } else {
                    (c, pa)
                };
                let kept = semijoin_local(&state[filtered], &state[other], &out);
                // Replace the filtered relation's facts.
                let dropped: Vec<Fact> = out
                    .relation(state[filtered].rel)
                    .filter(|f| !kept.contains(f))
                    .cloned()
                    .collect();
                for f in dropped {
                    out.remove(&f);
                }
            }
            out
        });
    }
}

/// Execute a **join pass**: one round per batch of `schedule`, in which
/// every edge `(child, parent)` merges the child's accumulated state into
/// the parent's (`parent ⟵ parent ⋈ child`), growing the parent's schema.
/// The batches must touch disjoint nodes and the last one must leave
/// everything merged into the root. Returns the root's final [`VarRel`],
/// whose facts (spread over the cluster) are the full join.
pub fn join_pass(
    cluster: &mut Cluster,
    tree: &RelTree,
    schedule: &[Vec<(usize, usize)>],
    seed: u64,
    name_prefix: &str,
) -> VarRel {
    let p = cluster.p();
    let mut state: Vec<VarRel> = tree.nodes.clone();
    let mut fresh = 0usize;
    for batch in schedule {
        route_pairs(cluster, &state, batch, |k| {
            HashPartitioner::new(seed ^ 0xbeef ^ ((k as u64) << 21), p)
        });
        // Local joins; schema of each parent grows.
        let merged: Vec<(VarRel, VarRel, VarRel)> = batch
            .iter()
            .map(|&(c, pa)| {
                let out = joined_schema(&state[pa], &state[c], &format!("{name_prefix}_j{fresh}"));
                fresh += 1;
                let parent = std::mem::replace(&mut state[pa], out.clone());
                (parent, state[c].clone(), out)
            })
            .collect();
        cluster.compute(|local| {
            let mut out = local.clone();
            for (parent, child, target) in &merged {
                let joined = join_local(parent, child, target, &out);
                // Remove the inputs, add the join.
                let gone: Vec<Fact> = out
                    .relation(parent.rel)
                    .chain(out.relation(child.rel))
                    .cloned()
                    .collect();
                for f in gone {
                    out.remove(&f);
                }
                out.extend_from(&joined);
            }
            out
        });
    }
    state[tree.root].clone()
}

/// Project the facts of `source` onto the head atom `head` locally on
/// every server, leaving only the projected facts.
pub fn project_to_head(cluster: &mut Cluster, source: &VarRel, head: &Atom) {
    let src = source.clone();
    let head = head.clone();
    cluster.compute(|local| {
        let mut out = Instance::new();
        for f in local.relation(src.rel) {
            let args: Args = head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => {
                        let i = src
                            .vars
                            .iter()
                            .position(|w| w == v)
                            .expect("head variable must be in the join result");
                        f.args[i]
                    }
                })
                .collect();
            out.insert(Fact::new(head.rel, args));
        }
        out
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_atom;

    fn vr(name: &str, vars: &[&str]) -> VarRel {
        VarRel::new(name, vars.iter().map(|v| Var::new(*v)).collect())
    }

    #[test]
    fn binding_extraction() {
        let a = parse_atom("R(x, y, x)").unwrap();
        assert_eq!(
            binding_of(&a, &fact("R", &[1, 2, 1])),
            Some(vec![(Var::new("x"), Val(1)), (Var::new("y"), Val(2))])
        );
        assert_eq!(binding_of(&a, &fact("R", &[1, 2, 3])), None);
        assert_eq!(binding_of(&a, &fact("S", &[1, 2, 1])), None);
    }

    #[test]
    fn normalization() {
        let a = parse_atom("R(x, 7, y)").unwrap();
        let target = vr("n0", &["x", "y"]);
        let shard = Instance::from_facts([fact("R", &[1, 7, 2]), fact("R", &[1, 8, 2])]);
        let n = normalize_atom(&shard, &a, &target);
        assert_eq!(n.sorted_facts(), vec![fact("n0", &[1, 2])]);
    }

    #[test]
    fn local_semijoin_and_join() {
        let a = vr("A", &["x", "y"]);
        let b = vr("B", &["y", "z"]);
        let inst = Instance::from_facts([
            fact("A", &[1, 2]),
            fact("A", &[1, 9]),
            fact("B", &[2, 3]),
            fact("B", &[2, 4]),
        ]);
        let semi = semijoin_local(&a, &b, &inst);
        assert_eq!(semi.sorted_facts(), vec![fact("A", &[1, 2])]);
        let out = joined_schema(&a, &b, "AB");
        assert_eq!(out.vars.len(), 3);
        let j = join_local(&a, &b, &out, &inst);
        assert_eq!(
            j.sorted_facts(),
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
        assert_eq!(
            full(DistributedYannakakis::new(&path4, 16, 7).run(&pdb), &pexp),
            (9, 893, 13_711)
        );
        assert_eq!(
            full(Gym::new(&path4, 16, 7).run(&pdb), &pexp),
            (13, 4_084, 54_130)
        );
        assert_eq!(
            full(Gym::new(&tri, 16, 1).run(&tdb), &texp),
            (7, 418, 4_400)
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
        let a = vr("Ax", &["x"]);
        let b = vr("By", &["y"]);
        let inst = Instance::from_facts([fact("Ax", &[1]), fact("Ax", &[2]), fact("By", &[7])]);
        let out = joined_schema(&a, &b, "AxBy");
        let j = join_local(&a, &b, &out, &inst);
        assert_eq!(j.len(), 2);
    }
}
