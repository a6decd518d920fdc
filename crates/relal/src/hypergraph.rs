//! Query hypergraphs, acyclicity, join trees and tree decompositions.
//!
//! Section 3.2 of the survey builds on Yannakakis' algorithm for *acyclic*
//! conjunctive queries and on GYM, which takes a *tree decomposition* of a
//! possibly cyclic query as input. This module provides:
//!
//! * the query hypergraph (one hyperedge of variables per body atom),
//! * the GYO (Graham–Yu–Özsoyoğlu) reduction deciding α-acyclicity and
//!   producing a **join tree** as a witness,
//! * a greedy (min-fill style) **tree decomposition** for cyclic queries,
//!   with its width, and
//! * variable connectivity helpers shared with the Datalog analyses.

use crate::atom::Var;
use crate::query::ConjunctiveQuery;
use std::collections::{BTreeMap, BTreeSet};

/// The hypergraph of a query: vertex set = variables, one edge per atom.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// All vertices (query variables), sorted.
    pub vertices: Vec<Var>,
    /// One edge (set of variables) per body atom, in body order.
    pub edges: Vec<BTreeSet<Var>>,
}

impl Hypergraph {
    /// Build the hypergraph of the positive body of `q`.
    pub fn of_query(q: &ConjunctiveQuery) -> Hypergraph {
        let edges: Vec<BTreeSet<Var>> = q
            .body
            .iter()
            .map(|a| a.variables().into_iter().collect())
            .collect();
        let mut vertices: Vec<Var> = edges.iter().flatten().cloned().collect();
        vertices.sort();
        vertices.dedup();
        Hypergraph { vertices, edges }
    }

    /// Is the hypergraph connected (every pair of vertices linked through
    /// shared edges)? The empty hypergraph and single-edge hypergraphs are
    /// connected. Used by the semi-connectedness analysis of Section 5.3.
    pub fn is_connected(&self) -> bool {
        if self.vertices.is_empty() || self.edges.len() <= 1 {
            return true;
        }
        // BFS over edges: two edges are adjacent if they share a vertex.
        let mut visited = vec![false; self.edges.len()];
        let mut queue = vec![0usize];
        visited[0] = true;
        while let Some(i) = queue.pop() {
            for (j, edge) in self.edges.iter().enumerate() {
                if !visited[j] && !self.edges[i].is_disjoint(edge) {
                    visited[j] = true;
                    queue.push(j);
                }
            }
        }
        // Edges with no variables (nullary atoms) are isolated; they only
        // count as disconnecting if there is more than one non-empty part.
        let mut unvisited_nonempty = false;
        for (j, v) in visited.iter().enumerate() {
            if !v && !self.edges[j].is_empty() {
                unvisited_nonempty = true;
            }
        }
        !unvisited_nonempty
    }
}

/// A join tree: nodes are body-atom indices; `parent[i]` is the parent of
/// atom `i` (the root has `parent[root] = root`). The join-tree property
/// holds: for every variable, the atoms containing it form a connected
/// subtree.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// Parent pointers over atom indices.
    pub parent: Vec<usize>,
    /// Index of the root atom.
    pub root: usize,
}

impl JoinTree {
    /// Children of node `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.parent.len())
            .filter(|&j| j != self.root && self.parent[j] == i && j != i)
            .collect()
    }

    /// Nodes in a bottom-up (children before parents) order.
    pub fn bottom_up(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            order.push(i);
            stack.extend(self.children(i));
        }
        order.reverse();
        order
    }
}

/// GYO reduction: repeatedly remove *ears*. An edge `e` is an ear if there
/// is another edge `w` (its witness) such that every vertex of `e` is
/// either exclusive to `e` or contained in `w`. The query is α-acyclic iff
/// the reduction empties the edge set; the witness pointers then form a
/// join tree.
///
/// Returns `Some(JoinTree)` for acyclic queries, `None` otherwise.
pub fn gyo_join_tree(q: &ConjunctiveQuery) -> Option<JoinTree> {
    let hg = Hypergraph::of_query(q);
    let n = hg.edges.len();
    if n == 0 {
        return None;
    }
    let mut alive: Vec<bool> = vec![true; n];
    let mut parent: Vec<usize> = (0..n).collect();
    let mut removed = 0;

    while removed < n - 1 {
        // Count, over alive edges, how many contain each vertex.
        let mut count: BTreeMap<&Var, usize> = BTreeMap::new();
        for (i, e) in hg.edges.iter().enumerate() {
            if alive[i] {
                for v in e {
                    *count.entry(v).or_insert(0) += 1;
                }
            }
        }
        let mut progress = false;
        'ears: for i in 0..n {
            if !alive[i] {
                continue;
            }
            // Vertices of edge i shared with other alive edges.
            let shared: BTreeSet<&Var> = hg.edges[i]
                .iter()
                .filter(|v| count.get(v).copied().unwrap_or(0) > 1)
                .collect();
            for j in 0..n {
                if i == j || !alive[j] {
                    continue;
                }
                if shared.iter().all(|v| hg.edges[j].contains(*v)) {
                    alive[i] = false;
                    parent[i] = j;
                    removed += 1;
                    progress = true;
                    continue 'ears;
                }
            }
            // An edge whose shared set is empty is an ear with any witness;
            // handled above when some j exists (shared ⊆ everything).
        }
        if !progress {
            return None; // cyclic
        }
    }

    let root = (0..n).find(|&i| alive[i]).expect("one edge must remain");
    parent[root] = root;
    // Path-compress parents onto alive chain: parents may point to edges
    // removed later; that is fine — ear removal order guarantees the
    // pointer graph is a tree rooted at `root`.
    Some(JoinTree { parent, root })
}

/// Is the query α-acyclic?
pub fn is_acyclic(q: &ConjunctiveQuery) -> bool {
    gyo_join_tree(q).is_some()
}

/// A tree decomposition of the query hypergraph: a tree of *bags* of
/// variables such that (1) every atom's variables fit in some bag, and
/// (2) every variable's bags form a connected subtree.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// The bags.
    pub bags: Vec<BTreeSet<Var>>,
    /// Parent pointer per bag (root points to itself).
    pub parent: Vec<usize>,
    /// Root index.
    pub root: usize,
    /// For each body atom, the bag it is assigned to.
    pub atom_bag: Vec<usize>,
}

impl TreeDecomposition {
    /// The width of the decomposition (max bag size − 1; 0 for the one
    /// empty bag of a variable-free query).
    pub fn width(&self) -> usize {
        self.bags.iter().map(|b| b.len().max(1)).max().unwrap_or(1) - 1
    }

    /// Depth of the bag tree (root = depth 0). Loops forever on a parent
    /// cycle: call it on a decomposition [`TreeDecomposition::validate`]
    /// accepts.
    pub fn depth(&self) -> usize {
        let mut max = 0;
        for i in 0..self.bags.len() {
            let mut d = 0;
            let mut j = i;
            while self.parent[j] != j {
                j = self.parent[j];
                d += 1;
            }
            max = max.max(d);
        }
        max
    }

    /// Validate the decomposition properties; used by tests and by GYM
    /// before trusting a user-supplied decomposition. `parent` must form
    /// one tree: every index in range, the root its own parent and the
    /// only such bag, and every bag's parent walk reaching the root
    /// within `bags.len()` steps (so there is no cycle).
    pub fn validate(&self, q: &ConjunctiveQuery) -> Result<(), String> {
        let n = self.bags.len();
        if self.parent.len() != n {
            return Err("bags/parent length mismatch".into());
        }
        if self.atom_bag.len() != q.body.len() {
            return Err("atom_bag must cover every body atom".into());
        }
        let out_of_range = |what: &str, i: usize| format!("{what} {i} is not one of the {n} bags");
        if self.root >= n {
            return Err(out_of_range("root", self.root));
        }
        if let Some(&p) = self.parent.iter().find(|&&p| p >= n) {
            return Err(out_of_range("parent", p));
        }
        if let Some(&b) = self.atom_bag.iter().find(|&&b| b >= n) {
            return Err(out_of_range("atom bag", b));
        }
        if self.parent[self.root] != self.root {
            return Err(format!("the root {} has a parent", self.root));
        }
        if let Some(i) = (0..n).find(|&i| self.parent[i] == i && i != self.root) {
            return Err(format!("bag {i} is its own parent but not the root"));
        }
        for i in 0..n {
            let mut j = i;
            for _ in 0..n {
                j = self.parent[j];
            }
            if j != self.root {
                return Err(format!(
                    "bag {i}'s parent walk does not reach the root: a cycle"
                ));
            }
        }
        for (ai, &b) in self.atom_bag.iter().enumerate() {
            let vars: BTreeSet<Var> = q.body[ai].variables().into_iter().collect();
            if !vars.is_subset(&self.bags[b]) {
                return Err(format!("atom {ai} does not fit in its bag {b}"));
            }
        }
        // Connectedness of each variable's bag set.
        let all_vars: BTreeSet<Var> = self.bags.iter().flatten().cloned().collect();
        for v in &all_vars {
            let holding: Vec<usize> = (0..self.bags.len())
                .filter(|&i| self.bags[i].contains(v))
                .collect();
            // BFS within holding set via parent/child adjacency.
            let mut seen = BTreeSet::new();
            let mut stack = vec![holding[0]];
            seen.insert(holding[0]);
            while let Some(i) = stack.pop() {
                let mut adj = vec![self.parent[i]];
                adj.extend((0..self.bags.len()).filter(|&j| self.parent[j] == i && j != i));
                for j in adj {
                    if holding.contains(&j) && seen.insert(j) {
                        stack.push(j);
                    }
                }
            }
            if seen.len() != holding.len() {
                return Err(format!("bags of variable {v} are not connected"));
            }
        }
        Ok(())
    }
}

/// Build a *reduced* tree decomposition greedily by vertex elimination
/// with the min-fill heuristic. For acyclic queries this yields width
/// equal to the maximum atom arity − 1; for cyclic queries it is a (not
/// necessarily optimal) upper bound — exactly what GYM needs as input.
///
/// Reduced means no bag is a subset of its parent or of a child: such a
/// bag is merged into that neighbour, which never raises the width. GYM
/// pays for every bag — a HyperCube block, a bag query that may borrow
/// an atom, and a semijoin-up, a semijoin-down and a join batch on the
/// bag tree — so a redundant bag only costs rounds and load. For an
/// α-acyclic query the bags are then exactly the maximal atom variable
/// sets (the 4-path keeps three bags, the triangle one).
pub fn tree_decomposition(q: &ConjunctiveQuery) -> TreeDecomposition {
    let hg = Hypergraph::of_query(q);
    // Build the primal graph.
    let vars = hg.vertices.clone();
    let mut adj: BTreeMap<Var, BTreeSet<Var>> =
        vars.iter().map(|v| (v.clone(), BTreeSet::new())).collect();
    for e in &hg.edges {
        for a in e {
            for b in e {
                if a != b {
                    adj.get_mut(a).unwrap().insert(b.clone());
                }
            }
        }
    }

    // Eliminate vertices, min-fill first; record the bag formed at each
    // elimination (vertex + its current neighbourhood).
    let mut elim_bags: Vec<BTreeSet<Var>> = Vec::new();
    let mut elim_vertex: Vec<Var> = Vec::new();
    let mut remaining: BTreeSet<Var> = vars.iter().cloned().collect();
    let mut work = adj.clone();
    while let Some(v) = remaining
        .iter()
        .min_by_key(|v| {
            // Fill-in count: non-adjacent neighbour pairs.
            let nb: Vec<&Var> = work[v].iter().filter(|n| remaining.contains(*n)).collect();
            let mut fill = 0usize;
            for i in 0..nb.len() {
                for j in i + 1..nb.len() {
                    if !work[nb[i]].contains(nb[j]) {
                        fill += 1;
                    }
                }
            }
            (fill, nb.len())
        })
        .cloned()
    {
        let nb: BTreeSet<Var> = work[&v]
            .iter()
            .filter(|n| remaining.contains(*n))
            .cloned()
            .collect();
        let mut bag = nb.clone();
        bag.insert(v.clone());
        elim_bags.push(bag);
        elim_vertex.push(v.clone());
        // Connect neighbours (fill edges).
        for a in &nb {
            for b in &nb {
                if a != b {
                    work.get_mut(a).unwrap().insert(b.clone());
                }
            }
        }
        remaining.remove(&v);
    }

    if elim_bags.is_empty() {
        // Variable-free query (all atoms nullary): single empty bag.
        let atom_bag = vec![0; q.body.len()];
        return TreeDecomposition {
            bags: vec![BTreeSet::new()],
            parent: vec![0],
            root: 0,
            atom_bag,
        };
    }

    // Standard construction: bag i's parent is the first later bag
    // containing all of bag i minus its eliminated vertex.
    let n = elim_bags.len();
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        let mut rest = elim_bags[i].clone();
        rest.remove(&elim_vertex[i]);
        if rest.is_empty() {
            continue; // stays a root candidate; link to last bag below
        }
        if let Some(j) = (i + 1..n).find(|&j| rest.is_subset(&elim_bags[j])) {
            parent[i] = j;
        }
    }
    // Make the structure a single tree rooted at the last bag: a bag that
    // remained its own parent links to it.
    let mut root = n - 1;
    for (i, p) in parent.iter_mut().enumerate().take(n - 1) {
        if *p == i {
            *p = root;
        }
    }

    // Assign each atom to the earliest elimination bag containing it.
    let mut atom_bag = Vec::with_capacity(q.body.len());
    for a in &q.body {
        let vs: BTreeSet<Var> = a.variables().into_iter().collect();
        let b = (0..n)
            .find(|&i| vs.is_subset(&elim_bags[i]))
            .expect("every atom is covered by some elimination bag");
        atom_bag.push(b);
    }

    // Reduce: while some bag is a subset of its parent or of a child, merge
    // it into that neighbour, which takes over its other neighbours and, if
    // it was the root, the root. That neighbour is an earlier bag (a later
    // one lacks the vertex eliminated at this one), and each atom sits on
    // the earliest bag holding it, so no atom sits on a merged bag.
    let mut alive = vec![true; n];
    while let Some((i, j)) = (0..n).filter(|&i| alive[i]).find_map(|i| {
        // Its parent first, then its children.
        std::iter::once(parent[i])
            .chain(0..n)
            .filter(|&j| j != i && alive[j] && (parent[i] == j || parent[j] == i))
            .find(|&j| elim_bags[i].is_subset(&elim_bags[j]))
            .map(|j| (i, j))
    }) {
        debug_assert!(j < i && !atom_bag.contains(&i));
        alive[i] = false;
        let up = if i == root { j } else { parent[i] };
        for p in parent.iter_mut() {
            if *p == i {
                *p = j;
            }
        }
        if parent[j] == j {
            parent[j] = up; // j was i's child: it takes i's place
        }
        if root == i {
            root = j;
        }
    }

    // Renumber the surviving bags, keeping elimination order.
    let kept: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
    let index = |b: usize| kept.binary_search(&b).expect("a surviving bag");
    TreeDecomposition {
        bags: kept.iter().map(|&i| elim_bags[i].clone()).collect(),
        parent: kept.iter().map(|&i| index(parent[i])).collect(),
        root: index(root),
        atom_bag: atom_bag.iter().map(|&b| index(b)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn path_query_is_acyclic() {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        assert!(is_acyclic(&q));
        let jt = gyo_join_tree(&q).unwrap();
        assert_eq!(jt.parent.len(), 3);
        assert_eq!(jt.bottom_up().len(), 3);
    }

    #[test]
    fn triangle_is_cyclic() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        assert!(!is_acyclic(&q));
    }

    #[test]
    fn star_query_is_acyclic() {
        let q = parse_query("H(x) <- R(x,a), S(x,b), T(x,c)").unwrap();
        assert!(is_acyclic(&q));
    }

    #[test]
    fn four_cycle_is_cyclic_but_chorded_is_acyclic() {
        let c4 = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)").unwrap();
        assert!(!is_acyclic(&c4));
        let chorded =
            parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x), D(x,y,z), E(x,z,w)")
                .unwrap();
        assert!(is_acyclic(&chorded));
    }

    #[test]
    fn join_tree_orders_are_consistent() {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w), U(w,v)").unwrap();
        let jt = gyo_join_tree(&q).unwrap();
        let bu = jt.bottom_up();
        // Children come before parents.
        for (pos, &i) in bu.iter().enumerate() {
            if i != jt.root {
                let ppos = bu.iter().position(|&j| j == jt.parent[i]).unwrap();
                assert!(ppos > pos, "parent of {i} must come later bottom-up");
            }
        }
    }

    #[test]
    fn connectivity() {
        let conn = parse_query("H() <- R(x,y), S(y,z)").unwrap();
        assert!(Hypergraph::of_query(&conn).is_connected());
        let disc = parse_query("H() <- R(x,y), S(z,w)").unwrap();
        assert!(!Hypergraph::of_query(&disc).is_connected());
        let single = parse_query("H() <- R(x,y)").unwrap();
        assert!(Hypergraph::of_query(&single).is_connected());
    }

    #[test]
    fn decomposition_of_triangle_has_width_2() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let td = tree_decomposition(&q);
        td.validate(&q).unwrap();
        assert_eq!(td.width(), 2);
        // Reduced: the min-fill bags {y,z} and {z} merge into {x,y,z}.
        assert_eq!(td.bags.len(), 1);
        assert_eq!(td.atom_bag, vec![0; 3]);
    }

    #[test]
    fn decomposition_of_path_has_width_1() {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        let td = tree_decomposition(&q);
        td.validate(&q).unwrap();
        assert_eq!(td.width(), 1);
        // Reduced: each atom has its own variable set as its bag, and the
        // elimination bag {z} is gone.
        let atoms = Hypergraph::of_query(&q).edges;
        assert_eq!(td.bags.len(), atoms.len());
        for (atom, &b) in atoms.iter().zip(&td.atom_bag) {
            assert_eq!(&td.bags[b], atom);
        }
    }

    #[test]
    fn decomposition_of_four_cycle_has_width_2() {
        let q = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)").unwrap();
        let td = tree_decomposition(&q);
        td.validate(&q).unwrap();
        assert_eq!(td.width(), 2);
    }

    /// The 3-path's decomposition into one bag per atom, `{x,y}`,
    /// `{y,z}`, `{z,w}`, under the given parent pointers and root.
    fn path(parent: Vec<usize>, root: usize) -> (TreeDecomposition, ConjunctiveQuery) {
        let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
        let bags = (q.body.iter())
            .map(|a| a.variables().into_iter().collect())
            .collect();
        let td = TreeDecomposition {
            bags,
            parent,
            root,
            atom_bag: vec![0, 1, 2],
        };
        (td, q)
    }

    fn reshaped(parent: Vec<usize>, root: usize) -> Result<(), String> {
        let (td, q) = path(parent, root);
        td.validate(&q)
    }

    #[test]
    fn validate_accepts_a_reshaped_tree() {
        assert_eq!(reshaped(vec![0, 0, 1], 0), Ok(()));
        assert_eq!(reshaped(vec![1, 1, 1], 1), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_indices() {
        assert!(reshaped(vec![0, 0, 1], 3).unwrap_err().contains("root 3"));
        assert!(reshaped(vec![0, 7, 1], 0).unwrap_err().contains("parent 7"));
        let (mut td, q) = path(vec![0, 0, 1], 0);
        td.atom_bag[1] = 9;
        assert!(td.validate(&q).unwrap_err().contains("atom bag 9"));
    }

    #[test]
    fn validate_rejects_a_second_self_parented_bag() {
        let err = reshaped(vec![0, 1, 1], 0).unwrap_err();
        assert!(err.contains("bag 1 is its own parent"), "{err}");
    }

    #[test]
    fn validate_rejects_a_parent_cycle() {
        // Bags 1 and 2 point at each other: `depth()` would loop forever.
        let err = reshaped(vec![0, 2, 1], 0).unwrap_err();
        assert!(err.contains("a cycle"), "{err}");
    }

    #[test]
    fn validate_rejects_a_root_with_a_parent() {
        // Every walk passes the root, but the root's own walk leaves it.
        let err = reshaped(vec![1, 0, 1], 0).unwrap_err();
        assert!(err.contains("the root 0 has a parent"), "{err}");
    }

    #[test]
    fn decomposition_validates_on_larger_cyclic_query() {
        // 5-cycle.
        let q = parse_query("H(a,b,c,d,e) <- R(a,b), S(b,c), T(c,d), U(d,e), V(e,a)").unwrap();
        let td = tree_decomposition(&q);
        td.validate(&q).unwrap();
        assert!(td.width() >= 2);
        assert!(td.depth() >= 1);
    }
}
