//! Evaluation of conjunctive queries and their unions on instances.
//!
//! The semantics is the valuation semantics of Section 2: the result of
//! `Q` on `I` is the set of facts derived by satisfying valuations. Three
//! local engines compute it, chosen by an [`EvalStrategy`]:
//!
//! * the LeapFrog TrieJoin of [`crate::trie`], worst-case optimal;
//! * a backtracking join over the positive atoms with per-(relation,
//!   position) row chains ([`Indexed`]), checking negated atoms and
//!   inequalities as soon as their variables are bound;
//! * the naive enumeration of every valuation over the active domain,
//!   the reference the other two are tested against.
//!
//! Every evaluation goes through one [`QueryPlan`]: compiled once from the
//! disjuncts and the strategy, it resolves `Auto` per disjunct and holds
//! each trie disjunct's compiled [`LeapfrogPlan`]. Nothing in it depends
//! on the data, so a caller that evaluates one query on many instances —
//! a serving session across snapshot generations, an MPC computation
//! phase across servers — compiles it once. [`eval_query_with`]
//! and [`eval_union_with`] are one-shot plans.

use crate::atom::{Atom, Term};
use crate::fact::{Args, Fact, Val};
use crate::fastmap::{fxmap, FxMap};
use crate::hypergraph::is_acyclic;
use crate::instance::Instance;
use crate::query::{ConjunctiveQuery, QueryError, UnionQuery};
use crate::shard::Relations;
use crate::symbols::RelId;
use crate::trie::{wcoj_variable_order, LeapfrogPlan, Slot};
use crate::valuation::Valuation;
use std::collections::hash_map::Entry;

/// Which local join algorithm evaluates a conjunctive query.
///
/// All strategies compute the same output set — the valuation semantics
/// of Section 2 — and the differential property tests enforce it. They
/// differ only in asymptotics:
///
/// * [`EvalStrategy::Naive`] — enumerate every total valuation over the
///   active domain (`O(|adom|^{vars})`). Reference implementation.
/// * [`EvalStrategy::Indexed`] — backtracking binary-style join with
///   per-(relation, position) hash indices. `Ω(m²)` on cyclic queries'
///   hard instances.
/// * [`EvalStrategy::Wcoj`] — LeapFrog TrieJoin over sorted columnar
///   tries ([`crate::trie`]): worst-case optimal, `Õ(m^{ρ*})` with `ρ*`
///   the fractional edge cover (the AGM bound).
/// * [`EvalStrategy::Auto`] — [`EvalStrategy::Wcoj`] for cyclic queries,
///   [`EvalStrategy::Indexed`] for acyclic ones (where binary joins are
///   already near-optimal and skip the trie build).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize)]
pub enum EvalStrategy {
    /// Exhaustive valuation enumeration (tests/reference only).
    Naive,
    /// Hash-indexed backtracking join.
    Indexed,
    /// Worst-case-optimal LeapFrog TrieJoin.
    Wcoj,
    /// `Wcoj` when the query hypergraph is cyclic, else `Indexed`.
    #[default]
    Auto,
}

impl EvalStrategy {
    /// Resolve `Auto` against a concrete query.
    pub fn resolve(self, q: &ConjunctiveQuery) -> EvalStrategy {
        match self {
            EvalStrategy::Auto => {
                if is_acyclic(q) {
                    EvalStrategy::Indexed
                } else {
                    EvalStrategy::Wcoj
                }
            }
            s => s,
        }
    }
}

/// Per-relation row store with positional value indices, built whole
/// for one evaluation.
///
/// A covered relation is one arity-strided `Vec<Val>` (row `i` is
/// `vals[i·arity..][..arity]`), and the rows holding one value at one
/// position are a **chain** threaded through a second array strided the
/// same way — no vector per `(position, value)`.
///
/// An [`Instance`] is schema-less, so a relation may hold facts of several
/// arities; like the tries, the index keeps one block per arity and an atom
/// only ever sees the rows of its own arity.
pub struct Indexed {
    rels: FxMap<RelId, Vec<Block>>,
}

/// The rows of one relation at one arity.
struct Block {
    arity: usize,
    len: usize,
    vals: Vec<Val>,
    /// `next[i·arity + pos]` = the next row after `i` with row `i`'s value
    /// at `pos` (unspecified for the last row of a chain — [`Chain::len`]
    /// ends the walk). Rows are appended at the tail, so a chain runs in
    /// ascending row id.
    next: Vec<u32>,
    /// Per position, `value → chain` of the rows holding it there.
    chains: Vec<FxMap<Val, Chain>>,
}

/// The rows holding one value at one position, linked through
/// [`Block::next`].
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Indexed {
    /// Index the given relations of `instance`. Duplicate entries in
    /// `rels` (self-joins list a relation once per atom) are indexed once;
    /// a relation with no facts is covered and empty.
    pub fn build<S: Relations + ?Sized>(instance: &S, rels: &[RelId]) -> Indexed {
        let mut index = Indexed { rels: fxmap() };
        for &r in rels {
            if !index.covers(r) {
                index.rels.insert(r, Vec::new());
                instance.for_each_fact(r, |f| index.push(f));
            }
        }
        index
    }

    /// Is `rel` covered by this index? Evaluating a query whose body
    /// mentions an uncovered relation would silently treat it as empty.
    pub fn covers(&self, rel: RelId) -> bool {
        self.rels.contains_key(&rel)
    }

    /// Number of rows of `rel` (0 if uncovered).
    pub fn len(&self, rel: RelId) -> usize {
        self.rels
            .get(&rel)
            .map_or(0, |blocks| blocks.iter().map(|b| b.len).sum())
    }

    /// Append one row of a covered relation; the instance keeps set
    /// semantics.
    fn push(&mut self, f: &Fact) {
        let blocks = self.rels.get_mut(&f.rel).expect("a covered relation");
        let arity = f.args.len();
        let k = blocks
            .iter()
            .position(|b| b.arity == arity)
            .unwrap_or_else(|| {
                blocks.push(Block {
                    arity,
                    len: 0,
                    vals: Vec::new(),
                    next: Vec::new(),
                    chains: (0..arity).map(|_| fxmap()).collect(),
                });
                blocks.len() - 1
            });
        let block = &mut blocks[k];
        let id = u32::try_from(block.len).expect("fewer than 2^32 rows per relation");
        block.vals.extend_from_slice(&f.args);
        block.next.resize(block.vals.len(), id);
        block.len += 1;
        for (pos, &v) in f.args.iter().enumerate() {
            match block.chains[pos].entry(v) {
                Entry::Occupied(mut chain) => {
                    let chain = chain.get_mut();
                    block.next[chain.tail as usize * arity + pos] = id;
                    chain.tail = id;
                    chain.len += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(Chain {
                        head: id,
                        tail: id,
                        len: 1,
                    });
                }
            }
        }
    }

    /// Candidate rows for `atom` under the partial valuation `val`:
    /// if some position is bound, use the positional index, else scan all.
    /// A bound value with *no* index entry proves there is no matching
    /// row, so the candidate set is empty — never a full relation scan.
    ///
    /// Allocation-free: the returned [`Candidates`] iterator walks the
    /// chain (or the row block) in place, in ascending row id. The
    /// evaluator calls this once per atom × valuation extension, so a
    /// fresh `Vec` here used to dominate the join's allocation profile.
    pub fn candidate_iter<'s>(&'s self, atom: &Atom, val: &Valuation) -> Candidates<'s> {
        let arity = atom.terms.len();
        let block = self
            .rels
            .get(&atom.rel)
            .and_then(|blocks| blocks.iter().find(|b| b.arity == arity));
        let Some(block) = block else {
            return Candidates::EMPTY;
        };
        // Find the most selective bound position (the first on ties).
        let mut best: Option<(usize, Chain)> = None;
        for (pos, t) in atom.terms.iter().enumerate() {
            if let Some(v) = val.apply_term(t) {
                match block.chains[pos].get(&v) {
                    Some(chain) => {
                        if best.is_none_or(|(_, b)| chain.len < b.len) {
                            best = Some((pos, *chain));
                        }
                    }
                    None => return Candidates::EMPTY, // bound value absent entirely
                }
            }
        }
        Candidates {
            vals: &block.vals,
            arity,
            ids: match best {
                Some((pos, chain)) => RowIds::Chained {
                    next: &block.next[pos..],
                    at: chain.head,
                    left: chain.len,
                },
                None => RowIds::All(0..block.len),
            },
        }
    }
}

/// Iterator over the candidate rows of one atom under a partial
/// valuation (see [`Indexed::candidate_iter`]).
pub struct Candidates<'s> {
    vals: &'s [Val],
    arity: usize,
    ids: RowIds<'s>,
}

enum RowIds<'s> {
    /// Walk one chain: `left` rows starting at `at`, each followed by
    /// `next[row · arity]` (`next` starts at the chain's position).
    Chained { next: &'s [u32], at: u32, left: u32 },
    /// No position bound: scan the whole block.
    All(std::ops::Range<usize>),
}

impl Candidates<'_> {
    /// Provably no matching row.
    const EMPTY: Self = Candidates {
        vals: &[],
        arity: 0,
        ids: RowIds::All(0..0),
    };
}

impl<'s> Iterator for Candidates<'s> {
    type Item = &'s [Val];

    fn next(&mut self) -> Option<&'s [Val]> {
        let i = match &mut self.ids {
            RowIds::Chained { next, at, left } => {
                *left = left.checked_sub(1)?;
                let i = *at as usize;
                *at = next[i * self.arity];
                i
            }
            RowIds::All(range) => range.next()?,
        };
        Some(&self.vals[i * self.arity..][..self.arity])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.ids {
            RowIds::Chained { left, .. } => (*left as usize, Some(*left as usize)),
            RowIds::All(range) => range.size_hint(),
        }
    }
}

/// Try to extend `val` so that `atom` maps onto `row`; returns the list
/// of variables newly bound (for backtracking), or `None` on mismatch.
fn unify(atom: &Atom, row: &[Val], val: &mut Valuation) -> Option<Vec<crate::atom::Var>> {
    if row.len() != atom.terms.len() {
        return None;
    }
    let mut newly = Vec::new();
    for (t, &a) in atom.terms.iter().zip(row) {
        match t {
            Term::Const(c) => {
                if *c != a {
                    undo(val, newly);
                    return None;
                }
            }
            Term::Var(v) => match val.get(v) {
                Some(prev) => {
                    if prev != a {
                        undo(val, newly);
                        return None;
                    }
                }
                None => {
                    val.bind(v.clone(), a);
                    newly.push(v.clone());
                }
            },
        }
    }
    Some(newly)
}

fn undo(val: &mut Valuation, newly: Vec<crate::atom::Var>) {
    for v in newly {
        val.unbind(&v);
    }
}

/// Check every inequality of `q` whose endpoints are both bound.
pub(crate) fn inequalities_ok_so_far(q: &ConjunctiveQuery, val: &Valuation) -> bool {
    q.inequalities.iter().all(|(s, t)| {
        match (val.apply_term(s), val.apply_term(t)) {
            (Some(a), Some(b)) => a != b,
            _ => true, // not yet decidable
        }
    })
}

/// Order body atoms greedily: start from the atom over the smallest
/// relation, then repeatedly pick the atom sharing the most variables with
/// those already placed (ties: smaller relation first). This keeps the
/// backtracking search close to a left-deep join over connected atoms.
/// Sizes are read from the index the search walks.
fn atom_order(q: &ConjunctiveQuery, index: &Indexed) -> Vec<usize> {
    let n = q.body.len();
    let mut placed: Vec<usize> = Vec::with_capacity(n);
    let mut bound_vars: Vec<crate::atom::Var> = Vec::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    while !remaining.is_empty() {
        let (k, &idx) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                let a = &q.body[i];
                let shared = a
                    .variables()
                    .iter()
                    .filter(|v| bound_vars.contains(v))
                    .count();
                let size = index.len(a.rel);
                // Maximize shared vars (negate), then minimize size.
                (usize::MAX - shared, size)
            })
            .unwrap();
        placed.push(idx);
        for v in q.body[idx].variables() {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        remaining.remove(k);
    }
    placed
}

/// Enumerate all satisfying valuations of `q` on `instance`.
///
/// For plain CQs these are exactly the valuations whose required facts are
/// contained in the instance; for `CQ¬`/`CQ≠` the negated atoms and
/// inequalities are enforced as well.
pub fn satisfying_valuations(q: &ConjunctiveQuery, instance: &Instance) -> Vec<Valuation> {
    let index = Indexed::build(instance, &q.body_relations());
    satisfying_valuations_indexed(q, instance, &index)
}

/// [`satisfying_valuations`] against a prebuilt [`Indexed`] — the reusable
/// path for callers evaluating many queries over one instance snapshot.
/// Positive atoms read only `index`, which must cover every body
/// relation; negated atoms are decided against `instance`.
pub fn satisfying_valuations_indexed<S: Relations + ?Sized>(
    q: &ConjunctiveQuery,
    instance: &S,
    index: &Indexed,
) -> Vec<Valuation> {
    debug_assert!(
        q.body.iter().all(|a| index.covers(a.rel)),
        "index must cover every body relation of the query"
    );
    let order = atom_order(q, index);
    let mut out = Vec::new();
    let mut val = Valuation::new();

    fn recurse<S: Relations + ?Sized>(
        q: &ConjunctiveQuery,
        order: &[usize],
        depth: usize,
        index: &Indexed,
        instance: &S,
        val: &mut Valuation,
        out: &mut Vec<Valuation>,
    ) {
        if depth == order.len() {
            // All positive atoms matched; check negation (inequalities have
            // been checked incrementally and are all bound by safety).
            for a in &q.negated {
                match val.apply(a) {
                    Some(f) if !instance.contains(&f) => {}
                    _ => return,
                }
            }
            out.push(val.clone());
            return;
        }
        let atom = &q.body[order[depth]];
        for row in index.candidate_iter(atom, val) {
            crate::opcount::bump();
            if let Some(newly) = unify(atom, row, val) {
                if inequalities_ok_so_far(q, val) {
                    recurse(q, order, depth + 1, index, instance, val, out);
                }
                undo(val, newly);
            }
        }
    }

    recurse(q, &order, 0, index, instance, &mut val, &mut out);
    out
}

/// The local evaluation of a union of conjunctive queries, compiled once
/// and run on any number of instances.
///
/// Compiling checks every disjunct's safety and resolves `Auto` once per
/// disjunct. A trie disjunct keeps its compiled [`LeapfrogPlan`] and its
/// head as slots of the order; the backtracker disjuncts share one index
/// over their body relations, built per run. No linear program runs
/// here: one-shot callers compile a plan per call.
#[derive(Debug)]
pub struct QueryPlan {
    disjuncts: Vec<(ConjunctiveQuery, Engine)>,
    index_rels: Vec<RelId>,
}

#[derive(Debug)]
enum Engine {
    Naive,
    Indexed,
    Wcoj { plan: LeapfrogPlan, head: Vec<Slot> },
}

impl QueryPlan {
    /// Compile `disjuncts` under `strategy`.
    pub fn new(
        disjuncts: &[ConjunctiveQuery],
        strategy: EvalStrategy,
    ) -> Result<QueryPlan, QueryError> {
        let mut index_rels = Vec::new();
        let mut compiled = Vec::with_capacity(disjuncts.len());
        for q in disjuncts {
            q.validate()?;
            let engine = match strategy.resolve(q) {
                EvalStrategy::Naive => Engine::Naive,
                EvalStrategy::Indexed => {
                    index_rels.extend(q.body.iter().map(|a| a.rel));
                    Engine::Indexed
                }
                EvalStrategy::Wcoj => {
                    let order = wcoj_variable_order(q, &[]);
                    Engine::Wcoj {
                        plan: LeapfrogPlan::new(q, &order, 0),
                        head: q.head.terms.iter().map(|t| Slot::of(t, &order)).collect(),
                    }
                }
                EvalStrategy::Auto => unreachable!("resolve() eliminates Auto"),
            };
            compiled.push((q.clone(), engine));
        }
        Ok(QueryPlan {
            disjuncts: compiled,
            index_rels,
        })
    }

    /// The strategy each disjunct resolved to, in order (never `Auto`).
    pub fn resolved(&self) -> impl Iterator<Item = EvalStrategy> + '_ {
        self.disjuncts.iter().map(|(_, engine)| match engine {
            Engine::Naive => EvalStrategy::Naive,
            Engine::Indexed => EvalStrategy::Indexed,
            Engine::Wcoj { .. } => EvalStrategy::Wcoj,
        })
    }

    /// Every trie disjunct's atoms with the column order it reads them
    /// in — the orders a [`crate::shard::Shard`] prepares for this plan.
    pub fn trie_orders(&self) -> impl Iterator<Item = (RelId, &[usize])> {
        self.disjuncts
            .iter()
            .flat_map(|(_, engine)| match engine {
                Engine::Wcoj { plan, .. } => Some(plan.orders()),
                _ => None,
            })
            .flatten()
    }

    /// Hand `sink` the head fact of every satisfying valuation of every
    /// disjunct on `instance`, in enumeration order (duplicates are the
    /// caller's to merge). Backtracker disjuncts read one index, built
    /// for this run over their body relations. The sink is `dyn` so that
    /// the engines are compiled once, not once per caller's closure.
    pub fn run<S: Relations + ?Sized>(&self, instance: &S, sink: &mut dyn FnMut(Fact)) {
        let index =
            (!self.index_rels.is_empty()).then(|| Indexed::build(instance, &self.index_rels));
        for (q, engine) in &self.disjuncts {
            match engine {
                Engine::Naive => eval_query_naive(q, &instance.as_instance())
                    .iter()
                    .for_each(|f| sink(f.clone())),
                Engine::Indexed => {
                    let index = index.as_ref().expect("built whenever a disjunct reads one");
                    for v in satisfying_valuations_indexed(q, instance, index) {
                        sink(v.derived_fact(q));
                    }
                }
                Engine::Wcoj { plan, head } => plan.run(&[instance], &[], &mut |vals| {
                    sink(Fact::new(
                        q.head.rel,
                        head.iter().map(|s| s.value(vals)).collect::<Args>(),
                    ))
                }),
            }
        }
    }

    /// [`QueryPlan::run`] collected into the answer instance.
    pub fn eval(&self, instance: &Instance) -> Instance {
        let mut heads = Vec::new();
        self.run(instance, &mut |f| heads.push(f));
        Instance::from_facts(heads)
    }
}

/// Evaluate `q` on `instance` with the backtracker: `Q(I)` in the survey.
pub fn eval_query(q: &ConjunctiveQuery, instance: &Instance) -> Instance {
    eval_query_with(q, instance, EvalStrategy::Indexed)
}

/// Evaluate a safe `q` with an explicit [`EvalStrategy`] (a one-shot
/// [`QueryPlan`]); every strategy returns the same instance.
pub fn eval_query_with(
    q: &ConjunctiveQuery,
    instance: &Instance,
    strategy: EvalStrategy,
) -> Instance {
    QueryPlan::new(std::slice::from_ref(q), strategy)
        .expect("a safe query")
        .eval(instance)
}

/// Evaluate a union of conjunctive queries with the backtracker: the
/// union of the disjuncts' results.
pub fn eval_union(u: &UnionQuery, instance: &Instance) -> Instance {
    eval_union_with(u, instance, EvalStrategy::Indexed)
}

/// [`eval_union`] of safe disjuncts with an explicit [`EvalStrategy`]
/// (a one-shot [`QueryPlan`]).
pub fn eval_union_with(u: &UnionQuery, instance: &Instance, strategy: EvalStrategy) -> Instance {
    QueryPlan::new(&u.disjuncts, strategy)
        .expect("safe disjuncts")
        .eval(instance)
}

/// Reference evaluator: enumerate *all* total valuations over the active
/// domain and keep the satisfying ones. Exponential; used in tests and
/// property checks to validate [`eval_query`].
pub fn eval_query_naive(q: &ConjunctiveQuery, instance: &Instance) -> Instance {
    let vars = q.variables();
    let dom = instance.adom_sorted();
    let mut out = Instance::new();
    let mut assignment = vec![0usize; vars.len()];
    if vars.is_empty() {
        let v = Valuation::new();
        if v.satisfies(q, instance) {
            out.insert(v.derived_fact(q));
        }
        return out;
    }
    if dom.is_empty() {
        return out;
    }
    loop {
        let v: Valuation = vars
            .iter()
            .cloned()
            .zip(assignment.iter().map(|&i| dom[i]))
            .collect();
        if v.satisfies(q, instance) {
            out.insert(v.derived_fact(q));
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == vars.len() {
                return out;
            }
            assignment[k] += 1;
            if assignment[k] < dom.len() {
                break;
            }
            assignment[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::parser::parse_query;

    impl Indexed {
        /// Index every relation appearing in the body of `q`.
        fn for_query(q: &ConjunctiveQuery, instance: &Instance) -> Indexed {
            Indexed::build(instance, &q.body_relations())
        }

        /// [`Indexed::candidate_iter`], collected.
        fn candidates(&self, atom: &Atom, val: &Valuation) -> Vec<&[Val]> {
            self.candidate_iter(atom, val).collect()
        }
    }

    fn triangle_db() -> Instance {
        Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[4, 5]),
            fact("S", &[2, 3]),
            fact("S", &[5, 6]),
            fact("T", &[3, 1]),
        ])
    }

    #[test]
    fn triangle_query_finds_single_triangle() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let out = eval_query(&q, &triangle_db());
        assert_eq!(out.sorted_facts(), vec![fact("H", &[1, 2, 3])]);
    }

    #[test]
    fn example_4_1_of_the_survey() {
        // Qe: H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1) on Ie.
        use crate::fact::fact_syms;
        let q = parse_query("H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1)").unwrap();
        let ie = Instance::from_facts([
            fact_syms("R", &["a", "b"]),
            fact_syms("R", &["b", "a"]),
            fact_syms("R", &["b", "c"]),
            fact_syms("S", &["a", "a"]),
            fact_syms("S", &["c", "a"]),
        ]);
        let out = eval_query(&q, &ie);
        // Note: the survey prints the result as {H(a,b)} ∪ {H(a,c)}, but
        // H(a,b) would require S(b,a) ∉ Ie; the valuation x1↦a, x2↦b, x3↦a
        // uses {R(a,b), R(b,a), S(a,a)} ⊆ Ie and derives H(a,a). The "b" is
        // a typo in the paper; the correct answer is {H(a,a), H(a,c)}.
        assert_eq!(
            out.sorted_facts(),
            vec![fact_syms("H", &["a", "a"]), fact_syms("H", &["a", "c"])]
        );
    }

    #[test]
    fn self_join_with_repeated_vars() {
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let i = Instance::from_facts([fact("R", &[1, 1]), fact("R", &[1, 2])]);
        let out = eval_query(&q, &i);
        // x=1 requires R(1,1); y∈{1,2}: y=1 gives z∈{1,2}; y=2 gives nothing
        // (no R(2,_)).
        assert_eq!(
            out.sorted_facts(),
            vec![fact("H", &[1, 1]), fact("H", &[1, 2])]
        );
    }

    #[test]
    fn negation_and_inequalities() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x), x != z").unwrap();
        let i = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]), // closes 1-2-3, so (1,2,3) excluded
            fact("E", &[2, 4]), // open: 1-2-4
        ]);
        let out = eval_query(&q, &i);
        assert!(out.contains(&fact("H", &[1, 2, 4])));
        assert!(!out.contains(&fact("H", &[1, 2, 3])));
    }

    #[test]
    fn constants_in_atoms() {
        let q = parse_query("H(x) <- R(1, x)").unwrap();
        let i = Instance::from_facts([fact("R", &[1, 7]), fact("R", &[2, 8])]);
        assert_eq!(eval_query(&q, &i).sorted_facts(), vec![fact("H", &[7])]);
    }

    #[test]
    fn boolean_query() {
        let q = parse_query("H() <- R(x,x)").unwrap();
        let yes = Instance::from_facts([fact("R", &[3, 3])]);
        let no = Instance::from_facts([fact("R", &[3, 4])]);
        assert_eq!(eval_query(&q, &yes).len(), 1);
        assert_eq!(eval_query(&q, &no).len(), 0);
    }

    #[test]
    fn empty_instance_empty_result() {
        let q = parse_query("H(x) <- R(x)").unwrap();
        assert!(eval_query(&q, &Instance::new()).is_empty());
    }

    #[test]
    fn matches_naive_reference() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z), x != z").unwrap();
        let i = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[2, 2]),
            fact("R", &[3, 1]),
            fact("S", &[2, 1]),
            fact("S", &[2, 3]),
            fact("S", &[1, 1]),
        ]);
        assert_eq!(eval_query(&q, &i), eval_query_naive(&q, &i));
    }

    #[test]
    fn union_evaluation() {
        use crate::parser::parse_union;
        let u = parse_union("H(x) <- R(x); H(x) <- S(x)").unwrap();
        let i = Instance::from_facts([fact("R", &[1]), fact("S", &[2])]);
        assert_eq!(eval_union(&u, &i).len(), 2);
    }

    #[test]
    fn valuation_count_includes_all_witnesses() {
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let i = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[1, 3])]);
        assert_eq!(satisfying_valuations(&q, &i).len(), 2);
        assert_eq!(eval_query(&q, &i).len(), 1); // projection dedups
    }

    #[test]
    fn candidates_bound_value_absent_is_empty_not_full_scan() {
        // Regression: a bound position whose value has no `by_pos` entry
        // proves zero matching facts; `candidates` must return the empty
        // set, never fall back to the full relation scan.
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let i = Instance::from_facts((0..100u64).map(|k| fact("R", &[k, k + 1])));
        let index = Indexed::for_query(&q, &i);
        let atom = &q.body[0];
        let mut val = Valuation::new();
        // Bind x to a value far outside the relation's domain.
        val.bind(atom.variables()[0].clone(), crate::fact::Val(10_000));
        assert!(index.candidates(atom, &val).is_empty());
        // Sanity: unbound valuation still enumerates everything.
        assert_eq!(index.candidates(atom, &Valuation::new()).len(), 100);
    }

    #[test]
    fn candidate_iter_streams_exactly_what_candidates_collects() {
        // Regression for the hot-loop allocation fix: the recursion now
        // consumes `candidate_iter` directly instead of a fresh
        // `Vec` per step. The iterator must yield the same rows in
        // the same order as the collected form in all three regimes —
        // unbound (full scan), bound-present (positional index), and
        // bound-absent (provably empty).
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let i = Instance::from_facts(
            (0..50u64)
                .map(|k| fact("R", &[k % 7, k]))
                .chain((0..30u64).map(|k| fact("S", &[k, k % 5]))),
        );
        let index = Indexed::for_query(&q, &i);
        let atom = &q.body[0];
        let x = atom.variables()[0].clone();
        let cases = [
            None,                          // unbound: full-relation scan
            Some(crate::fact::Val(3)),     // bound, value present
            Some(crate::fact::Val(9_999)), // bound, value absent
        ];
        for bound in cases {
            let mut val = Valuation::new();
            if let Some(v) = bound {
                val.bind(x.clone(), v);
            }
            let collected = index.candidates(atom, &val);
            let streamed: Vec<&[Val]> = index.candidate_iter(atom, &val).collect();
            assert_eq!(streamed, collected, "bound = {bound:?}");
            // The size hint is exact in every regime — downstream code may
            // rely on it for preallocation.
            let (lo, hi) = index.candidate_iter(atom, &val).size_hint();
            assert_eq!(lo, collected.len(), "bound = {bound:?}");
            assert_eq!(hi, Some(collected.len()), "bound = {bound:?}");
        }
    }

    #[test]
    fn self_join_index_built_once_no_duplicate_candidates() {
        // Regression: `Indexed::build` used to index a relation once per
        // occurrence in `rels`, so self-joins (which list the relation once
        // per atom) duplicated every positional entry and every candidate.
        let q = parse_query("H(x,z) <- R(x,y), R(y,z)").unwrap();
        let i = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[2, 3])]);
        let index = Indexed::for_query(&q, &i);
        let mut val = Valuation::new();
        val.bind(q.body[0].variables()[0].clone(), crate::fact::Val(1));
        assert_eq!(index.candidates(&q.body[0], &val).len(), 1);
        assert_eq!(satisfying_valuations(&q, &i).len(), 1);
    }

    mod built_index {
        use super::*;
        use crate::atom::Var;
        use crate::symbols::rel;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Relations with their usual arity; `R` also takes the odd
        /// ternary fact (an instance is schema-less).
        const RELS: [(&str, usize); 3] = [("R", 2), ("S", 1), ("Z", 0)];

        fn random_fact(rng: &mut StdRng) -> Fact {
            let (name, arity) = RELS[rng.gen_range(0..RELS.len())];
            let arity = if name == "R" && rng.gen_range(0..6) == 0 {
                3
            } else {
                arity
            };
            let args: Vec<u64> = (0..arity).map(|_| rng.gen_range(0..4)).collect();
            fact(name, &args)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// On a built index, the candidates of every atom shape under
            /// every partial valuation are rows of the atom's relation and
            /// arity, each once, in ascending row id; they hold every fact
            /// the atom matches under the valuation, and nothing at all
            /// when a bound value is absent from its position.
            #[test]
            fn candidates_hold_every_matching_row_once(seed in 0..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let covered: Vec<RelId> = RELS.iter().map(|&(n, _)| rel(n)).collect();
                let contents =
                    Instance::from_facts((0..rng.gen_range(0..40)).map(|_| random_fact(&mut rng)));
                let index = Indexed::build(&contents, &covered);
                for &r in &covered {
                    prop_assert_eq!(index.len(r), contents.relation_len(r));
                }
                for _ in 0..24 {
                    let f = random_fact(&mut rng);
                    let terms: Vec<Term> = f
                        .args
                        .iter()
                        .map(|&a| match rng.gen_range(0..3) {
                            0 => Term::Const(a),
                            k => Term::Var(Var::new(["x", "y"][k - 1])),
                        })
                        .collect();
                    let atom = Atom { rel: f.rel, terms };
                    let mut val = Valuation::new();
                    for name in ["x", "y"] {
                        if rng.gen_range(0..2) == 0 {
                            val.bind(Var::new(name), Val(rng.gen_range(0..4)));
                        }
                    }
                    let got = index.candidates(&atom, &val);
                    // Row ids: positions in the unbound scan of the block.
                    let scan = Atom {
                        rel: f.rel,
                        terms: (0..f.args.len()).map(|k| Term::var(format!("v{k}"))).collect(),
                    };
                    let scan = index.candidates(&scan, &Valuation::new());
                    let ids: Vec<usize> = got
                        .iter()
                        .map(|row| scan.iter().position(|r| r == row).unwrap())
                        .collect();
                    prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "row ids {:?}", ids);
                    let bound: Vec<Option<Val>> =
                        atom.terms.iter().map(|t| val.apply_term(t)).collect();
                    let matches = |row: &[Val]| {
                        row.iter().zip(&bound).all(|(v, b)| b.is_none_or(|b| b == *v))
                    };
                    for g in contents.relation(f.rel).filter(|g| g.args.len() == f.args.len()) {
                        if matches(&g.args) {
                            prop_assert!(got.contains(&&g.args[..]), "{} missing for {:?}", g, atom);
                        }
                    }
                    let absent = bound.iter().enumerate().any(|(k, b)| {
                        b.is_some_and(|b| scan.iter().all(|row| row[k] != b))
                    });
                    if absent {
                        prop_assert!(got.is_empty());
                    }
                }
            }
        }
    }

    /// An unsafe query assembled field by field is refused when its plan
    /// is compiled, under every strategy, before any engine sees it.
    #[test]
    fn plans_refuse_unsafe_queries_under_every_strategy() {
        let q = ConjunctiveQuery {
            head: Atom::vars("H", &["x", "w"]),
            body: vec![Atom::vars("R", &["x", "y"])],
            negated: Vec::new(),
            inequalities: Vec::new(),
        };
        for s in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            assert_eq!(
                QueryPlan::new(std::slice::from_ref(&q), s).unwrap_err(),
                QueryError::UnsafeHeadVar(crate::atom::Var::new("w")),
                "{s:?}"
            );
        }
    }

    /// A union plan resolves per disjunct and answers like the disjuncts
    /// evaluated one by one.
    #[test]
    fn union_plan_resolves_per_disjunct() {
        use crate::parser::parse_union;
        let u = parse_union("H(x) <- R(x,y), S(y,z), T(z,x); H(x) <- R(x,y), U(y)").unwrap();
        let plan = QueryPlan::new(&u.disjuncts, EvalStrategy::Auto).unwrap();
        assert_eq!(
            plan.resolved().collect::<Vec<_>>(),
            vec![EvalStrategy::Wcoj, EvalStrategy::Indexed]
        );
        let i = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("S", &[2, 3]),
            fact("T", &[3, 1]),
            fact("R", &[4, 5]),
            fact("U", &[5]),
        ]);
        let mut want = eval_query(&u.disjuncts[0], &i);
        want.extend_from(&eval_query(&u.disjuncts[1], &i));
        assert_eq!(plan.eval(&i), want);
        assert_eq!(
            plan.eval(&i).sorted_facts(),
            vec![fact("H", &[1]), fact("H", &[4])]
        );
    }
}
