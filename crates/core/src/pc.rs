//! Parallel-correctness — Section 4.1 of the survey.
//!
//! The one-round evaluation of `Q` under a distribution policy `P` is
//! `[Q,P](I) = ⋃_κ Q(loc-inst(κ))`. `Q` is **parallel-correct** under `P`
//! when `[Q,P](I) = Q(I)` for every instance over `P`'s universe.
//!
//! For (unions of) conjunctive queries, Proposition 4.6 reduces the
//! `∀ instance` quantifier to minimal valuations:
//!
//! > **(PC1)** For every minimal valuation `V` for `Q` over `U`, there is
//! > a node `κ` with `V(body_Q) ⊆ rfacts(κ)`.
//!
//! and the sufficient-but-not-necessary condition **(PC0)** quantifies
//! over *all* valuations. Both are implemented literally; the quantifier
//! structure (`∀ valuation ∃ node ∀ fact`) is what makes the problem
//! Πp2-complete (Theorem 4.8).
//!
//! For queries with **negation** the minimal-valuation characterization
//! fails (the problem jumps to coNEXPTIME, Theorem 4.9); we provide exact
//! decision by exhaustive counterexample search over a finite universe,
//! separated into parallel-**soundness** and parallel-**completeness** as
//! in the survey.

use parlog_relal::eval::eval_query;
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::minimal::{for_each_valuation, minimal_valuations_over};
use parlog_relal::policy::{DistributionPolicy, ExplicitPolicy};
use parlog_relal::query::{ConjunctiveQuery, UnionQuery};
use parlog_relal::symbols::RelId;

/// The distributed one-round result `[Q,P](I)`: the union of `Q` over the
/// local instances.
pub fn parallel_result<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    instance: &Instance,
) -> Instance {
    let mut out = Instance::new();
    for node in 0..policy.num_nodes() {
        let local = policy.local_instance(node, instance);
        out.extend_from(&eval_query(q, &local));
    }
    out
}

/// Is `Q` parallel-correct **on the given instance** (Definition 4.2,
/// instance-specific variant — the problem `PCI`)?
pub fn parallel_correct_on<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    instance: &Instance,
) -> bool {
    parallel_result(q, policy, instance) == eval_query(q, instance)
}

/// Condition **(PC0)**: every valuation over `universe` has its required
/// facts meet at some node ("`P` strongly saturates `Q`",
/// Definition 4.7). Sufficient for parallel-correctness, not necessary
/// (Example 4.3).
pub fn strongly_saturates<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    universe: &[Val],
) -> bool {
    assert!(
        q.negated.is_empty(),
        "PC0 is defined for negation-free queries"
    );
    let vars = q.variables();
    let mut ok = true;
    for_each_valuation(&vars, universe, |v| {
        if !ok || !v.satisfies_inequalities(q) {
            return;
        }
        let required = v.required_facts(q);
        let meets =
            (0..policy.num_nodes()).any(|n| required.iter().all(|f| policy.responsible(n, f)));
        if !meets {
            ok = false;
        }
    });
    ok
}

/// Condition **(PC1)**: every *minimal* valuation over `universe` has its
/// required facts meet at some node ("`P` saturates `Q`"). By
/// Proposition 4.6 this characterizes parallel-correctness for CQs (and
/// CQs with inequalities).
pub fn saturates<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    universe: &[Val],
) -> bool {
    for v in minimal_valuations_over(q, universe) {
        let required = v.required_facts(q);
        let meets =
            (0..policy.num_nodes()).any(|n| required.iter().all(|f| policy.responsible(n, f)));
        if !meets {
            return false;
        }
    }
    true
}

/// PC1 with precomputed minimal valuations — use when testing many
/// policies against the same query/universe (the minimal-valuation
/// enumeration is the expensive half of the check and is
/// policy-independent).
pub fn saturates_with<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    minimal: &[parlog_relal::valuation::Valuation],
) -> bool {
    minimal.iter().all(|v| {
        let required = v.required_facts(q);
        (0..policy.num_nodes()).any(|n| required.iter().all(|f| policy.responsible(n, f)))
    })
}

/// Parallel-correctness of a plain CQ (or CQ with inequalities) under a
/// policy with the given finite universe — decided via PC1
/// (Proposition 4.6).
pub fn parallel_correct<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    universe: &[Val],
) -> bool {
    assert!(
        q.negated.is_empty(),
        "use parallel_correct_neg for queries with negation"
    );
    saturates(q, policy, universe)
}

/// Parallel-correctness for a **union** of CQs, via the union variant of
/// minimal valuations (the survey after Theorem 4.8, following Geck et
/// al.).
pub fn parallel_correct_union<P: DistributionPolicy + ?Sized>(
    u: &UnionQuery,
    policy: &P,
    universe: &[Val],
) -> bool {
    assert!(u.is_plain() || u.disjuncts.iter().all(|d| d.negated.is_empty()));
    for uv in parlog_relal::minimal::minimal_union_valuations_over(u, universe) {
        let q = &u.disjuncts[uv.disjunct];
        let required = uv.valuation.required_facts(q);
        let meets =
            (0..policy.num_nodes()).any(|n| required.iter().all(|f| policy.responsible(n, f)));
        if !meets {
            return false;
        }
    }
    true
}

/// All candidate facts over `universe` for the given relation schema.
pub fn candidate_facts(schema: &[(RelId, usize)], universe: &[Val]) -> Vec<Fact> {
    let mut out = Vec::new();
    for &(rel, arity) in schema {
        let mut idx = vec![0usize; arity];
        if arity == 0 {
            out.push(Fact::new(rel, Vec::new()));
            continue;
        }
        if universe.is_empty() {
            continue;
        }
        loop {
            out.push(Fact::new(
                rel,
                idx.iter().map(|&i| universe[i]).collect::<Args>(),
            ));
            let mut k = 0;
            loop {
                if k == arity {
                    break;
                }
                idx[k] += 1;
                if idx[k] < universe.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == arity {
                break;
            }
        }
    }
    out
}

/// The relation schema a query mentions (positive and negated atoms).
pub fn query_schema(q: &ConjunctiveQuery) -> Vec<(RelId, usize)> {
    let mut out: Vec<(RelId, usize)> = q
        .body
        .iter()
        .chain(q.negated.iter())
        .map(|a| (a.rel, a.arity()))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The outcome of the exhaustive `CQ¬` check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegCorrectness {
    /// `[Q,P](I) ⊆ Q(I)` on every instance (parallel-soundness).
    pub sound: bool,
    /// `Q(I) ⊆ [Q,P](I)` on every instance (parallel-completeness).
    pub complete: bool,
    /// A counterexample instance, if any.
    pub counterexample: Option<Instance>,
}

impl NegCorrectness {
    /// Parallel-correct = sound ∧ complete.
    pub fn correct(&self) -> bool {
        self.sound && self.complete
    }
}

/// Exact parallel-correctness for `CQ¬` over a finite universe by
/// exhaustive search over all instances `I ⊆ facts(U)` on the query's
/// schema. Exponential in `|facts(U)|` — the problem is
/// coNEXPTIME-complete (Theorem 4.9), and unlike the negation-free case
/// no small-valuation characterization exists. Panics if the candidate
/// space exceeds 24 facts (16M instances).
pub fn parallel_correct_neg<P: DistributionPolicy + ?Sized>(
    q: &ConjunctiveQuery,
    policy: &P,
    universe: &[Val],
) -> NegCorrectness {
    let facts = candidate_facts(&query_schema(q), universe);
    assert!(
        facts.len() <= 24,
        "candidate space too large: {} facts",
        facts.len()
    );
    let mut sound = true;
    let mut complete = true;
    let mut counterexample = None;
    for mask in 0u64..(1u64 << facts.len()) {
        let instance = Instance::from_facts(
            facts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, f)| f.clone()),
        );
        let central = eval_query(q, &instance);
        let distributed = parallel_result(q, policy, &instance);
        let s = distributed.is_subset_of(&central);
        let c = central.is_subset_of(&distributed);
        if !(s && c) && counterexample.is_none() {
            counterexample = Some(instance);
        }
        sound &= s;
        complete &= c;
        if !sound && !complete {
            break;
        }
    }
    NegCorrectness {
        sound,
        complete,
        counterexample,
    }
}

/// The policy of **Example 4.3**: two nodes over universe `{1, 2}`
/// (standing for `a`, `b`); node 0 gets every `R`-fact except `R(1,2)`,
/// node 1 every `R`-fact except `R(2,1)`.
pub fn example_4_3_policy() -> ExplicitPolicy {
    use parlog_relal::fact::fact;
    let mut p = ExplicitPolicy::new(2);
    for a in 1..=2u64 {
        for b in 1..=2u64 {
            let f = fact("R", &[a, b]);
            if (a, b) != (1, 2) {
                p.assign(0, f.clone());
            }
            if (a, b) != (2, 1) {
                p.assign(1, f);
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::{fact, fact_syms};
    use parlog_relal::parser::parse_query;
    use parlog_relal::policy::HashPolicy;

    /// Example 4.1: [Qe,P1](Ie) and the broken policy P2.
    #[test]
    fn example_4_1() {
        let q = parse_query("H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1)").unwrap();
        let ie = Instance::from_facts([
            fact_syms("R", &["a", "b"]),
            fact_syms("R", &["b", "a"]),
            fact_syms("R", &["b", "c"]),
            fact_syms("S", &["a", "a"]),
            fact_syms("S", &["c", "a"]),
        ]);
        // P1: R-facts on both nodes; S(d1,d2) on node 0 iff d1 = d2.
        let mut p1 = ExplicitPolicy::new(2);
        for f in ie.iter() {
            if f.rel == parlog_relal::symbols::rel("R") {
                p1.assign(0, f.clone());
                p1.assign(1, f.clone());
            } else if f.args[0] == f.args[1] {
                p1.assign(0, f.clone());
            } else {
                p1.assign(1, f.clone());
            }
        }
        let result = parallel_result(&q, &p1, &ie);
        // (Modulo the paper's H(a,b)-typo — see relal::eval — the result
        // is {H(a,a), H(a,c)} and matches the centralized evaluation.)
        assert_eq!(result, eval_query(&q, &ie));
        assert!(parallel_correct_on(&q, &p1, &ie));

        // P2: all R on node 0, all S on node 1 ⇒ [Q,P2](Ie) = ∅.
        let mut p2 = ExplicitPolicy::new(2);
        for f in ie.iter() {
            let node = usize::from(f.rel != parlog_relal::symbols::rel("R"));
            p2.assign(node, f.clone());
        }
        assert!(parallel_result(&q, &p2, &ie).is_empty());
        assert!(!parallel_correct_on(&q, &p2, &ie));
    }

    /// Example 4.3: PC0 fails, yet the query is parallel-correct — the
    /// gap between strong saturation and saturation.
    #[test]
    fn example_4_3() {
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let policy = example_4_3_policy();
        let universe = [Val(1), Val(2)];
        assert!(!strongly_saturates(&q, &policy, &universe));
        assert!(saturates(&q, &policy, &universe));
        assert!(parallel_correct(&q, &policy, &universe));
        // Cross-validate PC1 against the definition: every instance over
        // the universe evaluates correctly.
        let facts = candidate_facts(&query_schema(&q), &universe);
        for mask in 0u32..(1 << facts.len()) {
            let i = Instance::from_facts(
                facts
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0)
                    .map(|(_, f)| f.clone()),
            );
            assert!(parallel_correct_on(&q, &policy, &i), "failed on {i}");
        }
    }

    #[test]
    fn broken_policy_fails_pc1_and_definition() {
        // Same query, but node 1 also misses R(1,1): now the valuation
        // x=y=z=1 (minimal) has its single fact on node 0 only… still
        // meets. Instead drop R(1,1) from *both* nodes: minimal valuation
        // collapses nowhere.
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let mut p = ExplicitPolicy::new(2);
        for a in 1..=2u64 {
            for b in 1..=2u64 {
                let f = fact("R", &[a, b]);
                if (a, b) != (1, 1) {
                    p.assign(0, f.clone());
                    p.assign(1, f);
                }
            }
        }
        let universe = [Val(1), Val(2)];
        assert!(!saturates(&q, &p, &universe));
        // And indeed a real instance witnesses the failure.
        let i = Instance::from_facts([fact("R", &[1, 1])]);
        assert!(!parallel_correct_on(&q, &p, &i));
    }

    #[test]
    fn hash_policies_are_not_correct_for_joins_but_keyed_ones_are() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let universe = [Val(1), Val(2), Val(3)];
        // Whole-tuple hashing splits join partners: not parallel-correct.
        let whole = HashPolicy::new(2, 7);
        assert!(!parallel_correct(&q, &whole, &universe));
        // Hashing R on position 1 and S on position 0 (the join key): the
        // repartition join policy of Example 3.1(1a) — parallel-correct.
        let keyed = HashPolicy::new(2, 7)
            .with_key(parlog_relal::symbols::rel("R"), vec![1])
            .with_key(parlog_relal::symbols::rel("S"), vec![0]);
        assert!(parallel_correct(&q, &keyed, &universe));
        assert!(strongly_saturates(&q, &keyed, &universe));
    }

    #[test]
    fn union_correctness() {
        use parlog_relal::parser::parse_union;
        let u = parse_union("H(x) <- R(x,y); H(x) <- S(x)").unwrap();
        let universe = [Val(1), Val(2)];
        let keyed = HashPolicy::new(2, 3)
            .with_key(parlog_relal::symbols::rel("R"), vec![0])
            .with_key(parlog_relal::symbols::rel("S"), vec![0]);
        assert!(parallel_correct_union(&u, &keyed, &universe));
        let whole = HashPolicy::new(2, 3);
        // R hashed on both positions: the two facts of a minimal valuation
        // for the first disjunct are single facts — still meet trivially.
        // Union correctness holds for any policy assigning each fact
        // somewhere, since each disjunct needs one fact per valuation…
        // except the first disjunct needs only R(x,y): single fact. So
        // even `whole` is correct here.
        assert!(parallel_correct_union(&u, &whole, &universe));
    }

    #[test]
    fn negation_soundness_vs_completeness() {
        // Q: H(x) <- R(x), not S(x) under a policy splitting R and S:
        // a node seeing R(1) but not S(1) wrongly emits H(1) — unsound.
        let q = parse_query("H(x) <- R(x), not S(x)").unwrap();
        let mut p = ExplicitPolicy::new(2);
        p.assign(0, fact("R", &[1]));
        p.assign(1, fact("S", &[1]));
        let res = parallel_correct_neg(&q, &p, &[Val(1)]);
        assert!(!res.sound);
        assert!(res.counterexample.is_some());

        // Same query, both facts co-located: correct.
        let mut p2 = ExplicitPolicy::new(1);
        p2.assign(0, fact("R", &[1]));
        p2.assign(0, fact("S", &[1]));
        let res2 = parallel_correct_neg(&q, &p2, &[Val(1)]);
        assert!(res2.correct(), "{res2:?}");
    }

    #[test]
    fn negation_completeness_failure() {
        // A policy assigning R(1) nowhere: completeness fails (H(1) is in
        // Q(I) but no node can derive it), soundness holds.
        let q = parse_query("H(x) <- R(x), not S(x)").unwrap();
        let p = ExplicitPolicy::new(1); // nothing assigned
        let res = parallel_correct_neg(&q, &p, &[Val(1)]);
        assert!(res.sound);
        assert!(!res.complete);
    }

    #[test]
    fn candidate_facts_enumeration() {
        let schema = [(parlog_relal::symbols::rel("R"), 2usize)];
        let facts = candidate_facts(&schema, &[Val(1), Val(2)]);
        assert_eq!(facts.len(), 4);
        let nullary = [(parlog_relal::symbols::rel("Z"), 0usize)];
        assert_eq!(candidate_facts(&nullary, &[Val(1)]).len(), 1);
    }
}
