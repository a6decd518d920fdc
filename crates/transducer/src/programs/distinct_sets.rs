//! The *set-based* distinct-complete algorithm — the literal strategy of
//! Section 5.2.2 for arbitrary queries in `Mdistinct`:
//!
//! "1. Broadcast H(κ). 2. If a new fact is received, add it to H(κ). If
//! H(κ) contains a set C that is distinct-complete for κ, output
//! Q(H(κ)|C)."
//!
//! A set `C ⊆ dom` is **distinct-complete** for κ when every candidate
//! fact over `C` (on the query's schema) was either received/held or is
//! κ's responsibility under the policy — then κ knows `I|C` *exactly*
//! (presences and absences), and Lemma 5.7 makes `Q(H(κ)|C) ⊆ Q(I)`
//! sound for every `Q ∈ Mdistinct`.
//!
//! The algorithm is always **sound**; it is **complete** on policies
//! where, for every relevant value set, *some* node is responsible for
//! all its candidate facts (replicate-all — the coordination-freeness
//! witness — or any policy with a full-coverage node). On policies
//! without that property the survey's finer F1 construction is needed;
//! see [`crate::programs::distinct::PolicyAwareCq`] for the
//! valuation-wise variant that covers the `CQ¬` examples.

use crate::network::{NodeState, QueryFunction};
use crate::program::{Broadcast, Ctx, TransducerProgram};
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::fastmap::fxset;
use parlog_relal::instance::Instance;
use parlog_relal::symbols::RelId;
use std::sync::Arc;

/// Set-based distinct-complete evaluation (class F1, generic queries).
#[derive(Clone)]
pub struct DistinctCompleteSets {
    query: Arc<dyn QueryFunction>,
    /// The relation schema of candidate facts.
    schema: Vec<(RelId, usize)>,
    /// Maximum |C| searched (output facts of bounded-width queries need
    /// only bounded witness sets).
    c_max: usize,
    name: String,
}

impl DistinctCompleteSets {
    /// Wrap a domain-distinct-monotone query over the given schema.
    pub fn new<Q: QueryFunction + 'static>(
        query: Q,
        schema: Vec<(RelId, usize)>,
        c_max: usize,
    ) -> DistinctCompleteSets {
        assert!(c_max >= 1);
        DistinctCompleteSets {
            query: Arc::new(query),
            schema,
            c_max,
            name: "distinct-complete-sets".into(),
        }
    }

    /// All candidate facts over `c` on the schema.
    fn candidates(&self, c: &[Val]) -> Vec<Fact> {
        let mut out = Vec::new();
        for &(rel, arity) in &self.schema {
            if arity == 0 {
                out.push(Fact::new(rel, Vec::new()));
                continue;
            }
            let mut idx = vec![0usize; arity];
            loop {
                out.push(Fact::new(rel, idx.iter().map(|&i| c[i]).collect::<Args>()));
                let mut k = 0;
                while k < arity {
                    idx[k] += 1;
                    if idx[k] < c.len() {
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

    fn is_distinct_complete(&self, node: &NodeState, ctx: &Ctx, c: &[Val]) -> bool {
        self.candidates(c)
            .iter()
            .all(|f| node.local.contains(f) || ctx.responsible(node, f))
    }

    fn try_output(&self, node: &mut NodeState, ctx: &Ctx) {
        // Enumerate C ⊆ adom(known) with |C| ≤ c_max; output Q(known|C)
        // for each distinct-complete C.
        let adom = node.local.adom_sorted();
        let n = adom.len();
        let mut results = Instance::new();
        // Subset enumeration by increasing size, bounded.
        let mut stack: Vec<(usize, Vec<Val>)> = vec![(0, Vec::new())];
        while let Some((start, c)) = stack.pop() {
            if !c.is_empty() && self.is_distinct_complete(node, ctx, &c) {
                let mut dom = fxset();
                dom.extend(c.iter().copied());
                results.extend_from(&self.query.eval(&node.local.restrict_to(&dom)));
            }
            if c.len() < self.c_max {
                for (i, &v) in adom.iter().enumerate().take(n).skip(start) {
                    let mut c2 = c.clone();
                    c2.push(v);
                    stack.push((i + 1, c2));
                }
            }
        }
        node.output_all(&results);
    }
}

impl TransducerProgram for DistinctCompleteSets {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self, node: &mut NodeState, ctx: &Ctx) -> Broadcast {
        self.try_output(node, ctx);
        node.local.iter().cloned().collect()
    }

    fn on_fact(&self, node: &mut NodeState, _from: usize, fact: &Fact, ctx: &Ctx) -> Broadcast {
        if node.local.insert(fact.clone()) {
            self.try_output(node, ctx);
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{ideal_distribution, policy_distribution};
    use crate::scheduler::{run, RunCtx, RunMode, Schedule, SimRun};
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;
    use parlog_relal::policy::{DistributionPolicy, ReplicateAll};
    use parlog_relal::symbols::rel;

    fn open_q() -> impl QueryFunction + Clone {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        move |db: &Instance| parlog_relal::eval::eval_query(&q, db)
    }

    fn graph() -> Instance {
        Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
        ])
    }

    fn program() -> DistinctCompleteSets {
        DistinctCompleteSets::new(open_q(), vec![(rel("E"), 2)], 3)
    }

    /// A policy with one full-coverage node (node 0 responsible for
    /// everything) plus hash-spread responsibility — the family on which
    /// the set-based algorithm is complete.
    #[derive(Clone)]
    struct AnchoredPolicy {
        n: usize,
    }
    impl DistributionPolicy for AnchoredPolicy {
        fn num_nodes(&self) -> usize {
            self.n
        }
        fn responsible(&self, node: usize, f: &Fact) -> bool {
            node == 0
                || (parlog_relal::fastmap::hash_u64(3, f.args[0].0) % self.n as u64) as usize
                    == node
        }
    }

    #[test]
    fn coordination_free_on_ideal_distribution() {
        let db = graph();
        let expected = open_q().eval(&db);
        let ctx = Ctx::oblivious().with_policy(Arc::new(ReplicateAll { num_nodes: 3 }));
        let out = run(
            &program(),
            &ideal_distribution(&db, 3),
            &RunCtx::new(ctx, RunMode::HeartbeatsOnly),
        )
        .output;
        assert_eq!(out, expected);
    }

    #[test]
    fn complete_under_anchored_policy() {
        let db = graph();
        let expected = open_q().eval(&db);
        let policy = Arc::new(AnchoredPolicy { n: 3 });
        let shards = policy_distribution(&db, policy.as_ref());
        for schedule in [Schedule::Random(2), Schedule::Fifo, Schedule::Lifo] {
            let ctx = Ctx::oblivious().with_policy(policy.clone());
            let out = run(&program(), &shards, &RunCtx::simulated(ctx, schedule)).output;
            assert_eq!(out, expected, "{schedule:?}");
        }
    }

    #[test]
    fn prefix_outputs_always_sound() {
        let db = graph();
        let expected = open_q().eval(&db);
        let policy = Arc::new(AnchoredPolicy { n: 4 });
        let shards = policy_distribution(&db, policy.as_ref());
        let ctx = Ctx::oblivious().with_policy(policy);
        let p = program();
        let rc = RunCtx::simulated(ctx, Schedule::Random(5));
        let mut run = SimRun::new(&p, &shards, &rc);
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let mut rr = 0;
        loop {
            assert!(run.outputs().is_subset_of(&expected));
            if !run.step(&p, Schedule::Random(5), &mut rng, &mut rr) {
                break;
            }
        }
        assert_eq!(run.outputs(), expected);
    }

    #[test]
    fn candidate_enumeration_counts() {
        let p = program();
        assert_eq!(p.candidates(&[Val(1)]).len(), 1); // E(1,1)
        assert_eq!(p.candidates(&[Val(1), Val(2)]).len(), 4);
        assert_eq!(p.candidates(&[Val(1), Val(2), Val(3)]).len(), 9);
    }
}
