//! The policy-aware strategy for domain-distinct-monotone CQ¬ queries —
//! Example 5.4 (class F1 = A1 = Mdistinct).
//!
//! "1. Broadcast H(κ). 2. If a new edge is received, add it to H(κ). If
//! there are edges E(a,b) and E(b,c) in H(κ), but edge E(c,a) ∉ H(κ) and
//! κ ∈ P^H(E(c,a)) then output (a,b,c)."
//!
//! Generalized: for a CQ with negated atoms whose underlying query is
//! domain-distinct-monotone, a node outputs a valuation's head once the
//! positive facts are present locally and it can *certify the absence* of
//! every instantiated negated fact — it is responsible for the fact under
//! the policy yet does not hold it. Soundness relies on the horizontal
//! distribution being the policy's distribution (`H(κ) = I ∩ rfacts(κ)`),
//! which is the survey's policy-aware setting.
//!
//! Completeness holds when, for every output, some node is responsible
//! for *all* of its absent certificates (always true for single-negated-
//! atom queries under total policies, and for domain-guided policies on
//! connected negated parts). No message is ever read on the ideal
//! (replicate-all) distribution, so the program is coordination-free.

use crate::network::NodeState;
use crate::program::{Broadcast, Ctx, TransducerProgram};
use parlog_relal::eval::satisfying_valuations;
use parlog_relal::fact::Fact;
use parlog_relal::query::ConjunctiveQuery;

/// Policy-aware evaluation of a CQ with negation (class F1).
#[derive(Clone)]
pub struct PolicyAwareCq {
    query: ConjunctiveQuery,
    name: String,
}

impl PolicyAwareCq {
    /// Wrap a CQ¬ whose semantics is domain-distinct-monotone (caller's
    /// obligation; `parlog::calm` provides bounded testers).
    pub fn new(query: ConjunctiveQuery) -> PolicyAwareCq {
        PolicyAwareCq {
            query,
            name: "policy-aware-cq".into(),
        }
    }

    fn try_output(&self, node: &mut NodeState, ctx: &Ctx) {
        // Evaluate the positive part (with inequalities); certify each
        // negated instantiation.
        let positive = ConjunctiveQuery {
            head: self.query.head.clone(),
            body: self.query.body.clone(),
            negated: Vec::new(),
            inequalities: self.query.inequalities.clone(),
        };
        let local = node.local.clone();
        for v in satisfying_valuations(&positive, &local) {
            let certified = self.query.negated.iter().all(|a| {
                let g = v.apply(a).expect("safe query");
                // Held locally ⇒ present in I ⇒ valuation fails.
                // Absent locally: certified absent iff κ is responsible
                // (it would hold the fact if the fact were in I).
                !local.contains(&g) && ctx.responsible(node, &g)
            });
            if certified {
                node.output(v.derived_fact(&self.query));
            }
        }
    }
}

impl TransducerProgram for PolicyAwareCq {
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
    use crate::scheduler::{run, RunCtx, RunMode, Schedule};
    use parlog_relal::fact::fact;
    use parlog_relal::instance::Instance;
    use parlog_relal::parser::parse_query;
    use parlog_relal::policy::{DomainGuidedPolicy, HashPolicy, ReplicateAll};
    use std::sync::Arc;

    fn open_triangle_query() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap()
    }

    fn graph() -> Instance {
        Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
            fact("E", &[4, 6]),
        ])
    }

    #[test]
    fn open_triangles_under_hash_policy() {
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        assert!(!expected.is_empty());
        let policy = Arc::new(HashPolicy::new(3, 11));
        let shards = policy_distribution(&db, policy.as_ref());
        let p = PolicyAwareCq::new(q);
        for schedule in [Schedule::Random(3), Schedule::Fifo, Schedule::Lifo] {
            let ctx = Ctx::oblivious().with_policy(policy.clone());
            let out = run(&p, &shards, &RunCtx::simulated(ctx, schedule)).output;
            assert_eq!(out, expected, "{schedule:?}");
        }
    }

    #[test]
    fn open_triangles_under_domain_guided_policy() {
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let policy = Arc::new(DomainGuidedPolicy::new(3, 5));
        let shards = policy_distribution(&db, policy.as_ref());
        let p = PolicyAwareCq::new(q);
        let ctx = Ctx::oblivious().with_policy(policy.clone());
        let out = run(&p, &shards, &RunCtx::simulated(ctx, Schedule::Random(1))).output;
        assert_eq!(out, expected);
    }

    #[test]
    fn coordination_free_on_ideal_distribution() {
        // With the replicate-all policy, every node certifies every
        // absence locally — init alone produces Q(I); no message is read.
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let policy = Arc::new(ReplicateAll { num_nodes: 3 });
        let p = PolicyAwareCq::new(q);
        let ctx = Ctx::oblivious().with_policy(policy);
        let out = run(
            &p,
            &ideal_distribution(&db, 3),
            &RunCtx::new(ctx, RunMode::HeartbeatsOnly),
        )
        .output;
        assert_eq!(out, expected);
    }

    #[test]
    fn outputs_are_sound_at_every_prefix() {
        // No fact outside Q(I) is ever output, at any point of any run.
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let policy = Arc::new(HashPolicy::new(4, 2));
        let shards = policy_distribution(&db, policy.as_ref());
        let p = PolicyAwareCq::new(q);
        let ctx = Ctx::oblivious().with_policy(policy);
        let rc = RunCtx::simulated(ctx, Schedule::Random(7));
        let mut run = crate::scheduler::SimRun::new(&p, &shards, &rc);
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let mut rr = 0;
        loop {
            assert!(
                run.outputs().is_subset_of(&expected),
                "unsound prefix output"
            );
            if !run.step(&p, Schedule::Random(7), &mut rng, &mut rr) {
                break;
            }
        }
        assert_eq!(run.outputs(), expected);
    }

    #[test]
    fn pure_positive_query_degenerates_to_broadcast() {
        let q = parse_query("H(x,y) <- E(x,y), E(y,x)").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 1])]);
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let policy = Arc::new(HashPolicy::new(2, 3));
        let shards = policy_distribution(&db, policy.as_ref());
        let p = PolicyAwareCq::new(q);
        let ctx = Ctx::oblivious().with_policy(policy);
        let out = run(&p, &shards, &RunCtx::simulated(ctx, Schedule::Fifo)).output;
        assert_eq!(out, expected);
    }
}
