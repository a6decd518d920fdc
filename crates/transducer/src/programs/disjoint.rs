//! The domain-guided component algorithm for domain-disjoint-monotone
//! queries — Section 5.2.2 (class F2 = A2 = Mdisjoint).
//!
//! Under a **domain-guided** policy `P^α`, every node in `α(a)` holds all
//! facts containing `a`. The algorithm exchanges data together with
//! *closure certificates*: a node responsible for value `v` announces
//! `‡CERT(v, k)` — "exactly k facts of I contain v". A value is *closed*
//! at κ when κ is itself responsible for it or the certified count is
//! reached; a connected **component** of κ's accumulated data whose values
//! are all closed is provably a full union of components of `I`
//! (Lemma 5.11), so κ may output `Q` of the union of its closed
//! components — sound by domain-disjoint-monotonicity, and eventually
//! complete because every value is certified by its responsible node.
//!
//! "While there formally is no coordination or synchronization … the just
//! presented strategy does entail waiting" — visible here as components
//! staying unreported until their certificates arrive. On the ideal
//! distribution every value is locally closed, so no message is ever
//! read: coordination-free.

use crate::network::{NodeState, QueryFunction};
use crate::program::{Broadcast, Ctx, TransducerProgram};
use parlog_relal::fact::{Fact, Val};
use parlog_relal::fastmap::{fxset, FxSet};
use parlog_relal::instance::Instance;
use parlog_relal::symbols::{rel, RelId};
use std::sync::Arc;

/// The reserved closure-certificate relation `‡CERT(value, count)`.
fn cert_rel() -> RelId {
    rel("‡CERT")
}

/// The reserved unary probe relation used to ask a domain-guided policy
/// "am I in α(v)?" — `P^α(‡VAL(v)) = α(v)`.
fn probe_rel() -> RelId {
    rel("‡VAL")
}

/// Domain-guided component evaluation (class F2).
#[derive(Clone)]
pub struct DisjointComponent {
    query: Arc<dyn QueryFunction>,
    name: String,
}

impl DisjointComponent {
    /// Wrap a domain-disjoint-monotone query (caller's obligation).
    pub fn new<Q: QueryFunction + 'static>(query: Q) -> DisjointComponent {
        DisjointComponent {
            query: Arc::new(query),
            name: "disjoint-component".into(),
        }
    }

    fn in_alpha(node: &NodeState, ctx: &Ctx, v: Val) -> bool {
        ctx.responsible(node, &Fact::new(probe_rel(), [v]))
    }

    fn certified_count(node: &NodeState, v: Val) -> Option<u64> {
        node.aux
            .relation(cert_rel())
            .find(|f| f.args[0] == v)
            .map(|f| f.args[1].0)
    }

    fn known_count(node: &NodeState, v: Val) -> u64 {
        node.local.iter().filter(|f| f.mentions(v)).count() as u64
    }

    fn closed_values(&self, node: &NodeState, ctx: &Ctx) -> FxSet<Val> {
        let mut closed = fxset();
        for v in node.local.adom() {
            let own = Self::in_alpha(node, ctx, v);
            let cert =
                Self::certified_count(node, v).is_some_and(|k| Self::known_count(node, v) >= k);
            if own || cert {
                closed.insert(v);
            }
        }
        closed
    }

    fn try_output(&self, node: &mut NodeState, ctx: &Ctx) {
        let closed = self.closed_values(node, ctx);
        let mut ready = Instance::new();
        for component in node.local.components() {
            if component.adom().iter().all(|v| closed.contains(v)) {
                ready.extend_from(&component);
            }
        }
        let result = self.query.eval(&ready);
        node.output_all(&result);
    }

    /// The certificates this node can issue: counts for every local value
    /// it is responsible for.
    fn certificates(node: &NodeState, ctx: &Ctx) -> Vec<Fact> {
        node.local
            .adom()
            .into_iter()
            .filter(|&v| Self::in_alpha(node, ctx, v))
            .map(|v| Fact::new(cert_rel(), [v, Val(Self::known_count(node, v))]))
            .collect()
    }
}

impl TransducerProgram for DisjointComponent {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self, node: &mut NodeState, ctx: &Ctx) -> Broadcast {
        self.try_output(node, ctx);
        let mut out: Vec<Fact> = node.local.iter().cloned().collect();
        out.extend(Self::certificates(node, ctx));
        out
    }

    fn on_fact(&self, node: &mut NodeState, _from: usize, fact: &Fact, ctx: &Ctx) -> Broadcast {
        if fact.rel == cert_rel() {
            node.aux.insert(fact.clone());
        } else {
            node.local.insert(fact.clone());
        }
        self.try_output(node, ctx);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{ideal_distribution, policy_distribution};
    use crate::scheduler::{run, RunCtx, RunMode, Schedule};
    use parlog_relal::fact::fact;
    use parlog_relal::policy::{DomainGuidedPolicy, ReplicateAll};

    /// The complement-of-TC query (Example 5.10, Q¬TC ∈ Mdisjoint),
    /// evaluated per instance by the stratified Datalog engine.
    fn ntc_query() -> impl QueryFunction {
        let p = parlog_datalog::program::parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             NTC(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        move |db: &Instance| {
            let out = parlog_datalog::eval::eval_program(
                &p,
                db,
                parlog_relal::eval::EvalStrategy::Indexed,
            )
            .unwrap();
            Instance::from_facts(out.relation(rel("NTC")).cloned().collect::<Vec<_>>())
        }
    }

    fn two_component_graph() -> Instance {
        Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[10, 11])])
    }

    fn guided_policy(n: usize) -> Arc<DomainGuidedPolicy> {
        Arc::new(DomainGuidedPolicy::new(n, 13))
    }

    #[test]
    fn ntc_under_domain_guided_policy() {
        let db = two_component_graph();
        let q = ntc_query();
        let expected = q.eval(&db);
        assert!(expected.contains(&fact("NTC", &[3, 1])));
        assert!(expected.contains(&fact("NTC", &[1, 10])));
        let policy = guided_policy(3);
        let shards = policy_distribution(&db, policy.as_ref());
        let p = DisjointComponent::new(ntc_query());
        for schedule in [Schedule::Random(5), Schedule::Fifo, Schedule::Lifo] {
            let ctx = Ctx::oblivious().with_policy(policy.clone());
            let out = run(&p, &shards, &RunCtx::simulated(ctx, schedule)).output;
            assert_eq!(out, expected, "{schedule:?}");
        }
    }

    #[test]
    fn coordination_free_on_ideal_distribution() {
        let db = two_component_graph();
        let q = ntc_query();
        let expected = q.eval(&db);
        let p = DisjointComponent::new(ntc_query());
        let ctx = Ctx::oblivious().with_policy(Arc::new(ReplicateAll { num_nodes: 3 }));
        let out = run(
            &p,
            &ideal_distribution(&db, 3),
            &RunCtx::new(ctx, RunMode::HeartbeatsOnly),
        )
        .output;
        assert_eq!(out, expected);
    }

    #[test]
    fn prefix_outputs_stay_sound() {
        // Q¬TC on a partial component would wrongly claim unreachability;
        // the closure certificates prevent any such premature output.
        let db = two_component_graph();
        let q = ntc_query();
        let expected = q.eval(&db);
        let policy = guided_policy(4);
        let shards = policy_distribution(&db, policy.as_ref());
        let p = DisjointComponent::new(ntc_query());
        let ctx = Ctx::oblivious().with_policy(policy);
        let rc = RunCtx::simulated(ctx, Schedule::Random(21));
        let mut run = crate::scheduler::SimRun::new(&p, &shards, &rc);
        let mut rng = rand::SeedableRng::seed_from_u64(21);
        let mut rr = 0;
        loop {
            assert!(
                run.outputs().is_subset_of(&expected),
                "premature output is unsound: {:?}",
                run.outputs().difference(&expected)
            );
            if !run.step(&p, Schedule::Random(21), &mut rng, &mut rr) {
                break;
            }
        }
        assert_eq!(run.outputs(), expected);
    }

    #[test]
    fn win_move_under_well_founded_semantics() {
        // Section 5.3: win–move (true facts of the well-founded model) is
        // domain-disjoint-monotone, hence computable in F2.
        let wm = parlog_datalog::wellfounded::win_move_program();
        let q = move |db: &Instance| {
            parlog_datalog::wellfounded::well_founded(&wm, db)
                .map(|m| {
                    Instance::from_facts(
                        m.true_facts
                            .relation(rel("Win"))
                            .cloned()
                            .collect::<Vec<_>>(),
                    )
                })
                .unwrap_or_default()
        };
        // Two disjoint games: a path (1→2→3) and a draw cycle (10 ↔ 11).
        let db = Instance::from_facts([
            fact("Move", &[1, 2]),
            fact("Move", &[2, 3]),
            fact("Move", &[10, 11]),
            fact("Move", &[11, 10]),
        ]);
        let expected = q.eval(&db);
        assert!(expected.contains(&fact("Win", &[2])));
        assert_eq!(expected.len(), 1);
        let policy = guided_policy(3);
        let shards = policy_distribution(&db, policy.as_ref());
        let p = DisjointComponent::new(q);
        let ctx = Ctx::oblivious().with_policy(policy);
        let out = run(&p, &shards, &RunCtx::simulated(ctx, Schedule::Random(2))).output;
        assert_eq!(out, expected);
    }
}
