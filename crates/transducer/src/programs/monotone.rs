//! The naive broadcast program for monotone queries — Example 5.1(1).
//!
//! "1. Output all triangles in H(κ). 2. Broadcast H(κ). 3. If a new edge
//! is received, add it to H(κ) and output any new triangles."
//!
//! Works for every monotone query because "adding more edges to the graph
//! can never invalidate previously output triangles". Coordination-free:
//! the ideal distribution assigns the whole database to every node, on
//! which init alone produces `Q(I)`. Oblivious: never consults `All`.

use crate::network::{NodeState, QueryFunction};
use crate::program::{Broadcast, Ctx, TransducerProgram};
use parlog_relal::fact::Fact;
use std::sync::Arc;

/// Broadcast-everything evaluation of a monotone query (class F0/A0).
#[derive(Clone)]
pub struct MonotoneBroadcast {
    query: Arc<dyn QueryFunction>,
    name: String,
}

impl MonotoneBroadcast {
    /// Wrap a monotone query. (Monotonicity is the caller's obligation —
    /// Theorem 5.3 says exactly the monotone queries are computed
    /// correctly by this strategy; `parlog::calm` provides testers.)
    pub fn new<Q: QueryFunction + 'static>(query: Q) -> MonotoneBroadcast {
        MonotoneBroadcast {
            query: Arc::new(query),
            name: "monotone-broadcast".into(),
        }
    }

    fn emit(&self, node: &mut NodeState) {
        let result = self.query.eval(&node.local);
        node.output_all(&result);
    }
}

impl TransducerProgram for MonotoneBroadcast {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self, node: &mut NodeState, _ctx: &Ctx) -> Broadcast {
        self.emit(node);
        node.local.iter().cloned().collect()
    }

    fn on_fact(&self, node: &mut NodeState, _from: usize, fact: &Fact, _ctx: &Ctx) -> Broadcast {
        if node.local.insert(fact.clone()) {
            self.emit(node);
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{hash_distribution, ideal_distribution, single_node_distribution};
    use crate::scheduler::{run, RunCtx, RunMode, Schedule, SimRun};
    use parlog_relal::fact::fact;
    use parlog_relal::instance::Instance;
    use parlog_relal::parser::parse_query;

    fn triangle_graph() -> Instance {
        Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[3, 4]),
            fact("E", &[4, 5]),
        ])
    }

    fn q() -> parlog_relal::ConjunctiveQuery {
        parse_query("H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, z != x").unwrap()
    }

    #[test]
    fn computes_triangles_on_all_distributions() {
        let db = triangle_graph();
        let expected = parlog_relal::eval::eval_query(&q(), &db);
        assert!(!expected.is_empty());
        let p = MonotoneBroadcast::new(q());
        for dist in [
            ideal_distribution(&db, 3),
            single_node_distribution(&db, 3),
            hash_distribution(&db, 3, 7),
        ] {
            for seed in 0..5 {
                let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed));
                assert_eq!(run(&p, &dist, &rc).output, expected);
            }
        }
    }

    #[test]
    fn coordination_free_on_ideal_distribution() {
        let db = triangle_graph();
        let expected = parlog_relal::eval::eval_query(&q(), &db);
        let p = MonotoneBroadcast::new(q());
        let out = run(
            &p,
            &ideal_distribution(&db, 3),
            &RunCtx::new(Ctx::oblivious(), RunMode::HeartbeatsOnly),
        )
        .output;
        assert_eq!(out, expected);
    }

    #[test]
    fn not_complete_without_reading_on_split_data() {
        // On a non-ideal distribution, the heartbeat-only run under-
        // approximates (messages are sent but never read) — outputs are
        // sound but incomplete. This is why coordination-freeness
        // existentially quantifies the distribution.
        let db = triangle_graph();
        let expected = parlog_relal::eval::eval_query(&q(), &db);
        let p = MonotoneBroadcast::new(q());
        let dist = hash_distribution(&db, 3, 1);
        let out = run(
            &p,
            &dist,
            &RunCtx::new(Ctx::oblivious(), RunMode::HeartbeatsOnly),
        )
        .output;
        assert!(out.is_subset_of(&expected));
        assert_ne!(out, expected, "the hash split separates the triangle");
    }

    #[test]
    fn works_with_datalog_query() {
        let p_dl = parlog_datalog::program::parse_program(
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)",
        )
        .unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
        let expected = parlog_datalog::eval::eval_program(
            &p_dl,
            &db,
            parlog_relal::eval::EvalStrategy::Indexed,
        )
        .unwrap();
        let prog = MonotoneBroadcast::new(p_dl);
        let out = run(
            &prog,
            &hash_distribution(&db, 2, 3),
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(9)),
        )
        .output;
        assert_eq!(out, expected);
    }

    #[test]
    fn outputs_are_never_retracted() {
        // Eventual consistency: outputs only grow along a run.
        let db = triangle_graph();
        let p = MonotoneBroadcast::new(q());
        let dist = hash_distribution(&db, 3, 5);
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(11));
        let mut run = SimRun::new(&p, &dist, &rc);
        let mut rng = rand::SeedableRng::seed_from_u64(11);
        let mut rr = 0;
        let mut prev = run.outputs();
        while run.step(&p, Schedule::Random(11), &mut rng, &mut rr) {
            let now = run.outputs();
            assert!(prev.is_subset_of(&now), "output was retracted");
            prev = now;
        }
    }
}
