//! Economical broadcasting for full conjunctive queries without
//! self-joins — the Ketsman–Neven direction discussed in Section 6.
//!
//! "Ketsman and Neven investigate more economical broadcasting strategies
//! for full conjunctive queries without self-joins that only transmit a
//! part of the local data necessary to evaluate the query at hand."
//!
//! Our strategy transmits only the facts that can possibly participate in
//! a valuation: facts whose relation occurs in the query and which match
//! some body atom (constants and repeated-variable patterns respected).
//! For full CQs without self-joins this is complete — every valuation's
//! required facts are atom-matching — while everything else stays local.
//! The saving is measured against [`crate::programs::monotone::MonotoneBroadcast`]
//! via [`crate::RunOutcome::facts_broadcast`].

use crate::network::NodeState;
use crate::program::{Broadcast, Ctx, TransducerProgram};
use parlog_relal::eval::eval_query;
use parlog_relal::fact::Fact;
use parlog_relal::query::ConjunctiveQuery;

/// Broadcast only query-relevant facts (class F0, for monotone CQs).
#[derive(Clone)]
pub struct EconomicalBroadcast {
    query: ConjunctiveQuery,
    name: String,
}

impl EconomicalBroadcast {
    /// Wrap a full CQ without self-joins.
    ///
    /// # Panics
    /// Panics if the query has a self-join or is not full — the regime the
    /// strategy is proven complete for.
    pub fn new(query: ConjunctiveQuery) -> EconomicalBroadcast {
        assert!(
            !query.has_self_join(),
            "economical broadcasting targets self-join-free queries"
        );
        assert!(
            query.is_full(),
            "economical broadcasting targets full queries"
        );
        assert!(query.is_plain_cq(), "plain CQs only");
        EconomicalBroadcast {
            query,
            name: "economical-broadcast".into(),
        }
    }

    /// Is the fact relevant: does it match some body atom?
    pub fn relevant(&self, f: &Fact) -> bool {
        self.query.body.iter().any(|a| a.matches(f))
    }

    fn emit(&self, node: &mut NodeState) {
        let result = eval_query(&self.query, &node.local);
        node.output_all(&result);
    }
}

impl TransducerProgram for EconomicalBroadcast {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self, node: &mut NodeState, _ctx: &Ctx) -> Broadcast {
        self.emit(node);
        node.local
            .iter()
            .filter(|f| self.relevant(f))
            .cloned()
            .collect()
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
    use crate::distribution::hash_distribution;
    use crate::programs::monotone::MonotoneBroadcast;
    use crate::scheduler::{run, RunCtx, Schedule};
    use parlog_relal::fact::fact;
    use parlog_relal::instance::Instance;
    use parlog_relal::parser::parse_query;

    fn q() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
    }

    fn db_with_noise() -> Instance {
        let mut db = Instance::new();
        for i in 0..20u64 {
            db.insert(fact("R", &[i, i + 100]));
            db.insert(fact("S", &[i + 100, i + 200]));
            // Irrelevant relation and non-matching facts.
            db.insert(fact("Noise", &[i, i, i]));
        }
        db.insert(fact("R", &[1, 2, 3])); // arity mismatch: irrelevant
        db
    }

    #[test]
    fn computes_the_query() {
        let db = db_with_noise();
        let expected = parlog_relal::eval::eval_query(&q(), &db);
        assert_eq!(expected.len(), 20);
        let p = EconomicalBroadcast::new(q());
        let dist = hash_distribution(&db, 3, 5);
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(1));
        assert_eq!(run(&p, &dist, &rc).output, expected);
    }

    #[test]
    fn transmits_strictly_less_than_naive_broadcast() {
        let db = db_with_noise();
        let dist = hash_distribution(&db, 3, 5);

        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Fifo);
        let eco_run = run(&EconomicalBroadcast::new(q()), &dist, &rc);
        let naive_run = run(&MonotoneBroadcast::new(q()), &dist, &rc);

        assert_eq!(eco_run.output, naive_run.output);
        assert!(
            eco_run.facts_broadcast < naive_run.facts_broadcast,
            "economical {} vs naive {}",
            eco_run.facts_broadcast,
            naive_run.facts_broadcast
        );
        // Exactly the noise is saved: 40 relevant facts.
        assert_eq!(eco_run.facts_broadcast, 40);
    }

    #[test]
    fn constants_tighten_relevance() {
        let qc = parse_query("H(x,y) <- R(7, x), S(x, y)").unwrap();
        let p = EconomicalBroadcast::new(qc);
        assert!(p.relevant(&fact("R", &[7, 1])));
        assert!(!p.relevant(&fact("R", &[8, 1])));
        assert!(p.relevant(&fact("S", &[1, 2])));
    }

    #[test]
    #[should_panic(expected = "self-join")]
    fn self_joins_rejected() {
        EconomicalBroadcast::new(parse_query("H(x,y,z) <- R(x,y), R(y,z)").unwrap());
    }

    #[test]
    #[should_panic(expected = "full")]
    fn non_full_rejected() {
        EconomicalBroadcast::new(parse_query("H(x) <- R(x,y), S(y,z)").unwrap());
    }
}
