//! The explicitly *coordinating* broadcast of Example 5.1(2).
//!
//! Non-monotone queries (the open-triangle query) cannot be computed
//! coordination-free in the plain model (Theorem 5.3). The correct-but-
//! coordinating strategy: every node broadcasts its data plus an
//! end-of-data marker carrying how many facts it sent; a node outputs
//! `Q(everything)` once it has received every other node's complete data.
//! This "requires that every node knows all other nodes participating in
//! the network" — the program needs the `All` relation, so it lives
//! outside the oblivious classes `A0/A1/A2`.
//!
//! ## The duplication bug, and its fix
//!
//! The fault matrix (PR 1) found the plain counting barrier **unsound
//! under message duplication**: a duplicated delivery can be the one that
//! brings a sender's count up to its end-of-data total while a distinct
//! fact is still in flight, so the barrier opens on incomplete data.
//! [`CoordinatedBroadcast::idempotent`] fixes it with *sequence-numbered
//! idempotent delivery*: each sender broadcasts every fact at most once
//! (the runtime's per-sender dedup makes fact identity a per-sender
//! sequence number), and the receiver keeps a ledger of `(sender, fact)`
//! pairs already counted — a duplicate hits the ledger and is absorbed
//! instead of advancing the count. The unfixed variant
//! ([`CoordinatedBroadcast::new`]) is kept as the regression witness the
//! matrix checks.

use crate::network::{NodeState, QueryFunction};
use crate::program::{Broadcast, Ctx, TransducerProgram};
use parlog_faults::mix64;
use parlog_relal::fact::{Fact, Val};
use parlog_relal::symbols::{rel, RelId};
use std::sync::Arc;

/// The reserved end-of-data marker relation `‡EOD(sender, fact_count)`.
fn eod_rel() -> RelId {
    rel("‡EOD")
}

/// Per-sender received-count bookkeeping relation `‡CNT(sender, n)` in the
/// node's aux state.
fn cnt_rel() -> RelId {
    rel("‡CNT")
}

/// Receiver-side delivery ledger `‡SEEN(sender, tag)`: which `(sender,
/// message)` pairs have already been counted. The tag is a 64-bit mix of
/// the fact's relation and arguments — per sender it identifies the
/// message, because each sender broadcasts each distinct fact once.
fn seen_rel() -> RelId {
    rel("‡SEEN")
}

/// Barrier acknowledgements `‡ACK(sender)`: node `sender` announces its
/// counting barrier has opened. The quorum-gated variant commits only
/// once a strict majority of nodes (itself included) has announced.
fn ack_rel() -> RelId {
    rel("‡ACK")
}

/// The per-sender sequence tag of a data fact.
fn fact_tag(f: &Fact) -> u64 {
    let mut h = mix64(0xc0_0bd1 ^ u64::from(f.rel.0));
    for v in &f.args {
        h = mix64(h ^ v.0);
    }
    h
}

/// Barrier-style evaluation of an arbitrary (possibly non-monotone) query.
#[derive(Clone)]
pub struct CoordinatedBroadcast {
    query: Arc<dyn QueryFunction>,
    name: String,
    /// Count each `(sender, message)` pair at most once. `false` is the
    /// historically unsound-under-duplication behavior, kept as a
    /// regression witness.
    idempotent: bool,
    /// Quorum-gate the commit: a node that reaches its barrier
    /// broadcasts an ack and outputs only once a strict majority of
    /// nodes has acked. Under a partition no side commits on split data
    /// — the minority (and a majority still missing data) *blocks*
    /// instead of diverging, and held acks flush on heal.
    quorum: bool,
}

impl CoordinatedBroadcast {
    /// Wrap any query function — the plain counting barrier, **unsound
    /// under message duplication** (the fault matrix's regression
    /// witness). Use [`CoordinatedBroadcast::idempotent`] for the fixed
    /// protocol.
    pub fn new<Q: QueryFunction + 'static>(query: Q) -> CoordinatedBroadcast {
        CoordinatedBroadcast {
            query: Arc::new(query),
            name: "coordinated-broadcast".into(),
            idempotent: false,
            quorum: false,
        }
    }

    /// The fixed barrier: sequence-numbered idempotent delivery — a
    /// duplicated message never advances a receiver's count, so the
    /// barrier opens exactly when every sender's distinct messages have
    /// all arrived.
    pub fn idempotent<Q: QueryFunction + 'static>(query: Q) -> CoordinatedBroadcast {
        CoordinatedBroadcast {
            query: Arc::new(query),
            name: "coordinated-broadcast-seq".into(),
            idempotent: true,
            quorum: false,
        }
    }

    /// The partition-safe barrier: idempotent delivery *plus* a
    /// majority-ack commit gate. A node that reaches its barrier
    /// broadcasts `‡ACK(id)` and commits its output only once a strict
    /// majority of the network (itself included) has acked — so under a
    /// partition the minority side blocks instead of diverging, and
    /// after heal the flushed acks let every side commit the same
    /// answer.
    pub fn quorum_gated<Q: QueryFunction + 'static>(query: Q) -> CoordinatedBroadcast {
        CoordinatedBroadcast {
            query: Arc::new(query),
            name: "coordinated-broadcast-quorum".into(),
            idempotent: true,
            quorum: true,
        }
    }

    /// Distinct nodes whose barrier-open ack this node has recorded.
    fn ack_count(node: &NodeState) -> usize {
        node.aux.relation(ack_rel()).count()
    }

    fn received_count(node: &NodeState, from: usize) -> u64 {
        node.aux
            .relation(cnt_rel())
            .find(|f| f.args[0] == Val(from as u64))
            .map(|f| f.args[1].0)
            .unwrap_or(0)
    }

    fn bump_count(node: &mut NodeState, from: usize) {
        let old = Self::received_count(node, from);
        node.aux
            .remove(&Fact::new(cnt_rel(), [Val(from as u64), Val(old)]));
        node.aux
            .insert(Fact::new(cnt_rel(), [Val(from as u64), Val(old + 1)]));
    }

    fn expected_count(node: &NodeState, from: usize) -> Option<u64> {
        node.aux
            .relation(eod_rel())
            .find(|f| f.args[0] == Val(from as u64))
            .map(|f| f.args[1].0)
    }

    fn barrier_reached(&self, node: &NodeState, ctx: &Ctx) -> bool {
        let n = ctx.all.expect("program requires All");
        (0..n).filter(|&j| j != node.id).all(|j| {
            Self::expected_count(node, j).is_some_and(|k| Self::received_count(node, j) == k)
        })
    }

    /// Open the barrier if complete, then commit — directly, or through
    /// the majority-ack gate. Returns control traffic to broadcast (the
    /// node's own ack, the first time its barrier opens).
    fn try_output(&self, node: &mut NodeState, ctx: &Ctx) -> Broadcast {
        if !self.barrier_reached(node, ctx) {
            return Vec::new();
        }
        if !self.quorum {
            let result = self.query.eval(&node.local);
            node.output_all(&result);
            return Vec::new();
        }
        let n = ctx.all.expect("program requires All");
        let own = Fact::new(ack_rel(), [Val(node.id as u64)]);
        let fresh = node.aux.insert(own.clone());
        if 2 * Self::ack_count(node) > n {
            let result = self.query.eval(&node.local);
            node.output_all(&result);
        }
        if fresh {
            vec![own]
        } else {
            Vec::new()
        }
    }
}

impl TransducerProgram for CoordinatedBroadcast {
    fn name(&self) -> &str {
        &self.name
    }

    fn requires_all(&self) -> bool {
        true
    }

    fn init(&self, node: &mut NodeState, ctx: &Ctx) -> Broadcast {
        let mut out: Vec<Fact> = node.local.iter().cloned().collect();
        out.push(Fact::new(
            eod_rel(),
            [Val(node.id as u64), Val(out.len() as u64)],
        ));
        // A single-node network is already complete (and is its own
        // majority), so the barrier may open right here.
        out.extend(self.try_output(node, ctx));
        out
    }

    fn on_fact(&self, node: &mut NodeState, from: usize, fact: &Fact, ctx: &Ctx) -> Broadcast {
        if fact.rel == eod_rel() || fact.rel == ack_rel() {
            // Control traffic: never advances a sender's data count.
            node.aux.insert(fact.clone());
        } else {
            let fresh = !self.idempotent
                || node.aux.insert(Fact::new(
                    seen_rel(),
                    [Val(from as u64), Val(fact_tag(fact))],
                ));
            if fresh {
                Self::bump_count(node, from);
            }
            node.local.insert(fact.clone());
        }
        self.try_output(node, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{hash_distribution, ideal_distribution, single_node_distribution};
    use crate::scheduler::{run, RunCtx, RunMode, RunOutcome, Schedule};
    use parlog_relal::fact::fact;
    use parlog_relal::instance::Instance;
    use parlog_relal::parser::parse_query;

    /// A simulated run under `schedule`, network-aware, faulted by `plan`.
    fn sim(
        p: &CoordinatedBroadcast,
        dist: &[Instance],
        schedule: Schedule,
        plan: Option<&parlog_faults::FaultPlan>,
    ) -> RunOutcome {
        let rc = RunCtx::simulated(Ctx::aware(dist.len()), schedule);
        run(p, dist, &RunCtx { faults: plan, ..rc })
    }

    /// A heartbeat-only run's output.
    fn heartbeats(p: &CoordinatedBroadcast, dist: &[Instance]) -> Instance {
        let rc = RunCtx::new(Ctx::aware(dist.len()), RunMode::HeartbeatsOnly);
        run(p, dist, &rc).output
    }

    fn open_triangle_query() -> parlog_relal::ConjunctiveQuery {
        parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap()
    }

    fn graph() -> Instance {
        Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]), // closed triangle 1-2-3
            fact("E", &[2, 4]), // 1-2-4 is open
        ])
    }

    #[test]
    fn computes_open_triangles_on_every_distribution() {
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        assert!(expected.contains(&fact("H", &[1, 2, 4])));
        let p = CoordinatedBroadcast::new(q);
        for dist in [
            ideal_distribution(&db, 3),
            single_node_distribution(&db, 3),
            hash_distribution(&db, 3, 7),
            hash_distribution(&db, 4, 8),
        ] {
            for seed in 0..4 {
                assert_eq!(
                    sim(&p, &dist, Schedule::Random(seed), None).output,
                    expected
                );
            }
        }
    }

    #[test]
    fn robust_under_adversarial_reordering() {
        // LIFO delivery maximally reorders: EOD markers overtake data.
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = CoordinatedBroadcast::new(q);
        let dist = hash_distribution(&db, 3, 2);
        let out = sim(&p, &dist, Schedule::Lifo, None).output;
        assert_eq!(out, expected);
    }

    #[test]
    fn is_not_coordination_free_in_behavior() {
        // Even on the ideal distribution, the barrier waits for messages:
        // a heartbeat-only run outputs nothing on networks with > 1 node.
        let db = graph();
        let q = open_triangle_query();
        let p = CoordinatedBroadcast::new(q);
        let out = heartbeats(&p, &ideal_distribution(&db, 3));
        assert!(out.is_empty(), "barrier must block without messages");
    }

    #[test]
    fn single_node_outputs_immediately() {
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = CoordinatedBroadcast::new(q);
        let out = heartbeats(&p, &ideal_distribution(&db, 1));
        assert_eq!(out, expected);
    }

    #[test]
    fn idempotent_barrier_absorbs_duplication() {
        // The fix for the duplication unsoundness found by the fault
        // matrix: with sequence-numbered idempotent delivery the barrier
        // is exact under the very fault that breaks the plain counter.
        use parlog_faults::{FaultClass, FaultPlan};
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let dist = hash_distribution(&db, 3, 2);
        let mut witness_deviated = false;
        for seed in 1..=3u64 {
            let plan = FaultPlan::for_class(FaultClass::Duplicate, seed);
            let fixed = CoordinatedBroadcast::idempotent(q.clone());
            let RunOutcome {
                output: out, stats, ..
            } = sim(&fixed, &dist, Schedule::Random(seed), Some(&plan));
            assert!(stats.duplicated > 0, "the plan must actually duplicate");
            assert_eq!(out, expected, "idempotent barrier, seed {seed}");
            let plain = CoordinatedBroadcast::new(q.clone());
            let out = sim(&plain, &dist, Schedule::Random(seed), Some(&plan)).output;
            if out != expected {
                witness_deviated = true;
            }
        }
        assert!(
            witness_deviated,
            "the unfixed barrier must remain a regression witness under duplication"
        );
    }

    #[test]
    fn idempotent_barrier_unchanged_on_benign_runs() {
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = CoordinatedBroadcast::idempotent(q);
        for dist in [
            ideal_distribution(&db, 3),
            single_node_distribution(&db, 3),
            hash_distribution(&db, 3, 7),
        ] {
            for seed in 0..3 {
                assert_eq!(
                    sim(&p, &dist, Schedule::Random(seed), None).output,
                    expected
                );
            }
        }
    }

    #[test]
    fn quorum_gated_barrier_exact_on_benign_runs() {
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = CoordinatedBroadcast::quorum_gated(q);
        for dist in [
            ideal_distribution(&db, 3),
            single_node_distribution(&db, 3),
            hash_distribution(&db, 3, 7),
            hash_distribution(&db, 4, 8),
        ] {
            for seed in 0..3 {
                assert_eq!(
                    sim(&p, &dist, Schedule::Random(seed), None).output,
                    expected
                );
            }
        }
        // Single node: its own ack is already a strict majority.
        let out = heartbeats(&p, &ideal_distribution(&db, 1));
        assert_eq!(
            out,
            parlog_relal::eval::eval_query(&open_triangle_query(), &db)
        );
    }

    #[test]
    fn quorum_gated_barrier_converges_after_partition_heals() {
        use parlog_faults::{FaultPlan, PartitionPlan};
        let db = graph();
        let q = open_triangle_query();
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let dist = hash_distribution(&db, 3, 2);
        for seed in 1..=3u64 {
            let plan =
                FaultPlan::partitioned(seed, PartitionPlan::split(0, 30 + seed as usize, &[0]));
            let p = CoordinatedBroadcast::quorum_gated(q.clone());
            let RunOutcome {
                output: out, stats, ..
            } = sim(&p, &dist, Schedule::Random(seed), Some(&plan));
            assert!(stats.partitioned > 0, "seed {seed}: the split must bite");
            assert_eq!(out, expected, "seed {seed}: flushed acks commit exactly");
        }
    }

    #[test]
    fn quorum_gated_barrier_blocks_instead_of_diverging_under_permanent_split() {
        use parlog_faults::{FaultPlan, PartitionPlan};
        let db = graph();
        let q = open_triangle_query();
        let dist = hash_distribution(&db, 3, 2);
        let plan = FaultPlan::partitioned(9, PartitionPlan::permanent_split(0, &[0]));
        let p = CoordinatedBroadcast::quorum_gated(q);
        let RunOutcome {
            output: out, stats, ..
        } = sim(&p, &dist, Schedule::Random(9), Some(&plan));
        assert!(stats.partitioned > 0, "the split must bite");
        // Neither side may commit an answer computed over split data: a
        // non-monotone commit without full data would be *wrong*, so
        // blocking (empty output) is the only safe behavior.
        assert!(out.is_empty(), "no side may commit on split data");
    }

    #[test]
    fn duplicate_facts_across_nodes_are_counted_per_sender() {
        // Both nodes hold the same fact: barrier still resolves.
        let db = Instance::from_facts([fact("E", &[1, 2])]);
        let q = open_triangle_query();
        let p = CoordinatedBroadcast::new(q.clone());
        let dist = ideal_distribution(&db, 2);
        let out = sim(&p, &dist, Schedule::Random(5), None).output;
        assert_eq!(out, parlog_relal::eval::eval_query(&q, &db));
    }
}
