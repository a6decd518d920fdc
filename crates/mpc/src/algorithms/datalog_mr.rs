//! Recursive Datalog on the cluster — "Afrati and Ullman investigated
//! ways to evaluate transitive closure and recursive Datalog in
//! MapReduce" (§3.2).
//!
//! Distributed semi-naive evaluation: the EDB is hash-partitioned once;
//! each fixpoint iteration is one MPC round in which the current *delta*
//! facts are rehashed to meet their join partners. Two classic strategies
//! for transitive closure:
//!
//! * **linear** TC (`TC(x,y) ← TC(x,z), E(z,y)`): rounds = the longest
//!   path length — small per-round communication;
//! * **non-linear** / recursive-doubling TC (`TC(x,y) ← TC(x,z), TC(z,y)`):
//!   rounds = ⌈log₂ diameter⌉ — fewer synchronization barriers, more
//!   communication per round. The rounds-vs-communication trade-off again.

use crate::cluster::{layer, rule, rule_unless, Cluster};
use crate::partition::{route_by_key, seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use parlog_relal::atom::{Atom, Term};
use parlog_relal::instance::Instance;
use parlog_relal::shard::Relations;
use parlog_relal::symbols::{rel, RelId};

/// Which TC strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcStrategy {
    /// `TC ← TC ⋈ E` (right-linear).
    Linear,
    /// `TC ← TC ⋈ TC` (recursive doubling).
    NonLinear,
}

/// Distributed transitive closure over a binary EDB relation.
#[derive(Debug, Clone)]
pub struct DistributedTc {
    edge_rel: RelId,
    out_rel: RelId,
    strategy: TcStrategy,
    p: usize,
    seed: u64,
}

impl DistributedTc {
    /// Build for edges in `edge_name`, output in `out_name`.
    pub fn new(
        edge_name: &str,
        out_name: &str,
        strategy: TcStrategy,
        p: usize,
        seed: u64,
    ) -> DistributedTc {
        DistributedTc {
            edge_rel: rel(edge_name),
            out_rel: rel(out_name),
            strategy,
            p,
            seed,
        }
    }

    /// Run to fixpoint. TC facts are partitioned by their *source* value;
    /// each iteration reshuffles only the delta (and, for the linear
    /// strategy, keeps the edges hashed by source once).
    pub fn run(&self, db: &Instance) -> RunReport {
        let delta_rel = rel(&format!("‡ΔTC_{}", self.seed));
        let pending_rel = rel(&format!("‡pend_{}", self.seed));
        let (tc_rel, edge) = (self.out_rel, self.edge_rel);
        let h = HashPartitioner::new(self.seed ^ 0xdc, self.p);
        let pair = |r: RelId, a: &str, b: &str| Atom::new(r, vec![Term::var(a), Term::var(b)]);

        // Round 0: hash the edges by source; they seed both E (kept
        // hashed) and the first delta. Nothing but the edges is loaded.
        let mut cluster = Cluster::new(self.p);
        let edges = Instance::from_facts(db.relation(edge).cloned());
        seed_cluster(&mut cluster, &edges, InitialPartition::RoundRobin);
        route_by_key(&mut cluster, &[(edge, vec![0], h)]);
        let seeds =
            [tc_rel, delta_rel].map(|r| rule(pair(r, "x", "y"), vec![pair(edge, "x", "y")]));
        cluster.compute_rules(&[layer(&seeds)], &[]);

        // One iteration, as rules: Δ(x,z) meets its partner (E or TC,
        // hashed by source) at h(z) — `P(x,y) <- Δ(x,z), E|TC(z,y)` —
        // and the pending facts, rehashed home by source, become the next
        // delta where they are new: `Δ <- P, not TC`, then `TC <- P`.
        let (partner, name) = match self.strategy {
            TcStrategy::Linear => (edge, "tc-linear"),
            TcStrategy::NonLinear => (tc_rel, "tc-doubling"),
        };
        let step = [layer(&[rule(
            pair(pending_rel, "x", "y"),
            vec![pair(delta_rel, "x", "z"), pair(partner, "z", "y")],
        )])];
        let fresh = rule_unless(
            pair(delta_rel, "x", "y"),
            vec![pair(pending_rel, "x", "y")],
            vec![pair(tc_rel, "x", "y")],
        );
        let promote = rule(pair(tc_rel, "x", "y"), vec![pair(pending_rel, "x", "y")]);
        let settle = [layer(&[fresh]), layer(&[promote])];
        while (0..self.p).any(|s| cluster.shard(s).relation_len(delta_rel) > 0) {
            route_by_key(&mut cluster, &[(delta_rel, vec![1], h)]);
            cluster.compute_rules(&step, &[delta_rel]);
            route_by_key(&mut cluster, &[(pending_rel, vec![0], h)]);
            cluster.compute_rules(&settle, &[pending_rel]);
        }

        // Only the closure is output.
        cluster.compute_rules(&[], &[edge]);
        RunReport::from_cluster(name, &cluster, db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::fact::{fact, Fact};

    fn chain(n: u64) -> Instance {
        Instance::from_facts((0..n).map(|i| fact("E", &[i, i + 1])))
    }

    /// Reference: naive centralized transitive-closure fixpoint.
    fn expected_tc(db: &Instance) -> Instance {
        let e = rel("E");
        let t = rel("TC");
        let mut tc = Instance::from_facts(
            db.relation(e)
                .map(|f| Fact::new(t, f.args.clone()))
                .collect::<Vec<_>>(),
        );
        loop {
            let mut new = Vec::new();
            for a in tc.relation(t) {
                for b in tc.relation(t) {
                    if a.args[1] == b.args[0] {
                        let f = Fact::new(t, [a.args[0], b.args[1]]);
                        if !tc.contains(&f) {
                            new.push(f);
                        }
                    }
                }
            }
            if new.is_empty() {
                return tc;
            }
            for f in new {
                tc.insert(f);
            }
        }
    }

    #[test]
    fn linear_tc_on_chain() {
        let db = chain(10);
        let r = DistributedTc::new("E", "TC", TcStrategy::Linear, 4, 1).run(&db);
        assert_eq!(r.output, expected_tc(&db));
        assert_eq!(r.output.len(), 55); // 10+9+…+1
    }

    #[test]
    fn doubling_tc_on_chain_uses_fewer_iterations() {
        let db = chain(16);
        let lin = DistributedTc::new("E", "TC", TcStrategy::Linear, 4, 1).run(&db);
        let dbl = DistributedTc::new("E", "TC", TcStrategy::NonLinear, 4, 1).run(&db);
        assert_eq!(lin.output, dbl.output);
        // Rounds: each iteration costs 2 reshuffles + 1 initial hash.
        // Linear needs ~16 iterations, doubling ~log2(16)+1 = 5.
        assert!(
            dbl.stats.rounds < lin.stats.rounds / 2,
            "doubling {} vs linear {}",
            dbl.stats.rounds,
            lin.stats.rounds
        );
        // …at the price of more communication.
        assert!(dbl.stats.total_comm > lin.stats.total_comm);
    }

    #[test]
    fn tc_on_random_graph_with_cycles() {
        let db = datagen::random_graph("E", 12, 30, 7);
        let lin = DistributedTc::new("E", "TC", TcStrategy::Linear, 4, 3).run(&db);
        let dbl = DistributedTc::new("E", "TC", TcStrategy::NonLinear, 4, 3).run(&db);
        let want = expected_tc(&db);
        assert_eq!(lin.output, want);
        assert_eq!(dbl.output, want);
    }

    #[test]
    fn empty_graph() {
        let r = DistributedTc::new("E", "TC", TcStrategy::Linear, 4, 0).run(&Instance::new());
        assert!(r.output.is_empty());
    }
}
