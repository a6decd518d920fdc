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

use crate::cluster::{Cluster, Routing};
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::{fxmap, FxMap};
use parlog_relal::instance::Instance;
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
        let p = self.p;
        let delta_rel = rel(&format!("‡ΔTC_{}", self.seed));
        let tc_rel = self.out_rel;
        let edge = self.edge_rel;
        let h = HashPartitioner::new(self.seed ^ 0xdc, p);

        let mut cluster = Cluster::new(p);
        seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);

        // Round 0: hash edges by source; they seed both E (kept hashed)
        // and the first delta.
        cluster.communicate(|f| {
            if f.rel == edge {
                vec![h.bucket(f.args[0])]
            } else {
                Vec::new()
            }
        });
        cluster.compute(move |local| {
            let mut out = Instance::new();
            for f in local.relation(edge) {
                out.insert(f.clone());
                out.insert(Fact::new(tc_rel, f.args.clone()));
                out.insert(Fact::new(delta_rel, f.args.clone()));
            }
            out
        });

        let strategy = self.strategy;
        loop {
            // Do any delta facts exist anywhere?
            let any_delta = (0..p).any(|s| cluster.local(s).relation_len(delta_rel) > 0);
            if !any_delta {
                break;
            }
            // Communication: route delta facts to meet their partners.
            // Linear: Δ(x,z) must meet E(z,y) ⇒ hash Δ by target z
            // (edges stay hashed by source). Non-linear: Δ(x,z) must meet
            // TC(z,y) ⇒ hash Δ by target; TC stays hashed by source.
            cluster.reshuffle(|_, f| {
                if f.rel == delta_rel {
                    Routing::Send(vec![h.bucket(f.args[1])])
                } else {
                    Routing::Keep
                }
            });
            // Computation: join delta with the local partner relation,
            // derive new TC facts (which belong at h(source) — they are
            // produced here and re-routed as the next delta in the next
            // round's communication; to keep each iteration at exactly
            // one round we route new facts by source *immediately* in the
            // next reshuffle, so here we just tag them as pending).
            let pending_rel = rel(&format!("‡pend_{}", self.seed));
            cluster.compute(move |local| {
                let mut out = Instance::new();
                // Keep everything except the consumed delta.
                for f in local.iter() {
                    if f.rel != delta_rel {
                        out.insert(f.clone());
                    }
                }
                // Partner index by source value.
                let partner = match strategy {
                    TcStrategy::Linear => edge,
                    TcStrategy::NonLinear => tc_rel,
                };
                let mut by_src: FxMap<parlog_relal::fact::Val, Vec<&Fact>> = fxmap();
                for f in local.relation(partner) {
                    by_src.entry(f.args[0]).or_default().push(f);
                }
                for d in local.relation(delta_rel) {
                    if let Some(nexts) = by_src.get(&d.args[1]) {
                        for e in nexts {
                            out.insert(Fact::new(pending_rel, [d.args[0], e.args[1]]));
                        }
                    }
                }
                out
            });
            // Route pending facts home (by source); locally promote the
            // genuinely new ones to TC + next delta.
            cluster.reshuffle(|_, f| {
                if f.rel == pending_rel {
                    Routing::Send(vec![h.bucket(f.args[0])])
                } else {
                    Routing::Keep
                }
            });
            cluster.compute(move |local| {
                let mut out = Instance::new();
                for f in local.iter() {
                    if f.rel != pending_rel {
                        out.insert(f.clone());
                    }
                }
                for f in local.relation(pending_rel) {
                    let tc = Fact::new(tc_rel, f.args.clone());
                    if !out.contains(&tc) {
                        out.insert(tc);
                        out.insert(Fact::new(delta_rel, f.args.clone()));
                    }
                }
                out
            });
        }

        // Strip everything but the output relation.
        cluster.compute(move |local| {
            Instance::from_facts(local.relation(tc_rel).cloned().collect::<Vec<_>>())
        });
        RunReport::from_cluster(
            match self.strategy {
                TcStrategy::Linear => "tc-linear",
                TcStrategy::NonLinear => "tc-doubling",
            },
            &cluster,
            db.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::fact::fact;

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
