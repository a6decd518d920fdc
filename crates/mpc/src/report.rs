//! Run reports: the measurable quantities of the MPC model, serializable
//! for the experiment harness in `parlog-bench`.

use crate::cluster::Cluster;
use parlog_relal::instance::Instance;

/// Aggregate statistics of one algorithm execution.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunStats {
    /// Servers used.
    pub p: usize,
    /// Input size (facts).
    pub m: usize,
    /// Communication rounds (synchronization barriers).
    pub rounds: usize,
    /// Maximum per-server load over all rounds.
    pub max_load: usize,
    /// Total facts communicated over all rounds.
    pub total_comm: usize,
    /// `total_comm / m` — the replication rate.
    pub replication: f64,
    /// The exponent `e` with `max_load = m / p^e` (0 = all data on one
    /// server, 1 = perfectly balanced).
    pub load_exponent: f64,
    /// Barrier time summed over rounds: each round costs the straggler-
    /// scaled load of its slowest server (`Σ max_load` when healthy).
    pub tail_time: f64,
    /// `tail_time / Σ per-round max_load` — 1.0 for a straggler-free
    /// run; the multiplicative latency cost of the slowest servers.
    pub straggler_penalty: f64,
    /// Round attempts replayed after mid-round crashes (0 = no faults).
    pub replays: usize,
    /// Communication performed by crashed attempts and thrown away.
    pub wasted_comm: usize,
    /// Replay attempts allowed per round (`cluster::RETRY_BUDGET`).
    pub retry_budget: u32,
    /// Most replays any single round actually consumed.
    pub max_replays_in_round: u32,
    /// Speculative backup tasks launched for straggler tasks.
    pub speculative_backups: usize,
    /// Backups that beat the original (first-finisher-wins).
    pub speculative_wins: usize,
    /// Work of losing copies, discarded on idempotent commit.
    pub speculative_waste: usize,
    /// Barrier time the backups shaved off, in load units.
    pub tail_saved: f64,
}

/// The result of running an algorithm: its output and its stats.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the algorithm (for reports).
    pub algorithm: &'static str,
    /// The computed query answer (union over servers).
    pub output: Instance,
    /// Aggregated load statistics.
    pub stats: RunStats,
}

impl RunReport {
    /// Build a report from a finished cluster run.
    pub fn from_cluster(algorithm: &'static str, cluster: &Cluster, m: usize) -> RunReport {
        let p = cluster.p();
        let max_load = cluster.max_load();
        let total_comm = cluster.total_comm();
        let load_exponent = if max_load == 0 || m == 0 || p <= 1 {
            0.0
        } else {
            (m as f64 / max_load as f64).ln() / (p as f64).ln()
        };
        let tail_time = cluster.tail_time();
        let barrier_load: usize = cluster.rounds().iter().map(|r| r.max_load).sum();
        let recovery = cluster.recovery();
        let speculation = cluster.speculation();
        RunReport {
            algorithm,
            output: cluster.union_all(),
            stats: RunStats {
                p,
                m,
                rounds: cluster.round_count(),
                max_load,
                total_comm,
                replication: if m == 0 {
                    0.0
                } else {
                    total_comm as f64 / m as f64
                },
                load_exponent,
                tail_time,
                straggler_penalty: if barrier_load == 0 {
                    1.0
                } else {
                    tail_time / barrier_load as f64
                },
                replays: recovery.replays,
                wasted_comm: recovery.wasted_comm,
                retry_budget: crate::cluster::RETRY_BUDGET,
                max_replays_in_round: recovery.max_replays_in_round,
                speculative_backups: speculation.backups,
                speculative_wins: speculation.wins,
                speculative_waste: speculation.wasted_work,
                tail_saved: speculation.tail_saved,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;

    #[test]
    fn report_reflects_cluster_state() {
        let mut c = Cluster::new(4);
        for s in 0..4u64 {
            c.place(s as usize, (s..8).step_by(4).map(|i| fact("R", &[i, i])));
        }
        c.communicate(|_| vec![0, 1]); // replicate everything twice
        let r = RunReport::from_cluster("test", &c, 8);
        assert_eq!(r.stats.p, 4);
        assert_eq!(r.stats.rounds, 1);
        assert_eq!(r.stats.total_comm, 16);
        assert!((r.stats.replication - 2.0).abs() < 1e-9);
        assert_eq!(r.stats.max_load, 8);
        assert!(r.stats.load_exponent.abs() < 1e-9); // load = m
        assert_eq!(r.output.len(), 8);
    }

    #[test]
    fn report_serializes() {
        let c = Cluster::new(2);
        let r = RunReport::from_cluster("t", &c, 0);
        let json = serde_json::to_string(&r.stats);
        assert!(json.is_ok());
        assert!(json.unwrap().contains("\"retry_budget\""));
    }

    #[test]
    fn report_accounts_recovery_and_stragglers() {
        use parlog_faults::FaultPlan;
        let mut c =
            Cluster::new(2).with_faults(FaultPlan::crash_stop(0, 1, 0).with_straggler(0, 3.0));
        for s in 0..2u64 {
            c.place(s as usize, (s..6).step_by(2).map(|i| fact("R", &[i, i])));
        }
        c.communicate(|f| vec![(f.args[0].0 % 2) as usize]);
        let r = RunReport::from_cluster("t", &c, 6);
        assert_eq!(r.stats.replays, 1);
        assert!(r.stats.wasted_comm > 0);
        assert_eq!(r.stats.retry_budget, 3);
        assert_eq!(r.stats.max_replays_in_round, 1);
        assert!(r.stats.straggler_penalty > 1.0);
        assert!(r.stats.tail_time > r.stats.max_load as f64);
    }

    #[test]
    fn report_accounts_speculation() {
        use parlog_faults::{FaultPlan, SpeculationPolicy};
        let mut c = Cluster::new(4).with_faults(
            FaultPlan::none(0)
                .with_straggler(1, 8.0)
                .with_speculation(SpeculationPolicy::default()),
        );
        for s in 0..4u64 {
            c.place(s as usize, (s..16).step_by(4).map(|i| fact("R", &[i, i])));
        }
        c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
        let r = RunReport::from_cluster("t", &c, 16);
        assert_eq!(r.stats.speculative_backups, 1);
        assert_eq!(r.stats.speculative_wins, 1);
        assert!(r.stats.speculative_waste > 0);
        assert!(r.stats.tail_saved > 0.0);
        let json = serde_json::to_string(&r.stats).unwrap();
        assert!(json.contains("\"speculative_waste\""));
    }
}
