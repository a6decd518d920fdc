//! Quorum-gated coordination for a partitioned MPC cluster.
//!
//! A coordination barrier on the MPC substrate is an *ack collection*:
//! every server sends an acknowledgement fact to a coordinator, and the
//! barrier opens when enough acks arrive. Under a network partition the
//! two gate policies diverge sharply:
//!
//! * the **unguarded** barrier waits for *all* `p` acks. Acks from
//!   severed servers are held at their source by the hold-and-flush
//!   partition semantics, so under an unhealed partition the barrier
//!   waits forever — the run [deadlocks](BarrierOutcome::Deadlocked).
//!   The fault matrix keeps this as the machine-checked regression
//!   witness (`mpc-part-unguarded`).
//! * the **quorum-gated** barrier commits as soon as a *strict
//!   majority* of acks (including the coordinator's own) has arrived,
//!   and otherwise [blocks](BarrierOutcome::QuorumLost) — it degrades
//!   instead of diverging. A minority-side coordinator can never
//!   commit, so two sides of a split can never both open the barrier:
//!   split-brain is structurally impossible.
//!
//! Acks ride ordinary communication rounds (a [`Cluster::route`]
//! per wait round, with all data facts kept in place), so they are
//! subject to exactly the same partition schedule as the data — held
//! at the source while a severing epoch is open, flushed on heal. A
//! barrier that lost quorum during a healing split therefore commits
//! in the first wait round at or after the heal.

use crate::cluster::{Cluster, Fate, ServerId};
use parlog_relal::fact::fact;
use parlog_relal::shard::Relations;
use parlog_relal::symbols::rel;
use parlog_trace::{FaultEvent, FaultEventKind, TraceEvent};

/// The ack control relation's name. The `‡` prefix keeps it out of any
/// data namespace, mirroring the transducer substrate's control
/// relations.
pub const ACK_REL: &str = "‡MPC-ACK";

/// How a coordination barrier ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// The gate condition was met: all `p` acks (unguarded) or a strict
    /// majority (quorum-gated) reached the coordinator.
    Committed {
        /// Acks collected when the barrier opened.
        acks: usize,
        /// Wait rounds consumed (0 = the coordinator's own ack
        /// sufficed, which can only happen with `p == 1`).
        rounds: usize,
    },
    /// Quorum-gated only: the round budget ran out with the ack count
    /// short of a strict majority. The coordinator *blocked* — it
    /// refused to open the barrier rather than proceed on a minority
    /// view. A [`FaultEventKind::QuorumLost`] event marks the decision.
    QuorumLost {
        /// Acks collected when the budget ran out.
        acks: usize,
        /// Wait rounds consumed.
        rounds: usize,
    },
    /// Unguarded only: the round budget ran out with acks still
    /// missing. Under an unhealed partition this is not slowness but a
    /// *deadlock*: the missing acks are held behind a severed link and
    /// no number of further rounds will deliver them.
    Deadlocked {
        /// Acks collected when the budget ran out.
        acks: usize,
        /// Wait rounds consumed.
        rounds: usize,
    },
}

impl BarrierOutcome {
    /// Did the barrier open?
    pub fn committed(&self) -> bool {
        matches!(self, BarrierOutcome::Committed { .. })
    }
}

/// Drive a coordination barrier: seed one ack fact per server, then run
/// wait rounds (each a [`Cluster::route`] that keeps every data
/// fact in place and routes pending acks to `coordinator`) until the
/// gate condition holds or `max_rounds` wait rounds are spent.
///
/// With `quorum` set the gate is a strict majority (`2 · acks > p`) and
/// exhausting the budget yields [`BarrierOutcome::QuorumLost`]; without
/// it the gate is all `p` acks and exhaustion yields
/// [`BarrierOutcome::Deadlocked`].
///
/// The cluster's data facts are untouched by the wait rounds; the ack
/// facts remain in the coordinator's local state after commit (callers
/// that compute afterwards replace local state anyway).
pub fn coordination_barrier(
    c: &mut Cluster,
    coordinator: ServerId,
    quorum: bool,
    max_rounds: usize,
) -> BarrierOutcome {
    let p = c.p();
    let ack = rel(ACK_REL);
    for s in 0..p {
        let f = fact(ACK_REL, &[s as u64]);
        c.place(s, [f]);
    }
    let mut rounds = 0usize;
    loop {
        let acks = c.shard(coordinator).relation_len(ack);
        let open = if quorum { 2 * acks > p } else { acks == p };
        if open {
            return BarrierOutcome::Committed { acks, rounds };
        }
        if rounds >= max_rounds {
            if quorum {
                let vclock = c.tail_time();
                c.trace().record(TraceEvent::Fault(FaultEvent {
                    vclock,
                    kind: FaultEventKind::QuorumLost,
                    node: coordinator,
                    info: acks as u64,
                }));
                return BarrierOutcome::QuorumLost { acks, rounds };
            }
            return BarrierOutcome::Deadlocked { acks, rounds };
        }
        rounds += 1;
        c.route(&[], |src, f, out| {
            if f.rel == ack && src != coordinator {
                out.push(coordinator);
                Fate::Send
            } else {
                Fate::Keep
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_faults::{FaultPlan, PartitionPlan};

    fn seeded(p: usize) -> Cluster {
        let mut c = Cluster::new(p);
        for s in 0..p as u64 {
            c.place(
                s as usize,
                (s..9).step_by(p).map(|i| fact("R", &[i, i + 1])),
            );
        }
        c
    }

    #[test]
    fn benign_barrier_commits_for_both_gates() {
        for quorum in [false, true] {
            let mut c = seeded(3);
            let out = coordination_barrier(&mut c, 0, quorum, 4);
            match out {
                BarrierOutcome::Committed { acks, rounds } => {
                    if quorum {
                        assert!(2 * acks > 3);
                    } else {
                        assert_eq!(acks, 3);
                    }
                    assert!(rounds <= 2, "one ack round suffices on a whole network");
                }
                other => panic!("benign barrier must commit, got {other:?}"),
            }
            // The wait rounds kept every data fact in place.
            assert_eq!(
                c.union_all().iter().filter(|f| f.rel == rel("R")).count(),
                9
            );
        }
    }

    #[test]
    fn unguarded_barrier_deadlocks_under_permanent_split() {
        let mut c = seeded(3).with_faults(FaultPlan::partitioned(
            0,
            PartitionPlan::permanent_split(0, &[2]),
        ));
        match coordination_barrier(&mut c, 0, false, 6) {
            BarrierOutcome::Deadlocked { acks, .. } => {
                assert_eq!(
                    acks, 2,
                    "the majority's acks arrive; the minority's never do"
                );
            }
            other => panic!("unguarded barrier must deadlock, got {other:?}"),
        }
        // The missing ack is held behind the severed link, not lost.
        assert!(c.held_by_partition() > 0);
    }

    #[test]
    fn quorum_gate_commits_on_majority_and_blocks_on_minority() {
        let plan = || FaultPlan::partitioned(0, PartitionPlan::permanent_split(0, &[2]));
        // Majority-side coordinator: commits with 2 of 3 acks.
        let mut c = seeded(3).with_faults(plan());
        match coordination_barrier(&mut c, 0, true, 6) {
            BarrierOutcome::Committed { acks, .. } => assert_eq!(acks, 2),
            other => panic!("majority coordinator must commit, got {other:?}"),
        }
        // Minority-side coordinator: blocks — split-brain averted.
        let mut c = seeded(3).with_faults(plan());
        match coordination_barrier(&mut c, 2, true, 6) {
            BarrierOutcome::QuorumLost { acks, .. } => assert_eq!(acks, 1),
            other => panic!("minority coordinator must block, got {other:?}"),
        }
    }

    #[test]
    fn quorum_lost_during_healing_split_commits_after_heal() {
        // Coordinator 2 is cut off for the first 2 rounds; its quorum
        // returns when the epoch heals and the held acks flush.
        let mut c =
            seeded(3).with_faults(FaultPlan::partitioned(0, PartitionPlan::split(0, 2, &[2])));
        match coordination_barrier(&mut c, 2, true, 8) {
            BarrierOutcome::Committed { acks, rounds } => {
                assert!(2 * acks > 3);
                assert!(rounds >= 2, "the commit had to wait out the epoch");
            }
            other => panic!("healing split must end in commit, got {other:?}"),
        }
    }
}
