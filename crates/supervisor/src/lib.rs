//! # `parlog-supervisor` — the control plane above both substrates
//!
//! The fault-injection layer (`parlog-faults`, PR 1) established *what*
//! each fault class costs the CALM strategies: within-model faults are
//! absorbed, loss and crashes cost completeness but never soundness.
//! This crate adds the layer a real deployment would run on top — the
//! part of the system that *notices* faults and *does something*:
//!
//! * [`detector`] — a φ-accrual failure detector over the virtual
//!   clock: heartbeat probes accrue a continuous suspicion level
//!   instead of a binary timeout, deterministic and replayable by seed.
//! * [`retry`] — per-message retry budgets: the capped-backoff-with-
//!   jitter retransmit policy bounded by a *deadline*, converting a
//!   clock budget into an attempt budget.
//! * [`mod@supervise`] — the supervision loop for transducer networks:
//!   probe, suspect, confirm, then **heal** a dead node by
//!   re-replicating its durable shard to a survivor
//!   (`SimRun::adopt_shard`), all interleaved with the ordinary
//!   scheduler.
//! * [`heal`] — the MPC-side heal: a crashed HyperCube server's grid
//!   cell is re-replicated to the least-loaded survivor, and the extra
//!   load is checked against the theory's own `O(m/p^{1/τ*})`
//!   per-server bound — recovery costs one server-load, not a
//!   recomputation.
//! * [`mod@verify`] — the Byzantine control loop: rounds commit blind,
//!   and `parlog_mpc::verified`'s prove-and-audit routine audits
//!   committed answers on a cadence; failed certificates quarantine the
//!   lying server with a measured rounds-to-quarantine latency, and
//!   rollback + replay heals the tainted rounds.
//! * [`partition`] — crash-vs-partition discrimination: φ suspicion is
//!   cross-checked against an indirect-reachability probe matrix, so a
//!   partitioned-but-alive node's shard is never re-replicated
//!   (split-brain fenced off), and every heal is quorum-gated — a
//!   monitor that cannot account for a strict majority blocks instead
//!   of diverging.
//! * [`replica`] — read-replica catch-up for the serving layer: delta
//!   replay against a primary writer's bounded log, falling back to
//!   full state adoption (the `adopt_shard` move) when the log has
//!   truncated, republished through the replica's own snapshot store.
//! * [`degrade`] — what happens when recovery is impossible within
//!   budget: monotone queries return a *certified sound partial answer*
//!   (a subset of the truth, with a coverage certificate naming the
//!   missing shards); non-monotone queries refuse, because a subset
//!   answer could contain retracted facts. The CALM split, restated as
//!   a failure-mode contract: monotone ⇒ degradable.
//!
//! Speculative re-execution of straggler tasks (MapReduce backup tasks,
//! first-finisher-wins) lives with the round barrier it optimizes, the
//! MPC cluster's, which reads it from its fault plan
//! (`parlog_faults::FaultPlan::with_speculation`). Experiment E19
//! exercises the whole stack end to end.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod degrade;
pub mod detector;
pub mod heal;
pub mod partition;
pub mod replica;
pub mod retry;
pub mod supervise;
pub mod verify;

pub use degrade::{Certificate, Degraded, QueryMode, RefusalReason};
pub use detector::PhiDetector;
pub use heal::{heal_hypercube_crash, HealError, MpcHealReport};
pub use partition::{
    accounted_nodes, classify_silence, has_quorum, round_trip_open, SilenceVerdict,
};
pub use replica::{CatchUp, ReadReplica};
pub use retry::DeadlineRetry;
pub use supervise::{supervise, Detection, SupervisedRun, SupervisorConfig, SupervisorReport};
pub use verify::{run_verified_rounds, ByzantineDetection, VerifiedRunReport, VerifyPolicy};

/// Commonly used items.
pub mod prelude {
    pub use crate::degrade::{Certificate, Degraded, QueryMode, RefusalReason};
    pub use crate::detector::PhiDetector;
    pub use crate::heal::{heal_hypercube_crash, HealError, MpcHealReport};
    pub use crate::partition::{
        accounted_nodes, classify_silence, has_quorum, round_trip_open, SilenceVerdict,
    };
    pub use crate::replica::{CatchUp, ReadReplica};
    pub use crate::retry::DeadlineRetry;
    pub use crate::supervise::{
        supervise, Detection, SupervisedRun, SupervisorConfig, SupervisorReport,
    };
    pub use crate::verify::{
        run_verified_rounds, ByzantineDetection, VerifiedRunReport, VerifyPolicy,
    };
}
