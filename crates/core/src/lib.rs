//! # `parlog` — Logical Aspects of Massively Parallel and Distributed Systems
//!
//! An executable reproduction of Frank Neven's PODS 2016 invited survey.
//! The workspace implements both halves of the paper and this crate ties
//! them together with the survey's own reasoning framework:
//!
//! * **Section 3 (MPC)** — the simulator, Shares/HyperCube, and the one-
//!   and multi-round join algorithms live in [`mpc`] (re-exported from
//!   `parlog-mpc`); the fractional edge packings governing the
//!   `O(m/p^{1/τ*})` load bounds live in [`relal::packing`].
//! * **Section 4 (parallel-correctness)** — [`pc`] implements conditions
//!   PC0/PC1 over minimal valuations (Proposition 4.6), the instance-
//!   specific and general decision procedures, and the `CQ¬` variant via
//!   bounded counterexample search; [`transfer`] implements the `covers`
//!   characterization of parallel-correctness transfer
//!   (Proposition 4.13).
//! * **Section 5 (coordination-freeness)** — the transducer networks,
//!   schedulers and CALM programs live in [`transducer`]; [`calm`]
//!   provides bounded semantic testers for the monotonicity hierarchy
//!   `M ⊊ Mdistinct ⊊ Mdisjoint` (Definitions 5.2/5.5/5.9) and a
//!   classifier.
//! * **The figures** — [`figure1`] recomputes the transfer/containment
//!   lattice of Example 4.11 and [`figure2`] recomputes the class-
//!   correspondence table of Section 5, both machine-checked against the
//!   paper in the test suite.
//! * **Faults** — [`fault_matrix`] stress-tests the Section 5 strategies
//!   under injected faults (reorder/duplicate/delay, loss, crashes,
//!   partitions) and records a machine-checked verdict per cell:
//!   within-model faults — including *healing* network partitions, whose
//!   severed traffic is held at the source and flushed on heal — are
//!   absorbed by the CALM classes; omission faults outside the model
//!   cost completeness but never soundness; a *permanent* partition
//!   deadlocks unguarded coordination (the machine-checked regression
//!   witness) while the quorum-gated barrier degrades instead of
//!   diverging.
//! * **Supervision** — [`supervisor`] (re-exported from
//!   `parlog-supervisor`) is the control plane above both substrates:
//!   φ-accrual failure detection, deadline-bounded retry, shard
//!   re-replication heals, speculative re-execution of stragglers, and
//!   certified graceful degradation for monotone queries.
//! * **Serving** — [`serve`] (re-exported from `parlog-serve`) is the
//!   MVCC snapshot serving layer: immutable sealed snapshots published
//!   by a single release-store, lock-free pinned reads under every
//!   evaluation strategy, a generation-keyed plan cache, bounded
//!   admission control with typed refusals, background LSM compaction,
//!   and the closed-loop Zipf load harness of experiment E27.
//! * **Observability** — [`trace`] (re-exported from `parlog-trace`) is
//!   the zero-dependency structured tracing layer: per-round phase
//!   spans on the virtual clock, per-server load histograms checked
//!   against `m/p^{1/τ*}`, message-level comm counters, the
//!   fault/decision timeline, and a two-section JSON export whose
//!   deterministic half is byte-identical across reruns and thread
//!   counts.
//!
//! ```
//! use parlog::prelude::*;
//!
//! // Example 4.3: PC0 fails but the query is parallel-correct (PC1).
//! let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
//! let policy = parlog::pc::example_4_3_policy();
//! let universe = [Val(1), Val(2)];
//! assert!(!parlog::pc::strongly_saturates(&q, &policy, &universe));
//! assert!(parlog::pc::saturates(&q, &policy, &universe));
//! ```

pub mod calm;
pub mod fault_matrix;
pub mod figure1;
pub mod figure2;
pub mod pc;
pub mod queries;
pub mod scale;
pub mod transfer;

pub use parlog_datalog as datalog;
pub use parlog_faults as faults;
pub use parlog_mpc as mpc;
pub use parlog_relal as relal;
pub use parlog_serve as serve;
pub use parlog_supervisor as supervisor;
pub use parlog_trace as trace;
pub use parlog_transducer as transducer;
pub use parlog_verify as verify;

pub use fault_matrix::{FaultMatrix, FaultMatrixRow, Verdict};

/// Commonly used items from the whole workspace.
pub mod prelude {
    pub use crate::calm::{classify, MonotonicityClass, Schema};
    pub use crate::fault_matrix::{fault_matrix, FaultMatrix, Verdict};
    pub use crate::pc::{
        parallel_correct, parallel_correct_on, parallel_result, saturates, strongly_saturates,
    };
    pub use crate::queries;
    pub use crate::transfer::{covers, pc_transfers};
    pub use parlog_faults::{FaultClass, FaultPlan, MessageFate, PartitionPlan};
    pub use parlog_mpc::quorum::{coordination_barrier, BarrierOutcome};
    pub use parlog_relal::fact::Val;
    pub use parlog_relal::prelude::*;
    pub use parlog_supervisor::degrade::{Certificate, Degraded, QueryMode, RefusalReason};
    pub use parlog_supervisor::partition::{
        accounted_nodes, classify_silence, has_quorum, round_trip_open, SilenceVerdict,
    };
}
