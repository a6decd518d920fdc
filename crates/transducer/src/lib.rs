//! # `parlog-transducer` — relational transducer networks (Section 5)
//!
//! The asynchronous half of Neven's PODS'16 survey: computing nodes hold a
//! horizontal partition of the database, communicate by **broadcast only**
//! with arbitrarily delayed (never lost) messages, and write to
//! *write-only* output relations. A program computes a query `Q` when
//! **every fair run**, on **every network**, under **every horizontal
//! distribution**, eventually outputs exactly `Q(I)` — eventual
//! consistency.
//!
//! A program is **coordination-free** when for every instance there is
//! some *ideal* distribution on which it computes `Q` without reading a
//! single message (heartbeats only).
//!
//! This crate provides:
//!
//! * [`network`] — node states, write-only outputs, message buffers;
//! * [`program`] — the transducer-program trait (network-aware or
//!   oblivious, optionally policy-aware);
//! * [`scheduler`] — [`run`], the one entry for every run: a [`RunCtx`]
//!   carries the program context, the [`RunMode`] (simulated under a
//!   seeded-random, FIFO, LIFO or round-robin schedule; heartbeat-only,
//!   the mode the coordination-freeness test uses; or threaded), the
//!   fault plan and the trace;
//! * [`exhaustive`] — a small-case model checker that walks the
//!   [`SimRun`] runtime itself through every delivery order and every
//!   placement of a few adversarial drops and duplicates;
//! * [`distribution`] — horizontal distributions (including the ideal
//!   replicate-all one);
//! * [`programs`] — the survey's algorithms: monotone broadcast (F0,
//!   Example 5.1(1)), the explicitly coordinating broadcast for
//!   non-monotone queries (Example 5.1(2)), the policy-aware
//!   open-triangle strategy (F1, Example 5.4), and the domain-guided
//!   component algorithm (F2, Section 5.2.2);
//! * [`consistency`] — eventual-consistency and coordination-freeness
//!   checkers quantifying over seeds × networks × distributions;
//! * [`economical`] — the Ketsman–Neven economical broadcasting strategy
//!   for full CQs without self-joins (Section 6);
//! * [`threaded`] — the crossbeam-based true-multithreaded runtime
//!   behind [`RunMode::Threaded`], cross-validated against the simulator;
//! * [`faulty`] — fault injection (drop/duplicate/reorder/delay,
//!   crash-stop, crash-recover, ack/retransmit) driven by seeded
//!   [`parlog_faults::FaultPlan`]s: the model's no-loss and no-failure
//!   assumptions, made injectable and machine-checkable.
//!
//! ```
//! use parlog_transducer::prelude::*;
//! use parlog_relal::prelude::*;
//!
//! // Example 5.1(1): the triangle query is monotone, so the naive
//! // broadcast program computes it on every network and distribution.
//! let q = parse_query(
//!     "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, z != x",
//! )
//! .unwrap();
//! let db = Instance::from_facts([
//!     fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[3, 1]),
//! ]);
//! let program = MonotoneBroadcast::new(q.clone());
//! let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(42));
//! let out = run(&program, &hash_distribution(&db, 3, 7), &rc);
//! assert_eq!(out.output, eval_query(&q, &db));
//! ```

pub mod consistency;
pub mod distribution;
pub mod economical;
pub mod exhaustive;
pub mod faulty;
pub mod network;
pub mod program;
pub mod programs;
pub mod scheduler;
pub mod threaded;

pub use faulty::{FaultStats, Health};
pub use network::{NodeState, QueryFunction};
pub use program::{Ctx, TransducerProgram};
pub use scheduler::{run, RunCtx, RunMode, RunOutcome, Schedule, SimRun};

/// Commonly used items.
pub mod prelude {
    pub use crate::consistency::{check_coordination_free, check_eventual_consistency};
    pub use crate::distribution::{
        hash_distribution, ideal_distribution, random_distribution, single_node_distribution,
    };
    pub use crate::economical::EconomicalBroadcast;
    pub use crate::exhaustive::{explore_schedules, ExplorationReport};
    pub use crate::faulty::{FaultStats, Health};
    pub use crate::network::{NodeState, QueryFunction};
    pub use crate::program::{Ctx, TransducerProgram};
    pub use crate::programs::coordinated::CoordinatedBroadcast;
    pub use crate::programs::disjoint::DisjointComponent;
    pub use crate::programs::distinct::PolicyAwareCq;
    pub use crate::programs::distinct_sets::DistinctCompleteSets;
    pub use crate::programs::monotone::MonotoneBroadcast;
    pub use crate::scheduler::{run, RunCtx, RunMode, RunOutcome, Schedule, SimRun};
}
