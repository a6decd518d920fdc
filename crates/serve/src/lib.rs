//! # `parlog-serve` — the MVCC snapshot serving layer
//!
//! Everything below this crate is about answering one query, once,
//! correctly and with the right asymptotics. This crate is about
//! answering *many* queries *concurrently* while the database keeps
//! moving — the serving story the survey's results license: parallel
//! correctness and transferability are statements about a query against
//! a **fixed** instance, so a server freezes the instance it answers
//! from (`parlog_relal::snapshot::SnapshotStore`), shares the frozen
//! state with arbitrarily many readers, and keeps writing on a private
//! copy-on-write delta. Publication is a single release-store; pinned
//! readers never observe it.
//!
//! The pieces, one module each:
//!
//! * [`admission`] — bounded admission control: a lock-free in-flight
//!   gate that refuses with a typed [`Overload`] instead of queueing
//!   unboundedly, consistent with the degradation contract of
//!   `parlog_supervisor::degrade` (refusal over silent wrongness).
//! * [`plan`] — the plan cache: the compiled `QueryPlan` and the query
//!   analysis (GYO acyclicity, ρ*/τ* LPs, HyperCube share exponents) are
//!   memoized per query text, and prepared plans are keyed on
//!   `(query, strategy, snapshot generation)` so a cached plan is never
//!   replayed against a database version it was not prepared for.
//! * [`server`] — the request loop: a [`Server`] wraps a store and a
//!   gate; each serving thread opens a [`Session`] (thread-per-core: no
//!   shared mutable state between sessions) that pins a snapshot,
//!   executes CQ / UCQ / Datalog / point-lookup requests lock-free
//!   against the pin, refuses an unsafe query with a typed
//!   [`ServeError`], and re-pins on an explicit cadence via the
//!   one-atomic-load staleness probe.
//! * [`compact`] — background LSM compaction: merges a sealed entry's
//!   run stack off-thread from immutable `Arc`'d runs, and installs the
//!   merged run back only if the entry is still current (install-time
//!   revalidation) — mutators are never blocked, stale merges are
//!   discarded, and the whole loop is deterministic under the
//!   virtual-clock test mode.
//! * [`harness`] — the closed-loop load harness for experiment E27: a
//!   seeded Zipf request mix over the catalog, concurrent writer
//!   publishing epochs, isolation audits on old pins, and op-count
//!   makespans (wall-clock serving is `crates/perf`'s `serve_mix`).
//!
//! The guarantee the whole crate leans on: a sealed instance's
//! `trie_layers` path is lock-free, so *every existing evaluator* —
//! Naive, Indexed, Wcoj, Auto, over CQs, UCQs and Datalog programs —
//! is lock-free against a pinned snapshot with zero evaluator changes.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod admission;
pub mod compact;
pub mod harness;
pub mod plan;
pub mod server;

pub use admission::{AdmissionGate, Overload, Permit};
pub use compact::{BackgroundCompactor, CompactionStats, VirtualCompactor};
pub use harness::{run_virtual, VirtualReport, WorkloadSpec};
pub use plan::{DisjunctPlan, PlanCache, PlanCacheStats, PlanKind, PreparedPlan, QueryAnalysis};
pub use server::{Answer, Request, Response, ServeError, Server, Session};

/// Commonly used items.
pub mod prelude {
    pub use crate::admission::{AdmissionGate, Overload, Permit};
    pub use crate::compact::{BackgroundCompactor, CompactionStats, VirtualCompactor};
    pub use crate::harness::{run_virtual, VirtualReport, WorkloadSpec};
    pub use crate::plan::{PlanCache, PlanCacheStats, QueryAnalysis};
    pub use crate::server::{Answer, Request, Response, ServeError, Server, Session};
}
