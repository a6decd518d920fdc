//! # `parlog-trace` — structured observability for both substrates
//!
//! The paper's quantitative claims are *per-server, per-round*
//! quantities — the MPC load bound `O(m/p^{1/τ*})`, the coordination
//! cost of reliability, the latency of failure detection — yet runtimes
//! naturally surface only end-of-run aggregates. This crate is the
//! missing middle: a tracing layer both substrates thread through their
//! hot paths, recording
//!
//! * **phase spans** — communication / computation / barrier, per round,
//!   on the deterministic virtual clock, with wall-clock measurements
//!   segregated into their own report section;
//! * **load histograms** — the per-server received-load distribution of
//!   every round, summarized to min/p50/p95/max at record time and
//!   compared against the `m/p^{1/τ*}` bound;
//! * **comm counters** — message copies sent, delivered, dropped,
//!   duplicated, delayed, retransmitted, wasted, and payload bytes;
//! * **a fault timeline** — crashes, recoveries, round replays,
//!   speculative backups, and the supervisor's decisions
//!   (suspect → confirm → heal → degrade) in virtual-clock order.
//!
//! ## Design constraints
//!
//! **The hot path pays nothing when tracing is off.** Runtimes hold a
//! [`TraceHandle`]; [`TraceHandle::off`] carries no sink, so
//! [`TraceHandle::emit`] is a single branch — the event is not even
//! constructed. Events borrow their slices ([`TraceEvent::Loads`])
//! rather than owning them, so the *on* path allocates only inside the
//! sink.
//!
//! **The export is deterministic.** [`MemSink`] splits its export in
//! two: [`report::TraceReport`] holds only virtual-clock and counter
//! data and is byte-identical across reruns and thread counts for a
//! deterministic workload; [`report::WallReport`] holds the
//! machine-dependent wall-clock spans. Double-run diff jobs in CI
//! compare the former and ignore the latter.
//!
//! The crate is zero-dependency by design (the `serde` entry resolves
//! to the workspace's in-repo shim): it sits below
//! every runtime crate and must never create a dependency cycle or pull
//! in an external crate.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod report;
pub mod sink;

use std::fmt;
use std::sync::Arc;

/// The phase of a round a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Phase {
    /// Routing and delivering facts — the phase that generates load.
    Communication,
    /// Local computation over the received data (free in the MPC model's
    /// accounting; its virtual span is therefore empty, only wall-clock
    /// is measured).
    Computation,
    /// Waiting at the round barrier for the slowest (straggling) server.
    Barrier,
}

/// One completed phase of one round, on two clocks: the deterministic
/// virtual clock (load units / simulator ticks) and — when the phase was
/// actually timed — the machine-dependent wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Index of the round the phase belongs to.
    pub round: usize,
    /// Which phase.
    pub phase: Phase,
    /// Virtual-clock start.
    pub vstart: f64,
    /// Virtual-clock end (`≥ vstart`).
    pub vend: f64,
    /// Wall-clock duration in nanoseconds. Machine-dependent: exported
    /// only in the segregated [`report::WallReport`], never in the
    /// deterministic section.
    pub wall_ns: Option<u64>,
}

/// Message-level communication counters. Every [`TraceEvent::Comm`]
/// event carries a *delta*; sinks accumulate with [`CommCounters::add`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CommCounters {
    /// Copies put on the wire (first sends, duplicates, retransmits).
    pub sent: u64,
    /// Copies actually delivered to a live destination.
    pub delivered: u64,
    /// Copies dropped by the network (loss faults).
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Copies held back by delay faults.
    pub delayed: u64,
    /// Copies enqueued at an out-of-order position.
    pub reordered: u64,
    /// Copies re-sent by an ack/retransmit protocol.
    pub retransmitted: u64,
    /// Delivery acknowledgements (reliable mode only).
    pub acks: u64,
    /// Copies whose work was thrown away: sent to a crashed endpoint,
    /// or part of a replayed (discarded) MPC round attempt.
    pub wasted: u64,
    /// Estimated payload bytes across sent copies, each fact's
    /// [`CommCounters::wire_bytes`].
    pub bytes: u64,
}

impl CommCounters {
    /// The estimated wire size of one fact of `arity` values: 8 bytes
    /// per value plus an 8-byte relation tag.
    pub fn wire_bytes(arity: usize) -> u64 {
        8 * (arity as u64 + 1)
    }

    /// Accumulate `delta` into `self`, field by field.
    pub fn add(&mut self, delta: &CommCounters) {
        self.sent += delta.sent;
        self.delivered += delta.delivered;
        self.dropped += delta.dropped;
        self.duplicated += delta.duplicated;
        self.delayed += delta.delayed;
        self.reordered += delta.reordered;
        self.retransmitted += delta.retransmitted;
        self.acks += delta.acks;
        self.wasted += delta.wasted;
        self.bytes += delta.bytes;
    }
}

/// What happened at one point of the fault / supervisor-decision
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum FaultEventKind {
    /// A node crashed, or an MPC server crashed mid-attempt.
    Crash,
    /// A crash-recover node restarted from its durable snapshot.
    Recovery,
    /// An MPC round attempt was discarded and replayed from checkpoint.
    RoundReplay,
    /// A speculative backup task was launched for a straggler.
    SpeculativeBackup,
    /// The speculative backup finished before the original and won.
    SpeculativeWin,
    /// The φ-accrual detector crossed its threshold for a node.
    Suspect,
    /// A suspected node answered its confirm probe — alive after all.
    FalseSuspicion,
    /// A suspicion was confirmed: the node is dead.
    ConfirmDead,
    /// A dead node's durable shard was re-replicated to a survivor.
    Heal,
    /// The run closed with a certified partial answer over a lost shard.
    Degrade,
    /// The run closed refusing to answer (non-monotone query over a
    /// lost shard).
    Refuse,
    /// Byzantine corruption fired: a message payload or a server's local
    /// output was tampered with (`info` = corruption entropy / kind tag).
    Corrupt,
    /// The certificate checker rejected a server's answer (`info` = the
    /// snapshot id's short form, binding the detection to the round's
    /// content address).
    Detect,
    /// A detected-Byzantine server was quarantined: its answer discarded
    /// and its task reassigned (`info` = detection latency in rounds).
    Quarantine,
    /// A partition epoch opened: the node set split into blocks that
    /// cannot exchange messages (`node` = epoch index, `info` = the
    /// scheduled heal clock, `u64::MAX` if permanent).
    PartitionStart,
    /// A partition epoch healed: held messages flush (`node` = epoch
    /// index, `info` = copies released from the source-side holds).
    PartitionHeal,
    /// A quorum-gated operation found its reachable set short of a
    /// strict majority and blocked/degraded instead of proceeding
    /// (`node` = the observer, `info` = reachable-set size).
    QuorumLost,
    /// The supervisor suppressed a heal because the silent node is
    /// partitioned-but-alive, not crashed — re-replicating its shard
    /// would have double-owned it (`node` = the spared node).
    SplitBrainAverted,
}

/// One timeline entry: what happened, to whom, when on the virtual
/// clock, and a kind-specific detail.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FaultEvent {
    /// Virtual-clock timestamp (load units for MPC, simulator ticks for
    /// the transducer network).
    pub vclock: f64,
    /// What happened.
    pub kind: FaultEventKind,
    /// The node / server concerned.
    pub node: usize,
    /// Kind-specific detail: the replay's attempt index, the heal's
    /// adopted load, the detection's latency, the suspicion's φ×1000….
    pub info: u64,
}

/// One observation offered to a sink. Slices are borrowed from the hot
/// path — a sink must copy whatever it wants to keep.
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent<'a> {
    /// A completed phase span.
    Phase(Span),
    /// The per-server received-load histogram of one round.
    Loads {
        /// Round index.
        round: usize,
        /// Facts received by each server this round.
        received: &'a [usize],
    },
    /// A communication-counter delta.
    Comm(CommCounters),
    /// A fault or supervisor-decision timeline entry.
    Fault(FaultEvent),
}

/// Where trace events go. Implementations must be cheap and
/// thread-safe: the cluster's parallel round engine shares the handle
/// across scoped workers.
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, ev: &TraceEvent<'_>);
}

/// The cloneable on/off handle the runtimes thread through their hot
/// paths.
///
/// [`TraceHandle::off`] is the default everywhere. With no sink
/// attached, every instrumentation site is a single branch on an
/// `Option` — no allocation, no formatting, no locking; [`emit`]
/// doesn't even build the event.
///
/// [`emit`]: TraceHandle::emit
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<dyn TraceSink>>);

impl TraceHandle {
    /// The disabled handle (the default): every record is a no-op.
    pub fn off() -> TraceHandle {
        TraceHandle(None)
    }

    /// A handle delivering every event to `sink`.
    pub fn to(sink: Arc<dyn TraceSink>) -> TraceHandle {
        TraceHandle(Some(sink))
    }

    /// Is a sink attached?
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Record an already-built event. Use [`TraceHandle::emit`] instead
    /// when building the event itself costs anything.
    #[inline]
    pub fn record(&self, ev: TraceEvent<'_>) {
        if let Some(sink) = &self.0 {
            sink.record(&ev);
        }
    }

    /// Build and record an event only when a sink is attached — the
    /// per-message hot-path form: the off case runs no closure at all.
    #[inline]
    pub fn emit<'a>(&self, build: impl FnOnce() -> TraceEvent<'a>) {
        if let Some(sink) = &self.0 {
            sink.record(&build());
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_on() {
            "TraceHandle(on)"
        } else {
            "TraceHandle(off)"
        })
    }
}

pub use report::{
    LoadBound, LoadBoundPart, RoundLoadReport, SpanReport, TraceReport, WallReport, WallSpan,
};
pub use sink::{MemSink, RoundLoads};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert_and_never_runs_the_builder() {
        let h = TraceHandle::off();
        assert!(!h.is_on());
        let mut built = false;
        h.emit(|| {
            built = true;
            TraceEvent::Comm(CommCounters::default())
        });
        assert!(!built, "off handle must not construct the event");
        // record() on an off handle is a harmless no-op too.
        h.record(TraceEvent::Fault(FaultEvent {
            vclock: 0.0,
            kind: FaultEventKind::Crash,
            node: 0,
            info: 0,
        }));
    }

    #[test]
    fn default_handle_is_off() {
        assert!(!TraceHandle::default().is_on());
        assert_eq!(format!("{:?}", TraceHandle::default()), "TraceHandle(off)");
    }

    #[test]
    fn comm_counters_accumulate_fieldwise() {
        let mut acc = CommCounters::default();
        acc.add(&CommCounters {
            sent: 2,
            delivered: 1,
            bytes: 48,
            ..CommCounters::default()
        });
        acc.add(&CommCounters {
            sent: 1,
            dropped: 1,
            bytes: 24,
            ..CommCounters::default()
        });
        assert_eq!(acc.sent, 3);
        assert_eq!(acc.delivered, 1);
        assert_eq!(acc.dropped, 1);
        assert_eq!(acc.bytes, 72);
    }
}
