//! Fault-aware execution of transducer networks — the chaos half of the
//! scheduler.
//!
//! The survey's asynchronous model permits arbitrary *reordering* and
//! *delay* but assumes messages are never lost and nodes never fail.
//! This module makes each assumption injectable via a seeded
//! [`parlog_faults::FaultPlan`], so the CALM-style guarantees
//! can be tested per fault class:
//!
//! * **reorder / duplicate / delay** — within the model; monotone (F0)
//!   programs must produce identical output.
//! * **loss** — outside the model; breaks completeness, never soundness.
//! * **crash-stop / crash-recover** — outside the model; a crash loses
//!   the node's volatile state and every message still in flight to or
//!   from it. Crash-recover nodes resume from their durable snapshot
//!   (the initial shard) after a downtime and re-run `init`,
//!   rebroadcasting their data.
//! * **ack/retransmit** — the *explicit coordination* that buys back
//!   reliability under loss: every delivery is acknowledged and dropped
//!   copies are retransmitted with exponential backoff, all of it
//!   counted, so the price of reliability is measurable.
//!
//! The fault-free run is the exact `plan = None` special case of this
//! code path (regression-tested): there is one router, not two.

use parlog_faults::{CrashKind, FaultPlan, MessageFate};
use parlog_relal::fact::Fact;
use serde::Serialize;

/// Liveness of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Processing normally.
    Up,
    /// Crashed, recovers at the given clock value.
    Down {
        /// Clock value at which the node restarts from its snapshot.
        until: usize,
    },
    /// Crash-stop: never returns.
    Stopped,
}

impl Health {
    /// Can the node currently take transitions?
    pub fn is_up(self) -> bool {
        matches!(self, Health::Up)
    }
}

/// Everything the injector did during one run — the observable cost of
/// the fault plan (and of the coordination that compensates for it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Message copies silently dropped.
    pub dropped: usize,
    /// Extra copies enqueued by duplication.
    pub duplicated: usize,
    /// Copies held back by the delay fault.
    pub delayed: usize,
    /// Copies enqueued at a random position (reordering).
    pub reordered: usize,
    /// Copies destroyed because an endpoint was down or crashing.
    pub lost_in_crash: usize,
    /// Crash events fired.
    pub crashes: usize,
    /// Crash-recover restarts completed.
    pub recoveries: usize,
    /// Copies re-sent by the ack/retransmit protocol.
    pub retransmissions: usize,
    /// Copies whose payload was tampered with in transit (Byzantine
    /// corruption faults).
    pub corrupted: usize,
    /// Acknowledgements sent (one per delivery in reliable mode).
    pub acks: usize,
    /// Messages processed by a deliberately slowed (straggler) node —
    /// each one stalled its node's progress (threaded runtime only;
    /// the simulator accounts stragglers in MPC tail time instead).
    pub straggler_stalls: usize,
    /// Copies held at the source because a partition epoch severed
    /// their link; flushed on heal (never lost).
    pub partitioned: usize,
}

impl FaultStats {
    /// Messages attributable to explicit coordination: acks plus
    /// retransmissions. Zero in a non-reliable run.
    pub fn coordination_messages(&self) -> usize {
        self.acks + self.retransmissions
    }

    /// Project the injector's tallies onto the trace-layer counter
    /// shape, for cross-validating an attached sink against the
    /// injector's own books. Fields the injector does not track
    /// (`sent`, `delivered`, `bytes`) stay zero; copies destroyed by a
    /// crash land in `wasted`; partition holds land in `delayed` (a
    /// hold-and-flush is a delay on the wire).
    pub fn as_comm_counters(&self) -> parlog_trace::CommCounters {
        parlog_trace::CommCounters {
            dropped: self.dropped as u64,
            duplicated: self.duplicated as u64,
            delayed: (self.delayed + self.partitioned) as u64,
            reordered: self.reordered as u64,
            retransmitted: self.retransmissions as u64,
            acks: self.acks as u64,
            wasted: self.lost_in_crash as u64,
            ..parlog_trace::CommCounters::default()
        }
    }
}

/// Refuse a plan that sets a fault only the MPC cluster enforces
/// ([`FaultPlan::mpc_only`]): a transducer network has no verified rounds
/// to corrupt and no round barrier to speculate on.
pub(crate) fn refuse_mpc_only(plan: &FaultPlan) {
    if let Some(field) = plan.mpc_only() {
        panic!("a transducer runtime cannot enforce `{field}`: it is a fault of MPC rounds");
    }
}

/// Byzantine tampering in transit, tallied in `stats`: one argument of
/// `fact`, chosen by the fate's entropy `e`, is flipped by a nonzero
/// entropy-derived delta, so the destination receives a well-formed but
/// *wrong* fact. A zero-arity fact has nothing to flip and passes
/// unchanged.
pub(crate) fn corrupt_in_transit(mut fact: Fact, e: u64, stats: &mut FaultStats) -> Fact {
    stats.corrupted += 1;
    if !fact.args.is_empty() {
        let idx = e as usize % fact.args.len();
        fact.args[idx].0 ^= (e | 1) & 0xFFFF;
    }
    fact
}

/// A message copy parked until the clock reaches `release`: either a
/// delayed delivery or a scheduled retransmission.
#[derive(Debug, Clone)]
pub(crate) struct ParkedMsg<M> {
    pub release: usize,
    pub dest: usize,
    pub from: usize,
    pub msg: M,
    /// Send attempts so far (retransmissions only; 0 for pure delays).
    pub attempts: u32,
}

/// The fault-side state of a run: injector, clocks, queues, health.
/// Embedded in the simulator's `SimRun`; `None`-plan runs keep it inert.
#[derive(Clone)]
pub(crate) struct FaultState<M> {
    pub injector: Option<parlog_faults::FaultInjector>,
    /// Virtual time: delivered messages, plus jumps at drain boundaries.
    pub clock: usize,
    pub health: Vec<Health>,
    /// Copies held back by the delay fault.
    pub delayed: Vec<ParkedMsg<M>>,
    /// Sender-side retransmission queue (reliable mode).
    pub retrans: Vec<ParkedMsg<M>>,
    /// Which plan crash events have fired already.
    pub fired: Vec<bool>,
    pub stats: FaultStats,
}

impl<M: Clone> FaultState<M> {
    pub fn inert(n: usize) -> FaultState<M> {
        FaultState {
            injector: None,
            clock: 0,
            health: vec![Health::Up; n],
            delayed: Vec::new(),
            retrans: Vec::new(),
            fired: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    pub fn install(&mut self, plan: &FaultPlan) {
        self.fired = vec![false; plan.crashes.len()];
        self.injector = Some(plan.injector());
    }

    pub fn plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(|i| i.plan())
    }

    /// Is the ack/retransmit protocol active?
    pub fn reliable(&self) -> Option<parlog_faults::RetransmitPolicy> {
        self.plan().and_then(|p| p.retransmit)
    }

    /// Decide the fate of one copy. `Deliver` when no injector is
    /// installed — the fault-free fast path.
    pub fn fate(&mut self) -> MessageFate {
        match &mut self.injector {
            None => MessageFate::Deliver,
            Some(inj) => inj.fate(),
        }
    }

    /// The installed partition schedule, if any.
    pub fn partition(&self) -> Option<&parlog_faults::PartitionPlan> {
        self.plan().and_then(|p| p.partition.as_ref())
    }

    /// If an open partition epoch severs `from → to` at the current
    /// clock, the heal clock at which a held copy releases. Checked
    /// *before* the injector's dice: a severed link delivers nothing,
    /// so there is no fate to roll.
    pub fn severed(&self, from: usize, to: usize) -> Option<usize> {
        self.partition()
            .and_then(|p| p.severed(self.clock, from, to))
    }

    /// Park one copy held by a partition until the severing epoch
    /// heals. `usize::MAX` releases never fire (permanent partition):
    /// the copy stays parked but does not count as pending work, so a
    /// deadlocked run can still quiesce and be observed.
    pub fn hold_partitioned(&mut self, from: usize, dest: usize, msg: M, until: usize) {
        self.stats.partitioned += 1;
        self.delayed.push(ParkedMsg {
            release: until,
            dest,
            from,
            msg,
            attempts: 0,
        });
    }

    /// Where to insert into a buffer of length `len`; `None` = back.
    pub fn enqueue_position(&mut self, len: usize) -> Option<usize> {
        match &mut self.injector {
            None => None,
            Some(inj) => inj.enqueue_position(len),
        }
    }

    /// Park a retransmission of a copy whose previous attempt was lost,
    /// with capped exponential backoff and deterministic seeded jitter
    /// (keyed by the plan seed and the `(from, dest, attempts)` triple —
    /// see [`RetransmitPolicy::backoff`](parlog_faults::RetransmitPolicy::backoff)).
    /// Gives up past the retry budget.
    pub fn schedule_retrans(&mut self, from: usize, dest: usize, msg: M, attempts: u32) {
        let seed = self.plan().map_or(0, |p| p.seed);
        if let Some(policy) = self.reliable() {
            if attempts < policy.max_retries {
                let backoff = policy.backoff(seed, from, dest, attempts);
                self.retrans.push(ParkedMsg {
                    release: self.clock + backoff,
                    dest,
                    from,
                    msg,
                    attempts: attempts + 1,
                });
            }
        }
    }

    /// Crash events due at or before the current clock that have not
    /// fired yet. Returns `(plan_index, event)` pairs.
    pub fn due_crashes(&self) -> Vec<(usize, parlog_faults::CrashEvent)> {
        match self.plan() {
            None => Vec::new(),
            Some(plan) => plan
                .crashes
                .iter()
                .enumerate()
                .filter(|(i, c)| !self.fired[*i] && c.at_step <= self.clock)
                .map(|(i, c)| (i, *c))
                .collect(),
        }
    }

    /// Apply one crash event: mark health, purge in-flight state tied to
    /// the node. The caller purges its own buffers.
    pub fn apply_crash(&mut self, idx: usize, event: parlog_faults::CrashEvent) {
        self.fired[idx] = true;
        self.stats.crashes += 1;
        self.health[event.node] = match event.kind {
            CrashKind::Stop => Health::Stopped,
            CrashKind::Recover { downtime } => Health::Down {
                until: self.clock + downtime.max(1),
            },
        };
        // The crashed node's volatile send state dies with it: parked
        // copies *from* it are gone. Copies *to* it that were already in
        // the delivery network are lost too; sender-side retransmission
        // records (`retrans` with dest == node) survive — that is the
        // whole point of the ack/retransmit protocol.
        let node = event.node;
        let before = self.delayed.len() + self.retrans.len();
        self.delayed.retain(|m| m.from != node && m.dest != node);
        self.retrans.retain(|m| m.from != node);
        self.stats.lost_in_crash += before - (self.delayed.len() + self.retrans.len());
    }

    /// Nodes whose downtime has elapsed at the current clock.
    pub fn due_recoveries(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, Health::Down { until } if *until <= self.clock))
            .map(|(i, _)| i)
            .collect()
    }

    /// Earliest future clock value at which anything changes: a parked
    /// release, a recovery, or an unfired crash. `None` = nothing ahead.
    pub fn next_event(&self) -> Option<usize> {
        let parked = self
            .delayed
            .iter()
            .chain(self.retrans.iter())
            .map(|m| m.release)
            .filter(|&r| r != usize::MAX)
            .min();
        let recovery = self
            .health
            .iter()
            .filter_map(|h| match h {
                Health::Down { until } => Some(*until),
                _ => None,
            })
            .min();
        let crash = self.plan().and_then(|p| {
            p.crashes
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.fired[*i])
                .map(|(_, c)| c.at_step)
                .min()
        });
        [parked, recovery, crash].into_iter().flatten().min()
    }

    /// Take every parked copy whose release is due. Retransmissions are
    /// counted here — at the moment they actually go back on the wire.
    pub fn take_due(&mut self) -> Vec<ParkedMsg<M>> {
        let clock = self.clock;
        let mut due: Vec<ParkedMsg<M>> = Vec::new();
        self.delayed.retain(|m| {
            if m.release <= clock && m.release != usize::MAX {
                due.push(m.clone());
                false
            } else {
                true
            }
        });
        let mut retrans_due = 0usize;
        self.retrans.retain(|m| {
            if m.release <= clock {
                due.push(m.clone());
                retrans_due += 1;
                false
            } else {
                true
            }
        });
        self.stats.retransmissions += retrans_due;
        due
    }

    /// Is any fault-side work pending? Copies held by a *permanent*
    /// partition (release `usize::MAX`) will never move again and do
    /// not count — a deadlocked run must still be able to quiesce.
    pub fn idle(&self) -> bool {
        self.delayed.iter().all(|m| m.release == usize::MAX) && self.retrans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_state_is_a_noop_router() {
        let mut fs: FaultState<u32> = FaultState::inert(3);
        assert_eq!(fs.fate(), MessageFate::Deliver);
        assert_eq!(fs.enqueue_position(10), None);
        assert!(fs.due_crashes().is_empty());
        assert_eq!(fs.next_event(), None);
        assert!(fs.idle());
        fs.schedule_retrans(0, 1, 9, 0); // no policy: dropped silently
        assert!(fs.retrans.is_empty());
    }

    #[test]
    fn retransmit_backs_off_exponentially() {
        // A jitter-free policy reproduces the plain exponential schedule.
        let mut fs: FaultState<u32> = FaultState::inert(2);
        fs.install(
            &FaultPlan::lossy(1, 0.5).with_retransmit(parlog_faults::RetransmitPolicy::fixed(3, 2)),
        );
        fs.clock = 10;
        fs.schedule_retrans(0, 1, 7, 0);
        fs.schedule_retrans(0, 1, 7, 2);
        assert_eq!(fs.retrans[0].release, 12); // 10 + 2<<0
        assert_eq!(fs.retrans[1].release, 18); // 10 + 2<<2
        fs.schedule_retrans(0, 1, 7, 3); // budget exhausted
        assert_eq!(fs.retrans.len(), 2);
    }

    #[test]
    fn retransmit_jitter_is_capped_and_reproducible() {
        let policy = parlog_faults::RetransmitPolicy {
            max_retries: 6,
            backoff_base: 4,
            backoff_cap: 16,
            jitter_pct: 50,
        };
        let releases = |seed: u64| -> Vec<usize> {
            let mut fs: FaultState<u32> = FaultState::inert(4);
            fs.install(&FaultPlan::lossy(seed, 0.5).with_retransmit(policy));
            fs.clock = 100;
            for dest in 1..4 {
                for attempts in 0..5 {
                    fs.schedule_retrans(0, dest, 7, attempts);
                }
            }
            fs.retrans.iter().map(|m| m.release).collect()
        };
        let a = releases(3);
        assert_eq!(a, releases(3), "same seed, same jittered schedule");
        assert_ne!(a, releases(4), "jitter must depend on the plan seed");
        for (i, r) in a.iter().enumerate() {
            let attempts = (i % 5) as u32;
            let exp = (4usize << attempts).min(16);
            assert!(
                (100 + exp - exp / 2..=100 + exp).contains(r),
                "release {r} (attempt {attempts}) outside jitter window"
            );
        }
    }

    #[test]
    fn crash_purges_inflight_but_keeps_sender_retrans() {
        let mut fs: FaultState<u32> = FaultState::inert(3);
        fs.install(&FaultPlan::crash_stop(1, 1, 0));
        fs.delayed.push(ParkedMsg {
            release: 5,
            dest: 1,
            from: 0,
            msg: 1,
            attempts: 0,
        });
        fs.delayed.push(ParkedMsg {
            release: 5,
            dest: 2,
            from: 1,
            msg: 2,
            attempts: 0,
        });
        fs.retrans.push(ParkedMsg {
            release: 5,
            dest: 1,
            from: 0,
            msg: 3,
            attempts: 1,
        });
        let (idx, ev) = fs.due_crashes()[0];
        fs.apply_crash(idx, ev);
        assert!(fs.delayed.is_empty(), "in-flight copies to/from node 1 die");
        assert_eq!(fs.retrans.len(), 1, "sender-side record to node 1 survives");
        assert_eq!(fs.stats.lost_in_crash, 2);
        assert_eq!(fs.health[1], Health::Stopped);
    }

    #[test]
    fn partition_holds_flush_on_heal() {
        let mut fs: FaultState<u32> = FaultState::inert(3);
        fs.install(&FaultPlan::partitioned(
            1,
            parlog_faults::PartitionPlan::split(0, 6, &[0]),
        ));
        assert_eq!(fs.severed(0, 1), Some(6));
        assert_eq!(fs.severed(1, 2), None, "same side stays connected");
        fs.hold_partitioned(0, 1, 42, 6);
        assert!(!fs.idle());
        assert_eq!(fs.next_event(), Some(6));
        fs.clock = 6;
        assert_eq!(fs.severed(0, 1), None, "healed");
        let due = fs.take_due();
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].msg, 42);
        assert_eq!(fs.stats.partitioned, 1);
        assert_eq!(fs.stats.retransmissions, 0, "a flush is not a retransmit");
        assert_eq!(
            fs.stats.as_comm_counters().delayed,
            1,
            "holds project onto the delayed counter"
        );
    }

    #[test]
    fn permanent_holds_never_release_and_do_not_block_quiescence() {
        let mut fs: FaultState<u32> = FaultState::inert(2);
        fs.install(&FaultPlan::partitioned(
            2,
            parlog_faults::PartitionPlan::permanent_split(0, &[0]),
        ));
        assert_eq!(fs.severed(0, 1), Some(usize::MAX));
        fs.hold_partitioned(0, 1, 9, usize::MAX);
        assert!(fs.idle(), "permanently held copies are not pending work");
        assert_eq!(fs.next_event(), None);
        fs.clock = 1_000_000;
        assert!(fs.take_due().is_empty(), "a MAX release never fires");
        assert_eq!(fs.delayed.len(), 1, "the copy stays parked, not lost");
    }

    #[test]
    fn take_due_counts_retransmissions() {
        let mut fs: FaultState<u32> = FaultState::inert(2);
        fs.retrans.push(ParkedMsg {
            release: 3,
            dest: 1,
            from: 0,
            msg: 1,
            attempts: 1,
        });
        fs.delayed.push(ParkedMsg {
            release: 9,
            dest: 1,
            from: 0,
            msg: 2,
            attempts: 0,
        });
        fs.clock = 4;
        let due = fs.take_due();
        assert_eq!(due.len(), 1);
        assert_eq!(fs.stats.retransmissions, 1);
        assert!(!fs.idle());
        assert_eq!(fs.next_event(), Some(9));
    }
}
