//! Fair asynchronous execution of transducer networks.
//!
//! "Computation is modeled as a transition system. At every point in time,
//! one node is active and can perform a transition … The input message is
//! chosen nondeterministically to model arbitrary delay of messages." We
//! realize the nondeterminism with pluggable [`Schedule`]s — seeded-random
//! (sampling fair runs), FIFO, LIFO (maximal reordering) and round-robin —
//! and run until **quiescence**: all buffers drained and heartbeats
//! produce no further change. For set-driven programs quiescence is the
//! run's fixpoint, realizing eventual consistency on finite inputs.
//!
//! The runtime deduplicates a node's repeated broadcasts of the same fact
//! (receivers are idempotent — their states are sets), which keeps runs
//! finite without changing any program's semantics.

use crate::faulty::{corrupt_in_transit, FaultState, FaultStats, Health};
use crate::network::NodeState;
use crate::program::{Ctx, TransducerProgram};
use parlog_faults::{FaultPlan, MessageFate};
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::{fxset, FxSet};
use parlog_relal::instance::Instance;
use parlog_trace::{CommCounters, FaultEvent, FaultEventKind, TraceEvent, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Message-delivery strategies. All are fair (no message is deferred
/// forever) because delivery continues until the buffers drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Uniformly random node and message choice, seeded.
    Random(u64),
    /// Deliver oldest messages first, nodes round-robin.
    Fifo,
    /// Deliver newest messages first (maximal reordering), nodes
    /// round-robin.
    Lifo,
    /// One delivery per node in turn, oldest first.
    RoundRobin,
}

impl Schedule {
    /// The delivery dice a run under this schedule starts from: seeded
    /// by a `Random` schedule's seed, by 0 otherwise.
    pub fn rng(self) -> StdRng {
        let seed = match self {
            Schedule::Random(s) => s,
            _ => 0,
        };
        StdRng::seed_from_u64(seed)
    }
}

/// A simulated run of a transducer network. A clone is an independent
/// run from the same state on: the exhaustive explorer
/// ([`crate::exhaustive`]) branches by cloning.
#[derive(Clone)]
pub struct SimRun {
    /// Node states.
    pub nodes: Vec<NodeState>,
    /// In-flight messages per destination: `(from, fact)`.
    buffers: Vec<Vec<(usize, Fact)>>,
    /// Per-node set of facts already broadcast (runtime-level dedup).
    sent: Vec<FxSet<Fact>>,
    /// Durable snapshots: the initial shard of every node, from which a
    /// crash-recover node restarts. Shared by clones until one adopts a
    /// shard.
    shards: Arc<Vec<Instance>>,
    /// Fault-injection state; inert (a pure pass-through) unless a
    /// [`FaultPlan`] is installed.
    faults: FaultState<Fact>,
    /// Which partition epochs were open at the last pump — transition
    /// edges emit `PartitionStart` / `PartitionHeal` trace events.
    partition_open: Vec<bool>,
    /// Observability handle; off (free) by default.
    trace: TraceHandle,
    ctx: Ctx,
    /// Total messages delivered so far.
    delivered: usize,
    /// Total facts broadcast (before fan-out to n−1 receivers).
    facts_broadcast: usize,
}

impl SimRun {
    /// Set up a network for the run `rc` describes: one node per shard,
    /// `init` everywhere with the initial broadcasts queued, then the
    /// trace attached and the fault plan installed, in that order (the
    /// init broadcasts are routed through the plan's injector). Without a
    /// plan the buffered init copies are booked on the trace as delivered,
    /// as a benign plan would book them, with no fate drawn. Panics on a
    /// plan's MPC-only fields ([`FaultPlan::mpc_only`]).
    pub fn new<P: TransducerProgram + ?Sized>(
        program: &P,
        shards: &[Instance],
        rc: &RunCtx<'_>,
    ) -> SimRun {
        let mut run = SimRun::setup(program, shards, rc.ctx.clone());
        run.trace = rc.trace.clone();
        match rc.faults {
            Some(plan) => run.install_plan(plan),
            None => {
                for (_, fact) in run.buffers.iter().flatten() {
                    run.book_wire(fact, 1, CommCounters::default());
                }
            }
        }
        run
    }

    /// The network after `init`, with no trace and no fault plan: the
    /// start state [`SimRun::new`] and the exhaustive explorer build on.
    pub(crate) fn setup<P: TransducerProgram + ?Sized>(
        program: &P,
        shards: &[Instance],
        ctx: Ctx,
    ) -> SimRun {
        assert!(!shards.is_empty(), "a network needs at least one node");
        if program.requires_all() {
            assert!(
                ctx.all.is_some(),
                "program `{}` requires the All relation but the context is oblivious",
                program.name()
            );
        }
        let n = shards.len();
        let mut run = SimRun {
            nodes: shards
                .iter()
                .enumerate()
                .map(|(i, s)| NodeState::new(i, s.clone()))
                .collect(),
            buffers: vec![Vec::new(); n],
            sent: vec![fxset(); n],
            shards: Arc::new(shards.to_vec()),
            faults: FaultState::inert(n),
            partition_open: Vec::new(),
            trace: TraceHandle::off(),
            ctx,
            delivered: 0,
            facts_broadcast: 0,
        };
        for i in 0..n {
            let out = program.init(&mut run.nodes[i], &run.ctx.clone());
            run.broadcast(i, out);
        }
        run
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// What the injector did so far (all zeros for fault-free runs).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Liveness of node `i`.
    pub fn health(&self, i: usize) -> Health {
        self.faults.health[i]
    }

    /// The run's virtual clock: delivered messages plus fast-forward
    /// jumps at drain boundaries. Supervisors time failure detection and
    /// recovery against this clock.
    pub fn clock(&self) -> usize {
        self.faults.clock
    }

    /// Is the directed link `from → to` severed by an open partition
    /// epoch at the current clock?
    pub fn link_severed(&self, from: usize, to: usize) -> bool {
        self.faults.severed(from, to).is_some()
    }

    /// Copies currently held at sources because their link is severed
    /// by an open partition epoch (parked until heal; parked forever
    /// under a permanent split).
    pub fn held_by_partition(&self) -> usize {
        self.faults
            .delayed
            .iter()
            .filter(|m| m.release == usize::MAX || self.faults.severed(m.from, m.dest).is_some())
            .count()
    }

    /// Node ids currently able to take transitions.
    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&i| self.faults.health[i].is_up())
            .collect()
    }

    /// The durable snapshot (initial shard) of node `i` — what survives
    /// a crash, and what a supervisor re-replicates when the node won't.
    pub fn shard(&self, i: usize) -> &Instance {
        &self.shards[i]
    }

    /// The copies buffered at node `dest`, as `(from, fact)`.
    pub(crate) fn buffer(&self, dest: usize) -> &[(usize, Fact)] {
        &self.buffers[dest]
    }

    /// Adversary edit: lose copy `idx` of node `dest`'s buffer in
    /// transit.
    pub(crate) fn drop_copy(&mut self, dest: usize, idx: usize) {
        self.buffers[dest].remove(idx);
        self.faults.stats.dropped += 1;
    }

    /// Adversary edit: put a second copy of `idx` at the back of node
    /// `dest`'s buffer.
    pub(crate) fn duplicate_copy(&mut self, dest: usize, idx: usize) {
        let copy = self.buffers[dest][idx].clone();
        self.buffers[dest].push(copy);
        self.faults.stats.duplicated += 1;
    }

    /// **Shard re-replication** — the supervisor's heal action for a
    /// crash-stopped node: survivor `to` adopts the durable shard of
    /// `dead`, replays it through its own transition function (as a
    /// self-delivery) and rebroadcasts it, so the network re-derives
    /// everything the dead node's data contributed. The shard is also
    /// merged into `to`'s durable snapshot, making the adoption itself
    /// crash-proof. Returns the number of facts adopted (the extra load
    /// the heal places on `to` before fan-out).
    ///
    /// # Panics
    /// Panics if `to` is not up.
    pub fn adopt_shard<P: TransducerProgram + ?Sized>(
        &mut self,
        program: &P,
        dead: usize,
        to: usize,
    ) -> usize {
        assert!(
            self.faults.health[to].is_up(),
            "cannot re-replicate onto a down node"
        );
        let shard = self.shards[dead].clone();
        let ctx = self.ctx.clone();
        let mut adopted = Vec::with_capacity(shard.len());
        for f in shard.iter() {
            let out = program.on_fact(&mut self.nodes[to], to, f, &ctx);
            self.broadcast(to, out);
            adopted.push(f.clone());
        }
        self.broadcast(to, adopted);
        Arc::make_mut(&mut self.shards)[to].extend_from(&shard);
        self.fault_event(FaultEventKind::Heal, dead, shard.len() as u64);
        shard.len()
    }

    /// Install a fault plan mid-setup: all *future* routing goes through
    /// the injector, and the already-buffered init broadcasts are
    /// re-routed through it too, so init messages are as faulty as any
    /// others. With a benign plan this is the identity.
    fn install_plan(&mut self, plan: &FaultPlan) {
        crate::faulty::refuse_mpc_only(plan);
        self.faults.install(plan);
        self.partition_open = vec![false; plan.partition.as_ref().map_or(0, |p| p.epochs.len())];
        self.pump_partition_events();
        for dest in 0..self.n() {
            let copies = std::mem::take(&mut self.buffers[dest]);
            for (from, fact) in copies {
                self.send_copy(from, dest, fact, 0);
            }
        }
    }

    fn broadcast(&mut self, from: usize, facts: Vec<Fact>) {
        for f in facts {
            if !self.sent[from].insert(f.clone()) {
                continue; // runtime-level dedup per sender
            }
            self.facts_broadcast += 1;
            for dest in 0..self.buffers.len() {
                if dest != from {
                    self.send_copy(from, dest, f.clone(), 0);
                }
            }
        }
    }

    /// Book `sent` wire copies of `fact` on the trace, with the fate's
    /// counters `c`.
    fn book_wire(&self, fact: &Fact, sent: u64, c: CommCounters) {
        self.trace.emit(|| {
            TraceEvent::Comm(CommCounters {
                sent,
                bytes: sent * CommCounters::wire_bytes(fact.args.len()),
                ..c
            })
        });
    }

    /// The single routing function: every copy of every message — normal,
    /// lossy, duplicated, delayed, retransmitted — passes through here.
    /// `attempts` is 0 for first sends and counts retransmissions.
    fn send_copy(&mut self, from: usize, dest: usize, fact: Fact, attempts: u32) {
        let none = CommCounters::default();
        if let Some(until) = self.faults.severed(from, dest) {
            // An open partition epoch severs this link: the copy is held
            // *at the source* — never lost — and flushed back through
            // this router when the epoch heals (where the destination's
            // health and any later epoch are re-checked). Distinct from
            // `Drop`: the model's no-loss assumption is preserved.
            self.book_wire(&fact, 1, CommCounters { delayed: 1, ..none });
            self.faults.hold_partitioned(from, dest, fact, until);
            return;
        }
        if !self.faults.health[dest].is_up() {
            // The destination is down; the copy is lost in transit. In
            // reliable mode the sender's ack timeout will fire and it
            // retries — which is exactly how a crash-recover node gets
            // its mail back.
            self.faults.stats.lost_in_crash += 1;
            self.book_wire(&fact, 1, CommCounters { wasted: 1, ..none });
            self.faults.schedule_retrans(from, dest, fact, attempts);
            return;
        }
        match self.faults.fate() {
            MessageFate::Deliver => {
                self.book_wire(&fact, 1, none);
                self.enqueue(dest, from, fact);
            }
            MessageFate::Drop => {
                self.book_wire(&fact, 1, CommCounters { dropped: 1, ..none });
                self.faults.stats.dropped += 1;
                self.faults.schedule_retrans(from, dest, fact, attempts);
            }
            MessageFate::Duplicate => {
                self.book_wire(
                    &fact,
                    2,
                    CommCounters {
                        duplicated: 1,
                        ..none
                    },
                );
                self.faults.stats.duplicated += 1;
                self.enqueue(dest, from, fact.clone());
                self.enqueue(dest, from, fact);
            }
            MessageFate::Delay(d) => {
                self.book_wire(&fact, 1, CommCounters { delayed: 1, ..none });
                self.faults.stats.delayed += 1;
                let release = self.faults.clock + d as usize;
                self.faults.delayed.push(crate::faulty::ParkedMsg {
                    release,
                    dest,
                    from,
                    msg: fact,
                    attempts,
                });
            }
            MessageFate::Corrupt(e) => {
                // A corrupted copy still travels the wire once; the
                // tampering itself is reported on the fault timeline, not
                // in the comm counters.
                self.book_wire(&fact, 1, none);
                let tampered = corrupt_in_transit(fact, e, &mut self.faults.stats);
                self.fault_event(FaultEventKind::Corrupt, dest, e);
                self.enqueue(dest, from, tampered);
            }
        }
    }

    /// Place one copy in a destination buffer, possibly at a reordered
    /// position.
    fn enqueue(&mut self, dest: usize, from: usize, fact: Fact) {
        let len = self.buffers[dest].len();
        match self.faults.enqueue_position(len) {
            None => self.buffers[dest].push((from, fact)),
            Some(pos) => {
                self.faults.stats.reordered += 1;
                self.trace.emit(|| {
                    TraceEvent::Comm(CommCounters {
                        reordered: 1,
                        ..CommCounters::default()
                    })
                });
                self.buffers[dest].insert(pos, (from, fact));
            }
        }
    }

    /// Emit `PartitionStart` / `PartitionHeal` on epoch open/close
    /// edges observed at the current clock. `node` carries the epoch
    /// index; a start's `info` is the scheduled heal clock
    /// (`u64::MAX` = permanent), a heal's `info` is the number of held
    /// copies released by that heal.
    fn pump_partition_events(&mut self) {
        let Some(plan) = self.faults.partition() else {
            return;
        };
        let clock = self.faults.clock;
        for (node, start) in plan.edges(&mut self.partition_open, clock) {
            let (kind, info) = match start {
                Some(heal) => (FaultEventKind::PartitionStart, heal),
                None => {
                    let heal = plan.epochs[node].heal;
                    let released = self.faults.delayed.iter().filter(|m| m.release == heal);
                    (FaultEventKind::PartitionHeal, released.count() as u64)
                }
            };
            self.fault_event(kind, node, info);
        }
    }

    /// Record a fault-timeline event about `node` at the current clock.
    fn fault_event(&self, kind: FaultEventKind, node: usize, info: u64) {
        let vclock = self.faults.clock as f64;
        let event = FaultEvent {
            vclock,
            kind,
            node,
            info,
        };
        self.trace.record(TraceEvent::Fault(event));
    }

    /// Fire due crash events, restart due recoveries, release due parked
    /// copies. Called before every delivery choice and at drain
    /// boundaries.
    fn pump<P: TransducerProgram + ?Sized>(&mut self, program: &P) {
        self.pump_partition_events();
        for (idx, event) in self.faults.due_crashes() {
            self.faults.apply_crash(idx, event);
            // In-flight copies touching the crashed node are lost: its
            // incoming buffer, and its own undelivered broadcasts.
            let node = event.node;
            let mut lost = std::mem::take(&mut self.buffers[node]).len();
            for buf in &mut self.buffers {
                let before = buf.len();
                buf.retain(|(from, _)| *from != node);
                lost += before - buf.len();
            }
            self.faults.stats.lost_in_crash += lost;
            if lost > 0 {
                // In-flight copies destroyed by the crash never reach
                // `send_copy` again — book their waste here so the sink
                // agrees with the injector's `lost_in_crash` tally.
                self.trace.emit(|| {
                    TraceEvent::Comm(CommCounters {
                        wasted: lost as u64,
                        ..CommCounters::default()
                    })
                });
            }
            self.fault_event(FaultEventKind::Crash, node, lost as u64);
        }
        let recoveries = self.faults.due_recoveries();
        for node in recoveries {
            // Restart from the durable snapshot: volatile state (received
            // facts, aux, output, send-dedup) is gone; init re-runs and
            // rebroadcasts the node's own data.
            self.faults.health[node] = Health::Up;
            self.faults.stats.recoveries += 1;
            self.fault_event(FaultEventKind::Recovery, node, 0);
            self.nodes[node] = NodeState::new(node, self.shards[node].clone());
            self.sent[node].clear();
            let ctx = self.ctx.clone();
            let out = program.init(&mut self.nodes[node], &ctx);
            self.broadcast(node, out);
        }
        let retrans_before = self.faults.stats.retransmissions;
        let due = self.faults.take_due();
        let retrans = self.faults.stats.retransmissions - retrans_before;
        if retrans > 0 {
            self.trace.emit(|| {
                TraceEvent::Comm(CommCounters {
                    retransmitted: retrans as u64,
                    ..CommCounters::default()
                })
            });
        }
        for parked in due {
            self.send_copy(parked.from, parked.dest, parked.msg, parked.attempts);
        }
    }

    /// At a drain boundary (nothing deliverable now), jump the clock to
    /// the next fault event — a parked release, a recovery, an unfired
    /// crash — and process it. Returns whether anything was ahead.
    fn advance_clock<P: TransducerProgram + ?Sized>(&mut self, program: &P) -> bool {
        match self.faults.next_event() {
            None => false,
            Some(t) => {
                self.faults.clock = t.max(self.faults.clock);
                self.pump(program);
                true
            }
        }
    }

    /// Are all message buffers empty?
    pub(crate) fn quiet(&self) -> bool {
        self.buffers.iter().all(|b| b.is_empty())
    }

    /// Deliver one message according to `schedule`. Returns `false` when
    /// nothing is in flight.
    pub fn step<P: TransducerProgram + ?Sized>(
        &mut self,
        program: &P,
        schedule: Schedule,
        rng: &mut StdRng,
        rr_cursor: &mut usize,
    ) -> bool {
        self.pump(program);
        let nonempty: Vec<usize> = (0..self.n())
            .filter(|&i| self.faults.health[i].is_up() && !self.buffers[i].is_empty())
            .collect();
        if nonempty.is_empty() {
            return false;
        }
        let (node, idx) = match schedule {
            Schedule::Random(_) => {
                let node = nonempty[rng.gen_range(0..nonempty.len())];
                (node, rng.gen_range(0..self.buffers[node].len()))
            }
            Schedule::Fifo => (nonempty[0], 0),
            Schedule::Lifo => (nonempty[0], self.buffers[nonempty[0]].len() - 1),
            Schedule::RoundRobin => {
                let node = *nonempty
                    .iter()
                    .find(|&&i| i >= *rr_cursor)
                    .unwrap_or(&nonempty[0]);
                *rr_cursor = (node + 1) % self.n();
                (node, 0)
            }
        };
        self.deliver(program, node, idx);
        true
    }

    /// The delivery transition: node `node` consumes copy `idx` of its
    /// buffer — clock, ack and trace bookkeeping, `on_fact`, and the
    /// broadcast of what it returns. [`SimRun::step`] is a choice of
    /// `(node, idx)` followed by this; the exhaustive explorer makes
    /// every choice.
    pub(crate) fn deliver<P: TransducerProgram + ?Sized>(
        &mut self,
        program: &P,
        node: usize,
        idx: usize,
    ) {
        let (from, fact) = self.buffers[node].remove(idx);
        self.delivered += 1;
        self.faults.clock += 1;
        let acked = self.faults.reliable().is_some();
        if acked {
            self.faults.stats.acks += 1; // receiver acknowledges
        }
        self.trace.emit(|| {
            TraceEvent::Comm(CommCounters {
                delivered: 1,
                acks: acked as u64,
                ..CommCounters::default()
            })
        });
        let out = program.on_fact(&mut self.nodes[node], from, &fact, &self.ctx);
        self.broadcast(node, out);
    }

    /// One heartbeat per node; returns whether any state or broadcast
    /// changed.
    fn heartbeat_round<P: TransducerProgram + ?Sized>(&mut self, program: &P) -> bool {
        let mut changed = false;
        for i in 0..self.n() {
            if !self.faults.health[i].is_up() {
                continue; // crashed nodes take no transitions
            }
            let before = self.nodes[i].output_so_far().len();
            let ctx = self.ctx.clone();
            let out = program.heartbeat(&mut self.nodes[i], &ctx);
            if !out.is_empty() {
                changed = true;
            }
            self.broadcast(i, out);
            if self.nodes[i].output_so_far().len() != before {
                changed = true;
            }
        }
        changed
    }

    /// The one loop to quiescence: deliver by `schedule` (its `rng` and
    /// round-robin cursor `rr` carry over between calls), fast-forward
    /// the clock to parked releases, recoveries and unfired crashes when
    /// nothing is deliverable, then run heartbeat rounds; return once the
    /// buffers are empty, heartbeats change nothing and no fault work is
    /// pending. `before_step` runs before every delivery choice — where a
    /// supervisor's control plane probes; [`run`] passes a no-op. Panics
    /// after an absurd number of deliveries (divergence guard).
    pub fn run_until_quiet<P, F>(
        &mut self,
        program: &P,
        schedule: Schedule,
        rng: &mut StdRng,
        rr: &mut usize,
        mut before_step: F,
    ) where
        P: TransducerProgram + ?Sized,
        F: FnMut(&mut SimRun),
    {
        let budget = 10_000_000usize;
        let mut steps = 0usize;
        loop {
            before_step(self);
            while self.step(program, schedule, rng, rr) {
                steps += 1;
                assert!(steps < budget, "transducer run diverged (no quiescence)");
                before_step(self);
            }
            if self.advance_clock(program) {
                continue;
            }
            // Buffers drained: heartbeats may trigger more work.
            let mut hb_changed = false;
            for _ in 0..self.n() + 1 {
                if self.heartbeat_round(program) {
                    hb_changed = true;
                } else {
                    break;
                }
            }
            if !hb_changed && self.quiet() && self.faults.idle() {
                return;
            }
        }
    }

    /// The union of all outputs — the result of the run.
    pub fn outputs(&self) -> Instance {
        let mut out = Instance::new();
        for n in &self.nodes {
            out.extend_from(n.output_so_far());
        }
        out
    }

    fn outcome(&self) -> RunOutcome {
        RunOutcome {
            output: self.outputs(),
            stats: self.fault_stats(),
            delivered: self.delivered,
            facts_broadcast: self.facts_broadcast,
            clock: self.clock(),
        }
    }
}

/// The mutually exclusive ways a run proceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The simulator, delivering by the schedule until quiescence.
    Simulated(Schedule),
    /// The simulator with messages sent but never read: `init`, then
    /// heartbeat rounds until the outputs stabilize — the mode the
    /// coordination-freeness definition quantifies over.
    HeartbeatsOnly,
    /// One OS thread per node ([`crate::threaded`]): real concurrency,
    /// cross-validated against the simulator.
    Threaded,
}

/// What a run takes besides the program and the shards.
#[derive(Clone)]
pub struct RunCtx<'a> {
    /// The context handed to every transition.
    pub ctx: Ctx,
    /// Simulated under a schedule, heartbeat-only, or threaded.
    pub mode: RunMode,
    /// The fault plan; `None` is the fault-free run, the same code path
    /// with an inert injector (`zero_loss_rate_equals_normal_run`).
    pub faults: Option<&'a FaultPlan>,
    /// Comm counters and the crash / recovery / heal timeline.
    pub trace: TraceHandle,
}

impl<'a> RunCtx<'a> {
    /// A fault-free, untraced run in `mode`.
    pub fn new(ctx: Ctx, mode: RunMode) -> RunCtx<'a> {
        RunCtx {
            ctx,
            mode,
            faults: None,
            trace: TraceHandle::off(),
        }
    }

    /// A simulated run under `schedule`.
    pub fn simulated(ctx: Ctx, schedule: Schedule) -> RunCtx<'a> {
        RunCtx::new(ctx, RunMode::Simulated(schedule))
    }

    /// The same run under `plan`.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> RunCtx<'a> {
        self.faults = Some(plan);
        self
    }

    /// The same run reporting to `trace`.
    pub fn with_trace(self, trace: TraceHandle) -> RunCtx<'a> {
        RunCtx { trace, ..self }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The union of the nodes' outputs — the result of the run.
    pub output: Instance,
    /// What the injector did (all zeros for fault-free runs).
    pub stats: FaultStats,
    /// Messages delivered.
    pub delivered: usize,
    /// Facts broadcast, before fan-out to the n − 1 receivers.
    pub facts_broadcast: usize,
    /// The virtual clock at the end: deliveries plus the fast-forward
    /// jumps to parked releases, recoveries and crashes. A threaded run
    /// parks nothing, so its clock is its delivery count.
    pub clock: usize,
}

/// **The one run entry.** Runs `program` on one node per shard as `rc`
/// says. Faults outside the survey's model (loss, crashes) break eventual
/// consistency — the no-loss assumption is load-bearing — but never
/// soundness; see the fault-tolerance matrix in `parlog`.
///
/// # Panics
/// Panics on a plan with `corruptions` or `speculation` (faults of MPC
/// rounds), on a heartbeat-only run with a fault plan (it sends no
/// message to fault), on a threaded run with a trace or with crashes,
/// `retransmit` or a partition (they need the simulator's clock), and
/// when an `All`-requiring program gets an oblivious context.
pub fn run<P: TransducerProgram + ?Sized>(
    program: &P,
    shards: &[Instance],
    rc: &RunCtx<'_>,
) -> RunOutcome {
    match rc.mode {
        RunMode::Threaded => crate::threaded::run_threaded(program, shards, rc),
        RunMode::Simulated(schedule) => {
            let mut run = SimRun::new(program, shards, rc);
            let (mut rng, mut rr) = (schedule.rng(), 0);
            run.run_until_quiet(program, schedule, &mut rng, &mut rr, |_| {});
            run.outcome()
        }
        RunMode::HeartbeatsOnly => {
            assert!(
                rc.faults.is_none(),
                "a heartbeat-only run reads no message, so a fault plan has nothing to act on"
            );
            let mut run = SimRun::new(program, shards, rc);
            for _ in 0..shards.len() + 2 {
                if !run.heartbeat_round(program) {
                    break;
                }
            }
            run.outcome()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Broadcast;
    use parlog_relal::fact::fact;

    /// Deliver by `schedule` from its own dice until quiescence.
    fn finish<P: TransducerProgram>(run: &mut SimRun, program: &P, schedule: Schedule) {
        let (mut rng, mut rr) = (schedule.rng(), 0);
        run.run_until_quiet(program, schedule, &mut rng, &mut rr, |_| {});
    }

    fn oblivious<'a>(schedule: Schedule) -> RunCtx<'a> {
        RunCtx::simulated(Ctx::oblivious(), schedule)
    }

    fn heartbeats_only<'a>() -> RunCtx<'a> {
        RunCtx::new(Ctx::oblivious(), RunMode::HeartbeatsOnly)
    }

    /// A toy program: output every received fact, broadcast local facts.
    struct Echo;

    impl TransducerProgram for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn init(&self, node: &mut NodeState, _ctx: &Ctx) -> Broadcast {
            let local: Vec<Fact> = node.local.iter().cloned().collect();
            node.output_all(&node.local.clone());
            local
        }

        fn on_fact(
            &self,
            node: &mut NodeState,
            _from: usize,
            fact: &Fact,
            _ctx: &Ctx,
        ) -> Broadcast {
            node.local.insert(fact.clone());
            node.output(fact.clone());
            Vec::new()
        }
    }

    #[test]
    fn echo_reaches_everyone() {
        let shards = vec![
            Instance::from_facts([fact("R", &[1])]),
            Instance::from_facts([fact("R", &[2])]),
            Instance::new(),
        ];
        for schedule in [
            Schedule::Random(1),
            Schedule::Fifo,
            Schedule::Lifo,
            Schedule::RoundRobin,
        ] {
            let mut run = SimRun::new(&Echo, &shards, &oblivious(schedule));
            finish(&mut run, &Echo, schedule);
            assert_eq!(run.outputs().len(), 2, "{schedule:?}");
            // Every node saw both facts.
            for n in &run.nodes {
                assert_eq!(n.local.len(), 2);
            }
        }
    }

    #[test]
    fn broadcast_dedup_counts_once() {
        let shards = vec![
            Instance::from_facts([fact("R", &[1])]),
            Instance::from_facts([fact("R", &[1])]),
        ];
        let out = run(&Echo, &shards, &oblivious(Schedule::Fifo));
        // Each node broadcast the same fact once: 2 broadcasts total.
        assert_eq!(out.facts_broadcast, 2);
    }

    #[test]
    fn heartbeats_only_reads_no_messages() {
        let shards = vec![
            Instance::from_facts([fact("R", &[1])]),
            Instance::from_facts([fact("R", &[2])]),
        ];
        let out = run(&Echo, &shards, &heartbeats_only());
        // Init outputs local data; messages are never read, so outputs
        // are exactly the union of the initial shards' outputs.
        assert_eq!(out.output.len(), 2);
        assert_eq!(out.delivered, 0);
        // A full run does deliver.
        assert!(run(&Echo, &shards, &oblivious(Schedule::Fifo)).delivered > 0);
    }

    /// Run the one-node echo network as `rc` says.
    fn echo(rc: &RunCtx<'_>) -> RunOutcome {
        run(&Echo, &[Instance::from_facts([fact("E", &[1, 2])])], rc)
    }

    /// Run the one-node echo network under `plan`, simulated.
    fn install(plan: &FaultPlan) {
        echo(&oblivious(Schedule::Fifo).with_faults(plan));
    }

    #[test]
    #[should_panic(expected = "cannot enforce `corruptions`")]
    fn a_sim_run_refuses_corruptions() {
        use parlog_faults::CorruptKind;
        install(&FaultPlan::none(1).with_corruption(0, 0, CorruptKind::Drop));
    }

    #[test]
    #[should_panic(expected = "cannot enforce `speculation`")]
    fn a_sim_run_refuses_speculation() {
        use parlog_faults::SpeculationPolicy;
        install(&FaultPlan::none(1).with_speculation(SpeculationPolicy::default()));
    }

    #[test]
    #[should_panic(expected = "a heartbeat-only run reads no message")]
    fn a_heartbeat_only_run_refuses_a_fault_plan() {
        let plan = FaultPlan::lossy(1, 0.5);
        echo(&heartbeats_only().with_faults(&plan));
    }

    #[test]
    #[should_panic(expected = "requires the All relation")]
    fn all_requiring_program_needs_aware_ctx() {
        struct NeedsAll;
        impl TransducerProgram for NeedsAll {
            fn name(&self) -> &str {
                "needs-all"
            }
            fn requires_all(&self) -> bool {
                true
            }
            fn init(&self, _n: &mut NodeState, _c: &Ctx) -> Broadcast {
                Vec::new()
            }
            fn on_fact(&self, _n: &mut NodeState, _f: usize, _x: &Fact, _c: &Ctx) -> Broadcast {
                Vec::new()
            }
        }
        run(&NeedsAll, &[Instance::new()], &oblivious(Schedule::Fifo));
    }

    #[test]
    fn message_loss_breaks_eventual_consistency() {
        // The survey's model forbids message loss; injecting it makes the
        // monotone broadcast incomplete — the assumption is load-bearing.
        use crate::programs::monotone::MonotoneBroadcast;
        let q = parlog_relal::parser::parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = MonotoneBroadcast::new(q);
        let shards = crate::distribution::hash_distribution(&db, 4, 3);
        // Lossless: complete.
        let rc = oblivious(Schedule::Random(5));
        assert_eq!(run(&p, &shards, &rc).output, expected);
        // Heavy loss: strictly incomplete (but still sound — outputs are
        // never wrong, only missing).
        let plan = FaultPlan::lossy(5, 0.9);
        let out = run(&p, &shards, &rc.with_faults(&plan)).output;
        assert!(out.is_subset_of(&expected));
        assert_ne!(out, expected, "90% loss must lose derivations");
    }

    #[test]
    fn zero_loss_rate_equals_normal_run() {
        let shards = vec![
            Instance::from_facts([fact("R", &[1])]),
            Instance::from_facts([fact("R", &[2])]),
        ];
        let rc = oblivious(Schedule::Random(7));
        let plan = FaultPlan::lossy(7, 0.0);
        let a = run(&Echo, &shards, &rc.clone().with_faults(&plan));
        let b = run(&Echo, &shards, &rc);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn single_node_network() {
        let shards = vec![Instance::from_facts([fact("R", &[5])])];
        let out = run(&Echo, &shards, &oblivious(Schedule::Random(3)));
        assert_eq!(out.output.len(), 1);
    }

    #[test]
    fn healing_partition_converges_to_fault_free_output() {
        // Hold-and-flush preserves the no-loss assumption: a monotone
        // broadcast under any healing split ends byte-identical to the
        // fault-free run — a partition is just an adversarial delay.
        use crate::programs::monotone::MonotoneBroadcast;
        let q = parlog_relal::parser::parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = MonotoneBroadcast::new(q);
        let shards = crate::distribution::hash_distribution(&db, 4, 3);
        for seed in [1u64, 2, 3] {
            let plan =
                FaultPlan::partitioned(seed, parlog_faults::PartitionPlan::split(0, 40, &[0, 1]));
            let rc = oblivious(Schedule::Random(seed)).with_faults(&plan);
            let mut run = SimRun::new(&p, &shards, &rc);
            finish(&mut run, &p, Schedule::Random(seed));
            assert_eq!(run.outputs(), expected, "seed {seed}");
            assert!(run.fault_stats().partitioned > 0, "the split must bite");
            assert_eq!(run.held_by_partition(), 0, "everything flushed on heal");
        }
    }

    #[test]
    fn permanent_split_quiesces_with_held_messages_and_sound_sides() {
        // A split that never heals: the run still quiesces (held copies
        // are not pending work), each side's output is a sound subset,
        // and the held copies are parked — not lost.
        use crate::programs::monotone::MonotoneBroadcast;
        let q = parlog_relal::parser::parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = MonotoneBroadcast::new(q);
        let shards = crate::distribution::hash_distribution(&db, 4, 3);
        let plan =
            FaultPlan::partitioned(7, parlog_faults::PartitionPlan::permanent_split(0, &[0]));
        let mut run = SimRun::new(
            &p,
            &shards,
            &oblivious(Schedule::Random(7)).with_faults(&plan),
        );
        finish(&mut run, &p, Schedule::Random(7));
        let out = run.outputs();
        assert!(out.is_subset_of(&expected), "sound on every side");
        assert_ne!(out, expected, "a permanent split must lose derivations");
        assert!(run.held_by_partition() > 0, "copies are held, not dropped");
        assert_eq!(run.fault_stats().dropped, 0, "partition is not loss");
        assert!(run.link_severed(0, 1) && run.link_severed(1, 0));
        assert!(!run.link_severed(1, 2));
    }

    #[test]
    fn adopt_shard_heals_a_crash_stop() {
        // Node 0 crash-stops before delivering anything; a survivor
        // adopting its durable shard restores the fault-free answer.
        use crate::programs::monotone::MonotoneBroadcast;
        let q = parlog_relal::parser::parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..16u64).map(|i| fact("E", &[i, i + 1])));
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let p = MonotoneBroadcast::new(q);
        let shards = crate::distribution::hash_distribution(&db, 4, 3);
        let plan = FaultPlan::crash_stop(2, 0, 0);
        // Unhealed: the dead node's shard is missing from the answer.
        let rc = oblivious(Schedule::Random(2)).with_faults(&plan);
        let partial = run(&p, &shards, &rc).output;
        assert!(partial.is_subset_of(&expected));
        assert_ne!(partial, expected, "losing node 0 must lose derivations");
        // Healed: survivor 1 adopts shard 0 and the run converges.
        let mut healed = SimRun::new(&p, &shards, &rc);
        finish(&mut healed, &p, Schedule::Random(2));
        let adopted = healed.adopt_shard(&p, 0, 1);
        assert_eq!(adopted, shards[0].len());
        finish(&mut healed, &p, Schedule::Random(2));
        assert_eq!(healed.outputs(), expected);
        assert!(healed.clock() > 0);
    }

    /// The init copies are on the wire whether or not a plan is
    /// installed: a traced run without one books the same `sent` and
    /// `bytes` as the same run under the benign plan.
    #[test]
    fn init_copies_are_booked_without_a_plan() {
        use crate::programs::monotone::MonotoneBroadcast;
        use parlog_trace::MemSink;
        let q = parlog_relal::parser::parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let p = MonotoneBroadcast::new(q);
        let shards = crate::distribution::hash_distribution(&db, 4, 3);
        let benign = FaultPlan::none(1);
        let comm = |plan: Option<&FaultPlan>| {
            let sink = Arc::new(MemSink::new());
            let mut rc = oblivious(Schedule::Random(1)).with_trace(TraceHandle::to(sink.clone()));
            if let Some(plan) = plan {
                rc = rc.with_faults(plan);
            }
            let out = run(&p, &shards, &rc);
            (sink.comm(), out.delivered)
        };
        let (bare, delivered) = comm(None);
        let (planned, _) = comm(Some(&benign));
        assert_eq!(bare.sent, delivered as u64, "every copy sent was booked");
        assert_eq!((bare.sent, bare.bytes), (planned.sent, planned.bytes));
    }

    #[test]
    fn partition_timeline_is_pinned() {
        // Two overlapping epochs: node 0 is cut off for clocks [0, 30),
        // node 3 from clock 10 on, for good. The init broadcasts are sent
        // at clock 0, so the first epoch holds them.
        use crate::programs::monotone::MonotoneBroadcast;
        use parlog_faults::{PartitionEpoch, PartitionPlan};
        use parlog_trace::MemSink;
        let q = parlog_relal::parser::parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let p = MonotoneBroadcast::new(q);
        let shards = crate::distribution::hash_distribution(&db, 4, 3);
        let epoch = |start, heal, minority| PartitionEpoch {
            start,
            heal,
            blocks: vec![vec![minority]],
            one_way: Vec::new(),
        };
        let plan = PartitionPlan {
            epochs: vec![epoch(0, 30, 0), epoch(10, usize::MAX, 3)],
        };
        let sink = Arc::new(MemSink::new());
        let plan = FaultPlan::partitioned(3, plan);
        let rc = oblivious(Schedule::Random(3))
            .with_faults(&plan)
            .with_trace(TraceHandle::to(sink.clone()));
        run(&p, &shards, &rc);
        let timeline: Vec<_> = sink
            .timeline()
            .iter()
            .map(|e| (e.kind, e.node, e.info, e.vclock))
            .collect();
        assert_eq!(
            timeline,
            vec![
                (FaultEventKind::PartitionStart, 0, 30, 0.0),
                (FaultEventKind::PartitionStart, 1, u64::MAX, 10.0),
                (FaultEventKind::PartitionHeal, 0, 30, 30.0),
            ]
        );
    }
}
