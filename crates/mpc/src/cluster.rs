//! The simulated MPC cluster: `p` servers, synchronized rounds, exact load
//! accounting.
//!
//! A round consists of a **communication phase** — every server routes
//! every locally held fact to a set of destination servers — followed by a
//! **computation phase** — a local function over the received data. The
//! *load* of a server in a round is the number of facts it receives; the
//! model's key metrics, maximum load and total communication, are recorded
//! per round in [`RoundStats`].
//!
//! A server's state is a [`Shard`]: what it received, as one sorted,
//! deduplicated trie run per relation and arity, which the computation
//! phase's leapfrog plans read; its next state shares every run it keeps
//! (DESIGN §4, "MPC server state").
//!
//! ## Fault tolerance (checkpoint/replay)
//!
//! The MPC model's synchronized rounds assume no server fails. With a
//! [`FaultPlan`] installed ([`Cluster::with_faults`]), servers may crash
//! during a communication round attempt (a crash's `at_step` is the
//! attempt index): the round's results are discarded
//! and the round **replays from the checkpoint** — the cluster state at
//! the round's start, which every round implicitly snapshots. Because
//! routing is deterministic, the replay reproduces the exact no-fault
//! round: committed [`RoundStats`] and final outputs are *identical* to
//! a fault-free run, and the price of recovery appears only in
//! [`RecoveryStats`] (replayed attempts, wasted communication, retry
//! budget consumed). A round may replay [`RETRY_BUDGET`] times.
//!
//! Stragglers don't change what is computed, only how long the barrier
//! waits: each round's `tail_time` is the received load of the slowest
//! server scaled by its slowdown factor — `max_load` when nobody lags.
//!
//! ## Parallel round engine
//!
//! The MPC model is defined by *parallel* servers, so the simulator can
//! execute each phase on a scoped-thread worker pool
//! ([`Cluster::with_parallelism`]): the communication phase fans the
//! routing function out over contiguous chunks of the per-source fact
//! stream, and the computation phase runs each server's local function on
//! its own worker. Determinism is preserved by construction — routing
//! decisions are computed in parallel but **merged in server order**, and
//! each server's computed shard lands in its own slot — so outputs,
//! per-round [`RoundStats`], and the JSON reports are byte-identical to
//! the sequential engine (`parallelism = 1`, the default). Checkpoint/
//! replay, stragglers, and speculation all operate on the merged results
//! and therefore work unchanged on both engines.
//!
//! ## Network partitions (hold-and-flush)
//!
//! With a [`PartitionPlan`] in the plan
//! (e.g. [`FaultPlan::partitioned`]), epoch clocks are read as
//! **committed-round indices**: while an epoch is
//! open, a fact routed across a severed server link is *held at the
//! source* instead of delivered — a new delivery fate distinct from loss.
//! Held copies flush in the first communication round at or after the
//! heal, so the model's "arbitrarily delayed but never lost" assumption
//! is preserved: a healing partition is just a long delay, and loads
//! during the partition understate the fault-free loads by exactly the
//! held traffic (the availability trajectory experiment E24 measures).
//! Every phase routes each holder's copy of a fact, so a severed link
//! knows which holder it starves; deliveries are deduplicated per
//! destination, so a fact held by several servers costs no extra load.
//!
//! ## Speculative re-execution (backup tasks)
//!
//! With a [`SpeculationPolicy`](parlog_faults::SpeculationPolicy) in the plan ([`FaultPlan::with_speculation`]),
//! straggler tasks are handled MapReduce-style: a task whose scaled
//! finish time exceeds the policy cutoff gets a healthy-speed backup,
//! the round barrier waits only for each task's *first* finisher, and
//! the loser is discarded on idempotent commit. Outputs and loads are
//! untouched by construction (both copies compute the same deterministic
//! result); the effect is confined to `tail_time` and the
//! [`SpeculationStats`] waste accounting.

use parlog_faults::{FaultPlan, PartitionPlan};
use parlog_relal::atom::Atom;
use parlog_relal::eval::{EvalStrategy, QueryPlan};
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::shard::{Arrivals, Inbox, Shard};
use parlog_relal::symbols::RelId;
use parlog_trace::{
    CommCounters, FaultEvent, FaultEventKind, Phase, Span, TraceEvent, TraceHandle,
};

/// A server id in `[0, p)`.
pub type ServerId = usize;

/// What a [`Cluster::route`] does with a fact: the destinations are the
/// servers the route appended to its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The fact stays at its current holder — no communication, no load;
    /// the buffer is not read.
    Keep,
    /// The fact goes to every server appended, each delivery counted as
    /// load; none appended drops it.
    Send,
}

/// The fate of a fact in a [`Cluster::reshuffle`] round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// The fact stays at its current holder — no communication, no load.
    Keep,
    /// The fact is sent to the given servers; each delivery counts as load
    /// (a server hashing a fact to itself still "receives" it, as in the
    /// model's accounting of repartitioning).
    Send(Vec<ServerId>),
    /// The fact is discarded.
    Drop,
}

impl Routing {
    /// The [`Fate`] this routing gives, its destinations appended to `out`.
    fn fate(self, out: &mut Vec<ServerId>) -> Fate {
        match self {
            Routing::Keep => Fate::Keep,
            Routing::Send(dests) => {
                out.extend(dests);
                Fate::Send
            }
            Routing::Drop => Fate::Send,
        }
    }
}

/// Per-round communication statistics.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RoundStats {
    /// Facts received by each server during the communication phase.
    pub received: Vec<usize>,
    /// `max(received)` — the survey's "maximum load".
    pub max_load: usize,
    /// `Σ received` — the survey's "total load"/"communication cost".
    pub total_comm: usize,
    /// Barrier time of the round in load units: the received load of the
    /// slowest server scaled by its straggler factor. Equals `max_load`
    /// when every server is healthy.
    pub tail_time: f64,
}

/// What fault recovery cost over a cluster run. All zeros when no fault
/// plan is installed or no crash fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct RecoveryStats {
    /// Communication-round attempts executed, including failed ones.
    pub attempts: usize,
    /// Failed attempts that were replayed from the round checkpoint.
    pub replays: usize,
    /// Communication performed by failed attempts (thrown away).
    pub wasted_comm: usize,
    /// Most replays any single round needed.
    pub max_replays_in_round: u32,
}

/// What speculative re-execution did over a cluster run. All zeros when
/// no [`SpeculationPolicy`](parlog_faults::SpeculationPolicy) is installed or no task was slow enough.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct SpeculationStats {
    /// Backup tasks launched (one per flagged straggler task).
    pub backups: usize,
    /// Backups that finished before the original (first-finisher-wins).
    pub wins: usize,
    /// Work units of the losing copies, discarded on idempotent commit —
    /// the price of speculation.
    pub wasted_work: usize,
    /// Barrier time saved across all rounds (load units) versus running
    /// the same rounds without backups.
    pub tail_saved: f64,
}

impl RoundStats {
    /// Re-time this round with the plan's speculative backups, if any:
    /// any task whose straggler-scaled finish time exceeds
    /// `threshold × median` gets a healthy-speed backup launched at the
    /// detection cutoff; the round's barrier waits only for each task's
    /// *first* finisher. Loads and state are untouched — speculation is
    /// pure latency recovery, paid for in discarded duplicate work.
    fn apply_speculation(
        &mut self,
        plan: &FaultPlan,
        tally: &mut SpeculationStats,
        vstart: f64,
        trace: &TraceHandle,
    ) {
        let Some(policy) = &plan.speculation else {
            return;
        };
        let times: Vec<f64> = self
            .received
            .iter()
            .enumerate()
            .map(|(s, &r)| r as f64 * plan.slowdown(s))
            .collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let cutoff = policy.threshold * median;
        let old_tail = self.tail_time;
        let mut effective = times;
        for (s, t) in effective.iter_mut().enumerate() {
            let load = self.received[s];
            if plan.slowdown(s) <= 1.0 || load < policy.min_load || *t <= cutoff {
                continue;
            }
            // Detection at the cutoff, then a healthy-speed re-run of the
            // task's full load; first finisher wins, loser is discarded.
            let backup_finish = cutoff + load as f64;
            tally.backups += 1;
            tally.wasted_work += load;
            trace.record(TraceEvent::Fault(FaultEvent {
                vclock: vstart + cutoff,
                kind: FaultEventKind::SpeculativeBackup,
                node: s,
                info: load as u64,
            }));
            if backup_finish < *t {
                tally.wins += 1;
                *t = backup_finish;
                trace.record(TraceEvent::Fault(FaultEvent {
                    vclock: vstart + backup_finish,
                    kind: FaultEventKind::SpeculativeWin,
                    node: s,
                    info: load as u64,
                }));
            }
        }
        self.tail_time = effective.iter().fold(0.0f64, |a, &b| a.max(b));
        // A backup that loses leaves the tail where it was; the clamp
        // keeps floating-point noise from ever driving the saved-time
        // tally negative.
        tally.tail_saved += (old_tail - self.tail_time).max(0.0);
    }
}

impl RoundStats {
    fn from_received(received: Vec<usize>, plan: &FaultPlan) -> RoundStats {
        let max_load = received.iter().copied().max().unwrap_or(0);
        let total_comm = received.iter().sum();
        let tail_time = received
            .iter()
            .enumerate()
            .map(|(s, &r)| r as f64 * plan.slowdown(s))
            .fold(0.0f64, f64::max);
        RoundStats {
            received,
            max_load,
            total_comm,
            tail_time,
        }
    }

    /// The load expressed as the exponent `ε` in `load = m/p^{1−ε}`…
    /// solved for the more convenient form: returns `e` such that
    /// `load = m / p^e`. Skew-free HyperCube on the triangle gives
    /// `e ≈ 2/3`; a plain repartition join gives `e ≈ 1`.
    pub fn load_exponent(&self, m: usize, p: usize) -> f64 {
        if self.max_load == 0 || m == 0 || p <= 1 {
            return 0.0;
        }
        (m as f64 / self.max_load as f64).ln() / (p as f64).ln()
    }
}

/// Replays a communication round may take before the run panics (a real
/// system would escalate; the simulator treats exhaustion as a failure).
pub const RETRY_BUDGET: u32 = 3;

/// Below this many work items (facts to route, deliveries to ingest,
/// facts to compute over) a phase runs on the calling thread. Spawning
/// and joining one scoped worker costs about 40 µs on Linux, and an item
/// of phase work 0.1–0.3 µs, so a second worker pays for itself at a few
/// hundred items and halves the phase only well past a thousand; 2048
/// keeps the small rounds of GYM and the skew engine's residual waves —
/// hundreds of facts each — off the pool.
const PAR_MIN_ITEMS: usize = 2048;

/// `f(offset, chunk)` over contiguous chunks of `items` on at most
/// `threads` scoped workers, results in chunk order — what one sequential
/// sweep over `items` would see, whatever the pool width. `work` is the
/// phase's item count; small phases stay on the calling thread.
fn par_chunks<T, U, F>(items: &mut [T], threads: usize, work: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T]) -> U + Sync,
{
    let threads = if work < PAR_MIN_ITEMS { 1 } else { threads };
    let chunk = items.len().div_ceil(threads).max(1);
    if chunk >= items.len() {
        return vec![f(0, items)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, slice)| scope.spawn(move || f(i * chunk, slice)))
            .collect();
        let joined = workers.into_iter().map(|h| h.join());
        joined
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// A message copy held at its source by an open partition epoch:
/// `(source, destination, fact)`. Flushed — re-checked against the plan —
/// in the first communication round at or after the severing epoch heals.
type HeldCopy = (ServerId, ServerId, Fact);

/// What one attempt at a communication round produced: the next cluster
/// state, the load and payload bytes it cost, and the copies it left held.
struct Delivered {
    next: Vec<Shard>,
    received: Vec<usize>,
    bytes: u64,
    held: Vec<HeldCopy>,
}

/// Route every fact of `holders`, in order, appending each row to its
/// destinations' buffers in `inboxes` — or onto `held` when `cut` (a
/// partition plan and the round) severs the link (held, not lost: no
/// load, no bytes). A run's group is resolved once; `Keep`-retained facts
/// are free.
fn scatter<R>(
    p: usize,
    inboxes: &mut Arrivals,
    held: &mut Vec<HeldCopy>,
    holders: &[(ServerId, &Shard)],
    route: &R,
    cut: Option<(&PartitionPlan, usize)>,
) where
    R: Fn(ServerId, &Fact, &mut Vec<ServerId>) -> Fate,
{
    let mut dests = Vec::new();
    for &(src, shard) in holders {
        for ((rel, k), facts) in shard.runs() {
            let g = inboxes.group(rel, k);
            for f in facts {
                dests.clear();
                if route(src, &f, &mut dests) == Fate::Keep {
                    inboxes.push(src, g, &f.args, false);
                    continue;
                }
                for &dest in &dests {
                    assert!(dest < p, "destination {dest} out of range for p={p}");
                    if cut.is_some_and(|(plan, round)| plan.severed(round, src, dest).is_some()) {
                        held.push((src, dest, f.clone()));
                    } else {
                        inboxes.push(dest, g, &f.args, true);
                    }
                }
            }
        }
    }
}

/// One communication attempt, the merge point every phase and both
/// engines share. Carried holds whose links have healed flush first,
/// then the holders' facts are routed and scattered in order (per-worker
/// buffers appended in chunk order, so arrival and hold order are the
/// sequential ones), and each destination's shard is built from its
/// buffers: one in-place sort and dedup per relation and arity. A
/// delivery counts as load once per destination — iff the fact's first
/// arrival there counts — as in the model's accounting of repartitioning.
/// The pass reads only its arguments, so a crash-replayed attempt
/// re-derives the same outcome.
fn deliver<R>(
    p: usize,
    threads: usize,
    holders: &mut [(ServerId, &Shard)],
    carried: &[HeldCopy],
    route: &R,
    cut: Option<(&PartitionPlan, usize)>,
) -> Delivered
where
    R: Fn(ServerId, &Fact, &mut Vec<ServerId>) -> Fate + Sync,
{
    let mut next = Arrivals::new(p);
    let mut held = Vec::new();
    for (src, dest, f) in carried {
        if cut.is_some_and(|(plan, round)| plan.severed(round, *src, *dest).is_some()) {
            held.push((*src, *dest, f.clone()));
        } else {
            let g = next.group(f.rel, f.args.len());
            next.push(*dest, g, &f.args, true);
        }
    }
    let facts = holders.iter().map(|(_, shard)| shard.len()).sum();
    let routed = par_chunks(holders, threads, facts, |_, chunk| {
        let mut part = (Arrivals::new(p), Vec::new());
        scatter(p, &mut part.0, &mut part.1, chunk, route, cut);
        part
    });
    for (part, part_held) in routed {
        next.append(part);
        held.extend(part_held);
    }
    let deliveries = next.count();
    let mut inboxes = next.inboxes();
    let built = par_chunks(&mut inboxes, threads, deliveries, |_, dests| {
        let build = |inbox: &mut Inbox| inbox.build(CommCounters::wire_bytes);
        dests.iter_mut().map(build).collect::<Vec<_>>()
    });
    let (mut next, mut received, mut bytes) = (Vec::new(), Vec::new(), 0);
    for (shard, got, cost) in built.into_iter().flatten() {
        next.push(shard);
        received.push(got);
        bytes += cost;
    }
    Delivered {
        next,
        received,
        bytes,
        held,
    }
}

/// A simulated shared-nothing cluster of `p` servers.
///
/// The local state of each server is a [`Shard`]. Rounds are driven by
/// [`Cluster::communicate`] and [`Cluster::compute_per_server`];
/// statistics accumulate in [`Cluster::rounds`].
#[derive(Debug, Clone)]
pub struct Cluster {
    pub(crate) local: Vec<Shard>,
    rounds: Vec<RoundStats>,
    pub(crate) faults: FaultPlan,
    recovery: RecoveryStats,
    spec_stats: SpeculationStats,
    parallelism: usize,
    trace: TraceHandle,
    /// Copies held at their source by an open partition epoch, awaiting
    /// the first communication round at or after the heal.
    held: Vec<HeldCopy>,
    /// Edge-detection state for the partition timeline: which epochs
    /// have emitted their `PartitionStart` and not yet their heal.
    partition_open: Vec<bool>,
    /// Per-server quarantine flags set by the verify-then-commit round
    /// mode (`verified::compute_union_verified`): a quarantined server's
    /// local computation is no longer trusted — its task is re-executed
    /// honestly on its shard by a survivor.
    pub(crate) quarantined: Vec<bool>,
    /// Count of verify-then-commit computation rounds executed — the
    /// clock of the fault plan's `corruptions`.
    pub(crate) verified_rounds: usize,
}

impl Cluster {
    /// Create a cluster of `p` empty servers.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Cluster {
        assert!(p > 0, "a cluster needs at least one server");
        Cluster {
            local: vec![Shard::new(); p],
            rounds: Vec::new(),
            faults: FaultPlan::none(0),
            recovery: RecoveryStats::default(),
            spec_stats: SpeculationStats::default(),
            parallelism: 1,
            trace: TraceHandle::off(),
            held: Vec::new(),
            partition_open: Vec::new(),
            quarantined: vec![false; p],
            verified_rounds: 0,
        }
    }

    /// Attach a trace handle: phase spans, per-round load histograms,
    /// comm counters and replay/speculation timeline events are
    /// delivered to its sink. The default is [`TraceHandle::off`], which
    /// keeps every instrumentation site a single branch — the hot path
    /// does no tracing work (and no allocation) unless a sink is
    /// attached.
    pub fn with_trace(mut self, trace: TraceHandle) -> Cluster {
        self.trace = trace;
        self
    }

    /// The attached trace handle (off by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Execute rounds on a worker pool of (at most) `n` OS threads:
    /// routing fans out over the fact stream, local computation fans out
    /// over servers. `n = 1` (the default) is the sequential engine; any
    /// `n` produces byte-identical outputs, [`RoundStats`] and reports,
    /// because per-worker results are merged in server order.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_parallelism(mut self, n: usize) -> Cluster {
        assert!(n >= 1, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// The worker-pool width rounds execute with (1 = sequential).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Install the run's fault plan — the cluster's whole fault context:
    /// server crashes by *attempt number* (every communication-round
    /// attempt, failed or not, increments it, so a replayed attempt can
    /// itself be crashed by listing the next index), recovered by
    /// checkpoint/replay; straggler slowdowns (reflected in `tail_time`);
    /// partition epochs by committed round; corruptions by verified round
    /// ([`crate::verified`]); and speculative backups of straggler tasks,
    /// whose losers are tallied as [`SpeculationStats::wasted_work`].
    ///
    /// # Panics
    /// Panics if the plan sets a per-message fault or `retransmit`
    /// ([`FaultPlan::transducer_only`]): MPC rounds are reliable by
    /// model, so the cluster has nothing that could enforce them.
    pub fn with_faults(mut self, plan: FaultPlan) -> Cluster {
        if let Some(field) = plan.transducer_only() {
            panic!("an MPC cluster cannot enforce `{field}`: its rounds are reliable by model");
        }
        self.partition_open = vec![false; plan.partition.as_ref().map_or(0, |p| p.epochs.len())];
        self.faults = plan;
        self
    }

    /// The installed fault plan (the empty plan by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// What recovery cost so far.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// What speculative re-execution did so far.
    pub fn speculation(&self) -> SpeculationStats {
        self.spec_stats
    }

    /// Barrier time summed over committed rounds: each round costs the
    /// scaled load of its slowest server. Equals the sum of per-round
    /// `max_load` when no straggler is configured. It is the virtual
    /// clock: timeline events emitted between rounds land here.
    pub fn tail_time(&self) -> f64 {
        self.rounds.iter().map(|r| r.tail_time).sum()
    }

    /// Commit one communication round with checkpoint/replay: `attempt`
    /// maps the checkpoint (the current local state and carried holds,
    /// left untouched on failure) and the installed partition plan to
    /// what the round [`Delivered`]. If the
    /// fault plan crashes a server during the attempt, the results are
    /// discarded and the attempt replays — deterministically, so the
    /// committed stats and state are exactly those of a fault-free run.
    ///
    /// # Panics
    /// Panics when a round exhausts the [`RETRY_BUDGET`].
    fn commit_round<G>(&mut self, mut attempt: G) -> &RoundStats
    where
        G: FnMut(&[Shard], &[HeldCopy], Option<&PartitionPlan>) -> Delivered,
    {
        let mut replays_this_round = 0u32;
        let round = self.rounds.len();
        let vstart = self.tail_time();
        loop {
            let attempt_idx = self.recovery.attempts;
            self.recovery.attempts += 1;
            let wall = self.trace.is_on().then(std::time::Instant::now);
            let out = attempt(&self.local, &self.held, self.faults.partition.as_ref());
            let (received, bytes) = (out.received, out.bytes);
            let wall_ns = wall.map(|t0| t0.elapsed().as_nanos() as u64);
            let crashed = (0..self.p()).any(|s| self.faults.crashes_at(s, attempt_idx));
            if !crashed {
                (self.local, self.held) = (out.next, out.held);
                self.trace.emit(|| TraceEvent::Loads {
                    round,
                    received: &received,
                });
                let mut stats = RoundStats::from_received(received, &self.faults);
                stats.apply_speculation(&self.faults, &mut self.spec_stats, vstart, &self.trace);
                self.trace.record(TraceEvent::Comm(CommCounters {
                    sent: stats.total_comm as u64,
                    delivered: stats.total_comm as u64,
                    bytes,
                    ..CommCounters::default()
                }));
                let comm_end = vstart + stats.max_load as f64;
                self.trace.record(TraceEvent::Phase(Span {
                    round,
                    phase: Phase::Communication,
                    vstart,
                    vend: comm_end,
                    wall_ns,
                }));
                self.trace.record(TraceEvent::Phase(Span {
                    round,
                    phase: Phase::Barrier,
                    vstart: comm_end,
                    vend: vstart + stats.tail_time,
                    wall_ns: None,
                }));
                self.rounds.push(stats);
                return self.rounds.last().expect("just pushed");
            }
            // A server died mid-round: throw the attempt away (the
            // checkpoint — self.local — is untouched) and replay.
            self.recovery.replays += 1;
            self.recovery.wasted_comm += received.iter().sum::<usize>();
            if self.trace.is_on() {
                for s in (0..self.p()).filter(|&s| self.faults.crashes_at(s, attempt_idx)) {
                    self.trace.record(TraceEvent::Fault(FaultEvent {
                        vclock: vstart,
                        kind: FaultEventKind::RoundReplay,
                        node: s,
                        info: attempt_idx as u64,
                    }));
                }
                self.trace.record(TraceEvent::Comm(CommCounters {
                    sent: received.iter().sum::<usize>() as u64,
                    wasted: received.iter().sum::<usize>() as u64,
                    bytes,
                    ..CommCounters::default()
                }));
            }
            replays_this_round += 1;
            self.recovery.max_replays_in_round =
                self.recovery.max_replays_in_round.max(replays_this_round);
            assert!(
                replays_this_round <= RETRY_BUDGET,
                "round retry budget ({RETRY_BUDGET}) exhausted"
            );
        }
    }

    /// Number of servers.
    pub fn p(&self) -> usize {
        self.local.len()
    }

    /// The state of server `s`, materialized as an [`Instance`] — what
    /// the trusted checker and the oracles read.
    pub fn local(&self, s: ServerId) -> Instance {
        self.local[s].to_instance()
    }

    /// The state of server `s`.
    pub fn shard(&self, s: ServerId) -> &Shard {
        &self.local[s]
    }

    /// The one writer entry point: add `facts` to server `s`, rebuilding
    /// its shard once. Seeds data and stages what a step puts on a
    /// server outside any round.
    pub fn place(&mut self, s: ServerId, facts: impl IntoIterator<Item = Fact>) {
        self.local[s] = self.local[s].with_facts(facts);
    }

    /// Which servers have been quarantined by the verify-then-commit
    /// round mode (all `false` until a certificate check fails).
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    /// Number of currently quarantined servers.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Statistics of the communication rounds executed so far.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Maximum load over all rounds so far (the algorithm's load).
    pub fn max_load(&self) -> usize {
        self.rounds.iter().map(|r| r.max_load).max().unwrap_or(0)
    }

    /// Total communication over all rounds so far.
    pub fn total_comm(&self) -> usize {
        self.rounds.iter().map(|r| r.total_comm).sum()
    }

    /// Number of communication rounds executed (the survey's
    /// "synchronization barriers").
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// The union of all servers' shards — the algorithm's output lives
    /// here ("the output must be present in the union of the p servers").
    pub fn union_all(&self) -> Instance {
        Instance::from_facts(self.local.iter().flat_map(Shard::iter))
    }

    /// **Communication phase**: every fact currently held anywhere is
    /// routed by `route` to a set of destination servers; the new local
    /// state of each server is exactly what it received. Duplicate
    /// deliveries of the same fact to the same server from different
    /// sources are counted once (the routing function is deterministic per
    /// fact, so all holders compute the same destinations; sending is
    /// deduplicated as a real system would via its partitioning contract).
    ///
    /// Returns the stats of this round.
    pub fn communicate<F, D>(&mut self, route: F) -> &RoundStats
    where
        F: Fn(&Fact) -> D + Sync,
        D: IntoIterator<Item = ServerId>,
    {
        self.route(&[], |_, f, out| {
            out.extend(route(f));
            Fate::Send
        })
    }

    /// The communication phase every other phase adapts: route every
    /// holder's copy — each server's shard, then the per-server `storage`
    /// shards if any (the skew engine's waves re-send input cohorts from
    /// storage while the heads found so far stay put) — on the worker
    /// pool, and commit the deliveries with checkpoint/replay. `route(holder, fact, out)` appends the fact's
    /// destinations to `out` (empty on entry) and says whether it
    /// [`Fate::Keep`]s or [`Fate::Send`]s it. Deliveries are
    /// deduplicated per destination, so a fact held by several servers
    /// and routed alike by each counts once.
    ///
    /// # Panics
    /// Panics if `storage` is neither empty nor one shard per server, or
    /// a destination is not a server.
    pub fn route<R>(&mut self, storage: &[Shard], route: R) -> &RoundStats
    where
        R: Fn(ServerId, &Fact, &mut Vec<ServerId>) -> Fate + Sync,
    {
        let (p, threads) = (self.p(), self.parallelism);
        assert!(
            storage.is_empty() || storage.len() == p,
            "one storage shard per server"
        );
        let round = self.rounds.len();
        self.pump_partition_events(round);
        self.commit_round(|local, carried, plan| {
            let storage = storage.iter().enumerate();
            let mut holders: Vec<(ServerId, &Shard)> =
                local.iter().enumerate().chain(storage).collect();
            let cut = plan.map(|plan| (plan, round));
            deliver(p, threads, &mut holders, carried, &route, cut)
        })
    }

    /// Emit `PartitionStart` / `PartitionHeal` timeline events for every
    /// epoch transition crossed by entering communication round `round`.
    /// The heal event's `info` is the number of held copies whose links
    /// are usable again — the flush the round is about to perform.
    fn pump_partition_events(&mut self, round: usize) {
        let Some(plan) = self.faults.partition.as_ref() else {
            return;
        };
        let vclock = self.tail_time();
        for (node, start) in plan.edges(&mut self.partition_open, round) {
            let (kind, info) = match start {
                Some(heal) => (FaultEventKind::PartitionStart, heal),
                None => {
                    let held = self.held.iter();
                    let released = held.filter(|(s, d, _)| plan.severed(round, *s, *d).is_none());
                    (FaultEventKind::PartitionHeal, released.count() as u64)
                }
            };
            let event = FaultEvent {
                vclock,
                kind,
                node,
                info,
            };
            self.trace.record(TraceEvent::Fault(event));
        }
    }

    /// Copies currently held at their source by an open partition epoch
    /// — in flight, not lost; they flush in the first communication
    /// round at or after their severing epochs heal.
    pub fn held_by_partition(&self) -> usize {
        self.held.len()
    }

    /// Is the directed server link `from → to` severed by the installed
    /// partition plan in communication round `round`?
    pub fn link_severed(&self, round: usize, from: ServerId, to: ServerId) -> bool {
        self.faults
            .partition
            .as_ref()
            .is_some_and(|p| p.severed(round, from, to).is_some())
    }

    /// Communication phase with per-fact keep/send/drop decisions — the
    /// workhorse of the multi-round algorithms, which carry intermediate
    /// relations across rounds (`Keep`, free) while rehashing the
    /// relations participating in the current semijoin/join (`Send`,
    /// counted as load at every destination).
    ///
    /// Accounting note: when the same fact is `Keep`-retained by one
    /// holder and `Send`-routed to that same server by another holder,
    /// the delivery deduplicates against the kept copy and is not
    /// counted. Routing decisions in this workspace are value-
    /// deterministic (all holders of a fact choose the same fate), so
    /// the case does not arise in practice.
    pub fn reshuffle<F>(&mut self, route: F) -> &RoundStats
    where
        F: Fn(ServerId, &Fact) -> Routing + Sync,
    {
        self.route(&[], |src, f, out| route(src, f).fate(out))
    }

    /// Computation phase applied per server with access to the server id:
    /// replace every server's shard with `f(server, local)`.
    /// With parallelism `n > 1` the servers are split into contiguous
    /// chunks, one scoped worker each; results come back in server order,
    /// so the outcome is identical to the sequential sweep. Workers only
    /// read the old state: it is replaced — and freed — on the calling
    /// thread, because freeing another thread's allocations contends on
    /// its allocator arena.
    pub fn compute_per_server<F>(&mut self, f: F)
    where
        F: Fn(ServerId, &Shard) -> Shard + Sync,
    {
        let wall = self.trace.is_on().then(std::time::Instant::now);
        let work = self.local.iter().map(Shard::len).sum();
        let outs = par_chunks(&mut self.local, self.parallelism, work, |first, servers| {
            let outs = (first..).zip(servers.iter()).map(|(s, shard)| f(s, shard));
            outs.collect::<Vec<Shard>>()
        });
        for (inst, out) in self.local.iter_mut().zip(outs.into_iter().flatten()) {
            *inst = out;
        }
        if let Some(t0) = wall {
            // Computation is free in the model's accounting, so the
            // virtual span is empty; only the wall clock moves.
            let round = self.rounds.len().saturating_sub(1);
            let vnow = self.tail_time();
            self.trace.record(TraceEvent::Phase(Span {
                round,
                phase: Phase::Computation,
                vstart: vnow,
                vend: vnow,
                wall_ns: Some(t0.elapsed().as_nanos() as u64),
            }));
        }
    }

    /// Computation phase evaluating one conjunctive query on every
    /// server's shard with the chosen local-join strategy — the standard
    /// "local evaluation after routing" step of HyperCube and the
    /// repartition joins. The query's [`QueryPlan`] is compiled once for
    /// the phase, not once per server, and the trie engine reads the
    /// shard's runs. All strategies produce byte-identical results at
    /// every `with_parallelism` thread count.
    ///
    /// # Panics
    /// Panics if `q` is unsafe (see [`ConjunctiveQuery::validate`]).
    pub fn compute_query(&mut self, q: &ConjunctiveQuery, strategy: EvalStrategy) {
        let plan = QueryPlan::new(std::slice::from_ref(q), strategy)
            .expect("compute_query needs a safe query");
        self.compute_per_server(|_, local| {
            let mut read = local.clone();
            read.prepare(plan.trie_orders());
            let mut heads = Vec::new();
            plan.run(&read, &mut |f| heads.push(f));
            Shard::from_facts(heads)
        });
    }

    /// **Computation phase** as rules — the one local step of every
    /// multi-round algorithm: on each server, each layer's plan reads the
    /// shard as extended by the layers before it, and what it derives is
    /// added; after the last layer the relations in `drop` go. Rules
    /// derive into relations they do not read, so no layer rewrites its
    /// own input. Plans are compiled once for the phase ([`layer`]), not
    /// once per server. The next state shares every run it keeps; a
    /// layer's heads are one new sorted run per relation.
    pub fn compute_rules(&mut self, layers: &[QueryPlan], drop: &[RelId]) {
        self.compute_rules_per_server(|_| layers, drop);
    }

    /// [`Cluster::compute_rules`] where server `s` runs `layers(s)` — a
    /// block of servers per sub-query, as GYM's bag step.
    pub fn compute_rules_per_server<'l, L>(&mut self, layers: L, drop: &[RelId])
    where
        L: Fn(ServerId) -> &'l [QueryPlan] + Sync,
    {
        self.compute_per_server(|s, local| {
            let mut read = local.clone();
            let mut heads: Vec<Fact> = Vec::new();
            for plan in layers(s) {
                if !heads.is_empty() {
                    read = read.with_facts(std::mem::take(&mut heads));
                }
                read.prepare(plan.trie_orders());
                plan.run(&read, &mut |f| heads.push(f));
            }
            heads.retain(|f| !drop.contains(&f.rel));
            read.without(drop).with_facts(heads)
        });
    }
}

/// The plain rule `head <- body`.
///
/// # Panics
/// Panics if a head variable occurs in no body atom.
pub(crate) fn rule(head: Atom, body: Vec<Atom>) -> ConjunctiveQuery {
    rule_unless(head, body, Vec::new())
}

/// The rule `head <- body, not negated₁, …`.
///
/// # Panics
/// Panics if a head or negated-atom variable occurs in no body atom.
pub(crate) fn rule_unless(head: Atom, body: Vec<Atom>, negated: Vec<Atom>) -> ConjunctiveQuery {
    ConjunctiveQuery::with_extras(head, body, negated, Vec::new()).expect("a safe rule")
}

/// One layer of a [`Cluster::compute_rules`] phase: `rules` — each
/// deriving into its own head relation — compiled for the trie engine
/// ([`EvalStrategy::Wcoj`]). A layer's rules are small and acyclic more
/// often than not, where `Auto` would pick the backtracker; the trie
/// engine enumerates them without binding a valuation per candidate, and
/// is worst-case optimal on the cyclic ones.
///
/// # Panics
/// Panics if a rule is unsafe.
pub fn layer(rules: &[ConjunctiveQuery]) -> QueryPlan {
    QueryPlan::new(rules, EvalStrategy::Wcoj).expect("layer rules are safe")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_faults::{CrashKind, PartitionPlan, SpeculationPolicy};
    use parlog_relal::fact::fact;

    fn seeded(p: usize, facts: &[Fact]) -> Cluster {
        let mut c = Cluster::new(p);
        for s in 0..p {
            c.place(s, facts.iter().skip(s).step_by(p).cloned());
        }
        c
    }

    #[test]
    fn union_all_reassembles() {
        let facts = vec![fact("R", &[1, 2]), fact("R", &[3, 4]), fact("S", &[5, 6])];
        let c = seeded(2, &facts);
        assert_eq!(c.union_all(), Instance::from_facts(facts));
    }

    #[test]
    fn communicate_moves_and_counts() {
        let facts = vec![fact("R", &[1, 2]), fact("R", &[3, 4])];
        let mut c = seeded(2, &facts);
        // Send everything to server 0.
        c.communicate(|_| vec![0]);
        assert_eq!(c.local(0).len(), 2);
        assert_eq!(c.local(1).len(), 0);
        let r = &c.rounds()[0];
        assert_eq!(r.max_load, 2);
        assert_eq!(r.total_comm, 2);
        assert_eq!(c.round_count(), 1);
    }

    #[test]
    fn broadcast_replicates_with_full_load() {
        let facts = vec![fact("R", &[1, 2]), fact("R", &[3, 4])];
        let mut c = seeded(2, &facts);
        c.communicate(|_| vec![0, 1]);
        assert_eq!(c.local(0).len(), 2);
        assert_eq!(c.local(1).len(), 2);
        assert_eq!(c.rounds()[0].total_comm, 4);
    }

    #[test]
    fn duplicate_deliveries_are_counted_once() {
        // Both servers hold the same fact; both route it to server 0.
        let mut c = Cluster::new(2);
        c.place(0, [fact("R", &[9, 9])]);
        c.place(1, [fact("R", &[9, 9])]);
        c.reshuffle(|_, _| Routing::Send(vec![0]));
        assert_eq!(c.local(0).len(), 1);
        assert_eq!(c.rounds()[0].received[0], 1);
    }

    #[test]
    fn compute_is_local() {
        let facts = vec![fact("R", &[1, 2])];
        let mut c = seeded(1, &facts);
        c.compute_per_server(|_, shard| {
            Shard::from_facts(
                shard
                    .iter()
                    .map(|f| fact("Out", &[f.args[0].0, f.args[1].0])),
            )
        });
        assert_eq!(c.local(0).sorted_facts(), vec![fact("Out", &[1, 2])]);
        assert_eq!(c.round_count(), 0); // no communication happened
    }

    /// A cluster seeded from a pinned snapshot computes against frozen
    /// inputs: concurrent publications on the store are invisible, and
    /// the distributed answer matches centralized evaluation on the
    /// pinned instance.
    #[test]
    fn from_snapshot_is_pinned_and_matches_centralized() {
        use crate::partition::{seed_cluster, InitialPartition};
        use parlog_relal::eval::eval_query_with;
        use parlog_relal::parser::parse_query;
        use parlog_relal::snapshot::SnapshotStore;

        let store = SnapshotStore::new(Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[2, 3]),
            fact("S", &[2, 3]),
            fact("S", &[3, 4]),
        ]));
        let snap = store.pin();
        let mut c = Cluster::new(3);
        seed_cluster(&mut c, snap.instance(), InitialPartition::RoundRobin);
        assert_eq!(c.union_all(), *snap.instance());

        // The writer races ahead; the seeded cluster must not notice.
        store.mutate(|w| {
            w.insert(fact("R", &[9, 9]));
        });
        store.publish();

        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        c.communicate(|_| vec![0, 1, 2]); // broadcast: every server sees all
        c.compute_query(&q, EvalStrategy::Auto);
        let expect = eval_query_with(&q, snap.instance(), EvalStrategy::Auto);
        assert_eq!(c.union_all(), expect);
        assert!(!expect.contains(&fact("H", &[9, 9, 9])));
    }

    #[test]
    fn load_exponent_sanity() {
        let plan = FaultPlan::none(0);
        let r = RoundStats::from_received(vec![25, 25, 25, 25], &plan);
        // m = 100, p = 4, load 25 = m/p → exponent 1.
        assert!((r.load_exponent(100, 4) - 1.0).abs() < 1e-9);
        let r2 = RoundStats::from_received(vec![100, 0, 0, 0], &plan);
        // load = m → exponent 0.
        assert!(r2.load_exponent(100, 4).abs() < 1e-9);
    }

    #[test]
    fn crash_replay_reproduces_fault_free_run_exactly() {
        // The acceptance test for checkpoint/replay: a run with two
        // mid-round crashes commits byte-identical stats, loads and
        // outputs to the fault-free run; only RecoveryStats differ.
        let facts: Vec<Fact> = (0..12u64).map(|i| fact("R", &[i, i + 1])).collect();
        let run = |plan: FaultPlan| {
            let mut c = seeded(3, &facts).with_faults(plan);
            c.communicate(|f| vec![(f.args[0].0 % 3) as usize]);
            c.compute_per_server(|_, shard| {
                shard.with_facts(shard.iter().map(|f| fact("S", &[f.args[1].0])))
            });
            c.communicate(|f| vec![(f.args[0].0 % 2) as usize]);
            c
        };
        let clean = run(FaultPlan::none(0));
        // Crash server 1 during attempt 0 and server 2 during attempt 2
        // (= the second logical round's first attempt, after one replay).
        let faulty = run(FaultPlan::crash_stop(0, 1, 0).with_crash(2, 2, CrashKind::Stop));
        assert_eq!(clean.union_all(), faulty.union_all());
        assert_eq!(clean.round_count(), faulty.round_count());
        for (a, b) in clean.rounds().iter().zip(faulty.rounds().iter()) {
            assert_eq!(a.received, b.received);
            assert_eq!(a.max_load, b.max_load);
            assert_eq!(a.total_comm, b.total_comm);
        }
        assert_eq!(clean.recovery().replays, 0);
        assert_eq!(faulty.recovery().replays, 2);
        assert_eq!(faulty.recovery().attempts, clean.recovery().attempts + 2);
        assert!(faulty.recovery().wasted_comm > 0);
    }

    #[test]
    #[should_panic(expected = "retry budget")]
    fn repeated_crashes_exhaust_retry_budget() {
        // Crash every attempt of round 0: the budget (3) runs out.
        let plan = (0..=RETRY_BUDGET as usize).fold(FaultPlan::none(0), |plan, attempt| {
            plan.with_crash(0, attempt, CrashKind::Stop)
        });
        let mut c = seeded(2, &[fact("R", &[1, 2])]).with_faults(plan);
        c.communicate(|_| vec![0]);
    }

    #[test]
    fn straggler_inflates_tail_time_not_load() {
        let facts: Vec<Fact> = (0..8u64).map(|i| fact("R", &[i, i])).collect();
        let clean = {
            let mut c = seeded(2, &facts);
            c.communicate(|f| vec![(f.args[0].0 % 2) as usize]);
            c
        };
        let slow = {
            let mut c = seeded(2, &facts).with_faults(FaultPlan::none(0).with_straggler(1, 4.0));
            c.communicate(|f| vec![(f.args[0].0 % 2) as usize]);
            c
        };
        // Same loads, same outputs — stragglers are a latency fault.
        assert_eq!(clean.max_load(), slow.max_load());
        assert_eq!(clean.union_all(), slow.union_all());
        assert!((clean.tail_time() - clean.max_load() as f64).abs() < 1e-9);
        assert_eq!(slow.tail_time(), 4.0 * 4.0); // 4 facts on the 4× server
        assert!(slow.tail_time() > clean.tail_time());
    }

    #[test]
    fn speculation_cuts_tail_time_without_touching_outputs() {
        let facts: Vec<Fact> = (0..16u64).map(|i| fact("R", &[i, i])).collect();
        let run = |spec: Option<SpeculationPolicy>| {
            let plan = FaultPlan::none(0).with_straggler(1, 8.0);
            let mut c = seeded(4, &facts).with_faults(FaultPlan {
                speculation: spec,
                ..plan
            });
            c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
            c
        };
        let plain = run(None);
        let spec = run(Some(SpeculationPolicy::default()));
        // First-finisher-wins with idempotent commit: identical answers,
        // identical loads — only the barrier time and the waste move.
        assert_eq!(plain.union_all(), spec.union_all());
        assert_eq!(plain.rounds()[0].received, spec.rounds()[0].received);
        assert_eq!(plain.max_load(), spec.max_load());
        assert!(spec.tail_time() < plain.tail_time());
        let tally = spec.speculation();
        assert_eq!(tally.backups, 1);
        assert_eq!(tally.wins, 1);
        assert!(tally.wasted_work > 0, "the losing copy's work is the price");
        assert!((tally.tail_saved - (plain.tail_time() - spec.tail_time())).abs() < 1e-9);
        assert_eq!(plain.speculation(), SpeculationStats::default());
    }

    #[test]
    fn speculation_is_a_noop_on_a_healthy_cluster() {
        let facts: Vec<Fact> = (0..16u64).map(|i| fact("R", &[i, i])).collect();
        let plan = FaultPlan::none(0).with_speculation(SpeculationPolicy::default());
        let mut c = seeded(4, &facts).with_faults(plan);
        c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
        assert_eq!(c.speculation(), SpeculationStats::default());
        assert!((c.tail_time() - c.max_load() as f64).abs() < 1e-9);
    }

    #[test]
    fn losing_speculation_never_negates_tail_saved() {
        // A straggler slow enough to flag (2× > 1.5× median) but not
        // slow enough for the backup to win: detection at the cutoff
        // plus a full healthy re-run finishes after the original
        // (6 + 4 = 10 > 8). The backup loses, the tail is unchanged,
        // and tail_saved must stay exactly zero — never negative.
        let facts: Vec<Fact> = (0..16u64).map(|i| fact("R", &[i, i])).collect();
        let mut c = seeded(4, &facts).with_faults(
            FaultPlan::none(0)
                .with_straggler(1, 2.0)
                .with_speculation(SpeculationPolicy {
                    threshold: 1.5,
                    min_load: 2,
                }),
        );
        c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
        let tally = c.speculation();
        assert_eq!(tally.backups, 1, "the straggler was flagged");
        assert_eq!(tally.wins, 0, "the backup lost the race");
        assert!(tally.wasted_work > 0, "the losing copy still cost work");
        assert_eq!(
            tally.tail_saved, 0.0,
            "a losing backup saves nothing — and never a negative amount"
        );
        assert_eq!(c.tail_time(), 8.0, "tail is the original straggler's");
    }

    #[test]
    fn speculation_skips_tiny_tasks() {
        // One fact on an 8× server: slow enough to flag, but below
        // min_load — no backup launched.
        let facts: Vec<Fact> = [0u64, 1, 5, 2, 6, 3, 7]
            .iter()
            .map(|&i| fact("R", &[i, i]))
            .collect();
        let mut c = seeded(4, &facts).with_faults(
            FaultPlan::none(0)
                .with_straggler(0, 8.0)
                .with_speculation(SpeculationPolicy {
                    threshold: 1.5,
                    min_load: 2,
                }),
        );
        c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
        assert_eq!(c.rounds()[0].received[0], 1);
        assert!(c.rounds()[0].tail_time > 3.0, "the tiny task still lags");
        assert_eq!(c.speculation().backups, 0);
    }

    /// Drive every phase kind once: communicate, a computation that
    /// keeps its input, reshuffle (Keep/Send/Drop), holder-dependent
    /// routing, compute_per_server.
    fn mixed_phase_run(mut c: Cluster, facts: &[Fact]) -> Cluster {
        let p = c.p();
        for s in 0..p {
            c.place(s, facts.iter().skip(s).step_by(p).cloned());
        }
        c.communicate(|f| vec![(f.args[0].0 as usize) % p]);
        c.compute_per_server(|_, shard| {
            shard.with_facts(shard.iter().map(|f| fact("S", &[f.args[1].0, f.args[0].0])))
        });
        c.reshuffle(|src, f| {
            if f.rel == parlog_relal::symbols::rel("S") {
                Routing::Send(vec![(f.args[0].0 as usize + src) % p])
            } else if f.args[0].0 % 5 == 0 {
                Routing::Drop
            } else {
                Routing::Keep
            }
        });
        c.reshuffle(|src, f| Routing::Send(vec![(f.args[1].0 as usize + src) % p]));
        c.compute_per_server(|s, shard| {
            Shard::from_facts(shard.iter().map(|f| fact("T", &[f.args[0].0 + s as u64])))
        });
        c
    }

    #[test]
    fn parallel_engine_is_byte_identical_to_sequential() {
        let facts: Vec<Fact> = (0..64u64).map(|i| fact("R", &[i, i * 13 % 23])).collect();
        let seq = mixed_phase_run(Cluster::new(8), &facts);
        for threads in [2, 3, 8, 16] {
            let par = mixed_phase_run(Cluster::new(8).with_parallelism(threads), &facts);
            assert_eq!(seq.union_all(), par.union_all());
            assert_eq!(seq.round_count(), par.round_count());
            for (a, b) in seq.rounds().iter().zip(par.rounds().iter()) {
                assert_eq!(a.received, b.received, "threads={threads}");
                assert_eq!(a.max_load, b.max_load);
                assert_eq!(a.total_comm, b.total_comm);
                assert_eq!(a.tail_time, b.tail_time);
            }
        }
    }

    #[test]
    fn parallel_engine_replays_crashes_identically() {
        // Faults, stragglers and speculation are applied to the *merged*
        // round results, so the parallel engine recovers exactly like the
        // sequential one: same committed stats, same RecoveryStats.
        let facts: Vec<Fact> = (0..24u64).map(|i| fact("R", &[i, i + 1])).collect();
        let plan = || {
            FaultPlan::crash_stop(0, 1, 0)
                .with_crash(0, 2, CrashKind::Stop)
                .with_straggler(1, 4.0)
                .with_speculation(SpeculationPolicy::default())
        };
        let run = |c: Cluster| {
            let mut c = c.with_faults(plan());
            for s in 0..3 {
                c.place(s, facts.iter().skip(s).step_by(3).cloned());
            }
            c.communicate(|f| vec![(f.args[0].0 % 3) as usize]);
            c.communicate(|f| vec![(f.args[1].0 % 3) as usize]);
            c
        };
        let seq = run(Cluster::new(3));
        let par = run(Cluster::new(3).with_parallelism(4));
        assert_eq!(seq.union_all(), par.union_all());
        assert_eq!(seq.recovery(), par.recovery());
        assert_eq!(seq.speculation(), par.speculation());
        for (a, b) in seq.rounds().iter().zip(par.rounds().iter()) {
            assert_eq!(a.received, b.received);
            assert_eq!(a.tail_time, b.tail_time);
        }
    }

    #[test]
    fn partitioned_round_holds_at_source_and_flushes_on_heal() {
        use parlog_faults::PartitionPlan;
        // 12 facts hashed over 3 servers; server 2 is partitioned off
        // for rounds [0, 2). Routing is the same hash every round, so
        // after the heal round the cluster state must match fault-free.
        let facts: Vec<Fact> = (0..12u64).map(|i| fact("R", &[i, i + 1])).collect();
        // Shifted hash: every fact's destination is one server over from
        // where `seeded` placed it, so round 0 is all cross traffic.
        let route = |f: &Fact| vec![((f.args[0].0 + 1) % 3) as usize];
        let run = |plan: FaultPlan, rounds: usize| {
            let mut c = seeded(3, &facts).with_faults(plan);
            for _ in 0..rounds {
                c.communicate(route);
            }
            c
        };
        let clean = run(FaultPlan::none(0), 3);
        let part = run(
            FaultPlan::partitioned(0, PartitionPlan::split(0, 2, &[2])),
            3,
        );
        assert_eq!(clean.union_all(), part.union_all(), "healed state is exact");
        assert_eq!(part.held_by_partition(), 0, "every hold flushed");
        // During the open epoch the partitioned rounds carry less load:
        // the severed traffic is held, not delivered.
        assert!(part.rounds()[0].total_comm < clean.rounds()[0].total_comm);
        // Nothing was ever dropped: the union during the partition is a
        // sound subset of the fault-free state.
        let open = {
            let mut c = seeded(3, &facts)
                .with_faults(FaultPlan::partitioned(0, PartitionPlan::split(0, 2, &[2])));
            c.communicate(route);
            c
        };
        assert!(open.union_all().is_subset_of(&clean.union_all()));
        assert!(open.held_by_partition() > 0, "cross-block copies held");
    }

    #[test]
    fn permanent_split_holds_forever_without_loss() {
        use parlog_faults::PartitionPlan;
        let facts: Vec<Fact> = (0..9u64).map(|i| fact("R", &[i, i])).collect();
        let mut c = seeded(3, &facts).with_faults(FaultPlan::partitioned(
            0,
            PartitionPlan::permanent_split(0, &[0]),
        ));
        for _ in 0..4 {
            c.communicate(|f| vec![((f.args[0].0 + 1) % 3) as usize]);
        }
        // The minority's cross-block traffic stays in flight for good…
        assert!(c.held_by_partition() > 0);
        assert!(c.link_severed(4, 0, 1) && c.link_severed(4, 1, 0));
        // …and the live state plus the held copies account for every
        // fact: held, not lost.
        let live = c.union_all().len();
        assert_eq!(live + c.held_by_partition(), facts.len());
    }

    #[test]
    fn partition_replay_interplay_is_deterministic() {
        use parlog_faults::PartitionPlan;
        // A crash-replayed attempt inside a partitioned round must
        // re-derive the same holds and commit the same loads as the
        // crash-free partitioned run.
        let facts: Vec<Fact> = (0..12u64).map(|i| fact("R", &[i, i + 1])).collect();
        let run = |crashes: FaultPlan| {
            let plan = crashes.with_partition(PartitionPlan::split(0, 1, &[2]));
            let mut c = seeded(3, &facts).with_faults(plan);
            c.communicate(|f| vec![((f.args[0].0 + 1) % 3) as usize]);
            c.communicate(|f| vec![((f.args[0].0 + 1) % 3) as usize]);
            c
        };
        let plain = run(FaultPlan::none(0));
        let crashed = run(FaultPlan::crash_stop(0, 1, 0));
        assert_eq!(plain.union_all(), crashed.union_all());
        assert_eq!(plain.rounds()[0].received, crashed.rounds()[0].received);
        assert_eq!(plain.rounds()[1].received, crashed.rounds()[1].received);
        assert_eq!(crashed.recovery().replays, 1);
        assert_eq!(plain.held_by_partition(), 0);
        assert_eq!(crashed.held_by_partition(), 0);
    }

    #[test]
    fn per_holder_routing_commits_identical_loads_to_collapsed() {
        use parlog_faults::PartitionPlan;
        // An installed-but-never-open plan must commit the same state and
        // loads as no plan at all, byte for byte: both route every
        // holder's copy, and a plan that never opens severs nothing.
        let facts: Vec<Fact> = (0..24u64).map(|i| fact("R", &[i, i * 7 % 13])).collect();
        let route = |f: &Fact| vec![(f.args[1].0 % 4) as usize, (f.args[0].0 % 4) as usize];
        let mut collapsed = seeded(4, &facts);
        collapsed.communicate(route);
        let mut perholder = seeded(4, &facts).with_faults(FaultPlan::partitioned(
            0,
            PartitionPlan::split(100, 101, &[0]),
        ));
        perholder.communicate(route);
        assert_eq!(collapsed.union_all(), perholder.union_all());
        assert_eq!(
            collapsed.rounds()[0].received,
            perholder.rounds()[0].received
        );
        assert_eq!(
            collapsed.rounds()[0].total_comm,
            perholder.rounds()[0].total_comm
        );
    }

    // ---- The per-fact delivery the bucketed pass replaced, kept
    // verbatim as its oracle: route everything first, then one
    // sequential merge inserting fact by fact.

    fn apply_deliveries(
        p: usize,
        items: &[(ServerId, Fact)],
        routings: Vec<Routing>,
    ) -> (Vec<Instance>, Vec<usize>, u64) {
        let mut next: Vec<Instance> = vec![Instance::new(); p];
        let mut received = vec![0usize; p];
        let mut bytes = 0u64;
        for ((src, f), routing) in items.iter().zip(routings) {
            let src = *src;
            match routing {
                Routing::Keep => {
                    next[src].insert(f.clone());
                }
                Routing::Send(dests) => {
                    for &dest in &dests {
                        assert!(dest < p, "destination {dest} out of range for p={p}");
                        if next[dest].insert(f.clone()) {
                            received[dest] += 1;
                            bytes += CommCounters::wire_bytes(f.args.len());
                        }
                    }
                }
                Routing::Drop => {}
            }
        }
        (next, received, bytes)
    }

    struct PartitionCtx<'a> {
        plan: &'a PartitionPlan,
        round: usize,
        carried: &'a [HeldCopy],
        held_out: &'a std::cell::RefCell<Vec<HeldCopy>>,
    }

    fn apply_deliveries_partitioned(
        p: usize,
        items: &[(ServerId, Fact)],
        routings: Vec<Routing>,
        ctx: &PartitionCtx<'_>,
    ) -> (Vec<Instance>, Vec<usize>, u64) {
        let mut next: Vec<Instance> = vec![Instance::new(); p];
        let mut received = vec![0usize; p];
        let mut bytes = 0u64;
        let mut held = ctx.held_out.borrow_mut();
        held.clear();
        for (src, dest, f) in ctx.carried {
            if ctx.plan.severed(ctx.round, *src, *dest).is_some() {
                held.push((*src, *dest, f.clone()));
            } else if next[*dest].insert(f.clone()) {
                received[*dest] += 1;
                bytes += CommCounters::wire_bytes(f.args.len());
            }
        }
        for ((src, f), routing) in items.iter().zip(routings) {
            let src = *src;
            match routing {
                Routing::Keep => {
                    next[src].insert(f.clone());
                }
                Routing::Send(dests) => {
                    for &dest in &dests {
                        assert!(dest < p, "destination {dest} out of range for p={p}");
                        if ctx.plan.severed(ctx.round, src, dest).is_some() {
                            held.push((src, dest, f.clone()));
                        } else if next[dest].insert(f.clone()) {
                            received[dest] += 1;
                            bytes += CommCounters::wire_bytes(f.args.len());
                        }
                    }
                }
                Routing::Drop => {}
            }
        }
        (next, received, bytes)
    }

    /// One attempt the old way: sequential routing, then the per-fact
    /// merge (partitioned iff a plan is given).
    fn deliver_per_fact(
        p: usize,
        items: &[(ServerId, Fact)],
        carried: &[HeldCopy],
        route: &(impl Fn(ServerId, &Fact) -> Routing + Sync),
        plan: Option<(&PartitionPlan, usize)>,
    ) -> Delivered {
        let routings: Vec<Routing> = items.iter().map(|(src, f)| route(*src, f)).collect();
        let held_out = std::cell::RefCell::new(Vec::new());
        let (next, received, bytes) = match plan {
            None => apply_deliveries(p, items, routings),
            Some((plan, round)) => {
                let ctx = PartitionCtx {
                    plan,
                    round,
                    carried,
                    held_out: &held_out,
                };
                apply_deliveries_partitioned(p, items, routings, &ctx)
            }
        };
        Delivered {
            next: next.iter().map(|i| Shard::from_facts(i.iter())).collect(),
            received,
            bytes,
            held: held_out.into_inner(),
        }
    }

    /// Two states hold the same facts, server by server.
    fn assert_same_state(built: &[Shard], other: &[Shard], what: &str) {
        assert_eq!(built.len(), other.len());
        for (s, (x, y)) in built.iter().zip(other).enumerate() {
            assert_eq!(x, y, "{what}: server {s} facts");
        }
    }

    /// A holder-dependent fate per `(source, fact)`, written into the
    /// caller's buffer: a fifth each kept and sent nowhere (dropped), the
    /// rest sent to one to three destinations (repeats allowed) —
    /// deliberately *not* value-deterministic, so the same fact is kept
    /// by one holder and sent by another.
    fn mixed_route(
        p: usize,
        salt: u64,
    ) -> impl Fn(ServerId, &Fact, &mut Vec<ServerId>) -> Fate + Sync {
        use parlog_relal::fastmap::hash_u64;
        move |src, f, out| {
            let mut h = hash_u64(salt, src as u64);
            for v in &f.args {
                h = hash_u64(h, v.0);
            }
            if h % 5 == 0 {
                return Fate::Keep;
            }
            out.extend(
                (0..(h % 5).saturating_sub(1)).map(|i| (hash_u64(h, i) % p as u64) as usize),
            );
            Fate::Send
        }
    }

    /// [`mixed_route`] as a per-fact [`Routing`].
    fn mixed_fate(p: usize, salt: u64) -> impl Fn(ServerId, &Fact) -> Routing + Sync {
        let route = mixed_route(p, salt);
        move |src, f| {
            let mut out = Vec::new();
            match route(src, f, &mut out) {
                Fate::Keep => Routing::Keep,
                Fate::Send if out.is_empty() => Routing::Drop,
                Fate::Send => Routing::Send(out),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The bucketed attempt equals the per-fact one on the same item
        /// stream — the holders' shards in order: mixed
        /// `Keep`/`Send`/`Drop`, the same fact offered by several holders
        /// and several shards of one server, one relation at two arities,
        /// arities 0 and 3, carried holds, an open or healed partition
        /// epoch, rounds below and above the sequential cut-off, at
        /// parallelism 1, 2 and 4, through the buffer route and through
        /// the `Routing` adapter — next shards, loads, bytes and held
        /// copies identical.
        #[test]
        fn bucketed_attempt_matches_per_fact_delivery(
            p in 1..6usize,
            large in 0..3usize,
            n_small in 0..60usize,
            domain in 2..12u64,
            salt in 0..1000u64,
            partition in 0..3usize,
            n_carried in 0..8usize,
        ) {
            use parlog_relal::fastmap::hash_u64;
            // Every third case is big enough to run on the pool.
            let n = if large == 0 { PAR_MIN_ITEMS + 40 * n_small } else { n_small };
            let domain = if large == 0 { 40 } else { domain };
            let pool: Vec<Fact> = (0..domain * domain)
                .map(|i| {
                    let (a, b) = (i / domain, i % domain);
                    match i % 5 {
                        0 | 1 => fact(["R", "S"][(i % 2) as usize], &[a, b]),
                        2 => fact("R", &[a]),
                        3 => fact("U", &[a, b, a ^ b]),
                        _ => fact("Z", &[]),
                    }
                })
                .collect();
            let pick = |i: usize, k: u64| hash_u64(salt + k, i as u64);
            // Consecutive draws from the pool, cut into holder shards.
            let cut = 1 + salt as usize % 97;
            let drawn: Vec<Fact> = (0..n).map(|i| pool[pick(i, 2) as usize % pool.len()].clone()).collect();
            let shards: Vec<(ServerId, Shard)> = drawn
                .chunks(cut)
                .enumerate()
                .map(|(h, facts)| (pick(h, 1) as usize % p, Shard::from_facts(facts)))
                .collect();
            let holders: Vec<(ServerId, &Shard)> = shards.iter().map(|(s, sh)| (*s, sh)).collect();
            let items: Vec<(ServerId, Fact)> = holders
                .iter()
                .flat_map(|&(src, sh)| sh.iter().map(move |f| (src, f)))
                .collect();
            let carried: Vec<HeldCopy> = (0..n_carried)
                .map(|i| {
                    let f = pool[pick(i, 3) as usize % pool.len()].clone();
                    (pick(i, 4) as usize % p, pick(i, 5) as usize % p, f)
                })
                .collect();
            // No plan; an epoch open this round (server 0 cut off); or
            // one that has healed, so every carried hold flushes.
            let plan = PartitionPlan::split(0, 2, &[0]);
            let (plan, carried): (Option<(&PartitionPlan, usize)>, &[HeldCopy]) = match partition {
                0 => (None, &[]),
                1 => (Some((&plan, 1)), &carried),
                _ => (Some((&plan, 2)), &carried),
            };
            let (route, fate) = (mixed_route(p, salt), mixed_fate(p, salt));
            let adapted = |src, f: &Fact, out: &mut Vec<ServerId>| fate(src, f).fate(out);
            let want = deliver_per_fact(p, &items, carried, &fate, plan);
            for threads in [1, 2, 4] {
                let mut holders = holders.clone();
                for got in [
                    deliver(p, threads, &mut holders, carried, &route, plan),
                    deliver(p, threads, &mut holders, carried, &adapted, plan),
                ] {
                    assert_same_state(&got.next, &want.next, "bucketed vs per-fact");
                    proptest::prop_assert_eq!(&got.received, &want.received);
                    proptest::prop_assert_eq!(got.bytes, want.bytes);
                    proptest::prop_assert_eq!(&got.held, &want.held);
                }
            }
        }
    }

    /// A round that drains storage shards routes every holder's copy:
    /// it commits what routing the union of every holder and every
    /// storage shard once commits, as sets and as loads.
    #[test]
    fn storage_round_matches_the_unioned_item_stream() {
        let facts: Vec<Fact> = (0..90u64).map(|i| fact("R", &[i % 30, i % 7])).collect();
        let p = 4;
        let mut c = seeded(p, &facts);
        let storage: Vec<Shard> = (0..p)
            .map(|s| Shard::from_facts(facts.iter().skip(s).step_by(3)))
            .collect();
        // Some facts on several servers and in several shards.
        c.place(2, storage[1].iter());
        let route = |f: &Fact| vec![(f.args[0].0 % 4) as usize, (f.args[1].0 % 4) as usize];

        let all = Instance::from_facts(c.local.iter().chain(&storage).flat_map(Shard::iter));
        let items: Vec<(ServerId, Fact)> = all.iter().map(|f| (0, f.clone())).collect();
        let want = deliver_per_fact(p, &items, &[], &|_, f| Routing::Send(route(f)), None);

        c.route(&storage, |_, f, out| {
            out.extend(route(f));
            Fate::Send
        });
        for s in 0..p {
            assert_eq!(c.shard(s), &want.next[s], "server {s}");
        }
        assert_eq!(c.rounds()[0].received, want.received);
    }

    /// Whole rounds through the public phases: storage shards, mixed
    /// fates, a partition epoch that holds copies and later flushes
    /// them, and a crashed attempt replayed from the checkpoint. Shards,
    /// `RoundStats`, held copies and recovery
    /// tallies are identical at parallelism 1, 2 and 4, and the replayed
    /// run commits what the crash-free run commits.
    #[test]
    fn held_flushed_and_replayed_rounds_are_identical_at_every_parallelism() {
        let n = PAR_MIN_ITEMS as u64 + 500;
        let facts: Vec<Fact> = (0..n).map(|i| fact("R", &[i, i * 7 % 13])).collect();
        let p = 4;
        let storage: Vec<Shard> = (0..p)
            .map(|s| Shard::from_facts((0..50u64).map(|i| fact("S", &[i % 20, s as u64]))))
            .collect();
        let run = |threads: usize, crashes: FaultPlan| {
            let plan = crashes.with_partition(PartitionPlan::split(0, 2, &[3]));
            let mut c = seeded(p, &facts)
                .with_parallelism(threads)
                .with_faults(plan);
            c.route(&storage, mixed_route(p, 5));
            let held_open = c.held.clone();
            c.reshuffle(|src, f| Routing::Send(vec![(f.args[0].0 as usize + src) % p]));
            c.reshuffle(mixed_fate(p, 6));
            c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
            (c, held_open)
        };
        let (base, base_open) = run(1, FaultPlan::none(0));
        assert!(!base_open.is_empty(), "round 0 held cross-block copies");
        assert_eq!(base.held_by_partition(), 0, "every hold flushed");
        for threads in [1, 2, 4] {
            // Attempt 1 is round 1's first try: it crashes and replays.
            let (c, open) = run(threads, FaultPlan::crash_stop(0, 2, 1));
            assert_same_state(&c.local, &base.local, "replayed vs crash-free");
            assert_eq!(open, base_open, "threads={threads}: held copies");
            assert_eq!(c.held, base.held);
            assert_eq!(c.recovery().replays, 1);
            assert_eq!(c.round_count(), base.round_count());
            for (a, b) in c.rounds().iter().zip(base.rounds()) {
                assert_eq!(a.received, b.received, "threads={threads}");
                assert_eq!(a.max_load, b.max_load);
                assert_eq!(a.total_comm, b.total_comm);
                assert_eq!(a.tail_time, b.tail_time);
            }
        }
    }

    /// Rounds below the cut-off never leave the calling thread, whatever
    /// the pool width; rounds above it do.
    #[test]
    fn small_phases_stay_on_the_calling_thread() {
        let me = std::thread::current().id();
        let on_caller = |n: usize, threads: usize| {
            let mut items: Vec<usize> = (0..n).collect();
            par_chunks(&mut items, threads, n, |_, _| std::thread::current().id())
                .iter()
                .all(|&id| id == me)
        };
        assert!(on_caller(PAR_MIN_ITEMS - 1, 4));
        assert!(on_caller(0, 4));
        assert!(on_caller(PAR_MIN_ITEMS, 1));
        assert!(!on_caller(PAR_MIN_ITEMS, 2));
        // Chunks come back in order and cover every item once.
        let mut items: Vec<usize> = (0..PAR_MIN_ITEMS + 3).collect();
        let n = items.len();
        let spans = par_chunks(&mut items, 3, n, |first, chunk| (first, chunk.len()));
        let mut next = 0;
        for (first, len) in spans {
            assert_eq!(first, next);
            next += len;
        }
        assert_eq!(next, items.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn parallel_bad_destination_rejected() {
        let mut c = seeded(2, &[fact("R", &[1, 2])]).with_parallelism(4);
        c.communicate(|_| vec![7]);
    }

    /// A routing worker's panic reaches the caller with its message.
    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_rejected_on_the_pool() {
        let facts: Vec<Fact> = (0..PAR_MIN_ITEMS as u64 + 1)
            .map(|i| fact("R", &[i, i]))
            .collect();
        let mut c = seeded(2, &facts).with_parallelism(2);
        c.communicate(|f| vec![if f.args[0].0 == 0 { 7 } else { 0 }]);
    }

    #[test]
    #[should_panic(expected = "parallelism must be at least 1")]
    fn zero_parallelism_rejected() {
        Cluster::new(2).with_parallelism(0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        Cluster::new(0);
    }

    #[test]
    #[should_panic(expected = "cannot enforce `drop_prob`")]
    fn a_cluster_refuses_message_faults() {
        Cluster::new(2).with_faults(FaultPlan::lossy(1, 0.2));
    }

    #[test]
    #[should_panic(expected = "cannot enforce `retransmit`")]
    fn a_cluster_refuses_retransmit() {
        let plan = FaultPlan::none(1).with_retransmit(parlog_faults::RetransmitPolicy::default());
        Cluster::new(2).with_faults(plan);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_rejected() {
        let mut c = seeded(2, &[fact("R", &[1, 2])]);
        c.communicate(|_| vec![5]);
    }

    #[test]
    fn partition_timeline_is_pinned() {
        use parlog_faults::{PartitionEpoch, PartitionPlan};
        use parlog_trace::MemSink;
        use std::sync::Arc;
        // Two overlapping epochs: server 2 is cut off for rounds [1, 3),
        // server 0 from round 2 on, for good. Every round moves every fact
        // one server further, so each open epoch holds traffic.
        let epoch = |start, heal, minority| PartitionEpoch {
            start,
            heal,
            blocks: vec![vec![minority]],
            one_way: Vec::new(),
        };
        let plan = PartitionPlan {
            epochs: vec![epoch(1, 3, 2), epoch(2, usize::MAX, 0)],
        };
        let facts: Vec<Fact> = (0..12u64).map(|i| fact("R", &[i, i + 1])).collect();
        let sink = Arc::new(MemSink::new());
        let mut c = seeded(3, &facts)
            .with_faults(FaultPlan::partitioned(0, plan))
            .with_trace(TraceHandle::to(sink.clone()));
        for r in 0..5u64 {
            c.communicate(move |f| vec![((f.args[0].0 + r) % 3) as usize]);
        }
        let timeline: Vec<_> = sink
            .timeline()
            .iter()
            .map(|e| (e.kind, e.node, e.info, e.vclock))
            .collect();
        assert_eq!(
            timeline,
            vec![
                (FaultEventKind::PartitionStart, 0, 3, 4.0),
                (FaultEventKind::PartitionStart, 1, u64::MAX, 8.0),
                (FaultEventKind::PartitionHeal, 0, 8, 8.0),
            ]
        );
    }
}
