//! # `parlog-faults` — deterministic fault injection for both substrates
//!
//! The survey's asynchronous model (§5.1) assumes messages "can be
//! arbitrarily delayed but never lost", and the MPC model (§3) assumes
//! reliable synchronized rounds. This crate turns those assumptions into
//! *configuration*: a seeded [`FaultPlan`] describes which faults a run
//! injects — message **drop**, **duplicate**, **reorder**, **delay**,
//! node **crash-stop** / **crash-recover**, and **stragglers** — so that
//! the CALM-style guarantees can be machine-checked per fault class
//! instead of assumed globally.
//!
//! Design rules:
//!
//! * **Determinism.** Every probabilistic decision flows from one seeded
//!   generator ([`FaultInjector`]); the same plan on the same run yields
//!   the same faults. Experiments are replayable by seed.
//! * **One plan, two substrates.** Nodes/servers are plain `usize` ids,
//!   and one [`FaultPlan`] describes a run on either substrate. Each
//!   substrate reads the parts it can enforce, on its own clock: the
//!   transducer runtimes roll per-message [`MessageFate`]s and time
//!   crashes by delivery step; the MPC cluster times crashes by round
//!   attempt, partitions by committed round and corruptions by verified
//!   round. A part a substrate cannot enforce is refused, not ignored.
//! * **Faults compose.** A plan may combine classes; the canonical
//!   single-class plans used by the fault-tolerance matrix come from
//!   [`FaultPlan::for_class`].

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fault classes of the tolerance matrix, ordered from "allowed by
/// the paper's model" to "explicitly excluded by it".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum FaultClass {
    /// Arbitrary message reordering — *allowed* by the asynchronous model
    /// (delivery is nondeterministic); monotone programs must tolerate it
    /// without coordination.
    Reorder,
    /// Message duplication — receivers are sets, so idempotence should
    /// absorb it; the model's fair schedules already permit re-delivery.
    Duplicate,
    /// Finite message delay — allowed ("arbitrarily delayed"); only
    /// unbounded delay (= loss) is excluded.
    Delay,
    /// Message loss — **violates** the model's no-loss assumption.
    Loss,
    /// A node crashes and later recovers from its last snapshot, losing
    /// everything since — violates the model's assumption that nodes are
    /// always responsive.
    CrashRecover,
    /// A node crashes and never returns — the strongest violation.
    CrashStop,
    /// Byzantine wrong-answer faults: a node **corrupts** data instead of
    /// omitting it — mutated in-flight payloads on the transducer
    /// substrate, mutated/injected/dropped tuples in a server's local
    /// output on the MPC substrate. The strongest class: omission-fault
    /// tolerance says nothing about it; detection needs the
    /// `parlog-verify` certificate checker.
    Corrupt,
    /// Network partition: the node set splits into blocks that cannot
    /// exchange messages until the partition heals. Messages crossing a
    /// severed link are **held at the source** and flushed on heal —
    /// never lost — so a *healing* partition is an adversarial but
    /// finite delay, squarely within the asynchronous model's
    /// "arbitrarily delayed but never lost" assumption. What it stresses
    /// is *coordination*: coordination-free (monotone) programs keep
    /// making sound progress on every side, while coordination barriers
    /// block until heal (and deadlock if the partition is permanent).
    Partition,
}

impl FaultClass {
    /// All classes, in matrix order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Reorder,
        FaultClass::Duplicate,
        FaultClass::Delay,
        FaultClass::Loss,
        FaultClass::CrashRecover,
        FaultClass::CrashStop,
        FaultClass::Corrupt,
        FaultClass::Partition,
    ];

    /// Does the paper's asynchronous model already quantify over this
    /// fault (true), or does the fault violate a stated assumption
    /// (false)? A *healing* partition with hold-and-flush delivery is
    /// within the model (finite delay, no loss); a permanent partition
    /// would not be, but [`FaultPlan::for_class`] always heals.
    pub fn within_model(self) -> bool {
        matches!(
            self,
            FaultClass::Reorder | FaultClass::Duplicate | FaultClass::Delay | FaultClass::Partition
        )
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Reorder => "reorder",
            FaultClass::Duplicate => "duplicate",
            FaultClass::Delay => "delay",
            FaultClass::Loss => "loss",
            FaultClass::CrashRecover => "crash-recover",
            FaultClass::CrashStop => "crash-stop",
            FaultClass::Corrupt => "corrupt",
            FaultClass::Partition => "partition",
        }
    }
}

/// What happens to one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered, and an extra copy is enqueued.
    Duplicate,
    /// Held back for the given number of delivery steps.
    Delay(u32),
    /// Delivered **corrupted**: the payload is mutated before delivery.
    /// Carries 64 bits of seeded entropy telling the substrate *how* to
    /// mutate (which argument, which bit flip) — the injector has no view
    /// of message payloads, so the substrate applies the mutation.
    Corrupt(u64),
}

/// How a crashed node comes back (or doesn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum CrashKind {
    /// Crash-stop: the node never processes another message.
    Stop,
    /// Crash-recover: after `downtime` delivery steps the node resumes
    /// from its last snapshot; messages addressed to it while down are
    /// lost.
    Recover {
        /// Delivery steps the node stays down.
        downtime: usize,
    },
}

/// A scheduled node crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: usize,
    /// When the crash fires: the global delivery step in the transducer
    /// runtimes, the communication-round attempt index on the MPC cluster.
    pub at_step: usize,
    /// Stop or recover.
    pub kind: CrashKind,
}

/// A deliberately slow node: the MPC cluster scales its received load in
/// the round's tail time; the threaded transducer runtime stalls it per
/// message.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Straggler {
    /// The slow server.
    pub node: usize,
    /// Multiplicative slowdown (≥ 1.0): virtual time to absorb one unit
    /// of load, relative to a healthy server.
    pub slowdown: f64,
}

/// One partition epoch: between `start` (inclusive) and `heal`
/// (exclusive) the node set is split into `blocks` that cannot exchange
/// messages, plus optional asymmetric `one_way` severed links. Nodes
/// not named in any block form one implicit residual block together.
///
/// Clocks are substrate-relative: the transducer runtimes compare
/// against the virtual clock, the MPC cluster against the committed-round
/// index.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct PartitionEpoch {
    /// First clock tick / round at which the links are severed.
    pub start: usize,
    /// Clock tick / round at which the partition heals and held
    /// messages flush. `usize::MAX` means the partition never heals —
    /// the deadlock/split-brain regression witness, outside the model's
    /// no-loss assumption.
    pub heal: usize,
    /// Disjoint node blocks; traffic between different blocks is
    /// severed in both directions. Unlisted nodes share one implicit
    /// residual block.
    pub blocks: Vec<Vec<usize>>,
    /// Additional `(from, to)` links severed in that direction only —
    /// asymmetric partitions where A can still hear B but not reply.
    pub one_way: Vec<(usize, usize)>,
}

impl PartitionEpoch {
    /// Does this epoch never heal?
    pub fn is_permanent(&self) -> bool {
        self.heal == usize::MAX
    }

    /// Is the epoch open at `clock`?
    pub fn open_at(&self, clock: usize) -> bool {
        self.start <= clock && clock < self.heal
    }

    /// Block index of `node` (listed blocks first, then the implicit
    /// residual block).
    fn block_of(&self, node: usize) -> usize {
        self.blocks
            .iter()
            .position(|b| b.contains(&node))
            .unwrap_or(self.blocks.len())
    }

    /// Is the directed link `from → to` severed while this epoch is
    /// open?
    pub fn severs(&self, from: usize, to: usize) -> bool {
        self.block_of(from) != self.block_of(to) || self.one_way.contains(&(from, to))
    }
}

/// A seeded, clock-scheduled sequence of split/heal [`PartitionEpoch`]s
/// — the partition fault class for both substrates. Enforced at the
/// single routing choke points (`send_copy` in the transducer runtimes,
/// the communication phase in the MPC cluster): a message crossing a
/// severed link is parked at the source, before any of the injector's
/// [`MessageFate`]s applies, and flushes when the severing epoch heals.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct PartitionPlan {
    /// The scheduled epochs (may overlap; a link is severed while *any*
    /// open epoch severs it, and a held message releases only once no
    /// open epoch severs its link).
    pub epochs: Vec<PartitionEpoch>,
}

impl PartitionPlan {
    /// No partitions: the network is whole.
    pub fn none() -> PartitionPlan {
        PartitionPlan { epochs: Vec::new() }
    }

    /// One symmetric split: the nodes of `minority` are cut off from
    /// everyone else between `start` and `heal`.
    pub fn split(start: usize, heal: usize, minority: &[usize]) -> PartitionPlan {
        assert!(start < heal, "epoch must be non-empty");
        PartitionPlan {
            epochs: vec![PartitionEpoch {
                start,
                heal,
                blocks: vec![minority.to_vec()],
                one_way: Vec::new(),
            }],
        }
    }

    /// One asymmetric epoch: only the directed link `from → to` is
    /// severed — `to` can still reach `from`.
    pub fn one_way(start: usize, heal: usize, from: usize, to: usize) -> PartitionPlan {
        assert!(start < heal, "epoch must be non-empty");
        PartitionPlan {
            epochs: vec![PartitionEpoch {
                start,
                heal,
                blocks: Vec::new(),
                one_way: vec![(from, to)],
            }],
        }
    }

    /// A split that never heals — the regression witness for
    /// coordination deadlock and split-brain hazards.
    pub fn permanent_split(start: usize, minority: &[usize]) -> PartitionPlan {
        PartitionPlan {
            epochs: vec![PartitionEpoch {
                start,
                heal: usize::MAX,
                blocks: vec![minority.to_vec()],
                one_way: Vec::new(),
            }],
        }
    }

    /// A seeded random healing schedule over `n` nodes: 1–3 epochs,
    /// each splitting a random nonempty proper subset for a bounded
    /// duration within `horizon`, sometimes with an extra one-way
    /// severed link. Always heals (suitable for convergence proptests);
    /// fully determined by `seed`.
    pub fn seeded(seed: u64, n: usize, horizon: usize) -> PartitionPlan {
        assert!(n >= 2, "a partition needs at least two nodes");
        let horizon = horizon.max(4);
        let k = 1 + (mix64(seed) % 3) as usize;
        let mut epochs = Vec::with_capacity(k);
        for e in 0..k {
            let h = mix64(seed ^ mix64(e as u64 + 1));
            // A nonempty proper subset of 0..n via a nonzero, non-full
            // membership bitmask.
            let mask = 1 + (h % ((1u64 << n.min(63)) - 2));
            let minority: Vec<usize> = (0..n).filter(|&i| mask >> i.min(63) & 1 == 1).collect();
            let start = (mix64(h) % (horizon as u64 / 2)) as usize;
            let dur = 1 + (mix64(h ^ 0x5eed) % (horizon as u64 / 2)) as usize;
            let one_way = if mix64(h ^ 0xa5) % 3 == 0 {
                let a = (mix64(h ^ 0xb6) % n as u64) as usize;
                let b = (a + 1 + (mix64(h ^ 0xc7) % (n as u64 - 1)) as usize) % n;
                vec![(a, b)]
            } else {
                Vec::new()
            };
            epochs.push(PartitionEpoch {
                start,
                heal: start + dur,
                blocks: vec![minority],
                one_way,
            });
        }
        PartitionPlan { epochs }
    }

    /// Does this plan sever nothing?
    pub fn is_benign(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Does any epoch never heal?
    pub fn is_permanent(&self) -> bool {
        self.epochs.iter().any(PartitionEpoch::is_permanent)
    }

    /// If the directed link `from → to` is severed at `clock`, the
    /// clock at which the *last* severing epoch heals (the release time
    /// for a held message); `None` when the link is usable.
    pub fn severed(&self, clock: usize, from: usize, to: usize) -> Option<usize> {
        self.epochs
            .iter()
            .filter(|e| e.open_at(clock) && e.severs(from, to))
            .map(|e| e.heal)
            .max()
    }

    /// Indices of the epochs open at `clock` (empty = network whole).
    pub fn open_at(&self, clock: usize) -> Vec<usize> {
        (0..self.epochs.len())
            .filter(|&i| self.epochs[i].open_at(clock))
            .collect()
    }

    /// The one partition edge detector: the epochs that opened or healed
    /// at `clock` since the caller's flags `open` (one per epoch) were
    /// last updated, in epoch order; the flags are updated in place. An
    /// opening carries its `PartitionStart` info, the scheduled heal clock
    /// (`u64::MAX` = permanent); a heal carries `None`, since the copies
    /// it releases are counted by each substrate's own hold rule.
    pub fn edges(&self, open: &mut [bool], clock: usize) -> Vec<(usize, Option<u64>)> {
        let mut edges = Vec::new();
        for (i, (epoch, was_open)) in self.epochs.iter().zip(open).enumerate() {
            let open = epoch.open_at(clock);
            if open != *was_open {
                // `usize::MAX` (permanent) widens to `u64::MAX`.
                edges.push((i, open.then_some(epoch.heal as u64)));
                *was_open = open;
            }
        }
        edges
    }

    /// The next clock strictly after `clock` at which an epoch starts
    /// or heals — the scheduler's idle-clock jump target.
    pub fn next_transition(&self, clock: usize) -> Option<usize> {
        self.epochs
            .iter()
            .flat_map(|e| [e.start, e.heal])
            .filter(|&t| t > clock && t != usize::MAX)
            .min()
    }

    /// The set of nodes (out of `n`) reachable from `home` at `clock`
    /// via directed multi-hop paths — the indirect-reachability closure
    /// the supervisor probes. Always contains `home`.
    pub fn reachable_from(&self, clock: usize, home: usize, n: usize) -> Vec<usize> {
        let mut seen = vec![false; n];
        let mut stack = vec![home];
        seen[home] = true;
        while let Some(u) = stack.pop() {
            for (v, visited) in seen.iter_mut().enumerate() {
                if !*visited && self.severed(clock, u, v).is_none() {
                    *visited = true;
                    stack.push(v);
                }
            }
        }
        (0..n).filter(|&i| seen[i]).collect()
    }
}

impl Default for PartitionPlan {
    fn default() -> PartitionPlan {
        PartitionPlan::none()
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer used to
/// derive *deterministic* jitter and per-entity hash streams without any
/// shared RNG state. Same input, same output — always.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Ack/retransmit-with-backoff — the *explicit coordination* that buys
/// back reliability under loss. Used by the transducer runtime's
/// reliable mode; every retransmission and ack is counted, making the
/// coordination overhead measurable.
///
/// Backoff is exponential with a **cap** and **deterministic seeded
/// jitter**: the wait before attempt `k+1` is drawn from
/// `[(1−j)·b, b]` where `b = min(backoff_base · 2^k, backoff_cap)` and
/// `j = jitter_pct/100`, keyed by `(seed, from, dest, k)` through
/// [`mix64`] — so retransmissions desynchronize (no thundering herd at
/// the same clock tick) while staying fully reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct RetransmitPolicy {
    /// Retransmission attempts per (message, destination) before giving
    /// up.
    pub max_retries: u32,
    /// Heartbeats to wait before the first retransmission; doubles per
    /// attempt (exponential backoff).
    pub backoff_base: u32,
    /// Ceiling on the exponential backoff, in delivery steps.
    pub backoff_cap: u32,
    /// Percentage of the capped backoff randomized away (0 = fixed
    /// intervals; 50 = wait drawn from the upper half of the interval).
    pub jitter_pct: u8,
}

impl Default for RetransmitPolicy {
    fn default() -> RetransmitPolicy {
        RetransmitPolicy {
            max_retries: 16,
            backoff_base: 1,
            backoff_cap: 64,
            jitter_pct: 50,
        }
    }
}

impl RetransmitPolicy {
    /// A policy with fixed (jitter-free, uncapped-by-default-cap)
    /// exponential backoff — the pre-jitter behavior, kept for tests
    /// that assert exact release times.
    pub fn fixed(max_retries: u32, backoff_base: u32) -> RetransmitPolicy {
        RetransmitPolicy {
            max_retries,
            backoff_base,
            backoff_cap: u32::MAX,
            jitter_pct: 0,
        }
    }

    /// Delivery steps to wait after the `attempts`-th failed send of a
    /// `(from, dest)` copy: capped exponential backoff with
    /// deterministic jitter keyed by `(seed, from, dest, attempts)`.
    /// Always ≥ 1.
    pub fn backoff(&self, seed: u64, from: usize, dest: usize, attempts: u32) -> usize {
        // A u32 shifted by at most 32 bits cannot overflow a u64.
        let exp = u64::from(self.backoff_base) << attempts.min(32);
        let capped = exp.min(self.backoff_cap as u64).max(1);
        let span = capped * u64::from(self.jitter_pct.min(100)) / 100;
        if span == 0 {
            return capped as usize;
        }
        let key = mix64(
            seed ^ mix64((from as u64) << 32 | dest as u64).wrapping_add(u64::from(attempts)),
        );
        (capped - span + key % (span + 1)).max(1) as usize
    }
}

/// MapReduce-style speculative re-execution of straggler tasks: when a
/// server's straggler-scaled finish time exceeds `threshold ×` the
/// round's median finish time, a backup copy of its task is launched on
/// a healthy server; whichever copy finishes first wins and commits
/// (commits are idempotent — both copies compute the same deterministic
/// result), the loser's work is discarded and tallied as speculative
/// waste. Purely a latency optimization: outputs, communication and
/// per-round loads are untouched by construction.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SpeculationPolicy {
    /// Launch a backup when `scaled_time > threshold × median_time`.
    pub threshold: f64,
    /// Never speculate tasks below this load (backing up trivial tasks
    /// wastes more than it saves).
    pub min_load: usize,
}

impl Default for SpeculationPolicy {
    fn default() -> SpeculationPolicy {
        SpeculationPolicy {
            threshold: 1.5,
            min_load: 2,
        }
    }
}

/// A complete, seeded description of the faults one run injects, on
/// either substrate. Each substrate reads the fields it can enforce and
/// refuses a plan that sets one it cannot ([`FaultPlan::transducer_only`],
/// [`FaultPlan::mpc_only`]).
///
/// The all-zero plan (see [`FaultPlan::none`]) injects nothing: a
/// scheduler driving a run through `FaultPlan::none` must behave exactly
/// like the fault-free code path (regression-tested in the transducer
/// crate).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the schedule seed).
    pub seed: u64,
    /// Per-message drop probability.
    pub drop_prob: f64,
    /// Per-message duplication probability.
    pub dup_prob: f64,
    /// Per-message probability of being enqueued at a random position
    /// instead of the back (reordering beyond what the schedule does).
    pub reorder_prob: f64,
    /// Per-message probability of being held back.
    pub delay_prob: f64,
    /// Maximum hold-back, in delivery steps.
    pub max_delay: u32,
    /// Per-message probability of the payload being corrupted in flight
    /// (Byzantine wrong-data faults; see [`FaultClass::Corrupt`]).
    pub corrupt_prob: f64,
    /// Scheduled node crashes, on the transducer runtimes' delivery step
    /// or the MPC cluster's round attempt (replayed, whatever the kind).
    pub crashes: Vec<CrashEvent>,
    /// Slow nodes: read by the MPC cluster's tail-time accounting and by
    /// the threaded transducer runtime.
    pub stragglers: Vec<Straggler>,
    /// Byzantine output corruptions of the MPC cluster's verified rounds;
    /// [`FaultPlan::entropy`] derives how each one tampers from `seed`.
    pub corruptions: Vec<CorruptEvent>,
    /// When set, the transducer runtime runs its reliable mode.
    pub retransmit: Option<RetransmitPolicy>,
    /// When set, the MPC round barrier backs up straggler tasks.
    pub speculation: Option<SpeculationPolicy>,
    /// Scheduled network partitions: epochs on the transducer runtimes'
    /// virtual clock, or on the MPC cluster's committed-round index.
    pub partition: Option<PartitionPlan>,
}

impl FaultPlan {
    /// The empty plan: no faults at all.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            corrupt_prob: 0.0,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            corruptions: Vec::new(),
            retransmit: None,
            speculation: None,
            partition: None,
        }
    }

    /// Network partition per `plan`, nothing else.
    pub fn partitioned(seed: u64, plan: PartitionPlan) -> FaultPlan {
        FaultPlan {
            partition: Some(plan),
            ..FaultPlan::none(seed)
        }
    }

    /// Message loss with probability `p` per message.
    pub fn lossy(seed: u64, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        FaultPlan {
            drop_prob: p,
            ..FaultPlan::none(seed)
        }
    }

    /// Message duplication with probability `p` per message.
    pub fn duplicating(seed: u64, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "dup probability out of range");
        FaultPlan {
            dup_prob: p,
            ..FaultPlan::none(seed)
        }
    }

    /// Random-position enqueue with probability `p` per message.
    pub fn reordering(seed: u64, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "reorder probability out of range");
        FaultPlan {
            reorder_prob: p,
            ..FaultPlan::none(seed)
        }
    }

    /// Hold messages back up to `max_delay` steps with probability `p`.
    pub fn delaying(seed: u64, p: f64, max_delay: u32) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "delay probability out of range");
        FaultPlan {
            delay_prob: p,
            max_delay,
            ..FaultPlan::none(seed)
        }
    }

    /// In-flight payload corruption with probability `p` per message.
    pub fn corrupting(seed: u64, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "corrupt probability out of range");
        FaultPlan {
            corrupt_prob: p,
            ..FaultPlan::none(seed)
        }
    }

    /// One crash-stop of `node` at delivery step `at_step`.
    pub fn crash_stop(seed: u64, node: usize, at_step: usize) -> FaultPlan {
        FaultPlan::none(seed).with_crash(node, at_step, CrashKind::Stop)
    }

    /// One crash-recover of `node` at `at_step`, down for `downtime`
    /// steps.
    pub fn crash_recover(seed: u64, node: usize, at_step: usize, downtime: usize) -> FaultPlan {
        FaultPlan::none(seed).with_crash(node, at_step, CrashKind::Recover { downtime })
    }

    /// Add a crash of `node` at `at_step` (see [`FaultPlan::crashes`] for
    /// each substrate's clock).
    pub fn with_crash(mut self, node: usize, at_step: usize, kind: CrashKind) -> FaultPlan {
        self.crashes.push(CrashEvent {
            node,
            at_step,
            kind,
        });
        self
    }

    /// The canonical single-class plan used by the fault-tolerance
    /// matrix: moderate intensities chosen so faults actually fire on
    /// small test instances while runs still terminate.
    pub fn for_class(class: FaultClass, seed: u64) -> FaultPlan {
        match class {
            FaultClass::Reorder => FaultPlan::reordering(seed, 0.5),
            FaultClass::Duplicate => FaultPlan::duplicating(seed, 0.3),
            FaultClass::Delay => FaultPlan::delaying(seed, 0.3, 8),
            FaultClass::Loss => FaultPlan::lossy(seed, 0.35),
            FaultClass::CrashRecover => {
                FaultPlan::crash_recover(seed, (seed as usize) % 3, 4 + (seed as usize) % 5, 6)
            }
            FaultClass::CrashStop => {
                FaultPlan::crash_stop(seed, (seed as usize) % 3, 4 + (seed as usize) % 5)
            }
            FaultClass::Corrupt => FaultPlan::corrupting(seed, 0.3),
            // A healing split: node (seed % 3) is cut off early in the
            // run and the partition heals a few dozen ticks later —
            // long enough that held traffic piles up, short enough that
            // runs terminate.
            FaultClass::Partition => FaultPlan::partitioned(
                seed,
                PartitionPlan::split(
                    2 + (seed as usize) % 3,
                    24 + (seed as usize) % 17,
                    &[(seed as usize) % 3],
                ),
            ),
        }
    }

    /// Add ack/retransmit (explicit coordination) to this plan.
    pub fn with_retransmit(mut self, policy: RetransmitPolicy) -> FaultPlan {
        self.retransmit = Some(policy);
        self
    }

    /// Add a partition schedule to this plan.
    pub fn with_partition(mut self, plan: PartitionPlan) -> FaultPlan {
        self.partition = Some(plan);
        self
    }

    /// Add a straggler.
    pub fn with_straggler(mut self, node: usize, slowdown: f64) -> FaultPlan {
        assert!(slowdown >= 1.0, "a straggler cannot be faster than healthy");
        self.stragglers.push(Straggler { node, slowdown });
        self
    }

    /// Add a corruption: `server` lies in verified round `round`.
    pub fn with_corruption(mut self, round: usize, server: usize, kind: CorruptKind) -> FaultPlan {
        self.corruptions.push(CorruptEvent {
            round,
            server,
            kind,
        });
        self
    }

    /// Add speculative re-execution of straggler tasks.
    pub fn with_speculation(mut self, policy: SpeculationPolicy) -> FaultPlan {
        assert!(policy.threshold >= 1.0, "cutoff below the median is absurd");
        self.speculation = Some(policy);
        self
    }

    /// Does this plan inject nothing?
    pub fn is_benign(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.delay_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.crashes.is_empty()
            && self.corruptions.is_empty()
            && self.partition.as_ref().is_none_or(PartitionPlan::is_benign)
    }

    /// Build the stateful injector that rolls this plan's dice.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(self.seed ^ 0xfau64.rotate_left(32)),
            plan: self.clone(),
        }
    }

    /// Slowdown factor for `node` (1.0 when healthy).
    pub fn slowdown(&self, node: usize) -> f64 {
        let slow = self.stragglers.iter().find(|s| s.node == node);
        slow.map_or(1.0, |s| s.slowdown)
    }

    /// Does `node` crash at `step`?
    pub fn crashes_at(&self, node: usize, step: usize) -> bool {
        let mut crashes = self.crashes.iter();
        crashes.any(|c| c.at_step == step && c.node == node)
    }

    /// The corruption (if any) scheduled for `server` in `round`.
    pub fn event_for(&self, round: usize, server: usize) -> Option<CorruptKind> {
        self.corruptions
            .iter()
            .find(|e| e.round == round && e.server == server)
            .map(|e| e.kind)
    }

    /// Deterministic per-event entropy: how the tampering picks its
    /// victim tuple and forged values.
    pub fn entropy(&self, round: usize, server: usize) -> u64 {
        mix64(self.seed ^ mix64(((round as u64) << 32) | server as u64))
    }

    /// The first field set here that only the transducer runtimes
    /// enforce — the per-message fate table or `retransmit`. MPC rounds
    /// are reliable by model, so a cluster refuses such a plan.
    pub fn transducer_only(&self) -> Option<&'static str> {
        let set = [
            ("drop_prob", self.drop_prob > 0.0),
            ("dup_prob", self.dup_prob > 0.0),
            ("reorder_prob", self.reorder_prob > 0.0),
            ("delay_prob", self.delay_prob > 0.0),
            ("corrupt_prob", self.corrupt_prob > 0.0),
            ("retransmit", self.retransmit.is_some()),
        ];
        set.into_iter().find_map(|(name, on)| on.then_some(name))
    }

    /// The first field set here that only the MPC cluster enforces —
    /// `corruptions` or `speculation`; a transducer runtime refuses such
    /// a plan.
    pub fn mpc_only(&self) -> Option<&'static str> {
        let set = [
            ("corruptions", !self.corruptions.is_empty()),
            ("speculation", self.speculation.is_some()),
        ];
        set.into_iter().find_map(|(name, on)| on.then_some(name))
    }
}

/// The stateful dice-roller for a [`FaultPlan`]. One injector per run;
/// decisions are consumed in run order, so a fixed (plan, run) pair is
/// fully reproducible. A clone rolls the same dice from where it stands.
#[derive(Clone)]
pub struct FaultInjector {
    rng: StdRng,
    plan: FaultPlan,
}

impl FaultInjector {
    /// Decide the fate of the next message send. Rolls are ordered
    /// drop → duplicate → delay so that class probabilities are
    /// independent of each other's settings.
    pub fn fate(&mut self) -> MessageFate {
        if self.plan.drop_prob > 0.0 && self.rng.gen_bool(self.plan.drop_prob) {
            return MessageFate::Drop;
        }
        if self.plan.dup_prob > 0.0 && self.rng.gen_bool(self.plan.dup_prob) {
            return MessageFate::Duplicate;
        }
        if self.plan.delay_prob > 0.0
            && self.plan.max_delay > 0
            && self.rng.gen_bool(self.plan.delay_prob)
        {
            return MessageFate::Delay(self.rng.gen_range(1..=self.plan.max_delay));
        }
        if self.plan.corrupt_prob > 0.0 && self.rng.gen_bool(self.plan.corrupt_prob) {
            return MessageFate::Corrupt(self.rng.gen::<u64>());
        }
        MessageFate::Deliver
    }

    /// Position at which to enqueue a message into a buffer of length
    /// `len`: `None` = back (normal), `Some(i)` = reordered insert.
    pub fn enqueue_position(&mut self, len: usize) -> Option<usize> {
        if len == 0 || self.plan.reorder_prob == 0.0 || !self.rng.gen_bool(self.plan.reorder_prob) {
            return None;
        }
        Some(self.rng.gen_range(0..=len))
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// How a Byzantine server tampers with its local computation output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum CorruptKind {
    /// Replace one output tuple with a mutated copy (one argument bit
    /// flipped) and relabel its witness — an *unsound* answer.
    Mutate,
    /// Add a fabricated tuple (with a forged head-only witness) — also
    /// unsound.
    Inject,
    /// Silently drop one output tuple and its witness — an *incomplete*
    /// answer.
    Drop,
}

impl CorruptKind {
    /// All kinds, in plan order.
    pub const ALL: [CorruptKind; 3] = [CorruptKind::Mutate, CorruptKind::Inject, CorruptKind::Drop];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CorruptKind::Mutate => "mutate",
            CorruptKind::Inject => "inject",
            CorruptKind::Drop => "drop",
        }
    }
}

/// One scheduled output corruption of an MPC verified round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CorruptEvent {
    /// The verified round in which the server lies.
    pub round: usize,
    /// The Byzantine server.
    pub server: usize,
    /// How it lies.
    pub kind: CorruptKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_injects_nothing() {
        let plan = FaultPlan::none(7);
        assert!(plan.is_benign());
        let mut inj = plan.injector();
        for _ in 0..1000 {
            assert_eq!(inj.fate(), MessageFate::Deliver);
            assert_eq!(inj.enqueue_position(5), None);
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::lossy(3, 0.5);
        let a: Vec<MessageFate> = {
            let mut i = plan.injector();
            (0..100).map(|_| i.fate()).collect()
        };
        let b: Vec<MessageFate> = {
            let mut i = plan.injector();
            (0..100).map(|_| i.fate()).collect()
        };
        assert_eq!(a, b);
        assert!(a.contains(&MessageFate::Drop));
        assert!(a.contains(&MessageFate::Deliver));
    }

    #[test]
    fn class_plans_match_their_class() {
        for class in FaultClass::ALL {
            let plan = FaultPlan::for_class(class, 11);
            assert!(!plan.is_benign(), "{class:?} plan must inject something");
            match class {
                FaultClass::Loss => assert!(plan.drop_prob > 0.0),
                FaultClass::Duplicate => assert!(plan.dup_prob > 0.0),
                FaultClass::Reorder => assert!(plan.reorder_prob > 0.0),
                FaultClass::Delay => assert!(plan.delay_prob > 0.0 && plan.max_delay > 0),
                FaultClass::CrashStop => {
                    assert!(matches!(plan.crashes[0].kind, CrashKind::Stop));
                }
                FaultClass::CrashRecover => {
                    assert!(matches!(plan.crashes[0].kind, CrashKind::Recover { .. }));
                }
                FaultClass::Corrupt => assert!(plan.corrupt_prob > 0.0),
                FaultClass::Partition => {
                    let p = plan.partition.as_ref().expect("partition plan");
                    assert!(!p.is_benign());
                    assert!(!p.is_permanent(), "matrix partitions must heal");
                }
            }
        }
    }

    #[test]
    fn within_model_split() {
        assert!(FaultClass::Reorder.within_model());
        assert!(FaultClass::Duplicate.within_model());
        assert!(FaultClass::Delay.within_model());
        assert!(FaultClass::Partition.within_model());
        assert!(!FaultClass::Loss.within_model());
        assert!(!FaultClass::CrashStop.within_model());
        assert!(!FaultClass::CrashRecover.within_model());
        assert!(!FaultClass::Corrupt.within_model());
    }

    #[test]
    fn partition_split_severs_symmetrically_and_heals() {
        let p = PartitionPlan::split(5, 10, &[0]);
        assert!(p.severed(4, 0, 1).is_none(), "not yet open");
        assert_eq!(p.severed(5, 0, 1), Some(10));
        assert_eq!(p.severed(9, 1, 0), Some(10), "symmetric");
        assert!(p.severed(9, 1, 2).is_none(), "same residual block");
        assert!(p.severed(10, 0, 1).is_none(), "healed");
        assert_eq!(p.open_at(7), vec![0]);
        assert!(p.open_at(10).is_empty());
        assert_eq!(p.next_transition(0), Some(5));
        assert_eq!(p.next_transition(5), Some(10));
        assert_eq!(p.next_transition(10), None);
        assert!(!p.is_benign() && !p.is_permanent());
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let p = PartitionPlan::one_way(0, 8, 2, 1);
        assert_eq!(p.severed(3, 2, 1), Some(8));
        assert!(p.severed(3, 1, 2).is_none(), "reverse link stays up");
        // Reachability respects direction: 1 and 2 both reach everyone
        // via... 2 cannot reach 1 directly but can via no intermediate
        // hop here (3 nodes, only 2→1 cut, 2→0→1 is open).
        assert_eq!(p.reachable_from(3, 2, 3), vec![0, 1, 2]);
    }

    #[test]
    fn permanent_split_never_heals() {
        let p = PartitionPlan::permanent_split(2, &[1]);
        assert!(p.is_permanent());
        assert_eq!(p.severed(1_000_000, 1, 0), Some(usize::MAX));
        assert_eq!(p.next_transition(0), Some(2), "start still transitions");
        assert_eq!(p.next_transition(2), None, "heal never does");
    }

    #[test]
    fn overlapping_epochs_release_at_the_last_heal() {
        let p = PartitionPlan {
            epochs: vec![
                PartitionEpoch {
                    start: 0,
                    heal: 6,
                    blocks: vec![vec![0]],
                    one_way: Vec::new(),
                },
                PartitionEpoch {
                    start: 4,
                    heal: 12,
                    blocks: vec![vec![0]],
                    one_way: Vec::new(),
                },
            ],
        };
        assert_eq!(p.severed(2, 0, 1), Some(6));
        assert_eq!(p.severed(5, 0, 1), Some(12), "max heal among open epochs");
    }

    #[test]
    fn edges_report_each_transition_once() {
        // Epoch 0 is open over [2, 5), epoch 1 from 4 on, for good.
        let mut p = PartitionPlan::split(2, 5, &[0]);
        p.epochs
            .extend(PartitionPlan::permanent_split(4, &[1]).epochs);
        let mut open = vec![false; 2];
        assert_eq!(p.edges(&mut open, 0), vec![]);
        assert_eq!(p.edges(&mut open, 3), vec![(0, Some(5))]);
        assert_eq!(p.edges(&mut open, 3), vec![], "no edge without a change");
        assert_eq!(p.edges(&mut open, 4), vec![(1, Some(u64::MAX))]);
        // A clock jump crosses the heal: one edge, not one per tick.
        assert_eq!(p.edges(&mut open, 9), vec![(0, None)]);
        assert_eq!(open, vec![false, true]);
        assert_eq!(p.edges(&mut open, 100), vec![]);
    }

    #[test]
    fn reachable_from_blocks_minority() {
        let p = PartitionPlan::split(0, 10, &[0, 1]);
        assert_eq!(p.reachable_from(5, 0, 5), vec![0, 1]);
        assert_eq!(p.reachable_from(5, 3, 5), vec![2, 3, 4]);
        assert_eq!(p.reachable_from(10, 3, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seeded_partition_plans_are_deterministic_and_heal() {
        for seed in 0..64u64 {
            let a = PartitionPlan::seeded(seed, 4, 20);
            let b = PartitionPlan::seeded(seed, 4, 20);
            assert_eq!(a, b);
            assert!(!a.is_benign());
            assert!(!a.is_permanent(), "seed {seed}: proptest plans must heal");
            for e in &a.epochs {
                assert!(e.start < e.heal);
                let m = &e.blocks[0];
                assert!(!m.is_empty() && m.len() < 4, "nonempty proper subset");
            }
        }
        assert_ne!(
            PartitionPlan::seeded(1, 4, 20),
            PartitionPlan::seeded(2, 4, 20)
        );
    }

    #[test]
    fn corrupt_fates_carry_entropy_deterministically() {
        let plan = FaultPlan::corrupting(13, 1.0);
        let a: Vec<MessageFate> = {
            let mut i = plan.injector();
            (0..50).map(|_| i.fate()).collect()
        };
        let b: Vec<MessageFate> = {
            let mut i = plan.injector();
            (0..50).map(|_| i.fate()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|f| matches!(f, MessageFate::Corrupt(_))));
        // Entropy actually varies across messages.
        let distinct: std::collections::HashSet<u64> = a
            .iter()
            .map(|f| match f {
                MessageFate::Corrupt(e) => *e,
                _ => unreachable!(),
            })
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn delay_fates_bounded() {
        let plan = FaultPlan::delaying(5, 1.0, 4);
        let mut inj = plan.injector();
        for _ in 0..200 {
            match inj.fate() {
                MessageFate::Delay(d) => assert!((1..=4).contains(&d)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    /// What the MPC cluster looks up in a plan: crashes by attempt and
    /// slowdowns.
    #[test]
    fn mpc_plan_lookup() {
        let plan = FaultPlan::none(9)
            .with_crash(2, 1, CrashKind::Stop)
            .with_straggler(0, 3.0);
        assert!(plan.crashes_at(2, 1));
        assert!(!plan.crashes_at(2, 0));
        assert_eq!(plan.slowdown(0), 3.0);
        assert_eq!(plan.slowdown(1), 1.0);
    }

    /// Corruptions are looked up by (round, server), and their entropy is
    /// a pinned function of the seed and the slot.
    #[test]
    fn corruption_plan_lookup_and_entropy() {
        let plan = FaultPlan::none(9)
            .with_corruption(2, 1, CorruptKind::Mutate)
            .with_corruption(3, 0, CorruptKind::Drop);
        assert_eq!(plan.event_for(2, 1), Some(CorruptKind::Mutate));
        assert_eq!(plan.event_for(3, 0), Some(CorruptKind::Drop));
        assert_eq!(plan.event_for(2, 0), None);
        assert!(!plan.is_benign());
        assert!(FaultPlan::none(9).is_benign());
        assert_eq!(plan.entropy(2, 1), plan.entropy(2, 1));
        assert_ne!(plan.entropy(2, 1), plan.entropy(2, 0));
        assert_eq!(plan.entropy(2, 1), 658993071911236491);
        assert_eq!(plan.entropy(2, 0), 15292187587221989345);
    }

    #[test]
    fn each_field_names_the_substrate_that_enforces_it() {
        assert_eq!(FaultPlan::none(1).transducer_only(), None);
        assert_eq!(FaultPlan::none(1).mpc_only(), None);
        let lossy = FaultPlan::lossy(1, 0.1);
        assert_eq!(lossy.transducer_only(), Some("drop_prob"));
        let reliable = FaultPlan::none(1).with_retransmit(RetransmitPolicy::default());
        assert_eq!(reliable.transducer_only(), Some("retransmit"));
        let lying = FaultPlan::none(1).with_corruption(0, 0, CorruptKind::Inject);
        assert_eq!(lying.mpc_only(), Some("corruptions"));
        let backed_up = FaultPlan::none(1).with_speculation(SpeculationPolicy::default());
        assert_eq!(backed_up.mpc_only(), Some("speculation"));
        // Both substrates read crashes, stragglers and partitions.
        let shared = FaultPlan::crash_stop(1, 0, 3)
            .with_straggler(1, 2.0)
            .with_partition(PartitionPlan::split(0, 2, &[0]));
        assert_eq!((shared.transducer_only(), shared.mpc_only()), (None, None));
    }

    #[test]
    #[should_panic(expected = "cutoff below the median")]
    fn speculation_below_the_median_is_refused() {
        let _ = FaultPlan::none(1).with_speculation(SpeculationPolicy {
            threshold: 0.5,
            min_load: 2,
        });
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetransmitPolicy {
            max_retries: 8,
            backoff_base: 2,
            backoff_cap: 32,
            jitter_pct: 50,
        };
        for attempts in 0..10u32 {
            let a = policy.backoff(7, 0, 1, attempts);
            let b = policy.backoff(7, 0, 1, attempts);
            assert_eq!(a, b, "jitter must be deterministic");
            let exp = (2u64 << attempts.min(32)).clamp(1, 32) as usize;
            assert!(
                a >= 1 && a <= exp,
                "attempt {attempts}: {a} not in [1, {exp}]"
            );
            assert!(
                a >= exp - exp / 2,
                "attempt {attempts}: {a} below jitter floor"
            );
        }
        // Different (from, dest) pairs desynchronize under jitter.
        let spread: std::collections::HashSet<usize> =
            (0..32).map(|d| policy.backoff(7, 0, d, 4)).collect();
        assert!(spread.len() > 1, "jitter must actually spread releases");
    }

    #[test]
    fn fixed_policy_reproduces_plain_exponential_backoff() {
        let policy = RetransmitPolicy::fixed(4, 2);
        assert_eq!(policy.backoff(1, 0, 1, 0), 2);
        assert_eq!(policy.backoff(1, 0, 1, 2), 8);
        assert_eq!(
            policy.backoff(9, 5, 3, 2),
            8,
            "seed-independent when jitter-free"
        );
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        let policy = RetransmitPolicy {
            max_retries: 64,
            backoff_base: u32::MAX,
            backoff_cap: 100,
            jitter_pct: 0,
        };
        assert_eq!(policy.backoff(0, 0, 1, 60), 100, "huge shifts hit the cap");
    }

    #[test]
    fn plans_serialize() {
        let plan = FaultPlan::for_class(FaultClass::CrashRecover, 2)
            .with_retransmit(RetransmitPolicy::default())
            .with_corruption(1, 0, CorruptKind::Inject)
            .with_speculation(SpeculationPolicy::default());
        let mut out = String::new();
        serde::Serialize::json(&plan, &mut out);
        assert!(out.contains("\"drop_prob\""));
        assert!(out.contains("Recover"));
        assert!(out.contains("\"corruptions\"") && out.contains("Inject"));
        assert!(out.contains("\"speculation\""));
    }
}
