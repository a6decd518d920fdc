//! The supervision loop over the transducer substrate.
//!
//! [`supervise`] runs a [`SimRun`] through the substrate's own loop to
//! quiescence, [`SimRun::run_until_quiet`] — the loop a simulated
//! `parlog_transducer::run` runs with a no-op hook — and interleaves a
//! control plane in the hook it calls before every delivery choice:
//!
//! 1. **Probing.** Every `probe_every` virtual-clock ticks the
//!    supervisor pings every node; a live node's response is a heartbeat
//!    arrival for the [φ-accrual detector](crate::detector::PhiDetector)
//!    (responses are lost with the fault plan's drop probability, by a
//!    deterministic seeded roll — probes are as faulty as data traffic).
//! 2. **Suspicion → confirmation.** A node whose φ crosses the
//!    threshold is suspected. A confirm probe distinguishes slow from
//!    dead: a live node's answer clears the suspicion (counted as a
//!    *false suspicion*); silence from a down node converts it into a
//!    detection, with latency measured from the plan's crash step.
//! 3. **Heal.** A detected-dead node's durable shard is re-replicated to
//!    the live survivor with the smallest shard
//!    ([`SimRun::adopt_shard`]), within the configured heal allowance.
//!    Healing replays facts through set-semantics transition functions —
//!    it is idempotent and safe for the CALM (F0–F2) programs; counting
//!    barriers should not be healed this way (they refuse downstream
//!    instead).
//! 4. **Degrade.** If a dead node stays unhealed, the supervisor closes
//!    the run with a [`Degraded`] verdict: monotone queries get the
//!    sound partial answer plus a coverage [`Certificate`]; non-monotone
//!    queries are refused with a typed [`RefusalReason`].
//! 5. **Partition discipline.** φ sees only silence, and silence has two
//!    causes. Before confirming a suspect dead, the supervisor
//!    cross-checks the suspicion against the reachability matrix of the
//!    installed partition schedule ([`crate::partition`]): a suspect
//!    whose round trip to the monitor's home is severed is
//!    *unaccountable* — it may be alive on the other side, so its heal
//!    is fenced off (`SplitBrainAverted` when it is in fact alive) and
//!    its shard keeps its original owner. Confirmed heals are
//!    additionally **quorum-gated**: a monitor that cannot account for a
//!    strict majority of the cluster blocks (`QuorumLost`) instead of
//!    acting on a minority view.
//!
//! When the network quiesces while a crash is still undetected (or an
//! alive node is still unreachable), the supervisor keeps probing on its
//! own clock (`quiescent_probe_budget` extra rounds) — failure detection
//! must not depend on data traffic — and a heal made there puts the run
//! back into the loop, with the same delivery dice.

use crate::degrade::{Certificate, Degraded, QueryMode, RefusalReason};
use crate::detector::PhiDetector;
use crate::partition::{accounted_nodes, has_quorum, round_trip_open};
use parlog_faults::{mix64, FaultPlan};
use parlog_relal::instance::Instance;
use parlog_trace::{FaultEvent, FaultEventKind, TraceEvent, TraceHandle};
use parlog_transducer::faulty::FaultStats;
use parlog_transducer::program::TransducerProgram;
use parlog_transducer::scheduler::{RunCtx, RunMode, SimRun};

/// Tunables of the supervision loop.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SupervisorConfig {
    /// Suspect a node once its φ crosses this level.
    pub phi_threshold: f64,
    /// Probe cadence in virtual-clock ticks.
    pub probe_every: usize,
    /// Extra probe rounds after quiescence while undetected-down nodes
    /// remain — the detector's own clock keeps running when the data
    /// plane goes silent.
    pub quiescent_probe_budget: usize,
    /// Heals allowed per run (0 disables healing: every crash degrades).
    pub max_heals: usize,
    /// Abandon a heal when detection came later than this many ticks
    /// after the crash — the answer would be too stale to certify fresh.
    pub heal_deadline: usize,
    /// The node the monitor is co-located with: reachability (and hence
    /// quorum) is judged from this vantage point, so a monitor homed in
    /// the minority block of a split correctly loses quorum.
    pub monitor_home: usize,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            phi_threshold: 2.0,
            probe_every: 8,
            quiescent_probe_budget: 64,
            max_heals: usize::MAX,
            heal_deadline: usize::MAX,
            monitor_home: 0,
        }
    }
}

/// One confirmed failure detection.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Detection {
    /// The dead node.
    pub node: usize,
    /// Clock of the plan's crash event.
    pub crashed_at: usize,
    /// Monitor clock at which φ crossed the threshold.
    pub detected_at: usize,
    /// `detected_at − crashed_at`.
    pub latency: usize,
    /// Whether the node's shard was re-replicated.
    pub healed: bool,
    /// The adopting survivor, when healed.
    pub healed_to: Option<usize>,
    /// Facts the survivor adopted (the heal's extra load).
    pub heal_load: usize,
}

/// What the supervisor observed and did during one run.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct SupervisorReport {
    /// Probe rounds issued.
    pub probes: usize,
    /// Heartbeat responses received.
    pub heartbeats_observed: usize,
    /// Responses lost to the fault plan's message loss.
    pub heartbeats_lost: usize,
    /// Responses held behind a severed partition link (parked, not
    /// lost — they flush on heal, but the monitor is deaf until then).
    pub heartbeats_held: usize,
    /// Times any node's φ crossed the threshold.
    pub suspicions: usize,
    /// Suspicions cleared by a confirm probe (the node was alive).
    pub false_suspicions: usize,
    /// Suspects whose silence the partition explained: the heal was
    /// fenced off while the node was in fact alive on the other side.
    pub split_brain_averted: usize,
    /// Confirmed-dead nodes whose heal was blocked because the monitor
    /// could not account for a strict majority of the cluster.
    pub quorum_losses: usize,
    /// Confirmed failures, in detection order.
    pub detections: Vec<Detection>,
    /// Shards re-replicated.
    pub heals: usize,
    /// Total facts adopted across heals.
    pub heal_load: usize,
    /// Dead nodes left unhealed (these drive degradation).
    pub unhealed: Vec<usize>,
    /// Shard-ownership registry: `owners[i]` is the node currently
    /// owning node `i`'s durable shard. Identity until a heal reassigns
    /// an entry — a fenced (partitioned-but-alive) node's entry is never
    /// touched, so each shard has exactly one owner at all times.
    pub owners: Vec<usize>,
    /// Monitor clock when the run closed.
    pub final_clock: usize,
}

impl SupervisorReport {
    /// Mean detection latency over confirmed detections.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        if self.detections.is_empty() {
            return None;
        }
        let sum: usize = self.detections.iter().map(|d| d.latency).sum();
        Some(sum as f64 / self.detections.len() as f64)
    }

    /// False suspicions per probe round (0.0 for a quiet run).
    pub fn false_positive_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.false_suspicions as f64 / self.probes as f64
        }
    }
}

/// The outcome of a supervised run.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The answer, exact / certified-partial / refused.
    pub verdict: Degraded,
    /// The control plane's log.
    pub report: SupervisorReport,
    /// The data plane's fault tally.
    pub fault_stats: FaultStats,
}

/// Deterministic per-probe loss roll: a probe response from `node` on
/// round `probe_idx` is lost with the plan's drop probability, keyed so
/// replays reproduce the exact probe history.
fn probe_lost(plan: &FaultPlan, node: usize, probe_idx: usize) -> bool {
    if plan.drop_prob <= 0.0 {
        return false;
    }
    let key = mix64(plan.seed ^ mix64(0x9ea7_bea7 ^ ((node as u64) << 24) ^ probe_idx as u64));
    (key as f64 / u64::MAX as f64) < plan.drop_prob
}

struct Monitor<'a> {
    det: PhiDetector,
    config: &'a SupervisorConfig,
    plan: &'a FaultPlan,
    report: SupervisorReport,
    healed: Vec<bool>,
    /// Nodes whose suspicion the partition currently explains: their
    /// heal is fenced off until the round trip reopens.
    fenced: Vec<bool>,
    probe_idx: usize,
    now: usize,
    trace: &'a TraceHandle,
}

impl Monitor<'_> {
    /// Record a control-plane decision about `node` at the monitor clock.
    fn event(&self, kind: FaultEventKind, node: usize, info: u64) {
        let vclock = self.now as f64;
        let event = FaultEvent {
            vclock,
            kind,
            node,
            info,
        };
        self.trace.record(TraceEvent::Fault(event));
    }

    /// One probe round at monitor clock `self.now`: record responses,
    /// then evaluate and act on suspicions. Returns whether a heal
    /// produced new in-flight work.
    fn probe_and_act<P: TransducerProgram + ?Sized>(
        &mut self,
        program: &P,
        run: &mut SimRun,
    ) -> bool {
        let n = run.n();
        let home = self.config.monitor_home;
        let pp = self.plan.partition.as_ref();
        self.report.probes += 1;
        for node in 0..n {
            if !run.health(node).is_up() {
                continue; // a down node cannot answer
            }
            if !round_trip_open(pp, self.now, home, node, n) {
                // The response is parked behind the severed link — it
                // flushes on heal, but the monitor is deaf until then.
                self.report.heartbeats_held += 1;
                continue;
            }
            self.fenced[node] = false; // round trip open again: resume
            if probe_lost(self.plan, node, self.probe_idx) {
                self.report.heartbeats_lost += 1;
            } else {
                self.report.heartbeats_observed += 1;
                self.det.arrival(node, self.now);
            }
        }
        self.probe_idx += 1;
        let mut did_heal = false;
        for s in self.det.suspects(self.now) {
            self.report.suspicions += 1;
            self.event(
                FaultEventKind::Suspect,
                s,
                (self.det.phi(s, self.now) * 1000.0) as u64,
            );
            if !round_trip_open(pp, self.now, home, s, n) {
                // The partition explains the silence: the suspect may be
                // alive on the other side, and re-replicating its shard
                // would leave it owned twice after the heal. Fence the
                // heal; the cleared detector retries once the round trip
                // reopens.
                if !self.fenced[s] && run.health(s).is_up() {
                    self.report.split_brain_averted += 1;
                    self.event(
                        FaultEventKind::SplitBrainAverted,
                        s,
                        run.shard(s).len() as u64,
                    );
                }
                self.fenced[s] = true;
                self.det.clear(s, self.now);
                continue;
            }
            if run.health(s).is_up() {
                // Confirm probe answered: slow, not dead.
                self.report.false_suspicions += 1;
                self.det.clear(s, self.now);
                self.event(FaultEventKind::FalseSuspicion, s, 0);
                continue;
            }
            self.det.mark_dead(s);
            let crashed_at = self
                .plan
                .crashes
                .iter()
                .filter(|c| c.node == s)
                .map(|c| c.at_step)
                .min()
                .unwrap_or(self.now);
            let latency = self.now.saturating_sub(crashed_at);
            self.event(FaultEventKind::ConfirmDead, s, latency as u64);
            let quorum_ok = has_quorum(pp, self.now, home, n);
            if !quorum_ok {
                // The monitor's own side cannot account for a strict
                // majority — it may be the minority of a split, so it
                // blocks the heal instead of diverging.
                self.report.quorum_losses += 1;
                let accounted = accounted_nodes(pp, self.now, home, n).len();
                self.event(FaultEventKind::QuorumLost, s, accounted as u64);
            }
            let may_heal = quorum_ok
                && self.report.heals < self.config.max_heals
                && latency <= self.config.heal_deadline;
            let survivor = run
                .live_nodes()
                .into_iter()
                .filter(|&i| i != s && round_trip_open(pp, self.now, home, i, n))
                .min_by_key(|&i| run.shard(i).len())
                .filter(|_| may_heal);
            let heal = survivor.map(|to| (to, run.adopt_shard(program, s, to)));
            if let Some((to, load)) = heal {
                self.report.heals += 1;
                self.report.heal_load += load;
                self.healed[s] = true;
                self.report.owners[s] = to;
                did_heal = true;
            }
            self.report.detections.push(Detection {
                node: s,
                crashed_at,
                detected_at: self.now,
                latency,
                healed: heal.is_some(),
                healed_to: survivor,
                heal_load: heal.map_or(0, |(_, load)| load),
            });
        }
        did_heal
    }

    /// Probing on the monitor's own clock once the data plane is
    /// quiescent, up to `quiescent_probe_budget` rounds, while down nodes
    /// remain undetected — a crash that silences the network must still
    /// be noticed — or alive nodes are still unreachable and not yet
    /// fenced, so a split that opened late is still classified before
    /// close-out. Returns whether a heal put new work in flight.
    fn probe_quiescent<P: TransducerProgram + ?Sized>(
        &mut self,
        program: &P,
        run: &mut SimRun,
    ) -> bool {
        let (n, pp) = (run.n(), self.plan.partition.as_ref());
        for _ in 0..self.config.quiescent_probe_budget {
            let unresolved = (0..n).any(|i| {
                let up = run.health(i).is_up();
                let undetected_down = !up && !self.det.is_dead(i);
                let unreached = pp.is_some()
                    && up
                    && !round_trip_open(pp, self.now, self.config.monitor_home, i, n);
                (undetected_down || unreached) && !self.fenced[i]
            });
            if !unresolved {
                return false;
            }
            self.now += self.config.probe_every;
            if self.probe_and_act(program, run) {
                return true;
            }
        }
        false
    }
}

/// Run `program` to quiescence as the simulated run `rc` describes (no
/// plan: fault-free) with the full supervisor stack active; see the
/// module docs for the loop's four duties. Panics unless `rc.mode` is
/// [`RunMode::Simulated`]: the probes run on the simulator's clock.
///
/// `mode` states whether the query the program computes is monotone —
/// it decides the degradation contract when a crash cannot be healed.
///
/// The data plane's message-level counters and crash/recovery/heal
/// events flow to `rc.trace` through the scheduler, and the control
/// plane adds its own decision timeline — `Suspect` (info = φ·1000),
/// `FalseSuspicion`, `ConfirmDead` (info = detection latency) and, at
/// close-out, one `Degrade` or `Refuse` per unhealed node (info = lost
/// shard size). `TraceHandle::off()` reproduces the untraced run exactly.
pub fn supervise<P: TransducerProgram + ?Sized>(
    program: &P,
    shards: &[Instance],
    rc: &RunCtx<'_>,
    mode: QueryMode,
    config: &SupervisorConfig,
) -> SupervisedRun {
    let RunMode::Simulated(schedule) = rc.mode else {
        panic!("supervision probes on the simulator's clock: it needs a simulated run");
    };
    let fault_free = FaultPlan::none(0);
    let (plan, trace) = (rc.faults.unwrap_or(&fault_free), &rc.trace);
    let mut run = SimRun::new(program, shards, rc);
    let (mut rng, mut rr) = (schedule.rng(), 0);
    let n = run.n();
    let mut mon = Monitor {
        det: PhiDetector::new(n, config.phi_threshold, config.probe_every),
        config,
        plan,
        report: SupervisorReport::default(),
        healed: vec![false; n],
        fenced: vec![false; n],
        probe_idx: 0,
        now: 0,
        trace,
    };
    mon.report.owners = (0..n).collect();
    if plan.partition.is_some() {
        // Count cluster formation as the zeroth heartbeat: a node
        // severed before it ever answered a probe must still accrue
        // suspicion, or the partition would render it invisible.
        for i in 0..n {
            mon.det.arrival(i, 0);
        }
    }
    let mut next_probe = 0usize;
    loop {
        run.run_until_quiet(program, schedule, &mut rng, &mut rr, |run| {
            if run.clock() >= next_probe {
                mon.now = mon.now.max(run.clock());
                mon.probe_and_act(program, run);
                next_probe = run.clock() + config.probe_every;
            }
        });
        if !mon.probe_quiescent(program, &mut run) {
            break;
        }
        next_probe = run.clock() + config.probe_every;
    }
    mon.report.final_clock = mon.now.max(run.clock());
    mon.report.unhealed = (0..n)
        .filter(|&i| !run.health(i).is_up() && !mon.healed[i])
        .collect();
    let verdict = close_out(&run, shards, mode, &mon.report, plan, config, trace);
    SupervisedRun {
        verdict,
        report: mon.report,
        fault_stats: run.fault_stats(),
    }
}

/// Issue the final verdict from the run's outputs, the unhealed set,
/// and the network state at close.
fn close_out(
    run: &SimRun,
    shards: &[Instance],
    mode: QueryMode,
    report: &SupervisorReport,
    plan: &FaultPlan,
    config: &SupervisorConfig,
    trace: &TraceHandle,
) -> Degraded {
    let n = shards.len();
    let home = config.monitor_home;
    let pp = plan.partition.as_ref();
    let fc = report.final_clock;
    let open_epochs: Vec<usize> = pp.map(|p| p.open_at(fc)).unwrap_or_default();
    // Alive nodes the monitor cannot round-trip to at close: severed,
    // not lost — their held traffic flushes if the epoch ever heals, but
    // right now the answer cannot draw on them.
    let mut cut: Vec<usize> = (0..n)
        .filter(|&i| {
            run.health(i).is_up()
                && !report.unhealed.contains(&i)
                && !round_trip_open(pp, fc, home, i, n)
        })
        .collect();
    let held = run.held_by_partition();
    if cut.is_empty() && held > 0 {
        // One-way epochs can park copies without cutting any round trip
        // (a relay path keeps probes flowing). Name the severed-link
        // endpoints instead, so the certificate never over-claims.
        if let Some(p) = pp {
            cut = (0..n)
                .filter(|&i| {
                    i != home
                        && run.health(i).is_up()
                        && !report.unhealed.contains(&i)
                        && (0..n)
                            .any(|j| p.severed(fc, i, j).is_some() || p.severed(fc, j, i).is_some())
                })
                .collect();
        }
    }
    if report.unhealed.is_empty() && cut.is_empty() && held == 0 {
        return Degraded::Exact(run.outputs());
    }
    let close_kind = if mode.degradable() {
        FaultEventKind::Degrade
    } else {
        FaultEventKind::Refuse
    };
    for &node in report.unhealed.iter().chain(cut.iter()) {
        trace.emit(|| {
            TraceEvent::Fault(FaultEvent {
                vclock: fc as f64,
                kind: close_kind,
                node,
                info: shards[node].len() as u64,
            })
        });
    }
    let total: usize = shards.iter().map(Instance::len).sum();
    let mut missing_nodes: Vec<usize> = report.unhealed.iter().chain(cut.iter()).copied().collect();
    missing_nodes.sort_unstable();
    missing_nodes.dedup();
    let missing_facts: usize = missing_nodes.iter().map(|&i| shards[i].len()).sum();
    let covered_nodes: Vec<usize> = (0..n).filter(|i| !missing_nodes.contains(i)).collect();
    let certificate = Certificate::for_loss(missing_nodes, missing_facts, total, fc)
        .with_covered(covered_nodes)
        .with_open_epochs(open_epochs.clone());
    debug_assert!(certificate.validate(total).is_ok());
    if mode.degradable() {
        Degraded::Partial {
            answer: run.outputs(),
            certificate,
        }
    } else {
        let accounted = accounted_nodes(pp, fc, home, n).len();
        let reason = if 2 * accounted <= n {
            RefusalReason::QuorumLost {
                accounted,
                total: n,
            }
        } else if !open_epochs.is_empty() && !cut.is_empty() {
            RefusalReason::PartitionOpen {
                epochs: open_epochs,
                unreachable: cut,
            }
        } else {
            RefusalReason::NonMonotoneLoss {
                missing_nodes: certificate.missing_nodes.clone(),
                coverage: certificate.coverage,
            }
        };
        Degraded::Refused {
            reason,
            certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::eval::eval_query;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;
    use parlog_transducer::distribution::hash_distribution;
    use parlog_transducer::prelude::{CoordinatedBroadcast, MonotoneBroadcast};
    use parlog_transducer::program::Ctx;
    use parlog_transducer::scheduler::Schedule;

    fn setup() -> (MonotoneBroadcast, Vec<Instance>, Instance) {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let expected = eval_query(&q, &db);
        let shards = hash_distribution(&db, 4, 3);
        (MonotoneBroadcast::new(q), shards, expected)
    }

    #[test]
    fn fault_free_supervised_run_is_exact_and_unsuspicious() {
        let (p, shards, expected) = setup();
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(7))
                .with_faults(&FaultPlan::none(7)),
            QueryMode::Monotone,
            &SupervisorConfig::default(),
        );
        assert!(out.verdict.is_exact());
        assert_eq!(out.verdict.answer().unwrap(), &expected);
        assert_eq!(out.report.suspicions, 0, "no fault, no suspicion");
        assert_eq!(out.report.false_suspicions, 0);
        assert!(out.report.probes > 0, "the control plane did run");
        assert!(out.report.detections.is_empty());
    }

    #[test]
    fn crash_stop_is_detected_and_healed_to_the_exact_answer() {
        let (p, shards, expected) = setup();
        let plan = FaultPlan::crash_stop(2, 0, 6);
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(2)).with_faults(&plan),
            QueryMode::Monotone,
            &SupervisorConfig::default(),
        );
        assert!(out.verdict.is_exact(), "heal must restore full coverage");
        assert_eq!(out.verdict.answer().unwrap(), &expected);
        assert_eq!(out.report.heals, 1);
        assert_eq!(out.report.detections.len(), 1);
        let d = &out.report.detections[0];
        assert_eq!(d.node, 0);
        assert_eq!(d.crashed_at, 6);
        assert!(d.healed && d.healed_to.is_some() && d.healed_to != Some(0));
        assert_eq!(d.heal_load, shards[0].len());
        assert!(
            d.latency > 0 && d.latency < 40 * 8,
            "latency {} out of range",
            d.latency
        );
        assert!(out.report.unhealed.is_empty());
    }

    #[test]
    fn unhealable_monotone_crash_degrades_to_a_certified_subset() {
        let (p, shards, expected) = setup();
        let plan = FaultPlan::crash_stop(2, 0, 6);
        let config = SupervisorConfig {
            max_heals: 0, // heal budget spent: recovery impossible
            ..SupervisorConfig::default()
        };
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(2)).with_faults(&plan),
            QueryMode::Monotone,
            &config,
        );
        let Degraded::Partial {
            answer,
            certificate,
        } = &out.verdict
        else {
            panic!("expected a certified partial answer, got {:?}", out.verdict);
        };
        assert!(answer.is_subset_of(&expected), "partial answers stay sound");
        assert_ne!(answer, &expected, "the lost shard must cost derivations");
        assert_eq!(certificate.missing_nodes, vec![0]);
        assert_eq!(certificate.missing_facts, shards[0].len());
        assert!(certificate.coverage < 1.0 && certificate.coverage > 0.0);
        assert_eq!(out.report.unhealed, vec![0]);
    }

    #[test]
    fn unhealable_nonmonotone_crash_refuses_with_a_reason() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let db = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
        ]);
        let shards = hash_distribution(&db, 3, 2);
        let p = CoordinatedBroadcast::idempotent(q.clone());
        let plan = FaultPlan::crash_stop(1, 1, 4);
        let config = SupervisorConfig {
            max_heals: 0,
            ..SupervisorConfig::default()
        };
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::aware(3), Schedule::Random(1)).with_faults(&plan),
            QueryMode::of(&q),
            &config,
        );
        let Degraded::Refused {
            reason,
            certificate,
        } = &out.verdict
        else {
            panic!("non-monotone + unhealed must refuse, got {:?}", out.verdict);
        };
        assert!(matches!(reason, RefusalReason::NonMonotoneLoss { .. }));
        assert!(reason.to_string().contains("non-monotone"));
        assert_eq!(certificate.missing_nodes, vec![1]);
        assert!(out.verdict.answer().is_none(), "no answer is surfaced");
    }

    #[test]
    fn partitioned_alive_node_is_fenced_never_healed() {
        use parlog_faults::PartitionPlan;
        use parlog_trace::MemSink;
        use std::sync::Arc;

        // Node 3 is alive but cut off forever. A naive supervisor would
        // confirm it dead and re-replicate its shard — split-brain. Ours
        // must fence the heal and degrade instead.
        let (p, shards, expected) = setup();
        let plan = FaultPlan::partitioned(5, PartitionPlan::permanent_split(0, &[3]));
        let sink = Arc::new(MemSink::new());
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(5))
                .with_faults(&plan)
                .with_trace(TraceHandle::to(sink.clone())),
            QueryMode::Monotone,
            &SupervisorConfig::default(),
        );
        assert_eq!(
            out.report.heals, 0,
            "a live shard must never be re-replicated"
        );
        assert!(
            out.report.split_brain_averted > 0,
            "the fence must be exercised"
        );
        assert_eq!(
            out.report.owners,
            vec![0, 1, 2, 3],
            "ownership unchanged: exactly one owner per shard"
        );
        assert!(
            out.report.heartbeats_held > 0,
            "probes were parked, not dropped"
        );
        assert!(
            out.fault_stats.partitioned > 0,
            "the split bit the data plane too"
        );
        let timeline = sink.timeline();
        assert!(timeline
            .iter()
            .any(|e| e.kind == FaultEventKind::SplitBrainAverted && e.node == 3));
        assert!(
            !timeline.iter().any(|e| e.kind == FaultEventKind::Heal),
            "no heal may fire: {timeline:?}"
        );
        // Monotone: a sound partial answer with a partition-scoped
        // certificate naming the severed shard and the open epoch.
        let Degraded::Partial {
            answer,
            certificate,
        } = &out.verdict
        else {
            panic!("expected a certified partial answer, got {:?}", out.verdict);
        };
        assert!(answer.is_subset_of(&expected), "partial answers stay sound");
        assert_ne!(answer, &expected, "severed traffic must cost derivations");
        assert_eq!(certificate.missing_nodes, vec![3]);
        assert_eq!(certificate.covered_nodes, vec![0, 1, 2]);
        assert_eq!(certificate.open_epochs, vec![0]);
        let total: usize = shards.iter().map(Instance::len).sum();
        assert!(certificate.validate(total).is_ok());
        assert!(!certificate.is_full_coverage(total));
    }

    #[test]
    fn healing_partition_supervises_to_the_exact_answer() {
        use parlog_faults::PartitionPlan;

        // The same split, but it heals: held traffic flushes, the fenced
        // node rejoins, and the verdict is exact — no heal ever fired.
        let (p, shards, expected) = setup();
        let plan = FaultPlan::partitioned(5, PartitionPlan::split(0, 40, &[3]));
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(5)).with_faults(&plan),
            QueryMode::Monotone,
            &SupervisorConfig::default(),
        );
        assert!(
            out.verdict.is_exact(),
            "heal + flush must restore exactness"
        );
        assert_eq!(out.verdict.answer().unwrap(), &expected);
        assert_eq!(
            out.report.heals, 0,
            "the network healed itself; no shard moved"
        );
        assert_eq!(out.report.owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn crash_on_the_majority_side_heals_while_the_split_stays_fenced() {
        use parlog_faults::PartitionPlan;

        // Node 1 crashes on the monitor's (majority) side while node 3
        // is partitioned-alive: the crash is healed to a *reachable*
        // survivor, the severed shard keeps its original owner.
        let (p, shards, _) = setup();
        let plan =
            FaultPlan::crash_stop(2, 1, 6).with_partition(PartitionPlan::permanent_split(0, &[3]));
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(2)).with_faults(&plan),
            QueryMode::Monotone,
            &SupervisorConfig::default(),
        );
        assert_eq!(out.report.heals, 1);
        let d = &out.report.detections[0];
        assert_eq!(d.node, 1);
        let to = d.healed_to.expect("the crash must heal");
        assert!(
            to == 0 || to == 2,
            "the adopter must be a reachable survivor, not the severed node, got {to}"
        );
        assert_eq!(out.report.owners[1], to);
        assert_eq!(out.report.owners[3], 3, "the fenced shard keeps its owner");
        // Exactly one owner per shard, and nobody owns the severed one
        // but its original holder.
        assert_eq!(out.report.owners.len(), 4);
        assert_eq!(
            out.report.owners.iter().filter(|&&o| o == 3).count(),
            1,
            "node 3 owns exactly its own shard"
        );
    }

    #[test]
    fn minority_monitor_blocks_heals_and_refuses_with_quorum_lost() {
        use parlog_faults::PartitionPlan;

        // The monitor is homed at node 3, inside the 2-of-4 minority
        // block. Node 2 — same side, reachable — crashes. The monitor
        // confirms the death but cannot act: 2 accounted of 4 is no
        // majority, so the heal blocks and the non-monotone close-out
        // refuses with the typed quorum reason.
        let (p, shards, _) = setup();
        let plan = FaultPlan::crash_stop(9, 2, 4)
            .with_partition(PartitionPlan::permanent_split(0, &[2, 3]));
        let config = SupervisorConfig {
            monitor_home: 3,
            ..SupervisorConfig::default()
        };
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(9)).with_faults(&plan),
            QueryMode::NonMonotone,
            &config,
        );
        assert!(out.report.quorum_losses > 0, "the gate must have fired");
        assert_eq!(out.report.heals, 0, "a minority must not act");
        assert_eq!(out.report.owners, vec![0, 1, 2, 3]);
        let Degraded::Refused {
            reason,
            certificate,
        } = &out.verdict
        else {
            panic!(
                "minority non-monotone close must refuse, got {:?}",
                out.verdict
            );
        };
        assert_eq!(
            *reason,
            RefusalReason::QuorumLost {
                accounted: 2,
                total: 4
            }
        );
        assert!(reason.to_string().contains("blocking"));
        assert!(!certificate.open_epochs.is_empty());
    }

    #[test]
    fn traced_supervision_emits_the_suspect_confirm_heal_timeline() {
        use parlog_trace::MemSink;
        use std::sync::Arc;

        let (p, shards, expected) = setup();
        let plan = FaultPlan::crash_stop(2, 0, 6);
        let run_traced = || {
            let sink = Arc::new(MemSink::new());
            let out = supervise(
                &p,
                &shards,
                &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(2))
                    .with_faults(&plan)
                    .with_trace(TraceHandle::to(sink.clone())),
                QueryMode::Monotone,
                &SupervisorConfig::default(),
            );
            (out, sink)
        };
        let (out, sink) = run_traced();
        assert!(out.verdict.is_exact());
        assert_eq!(out.verdict.answer().unwrap(), &expected);
        let timeline = sink.timeline();
        let pos = |kind: FaultEventKind| {
            timeline
                .iter()
                .position(|e| e.kind == kind && e.node == 0)
                .unwrap_or_else(|| panic!("{kind:?} for node 0 missing from {timeline:?}"))
        };
        let (crash, suspect, confirm, heal) = (
            pos(FaultEventKind::Crash),
            pos(FaultEventKind::Suspect),
            pos(FaultEventKind::ConfirmDead),
            pos(FaultEventKind::Heal),
        );
        assert!(
            crash < suspect && suspect < confirm && confirm < heal,
            "lifecycle order crash→suspect→confirm→heal violated: {timeline:?}"
        );
        let confirm_ev = &timeline[confirm];
        assert_eq!(
            confirm_ev.info, out.report.detections[0].latency as u64,
            "ConfirmDead carries the detection latency"
        );
        // The control-plane decisions ride the same deterministic clock
        // as everything else: a rerun produces byte-identical JSON.
        let (_, sink2) = run_traced();
        assert_eq!(
            serde_json::to_string(&sink.report()).unwrap(),
            serde_json::to_string(&sink2.report()).unwrap()
        );
        // And the data plane's own books agree with the sink's counters.
        let ours = sink.comm();
        let theirs = out.fault_stats.as_comm_counters();
        assert_eq!(ours.dropped, theirs.dropped);
        assert_eq!(ours.retransmitted, theirs.retransmitted);
        assert_eq!(ours.acks, theirs.acks);
    }

    #[test]
    fn unhealable_traced_crash_emits_a_degrade_event() {
        use parlog_trace::MemSink;
        use std::sync::Arc;

        let (p, shards, _) = setup();
        let sink = Arc::new(MemSink::new());
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(2))
                .with_faults(&FaultPlan::crash_stop(2, 0, 6))
                .with_trace(TraceHandle::to(sink.clone())),
            QueryMode::Monotone,
            &SupervisorConfig {
                max_heals: 0,
                ..SupervisorConfig::default()
            },
        );
        assert!(matches!(out.verdict, Degraded::Partial { .. }));
        let timeline = sink.timeline();
        let degrade = timeline
            .iter()
            .find(|e| e.kind == FaultEventKind::Degrade)
            .expect("unhealed node must be recorded as degraded");
        assert_eq!(degrade.node, 0);
        assert_eq!(degrade.info, shards[0].len() as u64);
        assert!(
            !timeline.iter().any(|e| e.kind == FaultEventKind::Heal),
            "no heal was allowed"
        );
    }

    #[test]
    fn supervision_is_deterministic() {
        let (p, shards, _) = setup();
        let run_once = || {
            let out = supervise(
                &p,
                &shards,
                &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(3))
                    .with_faults(&FaultPlan::lossy(3, 0.3).with_retransmit(Default::default())),
                QueryMode::Monotone,
                &SupervisorConfig::default(),
            );
            (
                out.verdict.answer().cloned(),
                out.report.probes,
                out.report.suspicions,
                out.fault_stats,
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn supervised_timelines_are_pinned() {
        use parlog_faults::PartitionPlan;
        use parlog_trace::MemSink;
        use std::sync::Arc;

        // A crash-stop that is detected and healed, and a split that heals
        // by itself: the exact event sequence of each supervised run.
        let (p, shards, _) = setup();
        let timeline = |plan: &FaultPlan, seed| {
            let sink = Arc::new(MemSink::new());
            supervise(
                &p,
                &shards,
                &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed))
                    .with_faults(plan)
                    .with_trace(TraceHandle::to(sink.clone())),
                QueryMode::Monotone,
                &SupervisorConfig::default(),
            );
            let tl = sink.timeline();
            tl.iter()
                .map(|e| (e.kind, e.node, e.info, e.vclock))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            timeline(&FaultPlan::crash_stop(2, 0, 6), 2),
            vec![
                (FaultEventKind::Crash, 0, 29, 6.0),
                (FaultEventKind::Suspect, 0, 2171, 40.0),
                (FaultEventKind::ConfirmDead, 0, 34, 40.0),
                (FaultEventKind::Heal, 0, 5, 31.0),
            ]
        );
        let split = FaultPlan::partitioned(5, PartitionPlan::split(0, 40, &[3]));
        assert_eq!(
            timeline(&split, 5),
            vec![
                (FaultEventKind::PartitionStart, 0, 40, 0.0),
                (FaultEventKind::PartitionHeal, 0, 24, 40.0),
            ]
        );
    }
}
