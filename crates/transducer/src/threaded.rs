//! A true-multithreaded runtime for transducer programs, built on
//! crossbeam channels — one OS thread per node, unbounded channels as the
//! message buffers, OS scheduling as the source of asynchrony.
//!
//! The simulator in [`crate::scheduler`] samples schedules reproducibly;
//! this runtime cross-validates it against real concurrency: for programs
//! computing a query, both must produce the same output (and they do —
//! see the tests and the `transducer` bench).
//!
//! Termination uses a global in-flight counter: a sender increments it
//! before sending; a receiver decrements after processing. When the
//! counter is zero and a node's channel is empty, no further message can
//! ever arrive for it (nodes only send while processing), so it may stop.

use crate::faulty::{corrupt_in_transit, refuse_mpc_only, FaultStats};
use crate::network::NodeState;
use crate::program::{Ctx, TransducerProgram};
use crate::scheduler::{RunCtx, RunOutcome};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use parlog_faults::{FaultInjector, MessageFate};
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::{fxset, FxSet};
use parlog_relal::instance::Instance;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The threaded arm of [`crate::run`]: one scoped thread per node until
/// global quiescence. Message faults roll their fate per copy on a shared
/// seeded injector at send time; reordering and delay need none — OS
/// scheduling supplies both. Straggler entries *are* honored:
/// a slowed node sleeps proportionally to `slowdown − 1` for every
/// message it processes (tallied in `straggler_stalls`), stretching real
/// tail latency without changing what is computed — the scenario the
/// supervisor's speculative re-execution targets.
///
/// **Limitation:** quiescence detection assumes heartbeats do not
/// broadcast once a node's queue is idle — a node exits when the global
/// in-flight counter is zero, its channel is empty and its own heartbeat
/// is silent, so a *message-producing* heartbeat on another node could
/// still address it afterwards. All programs in this crate have
/// message-free heartbeats; for heartbeat-broadcasting programs use the
/// simulator ([`crate::scheduler`]), whose quiescence check is global.
///
/// # Panics
/// Panics with a trace (the OS's interleaving is no replayable
/// timeline), on a plan with crashes, `retransmit` or a partition (they
/// need the simulator's clock), or with `corruptions` or `speculation`
/// (faults of MPC rounds).
pub(crate) fn run_threaded<P>(program: &P, shards: &[Instance], rc: &RunCtx<'_>) -> RunOutcome
where
    P: TransducerProgram + ?Sized,
{
    assert!(!shards.is_empty(), "a network needs at least one node");
    if program.requires_all() {
        assert!(rc.ctx.all.is_some(), "program requires the All relation");
    }
    assert!(
        !rc.trace.is_on(),
        "the threaded runtime keeps no trace: its interleaving is the OS's, \
         not a replayable timeline; trace a simulated run"
    );
    let plan = rc.faults;
    if let Some(p) = plan {
        refuse_mpc_only(p);
        assert!(
            p.crashes.is_empty() && p.retransmit.is_none() && p.partition.is_none(),
            "the threaded runtime injects message faults only; crash, \
             retransmit and partition plans need the simulator (partition \
             epochs are timed against its virtual clock)"
        );
    }
    let (senders, receivers): (Vec<_>, Vec<_>) = shards.iter().map(|_| unbounded()).unzip();
    let net = Network {
        ctx: &rc.ctx,
        injector: Mutex::new(plan.map(|p| p.injector())),
        stats: Mutex::new(FaultStats::default()),
        in_flight: AtomicUsize::new(0),
        delivered: AtomicUsize::new(0),
        facts_broadcast: AtomicUsize::new(0),
        senders,
    };
    let mut output = Instance::new();
    std::thread::scope(|scope| {
        let nodes: Vec<_> = (shards.iter().zip(&receivers).enumerate())
            .map(|(id, (shard, receiver))| {
                let slowdown = plan.map_or(1.0, |p| p.slowdown(id));
                let net = &net;
                scope.spawn(move || net.node(program, id, shard, receiver, slowdown))
            })
            .collect();
        for node in nodes {
            output.extend_from(&node.join().expect("node thread panicked"));
        }
    });
    let delivered = net.delivered.into_inner();
    RunOutcome {
        output,
        stats: net.stats.into_inner(),
        delivered,
        facts_broadcast: net.facts_broadcast.into_inner(),
        clock: delivered,
    }
}

/// What the node threads share: channels, injector and tallies.
struct Network<'a> {
    ctx: &'a Ctx,
    injector: Mutex<Option<FaultInjector>>,
    stats: Mutex<FaultStats>,
    /// Copies sent and not yet processed.
    in_flight: AtomicUsize,
    delivered: AtomicUsize,
    facts_broadcast: AtomicUsize,
    senders: Vec<Sender<(usize, Fact)>>,
}

impl Network<'_> {
    /// Node `id`'s thread: `init`, then messages until global quiescence.
    fn node<P: TransducerProgram + ?Sized>(
        &self,
        program: &P,
        id: usize,
        shard: &Instance,
        receiver: &Receiver<(usize, Fact)>,
        slowdown: f64,
    ) -> Instance {
        let mut node = NodeState::new(id, shard.clone());
        let mut sent: FxSet<Fact> = fxset();
        self.broadcast(id, program.init(&mut node, self.ctx), &mut sent);
        loop {
            match receiver.recv_timeout(Duration::from_millis(2)) {
                Ok((from, fact)) => {
                    if slowdown > 1.0 {
                        // A straggler stalls per message: real wall-clock
                        // tail latency, same computed answer.
                        std::thread::sleep(Duration::from_micros(((slowdown - 1.0) * 50.0) as u64));
                        self.stats.lock().straggler_stalls += 1;
                    }
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                    let out = program.on_fact(&mut node, from, &fact, self.ctx);
                    self.broadcast(id, out, &mut sent);
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                Err(_) => {
                    // Quiescent? No in-flight messages can appear once
                    // the counter is zero and all channels are idle.
                    if self.in_flight.load(Ordering::SeqCst) == 0 && receiver.is_empty() {
                        let hb = program.heartbeat(&mut node, self.ctx);
                        if hb.is_empty() {
                            break;
                        }
                        self.broadcast(id, hb, &mut sent);
                    }
                }
            }
        }
        node.output_so_far().clone()
    }

    /// Send each fact of `facts` not yet in `sent` to every other node.
    fn broadcast(&self, id: usize, facts: Vec<Fact>, sent: &mut FxSet<Fact>) {
        for f in facts {
            if !sent.insert(f.clone()) {
                continue;
            }
            self.facts_broadcast.fetch_add(1, Ordering::Relaxed);
            for (dest, s) in self.senders.iter().enumerate() {
                if dest == id {
                    continue;
                }
                // Per-copy fate roll on the shared injector (1 copy
                // normally; 0 on drop, 2 on dup; a "delayed" copy is just
                // sent — the OS already delays arbitrarily).
                let copies = match self.injector.lock().as_mut() {
                    None => 1,
                    Some(inj) => match inj.fate() {
                        MessageFate::Deliver => 1,
                        MessageFate::Drop => {
                            self.stats.lock().dropped += 1;
                            0
                        }
                        MessageFate::Duplicate => {
                            self.stats.lock().duplicated += 1;
                            2
                        }
                        MessageFate::Delay(_) => {
                            self.stats.lock().delayed += 1;
                            1
                        }
                        MessageFate::Corrupt(e) => {
                            // One tampered copy instead of the original.
                            let t = corrupt_in_transit(f.clone(), e, &mut self.stats.lock());
                            self.in_flight.fetch_add(1, Ordering::SeqCst);
                            s.send((id, t)).expect("receiver alive");
                            0
                        }
                    },
                };
                for _ in 0..copies {
                    self.in_flight.fetch_add(1, Ordering::SeqCst);
                    s.send((id, f.clone())).expect("receiver alive");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::distribution::hash_distribution;
    use crate::program::Ctx;
    use crate::programs::coordinated::CoordinatedBroadcast;
    use crate::programs::monotone::MonotoneBroadcast;
    use crate::scheduler::{run, RunCtx, RunMode, Schedule};
    use parlog_faults::FaultPlan;
    use parlog_relal::fact::fact;
    use parlog_relal::instance::Instance;
    use parlog_relal::parser::parse_query;

    fn db() -> Instance {
        Instance::from_facts(
            (0..30u64).flat_map(|i| [fact("E", &[i, (i + 1) % 30]), fact("E", &[(i * 7) % 30, i])]),
        )
    }

    fn threaded<'a>(ctx: Ctx) -> RunCtx<'a> {
        RunCtx::new(ctx, RunMode::Threaded)
    }

    #[test]
    fn threaded_matches_simulator_for_monotone() {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let dist = hash_distribution(&db(), 4, 9);
        let threaded = run(&p, &dist, &threaded(Ctx::oblivious())).output;
        let simulated = run(
            &p,
            &dist,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(4)),
        );
        assert_eq!(threaded, expected);
        assert_eq!(simulated.output, expected);
    }

    #[test]
    fn threaded_matches_simulator_for_coordinated() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = CoordinatedBroadcast::new(q);
        let dist = hash_distribution(&db(), 3, 2);
        let threaded = run(&p, &dist, &threaded(Ctx::aware(3))).output;
        assert_eq!(threaded, expected);
    }

    #[test]
    fn threaded_duplication_is_absorbed() {
        // Duplicate copies under real concurrency: receivers are sets, so
        // the monotone program's output is unchanged — the within-model
        // faults are harmless even off the simulator.
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let dist = hash_distribution(&db(), 4, 9);
        let plan = FaultPlan::duplicating(13, 0.5);
        let out = run(&p, &dist, &threaded(Ctx::oblivious()).with_faults(&plan));
        assert_eq!(out.output, expected);
        assert!(out.stats.duplicated > 0, "the plan must actually duplicate");
    }

    #[test]
    fn threaded_loss_stays_sound() {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let dist = hash_distribution(&db(), 4, 9);
        let plan = FaultPlan::lossy(13, 0.6);
        let out = run(&p, &dist, &threaded(Ctx::oblivious()).with_faults(&plan));
        assert!(
            out.output.is_subset_of(&expected),
            "loss must never create facts"
        );
        assert!(out.stats.dropped > 0);
    }

    /// Run `H(x) <- E(x,y)` threaded on one node as `rc` says.
    fn one_node(rc: &RunCtx<'_>) {
        let p = MonotoneBroadcast::new(parse_query("H(x) <- E(x,y)").unwrap());
        run(&p, &[db()], rc);
    }

    #[test]
    #[should_panic(expected = "message faults only")]
    fn threaded_rejects_crash_plans() {
        one_node(&threaded(Ctx::oblivious()).with_faults(&FaultPlan::crash_stop(1, 0, 3)));
    }

    #[test]
    #[should_panic(expected = "message faults only")]
    fn threaded_rejects_retransmit_plans() {
        let plan = FaultPlan::lossy(1, 0.2).with_retransmit(Default::default());
        one_node(&threaded(Ctx::oblivious()).with_faults(&plan));
    }

    #[test]
    #[should_panic(expected = "message faults only")]
    fn threaded_rejects_partition_plans() {
        let split = parlog_faults::PartitionPlan::split(0, 10, &[0]);
        one_node(&threaded(Ctx::oblivious()).with_faults(&FaultPlan::partitioned(1, split)));
    }

    #[test]
    #[should_panic(expected = "cannot enforce `corruptions`")]
    fn threaded_refuses_corruptions() {
        use parlog_faults::CorruptKind;
        let plan = FaultPlan::none(1).with_corruption(0, 0, CorruptKind::Inject);
        one_node(&threaded(Ctx::oblivious()).with_faults(&plan));
    }

    #[test]
    #[should_panic(expected = "cannot enforce `speculation`")]
    fn threaded_refuses_speculation() {
        use parlog_faults::SpeculationPolicy;
        let plan = FaultPlan::none(1).with_speculation(SpeculationPolicy::default());
        one_node(&threaded(Ctx::oblivious()).with_faults(&plan));
    }

    #[test]
    #[should_panic(expected = "the threaded runtime keeps no trace")]
    fn threaded_refuses_a_trace() {
        use parlog_trace::{MemSink, TraceHandle};
        let sink = std::sync::Arc::new(MemSink::new());
        one_node(&threaded(Ctx::oblivious()).with_trace(TraceHandle::to(sink)));
    }

    #[test]
    fn threaded_straggler_stalls_but_computes_the_same() {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let dist = hash_distribution(&db(), 4, 9);
        let plan = FaultPlan::none(1).with_straggler(2, 3.0);
        let out = run(&p, &dist, &threaded(Ctx::oblivious()).with_faults(&plan));
        assert_eq!(
            out.output, expected,
            "a slow node changes latency, not answers"
        );
        assert!(
            out.stats.straggler_stalls > 0,
            "the straggler must actually stall"
        );
    }

    #[test]
    fn single_node_threaded() {
        let q = parse_query("H(x) <- E(x,y)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let out = run(&p, &[db()], &threaded(Ctx::oblivious()));
        assert_eq!(out.output, expected);
        assert_eq!(out.delivered, 0, "one node has no one to hear from");
    }
}
