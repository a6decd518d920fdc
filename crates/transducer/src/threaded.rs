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

use crate::faulty::corrupt_in_transit;
use crate::network::NodeState;
use crate::program::{Ctx, TransducerProgram};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Run a program on the given shards with one thread per node; returns
/// the union of outputs after global quiescence.
///
/// **Limitation:** quiescence detection assumes heartbeats do not
/// broadcast once a node's queue is idle — a node exits when the global
/// in-flight counter is zero, its channel is empty and its own heartbeat
/// is silent, so a *message-producing* heartbeat on another node could
/// still address it afterwards. All programs in this crate have
/// message-free heartbeats; for heartbeat-broadcasting programs use the
/// simulator ([`crate::scheduler`]), whose quiescence check is global.
pub fn run_threaded<P>(program: Arc<P>, shards: &[Instance], ctx: Ctx) -> Instance
where
    P: TransducerProgram + 'static + ?Sized,
{
    run_threaded_faulty(program, shards, ctx, None).0
}

/// [`run_threaded`] with message-level fault injection: each copy rolls
/// its fate (drop / duplicate / deliver) on a shared seeded injector at
/// send time. Reordering and delay need no injector here — OS scheduling
/// already supplies both — and node crashes are a simulator-only feature
/// (the simulator owns a global clock to time them against; real threads
/// do not). Straggler entries *are* honored: a slowed node sleeps
/// proportionally to `slowdown − 1` for every message it processes
/// (tallied in `straggler_stalls`), stretching real tail latency without
/// changing what is computed — the scenario the supervisor's speculative
/// re-execution targets. Returns the union of outputs plus the
/// injector's tally.
///
/// # Panics
/// Panics on a plan with crashes, `retransmit` or a partition (they
/// need the simulator's clock), or with `corruptions` or `speculation`
/// (faults of MPC rounds).
pub fn run_threaded_faulty<P>(
    program: Arc<P>,
    shards: &[Instance],
    ctx: Ctx,
    plan: Option<&parlog_faults::FaultPlan>,
) -> (Instance, crate::faulty::FaultStats)
where
    P: TransducerProgram + 'static + ?Sized,
{
    assert!(!shards.is_empty());
    if program.requires_all() {
        assert!(ctx.all.is_some(), "program requires the All relation");
    }
    if let Some(p) = plan {
        crate::faulty::refuse_mpc_only(p);
        assert!(
            p.crashes.is_empty() && p.retransmit.is_none() && p.partition.is_none(),
            "the threaded runtime injects message faults only; crash, \
             retransmit and partition plans need the simulator (partition \
             epochs are timed against its virtual clock)"
        );
    }
    let injector = Arc::new(Mutex::new(plan.map(|p| p.injector())));
    let stats = Arc::new(Mutex::new(crate::faulty::FaultStats::default()));
    let slowdowns: Vec<f64> = (0..shards.len())
        .map(|i| plan.map_or(1.0, |p| p.slowdown(i)))
        .collect();
    let n = shards.len();
    let mut senders: Vec<Sender<(usize, Fact)>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<(usize, Fact)>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let in_flight = Arc::new(AtomicUsize::new(0));
    let outputs: Arc<Mutex<Vec<Instance>>> = Arc::new(Mutex::new(vec![Instance::new(); n]));

    let mut handles = Vec::with_capacity(n);
    for (id, shard) in shards.iter().enumerate() {
        let program = Arc::clone(&program);
        let ctx = ctx.clone();
        let receiver = receivers[id].clone();
        let senders = senders.clone();
        let in_flight = Arc::clone(&in_flight);
        let outputs = Arc::clone(&outputs);
        let shard = shard.clone();
        let injector = Arc::clone(&injector);
        let stats = Arc::clone(&stats);
        let slowdown = slowdowns[id];
        handles.push(std::thread::spawn(move || {
            let mut node = NodeState::new(id, shard);
            let mut sent: parlog_relal::fastmap::FxSet<Fact> = parlog_relal::fastmap::fxset();
            let broadcast = |facts: Vec<Fact>, sent: &mut parlog_relal::fastmap::FxSet<Fact>| {
                for f in facts {
                    if !sent.insert(f.clone()) {
                        continue;
                    }
                    for (dest, s) in senders.iter().enumerate() {
                        if dest != id {
                            // Per-copy fate roll on the shared injector
                            // (1 copy normally; 0 on drop, 2 on dup; a
                            // "delayed" copy is just sent — the OS already
                            // delays arbitrarily).
                            let copies = match injector.lock().as_mut() {
                                None => 1,
                                Some(inj) => match inj.fate() {
                                    parlog_faults::MessageFate::Deliver => 1,
                                    parlog_faults::MessageFate::Drop => {
                                        stats.lock().dropped += 1;
                                        0
                                    }
                                    parlog_faults::MessageFate::Duplicate => {
                                        stats.lock().duplicated += 1;
                                        2
                                    }
                                    parlog_faults::MessageFate::Delay(_) => {
                                        stats.lock().delayed += 1;
                                        1
                                    }
                                    parlog_faults::MessageFate::Corrupt(e) => {
                                        // Deliver one tampered copy instead
                                        // of the original.
                                        let t = corrupt_in_transit(f.clone(), e, &mut stats.lock());
                                        in_flight.fetch_add(1, Ordering::SeqCst);
                                        s.send((id, t)).expect("receiver alive");
                                        0
                                    }
                                },
                            };
                            for _ in 0..copies {
                                in_flight.fetch_add(1, Ordering::SeqCst);
                                s.send((id, f.clone())).expect("receiver alive");
                            }
                        }
                    }
                }
            };
            let init_out = program.init(&mut node, &ctx);
            broadcast(init_out, &mut sent);
            loop {
                match receiver.recv_timeout(Duration::from_millis(2)) {
                    Ok((from, fact)) => {
                        if slowdown > 1.0 {
                            // A straggler stalls per message: real wall-
                            // clock tail latency, same computed answer.
                            std::thread::sleep(Duration::from_micros(
                                ((slowdown - 1.0) * 50.0) as u64,
                            ));
                            stats.lock().straggler_stalls += 1;
                        }
                        let out = program.on_fact(&mut node, from, &fact, &ctx);
                        broadcast(out, &mut sent);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        // Quiescent? No in-flight messages can appear once
                        // the counter is zero and all channels are idle.
                        if in_flight.load(Ordering::SeqCst) == 0 && receiver.is_empty() {
                            let hb = program.heartbeat(&mut node, &ctx);
                            if hb.is_empty() {
                                break;
                            }
                            broadcast(hb, &mut sent);
                        }
                    }
                }
            }
            outputs.lock()[id] = node.output_so_far().clone();
        }));
    }
    drop(senders);
    for h in handles {
        h.join().expect("node thread panicked");
    }
    let mut union = Instance::new();
    for o in outputs.lock().iter() {
        union.extend_from(o);
    }
    let tally = *stats.lock();
    (union, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::hash_distribution;
    use crate::programs::coordinated::CoordinatedBroadcast;
    use crate::programs::monotone::MonotoneBroadcast;
    use crate::scheduler::run_to_quiescence;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;

    fn db() -> Instance {
        Instance::from_facts(
            (0..30u64).flat_map(|i| [fact("E", &[i, (i + 1) % 30]), fact("E", &[(i * 7) % 30, i])]),
        )
    }

    #[test]
    fn threaded_matches_simulator_for_monotone() {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = Arc::new(MonotoneBroadcast::new(q));
        let dist = hash_distribution(&db(), 4, 9);
        let threaded = run_threaded(p.clone(), &dist, Ctx::oblivious());
        let simulated = run_to_quiescence(p.as_ref(), &dist, 4);
        assert_eq!(threaded, expected);
        assert_eq!(simulated, expected);
    }

    #[test]
    fn threaded_matches_simulator_for_coordinated() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = Arc::new(CoordinatedBroadcast::new(q));
        let dist = hash_distribution(&db(), 3, 2);
        let threaded = run_threaded(p.clone(), &dist, Ctx::aware(3));
        assert_eq!(threaded, expected);
    }

    #[test]
    fn threaded_duplication_is_absorbed() {
        // Duplicate copies under real concurrency: receivers are sets, so
        // the monotone program's output is unchanged — the within-model
        // faults are harmless even off the simulator.
        use parlog_faults::FaultPlan;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = Arc::new(MonotoneBroadcast::new(q));
        let dist = hash_distribution(&db(), 4, 9);
        let plan = FaultPlan::duplicating(13, 0.5);
        let (out, stats) = run_threaded_faulty(p, &dist, Ctx::oblivious(), Some(&plan));
        assert_eq!(out, expected);
        assert!(stats.duplicated > 0, "the plan must actually duplicate");
    }

    #[test]
    fn threaded_loss_stays_sound() {
        use parlog_faults::FaultPlan;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = Arc::new(MonotoneBroadcast::new(q));
        let dist = hash_distribution(&db(), 4, 9);
        let plan = FaultPlan::lossy(13, 0.6);
        let (out, stats) = run_threaded_faulty(p, &dist, Ctx::oblivious(), Some(&plan));
        assert!(out.is_subset_of(&expected), "loss must never create facts");
        assert!(stats.dropped > 0);
    }

    #[test]
    #[should_panic(expected = "message faults only")]
    fn threaded_rejects_crash_plans() {
        use parlog_faults::FaultPlan;
        let q = parse_query("H(x) <- E(x,y)").unwrap();
        let p = Arc::new(MonotoneBroadcast::new(q));
        let plan = FaultPlan::crash_stop(1, 0, 3);
        run_threaded_faulty(p, &[db()], Ctx::oblivious(), Some(&plan));
    }

    #[test]
    #[should_panic(expected = "cannot enforce `corruptions`")]
    fn threaded_refuses_corruptions() {
        use parlog_faults::{CorruptKind, FaultPlan};
        let q = parse_query("H(x) <- E(x,y)").unwrap();
        let p = Arc::new(MonotoneBroadcast::new(q));
        let plan = FaultPlan::none(1).with_corruption(0, 0, CorruptKind::Inject);
        run_threaded_faulty(p, &[db()], Ctx::oblivious(), Some(&plan));
    }

    #[test]
    fn threaded_straggler_stalls_but_computes_the_same() {
        use parlog_faults::FaultPlan;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = Arc::new(MonotoneBroadcast::new(q));
        let dist = hash_distribution(&db(), 4, 9);
        let plan = FaultPlan::none(1).with_straggler(2, 3.0);
        let (out, stats) = run_threaded_faulty(p, &dist, Ctx::oblivious(), Some(&plan));
        assert_eq!(out, expected, "a slow node changes latency, not answers");
        assert!(
            stats.straggler_stalls > 0,
            "the straggler must actually stall"
        );
    }

    #[test]
    fn single_node_threaded() {
        let q = parse_query("H(x) <- E(x,y)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = Arc::new(MonotoneBroadcast::new(q));
        let out = run_threaded(p, &[db()], Ctx::oblivious());
        assert_eq!(out, expected);
    }
}
