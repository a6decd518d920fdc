//! Property tests for the supervisor's three contracts (PR 2, satellite):
//!
//! (a) speculative re-execution never changes what is computed — a
//!     speculated run's outputs and loads equal the fault-free run's;
//! (b) degraded monotone answers are always a subset of the true answer;
//! (c) the failure detector never suspects a live node when the plan
//!     injects zero message faults.

use proptest::prelude::*;

use parlog_faults::{FaultPlan, SpeculationPolicy};
use parlog_mpc::cluster::Cluster;
use parlog_relal::eval::{eval_query, EvalStrategy};
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_supervisor::prelude::*;
use parlog_transducer::distribution::hash_distribution;
use parlog_transducer::prelude::MonotoneBroadcast;
use parlog_transducer::program::Ctx;
use parlog_transducer::scheduler::{RunCtx, Schedule};

/// Strategy: a small random edge relation.
fn small_edges(max_facts: usize, domain: u64) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0..domain, 0..domain), 1..max_facts)
        .prop_map(|pairs| Instance::from_facts(pairs.into_iter().map(|(a, b)| fact("E", &[a, b]))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) First-finisher-wins with idempotent commit: a cluster run with
    /// speculation enabled commits the same outputs and per-round loads
    /// as the identical run without it, whatever the straggler profile.
    #[test]
    fn speculation_never_changes_outputs(
        db in small_edges(24, 9),
        straggler in 0usize..4,
        slowdown in 1u32..12,
        threshold in 11u32..30,
    ) {
        let run = |spec: Option<SpeculationPolicy>| {
            let plan = FaultPlan::none(0).with_straggler(straggler, f64::from(slowdown));
            let mut c = Cluster::new(4).with_faults(FaultPlan { speculation: spec, ..plan });
            for s in 0..4 {
                c.place(s, db.iter().skip(s).step_by(4).cloned());
            }
            c.communicate(|f| vec![(f.args[0].0 % 4) as usize]);
            c.compute_query(&parse_query("H(x) <- E(x,y)").unwrap(), EvalStrategy::Indexed);
            c
        };
        let plain = run(None);
        let spec = run(Some(SpeculationPolicy {
            threshold: f64::from(threshold) / 10.0,
            min_load: 2,
        }));
        prop_assert_eq!(plain.union_all(), spec.union_all());
        prop_assert_eq!(&plain.rounds()[0].received, &spec.rounds()[0].received);
        prop_assert_eq!(plain.max_load(), spec.max_load());
        // Latency can only improve, and every win is paid for in waste.
        prop_assert!(spec.tail_time() <= plain.tail_time());
        if spec.speculation().wins > 0 {
            prop_assert!(spec.speculation().wasted_work > 0);
        }
    }

    /// (b) A monotone query degraded by an unhealable crash-stop returns
    /// a certified answer that is a subset of the true answer, with a
    /// certificate that accounts exactly for the missing shard.
    #[test]
    fn degraded_monotone_answers_are_sound(
        db in small_edges(20, 8),
        seed in 0u64..40,
        node in 0usize..3,
        at_step in 0usize..12,
    ) {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = eval_query(&q, &db);
        let shards = hash_distribution(&db, 3, 5);
        let p = MonotoneBroadcast::new(q);
        let config = SupervisorConfig { max_heals: 0, ..SupervisorConfig::default() };
        let plan = FaultPlan::crash_stop(seed, node, at_step);
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed)).with_faults(&plan);
        let out = supervise(&p, &shards, &rc, QueryMode::Monotone, &config);
        let answer = out.verdict.answer().expect("monotone runs always answer");
        prop_assert!(answer.is_subset_of(&expected));
        if let Degraded::Partial { certificate, .. } = &out.verdict {
            prop_assert_eq!(&certificate.missing_nodes, &vec![node]);
            prop_assert_eq!(certificate.missing_facts, shards[node].len());
            prop_assert!(certificate.coverage <= 1.0);
        } else {
            // The node died after quiescence-equivalent delivery or held
            // an empty shard: exact is also a sound outcome.
            prop_assert!(out.verdict.is_exact());
        }
    }

    /// (d) Cold start is never suspicious: whatever the true heartbeat
    /// cadence, a detector that has seen at most one (possibly
    /// clamped-tiny) inter-arrival keeps φ sub-threshold through the
    /// whole first observed period. Regression for the cold-start bug
    /// where the first sample *replaced* the seeded mean.
    #[test]
    fn cold_start_never_false_suspects(cadence in 1usize..50) {
        let mut det = PhiDetector::new(1, 2.0, cadence);
        det.arrival(0, 0);
        det.arrival(0, 1); // startup burst: the degenerate first gap
        let mut now = 1;
        for beat in 0..20usize {
            // Probe just before the next heartbeat — the worst moment.
            prop_assert!(
                det.suspects(now + cadence).is_empty(),
                "beat {} (cadence {}): φ = {}",
                beat, cadence, det.phi(0, now + cadence)
            );
            now += cadence;
            det.arrival(0, now);
        }
    }

    /// (c) Zero message faults: every live node answers every probe, so
    /// the detector never suspects one — no false positives, ever.
    #[test]
    fn no_false_suspicion_without_message_faults(
        db in small_edges(20, 8),
        seed in 0u64..60,
        crash_flag in 0u64..2,
    ) {
        let crash = crash_flag == 1;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let shards = hash_distribution(&db, 4, 5);
        let p = MonotoneBroadcast::new(q);
        // Crash plans are allowed — they inject no *message* faults, and
        // dead nodes are not live; live nodes must stay unsuspected.
        let plan = if crash {
            FaultPlan::crash_stop(seed, (seed as usize) % 4, 4)
        } else {
            FaultPlan::none(seed)
        };
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed)).with_faults(&plan);
        let out = supervise(&p, &shards, &rc, QueryMode::Monotone, &SupervisorConfig::default());
        prop_assert_eq!(out.report.false_suspicions, 0);
        if !crash {
            prop_assert_eq!(out.report.suspicions, 0);
            prop_assert!(out.report.detections.is_empty());
        }
    }
}
