//! Property tests for the partition contract (PR 7, satellite):
//!
//! A *healing* network partition is a within-model fault — messages are
//! arbitrarily delayed but never lost — so every monotone workload must
//! converge to the fault-free answer byte-for-byte once the partition
//! heals, on both substrates, whatever the seeded split/heal schedule:
//!
//! (a) transducer networks: random monotone CQ / UCQ / Datalog
//!     workloads under `PartitionPlan::seeded` schedules produce exactly
//!     the fault-free output, and reruns with the same seed are
//!     byte-identical (the no-loss assumption, checked end to end);
//! (b) the MPC simulator: a repartitioning hash join whose communication
//!     round is split by a seeded partition drains its held copies after
//!     heal and computes the exact join, byte-identical across
//!     `with_parallelism` thread counts and to the fault-free cluster.

use proptest::prelude::*;

use parlog_faults::{FaultPlan, PartitionPlan};
use parlog_mpc::cluster::{Cluster, Fate};
use parlog_relal::eval::{eval_query, EvalStrategy};
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::UnionQuery;
use parlog_relal::symbols::rel;
use parlog_transducer::distribution::hash_distribution;
use parlog_transducer::network::QueryFunction;
use parlog_transducer::prelude::MonotoneBroadcast;
use parlog_transducer::program::Ctx;
use parlog_transducer::scheduler::{run, RunCtx, RunOutcome, Schedule};

/// Strategy: a small random edge relation.
fn small_edges(max_facts: usize, domain: u64) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0..domain, 0..domain), 1..max_facts)
        .prop_map(|pairs| Instance::from_facts(pairs.into_iter().map(|(a, b)| fact("E", &[a, b]))))
}

/// A canonical byte string for an instance: sorted rendered facts.
/// Equality of canons is the "byte-identical" convergence check.
fn canon(inst: &Instance) -> String {
    let mut lines: Vec<String> = inst.iter().map(|f| format!("{f:?}")).collect();
    lines.sort();
    lines.join(";")
}

/// The monotone workload under test, plus its fault-free ground truth.
/// `pick` chooses among the three query classes the CALM contract
/// covers: a conjunctive query, a union of conjunctive queries, and a
/// recursive (but positive, hence monotone) Datalog program.
fn workload(pick: usize, db: &Instance) -> (MonotoneBroadcast, Instance) {
    match pick {
        0 => {
            let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
            let expected = eval_query(&q, db);
            (MonotoneBroadcast::new(q), expected)
        }
        1 => {
            let u = UnionQuery::new(vec![
                parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap(),
                parse_query("H(x,y) <- E(x,y)").unwrap(),
            ]);
            let expected = QueryFunction::eval(&u, db);
            (MonotoneBroadcast::new(u), expected)
        }
        _ => {
            let p = parlog_datalog::program::parse_program(
                "TC(x,y) <- E(x,y).\nTC(x,z) <- TC(x,y), E(y,z).",
            )
            .unwrap();
            let expected = QueryFunction::eval(&p, db);
            (MonotoneBroadcast::new(p), expected)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) On the transducer substrate, any seeded healing partition
    /// schedule leaves every monotone workload's final output exactly
    /// equal to the fault-free answer — the partition only delays.
    #[test]
    fn monotone_transducer_output_survives_any_seeded_partition(
        db in small_edges(18, 7),
        pick in 0usize..3,
        pseed in 0u64..512,
        sseed in 0u64..64,
        n in 3usize..5,
    ) {
        let (program, expected) = workload(pick, &db);
        let shards = hash_distribution(&db, n, 5);
        let plan = FaultPlan::partitioned(pseed, PartitionPlan::seeded(pseed, n, 24));

        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(sseed));
        let RunOutcome { output: out, stats, .. } =
            run(&program, &shards, &rc.clone().with_faults(&plan));
        prop_assert_eq!(&out, &expected, "partitioned run diverged from ground truth");

        // Byte-identical to the fault-free run under the same schedule…
        let none = FaultPlan::none(pseed);
        let fault_free = run(&program, &shards, &rc.clone().with_faults(&none)).output;
        prop_assert_eq!(canon(&out), canon(&fault_free));

        // …and deterministic: the same seeds replay the same run.
        let again = run(&program, &shards, &rc.with_faults(&plan));
        prop_assert_eq!(canon(&out), canon(&again.output));
        prop_assert_eq!(stats.partitioned, again.stats.partitioned);
    }

    /// (b) On the MPC substrate, a seeded partition over the
    /// communication round holds copies at their source; once drained
    /// after heal, the repartitioning join is exact and byte-identical
    /// across thread counts and to the fault-free cluster.
    #[test]
    fn mpc_join_converges_after_heal_across_thread_counts(
        r_pairs in prop::collection::vec((0..6u64, 0..6u64), 1..14),
        s_pairs in prop::collection::vec((0..6u64, 0..6u64), 1..14),
        pseed in 0u64..512,
    ) {
        let p = 3usize;
        let db = Instance::from_facts(
            r_pairs.iter().map(|&(a, b)| fact("R", &[a, b]))
                .chain(s_pairs.iter().map(|&(a, b)| fact("S", &[a, b]))),
        );
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let expected = eval_query(&q, &db);
        let r_id = rel("R");

        let run = |threads: usize, faults: FaultPlan| {
            let mut c = Cluster::new(p).with_parallelism(threads).with_faults(faults);
            for s in 0..p {
                c.place(s, db.iter().skip(s).step_by(p).cloned());
            }
            // Repartition on the join key: R by its second column, S by
            // its first, so joining facts co-locate.
            c.communicate(|f| {
                let key = if f.rel == r_id { f.args[1].0 } else { f.args[0].0 };
                vec![(key % p as u64) as usize]
            });
            // Drain: seeded plans always heal within their horizon, so a
            // bounded number of Keep rounds flushes every held copy.
            let mut rounds = 0usize;
            while c.held_by_partition() > 0 && rounds < 32 {
                c.route(&[], |_, _, _| Fate::Keep);
                rounds += 1;
            }
            c.compute_query(&q, EvalStrategy::Indexed);
            c
        };

        let fault_free = run(1, FaultPlan::none(0));
        prop_assert_eq!(&fault_free.union_all(), &expected);
        let baseline = canon(&fault_free.union_all());

        for threads in [1usize, 2, 4] {
            let plan = FaultPlan::partitioned(0, PartitionPlan::seeded(pseed, p, 8));
            let c = run(threads, plan);
            prop_assert_eq!(
                c.held_by_partition(), 0,
                "held copies must flush once the seeded plan heals"
            );
            prop_assert_eq!(
                canon(&c.union_all()), baseline.clone(),
                "threads={} diverged from the fault-free join", threads
            );
        }
    }
}
