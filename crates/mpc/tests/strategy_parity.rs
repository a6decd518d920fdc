//! Strategy parity: the computation-phase [`EvalStrategy`] must never
//! change *what* an MPC algorithm computes — only how fast the local
//! joins run. Every strategy (Naive, Indexed, Wcoj, Auto) must produce
//! byte-identical outputs and statistics at every thread count, with and
//! without injected faults (checkpoint/replay).

use parlog_faults::MpcFaultPlan;
use parlog_mpc::cluster::Cluster;
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_mpc::prelude::*;
use parlog_relal::eval::{eval_query, EvalStrategy};
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::ConjunctiveQuery;

const STRATEGIES: [EvalStrategy; 4] = [
    EvalStrategy::Naive,
    EvalStrategy::Indexed,
    EvalStrategy::Wcoj,
    EvalStrategy::Auto,
];

fn triangle() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
}

fn path() -> ConjunctiveQuery {
    parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap()
}

/// The full-width path join the skew algorithms target.
fn path_skewed() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
}

/// R ⋈ S with a heavy hitter on the join attribute.
fn skewed_db() -> Instance {
    let mut db = parlog_mpc::datagen::heavy_hitter_relation("R", 200, 0.4, 7, 1, 0);
    db.extend_from(&parlog_mpc::datagen::heavy_hitter_relation(
        "S", 200, 0.4, 7, 0, 50_000,
    ));
    db
}

#[test]
fn hypercube_strategies_agree_at_every_thread_count() {
    let q = triangle();
    let db = parlog_mpc::datagen::triangle_db(200, 40, 13);
    let reference = eval_query(&q, &db);
    let baseline = HypercubeAlgorithm::new(&q, 27)
        .unwrap()
        .with_strategy(EvalStrategy::Indexed)
        .run(&db);
    assert_eq!(baseline.output, reference);
    for strategy in STRATEGIES {
        let hc = HypercubeAlgorithm::new(&q, 27)
            .unwrap()
            .with_strategy(strategy);
        for threads in [1, 2, 4] {
            let report = hc.run_on(&mut Cluster::new(27).with_parallelism(threads), &db);
            assert_eq!(
                report.output, baseline.output,
                "output diverged: {strategy:?} threads={threads}"
            );
            assert_eq!(
                serde_json::to_string(&report.stats).unwrap(),
                serde_json::to_string(&baseline.stats).unwrap(),
                "stats diverged: {strategy:?} threads={threads}"
            );
        }
    }
}

#[test]
fn hypercube_strategies_agree_under_faults() {
    // Crash a server during the communication round: checkpoint/replay
    // must restore byte-identical results for every strategy.
    let q = triangle();
    let db = parlog_mpc::datagen::triangle_db(120, 25, 5);
    let hc = HypercubeAlgorithm::new(&q, 8).unwrap();

    let run = |strategy: EvalStrategy, plan: MpcFaultPlan| -> (Instance, String) {
        let mut cluster = Cluster::new(hc.servers()).with_faults(plan);
        seed_cluster(&mut cluster, &db, InitialPartition::RoundRobin);
        cluster.communicate(|f| hc.destinations(f));
        cluster.compute_query(&q, strategy);
        let report = RunReport::from_cluster("hypercube", &cluster, db.len());
        let stats = serde_json::to_string(&report.stats).unwrap();
        (report.output, stats)
    };

    let (clean_out, clean_stats) = run(EvalStrategy::Indexed, MpcFaultPlan::none());
    assert_eq!(clean_out, eval_query(&q, &db));
    for strategy in STRATEGIES {
        let (out, stats) = run(strategy, MpcFaultPlan::none());
        assert_eq!(out, clean_out, "fault-free output diverged: {strategy:?}");
        assert_eq!(
            stats, clean_stats,
            "fault-free stats diverged: {strategy:?}"
        );

        let plan = MpcFaultPlan::crash(0, 1).with_crash(1, 2);
        let (fout, _fstats) = run(strategy, plan);
        assert_eq!(fout, clean_out, "faulty output diverged: {strategy:?}");
    }
}

#[test]
fn grouped_and_repartition_strategies_agree() {
    let q = path();
    let mut db = parlog_mpc::datagen::uniform_relation("R", 250, 50, 1);
    db.extend_from(&parlog_mpc::datagen::uniform_relation("S", 250, 50, 2));
    let reference = eval_query(&q, &db);
    for strategy in STRATEGIES {
        let g = GroupedJoin::new(&q, 16, 5).with_strategy(strategy).run(&db);
        assert_eq!(g.output, reference, "grouped diverged: {strategy:?}");
        let r = RepartitionJoin::new(&q, 8, 7)
            .with_strategy(strategy)
            .run(&db);
        assert_eq!(r.output, reference, "repartition diverged: {strategy:?}");
    }
}

#[test]
fn shares_skew_strategies_agree_at_every_thread_count() {
    // Regression witness for the PR 9 bugfix: `SharesSkewAlgorithm::run`
    // used to bypass the EvalStrategy / parallelism / trace plumbing with
    // a hand-rolled indexed join.
    let q = path_skewed();
    let db = skewed_db();
    let reference = eval_query(&q, &db);
    let baseline = SharesSkewAlgorithm::from_stats(&q, &db, 16, 40, 4, 2).run(&db);
    assert_eq!(baseline.output, reference);
    for strategy in STRATEGIES {
        for threads in [1, 2, 4] {
            let alg =
                SharesSkewAlgorithm::from_stats(&q, &db, 16, 40, 4, 2).with_strategy(strategy);
            let mut cluster = Cluster::new(alg.servers()).with_parallelism(threads);
            let report = alg.run_on(&mut cluster, &db);
            assert_eq!(
                report.output, baseline.output,
                "output diverged: {strategy:?} threads={threads}"
            );
            assert_eq!(
                serde_json::to_string(&report.stats).unwrap(),
                serde_json::to_string(&baseline.stats).unwrap(),
                "stats diverged: {strategy:?} threads={threads}"
            );
        }
    }
}

#[test]
fn skew_adaptive_strategies_agree_at_every_thread_count() {
    let q = path_skewed();
    let db = skewed_db();
    let reference = eval_query(&q, &db);
    let baseline = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default()).run(&db);
    assert_eq!(baseline.output, reference);
    for strategy in STRATEGIES {
        for threads in [1, 2, 4] {
            let report = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default())
                .with_strategy(strategy)
                .run_on(&mut Cluster::new(16).with_parallelism(threads), &db);
            assert_eq!(
                report.output, baseline.output,
                "output diverged: {strategy:?} threads={threads}"
            );
            assert_eq!(
                serde_json::to_string(&report.stats).unwrap(),
                serde_json::to_string(&baseline.stats).unwrap(),
                "stats diverged: {strategy:?} threads={threads}"
            );
        }
    }
}

#[test]
fn gym_strategies_agree_on_cyclic_query() {
    let q = triangle();
    let db = parlog_mpc::datagen::triangle_db(100, 25, 3);
    let reference = eval_query(&q, &db);
    for strategy in STRATEGIES {
        let report = Gym::new(&q, 16, 1).with_strategy(strategy).run(&db);
        assert_eq!(report.output, reference, "gym diverged: {strategy:?}");
    }
}
