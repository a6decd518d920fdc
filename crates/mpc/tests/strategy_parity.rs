//! Strategy parity: the computation-phase [`EvalStrategy`] must never
//! change *what* an MPC algorithm computes — only how fast the local
//! joins run. The algorithms compute under `Auto`; a strategy is an
//! argument of the cluster's compute phase, so each test routes with an
//! algorithm's own destinations, evaluates with
//! [`Cluster::compute_query`] under every strategy (Naive, Indexed, Wcoj,
//! Auto), and requires byte-identical outputs and statistics at every
//! thread count, with and without injected faults (checkpoint/replay).

use parlog_faults::{CrashKind, FaultPlan};
use parlog_mpc::cluster::Cluster;
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_mpc::prelude::*;
use parlog_relal::eval::{eval_query, eval_query_with, EvalStrategy};
use parlog_relal::fact::Fact;
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

fn stats_json(r: &RunReport) -> String {
    serde_json::to_string(&r.stats).unwrap()
}

/// One round on `cluster`: `db` dealt round-robin, routed by `dests`,
/// evaluated under `strategy`.
fn one_round<D: IntoIterator<Item = usize>>(
    mut cluster: Cluster,
    db: &Instance,
    dests: impl Fn(&Fact) -> D + Sync,
    q: &ConjunctiveQuery,
    strategy: EvalStrategy,
) -> RunReport {
    seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
    cluster.communicate(dests);
    cluster.compute_query(q, strategy);
    RunReport::from_cluster("one-round", &cluster, db.len())
}

#[test]
fn hypercube_strategies_agree_at_every_thread_count() {
    let q = triangle();
    let db = parlog_mpc::datagen::triangle_db(200, 40, 13);
    let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
    let baseline = hc.run(&db);
    assert_eq!(baseline.output, eval_query(&q, &db));
    for threads in [1, 2, 4] {
        let run = hc.run_on(&mut Cluster::new(27).with_parallelism(threads), &db);
        assert_eq!(stats_json(&run), stats_json(&baseline), "threads={threads}");
        for strategy in STRATEGIES {
            let cluster = Cluster::new(27).with_parallelism(threads);
            let report = one_round(cluster, &db, |f| hc.destinations(f), &q, strategy);
            assert_eq!(
                report.output, baseline.output,
                "output diverged: {strategy:?} threads={threads}"
            );
            assert_eq!(
                stats_json(&report),
                stats_json(&baseline),
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

    let run = |strategy: EvalStrategy, plan: FaultPlan| -> (Instance, String) {
        let cluster = Cluster::new(hc.servers()).with_faults(plan);
        let report = one_round(cluster, &db, |f| hc.destinations(f), &q, strategy);
        let stats = stats_json(&report);
        (report.output, stats)
    };

    let (clean_out, clean_stats) = run(EvalStrategy::Indexed, FaultPlan::none(0));
    assert_eq!(clean_out, eval_query(&q, &db));
    for strategy in STRATEGIES {
        let (out, stats) = run(strategy, FaultPlan::none(0));
        assert_eq!(out, clean_out, "fault-free output diverged: {strategy:?}");
        assert_eq!(
            stats, clean_stats,
            "fault-free stats diverged: {strategy:?}"
        );

        let plan = FaultPlan::crash_stop(0, 1, 0).with_crash(2, 1, CrashKind::Stop);
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
    let g = GroupedJoin::new(&q, 16, 5);
    let r = RepartitionJoin::new(&q, 8, 7);
    let (g_run, r_run) = (g.run(&db), r.run(&db));
    assert_eq!(g_run.output, reference);
    assert_eq!(r_run.output, reference);
    for strategy in STRATEGIES {
        let servers = g.groups * g.groups;
        let gs = one_round(
            Cluster::new(servers),
            &db,
            |f| g.destinations(f),
            &q,
            strategy,
        );
        assert_eq!(gs.output, reference, "grouped diverged: {strategy:?}");
        assert_eq!(stats_json(&gs), stats_json(&g_run), "grouped: {strategy:?}");
        let rs = one_round(Cluster::new(8), &db, |f| r.destinations(f), &q, strategy);
        assert_eq!(rs.output, reference, "repartition diverged: {strategy:?}");
        assert_eq!(
            stats_json(&rs),
            stats_json(&r_run),
            "repartition: {strategy:?}"
        );
    }
}

/// SharesSkew is the skew engine's one-wave plan: one round routed by
/// `wave_destinations(0, ·)`, so every strategy reproduces its run at
/// every thread count.
#[test]
fn shares_skew_strategies_agree_at_every_thread_count() {
    let q = path_skewed();
    let db = skewed_db();
    let cfg = SkewConfig {
        threshold: Some(40),
        max_heavy_per_var: 4,
        max_rounds: 1,
        seed: 2,
    };
    let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, cfg);
    assert_eq!(alg.wave_count(), 1);
    let baseline = alg.run(&db);
    assert_eq!(baseline.output, eval_query(&q, &db));
    for threads in [1, 2, 4] {
        let run = alg.run_on(&mut Cluster::new(16).with_parallelism(threads), &db);
        assert_eq!(stats_json(&run), stats_json(&baseline), "threads={threads}");
        for strategy in STRATEGIES {
            let cluster = Cluster::new(alg.servers()).with_parallelism(threads);
            let report = one_round(cluster, &db, |f| alg.wave_destinations(0, f), &q, strategy);
            assert_eq!(
                report.output, baseline.output,
                "output diverged: {strategy:?} threads={threads}"
            );
            assert_eq!(
                stats_json(&report),
                stats_json(&baseline),
                "stats diverged: {strategy:?} threads={threads}"
            );
        }
    }
}

/// Every wave of the multi-wave schedule, run as a round of its own,
/// evaluates identically under every strategy and thread count, and the
/// waves' union is the engine's answer.
#[test]
fn skew_adaptive_strategies_agree_at_every_thread_count() {
    let q = path_skewed();
    let db = skewed_db();
    let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default());
    assert!(alg.wave_count() > 1);
    let baseline = alg.run(&db);
    assert_eq!(baseline.output, eval_query(&q, &db));
    for threads in [1, 2, 4] {
        let run = alg.run_on(&mut Cluster::new(16).with_parallelism(threads), &db);
        assert_eq!(run.output, baseline.output, "threads={threads}");
        assert_eq!(stats_json(&run), stats_json(&baseline), "threads={threads}");
    }
    let mut union = Instance::new();
    for w in 0..alg.wave_count() {
        let wave = |strategy, threads| {
            let cluster = Cluster::new(16).with_parallelism(threads);
            one_round(cluster, &db, |f| alg.wave_destinations(w, f), &q, strategy)
        };
        let reference = wave(EvalStrategy::Auto, 1);
        for strategy in STRATEGIES {
            for threads in [1, 2, 4] {
                let report = wave(strategy, threads);
                assert_eq!(
                    report.output, reference.output,
                    "wave {w} output diverged: {strategy:?} threads={threads}"
                );
                assert_eq!(
                    stats_json(&report),
                    stats_json(&reference),
                    "wave {w} stats diverged: {strategy:?} threads={threads}"
                );
            }
        }
        union.extend_from(&reference.output);
    }
    assert_eq!(union, baseline.output);
}

/// GYM evaluates its bags under `Auto`; its answer is every strategy's
/// centralized answer.
#[test]
fn gym_strategies_agree_on_cyclic_query() {
    let q = triangle();
    let db = parlog_mpc::datagen::triangle_db(100, 25, 3);
    let report = Gym::new(&q, 16, 1).run(&db);
    for strategy in STRATEGIES {
        assert_eq!(
            report.output,
            eval_query_with(&q, &db, strategy),
            "gym diverged: {strategy:?}"
        );
    }
}
