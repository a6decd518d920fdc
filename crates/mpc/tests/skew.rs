//! Skew-engine contract tests (PR 9):
//!
//! (a) **routing completeness witnesses** — the seed's `destinations`
//!     routing was audited sound; these differential tests pin it as a
//!     regression witness. For every satisfying valuation the required
//!     facts must meet at a common server (the one-wave plan, i.e.
//!     SharesSkew) or in a common wave (the multi-wave schedule), and the
//!     outputs of both plans, plain HyperCube and the sequential
//!     evaluator must agree on arbitrary (naturally skewed) inputs;
//! (b) **fault composition** — the multi-round engine must compose with
//!     the existing fault classes: crash checkpoint/replay and
//!     straggler speculation are transparent (same output, same loads),
//!     seeded healing partitions converge to the fault-free answer with
//!     nothing left held, and every faulty run is byte-identical across
//!     `with_parallelism` thread counts.

use proptest::prelude::*;

use parlog_faults::{FaultPlan, PartitionPlan, SpeculationPolicy};
use parlog_mpc::cluster::Cluster;
use parlog_mpc::datagen;
use parlog_mpc::prelude::*;
use parlog_mpc::SkewConfig;
use parlog_relal::eval::{eval_query, satisfying_valuations};
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::ConjunctiveQuery;

fn join() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
}

fn db_from(r: &[(u64, u64)], s: &[(u64, u64)]) -> Instance {
    Instance::from_facts(
        r.iter()
            .map(|&(a, b)| fact("R", &[a, b]))
            .chain(s.iter().map(|&(a, b)| fact("S", &[a, b]))),
    )
}

/// R ⋈ S with the join attribute Zipf-skewed on both sides.
fn zipf_join_db(m: usize, domain: u64, s: f64, seed: u64) -> Instance {
    let mut db = datagen::zipf_relation_at("R", m, domain, s, seed, 1);
    db.extend_from(&datagen::zipf_relation_at(
        "S",
        m,
        domain,
        s,
        seed ^ 0xa5a5,
        0,
    ));
    db
}

fn stats_json(r: &RunReport) -> String {
    serde_json::to_string(&r.stats).unwrap()
}

/// SharesSkew: the skew engine's one-wave plan.
fn one_wave(threshold: usize, max_heavy_per_var: usize, seed: u64) -> SkewConfig {
    SkewConfig {
        threshold: Some(threshold),
        max_heavy_per_var,
        max_rounds: 1,
        seed,
    }
}

/// (a) One-round SharesSkew saturation: every satisfying valuation's
/// required facts share at least one destination server of the one-wave
/// plan.
#[test]
fn shares_skew_valuations_meet_on_skewed_input() {
    let q = join();
    let db = zipf_join_db(120, 30, 1.5, 41);
    let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, one_wave(15, 4, 41));
    assert!(alg.pattern_count() > 1, "skew must be detected");
    assert_eq!(alg.wave_count(), 1);
    for v in satisfying_valuations(&q, &db) {
        let mut meet: Option<Vec<usize>> = None;
        for f in v.required_facts(&q).iter() {
            let d = alg.wave_destinations(0, f);
            meet = Some(match meet {
                None => d,
                Some(prev) => prev.into_iter().filter(|s| d.contains(s)).collect(),
            });
        }
        assert!(
            meet.is_some_and(|m| !m.is_empty()),
            "valuation {v} does not meet"
        );
    }
}

/// (a) Multi-round saturation: every satisfying valuation meets at a
/// common server *in some wave* — the multi-round analogue of strong
/// saturation, and the completeness witness for `wave_destinations`.
#[test]
fn skew_adaptive_valuations_meet_in_some_wave() {
    let q = join();
    let db = zipf_join_db(120, 30, 1.5, 43);
    let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default());
    assert!(alg.pattern_count() > 1, "skew must be detected");
    for v in satisfying_valuations(&q, &db) {
        let req = v.required_facts(&q);
        let met = (0..alg.wave_count()).any(|w| {
            let mut meet: Option<Vec<usize>> = None;
            for f in req.iter() {
                let d = alg.wave_destinations(w, f);
                meet = Some(match meet {
                    None => d,
                    Some(prev) => prev.into_iter().filter(|s| d.contains(s)).collect(),
                });
            }
            meet.is_some_and(|m| !m.is_empty())
        });
        assert!(met, "valuation {v} meets in no wave");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Differential routing witness: on arbitrary small inputs
    /// (tiny join domain — natural skew) and arbitrary thresholds, the
    /// multi-wave schedule, the one-wave plan (SharesSkew) and plain
    /// HyperCube all compute exactly the sequential evaluator's answer.
    #[test]
    fn skew_engines_agree_with_sequential_eval(
        r_pairs in prop::collection::vec((0..32u64, 0..6u64), 1..40),
        s_pairs in prop::collection::vec((0..6u64, 0..32u64), 1..40),
        threshold in 1usize..6,
        seed in 0u64..64,
    ) {
        let q = join();
        let db = db_from(&r_pairs, &s_pairs);
        let expected = eval_query(&q, &db);

        let multi = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig {
            threshold: Some(threshold),
            max_heavy_per_var: 3,
            ..SkewConfig::default()
        }).run(&db);
        prop_assert_eq!(&multi.output, &expected, "multi-round diverged");

        let one_round = SkewAdaptiveJoin::from_stats(&q, &db, 8, one_wave(threshold, 3, seed)).run(&db);
        prop_assert_eq!(&one_round.output, &expected, "shares-skew diverged");

        let plain = HypercubeAlgorithm::new(&q, 8).unwrap().run(&db);
        prop_assert_eq!(&plain.output, &expected, "plain hypercube diverged");
    }

    /// (b) Crash/replay and straggler speculation compose transparently
    /// with the wave schedule: same output, same max load as the
    /// fault-free run, byte-identical across thread counts.
    #[test]
    fn crash_and_speculation_compose_transparently(
        m in 30usize..70,
        domain in 8u64..20,
        s_idx in 0usize..3,
        crash_server in 0usize..8,
        crash_round in 0usize..4,
        dseed in 0u64..64,
    ) {
        let q = join();
        let s = [0.6, 1.0, 1.5][s_idx];
        let db = zipf_join_db(m, domain, s, dseed);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
        let clean = alg.run(&db);
        prop_assert_eq!(&clean.output, &eval_query(&q, &db));

        let plan = FaultPlan::crash_stop(0, crash_server, crash_round)
            .with_straggler((crash_server + 1) % 8, 3.0)
            .with_speculation(SpeculationPolicy { threshold: 1.5, min_load: 2 });
        let faulty = |threads: usize| {
            let mut cluster = Cluster::new(8)
                .with_parallelism(threads)
                .with_faults(plan.clone());
            alg.run_on(&mut cluster, &db)
        };
        let f1 = faulty(1);
        prop_assert_eq!(&f1.output, &clean.output, "crash/replay changed the output");
        prop_assert_eq!(f1.stats.max_load, clean.stats.max_load, "crash/replay changed the load");
        for threads in [2, 4] {
            let ft = faulty(threads);
            prop_assert_eq!(&ft.output, &f1.output);
            prop_assert_eq!(stats_json(&ft), stats_json(&f1), "threads={}", threads);
        }
    }

    /// (b) Seeded healing partitions: the engine drains held copies and
    /// re-runs its schedule until clean, so the output converges exactly
    /// to the fault-free answer with nothing left held, byte-identical
    /// across thread counts.
    #[test]
    fn seeded_partitions_converge_to_the_fault_free_output(
        m in 30usize..70,
        domain in 8u64..20,
        s_idx in 0usize..3,
        pseed in 0u64..256,
        dseed in 0u64..64,
    ) {
        let q = join();
        let s = [0.6, 1.0, 1.5][s_idx];
        let db = zipf_join_db(m, domain, s, dseed);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
        let clean = alg.run(&db);

        let plan = PartitionPlan::seeded(pseed, 8, 12);
        let run = |threads: usize| {
            let mut cluster = Cluster::new(8)
                .with_parallelism(threads)
                .with_faults(FaultPlan::partitioned(0, plan.clone()));
            let report = alg.run_on(&mut cluster, &db);
            (report, cluster.held_by_partition())
        };
        let (h1, held) = run(1);
        prop_assert_eq!(&h1.output, &clean.output, "partitioned run diverged");
        prop_assert_eq!(held, 0, "held copies not drained");
        for threads in [2, 4] {
            let (ht, _) = run(threads);
            prop_assert_eq!(&ht.output, &h1.output);
            prop_assert_eq!(stats_json(&ht), stats_json(&h1), "threads={}", threads);
        }
    }
}
