//! Cross-crate integration tests: the survey's theorems exercised across
//! the MPC simulator, the parallel-correctness framework and the
//! transducer networks together.

use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;
use parlog::relal::policy::{DistributionPolicy, ExplicitPolicy};
use parlog::transducer::prelude::*;

/// Section 4.1: "every Hypercube distribution for a conjunctive query Q
/// strongly saturates Q (independent of the choices of the shares and the
/// hash functions)". Check PC0 for assorted queries, shares and seeds by
/// wrapping the HyperCube destinations as a distribution policy.
#[test]
fn hypercube_strongly_saturates_every_cq() {
    struct HcPolicy {
        hc: HypercubeAlgorithm,
    }
    impl DistributionPolicy for HcPolicy {
        fn num_nodes(&self) -> usize {
            self.hc.servers()
        }
        fn responsible(&self, node: usize, fact: &parlog::relal::Fact) -> bool {
            self.hc.destinations(fact).any(|s| s == node)
        }
    }
    let queries = [
        "H(x,y,z) <- R(x,y), S(y,z), T(z,x)",
        "H(x,y,z) <- R(x,y), S(y,z)",
        "H(x,z) <- R(x,y), R(y,z)",
        "H(x,a,b) <- R(x,a), S(x,b)",
    ];
    let universe = [Val(1), Val(2), Val(3)];
    for src in queries {
        let q = parse_query(src).unwrap();
        for p in [4, 8, 27] {
            for seed in [0u64, 99] {
                let shares = parlog::mpc::Shares::optimal(&q, p).unwrap();
                let hc = HypercubeAlgorithm::with_shares(&q, shares, seed);
                let policy = HcPolicy { hc };
                assert!(
                    parlog::pc::strongly_saturates(&q, &policy, &universe),
                    "query {src}, p={p}, seed={seed}"
                );
                // PC0 ⇒ PC1 ⇒ parallel-correct.
                assert!(parlog::pc::parallel_correct(&q, &policy, &universe));
            }
        }
    }
}

/// Parallel-correctness (PC1) agrees with the definition on random
/// explicit policies: whenever PC1 holds, every instance evaluates
/// correctly; whenever it fails, some instance witnesses it.
#[test]
fn pc1_characterization_cross_validated() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
    let universe = [Val(1), Val(2)];
    let schema = parlog::pc::query_schema(&q);
    let facts = parlog::pc::candidate_facts(&schema, &universe);
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for _ in 0..40 {
        let mut policy = ExplicitPolicy::new(2);
        for f in &facts {
            if rng.gen_bool(0.7) {
                policy.assign(rng.gen_range(0..2), f.clone());
            }
            if rng.gen_bool(0.3) {
                policy.assign(rng.gen_range(0..2), f.clone());
            }
        }
        let pc1 = parlog::pc::parallel_correct(&q, &policy, &universe);
        // Enumerate all instances over the candidate facts.
        let mut all_correct = true;
        for mask in 0u32..(1 << facts.len()) {
            let inst = Instance::from_facts(
                facts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, f)| f.clone()),
            );
            if !parlog::pc::parallel_correct_on(&q, &policy, &inst) {
                all_correct = false;
                break;
            }
        }
        assert_eq!(pc1, all_correct);
    }
}

/// All MPC algorithms agree with the centralized evaluation and with each
/// other, on skew-free and skewed triangle data.
#[test]
fn all_triangle_algorithms_agree() {
    let q = parlog::queries::triangle_join();
    for db in [
        datagen::triangle_db(300, 60, 1),
        datagen::triangle_heavy_db(300, 100, 2),
    ] {
        let expected = eval_query(&q, &db);
        let hc = HypercubeAlgorithm::new(&q, 16).unwrap().run(&db);
        let cas = CascadeJoin::new(&q, 16, 4).run(&db);
        let two = TwoRoundTriangle::new(16, 4).run(&db);
        let gym = Gym::new(&q, 16, 4).run(&db);
        for (name, r) in [
            ("hypercube", hc),
            ("cascade", cas),
            ("two-round", two),
            ("gym", gym),
        ] {
            assert_eq!(r.output, expected, "{name}");
        }
    }
}

/// Theorem 5.3 in action: a monotone query is computed consistently by
/// the coordination-free broadcast across networks, distributions and
/// schedules — and the MPC result agrees with the transducer result.
#[test]
fn synchronous_and_asynchronous_worlds_agree() {
    let db = datagen::random_graph("E", 20, 60, 5);
    let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
    let expected = eval_query(&q, &db);

    // Asynchronous.
    let program = MonotoneBroadcast::new(q.clone());
    let report = check_eventual_consistency(&program, &db, &expected, &[1, 3], &[0, 1, 2], |_| {
        Ctx::oblivious()
    });
    assert!(report.consistent(), "{:?}", report.failures);

    // Synchronous (one-round repartition join on the MPC cluster).
    let mpc_out = RepartitionJoin::new(&q, 8, 3).run(&db).output;
    assert_eq!(mpc_out, expected);
}

/// The CQ¬ decision procedure agrees with brute-force sampling on a
/// policy that is correct by colocation of the negation's certificate.
#[test]
fn neg_correctness_with_colocated_policy() {
    let q = parse_query("H(x,y) <- E(x,y), not E(y,x)").unwrap();
    // A domain-guided-style policy: each fact on node h(min value) — any
    // pair E(a,b)/E(b,a) shares {a,b}, so colocating by the unordered
    // pair makes the policy correct.
    struct PairPolicy;
    impl DistributionPolicy for PairPolicy {
        fn num_nodes(&self) -> usize {
            3
        }
        fn responsible(&self, node: usize, f: &parlog::relal::Fact) -> bool {
            let mut key: Vec<u64> = f.args.iter().map(|v| v.0).collect();
            key.sort_unstable();
            (key.iter().sum::<u64>() % 3) as usize == node
        }
    }
    let verdict = parlog::pc::parallel_correct_neg(&q, &PairPolicy, &[Val(1), Val(2)]);
    assert!(verdict.correct(), "{verdict:?}");

    // Whereas a policy splitting the pair is unsound.
    struct FirstPolicy;
    impl DistributionPolicy for FirstPolicy {
        fn num_nodes(&self) -> usize {
            2
        }
        fn responsible(&self, node: usize, f: &parlog::relal::Fact) -> bool {
            (f.args[0].0 % 2) as usize == node
        }
    }
    let verdict = parlog::pc::parallel_correct_neg(&q, &FirstPolicy, &[Val(1), Val(2)]);
    assert!(!verdict.sound);
}

/// Economical broadcasting computes full self-join-free CQs with strictly
/// less communication than the naive broadcast (Section 6).
#[test]
fn economical_broadcast_saves_communication() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    let mut db = datagen::uniform_relation("R", 60, 30, 1);
    db.extend_from(&datagen::uniform_relation("S", 60, 30, 2));
    db.extend_from(&datagen::uniform_relation("Irrelevant", 100, 30, 3));
    let expected = eval_query(&q, &db);
    let shards = hash_distribution(&db, 3, 7);

    let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(3));
    let eco_run = run(&EconomicalBroadcast::new(q.clone()), &shards, &rc);
    let naive_run = run(&MonotoneBroadcast::new(q), &shards, &rc);

    assert_eq!(eco_run.output, expected);
    assert_eq!(naive_run.output, expected);
    assert!(eco_run.facts_broadcast < naive_run.facts_broadcast);
}

/// The threaded runtime and the simulator agree on a nontrivial Datalog
/// query (transitive closure) under a random distribution.
#[test]
fn threaded_and_simulated_runtimes_agree() {
    let db = datagen::random_graph("E", 15, 40, 9);
    let p = parlog::queries::tc_program();
    let expected = parlog::datalog::eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
    let program = MonotoneBroadcast::new(p);
    let shards = random_distribution(&db, 3, 11);
    let sim = run(
        &program,
        &shards,
        &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(13)),
    )
    .output;
    let thr = run(
        &program,
        &shards,
        &RunCtx::new(Ctx::oblivious(), RunMode::Threaded),
    )
    .output;
    assert_eq!(sim, expected);
    assert_eq!(thr, expected);
}

/// Figure 1 and Figure 2 recompute without contradiction to the paper
/// (full per-cell checks live in the unit tests of `figure1`/`figure2`).
#[test]
fn figures_recompute() {
    let f1 = parlog::figure1::figure1();
    assert!(f1.transfer[2][0], "Q3 →pc Q1");
    assert!(f1.containment[0][3], "Q1 ⊆ Q4");
    let f2 = parlog::figure2::figure2();
    assert_eq!(f2.rows.len(), 5);
}
