//! Table-driven CALM matrix: transducer programs × distributions ×
//! schedules × network sizes, plus the negative diagonals (wrong program
//! for the class ⇒ detectable inconsistency; coordination-freeness holds
//! exactly where the survey says).

use parlog::figure2::datalog_query;
use parlog::prelude::*;
use parlog::relal::policy::{DomainGuidedPolicy, ReplicateAll};
use parlog::transducer::distribution::{ideal_distribution, policy_distribution};
use parlog::transducer::prelude::*;
use std::sync::Arc;

fn graph() -> Instance {
    use parlog::relal::fact::fact;
    Instance::from_facts([
        fact("E", &[1, 2]),
        fact("E", &[2, 3]),
        fact("E", &[3, 1]), // closed triangle 1-2-3
        fact("E", &[2, 4]), // (1,2,4) and (4,…) stay open
        fact("E", &[4, 5]),
        fact("E", &[10, 11]),
        fact("E", &[11, 12]),
        fact("E", &[12, 10]), // second component, closed
    ])
}

/// F0 row: monotone queries under the monotone broadcast, all standard
/// distributions, all schedules, several network sizes.
#[test]
fn f0_matrix() {
    for (name, query) in [
        ("triangles", parlog::queries::graph_triangles()),
        ("two-hop", parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap()),
        ("loops", parse_query("H(x) <- E(x,x)").unwrap()),
    ] {
        let db = graph();
        let expected = eval_query(&query, &db);
        let program = MonotoneBroadcast::new(query);
        let report =
            check_eventual_consistency(&program, &db, &expected, &[1, 2, 5], &[0, 7], |_| {
                Ctx::oblivious()
            });
        assert!(report.consistent(), "{name}: {:?}", report.failures);
        assert!(
            check_coordination_free(&program, &db, &expected, 3, Ctx::oblivious()),
            "{name} must be coordination-free"
        );
    }
}

/// F1 row: the open-triangle query under policy-aware programs and
/// domain-guided policies of several sizes and seeds.
#[test]
fn f1_matrix() {
    let q = parlog::queries::open_triangles();
    let db = graph();
    let expected = eval_query(&q, &db);
    assert!(!expected.is_empty());
    let program = PolicyAwareCq::new(q);
    for n in [2usize, 3, 4] {
        for pseed in [5u64, 17] {
            let policy = Arc::new(DomainGuidedPolicy::new(n, pseed));
            let shards = policy_distribution(&db, policy.as_ref());
            for schedule in [Schedule::Random(3), Schedule::Fifo, Schedule::Lifo] {
                let ctx = Ctx::oblivious().with_policy(policy.clone());
                let out = run(&program, &shards, &RunCtx::simulated(ctx, schedule)).output;
                assert_eq!(out, expected, "n={n} pseed={pseed} {schedule:?}");
            }
        }
    }
    // Coordination-free via the replicate-all witness.
    let ctx = Ctx::oblivious().with_policy(Arc::new(ReplicateAll { num_nodes: 3 }));
    let out = run(
        &program,
        &ideal_distribution(&db, 3),
        &RunCtx::new(ctx, RunMode::HeartbeatsOnly),
    )
    .output;
    assert_eq!(out, expected);
}

/// F2 row: ¬TC and win–move under domain-guided component evaluation.
#[test]
fn f2_matrix() {
    let ntc = datalog_query(parlog::queries::ntc_program(), "NTC");
    let db = graph();
    let expected = ntc.eval(&db);
    for n in [2usize, 3] {
        for pseed in [13u64, 29] {
            let policy = Arc::new(DomainGuidedPolicy::new(n, pseed));
            let shards = policy_distribution(&db, policy.as_ref());
            let program =
                DisjointComponent::new(datalog_query(parlog::queries::ntc_program(), "NTC"));
            for schedule in [Schedule::Random(9), Schedule::Lifo] {
                let ctx = Ctx::oblivious().with_policy(policy.clone());
                let out = run(&program, &shards, &RunCtx::simulated(ctx, schedule)).output;
                assert_eq!(out, expected, "n={n} pseed={pseed} {schedule:?}");
            }
        }
    }
}

/// Negative diagonal: running a class-too-weak program on a harder query
/// is *detected* by the consistency checker (CALM's only-if direction,
/// observed empirically).
#[test]
fn class_violations_are_detected() {
    let db = graph();
    // Monotone broadcast on the (non-monotone) open-triangle query.
    let q = parlog::queries::open_triangles();
    let expected = eval_query(&q, &db);
    let wrong = MonotoneBroadcast::new(q);
    let report =
        check_eventual_consistency(&wrong, &db, &expected, &[3], &[0, 1], |_| Ctx::oblivious());
    assert!(
        !report.consistent(),
        "a non-monotone query cannot be computed by the F0 strategy"
    );
}

/// The coordinated (barrier) program works for arbitrary queries but is
/// never coordination-free beyond a single node.
#[test]
fn coordination_is_necessary_and_sufficient_for_qnt() {
    // QNT is outside Mdisjoint: only the barrier program handles it. Use
    // a triangle-free database so QNT's output is nonempty — on an empty
    // expected output the heartbeat-only run would vacuously "succeed".
    use parlog::relal::fact::fact;
    let qnt = datalog_query(parlog::queries::qnt_program(), "OUT");
    let db = Instance::from_facts([
        fact("E", &[1, 2]),
        fact("E", &[2, 3]),
        fact("E", &[3, 4]),
        fact("E", &[10, 11]),
    ]);
    let expected = qnt.eval(&db);
    assert_eq!(expected.len(), 4, "triangle-free: QNT returns all edges");
    let program = CoordinatedBroadcast::new(datalog_query(parlog::queries::qnt_program(), "OUT"));
    let report = check_eventual_consistency(&program, &db, &expected, &[1, 3], &[0, 1], Ctx::aware);
    assert!(report.consistent(), "{:?}", report.failures);
    assert!(!check_coordination_free(
        &program,
        &db,
        &expected,
        3,
        Ctx::aware(3)
    ));
}

/// Exhaustive model checking on a minimal instance for all three
/// coordination-free strategies.
#[test]
fn exhaustive_verification_of_f0() {
    use parlog::relal::fact::fact;
    let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 1])]);
    let q = parse_query("H(x) <- E(x,y), E(y,x)").unwrap();
    let expected = eval_query(&q, &db);
    let program = MonotoneBroadcast::new(q);
    let shards = hash_distribution(&db, 2, 1);
    let report = parlog::transducer::exhaustive::explore_schedules(
        &program,
        &shards,
        Ctx::oblivious(),
        &expected,
        300_000,
        0,
        0,
    );
    assert!(report.verified(), "{:?}", report.violations);
    assert!(report.quiescent_clean >= 1);
}
