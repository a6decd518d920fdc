//! Every numbered example of the survey, as one consolidated test file —
//! the "worked examples" contract of the reproduction. (The same facts
//! are also covered piecemeal in unit tests; this file is the reading
//! guide.)

use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;
use parlog::relal::fact::{fact, fact_syms};
use parlog::relal::policy::ExplicitPolicy;
use parlog::transducer::prelude::*;

/// **Example 3.1(1a)** — the repartition join: `O(m/p)` without skew,
/// degraded by a heavy hitter.
#[test]
fn example_3_1_1a() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    let mut skew_free = Instance::new();
    for i in 0..400u64 {
        skew_free.insert(fact("R", &[i, 10_000 + i]));
        skew_free.insert(fact("S", &[10_000 + i, 20_000 + i]));
    }
    let r = RepartitionJoin::new(&q, 16, 1).run(&skew_free);
    assert_eq!(r.output, eval_query(&q, &skew_free));
    assert!(r.stats.load_exponent > 0.8, "skew-free ≈ m/p");

    let mut skewed = datagen::heavy_hitter_relation("R", 400, 0.9, 7, 1, 0);
    skewed.extend_from(&datagen::heavy_hitter_relation("S", 400, 0.9, 7, 0, 50_000));
    let r = RepartitionJoin::new(&q, 16, 1).run(&skewed);
    assert!(
        r.stats.load_exponent < 0.3,
        "skew concentrates the load: exponent {}",
        r.stats.load_exponent
    );
}

/// **Example 3.1(1b)** — the grouped join: `O(m/√p)` independent of skew.
#[test]
fn example_3_1_1b() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    let mut skewed = datagen::heavy_hitter_relation("R", 400, 0.9, 7, 1, 0);
    skewed.extend_from(&datagen::heavy_hitter_relation("S", 400, 0.9, 7, 0, 50_000));
    let r = GroupedJoin::new(&q, 16, 1).run(&skewed);
    assert_eq!(r.output, eval_query(&q, &skewed));
    assert!(
        (r.stats.load_exponent - 0.5).abs() < 0.12,
        "grouped ≈ m/√p even under skew: {}",
        r.stats.load_exponent
    );
}

/// **Example 3.1(2)** — the triangle by a cascade of binary joins: two
/// rounds.
#[test]
fn example_3_1_2() {
    let q = parlog::queries::triangle_join();
    let db = datagen::triangle_db(150, 30, 1);
    let r = CascadeJoin::new(&q, 8, 1).run(&db);
    assert_eq!(r.output, eval_query(&q, &db));
    assert_eq!(r.stats.rounds, 2);
    // And as a MapReduce program (the survey's preferred specification
    // formalism for MPC algorithms).
    let mr = parlog::mpc::mapreduce::triangle_cascade_program().run(&db, 8, 1);
    assert_eq!(mr.output, eval_query(&q, &db));
}

/// **Example 3.2** — HyperCube shares `α_x α_y α_z = p`, replication
/// `α` per relation, strong saturation.
#[test]
fn example_3_2() {
    let q = parlog::queries::triangle_join();
    let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
    assert_eq!(hc.shares().shares, vec![3, 3, 3]);
    assert_eq!(hc.destinations(&fact("R", &[5, 6])).len(), 3);
    let db = datagen::triangle_db(120, 25, 2);
    assert_eq!(hc.run(&db).output, eval_query(&q, &db));
}

/// **Example 4.1** — `[Qe,P1](Ie)` correct, `[Qe,P2](Ie) = ∅` (modulo
/// the paper's H(a,b)-for-H(a,a) typo, documented in DESIGN.md).
#[test]
fn example_4_1() {
    let q = parse_query("H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1)").unwrap();
    let ie = Instance::from_facts([
        fact_syms("R", &["a", "b"]),
        fact_syms("R", &["b", "a"]),
        fact_syms("R", &["b", "c"]),
        fact_syms("S", &["a", "a"]),
        fact_syms("S", &["c", "a"]),
    ]);
    let mut p1 = ExplicitPolicy::new(2);
    let mut p2 = ExplicitPolicy::new(2);
    for f in ie.iter() {
        if f.rel == parlog::relal::symbols::rel("R") {
            p1.assign(0, f.clone());
            p1.assign(1, f.clone());
            p2.assign(0, f.clone());
        } else {
            p1.assign(usize::from(f.args[0] != f.args[1]), f.clone());
            p2.assign(1, f.clone());
        }
    }
    assert!(parlog::pc::parallel_correct_on(&q, &p1, &ie));
    assert!(parlog::pc::parallel_result(&q, &p2, &ie).is_empty());
    assert_eq!(
        eval_query(&q, &ie).sorted_facts(),
        vec![fact_syms("H", &["a", "a"]), fact_syms("H", &["a", "c"])]
    );
}

/// **Example 4.3** — PC0 fails, PC1 holds: the strict gap.
#[test]
fn example_4_3() {
    let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
    let policy = parlog::pc::example_4_3_policy();
    let u = [Val(1), Val(2)];
    assert!(!strongly_saturates(&q, &policy, &u));
    assert!(saturates(&q, &policy, &u));
}

/// **Example 4.5** — V1 is not minimal, V2 is.
#[test]
fn example_4_5() {
    let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
    let v1 = Valuation::of(&[("x", 1), ("y", 2), ("z", 1)]);
    let v2 = Valuation::of(&[("x", 1), ("y", 1), ("z", 1)]);
    assert!(!parlog::relal::minimal::is_minimal(&q, &v1));
    assert!(parlog::relal::minimal::is_minimal(&q, &v2));
    assert_eq!(v1.derived_fact(&q), v2.derived_fact(&q));
}

/// **Example 4.11 / Figure 1** — transfer and containment are orthogonal.
#[test]
fn example_4_11() {
    let [q1, q2, q3, q4] = parlog::queries::example_4_11();
    use parlog::relal::containment::contains;
    assert!(pc_transfers(&q3, &q1), "the survey's Q3 →pc Q1");
    assert!(contains(&q3, &q4) && pc_transfers(&q3, &q4));
    assert!(contains(&q2, &q4) && pc_transfers(&q4, &q2) && !pc_transfers(&q2, &q4));
    assert!(pc_transfers(&q3, &q2) && !contains(&q3, &q2) && !contains(&q2, &q3));
    assert!(contains(&q1, &q4) && !pc_transfers(&q1, &q4) && !pc_transfers(&q4, &q1));
}

/// **Example 5.1(1)** — triangles via the naive broadcast: correct on
/// every network/distribution/schedule, coordination-free.
#[test]
fn example_5_1_1() {
    let q = parlog::queries::graph_triangles();
    let db = datagen::random_graph("E", 18, 50, 4);
    let expected = eval_query(&q, &db);
    let program = MonotoneBroadcast::new(q);
    let report = check_eventual_consistency(&program, &db, &expected, &[1, 3], &[0, 1], |_| {
        Ctx::oblivious()
    });
    assert!(report.consistent());
    assert!(check_coordination_free(
        &program,
        &db,
        &expected,
        3,
        Ctx::oblivious()
    ));
}

/// **Example 5.1(2)** — open triangles need the coordination protocol:
/// correct, but never outputs without reading messages.
#[test]
fn example_5_1_2() {
    let q = parlog::queries::open_triangles();
    let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[3, 4])]);
    let expected = eval_query(&q, &db);
    assert!(!expected.is_empty());
    let program = CoordinatedBroadcast::new(q);
    let report = check_eventual_consistency(&program, &db, &expected, &[2, 3], &[0], Ctx::aware);
    assert!(report.consistent());
    assert!(!check_coordination_free(
        &program,
        &db,
        &expected,
        3,
        Ctx::aware(3)
    ));
}

/// **Example 5.4** — policy-awareness makes open triangles
/// coordination-free (class F1).
#[test]
fn example_5_4() {
    use parlog::relal::policy::DomainGuidedPolicy;
    use parlog::transducer::distribution::policy_distribution;
    use std::sync::Arc;
    let q = parlog::queries::open_triangles();
    let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[3, 4])]);
    let expected = eval_query(&q, &db);
    let policy = Arc::new(DomainGuidedPolicy::new(3, 9));
    let shards = policy_distribution(&db, policy.as_ref());
    let program = PolicyAwareCq::new(q);
    let ctx = Ctx::oblivious().with_policy(policy);
    let out = run(
        &program,
        &shards,
        &RunCtx::simulated(ctx, Schedule::Random(2)),
    )
    .output;
    assert_eq!(out, expected);
}

/// **Example 5.6** — open triangles ∈ Mdistinct; ¬TC ∉ Mdistinct.
#[test]
fn example_5_6() {
    use parlog::calm::{domain_distinct_counterexample, validate_witness, Schema};
    let open = parlog::queries::open_triangles();
    let schema = Schema::binary(&["E"]);
    assert!(domain_distinct_counterexample(&open, &schema, 2, 1).is_none());
    let ntc = parlog::figure2::datalog_query(parlog::queries::ntc_program(), "NTC");
    let i = Instance::from_facts([fact("E", &[1, 2])]);
    let j = Instance::from_facts([fact("E", &[2, 3]), fact("E", &[3, 1])]);
    validate_witness(&ntc, &i, &j, 1).unwrap();
}

/// **Example 5.10** — ¬TC ∈ Mdisjoint; QNT ∉ Mdisjoint.
#[test]
fn example_5_10() {
    use parlog::calm::{domain_disjoint_counterexample, validate_witness, Schema};
    let ntc = parlog::figure2::datalog_query(parlog::queries::ntc_program(), "NTC");
    assert!(domain_disjoint_counterexample(&ntc, &Schema::binary(&["E"]), 2, 1).is_none());
    let qnt = parlog::figure2::datalog_query(parlog::queries::qnt_program(), "OUT");
    let i = Instance::from_facts([fact("E", &[1, 1]), fact("E", &[2, 2])]);
    let j = Instance::from_facts([fact("E", &[4, 5]), fact("E", &[5, 6]), fact("E", &[6, 4])]);
    validate_witness(&qnt, &i, &j, 2).unwrap();
}

/// **Example 5.13** — ¬TC is semi-connected stratified; QNT is not
/// (its `S` rule is disconnected).
#[test]
fn example_5_13() {
    use parlog::datalog::analysis::{is_connected_rule, is_semi_connected};
    assert!(is_semi_connected(&parlog::queries::ntc_program()));
    let qnt = parlog::queries::qnt_program();
    assert!(!is_semi_connected(&qnt));
    assert!(
        !is_connected_rule(&qnt.rules[1]),
        "the S rule is the culprit"
    );
    // And ¬TC evaluates correctly through the engine.
    let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
    let out =
        parlog::datalog::eval_program(&parlog::queries::ntc_program(), &db, EvalStrategy::Indexed)
            .unwrap();
    assert!(out.contains(&fact("NTC", &[3, 1])));
    assert!(!out.contains(&fact("NTC", &[1, 3])));
}

/// **Section 5.3** — win–move under the well-founded semantics: true,
/// false and drawn positions.
#[test]
fn win_move_example() {
    use parlog::datalog::wellfounded::{well_founded, win_move_program, TruthValue};
    let game = Instance::from_facts([
        fact("Move", &[0, 1]),
        fact("Move", &[1, 2]),
        fact("Move", &[3, 4]),
        fact("Move", &[4, 3]),
    ]);
    let m = well_founded(&win_move_program(), &game).unwrap();
    assert_eq!(m.value_of(&fact("Win", &[1])), TruthValue::True);
    assert_eq!(m.value_of(&fact("Win", &[0])), TruthValue::False);
    assert_eq!(m.value_of(&fact("Win", &[3])), TruthValue::Undefined);
    assert_eq!(m.value_of(&fact("Win", &[4])), TruthValue::Undefined);
}
