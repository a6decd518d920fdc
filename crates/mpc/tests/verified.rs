//! Property tests for the proof-carrying answer layer on the cluster
//! (PR 6):
//!
//! (a) the content-addressed snapshot root is byte-identical across
//!     evaluation strategies, `with_parallelism` thread counts, fact
//!     insertion orders and serialization round-trips;
//! (b) the trusted checker accepts every fault-free answer, whatever
//!     strategy or thread count produced it;
//! (c) the checker rejects 100% of seeded single-server corruptions,
//!     and the verified round quarantines + heals so the committed
//!     union equals the fault-free answer;
//! (d) the Detect → Quarantine → Heal sequence is visible, in order,
//!     on the trace timeline.

use proptest::prelude::*;

use parlog_faults::{CorruptKind, FaultPlan};
use parlog_mpc::cluster::Cluster;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::UnionQuery;
use parlog_trace::{FaultEventKind, MemSink, TraceHandle};
use parlog_verify::checker::check_cluster;
use parlog_verify::snapshot::snapshot;
use parlog_verify::{prove_ucq, to_json};
use std::sync::Arc;

const STRATEGIES: [EvalStrategy; 4] = [
    EvalStrategy::Naive,
    EvalStrategy::Indexed,
    EvalStrategy::Wcoj,
    EvalStrategy::Auto,
];

fn two_rel_db(max_facts: usize, domain: u64) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0..domain, 0..domain, 0..2u64), 1..max_facts).prop_map(|triples| {
        Instance::from_facts(triples.into_iter().map(|(a, b, r)| {
            if r == 0 {
                fact("R", &[a, b])
            } else {
                fact("S", &[a, b])
            }
        }))
    })
}

fn seeded_cluster(db: &Instance, p: usize, threads: usize) -> Cluster {
    let mut c = Cluster::new(p).with_parallelism(threads);
    for s in 0..p {
        c.place(s, db.iter().skip(s).step_by(p).cloned());
    }
    c
}

fn join_query() -> UnionQuery {
    UnionQuery::new(vec![parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) The snapshot root is a pure function of the fact *set*:
    /// insertion order, evaluation strategy, worker-pool width and a
    /// serialization round-trip (rebuilding from the serialized sorted
    /// fact list) all leave it byte-identical.
    #[test]
    fn snapshot_root_is_representation_independent(
        db in two_rel_db(28, 9),
        threads in 1usize..4,
        perm_seed in 0u64..1000,
    ) {
        let root = snapshot(&db);

        // Insertion order: re-insert the facts in a seed-rotated order.
        let mut facts: Vec<_> = db.iter().cloned().collect();
        let n = facts.len();
        facts.rotate_left((perm_seed as usize) % n.max(1));
        prop_assert_eq!(snapshot(&Instance::from_facts(facts)), root);

        // Serialization round-trip: the serialized form is the sorted
        // fact list; rebuilding from it preserves the root, and the
        // JSON bytes themselves are stable.
        let rebuilt = Instance::from_facts(db.sorted_facts());
        prop_assert_eq!(snapshot(&rebuilt), root);
        prop_assert_eq!(to_json(&root), to_json(&snapshot(&rebuilt)));

        // Strategy and thread count: the committed answer shards (and
        // so their roots and certificates) are byte-identical.
        let u = join_query();
        let reference: Vec<String> = {
            let mut c = seeded_cluster(&db, 3, 1);
            c.compute_union_verified(&u, EvalStrategy::Naive, true);
            (0..3).map(|s| to_json(&snapshot(&c.local(s)))).collect()
        };
        for strategy in STRATEGIES {
            let mut c = seeded_cluster(&db, 3, threads);
            let round = c.compute_union_verified(&u, strategy, true);
            prop_assert!(round.clean());
            for (s, want) in reference.iter().enumerate() {
                prop_assert_eq!(&to_json(&snapshot(&c.local(s))), want);
            }
        }
    }

    /// (b) Fault-free answers pass the cluster-level check for every
    /// strategy, and the certificates they carry are byte-identical.
    #[test]
    fn checker_accepts_every_faultfree_answer(
        db in two_rel_db(24, 8),
        p in 1usize..5,
    ) {
        let u = join_query();
        let shards: Vec<Instance> = {
            let c = seeded_cluster(&db, p, 1);
            (0..p).map(|s| c.local(s).clone()).collect()
        };
        let mut reference_bytes: Option<Vec<String>> = None;
        for strategy in STRATEGIES {
            let proved: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(s, shard)| prove_ucq(s, &u, shard, strategy))
                .collect();
            let answers: Vec<Instance> = proved.iter().map(|(a, _)| a.clone()).collect();
            let certs: Vec<_> = proved.into_iter().map(|(_, c)| c).collect();
            prop_assert!(check_cluster(&u, &shards, &answers, &certs).is_ok());
            let bytes: Vec<String> = certs.iter().map(to_json).collect();
            match &reference_bytes {
                None => reference_bytes = Some(bytes),
                Some(r) => prop_assert_eq!(r, &bytes),
            }
        }
    }

    /// (c) Every seeded single-server corruption is rejected by the
    /// checker, the verified round quarantines exactly the lying
    /// server, and the healed commit equals the fault-free answer.
    #[test]
    fn every_seeded_corruption_is_detected_and_healed(
        db in two_rel_db(24, 8),
        seed in 0u64..500,
        kind_idx in 0usize..3,
        victim in 0usize..3,
    ) {
        let u = join_query();
        let kind = CorruptKind::ALL[kind_idx];
        let truth = {
            let mut c = seeded_cluster(&db, 3, 1);
            c.compute_union_verified(&u, EvalStrategy::Indexed, true);
            c.union_all()
        };
        let plan = FaultPlan::none(seed).with_corruption(0, victim, kind);
        let mut c = seeded_cluster(&db, 3, 1).with_faults(plan);
        let round = c.compute_union_verified(&u, EvalStrategy::Indexed, true);
        prop_assert_eq!(&round.corrupted, &vec![victim]);
        prop_assert_eq!(round.detected.len(), 1, "corruption slipped past the checker");
        prop_assert_eq!(round.detected[0].0, victim);
        prop_assert_eq!(&round.healed, &vec![victim]);
        prop_assert!(c.quarantined()[victim]);
        prop_assert_eq!(c.union_all(), truth);
    }
}

#[test]
fn detect_quarantine_heal_visible_on_the_timeline() {
    let db = Instance::from_facts(
        (0..10u64).flat_map(|i| [fact("R", &[i, i + 1]), fact("S", &[i + 1, i + 2])]),
    );
    let sink = Arc::new(MemSink::new());
    let plan = FaultPlan::none(13).with_corruption(0, 1, CorruptKind::Mutate);
    let mut c = seeded_cluster(&db, 3, 1)
        .with_faults(plan)
        .with_trace(TraceHandle::to(sink.clone()));
    let shard1_root = snapshot(&c.local(1));
    let round = c.compute_union_verified(&join_query(), EvalStrategy::Indexed, true);
    assert_eq!(round.detected.len(), 1);

    let tl = sink.timeline();
    let pos = |k: FaultEventKind| tl.iter().position(|e| e.kind == k).expect("event present");
    assert!(pos(FaultEventKind::Corrupt) < pos(FaultEventKind::Detect));
    assert!(pos(FaultEventKind::Detect) < pos(FaultEventKind::Quarantine));
    assert!(pos(FaultEventKind::Quarantine) < pos(FaultEventKind::Heal));
    // Detect binds the rejection to the *input* shard's content address
    // (the shard as it stood when the round was proved, before the
    // healed answers were committed into it).
    let detect = tl
        .iter()
        .find(|e| e.kind == FaultEventKind::Detect)
        .unwrap();
    assert_eq!(detect.node, 1);
    assert_eq!(detect.info, shard1_root.short());
}

#[test]
fn verified_round_matches_unverified_compute_when_honest() {
    // The verified path is a drop-in for compute_query when nobody lies:
    // same committed state, same union.
    let db = Instance::from_facts(
        (0..12u64).flat_map(|i| [fact("R", &[i, i + 1]), fact("S", &[i + 1, i + 3])]),
    );
    let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
    let mut plain = seeded_cluster(&db, 4, 1);
    plain.compute_query(&q, EvalStrategy::Indexed);
    let mut verified = seeded_cluster(&db, 4, 1);
    verified.compute_union_verified(
        &UnionQuery::new(vec![q.clone()]),
        EvalStrategy::Indexed,
        true,
    );
    for s in 0..4 {
        assert_eq!(plain.local(s), verified.local(s));
    }
    assert_eq!(plain.union_all(), verified.union_all());
}
