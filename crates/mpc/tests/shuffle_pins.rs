//! Pins of the four `mpc_shuffle` job kinds on the benchmark's small
//! spec, and of the seeded placements.
//!
//! Each job kind — HyperCube on the triangle, the skew-adaptive join,
//! GYM on the 4-path and the verified HyperCube round — is run on inputs
//! of the scaled-down benchmark's shape (servers and facts per relation
//! as in `parlog-perf`'s `Size::Small`), at parallelism 1 and 2. Every
//! per-round `received` vector, the output (size and a digest of its
//! sorted facts) and, for the verified round, the certificate bill and
//! the input root are pinned exactly. A moved pin is a change of routing,
//! delivery accounting or local evaluation, not noise.

use parlog_mpc::cluster::Cluster;
use parlog_mpc::datagen;
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_mpc::prelude::*;
use parlog_mpc::SkewConfig;
use parlog_relal::eval::{eval_query, EvalStrategy};
use parlog_relal::fact::{fact, Fact, Val};
use parlog_relal::fastmap::hash_u64;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::UnionQuery;

/// `(len, digest)` of a fact set: a hash chain over its sorted facts.
fn digest(inst: &Instance) -> (usize, u64) {
    let mut h = 0u64;
    for f in inst.sorted_facts() {
        h = hash_u64(h, f.args.len() as u64);
        for v in f.args.iter() {
            h = hash_u64(h, v.0);
        }
    }
    (inst.len(), h)
}

fn received(c: &Cluster) -> Vec<Vec<usize>> {
    c.rounds().iter().map(|r| r.received.clone()).collect()
}

fn pinned(rounds: &[&[usize]]) -> Vec<Vec<usize>> {
    rounds.iter().map(|r| r.to_vec()).collect()
}

fn triangle_input(m: usize, seed: u64) -> Instance {
    datagen::triangle_db(m, m as u64, seed)
}

#[test]
fn hc_triangle_is_pinned() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let db = triangle_input(120, 50);
    let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
    for threads in [1, 2] {
        let mut c = Cluster::new(hc.servers()).with_parallelism(threads);
        seed_cluster(&mut c, &db, InitialPartition::RoundRobin);
        c.communicate(|f| hc.destinations(f));
        c.compute_query(&q, EvalStrategy::Auto);
        let out = c.union_all();
        assert_eq!(out, eval_query(&q, &db));
        assert_eq!(received(&c), pinned(HC_RECEIVED), "threads={threads}");
        assert_eq!(digest(&out), HC_OUTPUT, "threads={threads}");
    }
}

#[test]
fn skew_join_is_pinned() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    let mut db = datagen::zipf_relation_at("R", 100, 40, 1.0, 30, 1);
    db.extend_from(&datagen::zipf_relation_at("S", 100, 40, 1.0, 31, 0));
    let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
    for threads in [1, 2] {
        let mut c = Cluster::new(alg.servers()).with_parallelism(threads);
        let r = alg.run_on(&mut c, &db);
        assert_eq!(r.output, eval_query(&q, &db));
        assert_eq!(received(&c), pinned(SKEW_RECEIVED), "threads={threads}");
        assert_eq!(digest(&r.output), SKEW_OUTPUT, "threads={threads}");
    }
}

#[test]
fn gym_path_is_pinned() {
    let q = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
    let mut db = Instance::new();
    for (k, r) in ["R", "S", "T"].into_iter().enumerate() {
        db.extend_from(&datagen::uniform_relation(r, 80, 40, 40 + k as u64));
    }
    let r = Gym::new(&q, 8, 11).run(&db);
    assert_eq!(r.output, eval_query(&q, &db));
    let s = &r.stats;
    assert_eq!((s.rounds, s.max_load, s.total_comm), GYM_STATS);
    assert_eq!(digest(&r.output), GYM_OUTPUT);
}

#[test]
fn hc_triangle_verified_is_pinned() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let db = triangle_input(60, 60);
    let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
    let u = UnionQuery::new(vec![q.clone()]);
    for threads in [1, 2] {
        let mut c = Cluster::new(hc.servers()).with_parallelism(threads);
        seed_cluster(&mut c, &db, InitialPartition::RoundRobin);
        c.communicate(|f| hc.destinations(f));
        let round = c.compute_union_verified(&u, EvalStrategy::Auto, true);
        assert!(round.clean());
        let out = c.union_all();
        assert_eq!(out, eval_query(&q, &db));
        assert_eq!(received(&c), pinned(VER_RECEIVED), "threads={threads}");
        assert_eq!(digest(&out), VER_OUTPUT, "threads={threads}");
        assert_eq!(round.cert_bytes, VER_CERT_BYTES);
        assert_eq!(round.input_root.short(), VER_ROOT);
    }
}

/// Seeded placement on a db with a relation of two arities: which facts
/// each server holds, per placement.
#[test]
fn seeded_placement_is_pinned_with_mixed_arity() {
    let mut db = Instance::from_facts((0..7u64).map(|i| fact("R", &[i % 3, i])));
    db.extend_from(&Instance::from_facts((0..5u64).map(|i| {
        Fact::new(parlog_relal::symbols::rel("R"), [Val(i), Val(1), Val(i)])
    })));
    db.extend_from(&Instance::from_facts((0..4u64).map(|i| fact("S", &[i]))));
    let placements = [
        InitialPartition::RoundRobin,
        InitialPartition::HashTuple { seed: 9 },
        InitialPartition::SingleServer,
    ];
    for (how, want) in placements.into_iter().zip(PLACED) {
        let mut c = Cluster::new(3);
        seed_cluster(&mut c, &db, how);
        let got: Vec<Vec<String>> = (0..3)
            .map(|s| {
                c.local(s)
                    .sorted_facts()
                    .iter()
                    .map(|f| f.to_string())
                    .collect()
            })
            .collect();
        let want: Vec<Vec<String>> = want
            .iter()
            .map(|server| server.iter().map(|f| f.to_string()).collect())
            .collect();
        assert_eq!(got, want, "{how:?}");
    }
}

const HC_RECEIVED: &[&[usize]] = &[&[90, 94, 75, 97, 87, 91, 82, 104]];
const HC_OUTPUT: (usize, u64) = (3, 8617827886343368998);
const SKEW_RECEIVED: &[&[usize]] = &[&[15, 23, 10, 60, 24, 47, 12, 9]];
const SKEW_OUTPUT: (usize, u64) = (914, 11830148522195722676);
const GYM_STATS: (usize, usize, usize) = (7, 45, 1197);
const GYM_OUTPUT: (usize, u64) = (291, 7919094634806933398);
const VER_RECEIVED: &[&[usize]] = &[&[58, 48, 52, 60, 37, 27, 35, 43]];
const VER_OUTPUT: (usize, u64) = (3, 8617827886343368998);
const VER_CERT_BYTES: usize = 1774;
const VER_ROOT: u64 = 6861073937761674799;
const PLACED: [&[&[&str]]; 3] = [
    &[
        &["R(0,0)", "R(0,6)", "R(1,4)", "R(2,5)", "S(0)", "S(3)"],
        &["R(0,1,0)", "R(1,1)", "R(2,1,2)", "R(3,1,3)", "S(1)"],
        &["R(0,3)", "R(1,1,1)", "R(2,2)", "R(4,1,4)", "S(2)"],
    ],
    &[
        &["R(1,1,1)", "R(4,1,4)", "S(1)"],
        &[
            "R(0,0)", "R(0,6)", "R(2,1,2)", "R(2,5)", "R(3,1,3)", "S(0)", "S(2)",
        ],
        &["R(0,1,0)", "R(0,3)", "R(1,1)", "R(1,4)", "R(2,2)", "S(3)"],
    ],
    &[
        &[
            "R(0,0)", "R(0,1,0)", "R(0,3)", "R(0,6)", "R(1,1)", "R(1,1,1)", "R(1,4)", "R(2,1,2)",
            "R(2,2)", "R(2,5)", "R(3,1,3)", "R(4,1,4)", "S(0)", "S(1)", "S(2)", "S(3)",
        ],
        &[],
        &[],
    ],
];
