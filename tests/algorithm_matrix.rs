//! Table-driven agreement matrix: every MPC algorithm × every query it
//! supports × several databases × several cluster sizes, all checked
//! against the centralized evaluator. The survey's algorithms differ in
//! loads and rounds — never in answers.

use parlog::mpc::algorithms::balanced_cascade::BalancedCascade;
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;

fn dbs_for(rels: &[&str], seed: u64) -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    // Uniform.
    let mut uni = Instance::new();
    for (i, r) in rels.iter().enumerate() {
        uni.extend_from(&datagen::uniform_relation(r, 120, 35, seed + i as u64));
    }
    out.push(("uniform".into(), uni));
    // Zipf-skewed first relation.
    let mut zipf = datagen::zipf_relation(rels[0], 120, 60, 1.1, seed);
    for (i, r) in rels.iter().enumerate().skip(1) {
        zipf.extend_from(&datagen::uniform_relation(r, 120, 60, seed + 10 + i as u64));
    }
    out.push(("zipf".into(), zipf));
    // Tiny edge-case db.
    let mut tiny = Instance::new();
    for r in rels {
        tiny.insert(parlog::relal::fact::fact(r, &[1, 1]));
        tiny.insert(parlog::relal::fact::fact(r, &[1, 2]));
    }
    out.push(("tiny".into(), tiny));
    // Empty.
    out.push(("empty".into(), Instance::new()));
    out
}

#[test]
fn two_atom_algorithms_agree_everywhere() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    for (db_name, db) in dbs_for(&["R", "S"], 1) {
        let expected = eval_query(&q, &db);
        for p in [1usize, 2, 7, 16] {
            let runs = vec![
                RepartitionJoin::new(&q, p, 3).run(&db),
                GroupedJoin::new(&q, p, 3).run(&db),
                HypercubeAlgorithm::new(&q, p).unwrap().run(&db),
                CascadeJoin::new(&q, p, 3).run(&db),
                BalancedCascade::new(&q, p, 3).run(&db),
            ];
            for r in runs {
                assert_eq!(
                    r.output, expected,
                    "{} on {db_name} with p = {p}",
                    r.algorithm
                );
            }
        }
    }
}

#[test]
fn triangle_algorithms_agree_everywhere() {
    let q = parlog::queries::triangle_join();
    for (db_name, db) in [
        ("triangle".to_string(), datagen::triangle_db(180, 40, 2)),
        ("skewed".to_string(), datagen::triangle_heavy_db(180, 60, 2)),
        ("empty".to_string(), Instance::new()),
    ] {
        let expected = eval_query(&q, &db);
        for p in [2usize, 9, 16] {
            let runs = vec![
                HypercubeAlgorithm::new(&q, p).unwrap().run(&db),
                CascadeJoin::new(&q, p, 5).run(&db),
                BalancedCascade::new(&q, p, 5).run(&db),
                TwoRoundTriangle::new(p, 5).run(&db),
                Gym::new(&q, p, 5).run(&db),
            ];
            for r in runs {
                assert_eq!(
                    r.output, expected,
                    "{} on {db_name} with p = {p}",
                    r.algorithm
                );
            }
        }
    }
}

#[test]
fn acyclic_algorithms_agree_everywhere() {
    for src in [
        "H(x,w) <- R(x,y), S(y,z), T(z,w)",
        "H(x) <- R(x,y), S(y,z)",
        "H(x,a,b) <- R(x,a), S(x,b)",
    ] {
        let q = parse_query(src).unwrap();
        let rels: Vec<&str> = ["R", "S", "T"]
            .iter()
            .copied()
            .filter(|r| q.body_relations().contains(&parlog::relal::symbols::rel(r)))
            .collect();
        for (db_name, db) in dbs_for(&rels, 7) {
            let expected = eval_query(&q, &db);
            for p in [2usize, 8] {
                let runs = vec![
                    DistributedYannakakis::new(&q, p, 1).run(&db),
                    Gym::new(&q, p, 1).run(&db),
                    CascadeJoin::new(&q, p, 1).run(&db),
                    HypercubeAlgorithm::new(&q, p).unwrap().run(&db),
                ];
                for r in runs {
                    assert_eq!(
                        r.output, expected,
                        "{} for {src} on {db_name} with p = {p}",
                        r.algorithm
                    );
                }
            }
        }
    }
}

#[test]
fn self_join_queries_agree() {
    let q = parse_query("H(x,z) <- R(x,y), R(y,z)").unwrap();
    for (db_name, db) in [
        ("graph".to_string(), datagen::random_graph("R", 25, 70, 3)),
        ("loops".to_string(), {
            Instance::from_facts((0..10u64).flat_map(|i| {
                [
                    parlog::relal::fact::fact("R", &[i, i]),
                    parlog::relal::fact::fact("R", &[i, i + 1]),
                ]
            }))
        }),
    ] {
        let expected = eval_query(&q, &db);
        for p in [3usize, 8] {
            let runs = vec![
                HypercubeAlgorithm::new(&q, p).unwrap().run(&db),
                CascadeJoin::new(&q, p, 9).run(&db),
                DistributedYannakakis::new(&q, p, 9).run(&db),
            ];
            for r in runs {
                assert_eq!(r.output, expected, "{} on {db_name} p={p}", r.algorithm);
            }
        }
    }
}

#[test]
fn loads_respect_model_bounds() {
    // "the load should always be a number in the interval [m/p, m]" —
    // up to replication, no single round may exceed the (replicated)
    // data volume, and outputs never count as load.
    let q = parlog::queries::triangle_join();
    let db = datagen::triangle_db(300, 60, 4);
    let m = db.len();
    for p in [4usize, 16] {
        for r in [
            HypercubeAlgorithm::new(&q, p).unwrap().run(&db),
            Gym::new(&q, p, 2).run(&db),
            TwoRoundTriangle::new(p, 2).run(&db),
        ] {
            assert!(r.stats.max_load <= r.stats.total_comm);
            assert!(
                r.stats.replication <= p as f64,
                "{}: replication {} cannot exceed p",
                r.algorithm,
                r.stats.replication
            );
            assert!(r.stats.max_load >= r.output.len().min(m) / p.max(1) / 4 || m < p * 4);
        }
    }
}
