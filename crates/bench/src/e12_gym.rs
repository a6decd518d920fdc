//! E12 — §3.2: multi-round tree algorithms (Yannakakis, GYM) vs one-round
//! HyperCube vs cascades: rounds / communication trade-offs and GYM's
//! skew resilience.

use crate::{f3, section, Table};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;

pub fn run() {
    let p = 32usize;

    section("E12a acyclic path query — Yannakakis vs cascade (selective data)");
    // Long path with few survivors: semijoins pay off.
    let q = parse_query("H(x,v) <- R(x,y), S(y,z), T(z,w), U(w,v)").unwrap();
    let mut db = Instance::new();
    for i in 0..1500u64 {
        db.insert(parlog::relal::fact::fact("R", &[i, 10_000 + i]));
    }
    for i in 0..1500u64 {
        db.insert(parlog::relal::fact::fact(
            "S",
            &[10_000 + i, 20_000 + i % 40],
        ));
        db.insert(parlog::relal::fact::fact(
            "T",
            &[20_000 + i % 40, 30_000 + i % 25],
        ));
    }
    for i in 0..25u64 {
        db.insert(parlog::relal::fact::fact("U", &[30_000 + i, 40_000 + i]));
    }
    let expected = eval_query(&q, &db);
    let mut t = Table::new(&["algorithm", "rounds", "max_load", "total_comm"]);
    let mut half = DistributedYannakakis::new(&q, p, 3);
    half.full_reducer = false;
    for r in [
        DistributedYannakakis::new(&q, p, 3).run(&db),
        half.run(&db),
        CascadeJoin::new(&q, p, 3).run(&db),
    ] {
        assert_eq!(r.output, expected);
        t.row(&[
            &r.algorithm,
            &r.stats.rounds,
            &r.stats.max_load,
            &r.stats.total_comm,
        ]);
    }
    t.print();

    section("E12b cyclic queries — GYM vs HyperCube vs cascade");
    let tri = parlog::queries::triangle_join();
    let tdb = datagen::triangle_db(3000, 400, 7);
    let texp = eval_query(&tri, &tdb);
    let mut t = Table::new(&["algorithm", "rounds", "max_load", "total_comm"]);
    for r in [
        HypercubeAlgorithm::new(&tri, p).unwrap().run(&tdb),
        Gym::new(&tri, p, 7).run(&tdb),
        CascadeJoin::new(&tri, p, 7).run(&tdb),
    ] {
        assert_eq!(r.output, texp);
        t.row(&[
            &r.algorithm,
            &r.stats.rounds,
            &r.stats.max_load,
            &r.stats.total_comm,
        ]);
    }
    t.print();
    println!("  trade-off: HyperCube = 1 round but replicated input; GYM/cascade = more\n  rounds, intermediate-sized communication (Chu–Balazinska–Suciu's finding).");

    section("E12c GYM skew resilience (load ratio skewed/uniform)");
    let uniform = datagen::triangle_db(2000, 600, 9);
    let skewed = datagen::triangle_heavy_db(2000, 600, 9);
    let mut t = Table::new(&["algorithm", "uniform load", "skewed load", "ratio"]);
    let mut cas = CascadeJoin::new(&tri, p, 5);
    cas.order = vec![0, 1, 2];
    let pairs: Vec<(&str, RunReport, RunReport)> = vec![
        (
            "gym",
            Gym::new(&tri, p, 5).run(&uniform),
            Gym::new(&tri, p, 5).run(&skewed),
        ),
        ("cascade-on-y", cas.run(&uniform), cas.run(&skewed)),
        (
            "hypercube",
            HypercubeAlgorithm::new(&tri, p).unwrap().run(&uniform),
            HypercubeAlgorithm::new(&tri, p).unwrap().run(&skewed),
        ),
    ];
    for (name, u, s) in pairs {
        t.row(&[
            &name,
            &u.stats.max_load,
            &s.stats.max_load,
            &f3(s.stats.max_load as f64 / u.stats.max_load as f64),
        ]);
    }
    t.print();
    println!("  shape check: GYM's ratio stays near 1 (skew-resilient); the\n  value-hashing cascade degrades.");

    section("E12d decomposition shapes (width/depth) for assorted queries");
    let mut t = Table::new(&["query", "width", "depth", "bags"]);
    for (name, src) in [
        ("triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)"),
        ("4-cycle", "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)"),
        ("path-4", "H(x,v) <- R(x,y), S(y,z), T(z,w), U(w,v)"),
        (
            "5-cycle",
            "H(a,b,c,d,e) <- R(a,b), S(b,c), T(c,d), U(d,e), V(e,a)",
        ),
    ] {
        let q = parse_query(src).unwrap();
        let td = parlog::relal::hypergraph::tree_decomposition(&q);
        td.validate(&q).unwrap();
        t.row(&[&name, &td.width(), &td.depth(), &td.bags.len()]);
    }
    t.print();
}
