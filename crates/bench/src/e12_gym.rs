//! E12 — §3.2: multi-round tree algorithms (Yannakakis, GYM) vs one-round
//! HyperCube vs cascades: rounds / communication trade-offs and GYM's
//! skew resilience.
//!
//! Output: the tables, then `JSON e12_gym {...}` (deterministic, last
//! line; committed as `BENCH_e12.json`).

use crate::{f3, json_record, section, Table};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;

/// One algorithm's run: the paper's currency, rounds and load.
#[derive(serde::Serialize)]
pub struct RunRow {
    algorithm: String,
    rounds: usize,
    max_load: usize,
    total_comm: usize,
}

impl RunRow {
    fn new(algorithm: &str, r: &RunReport) -> RunRow {
        RunRow {
            algorithm: algorithm.to_string(),
            rounds: r.stats.rounds,
            max_load: r.stats.max_load,
            total_comm: r.stats.total_comm,
        }
    }
}

/// Print `rows` as one table.
fn print_runs(rows: &[RunRow]) {
    let mut t = Table::new(&["algorithm", "rounds", "max_load", "total_comm"]);
    for r in rows {
        t.row(&[&r.algorithm, &r.rounds, &r.max_load, &r.total_comm]);
    }
    t.print();
}

/// One algorithm's max load on a uniform and a skewed input.
#[derive(serde::Serialize)]
pub struct SkewRow {
    algorithm: String,
    uniform_load: usize,
    skewed_load: usize,
    ratio: f64,
}

/// One query's tree decomposition.
#[derive(serde::Serialize)]
pub struct ShapeRow {
    query: String,
    width: usize,
    depth: usize,
    bags: usize,
}

/// The deterministic record, committed as `BENCH_e12.json`.
#[derive(serde::Serialize)]
pub struct E12 {
    servers: usize,
    acyclic_path: Vec<RunRow>,
    cyclic_triangle: Vec<RunRow>,
    cyclic_four_cycle: Vec<RunRow>,
    skew_resilience: Vec<SkewRow>,
    decompositions: Vec<ShapeRow>,
}

/// Compute the record, printing its tables.
pub fn record() -> E12 {
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
    let mut half = DistributedYannakakis::new(&q, p, 3);
    half.full_reducer = false;
    let mut acyclic_path = Vec::new();
    for (name, r) in [
        ("yannakakis", DistributedYannakakis::new(&q, p, 3).run(&db)),
        ("yannakakis-half", half.run(&db)),
        ("cascade", CascadeJoin::new(&q, p, 3).run(&db)),
    ] {
        assert_eq!(r.output, expected);
        acyclic_path.push(RunRow::new(name, &r));
    }
    print_runs(&acyclic_path);

    section("E12b cyclic queries — GYM vs HyperCube vs cascade");
    let tri = parlog::queries::triangle_join();
    let tdb = datagen::triangle_db(3000, 400, 7);
    let texp = eval_query(&tri, &tdb);
    let mut cyclic_triangle = Vec::new();
    for r in [
        HypercubeAlgorithm::new(&tri, p).unwrap().run(&tdb),
        Gym::new(&tri, p, 7).run(&tdb),
        CascadeJoin::new(&tri, p, 7).run(&tdb),
    ] {
        assert_eq!(r.output, texp);
        cyclic_triangle.push(RunRow::new(r.algorithm, &r));
    }
    println!("  triangle:");
    print_runs(&cyclic_triangle);
    // The triangle's reduced decomposition is one bag, so GYM is one
    // Shares round there; the 4-cycle keeps two bags and shows the
    // trade-off.
    let c4 = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)").unwrap();
    let mut c4db = Instance::new();
    for (name, seed) in [("R", 21), ("S", 22), ("T", 23), ("U", 24)] {
        c4db.extend_from(&datagen::uniform_relation(name, 1000, 250, seed));
    }
    let c4exp = eval_query(&c4, &c4db);
    let mut cyclic_four_cycle = Vec::new();
    for r in [
        HypercubeAlgorithm::new(&c4, p).unwrap().run(&c4db),
        Gym::new(&c4, p, 7).run(&c4db),
        CascadeJoin::new(&c4, p, 7).run(&c4db),
    ] {
        assert_eq!(r.output, c4exp);
        cyclic_four_cycle.push(RunRow::new(r.algorithm, &r));
    }
    println!("  4-cycle:");
    print_runs(&cyclic_four_cycle);
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
    let mut skew_resilience = Vec::new();
    for (name, u, s) in pairs {
        let row = SkewRow {
            algorithm: name.to_string(),
            uniform_load: u.stats.max_load,
            skewed_load: s.stats.max_load,
            ratio: s.stats.max_load as f64 / u.stats.max_load as f64,
        };
        t.row(&[&name, &row.uniform_load, &row.skewed_load, &f3(row.ratio)]);
        skew_resilience.push(row);
    }
    t.print();
    println!("  shape check: GYM's ratio stays near 1 (skew-resilient); the\n  value-hashing cascade degrades.");

    section("E12d decomposition shapes (width/depth) for assorted queries");
    let mut t = Table::new(&["query", "width", "depth", "bags"]);
    let mut decompositions = Vec::new();
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
        let row = ShapeRow {
            query: name.to_string(),
            width: td.width(),
            depth: td.depth(),
            bags: td.bags.len(),
        };
        t.row(&[&name, &row.width, &row.depth, &row.bags]);
        decompositions.push(row);
    }
    t.print();

    E12 {
        servers: p,
        acyclic_path,
        cyclic_triangle,
        cyclic_four_cycle,
        skew_resilience,
        decompositions,
    }
}

pub fn run() {
    json_record("e12_gym", &record());
}
