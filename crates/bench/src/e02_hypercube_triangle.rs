//! E2 — Example 3.2: the HyperCube algorithm on the triangle query.
//!
//! Claims reproduced: with `p = α³` servers and shares `α × α × α`, every
//! tuple is replicated `p^{1/3}` times and the skew-free max load is
//! `O(m/p^{2/3})` — load exponent ≈ 2/3.

use crate::{f3, section, Table};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;

pub fn run() {
    let q = parlog::queries::triangle_join();

    section("E2 HyperCube triangle — skew-free matching data, m = 3×2000");
    let mut db = datagen::matching_relation("R", 2000, 0);
    db.extend_from(&datagen::matching_relation("S", 2000, 100_000));
    db.extend_from(&datagen::matching_relation("T", 2000, 200_000));
    let mut t = Table::new(&[
        "p",
        "shares",
        "max_load",
        "m/p^(2/3)",
        "exponent",
        "replication",
    ]);
    for p in [8usize, 27, 64, 216] {
        let hc = HypercubeAlgorithm::new(&q, p).unwrap();
        let r = hc.run(&db);
        let theory = db.len() as f64 / (p as f64).powf(2.0 / 3.0);
        t.row(&[
            &p,
            &format!("{:?}", hc.shares().shares),
            &r.stats.max_load,
            &f3(theory),
            &f3(r.stats.load_exponent),
            &f3(r.stats.replication),
        ]);
    }
    t.print();

    section("E2b same sweep on a random triangle database (with output check)");
    let db = datagen::triangle_db(6000, 500, 11);
    let expected = parlog::relal::eval::eval_query(&q, &db);
    let mut t = Table::new(&["p", "max_load", "exponent", "replication", "triangles"]);
    for p in [8usize, 27, 64, 216] {
        let r = HypercubeAlgorithm::new(&q, p).unwrap().run(&db);
        assert_eq!(r.output, expected);
        t.row(&[
            &p,
            &r.stats.max_load,
            &f3(r.stats.load_exponent),
            &f3(r.stats.replication),
            &r.output.len(),
        ]);
    }
    t.print();
    println!("\nShape check: exponent ≈ 2/3, replication ≈ p^(1/3).");
}
