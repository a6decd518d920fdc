//! E4 — §3.2: skew vs number of rounds.
//!
//! Claims reproduced:
//! * one-round algorithms that hash the skewed attribute degenerate
//!   (cascade's first hash join concentrates the heavy hitters);
//! * the triangle query regains skew-free-like load with **two rounds**
//!   (residual grid + light hash);
//! * the binary join of skewed data stays around `m/p^{1/2}` — grouped
//!   join — "no matter how many rounds one is willing to spend".

use crate::{f3, section, Table};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;

pub fn run() {
    let p = 64usize;
    let tri = parlog::queries::triangle_join();

    section(&format!("E4a skewed triangle (p = {p})"));
    let db = datagen::triangle_heavy_db(4000, 700, 3);
    let expected = parlog::relal::eval::eval_query(&tri, &db);
    let mut t = Table::new(&["algorithm", "rounds", "max_load", "exponent", "total_comm"]);
    let mut cas = CascadeJoin::new(&tri, p, 3);
    cas.order = vec![0, 1, 2]; // hash join on the skewed attribute y first
    let runs = vec![
        HypercubeAlgorithm::new(&tri, p).unwrap().run(&db),
        cas.run(&db),
        TwoRoundTriangle::new(p, 3).run(&db),
    ];
    for r in &runs {
        assert_eq!(r.output, expected);
        t.row(&[
            &r.algorithm,
            &r.stats.rounds,
            &r.stats.max_load,
            &f3(r.stats.load_exponent),
            &r.stats.total_comm,
        ]);
    }
    t.print();
    let m = db.len() as f64;
    println!(
        "  reference points: m/p^(1/2) = {:.0}, m/p^(2/3) = {:.0}",
        m / (p as f64).sqrt(),
        m / (p as f64).powf(2.0 / 3.0)
    );

    section(&format!("E4b skewed binary join stays at m/√p (p = {p})"));
    let q = parlog::queries::binary_join();
    let mut jdb = datagen::heavy_hitter_relation("R", 4000, 0.6, 7, 1, 0);
    jdb.extend_from(&datagen::heavy_hitter_relation(
        "S", 4000, 0.6, 7, 0, 50_000,
    ));
    let mut t = Table::new(&["algorithm", "rounds", "max_load", "exponent"]);
    for r in [
        RepartitionJoin::new(&q, p, 1).run(&jdb),
        GroupedJoin::new(&q, p, 1).run(&jdb),
    ] {
        t.row(&[
            &r.algorithm,
            &r.stats.rounds,
            &r.stats.max_load,
            &f3(r.stats.load_exponent),
        ]);
    }
    t.print();
    println!(
        "  reference: m/√p = {:.0} — the grouped join meets it; no\n\
         multi-round strategy can beat it for the join (BKS lower bound).",
        jdb.len() as f64 / (p as f64).sqrt()
    );
}
