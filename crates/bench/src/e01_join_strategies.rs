//! E1 — Example 3.1(1a/1b): repartition join vs grouped join.
//!
//! Claims reproduced: the repartition join has max load `O(m/p)` on
//! skew-free data but degenerates towards `Θ(m)` under a heavy hitter;
//! the grouped ("drug interaction") join stays at `O(m/√p)` regardless of
//! skew. Load exponents `e` are reported for `load = m/p^e` (theory: 1,
//! →0, and 1/2 respectively).

use crate::{f3, section, Table};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;

fn skew_free_db(m: usize) -> Instance {
    let mut db = Instance::new();
    for i in 0..m as u64 {
        db.insert(parlog::relal::fact::fact("R", &[i, 100_000 + i]));
        db.insert(parlog::relal::fact::fact("S", &[100_000 + i, 200_000 + i]));
    }
    db
}

fn skewed_db(m: usize) -> Instance {
    // 15% of each relation concentrates on one join value — enough to
    // wreck value-hashing while keeping the (quadratic) join output small
    // enough to materialize comfortably.
    let mut db = datagen::heavy_hitter_relation("R", m, 0.15, 7, 1, 0);
    db.extend_from(&datagen::heavy_hitter_relation("S", m, 0.15, 7, 0, 50_000));
    db
}

pub fn run() {
    let q = parlog::queries::binary_join();
    let m = 4000;

    for (label, db) in [("skew-free", skew_free_db(m)), ("skewed", skewed_db(m))] {
        section(&format!(
            "E1 {label} data (m = {} facts, heavy hitter = {})",
            db.len(),
            label == "skewed"
        ));
        let mut t = Table::new(&[
            "p",
            "algorithm",
            "rounds",
            "max_load",
            "exponent",
            "replication",
            "output",
        ]);
        for p in [4usize, 16, 64, 256] {
            let rep = RepartitionJoin::new(&q, p, 1).run(&db);
            let grp = GroupedJoin::new(&q, p, 1).run(&db);
            assert_eq!(rep.output, grp.output, "algorithms must agree");
            for r in [rep, grp] {
                t.row(&[
                    &p,
                    &r.algorithm,
                    &r.stats.rounds,
                    &r.stats.max_load,
                    &f3(r.stats.load_exponent),
                    &f3(r.stats.replication),
                    &r.output.len(),
                ]);
            }
        }
        t.print();
    }
    println!(
        "\nShape check: repartition exponent ≈ 1 skew-free, ≈ 0 skewed;\n\
         grouped exponent ≈ 0.5 in both regimes (skew-independent)."
    );
}
