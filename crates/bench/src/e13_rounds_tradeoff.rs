//! E13 — §3.2: rounds vs communication, two more ways.
//!
//! * Tree-like (path) conjunctive queries: left-deep cascade (`k−1`
//!   rounds) vs balanced pairwise cascade (`⌈log₂ k⌉` rounds) — the
//!   depth trade-off the survey attributes to tree-decomposition shapes.
//! * Recursive Datalog in MapReduce (Afrati–Ullman): linear transitive
//!   closure (diameter-many iterations, lean rounds) vs recursive
//!   doubling (log-many iterations, heavier rounds).

use crate::{section, Table};
use parlog::mpc::algorithms::balanced_cascade::BalancedCascade;
use parlog::mpc::algorithms::datalog_mr::{DistributedTc, TcStrategy};
use parlog::mpc::prelude::*;
use parlog::prelude::*;

fn path_query(k: usize) -> ConjunctiveQuery {
    let body: Vec<String> = (0..k).map(|i| format!("R{i}(v{i}, v{})", i + 1)).collect();
    parse_query(&format!("H(v0, v{k}) <- {}", body.join(", "))).unwrap()
}

fn path_db(k: usize, m: usize) -> Instance {
    let mut db = Instance::new();
    for i in 0..k {
        for j in 0..m as u64 {
            db.insert(parlog::relal::fact::fact(
                &format!("R{i}"),
                &[(i as u64) * 100_000 + j, (i as u64 + 1) * 100_000 + j],
            ));
        }
    }
    db
}

pub fn run() {
    let p = 16usize;

    section("E13a path queries — left-deep vs balanced cascade");
    let mut t = Table::new(&["atoms", "algorithm", "rounds", "max_load", "total_comm"]);
    for k in [4usize, 8, 12] {
        let q = path_query(k);
        let db = path_db(k, 1000);
        let deep = CascadeJoin::new(&q, p, 3).run(&db);
        let bal = BalancedCascade::new(&q, p, 3).run(&db);
        assert_eq!(deep.output, bal.output);
        for r in [deep, bal] {
            t.row(&[
                &k,
                &r.algorithm,
                &r.stats.rounds,
                &r.stats.max_load,
                &r.stats.total_comm,
            ]);
        }
    }
    t.print();
    println!("  shape check: balanced = ⌈log₂ k⌉ rounds vs k−1 for left-deep.");

    section("E13b transitive closure — linear vs recursive doubling");
    let mut t = Table::new(&[
        "chain length",
        "strategy",
        "rounds",
        "total_comm",
        "TC facts",
    ]);
    for n in [16u64, 32, 64] {
        let db = Instance::from_facts((0..n).map(|i| parlog::relal::fact::fact("E", &[i, i + 1])));
        let lin = DistributedTc::new("E", "TC", TcStrategy::Linear, p, 1).run(&db);
        let dbl = DistributedTc::new("E", "TC", TcStrategy::NonLinear, p, 1).run(&db);
        assert_eq!(lin.output, dbl.output);
        for r in [lin, dbl] {
            t.row(&[
                &n,
                &r.algorithm,
                &r.stats.rounds,
                &r.stats.total_comm,
                &r.output.len(),
            ]);
        }
    }
    t.print();
    println!(
        "  shape check: doubling uses O(log n) iterations where linear uses O(n),\n\
         and pays for it in per-round communication (Afrati–Ullman)."
    );
}
