//! E13 — §3.2: rounds vs communication, two more ways.
//!
//! * Tree-like (path) conjunctive queries: left-deep cascade (`k−1`
//!   rounds) vs balanced pairwise cascade (`⌈log₂ k⌉` rounds) — the
//!   depth trade-off the survey attributes to tree-decomposition shapes.
//! * Recursive Datalog in MapReduce (Afrati–Ullman): linear transitive
//!   closure (diameter-many iterations, lean rounds) vs recursive
//!   doubling (log-many iterations, heavier rounds).
//!
//! Output: the tables, then `JSON e13_rounds_tradeoff {...}`
//! (deterministic, last line; committed as `BENCH_e13.json`).

use crate::{json_record, section, Table};
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

/// One left-deep or balanced cascade over a `k`-atom path.
#[derive(serde::Serialize)]
pub struct CascadeRow {
    atoms: usize,
    algorithm: String,
    rounds: usize,
    max_load: usize,
    total_comm: usize,
}

/// One transitive-closure strategy over a chain.
#[derive(serde::Serialize)]
pub struct ClosureRow {
    chain_length: u64,
    strategy: String,
    rounds: usize,
    total_comm: usize,
    tc_facts: usize,
}

/// The deterministic record, committed as `BENCH_e13.json`.
#[derive(serde::Serialize)]
pub struct E13 {
    servers: usize,
    path_cascades: Vec<CascadeRow>,
    transitive_closure: Vec<ClosureRow>,
}

/// Compute the record, printing its tables.
pub fn record() -> E13 {
    let p = 16usize;

    section("E13a path queries — left-deep vs balanced cascade");
    let mut t = Table::new(&["atoms", "algorithm", "rounds", "max_load", "total_comm"]);
    let mut path_cascades = Vec::new();
    for k in [4usize, 8, 12] {
        let q = path_query(k);
        let db = path_db(k, 1000);
        let deep = CascadeJoin::new(&q, p, 3).run(&db);
        let bal = BalancedCascade::new(&q, p, 3).run(&db);
        assert_eq!(deep.output, bal.output);
        for r in [deep, bal] {
            let row = CascadeRow {
                atoms: k,
                algorithm: r.algorithm.to_string(),
                rounds: r.stats.rounds,
                max_load: r.stats.max_load,
                total_comm: r.stats.total_comm,
            };
            t.row(&[
                &k,
                &row.algorithm,
                &row.rounds,
                &row.max_load,
                &row.total_comm,
            ]);
            path_cascades.push(row);
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
    let mut transitive_closure = Vec::new();
    for n in [16u64, 32, 64] {
        let db = Instance::from_facts((0..n).map(|i| parlog::relal::fact::fact("E", &[i, i + 1])));
        let lin = DistributedTc::new("E", "TC", TcStrategy::Linear, p, 1).run(&db);
        let dbl = DistributedTc::new("E", "TC", TcStrategy::NonLinear, p, 1).run(&db);
        assert_eq!(lin.output, dbl.output);
        for r in [lin, dbl] {
            let row = ClosureRow {
                chain_length: n,
                strategy: r.algorithm.to_string(),
                rounds: r.stats.rounds,
                total_comm: r.stats.total_comm,
                tc_facts: r.output.len(),
            };
            t.row(&[
                &n,
                &row.strategy,
                &row.rounds,
                &row.total_comm,
                &row.tc_facts,
            ]);
            transitive_closure.push(row);
        }
    }
    t.print();
    println!(
        "  shape check: doubling uses O(log n) iterations where linear uses O(n),\n\
         and pays for it in per-round communication (Afrati–Ullman)."
    );

    E13 {
        servers: p,
        path_cascades,
        transitive_closure,
    }
}

pub fn run() {
    json_record("e13_rounds_tradeoff", &record());
}
