//! E25 — incremental view maintenance vs from-scratch recomputation.
//!
//! PR 8 gives `Instance` a per-relation delta log and gives the Datalog
//! engine maintained materialized views, every stratum kept by
//! delete–rederive (DRed), recursive or not. This experiment quantifies
//! the payoff — for single-fact deltas the maintained view
//! must do an asymptotically vanishing fraction of the from-scratch
//! work.
//!
//! Two workloads at doubling sizes:
//!
//! 1. **Recursive (DRed)**: transitive closure of an `n`-chain. A fresh
//!    mid-chain edge creates `Θ(n)` derived facts; from-scratch
//!    recomputation re-derives all `Θ(n²)` of them.
//! 2. **Nonrecursive**: a two-rule join cascade
//!    `J(x,z) <- E(x,y), F(y,z)`, `K(x,w) <- J(x,y), F(y,w)`. A single
//!    new `E` fact touches `Θ(n/16)` groups; from scratch is `Θ(n²)`.
//!
//! Work is measured by the engine's deterministic galloping-seek
//! counter (`parlog_relal::opcount`) under `EvalStrategy::Wcoj` — both
//! the refresh path and the scratch path enumerate through the same
//! trie machinery, so the counts are directly comparable and
//! hardware-independent (`cargo test` compares the record with
//! `BENCH_e25.json` byte for byte).
//!
//! Machine-checked claims:
//!
//! * every refresh output is identical to a from-scratch evaluation of
//!   the mutated database (insert AND delete deltas);
//! * no refresh falls back to a full rebuild (`full_rebuilds == 0`);
//! * at the largest tier the work ratio (scratch ops / refresh ops) is
//!   ≥ 10× for insert and delete deltas on both workloads.
//!
//! The from-scratch fixpoint's wall-clock is `crates/perf`'s
//! `datalog.eval.scratch_us` (`serve_mix`'s scratch programs), and the
//! time ratio of the two paths is `datalog.maintain.scratch_vs_refresh_ratio`
//! (a traced `view_churn` pass).
//!
//! Output: `JSON e25_incremental {...}` (deterministic, last line;
//! committed as `BENCH_e25.json`).

use crate::{f3, json_record, section, Table};
use parlog_datalog::prelude::*;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::{fact, Fact};
use parlog_relal::instance::Instance;
use parlog_relal::opcount;

/// Chain lengths / join sizes per tier.
const SIZES: [u64; 4] = [32, 64, 128, 256];
/// Work-ratio floor asserted at the largest tier.
const MIN_RATIO: f64 = 10.0;

/// Transitive closure of a chain `1 → 2 → … → n`.
fn chain_db(n: u64) -> Instance {
    let mut db = Instance::new();
    for i in 1..n {
        db.insert(fact("E", &[i, i + 1]));
    }
    db
}

/// Two-relation join data: `E` fans into 16 hubs, `F` fans out of them.
fn cascade_db(n: u64) -> Instance {
    let mut db = Instance::new();
    for i in 0..n {
        db.insert(fact("E", &[1000 + i, i % 16]));
        db.insert(fact("F", &[i % 16, 5000 + i]));
    }
    db
}

/// A fresh edge out of the chain's midpoint: Θ(n) new pairs.
fn chain_delta(n: u64) -> Fact {
    fact("E", &[n / 2, 900_000])
}

/// A fresh E fact into hub 3: Θ(n/16) new J and K facts.
fn cascade_delta(_: u64) -> Fact {
    fact("E", &[800_000, 3])
}

/// A workload: name, program, database and delta per size.
struct Workload {
    name: &'static str,
    src: &'static str,
    db: fn(u64) -> Instance,
    delta: fn(u64) -> Fact,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "transitive-closure",
        src: "T(x,y) <- E(x,y)\nT(x,z) <- E(x,y), T(y,z)",
        db: chain_db,
        delta: chain_delta,
    },
    Workload {
        name: "join-cascade",
        src: "J(x,z) <- E(x,y), F(y,z)\nK(x,w) <- J(x,y), F(y,w)",
        db: cascade_db,
        delta: cascade_delta,
    },
];

/// One delta round on the mutated `db`: refresh the view, then
/// re-evaluate `db` from scratch. Returns `(refresh_ops, scratch_ops,
/// identical)`.
fn step(view: &mut MaterializedView, p: &Program, db: &Instance) -> (u64, u64, bool) {
    opcount::reset();
    let maintained = view.refresh(db);
    let refresh_ops = opcount::reset();
    // The scratch pass reads a clone, which shares the warm tries: the
    // trie refreshes it makes stay off `db`, so every tier's scratch
    // pass finds `db`'s cache as the view's build left it.
    let cold = db.clone();
    opcount::reset();
    let scratch = eval_program(p, &cold, EvalStrategy::Wcoj).expect("scratch");
    let scratch_ops = opcount::reset();
    let identical = maintained.sorted_facts() == scratch.sorted_facts();
    (refresh_ops, scratch_ops, identical)
}

#[derive(serde::Serialize)]
struct TierRecord {
    n: u64,
    edb_size: usize,
    idb_size: usize,
    insert_refresh_ops: u64,
    insert_scratch_ops: u64,
    insert_ratio: f64,
    delete_refresh_ops: u64,
    delete_scratch_ops: u64,
    delete_ratio: f64,
    outputs_identical: bool,
    full_rebuilds: u64,
}

#[derive(serde::Serialize)]
struct WorkloadRecord {
    workload: String,
    program: String,
    /// Strata maintained, each by DRed.
    dred_strata: usize,
    tiers: Vec<TierRecord>,
    largest_insert_ratio: f64,
    largest_delete_ratio: f64,
    /// Asserted: both ratios ≥ 10 at the largest tier.
    ratio_floor_checked: bool,
}

/// The deterministic record, committed as `BENCH_e25.json`.
#[derive(serde::Serialize)]
pub struct E25 {
    min_ratio: f64,
    workloads: Vec<WorkloadRecord>,
}

fn run_workload(w: &Workload) -> WorkloadRecord {
    let (name, src) = (w.name, w.src);
    let p = parse_program(src).unwrap();
    section(&format!("E25 {name}: refresh vs from-scratch ops"));
    let mut t = Table::new(&[
        "n",
        "edb",
        "idb",
        "ins refresh",
        "ins scratch",
        "ins ratio",
        "del refresh",
        "del scratch",
        "del ratio",
    ]);
    let mut tiers = Vec::new();
    let mut stats = None;
    for n in SIZES {
        let mut db = (w.db)(n);
        let edb_size = db.len();
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Wcoj).expect("stratifies");
        let idb_size = view.refresh(&db).len() - edb_size;
        let delta = (w.delta)(n);
        db.insert(delta.clone());
        let (ins_ops, ins_full, ins_ok) = step(&mut view, &p, &db);
        db.remove(&delta);
        let (del_ops, del_full, del_ok) = step(&mut view, &p, &db);
        let s = view.stats();
        assert_eq!(s.full_rebuilds, 0, "{name} n={n}: refresh fell back");
        assert!(ins_ok && del_ok, "{name} n={n}: maintained output diverged");
        let insert_ratio = ins_full as f64 / ins_ops.max(1) as f64;
        let delete_ratio = del_full as f64 / del_ops.max(1) as f64;
        t.row(&[
            &n,
            &edb_size,
            &idb_size,
            &ins_ops,
            &ins_full,
            &f3(insert_ratio),
            &del_ops,
            &del_full,
            &f3(delete_ratio),
        ]);
        tiers.push(TierRecord {
            n,
            edb_size,
            idb_size,
            insert_refresh_ops: ins_ops,
            insert_scratch_ops: ins_full,
            insert_ratio,
            delete_refresh_ops: del_ops,
            delete_scratch_ops: del_full,
            delete_ratio,
            outputs_identical: ins_ok && del_ok,
            full_rebuilds: s.full_rebuilds,
        });
        stats = Some(s);
    }
    t.print();
    let stats = stats.expect("at least one tier");
    let last = tiers.last().expect("at least one tier");
    let (li, ld) = (last.insert_ratio, last.delete_ratio);
    println!(
        "largest tier work ratios: insert {}x, delete {}x (floor {MIN_RATIO}x)",
        f3(li),
        f3(ld)
    );
    assert!(
        li >= MIN_RATIO && ld >= MIN_RATIO,
        "{name}: work ratio below {MIN_RATIO}x at n = {}: insert {li:.1}x delete {ld:.1}x",
        last.n
    );
    WorkloadRecord {
        workload: name.to_string(),
        program: src.trim().replace('\n', "; "),
        dred_strata: stats.strata,
        tiers,
        largest_insert_ratio: li,
        largest_delete_ratio: ld,
        ratio_floor_checked: true,
    }
}

/// Compute the record, printing its tables.
pub fn record() -> E25 {
    E25 {
        min_ratio: MIN_RATIO,
        workloads: WORKLOADS.iter().map(run_workload).collect(),
    }
}

pub fn run() {
    json_record("e25_incremental", &record());
}
