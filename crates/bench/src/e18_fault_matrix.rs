//! E18 — CALM under chaos: the fault-tolerance matrix, the price of
//! reliability, and crash-recovery in the MPC model.
//!
//! Three machine-checked claims:
//!
//! 1. The Figure-2 strategies (F0/F1/F2) stay *exactly consistent* under
//!    every fault the asynchronous model quantifies over (reorder,
//!    duplicate, delay) and degrade to sound-but-incomplete — never
//!    unsound — under loss and crashes. The explicitly coordinating
//!    barrier program fails outright under duplication.
//! 2. Ack/retransmit buys completeness back under loss, at a measurable
//!    coordination cost (acks + retransmissions).
//! 3. An MPC round that checkpoints its inputs replays crashed rounds
//!    deterministically: the recovered run reproduces the fault-free
//!    outputs and loads exactly, paying only wasted communication.

use crate::{json_record, section, Table};
use parlog::fault_matrix::{fault_matrix, FaultMatrix};
use parlog::faults::{CrashKind, FaultPlan, RetransmitPolicy};
use parlog::mpc::cluster::Cluster;
use parlog::mpc::report::RunReport;
use parlog::prelude::*;
use parlog::relal::fact::fact;
use parlog::transducer;
use parlog::transducer::prelude::*;

#[derive(serde::Serialize)]
struct ReliabilityCost {
    seed: u64,
    drop_prob: f64,
    bare_complete: bool,
    reliable_complete: bool,
    retransmissions: usize,
    acks: usize,
    coordination_messages: usize,
}

#[derive(serde::Serialize)]
struct MpcRecovery {
    crashes: usize,
    replays: usize,
    wasted_comm: usize,
    output_matches_fault_free: bool,
    loads_match_fault_free: bool,
    straggler_penalty: f64,
}

/// The deterministic record, committed as `BENCH_e18.json`.
#[derive(serde::Serialize)]
pub struct E18 {
    matrix: FaultMatrix,
    reliability: Vec<ReliabilityCost>,
    mpc: MpcRecovery,
}

fn reliability_costs() -> Vec<ReliabilityCost> {
    let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
    let db = Instance::from_facts(
        (0..12u64).flat_map(|i| [fact("E", &[i, (i + 1) % 12]), fact("E", &[(i * 5) % 12, i])]),
    );
    let expected = eval_query(&q, &db);
    let shards = hash_distribution(&db, 4, 9);
    let drop_prob = 0.4;
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::lossy(seed, drop_prob);
        let bare = MonotoneBroadcast::new(q.clone());
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed));
        let bare_out = transducer::run(&bare, &shards, &rc.clone().with_faults(&plan)).output;
        assert!(bare_out.is_subset_of(&expected), "loss must stay sound");
        let reliable = plan.clone().with_retransmit(RetransmitPolicy::default());
        let RunOutcome {
            output: rel_out,
            stats,
            ..
        } = transducer::run(&bare, &shards, &rc.with_faults(&reliable));
        assert_eq!(rel_out, expected, "retransmit must restore completeness");
        out.push(ReliabilityCost {
            seed,
            drop_prob,
            bare_complete: bare_out == expected,
            reliable_complete: true,
            retransmissions: stats.retransmissions,
            acks: stats.acks,
            coordination_messages: stats.coordination_messages(),
        });
    }
    out
}

fn mpc_recovery() -> MpcRecovery {
    let seed_facts = |c: &mut Cluster| {
        for s in 0..4u64 {
            c.place(
                s as usize,
                (s..24).step_by(4).map(|i| fact("R", &[i, (i * 3) % 24])),
            );
        }
    };
    let route = |f: &parlog::relal::fact::Fact| vec![(f.args[1].0 % 4) as usize];
    let run = |plan: FaultPlan| {
        let mut c = Cluster::new(4).with_faults(plan);
        seed_facts(&mut c);
        c.communicate(route);
        c.communicate(|f: &parlog::relal::fact::Fact| vec![(f.args[0].0 % 4) as usize]);
        c
    };
    let clean = run(FaultPlan::none(0));
    let faulty = run(FaultPlan::crash_stop(0, 1, 0)
        .with_crash(2, 2, CrashKind::Stop)
        .with_straggler(1, 3.0));
    let output_matches = clean.union_all() == faulty.union_all();
    let loads_match = clean
        .rounds()
        .iter()
        .zip(faulty.rounds())
        .all(|(a, b)| a.received == b.received && a.max_load == b.max_load);
    let report = RunReport::from_cluster("checkpointed-2-round", &faulty, 24);
    MpcRecovery {
        crashes: 2,
        replays: faulty.recovery().replays,
        wasted_comm: faulty.recovery().wasted_comm,
        output_matches_fault_free: output_matches,
        loads_match_fault_free: loads_match,
        straggler_penalty: report.stats.straggler_penalty,
    }
}

/// Compute the record, printing its tables.
pub fn record() -> E18 {
    section("E18 fault-tolerance matrix (seeds 1,2,3 per cell)");
    let matrix = fault_matrix();
    let mut t = Table::new(&["program", "class", "fault", "within-model", "verdict"]);
    for r in &matrix.rows {
        let wm = if r.within_model { "yes" } else { "no" };
        let v = r.verdict.to_string();
        t.row(&[&r.program, &r.class, &r.fault, &wm, &v]);
    }
    t.print();

    section("E18 the price of reliability (40% loss, ack/retransmit)");
    let reliability = reliability_costs();
    let mut t = Table::new(&[
        "seed",
        "bare run complete",
        "reliable complete",
        "retransmits",
        "acks",
    ]);
    for r in &reliability {
        t.row(&[
            &r.seed,
            &r.bare_complete,
            &r.reliable_complete,
            &r.retransmissions,
            &r.acks,
        ]);
    }
    t.print();

    section("E18 MPC crash-recovery via checkpointed rounds");
    let mpc = mpc_recovery();
    println!(
        "  2 mid-round crashes: {} replays, {} facts of wasted communication",
        mpc.replays, mpc.wasted_comm
    );
    println!(
        "  recovered output == fault-free output: {}",
        mpc.output_matches_fault_free
    );
    println!(
        "  per-round loads identical:             {}",
        mpc.loads_match_fault_free
    );
    println!(
        "  straggler penalty (one 3x server):     {:.3}",
        mpc.straggler_penalty
    );
    assert!(mpc.output_matches_fault_free && mpc.loads_match_fault_free);

    E18 {
        matrix,
        reliability,
        mpc,
    }
}

pub fn run() {
    json_record("e18_fault_matrix", &record());
}
