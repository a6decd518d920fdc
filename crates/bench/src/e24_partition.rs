//! E24 — partition tolerance: hold-and-flush, quorum, certified availability.
//!
//! PR 7's partition fault class, measured end to end. Four
//! machine-checked claims, all on the virtual clock (the whole record
//! is deterministic, and `cargo test` compares it with `BENCH_e24.json`
//! byte for byte):
//!
//! 1. **Convergence after heal.** A healing split is a within-model
//!    fault: held messages flush on heal and the transducer run
//!    converges to the *exact* fault-free answer. Quiescence lands at
//!    `max(fault-free finish, heal clock)` plus a short flush tail —
//!    short splits cost nothing, long splits cost exactly their
//!    overhang.
//! 2. **Availability is a quorum question.** Under a permanent split
//!    the majority-side monitor still answers (certified partial for
//!    monotone, typed refusal for non-monotone); the minority-side
//!    monitor cannot account for a strict majority and blocks with
//!    `QuorumLost` instead of diverging. Nobody heals a
//!    partitioned-but-alive node's shard: split-brain is fenced, every
//!    shard keeps exactly one owner.
//! 3. **Degraded coverage trajectory.** As the severed block grows, the
//!    monotone side's certified coverage decays gracefully until the
//!    monitor itself loses quorum — degradation, then blocking, never
//!    divergence.
//! 4. **Quorum-gated coordination.** The unguarded all-ack barrier
//!    deadlocks under a permanent split (the regression witness); the
//!    quorum-gated barrier commits from the majority, blocks from the
//!    minority, and commits after heal — and the MPC cluster's held
//!    copies drain in exactly the rounds the plan's heal schedule
//!    dictates.

use crate::{f3, json_record, section, Table};
use parlog::faults::{FaultPlan, PartitionPlan};
use parlog::mpc::cluster::{Cluster, Routing};
use parlog::mpc::quorum::{coordination_barrier, BarrierOutcome};
use parlog::prelude::*;
use parlog::relal::fact::fact;
use parlog::supervisor::prelude::*;
use parlog::transducer;
use parlog::transducer::prelude::*;

/// The shared transducer workload: the path query over a 24-edge graph.
fn path_workload(nodes: usize) -> (ConjunctiveQuery, Instance, Vec<Instance>) {
    let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
    let db = Instance::from_facts(
        (0..12u64).flat_map(|i| [fact("E", &[i, (i + 1) % 12]), fact("E", &[(i * 5) % 12, i])]),
    );
    let shards = hash_distribution(&db, nodes, 9);
    (q, db, shards)
}

#[derive(serde::Serialize)]
struct ConvergenceRow {
    duration: usize,
    heal_clock: usize,
    quiesce_clock: usize,
    latency_after_heal: usize,
    held_copies: usize,
    exact: bool,
}

#[derive(serde::Serialize)]
struct Availability {
    majority_coverage: f64,
    majority_answered: bool,
    majority_split_brain_averted: usize,
    minority_refusal: String,
    minority_quorum_losses: usize,
    heals_either_side: usize,
    owners_identity: bool,
}

#[derive(serde::Serialize)]
struct CoverageRow {
    cut_nodes: usize,
    monotone_coverage: f64,
    monotone_answered: bool,
    nonmonotone_reason: String,
}

#[derive(serde::Serialize)]
struct DrainRow {
    duration: usize,
    held_after_comm: usize,
    drain_rounds: usize,
    exact: bool,
}

#[derive(serde::Serialize)]
struct Barriers {
    unguarded_permanent: String,
    quorum_majority_coordinator: String,
    quorum_majority_rounds: usize,
    quorum_minority_coordinator: String,
    quorum_after_heal: String,
    quorum_after_heal_rounds: usize,
}

/// The deterministic record, committed as `BENCH_e24.json`.
#[derive(serde::Serialize)]
pub struct E24 {
    convergence: Vec<ConvergenceRow>,
    availability: Availability,
    coverage_trajectory: Vec<CoverageRow>,
    mpc_drain: Vec<DrainRow>,
    barriers: Barriers,
}

/// Claim 1: convergence-after-heal latency vs partition duration.
fn convergence_vs_duration() -> Vec<ConvergenceRow> {
    let (q, db, shards) = path_workload(4);
    let expected = eval_query(&q, &db);
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "duration",
        "heal@",
        "quiesce@",
        "latency",
        "held copies",
        "exact",
    ]);
    for duration in [2usize, 8, 24, 64, 96, 128] {
        let heal = duration;
        let plan = FaultPlan::partitioned(11, PartitionPlan::split(0, heal, &[3]));
        let program = MonotoneBroadcast::new(q.clone());
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(3)).with_faults(&plan);
        let run = transducer::run(&program, &shards, &rc);
        let quiesce = run.clock;
        let held_copies = run.stats.partitioned;
        let exact = run.output == expected;
        let latency = quiesce.saturating_sub(heal);
        t.row(&[&duration, &heal, &quiesce, &latency, &held_copies, &exact]);
        rows.push(ConvergenceRow {
            duration,
            heal_clock: heal,
            quiesce_clock: quiesce,
            latency_after_heal: latency,
            held_copies,
            exact,
        });
        assert!(exact, "a healing partition must converge exactly");
        assert!(held_copies > 0, "the split must actually hold traffic");
    }
    t.print();
    rows
}

/// Claim 2: the same permanent split judged from both sides.
fn availability_under_permanent_split() -> Availability {
    let (q, _db, shards) = path_workload(4);
    let plan = FaultPlan::partitioned(5, PartitionPlan::permanent_split(0, &[3]));
    let program = MonotoneBroadcast::new(q.clone());

    // Majority-side monitor (home 0): certified partial answer.
    let majority = supervise(
        &program,
        &shards,
        &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(5)).with_faults(&plan),
        QueryMode::Monotone,
        &SupervisorConfig::default(),
    );
    let (answered, coverage) = match &majority.verdict {
        Degraded::Partial { certificate, .. } => (true, certificate.coverage),
        Degraded::Exact(_) => (true, 1.0),
        Degraded::Refused { .. } => (false, 0.0),
    };
    assert!(answered, "the majority side must stay available");

    // Minority-side monitor (home 3): blocks with QuorumLost.
    let minority = supervise(
        &program,
        &shards,
        &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(5)).with_faults(&plan),
        QueryMode::NonMonotone,
        &SupervisorConfig {
            monitor_home: 3,
            ..SupervisorConfig::default()
        },
    );
    let refusal = match &minority.verdict {
        Degraded::Refused { reason, .. } => match reason {
            RefusalReason::QuorumLost { accounted, total } => {
                format!("QuorumLost({accounted}/{total})")
            }
            other => format!("{other:?}"),
        },
        _ => "answered".to_string(),
    };
    assert!(refusal.starts_with("QuorumLost"), "the minority must block");

    let identity = |r: &SupervisorReport| r.owners.iter().enumerate().all(|(i, &o)| i == o);
    Availability {
        majority_coverage: coverage,
        majority_answered: answered,
        majority_split_brain_averted: majority.report.split_brain_averted,
        minority_refusal: refusal,
        minority_quorum_losses: minority.report.quorum_losses,
        heals_either_side: majority.report.heals + minority.report.heals,
        owners_identity: identity(&majority.report) && identity(&minority.report),
    }
}

/// Claim 3: coverage decays gracefully, then quorum blocks.
fn coverage_trajectory() -> Vec<CoverageRow> {
    let (q, _db, shards) = path_workload(5);
    let mut rows = Vec::new();
    let mut t = Table::new(&["cut", "coverage", "monotone", "non-monotone refusal"]);
    for cut in 1usize..=3 {
        let severed: Vec<usize> = (5 - cut..5).collect();
        let plan = FaultPlan::partitioned(7, PartitionPlan::permanent_split(0, &severed));
        let program = MonotoneBroadcast::new(q.clone());
        let config = SupervisorConfig::default();
        let mono = supervise(
            &program,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(7)).with_faults(&plan),
            QueryMode::Monotone,
            &config,
        );
        let (answered, coverage) = match &mono.verdict {
            Degraded::Partial { certificate, .. } => (true, certificate.coverage),
            Degraded::Exact(_) => (true, 1.0),
            Degraded::Refused { .. } => (false, 0.0),
        };
        let non = supervise(
            &program,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(7)).with_faults(&plan),
            QueryMode::NonMonotone,
            &config,
        );
        let reason = match &non.verdict {
            Degraded::Refused { reason, .. } => match reason {
                RefusalReason::QuorumLost { accounted, total } => {
                    format!("QuorumLost({accounted}/{total})")
                }
                RefusalReason::PartitionOpen { unreachable, .. } => {
                    format!("PartitionOpen(unreachable {unreachable:?})")
                }
                RefusalReason::NonMonotoneLoss { missing_nodes, .. } => {
                    format!("NonMonotoneLoss({missing_nodes:?})")
                }
            },
            _ => "answered".to_string(),
        };
        t.row(&[&cut, &f3(coverage), &answered, &reason]);
        assert!(answered, "monotone queries answer at every cut size");
        rows.push(CoverageRow {
            cut_nodes: cut,
            monotone_coverage: coverage,
            monotone_answered: answered,
            nonmonotone_reason: reason,
        });
    }
    t.print();
    // Graceful decay, then the 3-node cut flips the refusal to quorum.
    assert!(rows
        .windows(2)
        .all(|w| w[1].monotone_coverage <= w[0].monotone_coverage));
    assert!(rows[2].nonmonotone_reason.starts_with("QuorumLost"));
    rows
}

/// Claim 4a: MPC hold-and-flush — drain rounds track the heal schedule.
fn mpc_drain() -> Vec<DrainRow> {
    let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
    let db = Instance::from_facts(
        (0..12u64).flat_map(|i| [fact("R", &[i, i + 100]), fact("S", &[i + 100, i + 200])]),
    );
    let expected = eval_query(&q, &db);
    let r_id = parlog::relal::symbols::rel("R");
    let mut rows = Vec::new();
    let mut t = Table::new(&["duration", "held", "drain rounds", "exact"]);
    for duration in [1usize, 2, 4, 6] {
        let mut c = Cluster::new(3).with_faults(FaultPlan::partitioned(
            0,
            PartitionPlan::split(0, duration, &[1]),
        ));
        for s in 0..3 {
            c.place(s, db.iter().skip(s).step_by(3).cloned());
        }
        c.communicate(|f| {
            let key = if f.rel == r_id {
                f.args[1].0
            } else {
                f.args[0].0
            };
            vec![(key % 3) as usize]
        });
        let held = c.held_by_partition();
        let mut drain_rounds = 0usize;
        while c.held_by_partition() > 0 {
            c.reshuffle(|_, _| Routing::Keep);
            drain_rounds += 1;
            assert!(drain_rounds <= 16, "drain must terminate");
        }
        c.compute_query(&q, EvalStrategy::Indexed);
        let exact = c.union_all() == expected;
        t.row(&[&duration, &held, &drain_rounds, &exact]);
        assert!(exact && held > 0);
        rows.push(DrainRow {
            duration,
            held_after_comm: held,
            drain_rounds,
            exact,
        });
    }
    t.print();
    rows
}

/// Claim 4b: the coordination barrier under partition, four ways.
fn barriers() -> Barriers {
    let fresh = |plan: PartitionPlan| {
        let mut c = Cluster::new(3).with_faults(FaultPlan::partitioned(0, plan));
        for s in 0..3u64 {
            c.place(
                s as usize,
                (s..9).step_by(3).map(|i| fact("R", &[i, i * 3])),
            );
        }
        c
    };
    let name = |o: &BarrierOutcome| match o {
        BarrierOutcome::Committed { acks, .. } => format!("Committed({acks} acks)"),
        BarrierOutcome::QuorumLost { acks, .. } => format!("QuorumLost({acks} acks)"),
        BarrierOutcome::Deadlocked { .. } => "Deadlocked".to_string(),
    };

    let mut c = fresh(PartitionPlan::permanent_split(0, &[2]));
    let unguarded = coordination_barrier(&mut c, 0, false, 6);
    assert!(matches!(unguarded, BarrierOutcome::Deadlocked { .. }));

    let mut c = fresh(PartitionPlan::permanent_split(0, &[2]));
    let majority = coordination_barrier(&mut c, 0, true, 6);
    let majority_rounds = match majority {
        BarrierOutcome::Committed { rounds, .. } => rounds,
        _ => panic!("the majority coordinator must commit"),
    };

    let mut c = fresh(PartitionPlan::permanent_split(0, &[2]));
    let minority = coordination_barrier(&mut c, 2, true, 6);
    assert!(matches!(minority, BarrierOutcome::QuorumLost { .. }));

    let mut c = fresh(PartitionPlan::split(0, 3, &[2]));
    let healed = coordination_barrier(&mut c, 2, true, 10);
    let healed_rounds = match healed {
        BarrierOutcome::Committed { rounds, .. } => rounds,
        _ => panic!("a healed split must let the barrier commit"),
    };

    Barriers {
        unguarded_permanent: name(&unguarded),
        quorum_majority_coordinator: name(&majority),
        quorum_majority_rounds: majority_rounds,
        quorum_minority_coordinator: name(&minority),
        quorum_after_heal: name(&healed),
        quorum_after_heal_rounds: healed_rounds,
    }
}

/// Compute the record, printing its tables.
pub fn record() -> E24 {
    section("E24 convergence after heal (node 3 split from clock 0, path query)");
    let convergence = convergence_vs_duration();

    section("E24 availability under a permanent split (4 nodes, {3} severed)");
    let availability = availability_under_permanent_split();
    println!(
        "  majority: answers with coverage {} (split-brain averted ×{}); minority: {} (quorum losses {}); heals {}, owners identity: {}",
        f3(availability.majority_coverage),
        availability.majority_split_brain_averted,
        availability.minority_refusal,
        availability.minority_quorum_losses,
        availability.heals_either_side,
        availability.owners_identity
    );
    assert_eq!(availability.heals_either_side, 0);
    assert!(availability.owners_identity);

    section("E24 degraded-coverage trajectory (5 nodes, growing cut)");
    let coverage_trajectory = coverage_trajectory();

    section("E24 MPC hold-and-flush drain vs partition duration");
    let mpc_drain = mpc_drain();

    section("E24 coordination barrier under partition (3 servers, {2} severed)");
    let barriers = barriers();
    let mut t = Table::new(&["barrier", "outcome"]);
    t.row(&[&"unguarded, permanent split", &barriers.unguarded_permanent]);
    t.row(&[
        &"quorum, majority coordinator",
        &barriers.quorum_majority_coordinator,
    ]);
    t.row(&[
        &"quorum, minority coordinator",
        &barriers.quorum_minority_coordinator,
    ]);
    t.row(&[&"quorum, after heal", &barriers.quorum_after_heal]);
    t.print();

    E24 {
        convergence,
        availability,
        coverage_trajectory,
        mpc_drain,
        barriers,
    }
}

pub fn run() {
    json_record("e24_partition", &record());
}
