//! E19 — the supervisor: detect, heal, speculate, degrade.
//!
//! PR 2's control plane, exercised end to end. Four machine-checked
//! claims:
//!
//! 1. **Detect + heal.** A crash-stopped transducer node is detected by
//!    the φ-accrual detector within a bounded number of probe intervals
//!    and healed by re-replicating its durable shard to a survivor; the
//!    supervised answer equals the fault-free answer exactly, and zero
//!    message faults means zero false suspicions.
//! 2. **Certified degradation.** When healing is forbidden (budget 0),
//!    a *monotone* query still answers: a certified subset of the truth
//!    with a coverage certificate naming the missing shard. The
//!    *non-monotone* barrier query refuses with a reason — the CALM
//!    split restated as a failure-mode contract.
//! 3. **The fixed barrier.** Sequence-numbered idempotent delivery
//!    flips the coordinated program's duplicate cell from FAILS to
//!    consistent; the unfixed program stays in the matrix as witness.
//! 4. **Speculation + MPC heal.** Backup tasks cut the straggler tail
//!    without changing outputs or loads (first-finisher-wins, waste
//!    measured), and a crashed HyperCube server is healed for the price
//!    of one server-load — within the `O(m/p^{1/τ*})` packing bound.

use crate::{f3, json_record, section, Table};
use parlog::fault_matrix::{fault_matrix, Verdict};
use parlog::faults::{FaultPlan, SpeculationPolicy};
use parlog::mpc::cluster::Cluster;
use parlog::mpc::datagen;
use parlog::mpc::report::RunReport;
use parlog::prelude::*;
use parlog::relal::fact::fact;
use parlog::supervisor::prelude::*;
use parlog::transducer::prelude::*;

/// The F0 workload shared by the supervised-run sections: the path
/// query over a 24-edge graph on 4 nodes (same family as E18).
fn f0_workload() -> (ConjunctiveQuery, Instance, Vec<Instance>) {
    let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
    let db = Instance::from_facts(
        (0..12u64).flat_map(|i| [fact("E", &[i, (i + 1) % 12]), fact("E", &[(i * 5) % 12, i])]),
    );
    let shards = hash_distribution(&db, 4, 9);
    (q, db, shards)
}

#[derive(serde::Serialize)]
struct DetectHeal {
    seeds: usize,
    crashes_detected: usize,
    heals: usize,
    mean_detection_latency: f64,
    false_positive_rate: f64,
    total_heal_load: usize,
    all_outputs_exact: bool,
}

#[derive(serde::Serialize)]
struct Degradation {
    monotone_answered: bool,
    monotone_sound: bool,
    coverage: f64,
    missing_nodes: Vec<usize>,
    missing_facts: usize,
    nonmonotone_refused: bool,
    refusal_reason: String,
}

#[derive(serde::Serialize)]
struct BarrierFix {
    coord_duplicate: String,
    coord_seq_duplicate: String,
    fixed_is_sound: bool,
}

#[derive(serde::Serialize)]
struct Speculation {
    backups: usize,
    wins: usize,
    wasted_work: usize,
    tail_saved: f64,
    tail_plain: f64,
    tail_speculated: f64,
    output_matches: bool,
    loads_match: bool,
}

/// The deterministic record, committed as `BENCH_e19.json`.
#[derive(serde::Serialize)]
pub struct E19 {
    detect_heal: DetectHeal,
    degradation: Degradation,
    barrier: BarrierFix,
    speculation: Speculation,
    mpc_heal: MpcHealReport,
    retry_budget: Vec<(usize, u32)>,
}

/// Claim 1: crash → detect → heal → exact answer, across seeds.
fn detect_and_heal() -> DetectHeal {
    let (q, db, shards) = f0_workload();
    let expected = eval_query(&q, &db);
    let config = SupervisorConfig::default();
    let mut t = Table::new(&["seed", "crashed", "detected@", "latency", "heals", "exact"]);
    let (mut detected, mut heals, mut heal_load) = (0usize, 0usize, 0usize);
    let (mut lat_sum, mut lat_n, mut fp_sum) = (0.0f64, 0usize, 0.0f64);
    let mut all_exact = true;
    let seeds: &[u64] = &[1, 2, 3, 4, 5];
    for &seed in seeds {
        let node = (seed as usize) % shards.len();
        let plan = FaultPlan::crash_stop(seed, node, 6);
        let p = MonotoneBroadcast::new(q.clone());
        let out = supervise(
            &p,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed)).with_faults(&plan),
            QueryMode::Monotone,
            &config,
        );
        let exact = out.verdict.answer() == Some(&expected) && out.verdict.is_exact();
        all_exact &= exact;
        detected += out.report.detections.len();
        heals += out.report.heals;
        heal_load += out.report.heal_load;
        lat_sum +=
            out.report.mean_detection_latency().unwrap_or(0.0) * out.report.detections.len() as f64;
        lat_n += out.report.detections.len();
        fp_sum += out.report.false_positive_rate();
        let d = out.report.detections.first().cloned();
        t.row(&[
            &seed,
            &node,
            &d.as_ref().map_or(0, |d| d.detected_at),
            &d.as_ref().map_or(0, |d| d.latency),
            &out.report.heals,
            &exact,
        ]);
    }
    t.print();
    DetectHeal {
        seeds: seeds.len(),
        crashes_detected: detected,
        heals,
        mean_detection_latency: if lat_n > 0 {
            lat_sum / lat_n as f64
        } else {
            0.0
        },
        false_positive_rate: fp_sum / seeds.len() as f64,
        total_heal_load: heal_load,
        all_outputs_exact: all_exact,
    }
}

/// Claim 2: healing forbidden — monotone degrades, non-monotone refuses.
fn degradation() -> Degradation {
    let (q, db, shards) = f0_workload();
    let expected = eval_query(&q, &db);
    let config = SupervisorConfig {
        max_heals: 0,
        ..SupervisorConfig::default()
    };
    let seed = 7;
    let plan = FaultPlan::crash_stop(seed, 1, 4);
    let p = MonotoneBroadcast::new(q.clone());
    let mono = supervise(
        &p,
        &shards,
        &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed)).with_faults(&plan),
        QueryMode::Monotone,
        &config,
    );
    let (answered, sound, coverage, missing_nodes, missing_facts) = match &mono.verdict {
        Degraded::Partial {
            answer,
            certificate,
        } => (
            true,
            answer.is_subset_of(&expected),
            certificate.coverage,
            certificate.missing_nodes.clone(),
            certificate.missing_facts,
        ),
        Degraded::Exact(ans) => (true, ans == &expected, 1.0, vec![], 0),
        Degraded::Refused { .. } => (false, false, 0.0, vec![], 0),
    };
    assert!(answered, "monotone queries must answer under degradation");
    assert!(sound, "the degraded answer must be a subset of Q(I)");

    // The non-monotone barrier query on its own 3-shard workload.
    let nq = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
    let ndb = Instance::from_facts([
        fact("E", &[1, 2]),
        fact("E", &[2, 3]),
        fact("E", &[3, 1]),
        fact("E", &[2, 4]),
    ]);
    let nshards = hash_distribution(&ndb, 3, 2);
    let np = CoordinatedBroadcast::idempotent(nq);
    let non = supervise(
        &np,
        &nshards,
        &RunCtx::simulated(Ctx::aware(3), Schedule::Random(seed))
            .with_faults(&FaultPlan::crash_stop(seed, 0, 4)),
        QueryMode::NonMonotone,
        &config,
    );
    let (refused, reason) = match &non.verdict {
        Degraded::Refused { reason, .. } => (true, reason.to_string()),
        _ => (false, String::new()),
    };
    assert!(refused, "non-monotone queries must refuse under shard loss");
    Degradation {
        monotone_answered: answered,
        monotone_sound: sound,
        coverage,
        missing_nodes,
        missing_facts,
        nonmonotone_refused: refused,
        refusal_reason: reason,
    }
}

/// Claim 3: the duplicate cells of the unfixed and fixed barrier.
fn barrier_fix() -> BarrierFix {
    let m = fault_matrix();
    let coord = m.cell("coord", "duplicate").unwrap().verdict;
    let fixed = m.cell("coord-seq", "duplicate").unwrap().verdict;
    assert_eq!(coord, Verdict::Fails, "the regression witness must fail");
    assert_eq!(
        fixed,
        Verdict::Consistent,
        "the fix must absorb duplication"
    );
    BarrierFix {
        coord_duplicate: coord.to_string(),
        coord_seq_duplicate: fixed.to_string(),
        fixed_is_sound: fixed != Verdict::Fails,
    }
}

/// Claim 4a: speculative backups cut the tail, change nothing else.
fn speculation() -> Speculation {
    let run = |spec: Option<SpeculationPolicy>| {
        let plan = FaultPlan::none(0).with_straggler(3, 9.0);
        let mut c = Cluster::new(8).with_faults(FaultPlan {
            speculation: spec,
            ..plan
        });
        for s in 0..8u64 {
            c.place(
                s as usize,
                (s..160).step_by(8).map(|i| fact("R", &[i, i * 7])),
            );
        }
        c.communicate(|f| vec![(f.args[0].0 % 8) as usize]);
        c
    };
    let plain = run(None);
    let spec = run(Some(SpeculationPolicy {
        threshold: 1.5,
        min_load: 2,
    }));
    let stats = RunReport::from_cluster("speculated", &spec, 160).stats;
    Speculation {
        backups: stats.speculative_backups,
        wins: stats.speculative_wins,
        wasted_work: stats.speculative_waste,
        tail_saved: stats.tail_saved,
        tail_plain: plain.tail_time(),
        tail_speculated: spec.tail_time(),
        output_matches: plain.union_all() == spec.union_all(),
        loads_match: plain.rounds()[0].received == spec.rounds()[0].received,
    }
}

/// Compute the record, printing its tables.
pub fn record() -> E19 {
    section("E19 detect + heal (φ-accrual, crash-stop at step 6, 5 seeds)");
    let detect_heal = detect_and_heal();
    println!(
        "  mean detection latency {} ticks, false-positive rate {}, heal load {} facts",
        f3(detect_heal.mean_detection_latency),
        f3(detect_heal.false_positive_rate),
        detect_heal.total_heal_load
    );

    section("E19 certified degradation (heal budget 0)");
    let degradation = degradation();
    println!(
        "  monotone: sound partial answer, coverage {} (missing nodes {:?}, {} facts)",
        f3(degradation.coverage),
        degradation.missing_nodes,
        degradation.missing_facts
    );
    println!("  non-monotone: refused — {}", degradation.refusal_reason);

    section("E19 the fixed barrier under duplication");
    let barrier = barrier_fix();
    let mut t = Table::new(&["program", "duplicate verdict"]);
    t.row(&[&"coord (counting)", &barrier.coord_duplicate]);
    t.row(&[&"coord-seq (idempotent)", &barrier.coord_seq_duplicate]);
    t.print();

    section("E19 speculative re-execution (straggler ×9, threshold 1.5)");
    let speculation = speculation();
    let mut t = Table::new(&[
        "backups",
        "wins",
        "waste",
        "tail plain",
        "tail spec",
        "exact",
    ]);
    t.row(&[
        &speculation.backups,
        &speculation.wins,
        &speculation.wasted_work,
        &f3(speculation.tail_plain),
        &f3(speculation.tail_speculated),
        &(speculation.output_matches && speculation.loads_match),
    ]);
    t.print();
    assert!(speculation.output_matches && speculation.loads_match);
    assert!(speculation.tail_speculated <= speculation.tail_plain);

    section("E19 MPC crash heal vs the m/p^{1/τ*} bound (triangle, p=27)");
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let mut db = datagen::matching_relation("R", 600, 0);
    db.extend_from(&datagen::matching_relation("S", 600, 2000));
    db.extend_from(&datagen::matching_relation("T", 600, 4000));
    let mpc_heal = heal_hypercube_crash(&q, &db, 27, 5, 3.0).unwrap();
    println!(
        "  dead {} → survivor {}: extra load {} vs predicted {} (exponent {}), within bound: {}, output matches: {}",
        mpc_heal.dead,
        mpc_heal.survivor,
        mpc_heal.extra_load,
        f3(mpc_heal.predicted_load),
        f3(mpc_heal.load_exponent),
        mpc_heal.within_bound,
        mpc_heal.output_matches
    );
    assert!(mpc_heal.output_matches && mpc_heal.within_bound);

    section("E19 deadline → retry budget (base 1, cap 64, 20% jitter)");
    let policy = parlog::faults::RetransmitPolicy {
        max_retries: u32::MAX,
        backoff_base: 1,
        backoff_cap: 64,
        jitter_pct: 20,
    };
    let retry_budget: Vec<(usize, u32)> = [4usize, 15, 31, 63, 127]
        .iter()
        .map(|&deadline| {
            let r = DeadlineRetry::new(policy, deadline);
            (deadline, r.retries_within_deadline())
        })
        .collect();
    let mut t = Table::new(&["deadline (ticks)", "retries affordable"]);
    for (d, n) in &retry_budget {
        t.row(&[d, n]);
    }
    t.print();

    E19 {
        detect_heal,
        degradation,
        barrier,
        speculation,
        mpc_heal,
        retry_budget,
    }
}

pub fn run() {
    json_record("e19_supervisor", &record());
}
