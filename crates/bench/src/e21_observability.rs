//! E21 — the observability layer watching both substrates.
//!
//! PR 4 threads `parlog-trace` through the MPC cluster and the
//! transducer scheduler. This experiment drives it end to end and
//! machine-checks three claims:
//!
//! 1. **The histograms see the theory.** On skew-free triangles the
//!    traced per-server max load stays within a small constant of the
//!    Shares bound `m/p^{1/τ*}` (`1/τ* = 2/3`) for p ∈ {8, 27}; on the
//!    Zipf-skewed workload the same ratio visibly degrades — the trace
//!    is where skew shows up first.
//! 2. **Determinism survives instrumentation.** The deterministic trace
//!    section (spans on the virtual clock, histograms, counters,
//!    timeline) is byte-identical across worker-thread counts and
//!    reruns, fault-free and faulty alike; wall-clock lives in its own
//!    segregated record.
//! 3. **The decision timeline is complete.** A supervised crash-stop
//!    run logs `Crash → Suspect → ConfirmDead → Heal` in that order,
//!    and the sink's message counters agree with the fault injector's
//!    own books.
//!
//! Output: `JSON e21_wall {...}` (machine-dependent, first) and
//! `JSON e21_observability {...}` (deterministic, last line; committed
//! as `BENCH_e21.json`).

use std::sync::Arc;

use crate::{f3, json_record, section, Table};
use parlog::faults::{FaultPlan, SpeculationPolicy};
use parlog::mpc::cluster::Cluster;
use parlog::mpc::datagen;
use parlog::mpc::hypercube::HypercubeAlgorithm;
use parlog::mpc::partition::{seed_cluster, InitialPartition};
use parlog::prelude::*;
use parlog::relal::packing::hypercube_load_exponent;
use parlog::supervisor::degrade::QueryMode;
use parlog::supervisor::supervise::{supervise, SupervisorConfig};
use parlog::trace::{FaultEventKind, LoadBound, MemSink, TraceHandle};
use parlog::transducer::distribution::hash_distribution;
use parlog::transducer::prelude::MonotoneBroadcast;
use parlog::transducer::program::Ctx;
use parlog::transducer::scheduler::{RunCtx, Schedule};

/// Per-relation tuple count and domain for the MPC workloads.
const M: usize = 6_000;
const DOMAIN: u64 = 400;
const SEED: u64 = 42;

fn triangle() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
}

/// One traced fault-free HyperCube run: deterministic JSON, the report's
/// aggregates, and the wall-clock total.
fn traced_run(
    hc: &HypercubeAlgorithm,
    q: &ConjunctiveQuery,
    db: &Instance,
    threads: usize,
) -> (String, parlog::trace::TraceReport, u64) {
    let sink = Arc::new(MemSink::new());
    let mut cluster = Cluster::new(hc.servers())
        .with_parallelism(threads)
        .with_trace(TraceHandle::to(sink.clone()));
    hc.run_on(&mut cluster, db);
    let bound = LoadBound::new(
        db.len(),
        hc.servers(),
        hypercube_load_exponent(q).expect("triangle packs"),
    );
    let report = sink.report_with_bound(Some(bound));
    let json = serde_json::to_string(&report).unwrap();
    (json, report, sink.wall_report().total_ns)
}

/// One traced *faulty* run: crash in round 0, straggler, speculation.
fn traced_faulty_json(q: &ConjunctiveQuery, db: &Instance, p: usize, threads: usize) -> String {
    let hc = HypercubeAlgorithm::new(q, p).unwrap();
    let sink = Arc::new(MemSink::new());
    let mut cluster = Cluster::new(hc.servers())
        .with_parallelism(threads)
        .with_trace(TraceHandle::to(sink.clone()))
        .with_faults(
            FaultPlan::crash_stop(0, 2, 0)
                .with_straggler(1, 4.0)
                .with_speculation(SpeculationPolicy {
                    threshold: 1.5,
                    min_load: 2,
                }),
        );
    seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
    cluster.communicate(|f| hc.destinations(f));
    cluster.compute_query(q, EvalStrategy::Indexed);
    serde_json::to_string(&sink.report()).unwrap()
}

#[derive(serde::Serialize)]
struct LoadRecord {
    workload: String,
    p: usize,
    m: usize,
    max_load: usize,
    p50: usize,
    p95: usize,
    balance: f64,
    predicted: f64,
    max_over_bound: f64,
    identical_across_threads: bool,
}

#[derive(serde::Serialize)]
struct SupervisedRecord {
    nodes: usize,
    exact: bool,
    lifecycle_in_order: bool,
    detection_latency: u64,
    counters_match_injector: bool,
    deterministic_rerun: bool,
    timeline_events: usize,
}

/// The deterministic record, committed as `BENCH_e21.json`.
#[derive(serde::Serialize)]
pub struct E21 {
    m_per_relation: usize,
    domain: u64,
    loads: Vec<LoadRecord>,
    faulty_identical_across_threads: bool,
    supervised: SupervisedRecord,
}

#[derive(serde::Serialize)]
struct Wall {
    hardware_threads: usize,
    traced_total_ns: u64,
}

/// Supervised crash-stop on 4 transducer nodes, traced twice.
fn supervised_section() -> SupervisedRecord {
    let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
    let db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
    let expected = eval_query(&q, &db);
    let shards = hash_distribution(&db, 4, 3);
    let program = MonotoneBroadcast::new(q);
    let plan = FaultPlan::crash_stop(2, 0, 6);
    let run_once = || {
        let sink = Arc::new(MemSink::new());
        let out = supervise(
            &program,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(2))
                .with_faults(&plan)
                .with_trace(TraceHandle::to(sink.clone())),
            QueryMode::Monotone,
            &SupervisorConfig::default(),
        );
        (out, sink)
    };
    let (out, sink) = run_once();
    let (_, sink2) = run_once();
    let timeline = sink.timeline();
    let pos = |kind: FaultEventKind| timeline.iter().position(|e| e.kind == kind && e.node == 0);
    let order: Vec<Option<usize>> = [
        FaultEventKind::Crash,
        FaultEventKind::Suspect,
        FaultEventKind::ConfirmDead,
        FaultEventKind::Heal,
    ]
    .into_iter()
    .map(pos)
    .collect();
    let lifecycle_in_order =
        order.iter().all(Option::is_some) && order.windows(2).all(|w| w[0] < w[1]);
    let ours = sink.comm();
    let theirs = out.fault_stats.as_comm_counters();
    let counters_match_injector = ours.dropped == theirs.dropped
        && ours.duplicated == theirs.duplicated
        && ours.retransmitted == theirs.retransmitted
        && ours.acks == theirs.acks
        && ours.wasted == theirs.wasted;
    SupervisedRecord {
        nodes: shards.len(),
        exact: out.verdict.is_exact() && out.verdict.answer() == Some(&expected),
        lifecycle_in_order,
        detection_latency: out
            .report
            .detections
            .first()
            .map_or(0, |d| d.latency as u64),
        counters_match_injector,
        deterministic_rerun: serde_json::to_string(&sink.report()).unwrap()
            == serde_json::to_string(&sink2.report()).unwrap(),
        timeline_events: timeline.len(),
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn workloads() -> [(&'static str, Instance); 2] {
    [
        ("skew-free", datagen::triangle_db(M, DOMAIN, SEED)),
        ("zipf-skew", datagen::triangle_heavy_db(M, DOMAIN, SEED)),
    ]
}

/// Compute the record, printing its tables.
pub fn record() -> E21 {
    let hardware = hardware_threads();
    let q = triangle();
    let mut loads: Vec<LoadRecord> = Vec::new();
    for (name, db) in &workloads() {
        section(&format!(
            "E21 {name} triangles (m = {M}/relation, domain {DOMAIN}): observed load vs m/p^(2/3)"
        ));
        let mut t = Table::new(&[
            "p",
            "max load",
            "p50",
            "p95",
            "balance",
            "predicted",
            "max/bound",
            "identical",
        ]);
        for p in [8usize, 27] {
            let hc = HypercubeAlgorithm::new(&q, p).unwrap();
            let (json1, report, _) = traced_run(&hc, &q, db, 1);
            let (json8, _, _) = traced_run(&hc, &q, db, 8.min(hardware));
            let identical = json1 == json8;
            assert!(identical, "{name} p={p}: trace must not see thread count");
            let round = report.rounds.last().expect("one round happened");
            let ratio = report.max_over_bound.expect("bound configured");
            if *name == "skew-free" {
                assert!(
                    report.max_load as f64
                        <= 3.0 * report.bound.as_ref().expect("bound configured").predicted + 1.0,
                    "p={p}: max load {} breaks the packing bound",
                    report.max_load
                );
            }
            t.row(&[
                &p,
                &report.max_load,
                &round.p50,
                &round.p95,
                &f3(round.balance),
                &f3(report.bound.as_ref().expect("bound configured").predicted),
                &f3(ratio),
                &identical,
            ]);
            loads.push(LoadRecord {
                workload: name.to_string(),
                p,
                m: db.len(),
                max_load: report.max_load,
                p50: round.p50,
                p95: round.p95,
                balance: round.balance,
                predicted: report.bound.as_ref().expect("bound configured").predicted,
                max_over_bound: ratio,
                identical_across_threads: identical,
            });
        }
        t.print();
    }

    section("E21 faulty run (crash + straggler + speculation): trace determinism");
    let faulty_db = datagen::triangle_db(2_000, 200, 7);
    let faulty_base = traced_faulty_json(&q, &faulty_db, 8, 1);
    let faulty_identical_across_threads = [1usize, 2, 8.min(hardware)]
        .into_iter()
        .all(|t| traced_faulty_json(&q, &faulty_db, 8, t) == faulty_base);
    assert!(
        faulty_identical_across_threads,
        "faulty trace must not see thread count"
    );
    println!(
        "  faulty deterministic section identical across 1/2/{} threads",
        8.min(hardware)
    );

    section("E21 supervised crash-stop: the decision timeline");
    let supervised = supervised_section();
    assert!(supervised.exact, "heal must restore the exact answer");
    assert!(
        supervised.lifecycle_in_order,
        "timeline must read crash -> suspect -> confirm -> heal"
    );
    assert!(
        supervised.counters_match_injector,
        "sink counters must agree with the injector's books"
    );
    assert!(supervised.deterministic_rerun);
    println!(
        "  {} timeline events, detection latency {} ticks, counters reconciled",
        supervised.timeline_events, supervised.detection_latency
    );

    E21 {
        m_per_relation: M,
        domain: DOMAIN,
        loads,
        faulty_identical_across_threads,
        supervised,
    }
}

/// The wall-clock section: the single-threaded traced runs' total.
fn wall() -> Wall {
    let q = triangle();
    let mut traced_total_ns = 0;
    for (_, db) in &workloads() {
        for p in [8usize, 27] {
            let hc = HypercubeAlgorithm::new(&q, p).unwrap();
            traced_total_ns += traced_run(&hc, &q, db, 1).2;
        }
    }
    Wall {
        hardware_threads: hardware_threads(),
        traced_total_ns,
    }
}

pub fn run() {
    let record = record();
    // Machine-dependent record first; the deterministic record is the
    // final stdout line.
    json_record("e21_wall", &wall());
    json_record("e21_observability", &record);
}
