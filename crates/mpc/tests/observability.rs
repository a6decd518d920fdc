//! Observability contract tests (PR 4, satellite):
//!
//! (a) the deterministic trace section is byte-identical across reruns
//!     *and across worker-thread counts*, fault-free and faulty alike —
//!     wall-clock is segregated, never mixed in;
//! (b) the sink's per-round load histograms agree exactly with the
//!     cluster's own `RoundStats` books, whatever the data.

use std::sync::Arc;

use proptest::prelude::*;

use parlog_faults::{FaultPlan, SpeculationPolicy};
use parlog_mpc::cluster::Cluster;
use parlog_mpc::datagen;
use parlog_mpc::hypercube::HypercubeAlgorithm;
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::ConjunctiveQuery;
use parlog_trace::{MemSink, TraceHandle};

fn triangle() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
}

/// One traced fault-free HyperCube run; returns the deterministic
/// section's JSON.
fn traced_hypercube_json(db: &Instance, threads: usize) -> String {
    let q = triangle();
    let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
    let sink = Arc::new(MemSink::new());
    let mut cluster = Cluster::new(hc.servers())
        .with_parallelism(threads)
        .with_trace(TraceHandle::to(sink.clone()));
    hc.run_on(&mut cluster, db);
    serde_json::to_string(&sink.report()).unwrap()
}

#[test]
fn fault_free_trace_is_identical_across_thread_counts_and_reruns() {
    let db = datagen::triangle_db(300, 50, 11);
    let baseline = traced_hypercube_json(&db, 1);
    assert!(baseline.contains("\"rounds\""));
    assert!(
        !baseline.contains("wall_ns"),
        "wall-clock must never reach the deterministic section"
    );
    for threads in [1, 2, 8] {
        assert_eq!(
            traced_hypercube_json(&db, threads),
            baseline,
            "threads = {threads}"
        );
    }
}

/// A faulty, speculative, multi-attempt run: crash in round 0, a
/// straggler, and backup tasks. Returns the deterministic JSON and the
/// sink for inspection.
fn traced_faulty_run(db: &Instance, threads: usize) -> (String, Arc<MemSink>) {
    let q = triangle();
    let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
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
    cluster.compute_query(&q, EvalStrategy::Indexed);
    (serde_json::to_string(&sink.report()).unwrap(), sink)
}

#[test]
fn faulty_trace_is_identical_across_thread_counts_and_reruns() {
    let db = datagen::triangle_db(200, 40, 7);
    let (baseline, sink) = traced_faulty_run(&db, 1);
    let comm = sink.comm();
    assert!(comm.wasted > 0, "the replayed attempt must be booked");
    assert!(comm.bytes > 0);
    assert!(
        !sink.timeline().is_empty(),
        "the crash replay must land on the timeline"
    );
    for threads in [1, 2, 8] {
        let (json, _) = traced_faulty_run(&db, threads);
        assert_eq!(json, baseline, "threads = {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (b) For every round the sink's histogram total, max and server
    /// count equal the cluster's own `RoundStats`, and the report-level
    /// aggregates equal the cluster-level accessors.
    #[test]
    fn histograms_agree_with_round_stats(
        pairs in prop::collection::vec((0u64..40, 0u64..40), 1..60),
        p in 2usize..6,
        rounds in 1usize..3,
    ) {
        let db = Instance::from_facts(
            pairs.into_iter().map(|(a, b)| parlog_relal::fact::fact("E", &[a, b])),
        );
        let sink = Arc::new(MemSink::new());
        let mut cluster = Cluster::new(p).with_trace(TraceHandle::to(sink.clone()));
        seed_cluster(&mut cluster, &db, InitialPartition::RoundRobin);
        for r in 0..rounds {
            cluster.communicate(|f| vec![((f.args[0].0 as usize) + r) % p]);
        }
        let report = sink.report();
        prop_assert_eq!(report.rounds.len(), cluster.rounds().len());
        for (ours, theirs) in report.rounds.iter().zip(cluster.rounds()) {
            prop_assert_eq!(ours.total, theirs.total_comm);
            prop_assert_eq!(ours.max, theirs.max_load);
            prop_assert_eq!(ours.servers, theirs.received.len());
            prop_assert_eq!(ours.min, *theirs.received.iter().min().unwrap());
            prop_assert!(ours.p50 <= ours.p95 && ours.p95 <= ours.max);
        }
        prop_assert_eq!(report.total_comm, cluster.total_comm());
        prop_assert_eq!(report.max_load, cluster.max_load());
    }
}
