//! E20 — the parallel round engine: same bytes, less wall-clock.
//!
//! The MPC model is defined by parallel servers; PR 3 makes the simulator
//! actually run them in parallel (scoped worker threads in both phases,
//! results merged in server order). One machine-checked claim:
//!
//! **Determinism.** For every p and every workload (skew-free and
//! Zipf-skewed triangles), the parallel engine's output *and* its
//! serialized `RunStats` are byte-identical to the sequential engine's —
//! the thread count is unobservable in the results.
//!
//! The wall-clock speed-up of the parallel engine is measured by
//! `crates/perf`: `mpc.cluster.par2_speedup` (a traced `mpc_shuffle`
//! pass) times one HyperCube job on 1 and on 2 worker threads.
//!
//! Per-server max-load is recorded across p and skew: load balance is
//! what converts worker threads into wall-clock, so the skewed workload's
//! straggling server would show as a smaller speedup at equal p.
//!
//! Output: `JSON e20_parallel_engine {...}` (deterministic, last line;
//! committed as `BENCH_e20.json`).

use crate::{f3, json_record, section, Table};
use parlog::mpc::cluster::Cluster;
use parlog::mpc::datagen;
use parlog::mpc::hypercube::HypercubeAlgorithm;
use parlog::mpc::report::RunReport;
use parlog::prelude::*;

/// Workload sizes: per-relation tuple count and domain.
const M: usize = 12_000;
const DOMAIN: u64 = 600;
const SEED: u64 = 42;
/// Server counts swept.
const SERVERS: [usize; 4] = [4, 8, 16, 27];

fn workloads() -> Vec<(&'static str, Instance)> {
    vec![
        ("skew-free", datagen::triangle_db(M, DOMAIN, SEED)),
        ("zipf-skew", datagen::triangle_heavy_db(M, DOMAIN, SEED)),
    ]
}

fn triangle() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
}

/// Worker threads of the parallel engine: the hardware's, up to 8.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

/// One HyperCube run on a cluster with `threads` workers per phase.
fn run_on(hc: &HypercubeAlgorithm, db: &Instance, threads: usize) -> RunReport {
    hc.run_on(
        &mut Cluster::new(hc.servers()).with_parallelism(threads),
        db,
    )
}

#[derive(serde::Serialize)]
struct ConfigRecord {
    workload: String,
    p: usize,
    servers: usize,
    m: usize,
    output_size: usize,
    max_load: usize,
    mean_load: f64,
    balance: f64,
    output_identical: bool,
    stats_identical: bool,
}

/// The deterministic record, committed as `BENCH_e20.json`.
#[derive(serde::Serialize)]
pub struct E20 {
    m_per_relation: usize,
    domain: u64,
    configs: Vec<ConfigRecord>,
    all_identical: bool,
}

/// Compute the record, printing its tables: every configuration on the
/// sequential and on the parallel engine.
pub fn record() -> E20 {
    let workers = workers();
    let q = triangle();
    let mut configs: Vec<ConfigRecord> = Vec::new();
    let mut all_identical = true;
    for (name, db) in workloads() {
        section(&format!(
            "E20 {name} triangles (m = {M}/relation, domain {DOMAIN}, {workers} worker threads)"
        ));
        let mut t = Table::new(&["p", "servers", "max load", "balance", "identical"]);
        for p in SERVERS {
            let hc = HypercubeAlgorithm::new(&q, p).unwrap();
            let seq = run_on(&hc, &db, 1);
            let par = run_on(&hc, &db, workers);
            let output_identical = par.output == seq.output;
            let stats_identical = serde_json::to_string(&par.stats).unwrap()
                == serde_json::to_string(&seq.stats).unwrap();
            all_identical &= output_identical && stats_identical;
            let mean_load = seq.stats.total_comm as f64 / hc.servers() as f64;
            let balance = seq.stats.max_load as f64 / mean_load.max(1e-9);
            t.row(&[
                &p,
                &hc.servers(),
                &seq.stats.max_load,
                &f3(balance),
                &(output_identical && stats_identical),
            ]);
            configs.push(ConfigRecord {
                workload: name.to_string(),
                p,
                servers: hc.servers(),
                m: db.len(),
                output_size: seq.output.len(),
                max_load: seq.stats.max_load,
                mean_load,
                balance,
                output_identical,
                stats_identical,
            });
        }
        t.print();
    }
    assert!(all_identical, "parallel engine must be byte-identical");
    E20 {
        m_per_relation: M,
        domain: DOMAIN,
        configs,
        all_identical,
    }
}

pub fn run() {
    json_record("e20_parallel_engine", &record());
}
