//! E27 — the MVCC snapshot serving layer under closed-loop load.
//!
//! PR 10 turns the single-instance engine into a serving system:
//! immutable sealed snapshots published by one release-store, lock-free
//! pinned reads, a `(query, strategy, generation)` plan cache, bounded
//! admission, background LSM compaction, and view refresh hooked into
//! publication so snapshots carry already-consistent view outputs.
//! This experiment drives the whole stack with the seeded Zipf closed
//! loop of `parlog_serve::harness` — a concurrent writer publishes a
//! new generation every `publish_every` requests while 1/2/4 readers
//! serve the mix (CQs, a UCQ, a materialized TC program, point-lookup
//! batches) from their pins.
//!
//! Work is the engine's deterministic relational op counter; a
//! k-reader closed loop's *makespan* is its largest per-reader op sum,
//! so `makespan(1) / makespan(k)` is the deterministic read-scaling
//! ratio. Because pinned reads share the sealed snapshot lock-free —
//! no lock, no copy, no coordination — the ratio is ≈ k.
//!
//! Machine-checked claims:
//!
//! * aggregate read throughput at 4 readers is ≥ 3× the single-reader
//!   baseline (deterministic, via op-count makespans);
//! * the plan-cache hit rate on the Zipf mix is ≥ 90% at every reader
//!   count — misses happen once per (query, generation, session), hits
//!   amortize everything else;
//! * zero snapshot-isolation violations: every audit of an old pin
//!   (one per re-pin, per reader) answered byte-identically;
//! * zero admission refusals (the closed loop stays within capacity),
//!   frozen-view hits observed (TC served in O(1)), and background
//!   compaction installed merged runs.
//!
//! Output: `JSON e27_wall {...}` (machine-dependent: real threads,
//! real clock — first) and `JSON e27_serving {...}` (deterministic,
//! last line; committed as `BENCH_e27.json`).

use crate::{f3, json_record, section, Table};
use parlog::serve::harness::{run_virtual, run_wall, VirtualReport, WorkloadSpec};
use std::time::Instant;

/// Deterministic read-scaling floor at 4 readers.
const MIN_SPEEDUP4: f64 = 3.0;
/// Plan-cache hit-rate floor on the Zipf mix.
const MIN_HIT_RATE: f64 = 0.90;

/// The deterministic record, committed as `BENCH_e27.json`.
#[derive(serde::Serialize)]
pub struct E27 {
    min_speedup4: f64,
    min_hit_rate: f64,
    speedup2: f64,
    speedup4: f64,
    baseline: VirtualReport,
    two_readers: VirtualReport,
    four_readers: VirtualReport,
}

#[derive(serde::Serialize)]
struct E27Wall {
    virtual_runs_ms: f64,
    wall: parlog::serve::harness::WallServeReport,
}

/// Compute the record (the three virtual closed loops), printing its
/// table.
pub fn record() -> E27 {
    section("E27 — MVCC snapshot serving under closed-loop Zipf load");
    let spec = WorkloadSpec::default();
    println!(
        "{} requests, {} base nodes, publish every {}, re-pin every {}, Zipf s={}",
        spec.requests, spec.nodes, spec.publish_every, spec.repin_every, spec.zipf_s
    );

    let one = run_virtual(&WorkloadSpec {
        readers: 1,
        ..spec.clone()
    });
    let two = run_virtual(&WorkloadSpec {
        readers: 2,
        ..spec.clone()
    });
    let four = run_virtual(&WorkloadSpec { readers: 4, ..spec });

    let mut table = Table::new(&[
        "readers",
        "makespan ops",
        "req/Mop",
        "p99 ops",
        "hit rate",
        "view hits",
        "gens served",
        "iso viol",
    ]);
    for r in [&one, &two, &four] {
        table.row(&[
            &r.readers,
            &r.makespan_ops,
            &f3(r.throughput_per_mop),
            &r.latency_ops_p99,
            &f3(r.plan_hit_rate),
            &r.view_hits,
            &r.generations_served,
            &r.isolation_violations,
        ]);
    }
    table.print();

    let speedup2 = one.makespan_ops as f64 / two.makespan_ops as f64;
    let speedup4 = one.makespan_ops as f64 / four.makespan_ops as f64;
    println!(
        "read scaling: 2 readers {}, 4 readers {}",
        f3(speedup2),
        f3(speedup4)
    );

    // The tentpole claim: lock-free pinned reads scale.
    assert!(
        speedup4 >= MIN_SPEEDUP4,
        "read scaling at 4 readers is {speedup4:.3}, below the {MIN_SPEEDUP4}× floor"
    );
    for r in [&one, &two, &four] {
        assert!(
            r.plan_hit_rate >= MIN_HIT_RATE,
            "plan-cache hit rate {:.3} at {} readers below {MIN_HIT_RATE}",
            r.plan_hit_rate,
            r.readers
        );
        assert_eq!(
            r.isolation_violations, 0,
            "snapshot isolation violated at {} readers",
            r.readers
        );
        assert_eq!(r.refusals, 0, "closed loop must stay within capacity");
        assert!(r.view_hits > 0, "TC requests should hit the frozen view");
        assert!(
            r.compactions_installed > 0,
            "the compactor should install merged runs"
        );
        assert!(r.publications > 1 && r.generations_served > 1);
    }

    E27 {
        min_speedup4: MIN_SPEEDUP4,
        min_hit_rate: MIN_HIT_RATE,
        speedup2,
        speedup4,
        baseline: one,
        two_readers: two,
        four_readers: four,
    }
}

pub fn run() {
    let t0 = Instant::now();
    let record = record();
    let virtual_runs_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The wall section: real threads, real writer, real background
    // compactor. Reported, never asserted.
    let wall = run_wall(&WorkloadSpec {
        requests: 4_000,
        ..WorkloadSpec::default()
    });
    println!(
        "wall (4 readers, live writer): {} req at {} qps, p99 {} µs, {} publications",
        wall.requests,
        f3(wall.throughput_qps),
        f3(wall.p99_us),
        wall.publications
    );
    assert_eq!(wall.isolation_violations, 0);

    // Machine-dependent record first; the deterministic record is the
    // final stdout line.
    json_record(
        "e27_wall",
        &E27Wall {
            virtual_runs_ms,
            wall,
        },
    );
    json_record("e27_serving", &record);
}
