//! E23 — proof-carrying answers: certificate overhead, checker vs
//! engine time, and Byzantine detection latency.
//!
//! PR 6's verification layer, exercised end to end. Three
//! machine-checked claims:
//!
//! 1. **Verification is cheap and certificates are compact.** For the
//!    survey's reference shapes (triangle, star, C4) sharded over
//!    p ∈ {8, 27} servers, the trusted checker accepts every fault-free
//!    answer; certificate size is a small constant number of bytes per
//!    answer tuple (one witnessing valuation each), and checking a
//!    certificate does not re-run the engine — it replays witnesses and
//!    re-enumerates on the (much smaller) per-server shard.
//! 2. **Detection is total.** A sweep of seeded single-server
//!    corruptions (mutate / inject / drop × rotating victims × seeds)
//!    is rejected by the checker 100% of the time; the verified round
//!    quarantines exactly the lying server and heals, so the committed
//!    union equals the fault-free answer.
//! 3. **Latency is the audit cadence.** Under the supervisor's
//!    cadence-based auditor, rounds-to-quarantine for a corruption at
//!    round 1 equals the distance to the next audit: cadences
//!    {1, 2, 4, 8} give latencies {0, 0, 2, 6} over 8 rounds —
//!    verify-then-commit (cadence 1) is the zero-latency point of the
//!    same trade-off.
//!
//! Output: `JSON e23_timings {...}` (machine-dependent, first) and
//! `JSON e23_verify {...}` (deterministic, last line; committed as
//! `BENCH_e23.json`).

use crate::{best_ms, f3, json_record, section, Table};
use parlog::faults::{CorruptKind, FaultPlan};
use parlog::mpc::cluster::Cluster;
use parlog::prelude::*;
use parlog::relal::eval::EvalStrategy;
use parlog::relal::fact::fact;
use parlog::supervisor::prelude::*;
use parlog::trace::TraceHandle;
use parlog::verify::{check_cluster, prove_ucq, ServerCertificate};

/// Deterministic splitmix-style stream for data generation (no `rand`
/// so the record is reproducible byte-for-byte).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The reference shapes: name, query, relations to populate.
fn shapes() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    vec![
        (
            "triangle",
            "H(x,y,z) <- R(x,y), S(y,z), T(z,x)",
            vec!["R", "S", "T"],
        ),
        (
            "star",
            "H(x,a,b,c) <- R(x,a), S(x,b), T(x,c)",
            vec!["R", "S", "T"],
        ),
        (
            "c4",
            "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)",
            vec!["R", "S", "T", "U"],
        ),
    ]
}

/// `per_rel` random edges per relation over `domain` vertices,
/// deterministic in `seed`.
fn random_db(rels: &[&str], per_rel: u64, domain: u64, seed: u64) -> Instance {
    let mut db = Instance::new();
    for (ri, r) in rels.iter().enumerate() {
        for i in 0..per_rel {
            let h = mix(seed ^ mix((ri as u64) << 32 | i));
            db.insert(fact(r, &[h % domain, (h >> 20) % domain]));
        }
    }
    db
}

/// Round-robin sharding by sorted-fact index: deterministic and
/// balanced, like the cluster seeding in the verified-round tests.
fn shard(db: &Instance, p: usize) -> Vec<Instance> {
    let mut shards = vec![Instance::new(); p];
    for (i, f) in db.sorted_facts().into_iter().enumerate() {
        shards[i % p].insert(f);
    }
    shards
}

/// Each server's own locally-dense shard (per-server local computation
/// is what a certificate covers), sized so the total fact count is
/// comparable across `p`.
fn server_shards(rels: &[&str], p: usize) -> Vec<Instance> {
    let per_rel = 288 / p as u64;
    (0..p)
        .map(|s| random_db(rels, per_rel, 12, 0xE23 ^ s as u64))
        .collect()
}

/// Every server's answer and certificate: the engine plus certificate
/// construction.
fn prove_all(u: &UnionQuery, shards: &[Instance]) -> Vec<(Instance, ServerCertificate)> {
    shards
        .iter()
        .enumerate()
        .map(|(s, sh)| prove_ucq(s, u, sh, EvalStrategy::Auto))
        .collect()
}

#[derive(serde::Serialize)]
struct CertRecord {
    shape: String,
    p: usize,
    m: usize,
    answer_tuples: usize,
    witnesses: usize,
    cert_bytes: usize,
    bytes_per_tuple: f64,
    accepted: bool,
}

#[derive(serde::Serialize)]
struct CertTiming {
    shape: String,
    p: usize,
    engine_ms: f64,
    checker_ms: f64,
    checker_over_engine: f64,
}

#[derive(serde::Serialize)]
struct Detection {
    sweeps: usize,
    detected: usize,
    quarantined_exactly_victim: usize,
    healed_to_truth: usize,
    by_kind: Vec<(String, usize)>,
}

#[derive(serde::Serialize)]
struct LatencyRow {
    verify_every: usize,
    corrupted_round: usize,
    detected_round: usize,
    latency: usize,
}

/// The deterministic record, committed as `BENCH_e23.json`.
#[derive(serde::Serialize)]
pub struct E23 {
    certificates: Vec<CertRecord>,
    detection: Detection,
    latencies: Vec<LatencyRow>,
    /// Asserted: every sweep detected, every latency = distance to the
    /// next audit.
    all_corruptions_detected: bool,
}

#[derive(serde::Serialize)]
struct Timings {
    rows: Vec<CertTiming>,
}

/// Compute the record, printing its tables.
pub fn record() -> E23 {
    section("E23 certificates: size per answer tuple");
    let mut t = Table::new(&["shape", "p", "m", "answers", "cert bytes", "B/tuple"]);
    let mut certificates = Vec::new();
    for (shape, src, rels) in shapes() {
        let u = UnionQuery::new(vec![parse_query(src).unwrap()]);
        for p in [8usize, 27] {
            let shards = server_shards(&rels, p);
            let m: usize = shards.iter().map(Instance::len).sum();
            let (answers, certs): (Vec<Instance>, Vec<ServerCertificate>) =
                prove_all(&u, &shards).into_iter().unzip();
            let accepted = check_cluster(&u, &shards, &answers, &certs).is_ok();
            assert!(accepted, "{shape}/p={p}: fault-free answer rejected");
            let answer_tuples: usize = answers.iter().map(Instance::len).sum();
            let witnesses: usize = certs.iter().map(|c| c.witnesses.len()).sum();
            assert_eq!(witnesses, answer_tuples, "one witness per tuple");
            let cert_bytes: usize = certs.iter().map(|c| c.size_bytes()).sum();
            let bytes_per_tuple = cert_bytes as f64 / answer_tuples.max(1) as f64;
            t.row(&[
                &shape,
                &p,
                &m,
                &answer_tuples,
                &cert_bytes,
                &f3(bytes_per_tuple),
            ]);
            certificates.push(CertRecord {
                shape: shape.to_string(),
                p,
                m,
                answer_tuples,
                witnesses,
                cert_bytes,
                bytes_per_tuple,
                accepted,
            });
        }
    }
    t.print();

    section("E23 detection: seeded corruption sweep (mutate/inject/drop)");
    let u = UnionQuery::new(vec![parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap()]);
    let db = random_db(&["R", "S"], 120, 24, 0xBAD);
    const P: usize = 8;
    const SWEEPS: usize = 48;
    let truth = {
        let mut c = Cluster::new(P);
        for (s, sh) in shard(&db, P).into_iter().enumerate() {
            c.place(s, sh.iter().cloned());
        }
        c.compute_union_verified(&u, EvalStrategy::Indexed, true);
        c.union_all()
    };
    let mut detected = 0;
    let mut quarantined_exactly_victim = 0;
    let mut healed_to_truth = 0;
    let mut by_kind = vec![0usize; CorruptKind::ALL.len()];
    for seed in 0..SWEEPS as u64 {
        let kind = CorruptKind::ALL[seed as usize % CorruptKind::ALL.len()];
        let victim = seed as usize % P;
        let plan = FaultPlan::none(seed).with_corruption(0, victim, kind);
        let mut c = Cluster::new(P).with_faults(plan);
        for (s, sh) in shard(&db, P).into_iter().enumerate() {
            c.place(s, sh.iter().cloned());
        }
        let round = c.compute_union_verified(&u, EvalStrategy::Indexed, true);
        if round.detected.len() == 1 && round.detected[0].0 == victim {
            detected += 1;
            by_kind[seed as usize % CorruptKind::ALL.len()] += 1;
        }
        if c.quarantined()
            .iter()
            .enumerate()
            .all(|(i, &qd)| qd == (i == victim))
        {
            quarantined_exactly_victim += 1;
        }
        if c.union_all() == truth {
            healed_to_truth += 1;
        }
    }
    let detection = Detection {
        sweeps: SWEEPS,
        detected,
        quarantined_exactly_victim,
        healed_to_truth,
        by_kind: CorruptKind::ALL
            .iter()
            .zip(by_kind)
            .map(|(k, n)| (k.name().to_string(), n))
            .collect(),
    };
    assert_eq!(
        detection.detected, SWEEPS,
        "a corruption slipped past the checker"
    );
    assert_eq!(
        detection.healed_to_truth, SWEEPS,
        "a heal failed to restore the truth"
    );
    println!(
        "{} / {} corruptions detected, {} healed back to the fault-free union",
        detection.detected, SWEEPS, detection.healed_to_truth
    );

    section("E23 latency: rounds-to-quarantine vs audit cadence");
    let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
    let shards4 = shard(&random_db(&["R", "S"], 60, 12, 0x717), 4);
    let mut lt = Table::new(&["cadence", "corrupted @", "detected @", "latency"]);
    let mut latencies = Vec::new();
    const ROUNDS: usize = 8;
    for verify_every in [1usize, 2, 4, 8] {
        let plan = FaultPlan::none(99).with_corruption(1, 2, CorruptKind::Mutate);
        let report = run_verified_rounds(
            &vec![UnionQuery::new(vec![q.clone()]); ROUNDS],
            &shards4,
            EvalStrategy::Indexed,
            &plan,
            VerifyPolicy { verify_every },
            &TraceHandle::off(),
        );
        assert_eq!(
            report.detections.len(),
            1,
            "cadence {verify_every}: undetected"
        );
        let d = &report.detections[0];
        assert_eq!(d.server, 2);
        // Latency = distance from the corrupted round to the next audit.
        let expected = verify_every - 1 - (d.corrupted_round % verify_every);
        assert_eq!(d.latency, expected, "cadence {verify_every}");
        lt.row(&[
            &verify_every,
            &d.corrupted_round,
            &d.detected_round,
            &d.latency,
        ]);
        latencies.push(LatencyRow {
            verify_every,
            corrupted_round: d.corrupted_round,
            detected_round: d.detected_round,
            latency: d.latency,
        });
    }
    lt.print();

    E23 {
        certificates,
        detection,
        latencies,
        all_corruptions_detected: true,
    }
}

/// The wall-clock section: prove (engine + certificate construction)
/// against the trusted check, best of 2 each.
fn timings() -> Timings {
    section("E23 wall-clock: engine vs checker, best of 2");
    let mut t = Table::new(&["shape", "p", "engine ms", "checker ms"]);
    let mut rows = Vec::new();
    for (shape, src, rels) in shapes() {
        let u = UnionQuery::new(vec![parse_query(src).unwrap()]);
        for p in [8usize, 27] {
            let shards = server_shards(&rels, p);
            let engine_ms = best_ms(2, || {
                prove_all(&u, &shards);
            });
            let (answers, certs): (Vec<Instance>, Vec<ServerCertificate>) =
                prove_all(&u, &shards).into_iter().unzip();
            let checker_ms = best_ms(2, || {
                check_cluster(&u, &shards, &answers, &certs).expect("accepted");
            });
            t.row(&[&shape, &p, &f3(engine_ms), &f3(checker_ms)]);
            rows.push(CertTiming {
                shape: shape.to_string(),
                p,
                engine_ms,
                checker_ms,
                checker_over_engine: checker_ms / engine_ms.max(1e-9),
            });
        }
    }
    t.print();
    Timings { rows }
}

pub fn run() {
    let record = record();
    // Machine-dependent record first; the deterministic record is the
    // final stdout line.
    json_record("e23_timings", &timings());
    json_record("e23_verify", &record);
}
