//! E26 — skew-adaptive multi-round joins vs one-round HyperCube.
//!
//! PR 9 adds the heavy/light decomposition of Beame–Koutris–Suciu
//! (arXiv:1604.01848) and Ketsman–Suciu–Tao (arXiv:2011.14482) as a
//! multi-round engine: heavy hitters detected from database statistics,
//! one residual sub-plan per heavy pattern, patterns LPT-packed into
//! waves so each gets a server block close to all of `p`. This
//! experiment machine-checks the load claim on a Zipf grid.
//!
//! Workload: the binary join `H(x,y,z) <- R(x,y), S(y,z)` with the join
//! attribute `y` Zipf(s)-distributed on both sides over a shared
//! domain, for `s ∈ {0.5, 1.0, 1.5}` and `p ∈ {8, 27, 64}`.
//!
//! Machine-checked claims:
//!
//! * on every grid point the engine's measured max load is within
//!   `SLACK ×` its own skew-aware bound (`max` over patterns of the
//!   finite-size guarantee `m_pat / B^{1/τ*_res} + |body| · f_light`,
//!   the residual packing exponent on the pattern's block plus one
//!   heaviest-light value per atom — see
//!   `SkewAdaptiveJoin::load_bound`);
//! * on at least one grid point (the heavy-skew corner) plain one-round
//!   HyperCube *exceeds* that bound — one hash bucket swallows the
//!   heavy hitter, which is exactly what the decomposition repairs;
//! * both engines produce identical outputs everywhere.
//!
//! The engine's wall-clock on this workload is `crates/perf`'s
//! `mpc.job.skew_join.p50_us` (an `mpc_shuffle` job on one of this
//! grid's points).
//!
//! Output: `JSON e26_skew_adaptive {...}` (deterministic, last line;
//! committed as `BENCH_e26.json`).

use crate::{f3, json_record, section, Table};
use parlog_mpc::datagen;
use parlog_mpc::prelude::*;
use parlog_mpc::SkewConfig;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::query::ConjunctiveQuery;

/// Facts per relation (input size `m = 2 × FACTS`).
const FACTS: usize = 1000;
/// Zipf domain of the join attribute — wide enough that light buckets
/// hold many values, so hash variance stays small next to the bound.
const DOMAIN: u64 = 1000;
/// Zipf exponents (0.5 = mild, 1.5 = a Θ(m) heavy hitter).
const EXPONENTS: [f64; 3] = [0.5, 1.0, 1.5];
/// Server counts.
const SERVERS: [usize; 3] = [8, 27, 64];
/// Multiplicative slack over the theory bound (integer shares + hash
/// variance).
const SLACK: f64 = 2.0;

/// R ⋈ S with the join attribute Zipf-skewed on both sides.
fn zipf_join_db(s: f64, seed: u64) -> Instance {
    let mut db = datagen::zipf_relation_at("R", FACTS, DOMAIN, s, seed, 1);
    db.extend_from(&datagen::zipf_relation_at(
        "S",
        FACTS,
        DOMAIN,
        s,
        seed ^ 0xa5a5,
        0,
    ));
    db
}

#[derive(serde::Serialize)]
struct PointRecord {
    s: f64,
    p: usize,
    m: usize,
    patterns: usize,
    waves: usize,
    /// The bound's binding pattern (worst predicted component).
    worst_pattern: String,
    predicted: f64,
    skew_load: usize,
    skew_ratio: f64,
    skew_rounds: usize,
    plain_load: usize,
    plain_ratio: f64,
    outputs_identical: bool,
    /// Asserted: `skew_load ≤ SLACK × predicted`.
    skew_within_bound: bool,
    /// Does plain HyperCube blow the same budget here?
    plain_exceeds_bound: bool,
}

/// The deterministic record, committed as `BENCH_e26.json`.
#[derive(serde::Serialize)]
pub struct E26 {
    facts_per_relation: usize,
    domain: u64,
    slack: f64,
    points: Vec<PointRecord>,
    points_where_plain_exceeds: usize,
}

fn join() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
}

/// Compute the record, printing its table.
pub fn record() -> E26 {
    let q = join();
    section("E26 skew-adaptive multi-round joins: load vs skew bound");
    let mut t = Table::new(&[
        "s", "p", "pats", "waves", "bound", "skew", "ratio", "plain", "ratio", "plain>",
    ]);
    let mut points = Vec::new();
    for (si, &s) in EXPONENTS.iter().enumerate() {
        let db = zipf_join_db(s, 0xe26 + si as u64);
        for &p in &SERVERS {
            let alg = SkewAdaptiveJoin::from_stats(&q, &db, p, SkewConfig::default());
            let bound = alg.load_bound();
            let rs = alg.run(&db);
            let rp = HypercubeAlgorithm::new(&q, p).expect("share LP").run(&db);

            let outputs_identical = rs.output == rp.output;
            assert!(outputs_identical, "engines diverged at s={s} p={p}");
            let budget = SLACK * bound.predicted;
            let skew_within_bound = (rs.stats.max_load as f64) <= budget;
            assert!(
                skew_within_bound,
                "s={s} p={p}: skew load {} exceeds {SLACK}x bound {}",
                rs.stats.max_load, bound.predicted
            );
            let plain_exceeds_bound = (rp.stats.max_load as f64) > budget;
            let worst_pattern = bound
                .components
                .as_ref()
                .and_then(|cs| {
                    cs.iter()
                        .max_by(|a, b| a.predicted.partial_cmp(&b.predicted).expect("no NaN"))
                })
                .map(|c| c.pattern.clone())
                .unwrap_or_default();
            let skew_ratio = rs.stats.max_load as f64 / bound.predicted;
            let plain_ratio = rp.stats.max_load as f64 / bound.predicted;
            t.row(&[
                &s,
                &p,
                &alg.pattern_count(),
                &alg.wave_count(),
                &f3(bound.predicted),
                &rs.stats.max_load,
                &f3(skew_ratio),
                &rp.stats.max_load,
                &f3(plain_ratio),
                &plain_exceeds_bound,
            ]);
            points.push(PointRecord {
                s,
                p,
                m: db.len(),
                patterns: alg.pattern_count(),
                waves: alg.wave_count(),
                worst_pattern,
                predicted: bound.predicted,
                skew_load: rs.stats.max_load,
                skew_ratio,
                skew_rounds: rs.stats.rounds,
                plain_load: rp.stats.max_load,
                plain_ratio,
                outputs_identical,
                skew_within_bound,
                plain_exceeds_bound,
            });
        }
    }
    t.print();
    let points_where_plain_exceeds = points.iter().filter(|pt| pt.plain_exceeds_bound).count();
    println!(
        "plain HyperCube blows the skew budget on {points_where_plain_exceeds}/{} grid points",
        points.len()
    );
    assert!(
        points_where_plain_exceeds >= 1,
        "plain HyperCube met the skew bound everywhere — no separation"
    );

    E26 {
        facts_per_relation: FACTS,
        domain: DOMAIN,
        slack: SLACK,
        points,
        points_where_plain_exceeds,
    }
}

pub fn run() {
    json_record("e26_skew_adaptive", &record());
}
