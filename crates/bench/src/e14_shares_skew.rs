//! E14 — SharesSkew: heavy-hitter-aware shares on a skewed join (§3).
//!
//! SharesSkew is the skew engine's one-wave plan (`SkewAdaptiveJoin`
//! with `max_rounds: 1`): every heavy pattern gets its own residual
//! shares, all in one round, with the `p` servers split in proportion to
//! each pattern's input. On the binary join `H(x,y,z) <- R(x,y), S(y,z)`
//! with 40 % of each side on one heavy `y`, plain one-round HyperCube
//! sends the heavy value's facts to one hash bucket; the one-wave plan
//! spreads them, and the default wave schedule (two rounds) goes lower
//! still. With no skew the plan degenerates to plain Shares: one
//! pattern.
//!
//! Machine-checked: all three engines produce the same output, the
//! one-wave plan has exactly one round, and both skew plans beat plain
//! HyperCube's max load.
//!
//! Output: the table, then `JSON e14_shares_skew {...}` (deterministic,
//! last line; committed as `BENCH_e14.json`).

use crate::{f3, json_record, section, Table};
use parlog_mpc::datagen;
use parlog_mpc::prelude::*;
use parlog_relal::parser::parse_query;

/// Facts per relation, and the share of them on the heavy `y`.
const FACTS: usize = 2000;
const HEAVY_FRACTION: f64 = 0.4;
const SERVERS: usize = 64;

/// One engine's run on the skewed join.
#[derive(serde::Serialize)]
struct RunRecord {
    engine: String,
    patterns: usize,
    rounds: usize,
    max_load: usize,
    total_comm: usize,
}

/// The deterministic record, committed as `BENCH_e14.json`.
#[derive(serde::Serialize)]
pub struct E14 {
    facts_per_relation: usize,
    heavy_fraction: f64,
    servers: usize,
    runs: Vec<RunRecord>,
    /// Plain HyperCube's max load over the one-wave plan's.
    one_wave_cut: f64,
    /// Patterns the one-wave plan finds on a skew-free join.
    no_skew_patterns: usize,
    outputs_identical: bool,
}

/// Compute the record, printing its table.
pub fn record() -> E14 {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    let mut db = datagen::heavy_hitter_relation("R", FACTS, HEAVY_FRACTION, 7, 1, 0);
    db.extend_from(&datagen::heavy_hitter_relation(
        "S",
        FACTS,
        HEAVY_FRACTION,
        7,
        0,
        50_000,
    ));
    let one_wave = SkewConfig {
        threshold: Some(100),
        max_heavy_per_var: 4,
        max_rounds: 1,
        seed: 3,
    };

    let plain = HypercubeAlgorithm::new(&q, SERVERS).expect("share LP");
    let skew = SkewAdaptiveJoin::from_stats(&q, &db, SERVERS, one_wave.clone());
    let waves = SkewAdaptiveJoin::from_stats(&q, &db, SERVERS, SkewConfig::default());
    let (rp, rs, rw) = (plain.run(&db), skew.run(&db), waves.run(&db));
    let outputs_identical = rs.output == rp.output && rw.output == rp.output;
    assert!(outputs_identical, "the engines disagree");
    assert_eq!(skew.wave_count(), 1, "SharesSkew is one wave");
    assert_eq!(rs.stats.rounds, 1);
    assert!(rs.stats.max_load < rp.stats.max_load && rw.stats.max_load < rs.stats.max_load);

    let run = |engine: &str, patterns, r: &RunReport| RunRecord {
        engine: engine.to_string(),
        patterns,
        rounds: r.stats.rounds,
        max_load: r.stats.max_load,
        total_comm: r.stats.total_comm,
    };
    let runs = vec![
        run("hypercube", 1, &rp),
        run("one-wave", skew.pattern_count(), &rs),
        run("default-waves", waves.pattern_count(), &rw),
    ];

    // With no skew the one-wave plan is plain Shares.
    let flat = datagen::matching_relation("R", 100, 0)
        .union(&datagen::matching_relation("S", 100, 10_000));
    let flat_cfg = SkewConfig {
        threshold: Some(10),
        seed: 1,
        ..one_wave
    };
    let no_skew_patterns = SkewAdaptiveJoin::from_stats(&q, &flat, 16, flat_cfg).pattern_count();

    section(&format!(
        "E14 SharesSkew: R ⋈ S, {FACTS} facts/relation, {}% on one y, p = {SERVERS}",
        HEAVY_FRACTION * 100.0
    ));
    let mut t = Table::new(&["engine", "patterns", "rounds", "max load", "total comm"]);
    for r in &runs {
        t.row(&[
            &r.engine,
            &r.patterns,
            &r.rounds,
            &r.max_load,
            &r.total_comm,
        ]);
    }
    t.print();
    let one_wave_cut = rp.stats.max_load as f64 / rs.stats.max_load as f64;
    println!(
        "one wave cuts plain HyperCube's max load {}x; skew-free join: {no_skew_patterns} pattern",
        f3(one_wave_cut)
    );

    E14 {
        facts_per_relation: FACTS,
        heavy_fraction: HEAVY_FRACTION,
        servers: SERVERS,
        runs,
        one_wave_cut,
        no_skew_patterns,
        outputs_identical,
    }
}

pub fn run() {
    json_record("e14_shares_skew", &record());
}
