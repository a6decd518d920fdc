//! A tour of the supporting formalisms around the survey's core:
//! relational algebra in MPC, the MapReduce abstraction, SharesSkew,
//! coordination analysis and scale independence (Sections 3 and 6).
//!
//! ```sh
//! cargo run --example algebra_tour
//! ```

use parlog::mpc::datagen;
use parlog::mpc::mapreduce;
use parlog::mpc::ra_distributed::DistributedRa;
use parlog::mpc::{SkewAdaptiveJoin, SkewConfig};
use parlog::prelude::*;
use parlog::relal::algebra::{eval_ra, RaExpr};
use parlog::scale::{bounded_plan, eval_bounded, AccessConstraint, AccessSchema};

fn main() {
    // ── Relational algebra, centralized and distributed ────────────────
    println!("== Relational algebra in the MPC model ==");
    let mut db = datagen::uniform_relation("R", 400, 80, 1);
    db.extend_from(&datagen::uniform_relation("S", 400, 80, 2));
    // (R ⋉ S) ⋈ S — a semijoin reduction before the join.
    let expr = RaExpr::rel("R", 2)
        .semijoin(RaExpr::rel("S", 2), vec![(1, 0)])
        .join(RaExpr::rel("S", 2), vec![(1, 0)]);
    let central = eval_ra(&expr, &db).unwrap();
    let report = DistributedRa::new(16, 7).run(&expr, &db, "Out").unwrap();
    println!("  expression: (R ⋉ S) ⋈ S");
    println!("  centralized tuples : {}", central.len());
    println!(
        "  distributed tuples : {} (equal: {})",
        report.output.len(),
        report.output.len() == central.len()
    );
    println!(
        "  rounds = {}, max load = {}, total comm = {}",
        report.stats.rounds, report.stats.max_load, report.stats.total_comm
    );

    // ── MapReduce as an MPC specification language ─────────────────────
    println!("\n== MapReduce (Section 3's formalism) ==");
    let tri_db = datagen::triangle_db(1000, 150, 5);
    let mr = mapreduce::triangle_cascade_program();
    let r = mr.run(&tri_db, 16, 1);
    let q = parlog::queries::triangle_join();
    println!("  triangle cascade as 2 MapReduce jobs:");
    println!(
        "  output = {} facts (matches CQ evaluation: {})",
        r.output.len(),
        r.output == eval_query(&q, &tri_db)
    );
    println!(
        "  per-job loads: {:?}",
        r.rounds.iter().map(|s| s.max_load).collect::<Vec<_>>()
    );

    // ── SharesSkew ─────────────────────────────────────────────────────
    println!("\n== SharesSkew (heavy-hitter-aware shares) ==");
    let join = parlog::queries::binary_join();
    let mut skew = datagen::heavy_hitter_relation("R", 2000, 0.4, 7, 1, 0);
    skew.extend_from(&datagen::heavy_hitter_relation(
        "S", 2000, 0.4, 7, 0, 50_000,
    ));
    let plain = parlog::mpc::HypercubeAlgorithm::new(&join, 64)
        .unwrap()
        .run(&skew);
    // SharesSkew is the skew engine's one-wave plan: every heavy pattern
    // on its own block of servers in a single round.
    let one_wave = SkewConfig {
        threshold: Some(100),
        max_heavy_per_var: 4,
        max_rounds: 1,
        seed: 3,
    };
    let aware = SkewAdaptiveJoin::from_stats(&join, &skew, 64, one_wave);
    let ra = aware.run(&skew);
    let waves = SkewAdaptiveJoin::from_stats(&join, &skew, 64, SkewConfig::default()).run(&skew);
    println!("  heavy patterns detected: {}", aware.pattern_count());
    println!("  plain HyperCube max load : {}", plain.stats.max_load);
    println!(
        "  SharesSkew max load      : {} (outputs equal: {})",
        ra.stats.max_load,
        ra.output == plain.output
    );
    println!(
        "  skew waves max load      : {} in {} rounds (outputs equal: {})",
        waves.stats.max_load,
        waves.stats.rounds,
        waves.output == plain.output
    );

    // ── Coordination analysis ──────────────────────────────────────────
    println!("\n== Coordination analysis (Blazes direction, §6) ==");
    for (name, src) in [
        ("TC", "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)"),
        ("open-triangle", "Open(x,y,z) <- E(x,y), E(y,z), not E(z,x)"),
        (
            "¬TC",
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)\nOUT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        ),
    ] {
        let p = parlog::datalog::program::parse_program(src).unwrap();
        let a = parlog::datalog::coordination::analyze(&p).unwrap();
        println!(
            "  {name}: {} coordination point(s), {} required barrier(s), coordination-free: {}",
            a.points.len(),
            a.required_barriers,
            a.coordination_free()
        );
    }

    // ── Scale independence ─────────────────────────────────────────────
    println!("\n== Scale independence (Fan–Geerts–Libkin, §6) ==");
    let q2 = parse_query("H(z,c) <- Follows(3, y), Follows(y, z), Profile(z, c)").unwrap();
    let schema = AccessSchema::new(vec![
        AccessConstraint::new("Follows", vec![0], 4),
        AccessConstraint::new("Profile", vec![0], 1),
    ]);
    let plan = bounded_plan(&q2, &schema).expect("scale-independent");
    println!("  query: {q2}");
    println!(
        "  bounded plan found, valuation bound = {}",
        plan.valuation_bound
    );
    for users in [1_000u64, 100_000] {
        let mut big = Instance::new();
        for u in 0..users {
            for k in 1..=4 {
                big.insert(parlog::relal::fact::fact("Follows", &[u, (u + k) % users]));
            }
            big.insert(parlog::relal::fact::fact("Profile", &[u, u % 9]));
        }
        let r = eval_bounded(&q2, &big, &plan);
        println!(
            "  |I| = {:>7} facts → fetched {} facts, {} answers",
            big.len(),
            r.facts_fetched,
            r.output.len()
        );
    }
    println!("  (the fetch count is independent of |I| — that is scale independence)");
}
