//! Section 3 walkthrough: the MPC model's one- and multi-round join
//! algorithms, their loads, and how skew changes the picture.
//!
//! ```sh
//! cargo run --example mpc_joins
//! ```

use parlog::mpc::algorithms::two_round_triangle::triangle_query;
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;
use parlog::relal::packing;

fn print_report(label: &str, r: &RunReport) {
    println!(
        "  {:<22} rounds={} max_load={:<6} total_comm={:<7} exponent={:.3}",
        label, r.stats.rounds, r.stats.max_load, r.stats.total_comm, r.stats.load_exponent
    );
}

fn main() {
    let p = 64;

    // ── Example 3.1: binary join, skew-free vs skewed ──────────────────
    println!("Example 3.1 — R(x,y) ⋈ S(y,z) on p = {p} servers");
    let q = parlog::queries::binary_join();
    let mut skew_free = datagen::matching_relation("R", 2000, 0);
    skew_free.extend_from(&{
        let mut s = parlog::relal::Instance::new();
        for i in 0..2000u64 {
            s.insert(parlog::relal::fact::fact("S", &[2000 + i, 100_000 + i]));
        }
        s
    });
    let mut skewed = datagen::heavy_hitter_relation("R", 2000, 0.5, 7, 1, 0);
    skewed.extend_from(&datagen::heavy_hitter_relation(
        "S", 2000, 0.5, 7, 0, 50_000,
    ));

    println!(" skew-free ({} facts):", skew_free.len());
    print_report(
        "repartition (1a)",
        &RepartitionJoin::new(&q, p, 1).run(&skew_free),
    );
    print_report("grouped (1b)", &GroupedJoin::new(&q, p, 1).run(&skew_free));
    println!(" skewed ({} facts, heavy hitter on y):", skewed.len());
    print_report(
        "repartition (1a)",
        &RepartitionJoin::new(&q, p, 1).run(&skewed),
    );
    print_report("grouped (1b)", &GroupedJoin::new(&q, p, 1).run(&skewed));

    // ── Example 3.2 / §3.1: HyperCube and the load exponent 1/τ* ──────
    println!("\nExample 3.2 — triangle query, HyperCube");
    let tri = triangle_query();
    let tau = packing::fractional_edge_packing(&tri).unwrap().value;
    println!(
        "  τ* = {tau} ⇒ theoretical load m/p^(1/τ*) = m/p^{:.3}",
        1.0 / tau
    );
    let db = datagen::triangle_db(3000, 300, 5);
    print_report(
        "hypercube",
        &HypercubeAlgorithm::new(&tri, p).unwrap().run(&db),
    );
    print_report(
        "cascade (Ex 3.1(2))",
        &CascadeJoin::new(&tri, p, 5).run(&db),
    );

    // ── §3.2: skew and multiple rounds ─────────────────────────────────
    println!("\n§3.2 — skewed triangle: one round vs two rounds");
    let heavy = datagen::triangle_heavy_db(3000, 500, 9);
    print_report(
        "hypercube (1 round)",
        &HypercubeAlgorithm::new(&tri, p).unwrap().run(&heavy),
    );
    let mut cas = CascadeJoin::new(&tri, p, 9);
    cas.order = vec![0, 1, 2];
    print_report("cascade on y (skewed)", &cas.run(&heavy));
    print_report(
        "two-round skew-aware",
        &TwoRoundTriangle::new(p, 9).run(&heavy),
    );

    // ── §3.2: Yannakakis and GYM ───────────────────────────────────────
    println!("\n§3.2 — multi-round tree algorithms");
    let path = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
    let mut pdb = datagen::uniform_relation("R", 1500, 400, 1);
    pdb.extend_from(&datagen::uniform_relation("S", 1500, 400, 2));
    pdb.extend_from(&datagen::uniform_relation("T", 1500, 400, 3));
    print_report(
        "yannakakis (path)",
        &DistributedYannakakis::new(&path, p, 3).run(&pdb),
    );
    print_report("gym (triangle)", &Gym::new(&tri, p, 3).run(&db));
    println!("\nAll algorithm outputs equal the centralized evaluation (asserted in tests).");
}
