//! Section 5 walkthrough: coordination-free computation, the CALM
//! hierarchy, and the recomputation of Figure 2.
//!
//! ```sh
//! cargo run --example calm_explorer
//! ```

use parlog::calm::Schema;
use parlog::figure2::datalog_query;
use parlog::prelude::*;
use parlog::relal::fact::fact;
use parlog::relal::policy::DomainGuidedPolicy;
use parlog::transducer::distribution::policy_distribution;
use parlog::transducer::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Instance::from_facts([
        fact("E", &[1, 2]),
        fact("E", &[2, 3]),
        fact("E", &[3, 1]),
        fact("E", &[2, 4]),
        fact("E", &[10, 11]),
        fact("E", &[11, 10]),
    ]);

    // ── Example 5.1(1): monotone queries are coordination-free ─────────
    let tri = parlog::queries::graph_triangles();
    let expected = eval_query(&tri, &graph);
    let program = MonotoneBroadcast::new(tri.clone());
    println!("Example 5.1(1) — triangles, monotone broadcast:");
    let report =
        check_eventual_consistency(&program, &graph, &expected, &[1, 2, 4], &[0, 1, 2], |_| {
            Ctx::oblivious()
        });
    println!(
        "  eventually consistent over {} runs: {}",
        report.runs,
        report.consistent()
    );
    println!(
        "  coordination-free: {}\n",
        check_coordination_free(&program, &graph, &expected, 3, Ctx::oblivious())
    );

    // ── Example 5.1(2): open triangles need coordination in F0 ─────────
    let open = parlog::queries::open_triangles();
    let open_expected = eval_query(&open, &graph);
    let coord = CoordinatedBroadcast::new(open.clone());
    println!("Example 5.1(2) — open triangles, coordinating broadcast:");
    let report =
        check_eventual_consistency(&coord, &graph, &open_expected, &[2, 3], &[0, 1], Ctx::aware);
    println!(
        "  eventually consistent over {} runs: {}",
        report.runs,
        report.consistent()
    );
    println!(
        "  coordination-free: {}\n",
        check_coordination_free(&coord, &graph, &open_expected, 3, Ctx::aware(3))
    );

    // ── Example 5.4: policy-awareness restores coordination-freeness ───
    let policy = Arc::new(DomainGuidedPolicy::new(3, 5));
    let shards = policy_distribution(&graph, policy.as_ref());
    let f1 = PolicyAwareCq::new(open);
    let ctx = Ctx::oblivious().with_policy(policy);
    let out = run(&f1, &shards, &RunCtx::simulated(ctx, Schedule::Random(1))).output;
    println!("Example 5.4 — open triangles, policy-aware (F1):");
    println!("  output matches Q(I): {}\n", out == open_expected);

    // ── §5.2.2: ¬TC with the domain-guided component algorithm (F2) ────
    let ntc = datalog_query(parlog::queries::ntc_program(), "NTC");
    let ntc_expected = ntc.eval(&graph);
    let policy = Arc::new(DomainGuidedPolicy::new(3, 13));
    let shards = policy_distribution(&graph, policy.as_ref());
    let f2 = DisjointComponent::new(datalog_query(parlog::queries::ntc_program(), "NTC"));
    let ctx = Ctx::oblivious().with_policy(policy);
    let out = run(&f2, &shards, &RunCtx::simulated(ctx, Schedule::Random(2))).output;
    println!("§5.2.2 — ¬TC, domain-guided components (F2):");
    println!(
        "  output matches Q(I): {} ({} facts)\n",
        out == ntc_expected,
        out.len()
    );

    // ── The monotonicity hierarchy, semantically tested ────────────────
    let schema = Schema::binary(&["E"]);
    println!("Monotonicity classes (bounded semantic testers):");
    println!(
        "  triangles      → {:?}",
        parlog::calm::classify(&tri, &schema)
    );
    println!(
        "  open triangles → {:?}",
        parlog::calm::classify(&parlog::queries::open_triangles(), &schema)
    );
    println!(
        "  ¬TC            → {:?}\n",
        parlog::calm::classify(&ntc, &schema)
    );

    // ── Figure 2, recomputed ───────────────────────────────────────────
    println!("{}", parlog::figure2::figure2());
}
