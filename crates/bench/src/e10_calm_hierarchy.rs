//! E10 — §5.2.2/§5.3: the extended CALM theorems in action.
//!
//! * F1: policy-aware networks compute the open-triangle query
//!   (Example 5.4) coordination-free;
//! * F2: domain-guided networks compute ¬TC (Example 5.13) and win–move
//!   under the well-founded semantics (Zinn–Green–Ludäscher)
//!   coordination-free;
//! * the Datalog fragment checks line up (semi-positive /
//!   semi-connected).

use crate::{section, Table};
use parlog::figure2::datalog_query;
use parlog::prelude::*;
use parlog::relal::fact::fact;
use parlog::relal::policy::{DomainGuidedPolicy, ReplicateAll};
use parlog::transducer;
use parlog::transducer::distribution::{ideal_distribution, policy_distribution};
use parlog::transducer::prelude::*;
use std::sync::Arc;

pub fn run() {
    let graph = Instance::from_facts([
        fact("E", &[1, 2]),
        fact("E", &[2, 3]),
        fact("E", &[3, 1]),
        fact("E", &[2, 4]),
        fact("E", &[10, 11]),
        fact("E", &[11, 12]),
    ]);

    section("E10 F1 — open triangles, policy-aware (Example 5.4)");
    let open = parlog::queries::open_triangles();
    let expected = eval_query(&open, &graph);
    let f1 = PolicyAwareCq::new(open);
    let mut t = Table::new(&["n", "schedule", "output ok"]);
    for n in [2usize, 3, 5] {
        let policy = Arc::new(DomainGuidedPolicy::new(n, 5));
        let shards = policy_distribution(&graph, policy.as_ref());
        for schedule in [Schedule::Random(7), Schedule::Fifo, Schedule::Lifo] {
            let ctx = Ctx::oblivious().with_policy(policy.clone());
            let out = transducer::run(&f1, &shards, &RunCtx::simulated(ctx, schedule)).output;
            t.row(&[&n, &format!("{schedule:?}"), &(out == expected)]);
        }
    }
    t.print();
    let ideal_ctx = Ctx::oblivious().with_policy(Arc::new(ReplicateAll { num_nodes: 3 }));
    println!(
        "  coordination-free (heartbeats only, ideal distribution): {}",
        transducer::run(
            &f1,
            &ideal_distribution(&graph, 3),
            &RunCtx::new(ideal_ctx, RunMode::HeartbeatsOnly)
        )
        .output
            == expected
    );

    section("E10 F2 — ¬TC, domain-guided components (Example 5.13)");
    let ntc = datalog_query(parlog::queries::ntc_program(), "NTC");
    let ntc_expected = ntc.eval(&graph);
    let f2 = DisjointComponent::new(datalog_query(parlog::queries::ntc_program(), "NTC"));
    let mut t = Table::new(&["n", "schedule", "output ok", "output size"]);
    for n in [2usize, 3, 4] {
        let policy = Arc::new(DomainGuidedPolicy::new(n, 13));
        let shards = policy_distribution(&graph, policy.as_ref());
        for schedule in [Schedule::Random(3), Schedule::Lifo] {
            let ctx = Ctx::oblivious().with_policy(policy.clone());
            let out = transducer::run(&f2, &shards, &RunCtx::simulated(ctx, schedule)).output;
            t.row(&[
                &n,
                &format!("{schedule:?}"),
                &(out == ntc_expected),
                &out.len(),
            ]);
        }
    }
    t.print();

    section("E10 F2 — win–move under the well-founded semantics");
    let game = Instance::from_facts([
        fact("Move", &[1, 2]),
        fact("Move", &[2, 3]),
        fact("Move", &[10, 11]),
        fact("Move", &[11, 10]),
        fact("Move", &[20, 21]),
        fact("Move", &[21, 20]),
        fact("Move", &[21, 22]),
    ]);
    let wm = parlog::datalog::wellfounded::win_move_program();
    let win_query = move |db: &Instance| {
        parlog::datalog::wellfounded::well_founded(&wm, db)
            .map(|m| {
                Instance::from_facts(
                    m.true_facts
                        .relation(parlog::relal::symbols::rel("Win"))
                        .cloned()
                        .collect::<Vec<_>>(),
                )
            })
            .unwrap_or_default()
    };
    let expected = win_query.eval(&game);
    println!("  centralized Win facts: {expected}");
    let policy = Arc::new(DomainGuidedPolicy::new(3, 17));
    let shards = policy_distribution(&game, policy.as_ref());
    let prog = DisjointComponent::new(win_query);
    let ctx = Ctx::oblivious().with_policy(policy);
    let out = transducer::run(&prog, &shards, &RunCtx::simulated(ctx, Schedule::Random(9))).output;
    println!("  domain-guided F2 output matches: {}", out == expected);
    println!(
        "  (win–move is semi-connected syntactically: {})",
        parlog::datalog::analysis::is_semi_connected_syntactic(
            &parlog::datalog::wellfounded::win_move_program()
        )
    );
}
