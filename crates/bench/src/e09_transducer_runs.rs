//! E9 — Example 5.1 / Section 5.1: eventual consistency of transducer
//! networks, quantified over networks × distributions × schedules, and
//! the coordination-freeness split between the monotone broadcast and the
//! barrier program.

use crate::{section, Table};
use parlog::mpc::datagen;
use parlog::prelude::*;
use parlog::transducer;
use parlog::transducer::prelude::*;

pub fn run() {
    let graph = datagen::random_graph("E", 25, 90, 5);
    let tri = parlog::queries::graph_triangles();
    let tri_expected = eval_query(&tri, &graph);
    let open = parlog::queries::open_triangles();
    let open_expected = eval_query(&open, &graph);

    section("E9 eventual-consistency sweeps (networks × distributions × schedules)");
    let mono = MonotoneBroadcast::new(tri.clone());
    let rep_mono = check_eventual_consistency(
        &mono,
        &graph,
        &tri_expected,
        &[1, 2, 4, 6],
        &[0, 1, 2, 3],
        |_| Ctx::oblivious(),
    );
    let coord = CoordinatedBroadcast::new(open.clone());
    let rep_coord = check_eventual_consistency(
        &coord,
        &graph,
        &open_expected,
        &[1, 2, 4, 6],
        &[0, 1, 2, 3],
        Ctx::aware,
    );
    let mut t = Table::new(&[
        "program",
        "query",
        "runs",
        "consistent",
        "coordination-free",
    ]);
    t.row(&[
        &"monotone-broadcast",
        &"triangles (monotone)",
        &rep_mono.runs,
        &rep_mono.consistent(),
        &check_coordination_free(&mono, &graph, &tri_expected, 4, Ctx::oblivious()),
    ]);
    t.row(&[
        &"coordinated-broadcast",
        &"open triangles (¬mon.)",
        &rep_coord.runs,
        &rep_coord.consistent(),
        &check_coordination_free(&coord, &graph, &open_expected, 4, Ctx::aware(4)),
    ]);
    t.print();
    println!("  (CALM: the monotone query is coordination-free, the non-monotone one is not)");

    section("E9b messages delivered per schedule (4 nodes, hash distribution)");
    let shards = hash_distribution(&graph, 4, 7);
    let mut t = Table::new(&["schedule", "delivered", "facts_broadcast", "output ok"]);
    for schedule in [
        Schedule::Random(1),
        Schedule::Fifo,
        Schedule::Lifo,
        Schedule::RoundRobin,
    ] {
        let run = transducer::run(
            &mono,
            &shards,
            &RunCtx::simulated(Ctx::oblivious(), schedule),
        );
        t.row(&[
            &format!("{schedule:?}"),
            &run.delivered,
            &run.facts_broadcast,
            &(run.output == tri_expected),
        ]);
    }
    t.print();

    section("E9c threaded runtime vs simulator");
    let threaded = transducer::run(
        &MonotoneBroadcast::new(tri),
        &shards,
        &RunCtx::new(Ctx::oblivious(), RunMode::Threaded),
    );
    println!(
        "  threaded output == simulator output == Q(I): {}",
        threaded.output == tri_expected
    );
}
