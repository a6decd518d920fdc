//! Quickstart: the three pillars of the survey in one run.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! 1. Evaluate the triangle query with the one-round HyperCube algorithm
//!    on a simulated MPC cluster and inspect its load.
//! 2. Decide parallel-correctness of a query under a distribution policy
//!    via minimal valuations (condition PC1).
//! 3. Compute a monotone query coordination-free on an asynchronous
//!    transducer network and check eventual consistency.

use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;
use parlog::transducer::prelude::*;

fn main() {
    // ── 1. One-round HyperCube on the MPC simulator ────────────────────
    let triangle = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let db = datagen::triangle_db(3000, 200, 42);
    let m = db.len();
    let hc = HypercubeAlgorithm::new(&triangle, 64).unwrap();
    let report = hc.run(&db);
    assert_eq!(report.output, eval_query(&triangle, &db));
    println!("HyperCube, p = {}:", report.stats.p);
    println!("  shares            = {:?}", hc.shares().shares);
    println!("  max load          = {} (m = {m})", report.stats.max_load);
    println!(
        "  load exponent     = {:.3} (theory: 2/3 = 0.667)",
        report.stats.load_exponent
    );
    println!(
        "  replication rate  = {:.2} (theory: p^(1/3) = 4)",
        report.stats.replication
    );
    println!("  triangles found   = {}\n", report.output.len());

    // ── 2. Parallel-correctness via minimal valuations ─────────────────
    // Example 4.3: PC0 fails, PC1 holds — correct nonetheless.
    let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
    let policy = parlog::pc::example_4_3_policy();
    let universe = [Val(1), Val(2)];
    println!("Example 4.3 query: {q}");
    println!(
        "  strongly saturates (PC0)? {}",
        parlog::pc::strongly_saturates(&q, &policy, &universe)
    );
    println!(
        "  saturates (PC1)?          {}",
        parlog::pc::saturates(&q, &policy, &universe)
    );
    println!(
        "  parallel-correct?         {}\n",
        parlog::pc::parallel_correct(&q, &policy, &universe)
    );

    // ── 3. Coordination-free asynchronous evaluation ───────────────────
    let graph = datagen::random_graph("E", 30, 120, 7);
    let tri = parlog::queries::graph_triangles();
    let expected = eval_query(&tri, &graph);
    let program = MonotoneBroadcast::new(tri);
    let shards = hash_distribution(&graph, 4, 3);
    let out = run(
        &program,
        &shards,
        &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(9)),
    )
    .output;
    assert_eq!(out, expected);
    println!("Transducer network (4 nodes, monotone broadcast):");
    println!("  triangles found   = {}", out.len());
    println!(
        "  coordination-free = {}",
        check_coordination_free(&program, &graph, &expected, 4, Ctx::oblivious())
    );
}
