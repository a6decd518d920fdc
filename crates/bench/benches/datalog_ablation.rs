//! Ablation bench: semi-naive vs naive Datalog evaluation (transitive
//! closure on chains and random graphs) and the well-founded alternating
//! fixpoint on win–move games.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parlog::datalog::program::parse_program;
use parlog::mpc::datagen;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;

fn bench_datalog(c: &mut Criterion) {
    let tc = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)").unwrap();

    let mut group = c.benchmark_group("datalog_tc");
    group.sample_size(10);
    for n in [30usize, 60] {
        let chain = Instance::from_facts((0..n as u64).map(|i| fact("E", &[i, i + 1])));
        group.bench_with_input(BenchmarkId::new("semi_naive_chain", n), &n, |b, _| {
            b.iter(|| parlog::datalog::eval_program(&tc, &chain, EvalStrategy::Indexed).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("naive_chain", n), &n, |b, _| {
            b.iter(|| parlog::datalog::eval_program_naive(&tc, &chain).unwrap());
        });
    }
    let graph = datagen::random_graph("E", 40, 120, 5);
    group.bench_function("semi_naive_graph", |b| {
        b.iter(|| parlog::datalog::eval_program(&tc, &graph, EvalStrategy::Indexed).unwrap());
    });
    group.bench_function("naive_graph", |b| {
        b.iter(|| parlog::datalog::eval_program_naive(&tc, &graph).unwrap());
    });
    group.finish();

    let mut group = c.benchmark_group("well_founded");
    group.sample_size(10);
    let wm = parlog::datalog::wellfounded::win_move_program();
    for n in [12usize, 24] {
        // A chain game with a cycle at the end: True, False and Undefined
        // positions all present.
        let mut game = Instance::from_facts((0..n as u64).map(|i| fact("Move", &[i, i + 1])));
        game.insert(fact("Move", &[n as u64, n as u64 - 2]));
        group.bench_with_input(BenchmarkId::new("win_move", n), &n, |b, _| {
            b.iter(|| parlog::datalog::wellfounded::well_founded(&wm, &game).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datalog);
criterion_main!(benches);
