//! Criterion bench: transducer-network runs — simulator vs threaded
//! runtime, and monotone vs coordinated programs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parlog::mpc::datagen;
use parlog::transducer::prelude::*;

fn bench_transducer(c: &mut Criterion) {
    let graph = datagen::random_graph("E", 25, 80, 3);
    let q = parlog::queries::graph_triangles();
    let open = parlog::queries::open_triangles();

    let mut group = c.benchmark_group("transducer");
    group.sample_size(10);
    for n in [2usize, 4] {
        let shards = hash_distribution(&graph, n, 7);
        group.bench_with_input(BenchmarkId::new("monotone_sim", n), &n, |b, _| {
            let p = MonotoneBroadcast::new(q.clone());
            b.iter(|| {
                run(
                    &p,
                    &shards,
                    &RunCtx::simulated(Ctx::oblivious(), Schedule::Random(1)),
                )
                .output
            });
        });
        group.bench_with_input(BenchmarkId::new("coordinated_sim", n), &n, |b, _| {
            let p = CoordinatedBroadcast::new(open.clone());
            b.iter(|| {
                run(
                    &p,
                    &shards,
                    &RunCtx::simulated(Ctx::aware(n), Schedule::Random(1)),
                )
                .output
            });
        });
        group.bench_with_input(BenchmarkId::new("monotone_threaded", n), &n, |b, _| {
            let p = MonotoneBroadcast::new(q.clone());
            b.iter(|| {
                run(
                    &p,
                    &shards,
                    &RunCtx::new(Ctx::oblivious(), RunMode::Threaded),
                )
                .output
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transducer);
criterion_main!(benches);
