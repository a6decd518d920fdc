//! Criterion bench: wall-clock of the one-round join strategies
//! (repartition, grouped, HyperCube) on the simulator. Companion to the
//! load-measuring binary `e01_join_strategies`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;

fn bench_join_strategies(c: &mut Criterion) {
    let q = parlog::queries::binary_join();
    let mut db = datagen::uniform_relation("R", 1500, 500, 1);
    db.extend_from(&datagen::uniform_relation("S", 1500, 500, 2));

    let mut group = c.benchmark_group("join_strategies");
    group.sample_size(10);
    for p in [16usize, 64] {
        group.bench_with_input(BenchmarkId::new("repartition", p), &p, |b, &p| {
            let alg = RepartitionJoin::new(&q, p, 1);
            b.iter(|| alg.run(&db));
        });
        group.bench_with_input(BenchmarkId::new("grouped", p), &p, |b, &p| {
            let alg = GroupedJoin::new(&q, p, 1);
            b.iter(|| alg.run(&db));
        });
        group.bench_with_input(BenchmarkId::new("hypercube", p), &p, |b, &p| {
            let alg = HypercubeAlgorithm::new(&q, p).unwrap();
            b.iter(|| alg.run(&db));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join_strategies);
criterion_main!(benches);
