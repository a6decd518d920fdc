//! Criterion bench: multi-round algorithms (Yannakakis, GYM, cascade,
//! two-round triangle) — the wall-clock companion of e12.

use criterion::{criterion_group, criterion_main, Criterion};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog_relal::parser::parse_query;

fn bench_multiround(c: &mut Criterion) {
    let p = 16usize;
    let tri = parlog::queries::triangle_join();
    let tdb = datagen::triangle_db(800, 150, 7);
    let path = parse_query("H(x,w) <- R(x,y), S(y,z), T(z,w)").unwrap();
    let mut pdb = datagen::uniform_relation("R", 500, 150, 1);
    pdb.extend_from(&datagen::uniform_relation("S", 500, 150, 2));
    pdb.extend_from(&datagen::uniform_relation("T", 500, 150, 3));

    let mut group = c.benchmark_group("multiround");
    group.sample_size(10);
    group.bench_function("hypercube_triangle", |b| {
        let alg = HypercubeAlgorithm::new(&tri, p).unwrap();
        b.iter(|| alg.run(&tdb));
    });
    group.bench_function("cascade_triangle", |b| {
        let alg = CascadeJoin::new(&tri, p, 3);
        b.iter(|| alg.run(&tdb));
    });
    group.bench_function("gym_triangle", |b| {
        let alg = Gym::new(&tri, p, 3);
        b.iter(|| alg.run(&tdb));
    });
    group.bench_function("two_round_triangle", |b| {
        let alg = TwoRoundTriangle::new(p, 3);
        b.iter(|| alg.run(&tdb));
    });
    group.bench_function("yannakakis_path", |b| {
        let alg = DistributedYannakakis::new(&path, p, 3);
        b.iter(|| alg.run(&pdb));
    });
    group.finish();
}

criterion_group!(benches, bench_multiround);
criterion_main!(benches);
