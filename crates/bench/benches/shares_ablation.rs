//! Ablation bench: LP-optimal integer shares vs uniform shares — both the
//! cost of computing them and the end-to-end HyperCube run they induce.
//! (The *load* comparison — optimal shares use all p servers where
//! uniform shares waste them — is printed by `e03_load_exponents`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog_relal::parser::parse_query;

fn bench_shares(c: &mut Criterion) {
    let queries = [
        ("join", "H(x,y,z) <- R(x,y), S(y,z)"),
        ("triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)"),
        ("4cycle", "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)"),
    ];

    let mut group = c.benchmark_group("share_computation");
    for (name, src) in queries {
        let q = parse_query(src).unwrap();
        group.bench_with_input(BenchmarkId::new("optimal_lp", name), &q, |b, q| {
            b.iter(|| Shares::optimal(q, 64).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("uniform", name), &q, |b, q| {
            b.iter(|| Shares::uniform(q, 64));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("hypercube_by_shares");
    group.sample_size(10);
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
    let mut db = datagen::uniform_relation("R", 1000, 400, 1);
    db.extend_from(&datagen::uniform_relation("S", 1000, 400, 2));
    group.bench_function("optimal_shares_run", |b| {
        let hc = HypercubeAlgorithm::with_shares(&q, Shares::optimal(&q, 64).unwrap(), 9);
        b.iter(|| hc.run(&db));
    });
    group.bench_function("uniform_shares_run", |b| {
        let hc = HypercubeAlgorithm::with_shares(&q, Shares::uniform(&q, 64), 9);
        b.iter(|| hc.run(&db));
    });
    group.finish();
}

criterion_group!(benches, bench_shares);
criterion_main!(benches);
