//! E3 — §3.1 (Beame–Koutris–Suciu): the one-round load exponent is
//! `1/τ*`, the inverse optimal fractional edge packing.
//!
//! For a family of queries we (a) solve the packing LP for `τ*`, (b) run
//! HyperCube with LP-derived shares on skew-free data, and (c) compare
//! the measured load exponent against `1/τ*`.

use crate::{f3, section, Table};
use parlog::mpc::datagen;
use parlog::mpc::prelude::*;
use parlog::prelude::*;
use parlog::relal::packing;

/// Skew-free data: one matching relation per distinct body relation.
fn matching_db(q: &ConjunctiveQuery, m: usize) -> Instance {
    let mut db = Instance::new();
    for (i, rel) in q.body_relations().into_iter().enumerate() {
        let name = rel.to_string();
        db.extend_from(&datagen::matching_relation(
            &name,
            m,
            (i as u64) * 10_000_000,
        ));
    }
    db
}

pub fn run() {
    let queries = [
        ("join R⋈S", "H(x,y,z) <- R(x,y), S(y,z)"),
        ("triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)"),
        ("4-cycle", "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)"),
        (
            "5-cycle",
            "H(a,b,c,d,e) <- R(a,b), S(b,c), T(c,d), U(d,e), V(e,a)",
        ),
        ("3-star", "H(x,a,b,c) <- R(x,a), S(x,b), T(x,c)"),
        (
            "Loomis-Whitney 4",
            "H(x,y,z,w) <- A(x,y,z), B(x,y,w), C(x,z,w), D(y,z,w)",
        ),
    ];
    let p = 64usize;
    let m = 2000usize;

    section(&format!(
        "E3 load exponent vs 1/τ* (p = {p}, m = {m} per relation)"
    ));
    let mut t = Table::new(&[
        "query",
        "τ*",
        "1/τ* (theory)",
        "shares",
        "measured exp",
        "max_load",
    ]);
    for (name, src) in queries {
        let q = parse_query(src).unwrap();
        let tau = packing::fractional_edge_packing(&q).unwrap().value;
        let hc = HypercubeAlgorithm::new(&q, p).unwrap();
        let db = if name == "Loomis-Whitney 4" {
            // Ternary relations need a dedicated generator: matching triples.
            let mut db = Instance::new();
            for (i, rel) in q.body_relations().into_iter().enumerate() {
                let base = (i as u64) * 10_000_000;
                for j in 0..m as u64 {
                    db.insert(parlog::relal::Fact::new(
                        rel,
                        vec![
                            parlog::relal::fact::Val(base + 3 * j),
                            parlog::relal::fact::Val(base + 3 * j + 1),
                            parlog::relal::fact::Val(base + 3 * j + 2),
                        ],
                    ));
                }
            }
            db
        } else {
            matching_db(&q, m)
        };
        let r = hc.run(&db);
        t.row(&[
            &name,
            &f3(tau),
            &f3(1.0 / tau),
            &format!("{:?}", hc.shares().shares),
            &f3(r.stats.load_exponent),
            &r.stats.max_load,
        ]);
    }
    t.print();
    println!(
        "\nShape check: measured exponent tracks 1/τ* (integer-share rounding\n\
         and hashing variance cost a few hundredths)."
    );
}
