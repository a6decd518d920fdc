//! E11 — §6 (Ketsman–Neven): economical broadcasting strategies.
//!
//! For full CQs without self-joins, broadcasting only atom-matching facts
//! transmits strictly less than the naive broadcast while computing the
//! same result. The saving grows with the fraction of query-irrelevant
//! data.

use crate::{f3, section, Table};
use parlog::mpc::datagen;
use parlog::prelude::*;
use parlog::transducer;
use parlog::transducer::prelude::*;

pub fn run() {
    let q = parlog::queries::binary_join();
    let n = 4usize;

    section("E11 economical vs naive broadcast (join query, 4 nodes)");
    let mut t = Table::new(&[
        "irrelevant %",
        "naive facts",
        "economical facts",
        "saving",
        "outputs equal",
    ]);
    for irrelevant_frac in [0.0f64, 0.25, 0.5, 0.75] {
        let relevant = 400usize;
        let noise = (relevant as f64 * irrelevant_frac / (1.0 - irrelevant_frac).max(0.01)).round()
            as usize;
        let mut db = datagen::uniform_relation("R", relevant / 2, 300, 1);
        db.extend_from(&datagen::uniform_relation("S", relevant / 2, 300, 2));
        db.extend_from(&datagen::uniform_relation("Noise", noise, 300, 3));
        let shards = hash_distribution(&db, n, 9);

        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(1));
        let eco_run = transducer::run(&EconomicalBroadcast::new(q.clone()), &shards, &rc);
        let naive_run = transducer::run(&MonotoneBroadcast::new(q.clone()), &shards, &rc);

        t.row(&[
            &format!("{:.0}%", irrelevant_frac * 100.0),
            &naive_run.facts_broadcast,
            &eco_run.facts_broadcast,
            &f3(1.0 - eco_run.facts_broadcast as f64 / naive_run.facts_broadcast as f64),
            &(eco_run.output == naive_run.output),
        ]);
    }
    t.print();

    section("E11b constants sharpen relevance");
    let qc = parse_query("H(x,y) <- R(7,x), S(x,y)").unwrap();
    let mut db = Instance::new();
    for i in 0..200u64 {
        db.insert(parlog::relal::fact::fact("R", &[i % 20, i]));
        db.insert(parlog::relal::fact::fact("S", &[i, i + 1]));
    }
    let shards = hash_distribution(&db, n, 3);
    let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Fifo);
    let eco_run = transducer::run(&EconomicalBroadcast::new(qc.clone()), &shards, &rc);
    let naive_run = transducer::run(&MonotoneBroadcast::new(qc.clone()), &shards, &rc);
    println!(
        "  query {qc}: naive broadcast {} facts, economical {} facts, outputs equal: {}",
        naive_run.facts_broadcast,
        eco_run.facts_broadcast,
        eco_run.output == naive_run.output
    );
}
