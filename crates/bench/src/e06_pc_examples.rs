//! E6 — the worked parallel-correctness examples of Section 4:
//! Example 4.1 (`[Q,P](I)` under a good and a bad policy), Example 4.3
//! (PC0 strictly weaker than PC1), Example 4.5 (minimal valuations), and
//! the CQ¬ soundness/completeness split.

use crate::section;
use parlog::prelude::*;
use parlog::relal::fact::{fact, fact_syms};
use parlog::relal::policy::ExplicitPolicy;

pub fn run() {
    section("E6 Example 4.1 — [Qe,P](Ie)");
    let q = parse_query("H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1)").unwrap();
    let ie = Instance::from_facts([
        fact_syms("R", &["a", "b"]),
        fact_syms("R", &["b", "a"]),
        fact_syms("R", &["b", "c"]),
        fact_syms("S", &["a", "a"]),
        fact_syms("S", &["c", "a"]),
    ]);
    let mut p1 = ExplicitPolicy::new(2);
    let mut p2 = ExplicitPolicy::new(2);
    for f in ie.iter() {
        if f.rel == parlog::relal::symbols::rel("R") {
            p1.assign(0, f.clone());
            p1.assign(1, f.clone());
            p2.assign(0, f.clone());
        } else {
            p1.assign(usize::from(f.args[0] != f.args[1]), f.clone());
            p2.assign(1, f.clone());
        }
    }
    println!("  Qe(Ie)      = {}", eval_query(&q, &ie));
    println!(
        "  [Qe,P1](Ie) = {}  (correct on Ie)",
        parlog::pc::parallel_result(&q, &p1, &ie)
    );
    println!(
        "  [Qe,P2](Ie) = {}  (incorrect)",
        parlog::pc::parallel_result(&q, &p2, &ie)
    );
    println!("  (note: the paper prints H(a,b) where H(a,a) is meant — see DESIGN.md)");

    section("E6 Example 4.3 — PC0 ⊊ PC1");
    let q43 = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
    let policy = parlog::pc::example_4_3_policy();
    let universe = [Val(1), Val(2)];
    println!("  query: {q43}");
    println!(
        "  PC0 (all valuations meet):      {}",
        strongly_saturates(&q43, &policy, &universe)
    );
    println!(
        "  PC1 (minimal valuations meet):  {}",
        saturates(&q43, &policy, &universe)
    );
    println!(
        "  parallel-correct:               {}",
        parallel_correct(&q43, &policy, &universe)
    );

    section("E6 Example 4.5 — minimal valuations");
    let v1 = Valuation::of(&[("x", 1), ("y", 2), ("z", 1)]);
    let v2 = Valuation::of(&[("x", 1), ("y", 1), ("z", 1)]);
    for (name, v) in [("V1", &v1), ("V2", &v2)] {
        println!(
            "  {name} = {v}: requires {} facts, minimal = {}",
            v.required_facts(&q43).len(),
            parlog::relal::minimal::is_minimal(&q43, v)
        );
    }

    section("E6 CQ¬ — parallel-soundness vs parallel-completeness");
    let qn = parse_query("H(x) <- R(x), not S(x)").unwrap();
    let mut split = ExplicitPolicy::new(2);
    split.assign(0, fact("R", &[1]));
    split.assign(1, fact("S", &[1]));
    let v = parlog::pc::parallel_correct_neg(&qn, &split, &[Val(1)]);
    println!(
        "  split policy:     sound = {}, complete = {}",
        v.sound, v.complete
    );
    if let Some(ce) = &v.counterexample {
        println!("  counterexample I = {ce}");
    }
    let mut co = ExplicitPolicy::new(1);
    co.assign(0, fact("R", &[1]));
    co.assign(0, fact("S", &[1]));
    let v = parlog::pc::parallel_correct_neg(&qn, &co, &[Val(1)]);
    println!(
        "  colocated policy: sound = {}, complete = {}",
        v.sound, v.complete
    );
}
