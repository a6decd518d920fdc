//! E5 — Figure 1: the parallel-correctness-transfer and containment
//! matrices over Q1–Q4 of Example 4.11, recomputed from the decision
//! procedures (`covers` / homomorphism test).

use crate::{json_record, section};

pub fn run() {
    section("E5 Figure 1 recomputation");
    let fig = parlog::figure1::figure1();
    println!("{fig}");
    json_record("figure1", &fig);
    println!(
        "Shape check (machine-asserted in the test suite):\n\
         transfer arrows exactly {{Q3→Q1, Q3→Q2, Q3→Q4, Q1→Q2, Q4→Q2}} + reflexivity;\n\
         containment exactly {{Q1⊆Q2, Q1⊆Q3, Q1⊆Q4, Q2⊆Q4, Q3⊆Q4}} + reflexivity;\n\
         the two relations are orthogonal (Example 4.11)."
    );
}
