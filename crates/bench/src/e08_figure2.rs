//! E8 — Figure 2: Datalog fragments × monotonicity classes × transducer
//! classes, recomputed, with the strictness witnesses of Examples 5.6 and
//! 5.10 machine-checked.

use crate::{json_record, section};
use parlog::calm::validate_witness;
use parlog::figure2::{datalog_query, figure2};
use parlog::prelude::*;
use parlog::relal::fact::fact;

pub fn run() {
    section("E8 Figure 2 recomputation");
    let fig = figure2();
    println!("{fig}");
    json_record("figure2", &fig);

    section("E8 strictness witnesses (machine-checked)");
    // M ⊊ Mdistinct: open triangle fails plain monotonicity…
    let open = parlog::queries::open_triangles();
    let i = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
    let j = Instance::from_facts([fact("E", &[3, 1])]);
    validate_witness(&open, &i, &j, 0).unwrap();
    println!("  open-triangle ∉ M:            closing edge E(3,1) retracts H(1,2,3)  ✓");

    // Mdistinct ⊊ Mdisjoint: ¬TC fails distinct-monotonicity (Ex. 5.6)…
    let ntc = datalog_query(parlog::queries::ntc_program(), "NTC");
    let i = Instance::from_facts([fact("E", &[1, 2])]);
    let j = Instance::from_facts([fact("E", &[2, 3]), fact("E", &[3, 1])]);
    validate_witness(&ntc, &i, &j, 1).unwrap();
    println!("  ¬TC ∉ Mdistinct:              fresh path 2→3→1 connects 2 to 1      ✓");

    // …and QNT fails even disjoint-monotonicity (Ex. 5.10).
    let qnt = datalog_query(parlog::queries::qnt_program(), "OUT");
    let i = Instance::from_facts([fact("E", &[1, 1]), fact("E", &[2, 2])]);
    let j = Instance::from_facts([fact("E", &[4, 5]), fact("E", &[5, 6]), fact("E", &[6, 4])]);
    validate_witness(&qnt, &i, &j, 2).unwrap();
    println!("  QNT ∉ Mdisjoint:              a disjoint triangle empties the output ✓");
}
