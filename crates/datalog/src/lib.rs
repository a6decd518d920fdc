//! # `parlog-datalog` — the Datalog substrate of Section 5.3
//!
//! The CALM results of Neven's PODS'16 survey relate coordination-free
//! distributed computation to Datalog fragments (Figure 2):
//!
//! * **Datalog(≠)** captures the monotone queries `M`,
//! * **semi-positive Datalog** (negation on EDB predicates only) sits in
//!   `Mdistinct`,
//! * **semi-connected stratified Datalog** corresponds to `Mdisjoint`,
//! * adding **value invention** (wILOG) closes the gaps,
//! * and under the **well-founded semantics**, semi-connected programs stay
//!   domain-disjoint-monotone — the route to "win–move is coordination-free".
//!
//! This crate implements the machinery those statements quantify over:
//!
//! * [`program`] — rules (reusing [`parlog_relal::ConjunctiveQuery`]),
//!   programs, predicate dependency graphs, stratification;
//! * [`eval`] — naive and semi-naive bottom-up evaluation of stratified
//!   programs (with inequalities and stratified negation);
//! * [`analysis`] — the fragment tests: semi-positive, connected,
//!   semi-connected;
//! * [`wellfounded`] — the alternating-fixpoint well-founded semantics
//!   (three-valued), exercised by the win–move game;
//! * [`invention`] — a wILOG-style extension with value invention.
//!
//! ## Example
//!
//! ```
//! use parlog_datalog::prelude::*;
//! use parlog_relal::prelude::*;
//!
//! // Transitive closure (Example 5.13, first two rules).
//! let p = parse_program(
//!     "TC(x,y) <- E(x,y)
//!      TC(x,y) <- TC(x,z), TC(z,y)",
//! )
//! .unwrap();
//! let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
//! let out = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
//! assert!(out.contains(&fact("TC", &[1, 3])));
//! ```

pub mod analysis;
pub mod coordination;
mod delta_rule;
pub mod eval;
pub mod invention;
pub mod maintain;
pub mod program;
pub mod wellfounded;

pub use eval::{eval_program, eval_program_naive, eval_program_scratch};
pub use maintain::{
    publish_views, view_key, view_key_for, view_key_source, view_stats, MaterializedView,
    ViewStats, ViewWriter,
};
pub use program::{Program, ProgramError, Stratification};

/// Commonly used items.
pub mod prelude {
    pub use crate::analysis::{is_connected, is_semi_connected, is_semi_positive};
    pub use crate::eval::{eval_program, eval_program_naive};
    pub use crate::invention::{InventionProgram, InventionRule};
    pub use crate::maintain::{MaterializedView, ViewStats, ViewWriter};
    pub use crate::program::{parse_program, Program, Stratification};
    pub use crate::wellfounded::{well_founded, TruthValue, WellFoundedModel};
}
