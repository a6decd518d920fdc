//! The well-founded (three-valued) semantics, via Van Gelder's
//! alternating fixpoint.
//!
//! Section 5.3 of the survey: "under the well-founded semantics
//! semi-connected Datalog programs with negation remain
//! domain-disjoint-monotone and therefore in F2, providing a simple proof
//! that win–move is coordination-free for domain-guided transducer
//! networks" (Zinn–Green–Ludäscher's result).
//!
//! The alternating fixpoint computes two sequences: underestimates `A_i`
//! of the true facts and overestimates `B_i` of the possible facts, where
//! each is the least fixpoint of the positive program with negative
//! literals frozen against the other estimate. At convergence, facts in
//! `A` are **true**, facts outside `B` are **false**, and facts in
//! `B ∖ A` are **undefined** (e.g. drawn positions of the win–move game).

use crate::eval::add_adom;
use crate::program::{adom_id, Program, ProgramError};
use parlog_relal::eval::satisfying_valuations;
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthValue {
    /// Fact holds in the well-founded model.
    True,
    /// Fact does not hold.
    False,
    /// Fact is undefined (neither derivable nor refutable).
    Undefined,
}

/// The well-founded model of a program on an EDB.
#[derive(Debug, Clone)]
pub struct WellFoundedModel {
    /// Facts true in the model (includes the EDB).
    pub true_facts: Instance,
    /// Facts possible in the model (superset of `true_facts`).
    pub possible_facts: Instance,
}

impl WellFoundedModel {
    /// Truth value of a single fact.
    pub fn value_of(&self, f: &Fact) -> TruthValue {
        if self.true_facts.contains(f) {
            TruthValue::True
        } else if self.possible_facts.contains(f) {
            TruthValue::Undefined
        } else {
            TruthValue::False
        }
    }

    /// The undefined facts (`possible ∖ true`).
    pub fn undefined_facts(&self) -> Instance {
        self.possible_facts.difference(&self.true_facts)
    }
}

/// Least fixpoint of the program where every negative literal `¬R(t̄)` is
/// evaluated against the frozen instance `context`: the literal holds iff
/// `R(t̄) ∉ context`.
fn lfp_with_frozen_negation(p: &Program, base: &Instance, context: &Instance) -> Instance {
    // Rewrite: treat negated atoms against `context` by renaming them to
    // context-relation names. We inline the check instead: evaluate the
    // positive part and filter valuations manually.
    let mut db = base.clone();
    loop {
        let mut changed = false;
        for r in &p.rules {
            let positive_only = ConjunctiveQuery {
                head: r.head.clone(),
                body: r.body.clone(),
                negated: Vec::new(),
                inequalities: r.inequalities.clone(),
            };
            for v in satisfying_valuations(&positive_only, &db) {
                let neg_ok = r.negated.iter().all(|a| {
                    let f = v.apply(a).expect("safe rule");
                    !context.contains(&f)
                });
                if neg_ok && db.insert(v.derived_fact(r)) {
                    changed = true;
                }
            }
        }
        if !changed {
            return db;
        }
    }
}

/// Compute the well-founded model of `p` on `edb` by the alternating
/// fixpoint. Terminates on every input (the estimates are monotone in
/// the finite Herbrand base).
pub fn well_founded(p: &Program, edb: &Instance) -> Result<WellFoundedModel, ProgramError> {
    let mut base = edb.clone();
    // Built-in ADom, as in the stratified evaluator.
    add_adom(&mut base, p);

    // A-side starts at the base (no IDB facts assumed true); B-side starts
    // from the most liberal context (negation against A).
    let mut a = base.clone();
    loop {
        let b = lfp_with_frozen_negation(p, &base, &a);
        let a_next = lfp_with_frozen_negation(p, &base, &b);
        if a_next == a {
            // Converged: strip helper ADom facts.
            let strip = |mut inst: Instance| {
                inst.drop_relation(adom_id());
                inst
            };
            return Ok(WellFoundedModel {
                true_facts: strip(a),
                possible_facts: strip(b),
            });
        }
        a = a_next;
    }
}

/// The classic **win–move** program: `Win(x) ← Move(x,y), ¬Win(y)`.
pub fn win_move_program() -> Program {
    crate::program::parse_program("Win(x) <- Move(x,y), not Win(y)").expect("valid program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;
    use parlog_relal::fact::fact;

    fn win(x: u64) -> Fact {
        fact("Win", &[x])
    }

    #[test]
    fn win_move_on_a_path() {
        // 0 → 1 → 2 (2 is stuck). 2 loses, 1 wins (move to 2), 0 loses
        // (only move hands 1 the win)… wait: 0 moves to 1 which is a win
        // for the opponent, so 0 has no good move ⇒ 0 loses.
        let p = win_move_program();
        let db = Instance::from_facts([fact("Move", &[0, 1]), fact("Move", &[1, 2])]);
        let m = well_founded(&p, &db).unwrap();
        assert_eq!(m.value_of(&win(1)), TruthValue::True);
        assert_eq!(m.value_of(&win(2)), TruthValue::False);
        assert_eq!(m.value_of(&win(0)), TruthValue::False);
    }

    #[test]
    fn win_move_draw_cycle() {
        // 0 ↔ 1: neither wins nor loses — both undefined (a draw).
        let p = win_move_program();
        let db = Instance::from_facts([fact("Move", &[0, 1]), fact("Move", &[1, 0])]);
        let m = well_founded(&p, &db).unwrap();
        assert_eq!(m.value_of(&win(0)), TruthValue::Undefined);
        assert_eq!(m.value_of(&win(1)), TruthValue::Undefined);
        assert_eq!(m.undefined_facts().len(), 2);
    }

    #[test]
    fn win_move_cycle_with_escape() {
        // 0 ↔ 1, and 1 → 2 (stuck). 1 can move to the lost position 2 ⇒
        // Win(1) true; 0's only move goes to the winning 1 ⇒ Win(0) false.
        let p = win_move_program();
        let db = Instance::from_facts([
            fact("Move", &[0, 1]),
            fact("Move", &[1, 0]),
            fact("Move", &[1, 2]),
        ]);
        let m = well_founded(&p, &db).unwrap();
        assert_eq!(m.value_of(&win(1)), TruthValue::True);
        assert_eq!(m.value_of(&win(0)), TruthValue::False);
        assert_eq!(m.value_of(&win(2)), TruthValue::False);
        assert!(m.undefined_facts().is_empty());
    }

    #[test]
    fn stratified_programs_have_two_valued_wf_model() {
        // For stratified programs the well-founded model is total and
        // agrees with the stratified semantics.
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             OUT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.undefined_facts().is_empty());
        let strat =
            crate::eval::eval_program(&p, &db, parlog_relal::eval::EvalStrategy::Indexed).unwrap();
        assert_eq!(wf.true_facts, strat);
    }

    #[test]
    fn positive_program_is_its_least_model() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let db = Instance::from_facts([fact("E", &[0, 1]), fact("E", &[1, 0])]);
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.undefined_facts().is_empty());
        assert!(wf.true_facts.contains(&fact("TC", &[0, 0])));
    }

    #[test]
    fn empty_game() {
        let p = win_move_program();
        let m = well_founded(&p, &Instance::new()).unwrap();
        assert!(m.true_facts.is_empty());
        assert!(m.possible_facts.is_empty());
    }
}
