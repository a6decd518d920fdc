//! The seeded Byzantine adversary the fault-injection experiments use to
//! tamper with a server's local output *after* the honest prover ran.
//!
//! This is deliberately a **diligent** adversary: after corrupting the
//! answer it recomputes `answer_root` and re-sorts the witness list, so
//! the certificate is internally consistent and the checker cannot get
//! away with only comparing roots — it must actually validate witnesses
//! and re-enumerate. (The lazy adversary, who leaves a stale root behind,
//! is strictly easier to catch and is covered by unit tests in
//! `checker`.)
//!
//! All choices (which tuple, which argument, which delta) derive from the
//! caller-provided entropy word, so a corruption plan replays
//! byte-identically — the e23 bench and the fault matrix depend on that.

use crate::certificate::{ServerCertificate, Witness};
use crate::snapshot::snapshot;
use parlog_faults::{mix64, CorruptKind};
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::UnionQuery;
use parlog_relal::valuation::Valuation;

/// Pick the `k`-th fact (entropy-indexed) of `inst` in sorted order.
fn pick_fact(inst: &Instance, entropy: u64) -> Option<Fact> {
    let mut facts: Vec<Fact> = inst.iter().cloned().collect();
    if facts.is_empty() {
        return None;
    }
    facts.sort_unstable();
    Some(facts[entropy as usize % facts.len()].clone())
}

/// Mutate one argument of `f` by a nonzero entropy-derived delta.
fn mutate_fact(f: &Fact, entropy: u64) -> Fact {
    let mut t = f.clone();
    if !t.args.is_empty() {
        let idx = entropy as usize % t.args.len();
        t.args[idx].0 ^= (entropy | 1) & 0xFFFF;
    } else {
        // Zero-arity facts carry no arguments to flip; corrupt by
        // "deriving" a sibling relation instead — still a wrong answer.
        t.args = [parlog_relal::fact::Val(mix64(entropy) & 0xFFFF)][..].into();
    }
    t
}

/// A fresh tuple in the injection namespace (values ≥ 900000 never occur
/// in generated workloads), shaped like the head of disjunct 0 of `u`.
fn inject_fact(u: &UnionQuery, entropy: u64) -> (Fact, Valuation) {
    let head = &u.disjuncts[0].head;
    let mut val = Valuation::new();
    let mut args = Vec::with_capacity(head.terms.len());
    for (i, t) in head.terms.iter().enumerate() {
        let v = parlog_relal::fact::Val(900_000 + (mix64(entropy ^ i as u64) % 1000));
        match t {
            parlog_relal::atom::Term::Var(x) => {
                let bound = val.get(x).unwrap_or(v);
                val.bind(x.clone(), bound);
                args.push(bound);
            }
            parlog_relal::atom::Term::Const(c) => args.push(*c),
        }
    }
    (Fact::new(head.rel, args), val)
}

/// Tamper with one server's `(answer, certificate)` pair in place,
/// according to `kind`, with all choices derived from `entropy`. Falls
/// back to injection when the answer is empty (there is nothing to
/// mutate or drop). Returns the fact the adversary touched.
pub fn corrupt_answer(
    answer: &mut Instance,
    cert: &mut ServerCertificate,
    u: &UnionQuery,
    kind: CorruptKind,
    entropy: u64,
) -> Fact {
    let touched = match kind {
        CorruptKind::Mutate => pick_fact(answer, entropy).map(|victim| {
            let forged = mutate_fact(&victim, entropy);
            answer.remove(&victim);
            answer.insert(forged.clone());
            // Relabel the victim's witness so the certificate still has
            // exactly one witness per claimed tuple.
            for w in &mut cert.witnesses {
                if w.fact == victim {
                    w.fact = forged.clone();
                }
            }
            forged
        }),
        CorruptKind::Drop => pick_fact(answer, entropy).map(|victim| {
            answer.remove(&victim);
            cert.witnesses.retain(|w| w.fact != victim);
            victim
        }),
        CorruptKind::Inject => None,
    };
    let touched = touched.unwrap_or_else(|| {
        let (forged, val) = inject_fact(u, entropy);
        answer.insert(forged.clone());
        cert.witnesses.push(Witness {
            fact: forged.clone(),
            disjunct: 0,
            valuation: val,
        });
        forged
    });
    cert.witnesses.sort_unstable();
    cert.answer_root = snapshot(answer);
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::prove_ucq;
    use crate::checker::check_answer;
    use parlog_relal::eval::EvalStrategy;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_union;

    fn setup() -> (UnionQuery, Instance) {
        let u = parse_union("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let db = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[4, 5]),
            fact("S", &[2, 3]),
            fact("S", &[5, 6]),
        ]);
        (u, db)
    }

    #[test]
    fn every_kind_is_caught_by_the_checker() {
        let (u, db) = setup();
        for (i, kind) in CorruptKind::ALL.iter().enumerate() {
            let (mut answer, mut cert) = prove_ucq(0, &u, &db, EvalStrategy::Indexed);
            assert!(check_answer(&u, &db, &answer, &cert).is_ok());
            corrupt_answer(&mut answer, &mut cert, &u, *kind, 0x9e37 + i as u64);
            let verdict = check_answer(&u, &db, &answer, &cert);
            assert!(verdict.is_err(), "{kind:?} corruption slipped through");
        }
    }

    #[test]
    fn corruption_is_deterministic_in_the_entropy() {
        let (u, db) = setup();
        for kind in CorruptKind::ALL {
            let (mut a1, mut c1) = prove_ucq(0, &u, &db, EvalStrategy::Indexed);
            let (mut a2, mut c2) = prove_ucq(0, &u, &db, EvalStrategy::Wcoj);
            let f1 = corrupt_answer(&mut a1, &mut c1, &u, kind, 42);
            let f2 = corrupt_answer(&mut a2, &mut c2, &u, kind, 42);
            assert_eq!(f1, f2);
            assert_eq!(a1, a2);
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn empty_answer_falls_back_to_injection() {
        let u = parse_union("H(x) <- R(x,x)").unwrap();
        let db = Instance::from_facts([fact("R", &[1, 2])]);
        let (mut answer, mut cert) = prove_ucq(0, &u, &db, EvalStrategy::Indexed);
        assert!(answer.is_empty());
        corrupt_answer(&mut answer, &mut cert, &u, CorruptKind::Drop, 7);
        assert_eq!(answer.len(), 1, "drop on empty answer injects instead");
        assert!(check_answer(&u, &db, &answer, &cert).is_err());
    }
}
