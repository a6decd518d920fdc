//! The trusted checker: validates an answer against its snapshot-bound
//! certificate *without re-running the engine*.
//!
//! ## Threat model
//!
//! The engines (Naive/Indexed/Wcoj backtrackers, the semi-naive Datalog
//! fixpoint, the MPC distribution machinery) are **untrusted**: a
//! Byzantine server may return any answer whatsoever. The checker trusts
//! only:
//!
//! * the definitional data model of `parlog-relal` — `Fact`, `Instance`
//!   set membership, and [`Valuation::satisfies`], which is the
//!   *semantics* of a CQ (Section 2 of the survey), not an evaluator;
//! * the in-crate SHA-256 and Merkle construction;
//! * its own ~200 lines in this module, including an independent
//!   reference enumerator (a deliberately naive nested-loop backtracker
//!   sharing no code with the engines' join machinery).
//!
//! ## What is checked
//!
//! * **Binding** — the shard and answer hash to the certificate's roots;
//!   an answer cannot be replayed against a different snapshot.
//! * **Soundness** — every answer tuple carries a witnessing valuation
//!   that actually satisfies its disjunct on the shard and derives
//!   exactly that tuple. Cost `O(|answer| · |body|)` membership tests,
//!   independent of the join's search space.
//! * **Completeness** — the checker's own enumerator derives no tuple
//!   missing from the answer. This is the one place the checker pays an
//!   evaluation-shaped cost; it is a *different*, simpler algorithm than
//!   the engines, so a bug cannot cancel out (and the e23 bench reports
//!   its cost honestly).
//!
//! For stratified Datalog, soundness is a well-founded replay of the
//! derivation sequence and completeness is a single **closure** pass:
//! a model that contains the EDB, is supported step by step, and is
//! closed under every rule *is* the stratum-wise least fixpoint — no
//! fixpoint iteration in the checker.

use crate::certificate::{adom_facts, ProgramCertificate, ServerCertificate};
use crate::snapshot::{cluster_root, snapshot, SnapshotId};
use parlog_datalog::program::Program;
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::FxSet;
use parlog_relal::instance::Instance;
use parlog_relal::query::{ConjunctiveQuery, UnionQuery};
use parlog_relal::valuation::Valuation;
use std::fmt;

/// Why the checker rejected an answer. Every variant names the offending
/// object so the supervisor can attribute the failure to a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The shard the checker was handed does not hash to the root the
    /// certificate claims to be bound to.
    ShardRootMismatch {
        /// Root claimed by the certificate.
        claimed: SnapshotId,
        /// Root of the shard actually presented.
        actual: SnapshotId,
    },
    /// The answer does not hash to the certificate's answer root.
    AnswerRootMismatch {
        /// Root claimed by the certificate.
        claimed: SnapshotId,
        /// Root of the answer actually presented.
        actual: SnapshotId,
    },
    /// An answer tuple has no witness in the certificate.
    UnwitnessedAnswer(Fact),
    /// A witness references a disjunct index the query does not have.
    BadDisjunct(Fact),
    /// A witness's valuation does not satisfy its disjunct on the shard,
    /// or does not derive the fact it claims to witness.
    BogusWitness(Fact),
    /// A witness vouches for a tuple that is not in the answer.
    StrayWitness(Fact),
    /// The checker's own enumeration derived a tuple the answer lacks.
    MissingAnswer(Fact),
    /// The claimed Datalog model does not contain the EDB.
    MissingEdb(Fact),
    /// A derivation step is not supported by the facts established
    /// before it (or derives a different fact than it claims).
    UnsupportedStep {
        /// Index of the offending step in the certificate.
        step: usize,
        /// The fact that step claimed to derive.
        fact: Fact,
    },
    /// A model fact is neither EDB nor derived by any step.
    UnderivedModelFact(Fact),
    /// The claimed model is not closed under a rule: the valuation
    /// satisfies the rule but the head fact is missing.
    NotClosed {
        /// Index of the rule in `Program::rules`.
        rule: usize,
        /// The missing head fact.
        fact: Fact,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::ShardRootMismatch { claimed, actual } => {
                write!(f, "shard root mismatch: cert {claimed:?}, got {actual:?}")
            }
            Rejection::AnswerRootMismatch { claimed, actual } => {
                write!(f, "answer root mismatch: cert {claimed:?}, got {actual:?}")
            }
            Rejection::UnwitnessedAnswer(t) => write!(f, "answer tuple {t} has no witness"),
            Rejection::BadDisjunct(t) => write!(f, "witness for {t} cites a bad disjunct"),
            Rejection::BogusWitness(t) => write!(f, "witness for {t} does not hold on the shard"),
            Rejection::StrayWitness(t) => write!(f, "witness for {t} which is not in the answer"),
            Rejection::MissingAnswer(t) => write!(f, "derivable tuple {t} missing from answer"),
            Rejection::MissingEdb(t) => write!(f, "EDB fact {t} missing from claimed model"),
            Rejection::UnsupportedStep { step, fact } => {
                write!(f, "derivation step {step} ({fact}) is unsupported")
            }
            Rejection::UnderivedModelFact(t) => write!(f, "model fact {t} has no derivation"),
            Rejection::NotClosed { rule, fact } => {
                write!(f, "model not closed under rule {rule}: missing {fact}")
            }
        }
    }
}

/// The checker's independent reference enumerator: a plain backtracking
/// product over the body atoms in source order, scanning each relation
/// in full. No indices, no atom reordering, no tries — deliberately
/// sharing nothing with the engines beyond the data model, so an engine
/// bug cannot be mirrored here. Exponential in principle; shards are
/// simulator-scale and the e23 bench reports the real cost.
fn reference_valuations(q: &ConjunctiveQuery, db: &Instance) -> Vec<Valuation> {
    fn go(
        q: &ConjunctiveQuery,
        db: &Instance,
        depth: usize,
        val: &mut Valuation,
        out: &mut Vec<Valuation>,
    ) {
        if depth == q.body.len() {
            // Positive atoms matched along the way; `satisfies` re-checks
            // them and decides negation and inequalities.
            if val.satisfies(q, db) {
                out.push(val.clone());
            }
            return;
        }
        let atom = &q.body[depth];
        for f in db.relation(atom.rel) {
            if f.args.len() != atom.terms.len() {
                continue;
            }
            // Try to extend `val` so that `atom` maps onto `f`.
            let mut newly: Vec<parlog_relal::atom::Var> = Vec::new();
            let mut ok = true;
            for (t, &a) in atom.terms.iter().zip(f.args.iter()) {
                match t {
                    parlog_relal::atom::Term::Const(c) => {
                        if *c != a {
                            ok = false;
                            break;
                        }
                    }
                    parlog_relal::atom::Term::Var(v) => match val.get(v) {
                        Some(prev) if prev != a => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            val.bind(v.clone(), a);
                            newly.push(v.clone());
                        }
                    },
                }
            }
            if ok {
                go(q, db, depth + 1, val, out);
            }
            for v in newly {
                val.unbind(&v);
            }
        }
    }
    let mut out = Vec::new();
    go(q, db, 0, &mut Valuation::new(), &mut out);
    out
}

/// Soundness check only: binding + per-tuple witnesses. Does not detect
/// dropped tuples; pair with [`check_complete`] (or use [`check_answer`])
/// for the full verdict.
pub fn check_sound(
    u: &UnionQuery,
    shard: &Instance,
    answer: &Instance,
    cert: &ServerCertificate,
) -> Result<(), Rejection> {
    check_sound_at(u, snapshot(shard), shard, answer, cert)
}

/// [`check_sound`] with the shard's root, `shard_actual`, already
/// computed by the caller from `shard` itself.
fn check_sound_at(
    u: &UnionQuery,
    shard_actual: SnapshotId,
    shard: &Instance,
    answer: &Instance,
    cert: &ServerCertificate,
) -> Result<(), Rejection> {
    if shard_actual != cert.shard_root {
        return Err(Rejection::ShardRootMismatch {
            claimed: cert.shard_root,
            actual: shard_actual,
        });
    }
    let answer_actual = snapshot(answer);
    if answer_actual != cert.answer_root {
        return Err(Rejection::AnswerRootMismatch {
            claimed: cert.answer_root,
            actual: answer_actual,
        });
    }
    for w in &cert.witnesses {
        let q = u
            .disjuncts
            .get(w.disjunct)
            .ok_or_else(|| Rejection::BadDisjunct(w.fact.clone()))?;
        if !w.valuation.is_total_for(q)
            || !w.valuation.satisfies(q, shard)
            || w.valuation.derived_fact(q) != w.fact
        {
            return Err(Rejection::BogusWitness(w.fact.clone()));
        }
        if !answer.contains(&w.fact) {
            return Err(Rejection::StrayWitness(w.fact.clone()));
        }
    }
    // The least unwitnessed tuple, whatever order the witnesses come in.
    let witnessed: FxSet<&Fact> = cert.witnesses.iter().map(|w| &w.fact).collect();
    match answer.iter().filter(|t| !witnessed.contains(t)).min() {
        Some(t) => Err(Rejection::UnwitnessedAnswer(t.clone())),
        None => Ok(()),
    }
}

/// Completeness check: the checker's own enumerator derives nothing the
/// answer lacks. This is the per-server completeness sub-certificate
/// obligation — on the server's bound shard, the answer is all of
/// `Q(shard)`.
pub fn check_complete(
    u: &UnionQuery,
    shard: &Instance,
    answer: &Instance,
) -> Result<(), Rejection> {
    for q in &u.disjuncts {
        for v in reference_valuations(q, shard) {
            let f = v.derived_fact(q);
            if !answer.contains(&f) {
                return Err(Rejection::MissingAnswer(f));
            }
        }
    }
    Ok(())
}

/// Full verdict for one server's answer: binding + soundness +
/// completeness.
pub fn check_answer(
    u: &UnionQuery,
    shard: &Instance,
    answer: &Instance,
    cert: &ServerCertificate,
) -> Result<(), Rejection> {
    check_sound(u, shard, answer, cert)?;
    check_complete(u, shard, answer)
}

/// Check every server of a cluster round. Returns the cluster-level
/// snapshot id on success, or `(server, rejection)` for the *first*
/// failing server — exactly what the verify-then-commit round mode needs
/// to quarantine. Each shard is hashed once: the root its binding is
/// checked against is the one the cluster root is built from.
pub fn check_cluster(
    u: &UnionQuery,
    shards: &[Instance],
    answers: &[Instance],
    certs: &[ServerCertificate],
) -> Result<SnapshotId, (usize, Rejection)> {
    assert_eq!(shards.len(), answers.len());
    assert_eq!(shards.len(), certs.len());
    let mut roots = Vec::with_capacity(shards.len());
    for (s, ((shard, answer), cert)) in shards.iter().zip(answers).zip(certs).enumerate() {
        let root = snapshot(shard);
        check_sound_at(u, root, shard, answer, cert)
            .and_then(|()| check_complete(u, shard, answer))
            .map_err(|r| (s, r))?;
        roots.push(root);
    }
    Ok(cluster_root(&roots))
}

/// Check a stratified Datalog model against its derivation certificate.
///
/// Accepts iff the model (1) hashes to the bound roots, (2) contains the
/// EDB, (3) every IDB fact is derived by a well-founded supported step,
/// and (4) the model is closed under every rule. For stratified programs
/// (negation only on lower strata, which the supported steps respect by
/// construction of the well-founded order) this characterizes the least
/// fixpoint, so a single pass replaces the engine's iteration.
pub fn check_program(
    p: &Program,
    edb: &Instance,
    model: &Instance,
    cert: &ProgramCertificate,
) -> Result<(), Rejection> {
    let edb_actual = snapshot(edb);
    if edb_actual != cert.edb_root {
        return Err(Rejection::ShardRootMismatch {
            claimed: cert.edb_root,
            actual: edb_actual,
        });
    }
    let model_actual = snapshot(model);
    if model_actual != cert.model_root {
        return Err(Rejection::AnswerRootMismatch {
            claimed: cert.model_root,
            actual: model_actual,
        });
    }
    for f in edb.iter() {
        if !model.contains(f) {
            return Err(Rejection::MissingEdb(f.clone()));
        }
    }
    // The negation context: negated atoms are checked against the full
    // claimed model (sound for stratified programs — lower strata are
    // complete in the claimed model once the closure check passes).
    let mut model_ctx = model.clone();
    for f in adom_facts(p, edb) {
        model_ctx.insert(f);
    }
    // Supported, well-founded replay for the positive part.
    let mut established = edb.clone();
    for f in adom_facts(p, edb) {
        established.insert(f);
    }
    for (i, step) in cert.steps.iter().enumerate() {
        let rule = p.rules.get(step.rule).ok_or(Rejection::UnsupportedStep {
            step: i,
            fact: step.fact.clone(),
        })?;
        let supported = step.valuation.is_total_for(rule)
            && step.valuation.satisfies_inequalities(rule)
            && step
                .valuation
                .body_facts(rule)
                .iter()
                .all(|f| established.contains(f))
            && rule.negated.iter().all(|a| {
                step.valuation
                    .apply(a)
                    .is_some_and(|f| !model_ctx.contains(&f))
            })
            && step.valuation.derived_fact(rule) == step.fact;
        if !supported {
            return Err(Rejection::UnsupportedStep {
                step: i,
                fact: step.fact.clone(),
            });
        }
        if !model.contains(&step.fact) {
            return Err(Rejection::StrayWitness(step.fact.clone()));
        }
        established.insert(step.fact.clone());
    }
    // Every model fact is EDB or derived.
    for f in model.iter() {
        if !established.contains(f) {
            return Err(Rejection::UnderivedModelFact(f.clone()));
        }
    }
    // Closure: no rule can fire into a missing head fact. One pass with
    // the checker's own enumerator over the claimed model.
    for (i, rule) in p.rules.iter().enumerate() {
        for v in reference_valuations(rule, &model_ctx) {
            let f = v.derived_fact(rule);
            if !model.contains(&f) {
                return Err(Rejection::NotClosed { rule: i, fact: f });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{prove_cq, prove_program, prove_ucq};
    use parlog_datalog::program::parse_program;
    use parlog_relal::eval::EvalStrategy;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;

    fn db() -> Instance {
        Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[2, 3]),
            fact("S", &[2, 3]),
            fact("S", &[3, 4]),
            fact("T", &[3, 1]),
        ])
    }

    fn tri() -> UnionQuery {
        UnionQuery::new(vec![
            parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
        ])
    }

    #[test]
    fn honest_answer_accepted() {
        let u = tri();
        let shard = db();
        let (answer, cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        assert_eq!(check_answer(&u, &shard, &answer, &cert), Ok(()));
    }

    #[test]
    fn empty_answer_accepted_when_query_empty_on_shard() {
        let u = UnionQuery::new(vec![parse_query("H(x) <- Z(x,x)").unwrap()]);
        let shard = db();
        let (answer, cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        assert!(answer.is_empty());
        assert_eq!(check_answer(&u, &shard, &answer, &cert), Ok(()));
    }

    #[test]
    fn injected_tuple_rejected() {
        let u = tri();
        let shard = db();
        let (mut answer, mut cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        answer.insert(fact("H", &[9, 9, 9]));
        // Lazy adversary: stale answer root.
        assert!(matches!(
            check_answer(&u, &shard, &answer, &cert),
            Err(Rejection::AnswerRootMismatch { .. })
        ));
        // Diligent adversary: recomputes the root but cannot forge a
        // witness that satisfies on the shard.
        cert.answer_root = snapshot(&answer);
        assert!(matches!(
            check_answer(&u, &shard, &answer, &cert),
            Err(Rejection::UnwitnessedAnswer(_))
        ));
    }

    #[test]
    fn least_unwitnessed_tuple_named_whatever_the_witness_order() {
        let u = tri();
        let shard = db();
        let (mut answer, mut cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        answer.insert(fact("H", &[9, 9, 9]));
        answer.insert(fact("H", &[8, 9, 9]));
        cert.witnesses.reverse();
        let first = cert.witnesses[0].clone();
        cert.witnesses.push(first);
        cert.answer_root = snapshot(&answer);
        assert_eq!(
            check_sound(&u, &shard, &answer, &cert),
            Err(Rejection::UnwitnessedAnswer(fact("H", &[8, 9, 9])))
        );
    }

    #[test]
    fn dropped_tuple_rejected_by_completeness() {
        let u = tri();
        let shard = db();
        let (mut answer, mut cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        let victim = answer.sorted_facts()[0].clone();
        answer.remove(&victim);
        cert.witnesses.retain(|w| w.fact != victim);
        cert.answer_root = snapshot(&answer);
        assert_eq!(
            check_answer(&u, &shard, &answer, &cert),
            Err(Rejection::MissingAnswer(victim))
        );
    }

    #[test]
    fn mutated_tuple_rejected() {
        let u = tri();
        let shard = db();
        let (mut answer, mut cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        let victim = answer.sorted_facts()[0].clone();
        let mut evil = victim.clone();
        evil.args[0] = parlog_relal::fact::Val(evil.args[0].0 ^ 1);
        answer.remove(&victim);
        answer.insert(evil.clone());
        // Forge the witness by relabeling.
        for w in &mut cert.witnesses {
            if w.fact == victim {
                w.fact = evil.clone();
            }
        }
        cert.answer_root = snapshot(&answer);
        let verdict = check_answer(&u, &shard, &answer, &cert);
        assert!(
            matches!(
                verdict,
                Err(Rejection::BogusWitness(_)) | Err(Rejection::MissingAnswer(_))
            ),
            "got {verdict:?}"
        );
    }

    #[test]
    fn replayed_against_wrong_shard_rejected() {
        let u = tri();
        let shard = db();
        let (answer, cert) = prove_ucq(0, &u, &shard, EvalStrategy::Indexed);
        let mut other = shard.clone();
        other.insert(fact("R", &[7, 8]));
        assert!(matches!(
            check_answer(&u, &other, &answer, &cert),
            Err(Rejection::ShardRootMismatch { .. })
        ));
    }

    #[test]
    fn witness_for_absent_fact_rejected() {
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let shard = db();
        let (mut answer, mut cert) = prove_cq(0, &q, &shard, EvalStrategy::Indexed);
        // Remove a tuple from the answer but keep its witness.
        let victim = answer.sorted_facts()[0].clone();
        answer.remove(&victim);
        cert.answer_root = snapshot(&answer);
        let u = UnionQuery::new(vec![q]);
        assert_eq!(
            check_sound(&u, &shard, &answer, &cert),
            Err(Rejection::StrayWitness(victim))
        );
    }

    #[test]
    fn cluster_check_points_at_the_corrupt_server() {
        let u = tri();
        let shards = vec![
            db(),
            Instance::from_facts([fact("R", &[5, 6]), fact("S", &[6, 7]), fact("T", &[7, 5])]),
            Instance::new(),
        ];
        let mut answers = Vec::new();
        let mut certs = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let (a, c) = prove_ucq(s, &u, shard, EvalStrategy::Auto);
            answers.push(a);
            certs.push(c);
        }
        assert!(check_cluster(&u, &shards, &answers, &certs).is_ok());
        // Corrupt server 1's output.
        answers[1].insert(fact("H", &[6, 6, 6]));
        certs[1].answer_root = snapshot(&answers[1]);
        let (bad, _) = check_cluster(&u, &shards, &answers, &certs).unwrap_err();
        assert_eq!(bad, 1);
    }

    #[test]
    fn honest_datalog_model_accepted() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             OUT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let edb = Instance::from_facts((0..3u64).map(|i| fact("E", &[i, i + 1])));
        let (model, cert) = prove_program(&p, &edb, EvalStrategy::Indexed).unwrap();
        assert_eq!(check_program(&p, &edb, &model, &cert), Ok(()));
    }

    #[test]
    fn datalog_injected_fact_rejected() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let edb = Instance::from_facts((0..3u64).map(|i| fact("E", &[i, i + 1])));
        let (mut model, mut cert) = prove_program(&p, &edb, EvalStrategy::Indexed).unwrap();
        model.insert(fact("TC", &[2, 0])); // not derivable on a chain
        cert.model_root = snapshot(&model);
        assert!(matches!(
            check_program(&p, &edb, &model, &cert),
            Err(Rejection::UnderivedModelFact(_))
        ));
    }

    #[test]
    fn datalog_dropped_fact_rejected_by_closure() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let edb = Instance::from_facts((0..3u64).map(|i| fact("E", &[i, i + 1])));
        let (mut model, mut cert) = prove_program(&p, &edb, EvalStrategy::Indexed).unwrap();
        let victim = fact("TC", &[0, 3]);
        assert!(model.remove(&victim));
        cert.steps.retain(|s| s.fact != victim);
        cert.model_root = snapshot(&model);
        assert!(matches!(
            check_program(&p, &edb, &model, &cert),
            Err(Rejection::NotClosed { .. })
        ));
    }

    #[test]
    fn datalog_unsupported_negation_step_rejected() {
        // A step whose negated atom actually holds in the model must be
        // rejected even if the fact ended up in the claimed model.
        let p = parse_program("B(x) <- V(x), not A(x)\nA(x) <- V(x), E(x,x)").unwrap();
        let edb = Instance::from_facts([fact("V", &[1]), fact("E", &[1, 1])]);
        let (mut model, mut cert) = prove_program(&p, &edb, EvalStrategy::Indexed).unwrap();
        // Forge: claim B(1) although A(1) holds.
        model.insert(fact("B", &[1]));
        cert.steps.push(crate::certificate::DerivationStep {
            rule: 0,
            fact: fact("B", &[1]),
            valuation: Valuation::of(&[("x", 1)]),
        });
        cert.model_root = snapshot(&model);
        assert!(matches!(
            check_program(&p, &edb, &model, &cert),
            Err(Rejection::UnsupportedStep { .. })
        ));
    }
}
