//! Provenance certificates: the evidence an untrusted engine attaches to
//! an answer so the trusted checker can validate it without re-running
//! the engine.
//!
//! * For CQs/UCQs the evidence is one **witnessing valuation** per output
//!   tuple ([`Witness`]): the valuation whose required body facts lie in
//!   the snapshot-bound shard and whose head instantiation is the tuple.
//!   Witnesses are extracted *uniformly* from all three local evaluators
//!   (Naive / Indexed / Wcoj) — each runs the disjunct's `QueryPlan` with
//!   every body variable in the head, so [`prove_cq`]/[`prove_ucq`] only
//!   read back and canonicalize what the engine already produced.
//! * For stratified Datalog the evidence is a **derivation sequence**
//!   ([`DerivationStep`]): a well-founded list of rule applications, each
//!   supported by the facts established before it. Together with a single
//!   closure pass this pins the claimed model to the least fixpoint
//!   without the checker iterating the fixpoint itself.
//!
//! Certificates are canonical: per derived tuple the lexicographically
//! least `(disjunct, valuation)` pair is kept and witnesses are sorted,
//! so the *bytes* of a certificate are identical across evaluation
//! strategies and thread counts — the property suite pins this.

use crate::snapshot::{snapshot, SnapshotId};
use parlog_datalog::eval::eval_program;
use parlog_datalog::program::{Program, ProgramError, ADOM};
use parlog_relal::atom::{Atom, Term};
use parlog_relal::eval::{satisfying_valuations, EvalStrategy, QueryPlan};
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::{ConjunctiveQuery, UnionQuery};
use parlog_relal::symbols::{rel, val_name};
use parlog_relal::valuation::Valuation;
use std::collections::BTreeMap;

/// Serialize any certificate component to its canonical JSON bytes.
pub fn to_json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    let mut s = String::new();
    v.json(&mut s);
    s
}

/// Serialize a valuation as a sorted `[[var, value], …]` binding list
/// (values rendered through the interner's name table, like snapshot
/// leaves, so the bytes are process-independent).
fn bindings_json(v: &Valuation, out: &mut String) {
    out.push('[');
    for (i, (var, val)) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        serde::write_json_str(out, &var.0);
        out.push(',');
        serde::write_json_str(out, &val_name(val.0));
        out.push(']');
    }
    out.push(']');
}

/// One witnessing valuation: `fact = V(head)` where `V` satisfies
/// disjunct `disjunct` of the query on the bound shard.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Witness {
    /// The derived output tuple.
    pub fact: Fact,
    /// Which disjunct of the UCQ the valuation satisfies (0 for a CQ).
    pub disjunct: usize,
    /// The witnessing valuation, total on the disjunct's variables.
    pub valuation: Valuation,
}

impl serde::Serialize for Witness {
    fn json(&self, out: &mut String) {
        out.push_str("{\"fact\":");
        self.fact.json(out);
        out.push_str(",\"disjunct\":");
        out.push_str(&self.disjunct.to_string());
        out.push_str(",\"valuation\":");
        bindings_json(&self.valuation, out);
        out.push('}');
    }
}

/// The certificate one server attaches to its local answer: the snapshot
/// id of the shard it claims to have read, the root of the answer it
/// claims to have produced, and one canonical witness per output tuple.
///
/// Soundness is checkable from the witnesses alone; completeness is the
/// checker's own single enumeration pass over the bound shard (see
/// `checker` for exactly what is and is not trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerCertificate {
    /// Which server produced this answer.
    pub server: usize,
    /// Content address of the input shard the answer is bound to.
    pub shard_root: SnapshotId,
    /// Content address of the claimed answer.
    pub answer_root: SnapshotId,
    /// One canonical witness per answer tuple, sorted.
    pub witnesses: Vec<Witness>,
}

impl serde::Serialize for ServerCertificate {
    fn json(&self, out: &mut String) {
        out.push_str("{\"server\":");
        out.push_str(&self.server.to_string());
        out.push_str(",\"shard_root\":");
        self.shard_root.json(out);
        out.push_str(",\"answer_root\":");
        self.answer_root.json(out);
        out.push_str(",\"witnesses\":");
        self.witnesses.json(out);
        out.push('}');
    }
}

impl ServerCertificate {
    /// Size of the serialized certificate in bytes — the quantity the
    /// e23 bench reports against answer size.
    pub fn size_bytes(&self) -> usize {
        to_json(self).len()
    }
}

/// The satisfying valuations of `q` under `strategy`: the head rows of
/// `q`'s plan with every body variable in the head. The body — and so
/// what `Auto` resolves to, and the enumeration — is `q`'s.
fn valuations_with(
    q: &ConjunctiveQuery,
    shard: &Instance,
    strategy: EvalStrategy,
) -> Vec<Valuation> {
    let vars = q.body_variables();
    let witness = ConjunctiveQuery {
        head: Atom::new(q.head.rel, vars.iter().cloned().map(Term::Var).collect()),
        ..q.clone()
    };
    let mut out = Vec::new();
    QueryPlan::new(&[witness], strategy)
        .expect("a certificate needs a safe query")
        .run(shard, &mut |row| {
            out.push(vars.iter().cloned().zip(row.args.iter().copied()).collect());
        });
    out
}

/// Prove a UCQ answer: evaluate every disjunct on `shard` with
/// `strategy`, keep the lexicographically least `(disjunct, valuation)`
/// per derived tuple, and bind everything to the shard's snapshot.
/// Returns the answer and its certificate.
pub fn prove_ucq(
    server: usize,
    u: &UnionQuery,
    shard: &Instance,
    strategy: EvalStrategy,
) -> (Instance, ServerCertificate) {
    let mut best: BTreeMap<Fact, (usize, Valuation)> = BTreeMap::new();
    for (d, q) in u.disjuncts.iter().enumerate() {
        for v in valuations_with(q, shard, strategy) {
            let f = v.derived_fact(q);
            match best.get(&f) {
                Some(prev) if *prev <= (d, v.clone()) => {}
                _ => {
                    best.insert(f, (d, v));
                }
            }
        }
    }
    let answer = Instance::from_facts(best.keys().cloned());
    let witnesses: Vec<Witness> = best
        .into_iter()
        .map(|(fact, (disjunct, valuation))| Witness {
            fact,
            disjunct,
            valuation,
        })
        .collect();
    let cert = ServerCertificate {
        server,
        shard_root: snapshot(shard),
        answer_root: snapshot(&answer),
        witnesses,
    };
    (answer, cert)
}

/// [`prove_ucq`] for a single conjunctive query (one-disjunct union).
pub fn prove_cq(
    server: usize,
    q: &ConjunctiveQuery,
    shard: &Instance,
    strategy: EvalStrategy,
) -> (Instance, ServerCertificate) {
    prove_ucq(server, &UnionQuery::new(vec![q.clone()]), shard, strategy)
}

/// One step of a Datalog derivation: rule `rule` fired under `valuation`
/// and derived `fact`. Steps are listed in a well-founded order — every
/// positive body fact of a step is EDB, `ADom`, or derived by an earlier
/// step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the rule in `Program::rules`.
    pub rule: usize,
    /// The derived IDB fact.
    pub fact: Fact,
    /// The valuation under which the rule fired.
    pub valuation: Valuation,
}

impl serde::Serialize for DerivationStep {
    fn json(&self, out: &mut String) {
        out.push_str("{\"rule\":");
        out.push_str(&self.rule.to_string());
        out.push_str(",\"fact\":");
        self.fact.json(out);
        out.push_str(",\"valuation\":");
        bindings_json(&self.valuation, out);
        out.push('}');
    }
}

/// The certificate for a stratified Datalog model: EDB snapshot, model
/// root, and a well-founded derivation sequence covering every IDB fact
/// of the claimed model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramCertificate {
    /// Content address of the extensional database.
    pub edb_root: SnapshotId,
    /// Content address of the claimed model (EDB ∪ IDB).
    pub model_root: SnapshotId,
    /// Derivation steps in a well-founded order.
    pub steps: Vec<DerivationStep>,
}

impl serde::Serialize for ProgramCertificate {
    fn json(&self, out: &mut String) {
        out.push_str("{\"edb_root\":");
        self.edb_root.json(out);
        out.push_str(",\"model_root\":");
        self.model_root.json(out);
        out.push_str(",\"steps\":");
        self.steps.json(out);
        out.push('}');
    }
}

impl ProgramCertificate {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        to_json(self).len()
    }
}

/// The `ADom` facts the engine adds before evaluation: active-domain
/// values of the EDB plus every rule constant. Mirrored here (and in the
/// checker) because derivations may consume them.
pub fn adom_facts(p: &Program, edb: &Instance) -> Vec<Fact> {
    let adom_rel = rel(ADOM);
    let mut values = edb.adom_sorted();
    for r in &p.rules {
        values.extend(r.constants());
    }
    values.sort_unstable();
    values.dedup();
    values
        .into_iter()
        .map(|v| Fact::new(adom_rel, [v]))
        .collect()
}

/// Prove a stratified Datalog model: evaluate with the untrusted engine,
/// then replay stratum by stratum to extract a well-founded derivation
/// sequence with the valuation of every rule firing. The replay is
/// prover-side work (it may use engine code freely); only the *checker*
/// is trusted.
pub fn prove_program(
    p: &Program,
    edb: &Instance,
    strategy: EvalStrategy,
) -> Result<(Instance, ProgramCertificate), ProgramError> {
    let model = eval_program(p, edb, strategy)?;
    let strat = p.stratify()?;
    let mut db = edb.clone();
    for f in adom_facts(p, edb) {
        db.insert(f);
    }
    let mut steps: Vec<DerivationStep> = Vec::new();
    for stratum in &strat.rule_strata {
        loop {
            let mut fresh: Vec<DerivationStep> = Vec::new();
            for &i in stratum {
                let rule = &p.rules[i];
                for v in satisfying_valuations(rule, &db) {
                    let f = v.derived_fact(rule);
                    if !db.contains(&f) && !fresh.iter().any(|s| s.fact == f) {
                        fresh.push(DerivationStep {
                            rule: i,
                            fact: f,
                            valuation: v,
                        });
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            for s in &fresh {
                db.insert(s.fact.clone());
            }
            steps.extend(fresh);
        }
    }
    // Canonical order within the well-founded sequence: steps were pushed
    // round by round; sort each round's block deterministically already
    // via the BTree-backed valuation ordering when ties occur. The
    // sequence as produced is deterministic for a fixed strategy; the
    // checker only needs well-foundedness, not a specific order.
    let cert = ProgramCertificate {
        edb_root: snapshot(edb),
        model_root: snapshot(&model),
        steps,
    };
    Ok((model, cert))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_datalog::program::parse_program;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::{parse_query, parse_union};

    fn triangle_db() -> Instance {
        Instance::from_facts([
            fact("R", &[1, 2]),
            fact("S", &[2, 3]),
            fact("T", &[3, 1]),
            fact("R", &[4, 5]),
        ])
    }

    #[test]
    fn witnesses_cover_the_answer_exactly() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = triangle_db();
        let (answer, cert) = prove_cq(3, &q, &db, EvalStrategy::Indexed);
        assert_eq!(answer.len(), 1);
        assert_eq!(cert.witnesses.len(), 1);
        assert_eq!(cert.server, 3);
        assert_eq!(cert.witnesses[0].fact, fact("H", &[1, 2, 3]));
        assert!(cert.witnesses[0].valuation.satisfies(&q, &db));
    }

    #[test]
    fn certificates_identical_across_strategies() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let db = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[1, 7]),
            fact("S", &[2, 3]),
            fact("S", &[7, 3]),
        ]);
        let reference = prove_cq(0, &q, &db, EvalStrategy::Naive);
        for s in [
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            let got = prove_cq(0, &q, &db, s);
            assert_eq!(got, reference, "{s:?}");
            assert_eq!(
                to_json(&got.1),
                to_json(&reference.1),
                "bytes differ under {s:?}"
            );
        }
    }

    #[test]
    fn ucq_witness_records_the_least_disjunct() {
        let u = parse_union("H(x) <- R(x); H(x) <- S(x)").unwrap();
        let db = Instance::from_facts([fact("R", &[1]), fact("S", &[1]), fact("S", &[2])]);
        let (answer, cert) = prove_ucq(0, &u, &db, EvalStrategy::Indexed);
        assert_eq!(answer.len(), 2);
        let w1 = cert.witnesses.iter().find(|w| w.fact == fact("H", &[1]));
        assert_eq!(w1.unwrap().disjunct, 0); // R-witness beats S-witness
        let w2 = cert.witnesses.iter().find(|w| w.fact == fact("H", &[2]));
        assert_eq!(w2.unwrap().disjunct, 1);
    }

    #[test]
    fn program_certificate_derives_every_idb_fact() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let edb = Instance::from_facts((0..4u64).map(|i| fact("E", &[i, i + 1])));
        let (model, cert) = prove_program(&p, &edb, EvalStrategy::Indexed).unwrap();
        let idb: Vec<&Fact> = model.iter().filter(|f| !edb.contains(f)).collect();
        assert_eq!(cert.steps.len(), idb.len());
        for f in idb {
            assert!(cert.steps.iter().any(|s| s.fact == *f), "no step for {f}");
        }
        assert_eq!(cert.edb_root, snapshot(&edb));
        assert_eq!(cert.model_root, snapshot(&model));
    }

    #[test]
    fn certificate_serializes_deterministically() {
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let db = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[1, 3])]);
        let (_, c1) = prove_cq(0, &q, &db, EvalStrategy::Indexed);
        let (_, c2) = prove_cq(0, &q, &db, EvalStrategy::Wcoj);
        assert_eq!(to_json(&c1), to_json(&c2));
        assert!(c1.size_bytes() > 0);
    }
}
