//! Verified computation rounds: the cluster's defense against Byzantine
//! (wrong-answer) servers.
//!
//! The omission-fault machinery elsewhere in this crate (checkpoint /
//! replay, speculation, the supervisor's detector) assumes a crashed or
//! slow server — never a *lying* one. A Byzantine server returns an
//! answer that is simply wrong: extra tuples, missing tuples, mutated
//! tuples. Nothing in the retry path notices, because the wrong answer
//! arrives on time and parses fine.
//!
//! [`Verifier`] is the one prove-and-audit routine over a slice of input
//! shards. Its **prove** step has each server produce its local answer
//! *with a certificate* binding it to the content-addressed snapshot of
//! its shard ([`parlog_verify::prove_ucq`]), while the fault plan's
//! [`corruptions`](FaultPlan::corruptions) tamper with the outputs of
//! servers not quarantined (`Corrupt`). Its **audit** step runs the
//! trusted checker over every certificate: a failure raises `Detect` and,
//! the first time, `Quarantine`, and the server's task is re-proved
//! honestly on its shard alone (`Heal`). Every verified driver is a
//! schedule of these two steps; the cluster's drivers read their
//! corruptions from the plan installed with [`Cluster::with_faults`], on
//! the verified-round clock:
//!
//! * [`Cluster::compute_union_verified`] with `audit` — prove, audit at
//!   once, commit: the committed union equals the fault-free answer even
//!   under active corruption (verify-then-commit, zero detection
//!   latency); without `audit` — prove, commit blind: the unprotected
//!   path, kept as the fault matrix's UNSOUND regression witness;
//! * the supervisor's cadenced driver (`parlog_supervisor::verify`) —
//!   prove every round, audit every few rounds.

use crate::cluster::Cluster;
use parlog_faults::FaultPlan;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::instance::Instance;
use parlog_relal::query::UnionQuery;
use parlog_relal::shard::Shard;
use parlog_trace::{FaultEvent, FaultEventKind, TraceEvent, TraceHandle};
use parlog_verify::checker::check_answer;
use parlog_verify::snapshot::snapshot;
use parlog_verify::{corrupt_answer, prove_ucq, Rejection, ServerCertificate, SnapshotId};

/// One server's local answer and the certificate binding it to its shard.
pub type Proof = (Instance, ServerCertificate);

/// The prove-and-audit routine over fixed input shards, one per server.
pub struct Verifier<'a> {
    /// The servers' input shards.
    pub shards: &'a [Instance],
    /// The local evaluation strategy of every proof.
    pub strategy: EvalStrategy,
    /// Per-server quarantine flags. A quarantined server no longer runs
    /// its own (untrusted) prover: a survivor re-executes its task
    /// honestly, so the plan's corruptions have no purchase on it.
    pub quarantined: &'a mut [bool],
    /// Where `Corrupt`, `Detect`, `Quarantine` and `Heal` are recorded.
    pub trace: &'a TraceHandle,
}

impl Verifier<'_> {
    /// **Prove** `u` on every shard. `plan`'s corruptions for verified
    /// round `round` tamper with the outputs of servers not quarantined
    /// — post-proof, pre-check: the Byzantine window — each recording
    /// `Corrupt` at `vclock`. Returns every server's proof and the tampered servers.
    pub fn prove(
        &self,
        round: usize,
        u: &UnionQuery,
        plan: &FaultPlan,
        vclock: f64,
    ) -> (Vec<Proof>, Vec<usize>) {
        let mut corrupted = Vec::new();
        let mut proofs = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter().enumerate() {
            let (mut answer, mut cert) = prove_ucq(s, u, shard, self.strategy);
            let event = plan.event_for(round, s).filter(|_| !self.quarantined[s]);
            if let Some(kind) = event {
                let e = plan.entropy(round, s);
                corrupt_answer(&mut answer, &mut cert, u, kind, e);
                corrupted.push(s);
                self.record(FaultEventKind::Corrupt, s, e, vclock);
            }
            proofs.push((answer, cert));
        }
        (proofs, corrupted)
    }

    /// **Audit** every server's proof of `u`. A rejected one records
    /// `Detect` at `vclock`; a server not yet quarantined is quarantined,
    /// recording `Quarantine` with `latency` — the rounds since the proof
    /// — as its info; then its task is re-proved honestly on its shard
    /// alone (`Heal`). Returns the rejected servers with the checker's
    /// verdict.
    pub fn audit(
        &mut self,
        u: &UnionQuery,
        proofs: &mut [Proof],
        latency: usize,
        vclock: f64,
    ) -> Vec<(usize, Rejection)> {
        let mut detected = Vec::new();
        for (s, (shard, proof)) in self.shards.iter().zip(proofs).enumerate() {
            let Err(rejection) = check_answer(u, shard, &proof.0, &proof.1) else {
                continue;
            };
            self.record(FaultEventKind::Detect, s, snapshot(shard).short(), vclock);
            if !std::mem::replace(&mut self.quarantined[s], true) {
                self.record(FaultEventKind::Quarantine, s, latency as u64, vclock);
            }
            *proof = prove_ucq(s, u, shard, self.strategy);
            self.record(FaultEventKind::Heal, s, shard.len() as u64, vclock);
            detected.push((s, rejection));
        }
        detected
    }

    fn record(&self, kind: FaultEventKind, node: usize, info: u64, vclock: f64) {
        let event = FaultEvent {
            vclock,
            kind,
            node,
            info,
        };
        self.trace.record(TraceEvent::Fault(event));
    }
}

/// What one verify-then-commit round did: which servers were tampered
/// with, which were detected (with the checker's rejection), which tasks
/// were healed, and the certificate bill.
#[derive(Debug, Clone)]
pub struct VerifiedRound {
    /// Index of this verified computation round (counts verified rounds,
    /// not communication rounds).
    pub round: usize,
    /// Cluster-level snapshot id of the input shards the round is bound
    /// to.
    pub input_root: SnapshotId,
    /// Servers whose output the fault plan's corruptions tampered with.
    pub corrupted: Vec<usize>,
    /// Servers whose certificate failed, with the checker's verdict.
    pub detected: Vec<(usize, Rejection)>,
    /// Servers whose task was re-executed honestly before commit.
    pub healed: Vec<usize>,
    /// Total serialized certificate bytes across servers this round.
    pub cert_bytes: usize,
}

impl VerifiedRound {
    /// Did every certificate check out on the first try?
    pub fn clean(&self) -> bool {
        self.detected.is_empty()
    }
}

impl Cluster {
    /// The next verified computation round over the servers' current
    /// states: prove under the installed plan's corruptions, then commit
    /// every answer.
    ///
    /// With `audit`, this is **verify-then-commit**: every proof is
    /// checked before the commit (detection latency 0), and the committed
    /// state is byte-identical to a fault-free `compute_query` run.
    /// Without it, the round commits blindly, exactly as `compute_query`
    /// would — the fault matrix's regression witness that corruption
    /// without verification is UNSOUND: the committed union silently
    /// diverges from the fault-free answer, and `detected` stays empty.
    pub fn compute_union_verified(
        &mut self,
        u: &UnionQuery,
        strategy: EvalStrategy,
        audit: bool,
    ) -> VerifiedRound {
        let round = self.verified_rounds;
        self.verified_rounds += 1;
        let (vclock, trace) = (self.tail_time(), self.trace().clone());
        let shards: Vec<Instance> = (0..self.p()).map(|s| self.local(s)).collect();
        let mut verifier = Verifier {
            shards: &shards,
            strategy,
            quarantined: &mut self.quarantined,
            trace: &trace,
        };
        let (mut proofs, corrupted) = verifier.prove(round, u, &self.faults, vclock);
        let cert_bytes = proofs.iter().map(|(_, cert)| cert.size_bytes()).sum();
        let detected = if audit {
            verifier.audit(u, &mut proofs, 0, vclock)
        } else {
            Vec::new()
        };
        for (s, (answer, _)) in proofs.into_iter().enumerate() {
            self.local[s] = Shard::from_facts(answer.iter());
        }
        let snapshots: Vec<SnapshotId> = shards.iter().map(snapshot).collect();
        VerifiedRound {
            round,
            input_root: parlog_verify::cluster_root(&snapshots),
            corrupted,
            healed: detected.iter().map(|&(s, _)| s).collect(),
            detected,
            cert_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_faults::CorruptKind;
    use parlog_relal::eval::eval_query_with;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;
    use parlog_relal::query::ConjunctiveQuery;
    use parlog_trace::MemSink;
    use std::sync::Arc;

    fn seeded(p: usize) -> Cluster {
        seeded_with(p, FaultPlan::none(1))
    }

    /// `p` servers holding the R/S chain, under `plan`.
    fn seeded_with(p: usize, plan: FaultPlan) -> Cluster {
        let mut c = Cluster::new(p).with_faults(plan);
        for s in 0..p as u64 {
            let held = (s..12).step_by(p);
            c.place(
                s as usize,
                held.flat_map(|i| [fact("R", &[i, i + 1]), fact("S", &[i + 1, i + 2])]),
            );
        }
        c
    }

    /// One verified round of `q`.
    fn verify(c: &mut Cluster, q: &ConjunctiveQuery) -> VerifiedRound {
        c.compute_union_verified(
            &UnionQuery::new(vec![q.clone()]),
            EvalStrategy::Indexed,
            true,
        )
    }

    #[test]
    fn clean_round_commits_the_faultfree_answer() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let mut c = seeded(3);
        let expected: Vec<Instance> = (0..3)
            .map(|s| eval_query_with(&q, &c.local(s), EvalStrategy::Indexed))
            .collect();
        let out = verify(&mut c, &q);
        assert!(out.clean());
        assert!(out.corrupted.is_empty());
        assert!(out.cert_bytes > 0);
        for (s, want) in expected.iter().enumerate() {
            assert_eq!(&c.local(s), want);
        }
        assert_eq!(c.quarantined_count(), 0);
    }

    #[test]
    fn corrupted_server_is_detected_quarantined_and_healed() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let mut honest = seeded(3);
        verify(&mut honest, &q);
        let truth = honest.union_all();

        for kind in CorruptKind::ALL {
            let mut c = seeded_with(3, FaultPlan::none(7).with_corruption(0, 1, kind));
            let out = verify(&mut c, &q);
            assert_eq!(out.corrupted, vec![1], "{kind:?}");
            assert_eq!(out.detected.len(), 1, "{kind:?} not detected");
            assert_eq!(out.detected[0].0, 1);
            assert_eq!(out.healed, vec![1]);
            assert!(c.quarantined()[1]);
            assert_eq!(c.union_all(), truth, "{kind:?}: heal must restore truth");
        }
    }

    #[test]
    fn unverified_path_commits_the_corruption() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let u = UnionQuery::new(vec![q.clone()]);
        let mut honest = seeded(3);
        verify(&mut honest, &q);
        let truth = honest.union_all();

        let plan = FaultPlan::none(7).with_corruption(0, 1, CorruptKind::Inject);
        let mut c = seeded_with(3, plan);
        let blind = c.compute_union_verified(&u, EvalStrategy::Indexed, false);
        assert_eq!(blind.corrupted, vec![1]);
        assert!(blind.detected.is_empty(), "no audit, no detection");
        assert_ne!(
            c.union_all(),
            truth,
            "blind commit must silently diverge (the UNSOUND witness)"
        );
        assert_eq!(c.quarantined_count(), 0, "nothing detects it");
    }

    #[test]
    fn timeline_shows_corrupt_detect_quarantine_heal_in_order() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let sink = Arc::new(MemSink::new());
        let plan = FaultPlan::none(7).with_corruption(0, 2, CorruptKind::Mutate);
        let mut c = seeded_with(3, plan).with_trace(parlog_trace::TraceHandle::to(sink.clone()));
        verify(&mut c, &q);
        let timeline = sink.timeline();
        let pos = |k: FaultEventKind| timeline.iter().position(|e| e.kind == k);
        let (co, de, qu, he) = (
            pos(FaultEventKind::Corrupt).expect("Corrupt on timeline"),
            pos(FaultEventKind::Detect).expect("Detect on timeline"),
            pos(FaultEventKind::Quarantine).expect("Quarantine on timeline"),
            pos(FaultEventKind::Heal).expect("Heal on timeline"),
        );
        assert!(co < de && de < qu && qu < he, "order: {timeline:?}");
        assert!(timeline
            .iter()
            .all(|e| { e.kind != FaultEventKind::Detect || e.node == 2 }));
    }

    #[test]
    fn quarantined_server_is_immune_to_further_corruption() {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        // Corrupt server 1 in rounds 0 and 1; after round 0 it is
        // quarantined, so round 1's event finds no untrusted prover to
        // subvert.
        let plan = FaultPlan::none(7)
            .with_corruption(0, 1, CorruptKind::Inject)
            .with_corruption(1, 1, CorruptKind::Inject);
        let mut c = seeded_with(3, plan);
        let r0 = verify(&mut c, &q);
        assert_eq!(r0.detected.len(), 1);
        let r1 = verify(&mut c, &q);
        assert!(r1.corrupted.is_empty(), "quarantine blocks the adversary");
        assert!(r1.clean());
    }

    #[test]
    fn verified_round_timeline_is_pinned() {
        // One reshuffle first, so the round's events carry the cluster's
        // virtual clock, then a verified round in which server 1 lies.
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let sink = Arc::new(MemSink::new());
        let plan = FaultPlan::none(7).with_corruption(0, 1, CorruptKind::Inject);
        let mut c = seeded_with(3, plan).with_trace(parlog_trace::TraceHandle::to(sink.clone()));
        c.communicate(|f| vec![(f.args[0].0 % 3) as usize]);
        verify(&mut c, &q);
        let timeline: Vec<_> = sink
            .timeline()
            .iter()
            .map(|e| (e.kind, e.node, e.info, e.vclock))
            .collect();
        assert_eq!(
            timeline,
            vec![
                (FaultEventKind::Corrupt, 1, 8581286081765471666, 8.0),
                (FaultEventKind::Detect, 1, 14933403456673746961, 8.0),
                (FaultEventKind::Quarantine, 1, 0, 8.0),
                (FaultEventKind::Heal, 1, 8, 8.0),
            ]
        );
    }
}
