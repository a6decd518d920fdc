//! The checkpointed verified-rounds driver: Byzantine auditing on a
//! cadence, with rollback + replay healing and measured
//! rounds-to-quarantine latency.
//!
//! [`parlog_mpc::verified`] verifies *every* computation round before it
//! commits — zero detection latency, full per-round checker cost. A
//! deployment may not want to pay the checker on every round. This
//! driver explores the trade with that module's one prove-and-audit
//! routine, [`Verifier`]: every round is proved and committed **blind**
//! (the fast path, answers and certificates parked in the round store),
//! and every [`VerifyPolicy::verify_every`] rounds an **audit** runs the
//! trusted checker over everything committed since the last audit. The
//! quarantine's `info` is the *detection latency in rounds* (audit round
//! minus corruption round), and the heal rolls the tainted round back by
//! re-proving the quarantined server's task honestly on its shard alone.
//! The final answer store is therefore byte-identical to a fault-free
//! run, at a latency cost the e23 experiment measures against the
//! cadence.

use parlog_faults::FaultPlan;
use parlog_mpc::verified::{Proof, Verifier};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::instance::Instance;
use parlog_relal::query::UnionQuery;
use parlog_trace::TraceHandle;

/// How often the trusted checker audits the committed rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyPolicy {
    /// Audit every `verify_every` rounds (1 = verify-then-commit on
    /// every round, zero detection latency; larger values amortize the
    /// checker at the price of latency). The final round always audits,
    /// so no corruption outlives the run.
    pub verify_every: usize,
}

impl VerifyPolicy {
    /// Audit on every round: the zero-latency policy.
    pub fn every_round() -> VerifyPolicy {
        VerifyPolicy { verify_every: 1 }
    }
}

/// One detected Byzantine corruption: where it happened, when the audit
/// caught it, and the gap between the two.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ByzantineDetection {
    /// The lying server.
    pub server: usize,
    /// Round whose committed answer was corrupt.
    pub corrupted_round: usize,
    /// Round at whose audit the checker rejected the certificate.
    pub detected_round: usize,
    /// `detected_round − corrupted_round`: the rounds-to-quarantine
    /// latency the verify cadence buys or costs.
    pub latency: usize,
}

/// What a verified multi-round run did.
#[derive(Debug, Clone)]
pub struct VerifiedRunReport {
    /// Rounds executed (one query per round).
    pub rounds: usize,
    /// Audits the policy triggered.
    pub audits: usize,
    /// Every corruption the checker caught, with its latency.
    pub detections: Vec<ByzantineDetection>,
    /// Servers quarantined by the end of the run.
    pub quarantined: Vec<usize>,
    /// Per-round cluster-wide answers (union over servers), after all
    /// rollback + replay heals — equal to the fault-free answers.
    pub answers: Vec<Instance>,
    /// Total certificate bytes across all rounds and servers.
    pub cert_bytes: usize,
}

impl VerifiedRunReport {
    /// Worst observed rounds-to-quarantine latency (0 when nothing was
    /// detected).
    pub fn max_latency(&self) -> usize {
        self.detections.iter().map(|d| d.latency).max().unwrap_or(0)
    }
}

/// Run one query per round over fixed input shards, committing blind and
/// auditing on the policy's cadence. `plan`'s corruptions tamper with
/// their `(round, server)` outputs after the honest prover ran —
/// the Byzantine window the audits must close. Monotonicity is not
/// assumed: the checker's verdict is sound for any
/// [`QueryMode`](crate::degrade::QueryMode), since certificates bind
/// answers to snapshots rather than relying on subset closure (this is
/// what lets the verified path cover the non-monotone rows of the fault
/// matrix).
///
/// # Panics
/// Panics if `plan` sets a field besides `corruptions` (and `seed`, their
/// entropy): the rounds run over fixed shards with no communication, so
/// nothing here could enforce a crash, straggler, speculation, partition
/// or per-message fault.
pub fn run_verified_rounds(
    queries: &[UnionQuery],
    shards: &[Instance],
    strategy: EvalStrategy,
    plan: &FaultPlan,
    policy: VerifyPolicy,
    trace: &TraceHandle,
) -> VerifiedRunReport {
    assert!(policy.verify_every >= 1, "audit cadence must be at least 1");
    let unread = [
        ("crashes", !plan.crashes.is_empty()),
        ("stragglers", !plan.stragglers.is_empty()),
        ("speculation", plan.speculation.is_some()),
        ("partition", plan.partition.is_some()),
    ];
    let unread = unread.into_iter().find_map(|(name, on)| on.then_some(name));
    if let Some(field) = plan.transducer_only().or(unread) {
        panic!("verified rounds cannot enforce `{field}`: they read only the plan's corruptions");
    }
    let mut quarantined = vec![false; shards.len()];
    let mut verifier = Verifier {
        shards,
        strategy,
        quarantined: &mut quarantined,
        trace,
    };
    let mut store = Vec::with_capacity(queries.len());
    let mut detections = Vec::new();
    let (mut audits, mut cert_bytes, mut audited_through) = (0, 0, 0);
    for (r, u) in queries.iter().enumerate() {
        let (proofs, _) = verifier.prove(r, u, plan, r as f64);
        cert_bytes += proofs.iter().map(|(_, c)| c.size_bytes()).sum::<usize>();
        store.push(proofs);
        if (r + 1) % policy.verify_every != 0 && r + 1 != queries.len() {
            continue; // blind commit: the fast path between audits
        }
        audits += 1;
        for rr in audited_through..=r {
            let latency = r - rr;
            let detected = verifier.audit(&queries[rr], &mut store[rr], latency, r as f64);
            detections.extend(detected.into_iter().map(|(server, _)| ByzantineDetection {
                server,
                corrupted_round: rr,
                detected_round: r,
                latency,
            }));
        }
        audited_through = r + 1;
    }

    let union =
        |row: &Vec<Proof>| Instance::from_facts(row.iter().flat_map(|p| p.0.iter()).cloned());
    VerifiedRunReport {
        rounds: queries.len(),
        audits,
        detections,
        quarantined: (0..shards.len()).filter(|&s| quarantined[s]).collect(),
        answers: store.iter().map(union).collect(),
        cert_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_faults::CorruptKind;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;
    use parlog_trace::{FaultEventKind, MemSink};
    use std::sync::Arc;

    fn shards(p: usize) -> Vec<Instance> {
        let mut out = vec![Instance::new(); p];
        for i in 0..18u64 {
            out[(i % p as u64) as usize].insert(fact("R", &[i, i + 1]));
            out[(i % p as u64) as usize].insert(fact("S", &[i + 1, i + 2]));
        }
        out
    }

    /// The join `H(x,z) <- R(x,y), S(y,z)`, once per round.
    fn joins(rounds: usize) -> Vec<UnionQuery> {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        vec![UnionQuery::new(vec![q]); rounds]
    }

    #[test]
    fn fault_free_run_detects_nothing() {
        let sh = shards(3);
        let rep = run_verified_rounds(
            &joins(4),
            &sh,
            EvalStrategy::Indexed,
            &FaultPlan::none(3),
            VerifyPolicy { verify_every: 2 },
            &TraceHandle::off(),
        );
        assert_eq!(rep.rounds, 4);
        assert_eq!(rep.audits, 2);
        assert!(rep.detections.is_empty());
        assert!(rep.quarantined.is_empty());
        assert!(rep.cert_bytes > 0);
    }

    #[test]
    fn latency_equals_distance_to_the_next_audit() {
        let sh = shards(3);
        for (cadence, expected_latency) in [(1usize, 0usize), (3, 1), (6, 4)] {
            let plan = FaultPlan::none(7).with_corruption(1, 2, CorruptKind::Inject);
            let rep = run_verified_rounds(
                &joins(6),
                &sh,
                EvalStrategy::Indexed,
                &plan,
                VerifyPolicy {
                    verify_every: cadence,
                },
                &TraceHandle::off(),
            );
            assert_eq!(rep.detections.len(), 1, "cadence {cadence}");
            let d = &rep.detections[0];
            assert_eq!((d.server, d.corrupted_round), (2, 1));
            assert_eq!(d.latency, expected_latency, "cadence {cadence}");
            assert_eq!(rep.max_latency(), expected_latency);
            assert_eq!(rep.quarantined, vec![2]);
        }
    }

    #[test]
    fn healed_answers_match_the_faultfree_run() {
        let sh = shards(3);
        let clean = run_verified_rounds(
            &joins(5),
            &sh,
            EvalStrategy::Indexed,
            &FaultPlan::none(9),
            VerifyPolicy::every_round(),
            &TraceHandle::off(),
        );
        for kind in CorruptKind::ALL {
            let plan = FaultPlan::none(9)
                .with_corruption(2, 0, kind)
                .with_corruption(3, 1, kind);
            let rep = run_verified_rounds(
                &joins(5),
                &sh,
                EvalStrategy::Indexed,
                &plan,
                VerifyPolicy { verify_every: 2 },
                &TraceHandle::off(),
            );
            assert_eq!(rep.detections.len(), 2, "{kind:?}");
            assert_eq!(rep.answers, clean.answers, "{kind:?}: heal restores truth");
        }
    }

    #[test]
    #[should_panic(expected = "cannot enforce `crashes`")]
    fn verified_rounds_refuse_what_they_cannot_enforce() {
        let plan = FaultPlan::crash_stop(0, 1, 0).with_corruption(0, 1, CorruptKind::Mutate);
        run_verified_rounds(
            &joins(2),
            &shards(3),
            EvalStrategy::Indexed,
            &plan,
            VerifyPolicy { verify_every: 1 },
            &TraceHandle::off(),
        );
    }

    #[test]
    fn timeline_orders_corrupt_detect_quarantine_heal() {
        let sh = shards(3);
        let sink = Arc::new(MemSink::new());
        let plan = FaultPlan::none(5).with_corruption(0, 1, CorruptKind::Mutate);
        run_verified_rounds(
            &joins(3),
            &sh,
            EvalStrategy::Indexed,
            &plan,
            VerifyPolicy { verify_every: 2 },
            &TraceHandle::to(sink.clone()),
        );
        let tl = sink.timeline();
        let pos = |k| tl.iter().position(|e| e.kind == k).unwrap();
        assert!(pos(FaultEventKind::Corrupt) < pos(FaultEventKind::Detect));
        assert!(pos(FaultEventKind::Detect) < pos(FaultEventKind::Quarantine));
        assert!(pos(FaultEventKind::Quarantine) < pos(FaultEventKind::Heal));
        // Quarantine's info is the measured latency (round 1 audit, round
        // 0 corruption).
        let quarantine = tl
            .iter()
            .find(|e| e.kind == FaultEventKind::Quarantine)
            .unwrap();
        assert_eq!(quarantine.info, 1);
    }

    #[test]
    fn quarantine_blocks_later_corruption_without_reaudit_noise() {
        let sh = shards(2);
        let plan = FaultPlan::none(11)
            .with_corruption(0, 0, CorruptKind::Drop)
            .with_corruption(2, 0, CorruptKind::Inject);
        let rep = run_verified_rounds(
            &joins(4),
            &sh,
            EvalStrategy::Indexed,
            &plan,
            VerifyPolicy::every_round(),
            &TraceHandle::off(),
        );
        // Round 0's drop is caught instantly; round 2's event targets a
        // quarantined server and never fires.
        assert_eq!(rep.detections.len(), 1);
        assert_eq!(rep.quarantined, vec![0]);
    }

    #[test]
    fn audited_timelines_are_pinned() {
        // Server 2 lies in rounds 1 and 2. Audited every round, round 1's
        // lie is caught at once and quarantine blocks round 2's; audited
        // every 4 rounds, both lies are caught at round 3, and only the
        // first detection quarantines.
        let sh = shards(3);
        let plan = FaultPlan::none(7)
            .with_corruption(1, 2, CorruptKind::Inject)
            .with_corruption(2, 2, CorruptKind::Mutate);
        let timeline = |verify_every| {
            let sink = Arc::new(MemSink::new());
            run_verified_rounds(
                &joins(6),
                &sh,
                EvalStrategy::Indexed,
                &plan,
                VerifyPolicy { verify_every },
                &TraceHandle::to(sink.clone()),
            );
            let tl = sink.timeline();
            tl.iter()
                .map(|e| (e.kind, e.node, e.info, e.vclock))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            timeline(1),
            vec![
                (FaultEventKind::Corrupt, 2, 10852044936925069029, 1.0),
                (FaultEventKind::Detect, 2, 14186739794388038327, 1.0),
                (FaultEventKind::Quarantine, 2, 0, 1.0),
                (FaultEventKind::Heal, 2, 12, 1.0),
            ]
        );
        assert_eq!(
            timeline(4),
            vec![
                (FaultEventKind::Corrupt, 2, 10852044936925069029, 1.0),
                (FaultEventKind::Corrupt, 2, 14752297649187954631, 2.0),
                (FaultEventKind::Detect, 2, 14186739794388038327, 3.0),
                (FaultEventKind::Quarantine, 2, 2, 3.0),
                (FaultEventKind::Heal, 2, 12, 3.0),
                (FaultEventKind::Detect, 2, 14186739794388038327, 3.0),
                (FaultEventKind::Heal, 2, 12, 3.0),
            ]
        );
    }
}
