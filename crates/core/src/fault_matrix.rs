//! The fault-tolerance matrix: what Figure 2 looks like *under chaos*.
//!
//! Section 5's model states that "messages can be arbitrarily delayed but
//! are never lost" and that nodes never fail. The matrix makes those
//! assumptions injectable and machine-checks each cell: for every
//! coordination-free strategy class (F0 / F1 / F2) and the explicitly
//! coordinating barrier program, and for every [`FaultClass`], it runs the
//! representative program under seeded fault plans and compares the union
//! of outputs against the centralized answer `Q(I)`:
//!
//! * [`Verdict::Consistent`] — every seeded run produced exactly `Q(I)`:
//!   the fault is absorbed.
//! * [`Verdict::SoundOnly`] — no run ever output a fact outside `Q(I)`,
//!   but at least one run was incomplete: the fault breaks *eventual
//!   consistency* while soundness survives.
//! * [`Verdict::Fails`] — some run output a fact not in `Q(I)`: the fault
//!   breaks the program outright.
//!
//! The within-model faults (reorder, duplicate, delay) are exactly the
//! adversities the asynchronous model already quantifies over, so the
//! CALM strategies must stay [`Verdict::Consistent`] there — that is the
//! machine-checked content of coordination-freeness. Loss and crashes
//! step *outside* the model; the matrix shows they cost the CALM classes
//! completeness at worst, never soundness. The barrier-based coordinated
//! program, by contrast, *fails outright* under duplication: a duplicated
//! message can be the one that brings a sender's count up to its
//! end-of-data total while a distinct fact is still in flight, so the
//! barrier opens on incomplete data and the non-monotone query outputs
//! facts not in `Q(I)`. Counting messages is exactly the kind of
//! coordination the model's faults can subvert; set-based monotone state
//! cannot be.
//!
//! The matrix also carries the *repaired* barrier ("coord-seq"):
//! sequence-numbered idempotent delivery dedups redelivered facts at the
//! receiver before they reach the count, flipping the duplicate cell back
//! to [`Verdict::Consistent`]. The unfixed program stays in the matrix as
//! the regression witness.
//!
//! PR 7 adds the **partition** fault class. A *healing* split is within
//! the model — messages crossing the cut are held at their sources and
//! flushed on heal, i.e. "arbitrarily delayed but never lost" — so every
//! CALM class must (and does) absorb it: the sweep's partition column is
//! Consistent for F0–F2. A *permanent* split steps outside the model,
//! and three dedicated rows machine-check what coordination does there:
//! "coord-perm" (the counting barrier waits forever for end-of-data
//! counts held behind the cut — [`Verdict::Deadlock`], the transducer
//! regression witness), "mpc-part-unguarded" (the all-ack MPC
//! coordination barrier deadlocks the same way), and "mpc-part-quorum"
//! (the strict-majority gate of [`parlog_mpc::quorum`] commits on the
//! majority side with a sound partial answer, blocks on the minority,
//! and converges exactly once a healing split flushes — Consistent).
//!
//! PR 6 widens the threat model beyond omission: the **corrupt** fault
//! class injects Byzantine (wrong-answer) behavior — in-flight payload
//! tampering on the transducer substrate, per-server output tampering on
//! the MPC cluster. No omission-tolerant discipline survives it: every
//! unverified row Fails under corrupt. Two MPC rows carry the remedy:
//! "mpc-unverified" (blind commit — the machine-checked UNSOUND
//! regression witness) and "mpc-verified" (the verify-then-commit round
//! mode of `parlog_mpc::verified`, which detects the lying server via
//! its failed snapshot-bound certificate, quarantines it and heals —
//! [`Verdict::Consistent`] again).

use parlog_faults::{CorruptKind, FaultClass, FaultPlan, PartitionPlan};
use parlog_mpc::cluster::Cluster;
use parlog_mpc::quorum::{coordination_barrier, BarrierOutcome};
use parlog_relal::eval::eval_query;
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::policy::{DomainGuidedPolicy, HashPolicy};
use parlog_transducer::distribution::{hash_distribution, policy_distribution};
use parlog_transducer::network::QueryFunction;
use parlog_transducer::prelude::{
    CoordinatedBroadcast, DisjointComponent, MonotoneBroadcast, PolicyAwareCq,
};
use parlog_transducer::program::{Ctx, TransducerProgram};
use parlog_transducer::scheduler::{run, RunCtx, RunOutcome, Schedule};
use std::fmt;
use std::sync::Arc;

/// The seeds every cell is checked under.
pub const MATRIX_SEEDS: [u64; 3] = [1, 2, 3];

/// The machine-checked outcome of one (program class, fault class) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Verdict {
    /// Every seeded run produced exactly `Q(I)`.
    Consistent,
    /// All outputs stayed within `Q(I)`, but some run was incomplete.
    SoundOnly,
    /// Some run produced a fact outside `Q(I)`.
    Fails,
    /// Every seeded run *blocked*: the program waited on messages that a
    /// permanent partition holds forever, quiescing with no answer at
    /// all. Distinct from [`Verdict::SoundOnly`] (which still answers)
    /// and from [`Verdict::Fails`] (which answers wrongly) — the classic
    /// fate of an unguarded coordination barrier under a split.
    Deadlock,
}

impl Verdict {
    /// The verdict over a cell's seeded runs: `Fails` if any run was
    /// `unsound`, else `Consistent` if every run was `exact`, else
    /// `SoundOnly`.
    pub fn of(unsound: bool, exact: bool) -> Verdict {
        match (unsound, exact) {
            (true, _) => Verdict::Fails,
            (false, true) => Verdict::Consistent,
            (false, false) => Verdict::SoundOnly,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Consistent => "consistent",
            Verdict::SoundOnly => "sound-only",
            Verdict::Fails => "FAILS",
            Verdict::Deadlock => "DEADLOCK",
        })
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultMatrixRow {
    /// Program name (the representative strategy of the class).
    pub program: String,
    /// Transducer class: "F0", "F1", "F2", "coord" for the counting
    /// barrier, or "coord-seq" for the sequence-numbered fixed barrier.
    pub class: &'static str,
    /// The injected fault class.
    pub fault: &'static str,
    /// Whether the fault is within the survey's asynchronous model.
    pub within_model: bool,
    /// The verdict over all seeds in [`MATRIX_SEEDS`].
    pub verdict: Verdict,
}

/// The full matrix.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultMatrix {
    /// One row per (program, fault class) pair.
    pub rows: Vec<FaultMatrixRow>,
}

impl FaultMatrix {
    /// Look up a cell by class label and fault name.
    pub fn cell(&self, class: &str, fault: &str) -> Option<&FaultMatrixRow> {
        self.rows
            .iter()
            .find(|r| r.class == class && r.fault == fault)
    }
}

impl fmt::Display for FaultMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:<6} {:<14} {:<13} verdict",
            "program", "class", "fault", "within-model"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<24} {:<6} {:<14} {:<13} {}",
                r.program,
                r.class,
                r.fault,
                if r.within_model { "yes" } else { "no" },
                r.verdict
            )?;
        }
        Ok(())
    }
}

/// The MPC rows' input cluster: `R(i, i+1)` and `S(i+1, i+2)` for
/// `i < 12`, round-robin over `p` servers.
fn seed_cluster(p: usize) -> Cluster {
    let mut c = Cluster::new(p);
    for s in 0..p {
        let held = (s as u64..12).step_by(p);
        c.place(
            s,
            held.flat_map(|i| [fact("R", &[i, i + 1]), fact("S", &[i + 1, i + 2])]),
        );
    }
    c
}

/// Run one program under every fault class and aggregate per-seed
/// outcomes into verdicts.
fn verdicts_for<P: TransducerProgram + ?Sized>(
    program: &P,
    label: &'static str,
    shards: &[Instance],
    ctx: &Ctx,
    expected: &Instance,
    seeds: &[u64],
    rows: &mut Vec<FaultMatrixRow>,
) {
    for class in FaultClass::ALL {
        let seeded = |&seed: &u64| {
            let plan = FaultPlan::for_class(class, seed);
            let rc = RunCtx::simulated(ctx.clone(), Schedule::Random(seed));
            run(program, shards, &rc.with_faults(&plan)).output
        };
        rows.push(FaultMatrixRow {
            program: program.name().to_string(),
            class: label,
            fault: class.name(),
            within_model: class.within_model(),
            verdict: verdict_over(&seeds.iter().map(seeded).collect::<Vec<_>>(), expected),
        });
    }
}

/// The verdict over a cell's seeded outputs, each checked against
/// `expected`.
fn verdict_over(outs: &[Instance], expected: &Instance) -> Verdict {
    let unsound = outs.iter().any(|out| !out.is_subset_of(expected));
    Verdict::of(unsound, outs.iter().all(|out| out == expected))
}

/// Recompute the whole matrix over the survey's representative programs
/// (seeds fixed to [`MATRIX_SEEDS`]).
pub fn fault_matrix() -> FaultMatrix {
    fault_matrix_with_seeds(&MATRIX_SEEDS)
}

/// [`fault_matrix`] under caller-chosen seeds.
pub fn fault_matrix_with_seeds(seeds: &[u64]) -> FaultMatrix {
    let mut rows = Vec::new();

    // F0 — monotone broadcast on the path query, hash-distributed.
    {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts(
            (0..12u64).flat_map(|i| [fact("E", &[i, (i + 1) % 12]), fact("E", &[(i * 5) % 12, i])]),
        );
        let expected = eval_query(&q, &db);
        let shards = hash_distribution(&db, 4, 9);
        let p = MonotoneBroadcast::new(q);
        verdicts_for(
            &p,
            "F0",
            &shards,
            &Ctx::oblivious(),
            &expected,
            seeds,
            &mut rows,
        );
    }

    // F1 — policy-aware CQ¬ (open triangles) under a hash policy.
    {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let db = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
            fact("E", &[4, 6]),
        ]);
        let expected = eval_query(&q, &db);
        let policy = Arc::new(HashPolicy::new(3, 11));
        let shards = policy_distribution(&db, policy.as_ref());
        let ctx = Ctx::oblivious().with_policy(policy);
        let p = PolicyAwareCq::new(q);
        verdicts_for(&p, "F1", &shards, &ctx, &expected, seeds, &mut rows);
    }

    // F2 — domain-guided component algorithm on ¬TC.
    {
        let prog = parlog_datalog::program::parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             NTC(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let q = crate::figure2::datalog_query(prog, "NTC");
        let db =
            Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[10, 11])]);
        let expected = q.eval(&db);
        let policy = Arc::new(DomainGuidedPolicy::new(3, 13));
        let shards = policy_distribution(&db, policy.as_ref());
        let ctx = Ctx::oblivious().with_policy(policy);
        let p = DisjointComponent::new(q);
        verdicts_for(&p, "F2", &shards, &ctx, &expected, seeds, &mut rows);
    }

    // The explicitly coordinating barrier program (outside F0–F2).
    {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let db = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
        ]);
        let expected = eval_query(&q, &db);
        let shards = hash_distribution(&db, 3, 2);
        let p = CoordinatedBroadcast::new(q.clone());
        verdicts_for(
            &p,
            "coord",
            &shards,
            &Ctx::aware(3),
            &expected,
            seeds,
            &mut rows,
        );

        // The *fixed* barrier (PR 2): sequence-numbered idempotent
        // delivery dedups redelivered facts before they reach the
        // counting barrier, so duplication can no longer open the
        // barrier early. Same query, same shards — only the delivery
        // ledger differs, and the duplicate cell flips to consistent.
        let p = CoordinatedBroadcast::idempotent(q);
        verdicts_for(
            &p,
            "coord-seq",
            &shards,
            &Ctx::aware(3),
            &expected,
            seeds,
            &mut rows,
        );
    }

    // Byzantine corruption on the MPC substrate. Two rows, same seeded
    // corruption plans (one lying server per seed, kinds rotating over
    // mutate/inject/drop):
    //
    // * "mpc-unverified" — the blind-commit path. The lying server's
    //   tuples land in the committed union unchecked, so the verdict is
    //   Fails — the machine-checked UNSOUND regression witness, kept for
    //   the same reason the unfixed "coord" barrier row is.
    // * "mpc-verified" — the verify-then-commit path. Every certificate
    //   is checked before commit; the corrupted server is detected,
    //   quarantined and healed, so the committed union equals the
    //   fault-free answer on every seed: Consistent.
    {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let p = 3usize;
        let expected = {
            let mut c = seed_cluster(p);
            c.compute_query(&q, EvalStrategy::Indexed);
            c.union_all()
        };
        let u = parlog_relal::query::UnionQuery::new(vec![q.clone()]);
        let (mut blind, mut verified) = (Vec::new(), Vec::new());
        for (i, &seed) in seeds.iter().enumerate() {
            let kind = CorruptKind::ALL[i % CorruptKind::ALL.len()];
            let plan = FaultPlan::none(seed).with_corruption(0, (seed as usize) % p, kind);
            let mut c = seed_cluster(p).with_faults(plan.clone());
            c.compute_union_verified(&u, EvalStrategy::Indexed, false);
            blind.push(c.union_all());
            let mut c = seed_cluster(p).with_faults(plan);
            let round = c.compute_union_verified(&u, EvalStrategy::Indexed, true);
            debug_assert_eq!(round.detected.len(), round.corrupted.len());
            verified.push(c.union_all());
        }
        rows.push(FaultMatrixRow {
            program: "blind-commit cluster compute".to_string(),
            class: "mpc-unverified",
            fault: FaultClass::Corrupt.name(),
            within_model: FaultClass::Corrupt.within_model(),
            verdict: verdict_over(&blind, &expected),
        });
        rows.push(FaultMatrixRow {
            program: "verify-then-commit cluster compute".to_string(),
            class: "mpc-verified",
            fault: FaultClass::Corrupt.name(),
            within_model: FaultClass::Corrupt.within_model(),
            verdict: verdict_over(&verified, &expected),
        });
    }

    // Permanent partitions — outside the model ("never lost" is violated
    // when the heal never comes). Three dedicated rows:
    //
    // * "coord-perm" — the transducer counting barrier under a permanent
    //   split. End-of-data counts crossing the cut are held forever, no
    //   node's barrier ever opens, and the run quiesces with an *empty*
    //   output: Deadlock, the transducer-side regression witness.
    // * "mpc-part-unguarded" — the all-ack MPC coordination barrier:
    //   the minority's acks are held behind the severed link, so the
    //   gate can never be met — Deadlock.
    // * "mpc-part-quorum" — the strict-majority gate: a majority-side
    //   coordinator commits with the acks it can reach and the computed
    //   answer stays a sound subset; a minority-side coordinator blocks
    //   (no divergence); and under a *healing* split the held traffic
    //   flushes and the committed answer converges exactly — Consistent.
    {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let db = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
        ]);
        let shards = hash_distribution(&db, 3, 2);
        let prog = CoordinatedBroadcast::new(q);
        let mut all_deadlocked = true;
        for &seed in seeds {
            let plan = FaultPlan::partitioned(
                seed,
                PartitionPlan::permanent_split(0, &[(seed as usize) % 3]),
            );
            let rc = RunCtx::simulated(Ctx::aware(3), Schedule::Random(seed));
            let RunOutcome {
                output: out, stats, ..
            } = run(&prog, &shards, &rc.with_faults(&plan));
            if !(out.is_empty() && stats.partitioned > 0) {
                all_deadlocked = false;
            }
        }
        rows.push(FaultMatrixRow {
            program: "coordinated broadcast (permanent split)".to_string(),
            class: "coord-perm",
            fault: FaultClass::Partition.name(),
            within_model: false,
            verdict: if all_deadlocked {
                Verdict::Deadlock
            } else {
                Verdict::Fails
            },
        });
    }
    {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let p = 3usize;
        let expected = {
            let mut c = seed_cluster(p);
            c.compute_query(&q, EvalStrategy::Indexed);
            c.union_all()
        };
        let mut unguarded_deadlocks = true;
        let mut quorum_consistent = true;
        for &seed in seeds {
            let minority = (seed as usize) % p;
            let coordinator = (minority + 1) % p;
            let perm =
                || FaultPlan::partitioned(seed, PartitionPlan::permanent_split(0, &[minority]));
            // The unguarded all-ack gate can never be met: the minority's
            // ack is held behind the severed link.
            let mut c = seed_cluster(p).with_faults(perm());
            if !matches!(
                coordination_barrier(&mut c, coordinator, false, 6),
                BarrierOutcome::Deadlocked { .. }
            ) {
                unguarded_deadlocks = false;
            }
            // Quorum gate, majority coordinator: commits, and the answer
            // computed under the open split stays a sound subset.
            let mut c = seed_cluster(p).with_faults(perm());
            if !coordination_barrier(&mut c, coordinator, true, 6).committed() {
                quorum_consistent = false;
            }
            c.compute_query(&q, EvalStrategy::Indexed);
            if !c.union_all().is_subset_of(&expected) {
                quorum_consistent = false;
            }
            // Quorum gate, minority coordinator: must block, not commit —
            // two sides can never both open the barrier.
            let mut c = seed_cluster(p).with_faults(perm());
            if !matches!(
                coordination_barrier(&mut c, minority, true, 6),
                BarrierOutcome::QuorumLost { .. }
            ) {
                quorum_consistent = false;
            }
            // Healing split: the held traffic flushes, the barrier
            // commits after the heal, and the answer converges exactly.
            let mut c = seed_cluster(p).with_faults(FaultPlan::partitioned(
                seed,
                PartitionPlan::split(0, 2, &[minority]),
            ));
            if !coordination_barrier(&mut c, minority, true, 8).committed() {
                quorum_consistent = false;
            }
            c.compute_query(&q, EvalStrategy::Indexed);
            if c.union_all() != expected {
                quorum_consistent = false;
            }
        }
        rows.push(FaultMatrixRow {
            program: "all-ack coordination barrier".to_string(),
            class: "mpc-part-unguarded",
            fault: FaultClass::Partition.name(),
            within_model: false,
            verdict: if unguarded_deadlocks {
                Verdict::Deadlock
            } else {
                Verdict::Fails
            },
        });
        rows.push(FaultMatrixRow {
            program: "quorum-gated coordination barrier".to_string(),
            class: "mpc-part-quorum",
            fault: FaultClass::Partition.name(),
            within_model: false,
            verdict: if quorum_consistent {
                Verdict::Consistent
            } else {
                Verdict::Fails
            },
        });
    }

    FaultMatrix { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FaultMatrix {
        fault_matrix()
    }

    #[test]
    fn f0_is_consistent_under_every_within_model_fault() {
        // The acceptance claim of coordination-freeness under chaos:
        // reorder, duplicate and delay are absorbed by F0 on all seeds.
        let m = matrix();
        for fault in ["reorder", "duplicate", "delay"] {
            assert_eq!(
                m.cell("F0", fault).unwrap().verdict,
                Verdict::Consistent,
                "F0 under {fault}"
            );
        }
    }

    #[test]
    fn oblivious_classes_absorb_within_model_faults() {
        // F1 and F2 are set-based too: the within-model faults cost them
        // nothing. (This is where the barrier program differs — see
        // below.)
        let m = matrix();
        for class in ["F1", "F2"] {
            for fault in ["reorder", "duplicate", "delay"] {
                assert_eq!(
                    m.cell(class, fault).unwrap().verdict,
                    Verdict::Consistent,
                    "{class} under {fault}"
                );
            }
        }
    }

    #[test]
    fn loss_and_crash_stop_break_completeness_never_soundness() {
        // Outside the model, runs may stall incomplete — but dropped
        // messages and dead nodes never make any program invent a fact.
        let m = matrix();
        for r in m
            .rows
            .iter()
            .filter(|r| r.fault == "loss" || r.fault == "crash-stop")
        {
            assert_ne!(r.verdict, Verdict::Fails, "{} under {}", r.class, r.fault);
        }
        for fault in ["loss", "crash-stop"] {
            assert_eq!(
                m.cell("F0", fault).unwrap().verdict,
                Verdict::SoundOnly,
                "F0 under {fault} must lose completeness"
            );
        }
    }

    #[test]
    fn calm_classes_never_fail_under_any_fault() {
        // The CALM-under-chaos claim: across every *omission* fault class
        // — including the ones outside the model — the coordination-free
        // strategies degrade to sound-but-incomplete at worst. Byzantine
        // corruption is excluded: a lying substrate defeats any
        // coordination discipline, which is exactly why the verified
        // path exists (see the corrupt-row tests below).
        let m = matrix();
        for r in m
            .rows
            .iter()
            .filter(|r| r.class != "coord" && r.fault != "corrupt")
        {
            assert_ne!(r.verdict, Verdict::Fails, "{} under {}", r.class, r.fault);
        }
    }

    #[test]
    fn unverified_corruption_is_unsound_and_verification_restores_consistency() {
        // The tentpole claim in two rows. Blind commit of a Byzantine
        // server's output silently poisons the union — the UNSOUND
        // regression witness, kept deliberately like the unfixed "coord"
        // barrier row. The verify-then-commit path detects the corrupted
        // certificate, quarantines the server and heals its task, so the
        // committed union is exact on every seed.
        let m = matrix();
        assert_eq!(
            m.cell("mpc-unverified", "corrupt").unwrap().verdict,
            Verdict::Fails,
            "blind commit must stay the unsoundness witness"
        );
        assert_eq!(
            m.cell("mpc-verified", "corrupt").unwrap().verdict,
            Verdict::Consistent,
            "verify-then-commit must absorb Byzantine corruption"
        );
    }

    #[test]
    fn corruption_defeats_every_unverified_transducer_class() {
        // In-flight payload tampering makes nodes derive from facts that
        // were never sent: without certificates nothing detects it, and
        // the monotone-set discipline that absorbs every omission fault
        // is helpless — every CALM class is outright unsound under
        // corrupt. The barrier programs broadcast payloads too, but on
        // these seeds tampering perturbs the *count* bookkeeping first,
        // so the barrier stalls on incomplete data instead of inventing
        // facts: degraded, just not provably unsound here. Either way,
        // no transducer row absorbs corruption — the matrix-level
        // motivation for proof-carrying answers.
        let m = matrix();
        for class in ["F0", "F1", "F2"] {
            assert_eq!(
                m.cell(class, "corrupt").unwrap().verdict,
                Verdict::Fails,
                "{class} under corrupt"
            );
        }
        for class in ["coord", "coord-seq"] {
            assert_ne!(
                m.cell(class, "corrupt").unwrap().verdict,
                Verdict::Consistent,
                "{class} under corrupt"
            );
        }
        for class in ["F0", "F1", "F2", "coord", "coord-seq"] {
            assert!(!m.cell(class, "corrupt").unwrap().within_model);
        }
    }

    #[test]
    fn crash_recover_is_absorbed_by_replicating_broadcast() {
        // A recovering F0 node re-runs init and rebroadcasts its shard;
        // the surviving nodes re-derive the full answer, so the union is
        // exact even though the recovered node's own view stays partial.
        let m = matrix();
        assert_eq!(
            m.cell("F0", "crash-recover").unwrap().verdict,
            Verdict::Consistent
        );
    }

    #[test]
    fn coordination_fails_outright_under_duplication() {
        // The barrier counts messages: when a duplicate is the delivery
        // that brings a sender's count to its end-of-data total while a
        // distinct fact is still in flight, the barrier opens on
        // incomplete data and the non-monotone query emits facts outside
        // Q(I). A *within-model* fault — harmless to every CALM class —
        // makes explicit coordination unsound.
        let m = matrix();
        assert_eq!(
            m.cell("coord", "duplicate").unwrap().verdict,
            Verdict::Fails
        );
        // Pure reordering and delay are still fine: counting is
        // order-insensitive, and every message eventually arrives once.
        assert_eq!(
            m.cell("coord", "reorder").unwrap().verdict,
            Verdict::Consistent
        );
        assert_eq!(
            m.cell("coord", "delay").unwrap().verdict,
            Verdict::Consistent
        );
    }

    #[test]
    fn sequence_numbered_barrier_is_sound_under_duplication() {
        // The PR 2 fix: with sequence-numbered idempotent delivery a
        // redelivered fact is discarded at the receiver before it can
        // inflate the barrier count, so the duplicate cell flips from
        // Fails to Consistent. The unfixed program's cell stays Fails
        // above — kept deliberately as the regression witness.
        let m = matrix();
        assert_eq!(
            m.cell("coord-seq", "duplicate").unwrap().verdict,
            Verdict::Consistent,
            "idempotent delivery must absorb duplication"
        );
        assert_eq!(
            m.cell("coord", "duplicate").unwrap().verdict,
            Verdict::Fails,
            "the unfixed barrier stays as the regression witness"
        );
        // The fix costs nothing under the other within-model faults.
        for fault in ["reorder", "delay"] {
            assert_eq!(
                m.cell("coord-seq", fault).unwrap().verdict,
                Verdict::Consistent,
                "coord-seq under {fault}"
            );
        }
    }

    #[test]
    fn matrix_covers_every_cell_and_serializes() {
        let m = matrix();
        // Five transducer programs × every fault class, plus the two
        // MPC corrupt rows (blind-commit UNSOUND witness + verified),
        // plus the three permanent-partition rows (coord-perm,
        // mpc-part-unguarded, mpc-part-quorum).
        assert_eq!(m.rows.len(), 5 * FaultClass::ALL.len() + 2 + 3);
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"verdict\""));
        assert!(json.contains("\"within_model\""));
    }

    #[test]
    fn calm_classes_absorb_healing_partitions() {
        // A healing split is within the model — held-then-flushed is
        // just "arbitrarily delayed" — so coordination-freeness must
        // absorb it outright, like reorder/duplicate/delay.
        let m = matrix();
        for class in ["F0", "F1", "F2"] {
            let cell = m.cell(class, "partition").unwrap();
            assert_eq!(cell.verdict, Verdict::Consistent, "{class} under partition");
            assert!(cell.within_model, "{class}: healing splits are in-model");
        }
    }

    #[test]
    fn permanent_partition_deadlocks_coordination_and_quorum_survives() {
        // The partition tentpole in three rows. The unguarded barriers —
        // transducer counting barrier and MPC all-ack barrier — wait on
        // messages a permanent split holds forever: Deadlock, the
        // machine-checked regression witnesses. The strict-majority gate
        // commits on the majority side, blocks on the minority, and
        // converges exactly once a healing split flushes: Consistent.
        let m = matrix();
        assert_eq!(
            m.cell("coord-perm", "partition").unwrap().verdict,
            Verdict::Deadlock,
            "the counting barrier must deadlock under a permanent split"
        );
        assert_eq!(
            m.cell("mpc-part-unguarded", "partition").unwrap().verdict,
            Verdict::Deadlock,
            "the all-ack barrier must deadlock under a permanent split"
        );
        assert_eq!(
            m.cell("mpc-part-quorum", "partition").unwrap().verdict,
            Verdict::Consistent,
            "the quorum gate must degrade instead of diverging"
        );
        for class in ["coord-perm", "mpc-part-unguarded", "mpc-part-quorum"] {
            assert!(
                !m.cell(class, "partition").unwrap().within_model,
                "{class}: a split that never heals is outside the model"
            );
        }
    }
}
