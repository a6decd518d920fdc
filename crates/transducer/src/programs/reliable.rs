//! Reliability under loss, priced on the monotone broadcast: the
//! runtime's acks and retransmissions under a `with_retransmit` plan.

#[cfg(test)]
mod tests {
    use crate::distribution::hash_distribution;
    use crate::faulty::FaultStats;
    use crate::program::Ctx;
    use crate::programs::monotone::MonotoneBroadcast;
    use crate::scheduler::{run, RunCtx, Schedule};
    use parlog_faults::{FaultPlan, RetransmitPolicy};
    use parlog_relal::fact::fact;
    use parlog_relal::instance::Instance;
    use parlog_relal::parser::parse_query;

    fn setup() -> (MonotoneBroadcast, Vec<Instance>, Instance) {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let db = Instance::from_facts((0..24u64).map(|i| fact("E", &[i, i + 1])));
        let expected = parlog_relal::eval::eval_query(&q, &db);
        let shards = hash_distribution(&db, 4, 3);
        (MonotoneBroadcast::new(q), shards, expected)
    }

    /// Run `p` under `plan` with the ack/retransmit protocol of `policy`.
    fn reliable(
        p: &MonotoneBroadcast,
        shards: &[Instance],
        seed: u64,
        plan: &FaultPlan,
        policy: RetransmitPolicy,
    ) -> (Instance, FaultStats) {
        let plan = plan.clone().with_retransmit(policy);
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed)).with_faults(&plan);
        let out = run(p, shards, &rc);
        (out.output, out.stats)
    }

    #[test]
    fn retransmit_restores_completeness_under_loss() {
        let (p, shards, expected) = setup();
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::lossy(seed, 0.4);
            // Without coordination: incomplete (sound but lossy).
            let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed)).with_faults(&plan);
            let bare = run(&p, &shards, &rc);
            assert!(bare.output.is_subset_of(&expected));
            assert!(bare.stats.dropped > 0, "the plan must actually drop");
            assert_eq!(bare.stats.coordination_messages(), 0);
            // With ack/retransmit: exact, at a measurable message cost.
            let (out, stats) = reliable(&p, &shards, seed, &plan, RetransmitPolicy::default());
            assert_eq!(out, expected, "seed {seed}");
            assert!(
                stats.coordination_messages() > 0,
                "reliability is not free: acks/retransmissions must be counted"
            );
            assert!(stats.retransmissions > 0);
        }
    }

    #[test]
    fn zero_loss_reliable_run_pays_only_acks() {
        let (p, shards, expected) = setup();
        let plan = FaultPlan::none(9);
        let (out, stats) = reliable(&p, &shards, 9, &plan, RetransmitPolicy::default());
        assert_eq!(out, expected);
        assert_eq!(stats.retransmissions, 0, "nothing was lost");
        assert!(stats.acks > 0, "every delivery is still acknowledged");
    }

    #[test]
    fn jittered_backoff_keeps_coordination_cost_measured() {
        // Switching retransmission from fixed-interval to
        // capped-exponential-with-jitter must not lose any accounting —
        // every retransmission and ack is still counted, completeness is
        // still restored, and the whole schedule stays deterministic.
        let (p, shards, expected) = setup();
        let policy = RetransmitPolicy {
            max_retries: 10,
            backoff_base: 1,
            backoff_cap: 8,
            jitter_pct: 50,
        };
        let run_once =
            |seed: u64| reliable(&p, &shards, seed, &FaultPlan::lossy(seed, 0.4), policy);
        let (out_a, stats_a) = run_once(2);
        let (out_b, stats_b) = run_once(2);
        assert_eq!(out_a, expected, "jittered retransmit restores completeness");
        assert_eq!(out_a, out_b, "jitter is seeded: identical outputs");
        assert_eq!(stats_a, stats_b, "jitter is seeded: identical reruns");
        assert!(stats_a.retransmissions > 0);
        assert_eq!(
            stats_a.coordination_messages(),
            stats_a.acks + stats_a.retransmissions,
            "coordination cost is exactly acks + retransmissions"
        );
    }

    #[test]
    fn backoff_respects_retry_budget() {
        // A crash-stopped destination can never ack: the sender must give
        // up after max_retries, so retransmissions stay bounded.
        let (p, shards, _expected) = setup();
        let plan = FaultPlan::crash_stop(4, 1, 2);
        let (_, stats) = reliable(&p, &shards, 4, &plan, RetransmitPolicy::fixed(3, 1));
        // Each undeliverable copy retries at most max_retries times.
        assert!(stats.retransmissions <= (stats.lost_in_crash + 1) * 3);
    }
}
