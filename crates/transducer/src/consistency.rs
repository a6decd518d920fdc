//! Eventual-consistency and coordination-freeness checkers.
//!
//! A program computes `Q` when *every* run — for every network size,
//! horizontal distribution and fair schedule — outputs exactly `Q(I)`.
//! [`check_eventual_consistency`] samples that space (seeded schedules ×
//! the standard distribution family × network sizes) and reports every
//! discrepancy; [`check_coordination_free`] tests the existential
//! condition: some (ideal) distribution on which the program produces
//! `Q(I)` without reading a single message.

use crate::distribution::{ideal_distribution, standard_family};
use crate::program::{Ctx, TransducerProgram};
use crate::scheduler::{run, RunCtx, RunMode, Schedule};
use parlog_relal::instance::Instance;

/// The outcome of a consistency sweep.
#[derive(Debug, Clone)]
pub struct ConsistencyReport {
    /// Number of runs executed.
    pub runs: usize,
    /// Human-readable description of each failing configuration.
    pub failures: Vec<String>,
}

impl ConsistencyReport {
    /// Did every run produce the expected output?
    pub fn consistent(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Sweep network sizes × the standard distribution family × schedules and
/// compare every run's output with `expected`. `ctx_of` builds the
/// execution context for a given network size (attach policies here for
/// policy-aware programs — and supply policy-derived distributions via
/// [`check_eventual_consistency_with`] instead when the program's
/// soundness depends on them).
pub fn check_eventual_consistency<P, C>(
    program: &P,
    db: &Instance,
    expected: &Instance,
    network_sizes: &[usize],
    seeds: &[u64],
    ctx_of: C,
) -> ConsistencyReport
where
    P: TransducerProgram + ?Sized,
    C: Fn(usize) -> Ctx,
{
    let mut setups = Vec::new();
    for &n in network_sizes {
        for (dist, shards) in standard_family(db, n, 0x5eed) {
            setups.push((format!("n={n} dist={dist}"), shards, ctx_of(n)));
        }
    }
    check_eventual_consistency_with(program, expected, &setups, seeds)
}

/// Like [`check_eventual_consistency`] but over explicitly provided
/// (name, shards, ctx) setups — for policy-aware programs whose
/// distribution must agree with the policy. Each setup runs under FIFO,
/// LIFO and one seeded-random schedule per seed.
pub fn check_eventual_consistency_with<P>(
    program: &P,
    expected: &Instance,
    setups: &[(String, Vec<Instance>, Ctx)],
    seeds: &[u64],
) -> ConsistencyReport
where
    P: TransducerProgram + ?Sized,
{
    let mut schedules = vec![Schedule::Fifo, Schedule::Lifo];
    schedules.extend(seeds.iter().map(|&s| Schedule::Random(s)));
    let runs = setups.len() * schedules.len();
    let mut report = ConsistencyReport {
        runs,
        failures: Vec::new(),
    };
    for (name, shards, ctx) in setups {
        for &schedule in &schedules {
            let out = run(program, shards, &RunCtx::simulated(ctx.clone(), schedule)).output;
            if out != *expected {
                report.failures.push(format!(
                    "{name} schedule={schedule:?}: got {} facts, expected {}",
                    out.len(),
                    expected.len()
                ));
            }
        }
    }
    report
}

/// Coordination-freeness test: does the ideal (replicate-all)
/// distribution let the program output `expected` without reading any
/// message? (The definition asks for *some* distribution; replicate-all
/// is the canonical witness — see the proofs of Theorems 5.3/5.8/5.12.)
pub fn check_coordination_free<P>(
    program: &P,
    db: &Instance,
    expected: &Instance,
    n: usize,
    ctx: Ctx,
) -> bool
where
    P: TransducerProgram + ?Sized,
{
    let rc = RunCtx::new(ctx, RunMode::HeartbeatsOnly);
    run(program, &ideal_distribution(db, n), &rc).output == *expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::coordinated::CoordinatedBroadcast;
    use crate::programs::monotone::MonotoneBroadcast;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;
    use parlog_relal::policy::ReplicateAll;
    use std::sync::Arc;

    fn db() -> Instance {
        Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
        ])
    }

    #[test]
    fn monotone_broadcast_is_consistent_and_free() {
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let report = check_eventual_consistency(&p, &db(), &expected, &[1, 2, 4], &[0, 1], |_| {
            Ctx::oblivious()
        });
        assert!(report.consistent(), "{:?}", report.failures);
        assert!(report.runs >= 45);
        assert!(check_coordination_free(
            &p,
            &db(),
            &expected,
            3,
            Ctx::oblivious()
        ));
    }

    #[test]
    fn coordinated_broadcast_is_consistent_but_not_free() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = CoordinatedBroadcast::new(q);
        let report =
            check_eventual_consistency(&p, &db(), &expected, &[1, 2, 3], &[0, 1], Ctx::aware);
        assert!(report.consistent(), "{:?}", report.failures);
        // Not coordination-free (for n > 1): the barrier starves without
        // messages.
        assert!(!check_coordination_free(
            &p,
            &db(),
            &expected,
            3,
            Ctx::aware(3)
        ));
    }

    #[test]
    fn detecting_a_broken_program() {
        // The monotone broadcast run on a non-monotone query must fail
        // consistency — the checker's purpose.
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let report =
            check_eventual_consistency(&p, &db(), &expected, &[3], &[0], |_| Ctx::oblivious());
        assert!(!report.consistent());
    }

    #[test]
    fn with_setups_variant() {
        let q = parse_query("H(x) <- E(x,y)").unwrap();
        let expected = parlog_relal::eval::eval_query(&q, &db());
        let p = MonotoneBroadcast::new(q);
        let ctx = Ctx::oblivious().with_policy(Arc::new(ReplicateAll { num_nodes: 2 }));
        let setups = vec![(
            "ideal-2".to_string(),
            crate::distribution::ideal_distribution(&db(), 2),
            ctx,
        )];
        let report = check_eventual_consistency_with(&p, &expected, &setups, &[3]);
        assert!(report.consistent());
        assert_eq!(report.runs, 3);
    }
}
