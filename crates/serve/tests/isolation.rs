//! Snapshot-isolation property tests (PR 10, satellite 3).
//!
//! The serving layer's core promise: a reader pinned to generation `k`
//! answers **byte-identically** no matter how many generations
//! `k+1..k+n` a concurrent writer publishes, under every evaluation
//! strategy and every reader-thread count — and a plan-cache hit is
//! indistinguishable from a cold miss. The same holds on real threads
//! while a live writer refreshes a registered view and a background
//! compactor merges the writer's runs.

use proptest::prelude::*;

use parlog_datalog::program::parse_program;
use parlog_relal::eval::{eval_query_with, EvalStrategy};
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::symbols::rel;
use parlog_serve::harness::seed_instance;
use parlog_serve::{BackgroundCompactor, Request, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const STRATEGIES: [EvalStrategy; 4] = [
    EvalStrategy::Naive,
    EvalStrategy::Indexed,
    EvalStrategy::Wcoj,
    EvalStrategy::Auto,
];

/// Strategy: a small seeded base over R/S/T/E.
fn small_base(max_facts: usize, domain: u64) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0u64..4, 0..domain, 0..domain), 3..max_facts).prop_map(|triples| {
        Instance::from_facts(triples.into_iter().map(|(r, a, b)| {
            let name = ["R", "S", "T", "E"][r as usize];
            fact(name, &[a, b])
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reader pinned at generation k is byte-identical under
    /// concurrent publications k+1..k+n, across all 4 strategies and
    /// 1/2/4 reader threads.
    #[test]
    fn pinned_readers_are_isolated_under_publications(
        base in small_base(18, 6),
        publications in 1usize..6,
        churn in 1u64..5,
    ) {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let q2 = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let server = Server::new(base.clone(), 64);
        let pinned = server.store().pin();
        // Ground truth per strategy, computed before any publication.
        let expected: Vec<Vec<_>> = STRATEGIES
            .iter()
            .map(|s| eval_query_with(&q, &base, *s).sorted_facts())
            .collect();
        let expected2 = eval_query_with(&q2, &base, EvalStrategy::Auto).sorted_facts();

        for threads in [1usize, 2, 4] {
            let survived = AtomicU64::new(0);
            std::thread::scope(|scope| {
                // The concurrent writer: publish n fresh generations
                // while the readers evaluate against the old pin.
                scope.spawn(|| {
                    for g in 0..publications {
                        server.store().mutate(|w| {
                            for c in 0..churn {
                                let v = 100 + (g as u64) * 10 + c;
                                w.insert(fact("R", &[v, v]));
                                w.insert(fact("S", &[v, v]));
                                w.insert(fact("T", &[v, v]));
                            }
                        });
                        server.publish().unwrap();
                    }
                });
                for _ in 0..threads {
                    let pinned = Arc::clone(&pinned);
                    let q = &q;
                    let q2 = &q2;
                    let expected = &expected;
                    let expected2 = &expected2;
                    let survived = &survived;
                    scope.spawn(move || {
                        for (s, want) in STRATEGIES.iter().zip(expected) {
                            let got = eval_query_with(q, pinned.instance(), *s).sorted_facts();
                            assert_eq!(&got, want, "strategy {s:?} drifted on a pinned snapshot");
                        }
                        let got2 =
                            eval_query_with(q2, pinned.instance(), EvalStrategy::Auto).sorted_facts();
                        assert_eq!(&got2, expected2);
                        survived.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            prop_assert_eq!(survived.load(Ordering::Relaxed), threads as u64);
            prop_assert_eq!(pinned.generation(), 0);
        }
        // And a *fresh* pin does see the writer's churn.
        let fresh = server.store().pin();
        prop_assert!(fresh.generation() >= publications as u64);
        prop_assert!(fresh.instance().len() > pinned.instance().len());
    }

    /// A plan-cache hit answers byte-identically to a cold miss, for
    /// every strategy.
    #[test]
    fn plan_cache_hit_equals_cold_miss(
        base in small_base(18, 6),
        strategy_idx in 0usize..4,
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let server = Server::new(base, 64);
        let mut warm = server.session();
        let req = Request::Query(q, strategy);
        let miss = warm.execute(&req).unwrap();
        prop_assert_eq!(miss.plan_hit, Some(false));
        let hit = warm.execute(&req).unwrap();
        prop_assert_eq!(hit.plan_hit, Some(true));
        // A second session replays the cold path against the same
        // generation — its miss must equal the first session's hit.
        let mut cold = server.session();
        let cold_miss = cold.execute(&req).unwrap();
        prop_assert_eq!(cold_miss.plan_hit, Some(false));
        let a = miss.answer.relation().unwrap().sorted_facts();
        let b = hit.answer.relation().unwrap().sorted_facts();
        let c = cold_miss.answer.relation().unwrap().sorted_facts();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
        prop_assert_eq!(hit.generation, cold_miss.generation);
        // Hit and miss also cost the same deterministic work: the plan
        // changes *when* analysis happens, never what executes.
        prop_assert_eq!(hit.ops, cold_miss.ops);
    }
}

/// Reader threads, each pinned to a generation, re-run the triangle
/// audit through their session and must read byte-identically until
/// they re-pin, while a writer thread mutates and publishes a server
/// with a registered TC view (each batch adds a triangle, so every
/// publication moves the audit's answer) and a `BackgroundCompactor`
/// merges the writer's run stacks.
#[test]
fn pinned_readers_hold_under_a_live_writer_view_and_compactor() {
    const READERS: usize = 3;
    const PUBLICATIONS: u64 = 40;
    const NODES: u64 = 48;
    let audit = Request::Query(
        parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap(),
        EvalStrategy::Wcoj,
    );
    let tc = parse_program("TC(x,y) <- E(x,y). TC(x,z) <- E(x,y), TC(y,z).").unwrap();
    let server = Server::new(seed_instance(NODES as usize, 7), 64);
    server.register_view(tc.clone(), EvalStrategy::Auto);
    // Warm tries on the writer grow run stacks at every publication,
    // which the compactor merges.
    for r in ["E", "R", "S", "T"] {
        server.store().warm(rel(r), &[0, 1]);
        server.store().warm(rel(r), &[1, 0]);
    }
    server.publish().unwrap();
    let compactor = BackgroundCompactor::spawn(Arc::clone(server.store()));
    let writer_done = AtomicBool::new(false);

    let answer = |session: &mut parlog_serve::Session<'_>, req: &Request| {
        let resp = session.execute_pinned(req).expect("within capacity");
        assert_eq!(resp.generation, session.pinned().generation());
        resp.answer.relation().expect("a relation").sorted_facts()
    };
    // Every reader pins before the writer's first publication, so its
    // last re-pin is sure to move.
    let sessions: Vec<_> = (0..READERS).map(|_| server.session()).collect();
    let generations_seen: Vec<usize> = std::thread::scope(|scope| {
        scope.spawn(|| {
            for g in 0..PUBLICATIONS {
                server.store().mutate(|w| {
                    let v = 1_000 + 3 * g;
                    w.insert(fact("E", &[NODES + g, NODES + g + 1]));
                    w.insert(fact("R", &[v, v + 1]));
                    w.insert(fact("S", &[v + 1, v + 2]));
                    w.insert(fact("T", &[v + 2, v]));
                    if g >= 2 {
                        let old = 1_000 + 3 * (g - 2);
                        w.remove(&fact("R", &[old, old + 1]));
                    }
                });
                server.publish().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        let readers: Vec<_> = (sessions.into_iter().enumerate())
            .map(|(r, mut session)| {
                let (audit, tc, writer_done) = (&audit, &tc, &writer_done);
                let answer = &answer;
                scope.spawn(move || {
                    let mut baseline = answer(&mut session, audit);
                    let mut generations = vec![session.pinned().generation()];
                    let mut round = 0usize;
                    loop {
                        let done = writer_done.load(Ordering::SeqCst);
                        let program = Request::Program(tc.clone(), EvalStrategy::Auto);
                        session.execute_pinned(&program).expect("within capacity");
                        let now = answer(&mut session, audit);
                        assert_eq!(
                            now,
                            baseline,
                            "reader {r} at generation {} read a moved answer",
                            session.pinned().generation()
                        );
                        round += 1;
                        if round % (r + 2) == 0 && session.refresh_pin() {
                            baseline = answer(&mut session, audit);
                            generations.push(session.pinned().generation());
                        }
                        if done {
                            // A last re-pin after the writer's final
                            // publication.
                            if session.refresh_pin() {
                                generations.push(session.pinned().generation());
                            }
                            return generations.len();
                        }
                    }
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Let the compactor finish one full cycle against the quiescent
    // writer before stopping it.
    let cycles = compactor.cycles();
    while compactor.cycles() < cycles + 2 {
        std::thread::yield_now();
    }
    let stats = compactor.stop();

    assert!(
        generations_seen.iter().all(|&g| g > 1),
        "every reader re-pinned at least once: {generations_seen:?}"
    );
    assert!(stats.installed > 0, "the compactor merged runs: {stats:?}");
    let last = server.session();
    assert!(last.pinned().generation() > PUBLICATIONS);
}
