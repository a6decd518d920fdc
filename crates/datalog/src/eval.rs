//! Bottom-up evaluation of stratified Datalog: naive and semi-naive.
//!
//! Evaluation proceeds stratum by stratum; within a stratum the
//! **semi-naive** strategy re-derives only from the facts that are new
//! since the previous iteration (one "delta" version of each recursive
//! predicate), which is the standard optimization the ablation bench
//! `datalog_ablation` quantifies against the naive fixpoint.

use crate::delta_rule::{Occurrence, Step};
use crate::program::{adom_id, Program, ProgramError};
use parlog_relal::eval::{EvalStrategy, QueryPlan};
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::{fxset, FxSet};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::RelId;

/// Add the built-in `ADom` facts: one per active-domain value of the EDB
/// plus every constant in the program.
pub(crate) fn add_adom(db: &mut Instance, p: &Program) {
    let adom = adom_id();
    let mut values = db.adom_sorted();
    for r in &p.rules {
        values.extend(r.constants());
    }
    values.sort_unstable();
    values.dedup();
    for v in values {
        db.insert(Fact::new(adom, [v]));
    }
}

/// Does `p` read the built-in `ADom` relation? Only such a program pays
/// for it: a pass over the EDB and an insert per value from scratch, and
/// reference counts in a maintained view.
pub(crate) fn reads_adom(p: &Program) -> bool {
    let adom = adom_id();
    (p.rules.iter()).any(|r| r.body.iter().chain(&r.negated).any(|a| a.rel == adom))
}

/// The from-scratch fixpoint of `p` on `edb` by stratified semi-naive
/// evaluation, each stratum's first round under `strategy`: the EDB and
/// every derived IDB fact, the same under every strategy. It reads `edb`
/// and nothing else — a fixpoint maintained across mutations is a
/// [`crate::maintain::MaterializedView`] its owner holds.
pub fn eval_program(
    p: &Program,
    edb: &Instance,
    strategy: EvalStrategy,
) -> Result<Instance, ProgramError> {
    let mut db = fixpoint(p, edb, strategy, reads_adom(p))?;
    db.drop_relation(adom_id());
    Ok(db)
}

/// The from-scratch fixpoint under the name the benchmark harness calls
/// it by: [`eval_program`].
pub use self::eval_program as eval_program_scratch;

/// The stratified semi-naive fixpoint, `ADom` helper facts included when
/// `with_adom` (when the program [`reads_adom`]). A stratum's first round
/// is one [`QueryPlan`] over its rules under `strategy`. Every later
/// round runs the facts the one before found through the Δ-rule
/// ([`Step`]) of each recursive body occurrence — compiled once per
/// stratum, bound once per round — over `db` beside `fresh`, the facts
/// the stratum has found so far. `db` is written once per stratum, with
/// those facts in derivation order.
pub(crate) fn fixpoint(
    p: &Program,
    edb: &Instance,
    strategy: EvalStrategy,
    with_adom: bool,
) -> Result<Instance, ProgramError> {
    let strat = p.stratify()?;
    let mut db = edb.clone();
    if with_adom {
        add_adom(&mut db, p);
    }
    for stratum in &strat.rule_strata {
        let rules: Vec<ConjunctiveQuery> = stratum.iter().map(|&i| p.rules[i].clone()).collect();
        let first = QueryPlan::new(&rules, strategy).map_err(ProgramError::UnsafeRule)?;
        let heads: FxSet<RelId> = rules.iter().map(|r| r.head.rel).collect();
        let occurrences: Vec<Occurrence> = (rules.iter())
            .flat_map(|r| r.body.iter().enumerate().map(move |(j, a)| (r, j, a)))
            .filter(|(_, _, a)| heads.contains(&a.rel))
            .map(|(r, j, a)| Occurrence::new(r, a, Some(j), &heads))
            .collect();

        // A round's heads join `fresh` only after the round, which is
        // fixpoint-safe: a derivation that would have used a same-round
        // fact fires in the next round, from that fact.
        let (mut fresh, mut derived) = (Instance::new(), Vec::new());
        let mut pending = fxset();
        let mut delta = Vec::new();
        first.run(&db, &mut |h| {
            if !db.contains(&h) && pending.insert(h.clone()) {
                delta.push(h);
            }
        });
        while !delta.is_empty() {
            fresh.insert_all(&delta, |_| {});
            pending.clear();
            let mut next = Vec::new();
            let layers = [&db, &fresh];
            let mut step = Step::new(&occurrences, true, &layers);
            for f in &delta {
                step.run(f, &mut |o, vals| {
                    let h = o.ground(vals);
                    if !db.contains(&h) && !fresh.contains(&h) && pending.insert(h.clone()) {
                        next.push(h);
                    }
                });
            }
            #[cfg(test)]
            tests::ROUNDS.with(|c| c.set(c.get() + 1));
            derived.append(&mut delta);
            delta = next;
        }
        #[cfg(test)]
        tests::TRIE_BUILDS.with(|c| c.set(c.get() + fresh.trie_builds()));
        db.insert_all(&derived, |_| {});
    }
    #[cfg(test)]
    tests::TRIE_BUILDS.with(|c| c.set(c.get() + db.trie_builds()));
    Ok(db)
}

/// Naive evaluation: iterate all rules of each stratum over the full
/// database until nothing new is derived. Semantically identical to
/// [`eval_program`]; kept as the reference implementation and ablation
/// baseline.
pub fn eval_program_naive(p: &Program, edb: &Instance) -> Result<Instance, ProgramError> {
    let strat = p.stratify()?;
    let mut db = edb.clone();
    add_adom(&mut db, p);
    for stratum in &strat.rule_strata {
        let rules: Vec<ConjunctiveQuery> = stratum.iter().map(|&i| p.rules[i].clone()).collect();
        let plan =
            QueryPlan::new(&rules, EvalStrategy::Indexed).map_err(ProgramError::UnsafeRule)?;
        loop {
            let mut derived: Vec<Fact> = Vec::new();
            plan.run(&db, &mut |f| derived.push(f));
            let mut changed = false;
            for f in derived {
                if db.insert(f) {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    db.drop_relation(adom_id());
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{parse_program, ADOM};
    use parlog_relal::fact::fact;

    use parlog_relal::opcount;
    use parlog_relal::symbols::rel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Δ rounds run by this thread's fixpoints.
        pub(super) static ROUNDS: Cell<u64> = const { Cell::new(0) };
        /// Full trie builds of this thread's fixpoints' working copies.
        pub(super) static TRIE_BUILDS: Cell<u64> = const { Cell::new(0) };
    }

    fn chain(n: u64) -> Instance {
        Instance::from_facts((0..n).map(|i| fact("E", &[i, i + 1])))
    }

    /// The textbook semi-naive loop, kept as the model: every round
    /// renames the round's Δ into `Δ{r}` relations, copies `db` with Δ
    /// added, and runs one compiled variant per recursive body atom — the
    /// atom renamed to its Δ — on the copy, under `strategy`. `ADom`
    /// stays, as in `fixpoint(.., true)`.
    fn rebuild_per_round_model(p: &Program, edb: &Instance, strategy: EvalStrategy) -> Instance {
        let strat = p.stratify().unwrap();
        let mut db = edb.clone();
        add_adom(&mut db, p);
        let compile =
            |q: &ConjunctiveQuery| QueryPlan::new(std::slice::from_ref(q), strategy).unwrap();
        let new_facts = |plans: &[QueryPlan], on: &Instance, db: &Instance| {
            let mut pending = fxset();
            let mut out = Vec::new();
            for plan in plans {
                plan.run(on, &mut |f| {
                    if !db.contains(&f) && pending.insert(f.clone()) {
                        out.push(f);
                    }
                });
            }
            out
        };
        for stratum in &strat.rule_strata {
            let rules: Vec<&ConjunctiveQuery> = stratum.iter().map(|&i| &p.rules[i]).collect();
            let recursive: Vec<RelId> = rules.iter().map(|r| r.head.rel).collect();
            let delta_of = |r: RelId| rel(&format!("Δ{r}"));
            let mut variants: Vec<ConjunctiveQuery> = Vec::new();
            for r in &rules {
                for (j, atom) in r.body.iter().enumerate() {
                    if recursive.contains(&atom.rel) {
                        let mut variant = (*r).clone();
                        variant.body[j].rel = delta_of(atom.rel);
                        variants.push(variant);
                    }
                }
            }
            let initial: Vec<QueryPlan> = rules.iter().map(|r| compile(r)).collect();
            let mut delta = new_facts(&initial, &db, &db);
            db.insert_all(&delta, |_| {});
            while !delta.is_empty() {
                let renamed: Vec<Fact> = (delta.iter())
                    .map(|f| Fact::new(delta_of(f.rel), f.args.clone()))
                    .collect();
                let mut with_delta = db.clone();
                with_delta.insert_all(&renamed, |_| {});
                let rewrites: Vec<QueryPlan> = variants.iter().map(compile).collect();
                let next = new_facts(&rewrites, &with_delta, &db);
                db.insert_all(&next, |_| {});
                delta = next;
            }
        }
        db
    }

    const STRATEGIES: [EvalStrategy; 4] = [
        EvalStrategy::Naive,
        EvalStrategy::Indexed,
        EvalStrategy::Wcoj,
        EvalStrategy::Auto,
    ];

    /// Run `f` with zeroed counters; return its result and the evaluator
    /// steps it made.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        opcount::reset();
        let out = f();
        (out, opcount::read())
    }

    /// The fixpoint against the model under every strategy, with and
    /// without the `ADom` facts. The model runs each Δ round under the
    /// strategy, the fixpoint through leapfrog occurrence plans, so only
    /// the fixpoints are compared.
    fn assert_matches_model(p: &Program, edb: &Instance) {
        for s in STRATEGIES {
            let model = rebuild_per_round_model(p, edb, s);
            let kept = fixpoint(p, edb, s, true).unwrap();
            assert_eq!(kept, model, "{s:?} fixpoint with ADom\n{p:?}");
            let scratch = eval_program_scratch(p, edb, s).unwrap();
            let mut stripped = model;
            stripped.drop_relation(adom_id());
            assert_eq!(scratch, stripped, "{s:?} scratch fixpoint\n{p:?}");
        }
    }

    /// A random safe, stratified program as text, over EDB `E/2`, `S/2`,
    /// `V/1` and three IDB levels (`P`,`Q` | `T`,`U` | `W`). A predicate's
    /// first rule reads only lower levels; later ones may read its own
    /// level (linear, quadratic and mutual recursion, self-joins), `ADom`,
    /// constants; negation reads strictly lower levels.
    fn random_program(rng: &mut StdRng) -> String {
        const LEVELS: [&[(&str, usize)]; 4] = [
            &[("E", 2), ("S", 2), ("V", 1)],
            &[("P", 2), ("Q", 2)],
            &[("T", 2), ("U", 1)],
            &[("W", 2)],
        ];
        const VARS: [&str; 4] = ["x", "y", "z", "w"];
        let term = |rng: &mut StdRng, pool: &[&str]| -> String {
            if pool.is_empty() || rng.gen_range(0..8) == 0 {
                rng.gen_range(0..5u64).to_string()
            } else {
                pool[rng.gen_range(0..pool.len())].to_string()
            }
        };
        let atom = |rng: &mut StdRng, preds: &[(&str, usize)], pool: &[&str]| -> String {
            let (name, arity) = preds[rng.gen_range(0..preds.len())];
            let terms: Vec<String> = (0..arity).map(|_| term(rng, pool)).collect();
            format!("{name}({})", terms.join(","))
        };
        let mut rules: Vec<String> = Vec::new();
        for level in 1..LEVELS.len() {
            for &head in LEVELS[level] {
                for k in 0..rng.gen_range(1..4) {
                    let readable = if k == 0 { level } else { level + 1 };
                    let mut sources: Vec<(&str, usize)> = LEVELS[..readable]
                        .iter()
                        .flat_map(|l| l.iter().copied())
                        .collect();
                    sources.push((ADOM, 1));
                    let mut body: Vec<String> = (0..rng.gen_range(1..4))
                        .map(|_| atom(rng, &sources, &VARS))
                        .collect();
                    if k > 0 {
                        // A later rule is recursive through its own level.
                        body[0] = atom(rng, LEVELS[level], &VARS);
                    }
                    let bound: Vec<&str> = VARS
                        .iter()
                        .copied()
                        .filter(|v| body.iter().any(|a| a.contains(v)))
                        .collect();
                    let lower: Vec<(&str, usize)> = LEVELS[..level]
                        .iter()
                        .flat_map(|l| l.iter().copied())
                        .collect();
                    if rng.gen_range(0..3) == 0 {
                        let negated = atom(rng, &lower, &bound);
                        body.push(format!("not {negated}"));
                    }
                    if bound.len() >= 2 && rng.gen_range(0..3) == 0 {
                        body.push(format!("{} != {}", bound[0], term(rng, &bound[1..])));
                    }
                    // Head terms start at a random bound variable, so heads
                    // are not all diagonal.
                    let mut head_pool = bound.clone();
                    head_pool.rotate_left(rng.gen_range(0..bound.len().max(1)));
                    let head_terms: Vec<String> = (0..head.1)
                        .map(|i| term(rng, &head_pool[i.min(head_pool.len())..]))
                        .collect();
                    rules.push(format!(
                        "{}({}) <- {}",
                        head.0,
                        head_terms.join(","),
                        body.join(", ")
                    ));
                }
            }
        }
        // A cyclic body beside the acyclic ones of its stratum: `Auto`
        // resolves this rule to `Wcoj` and its neighbours to `Indexed`.
        if rng.gen_range(0..2) == 0 {
            rules.push("P(x,y) <- E(x,y), P(y,z), Q(z,x)".to_string());
        }
        rules.join("\n")
    }

    fn random_edb(rng: &mut StdRng) -> Instance {
        let mut facts = Vec::new();
        for (name, arity, most) in [("E", 2, 10), ("S", 2, 6), ("V", 1, 4)] {
            for _ in 0..rng.gen_range(0..=most) {
                let args: Vec<u64> = (0..arity).map(|_| rng.gen_range(0..5)).collect();
                facts.push(fact(name, &args));
            }
        }
        Instance::from_facts(facts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn appending_loop_matches_the_rebuild_per_round_model(seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = parse_program(&random_program(&mut rng)).unwrap();
            assert_matches_model(&p, &random_edb(&mut rng));
        }
    }

    #[test]
    fn appending_loop_matches_the_model_on_named_shapes() {
        let mut cyclic = chain(7);
        cyclic.insert(fact("E", &[7, 2]));
        cyclic.insert(fact("V", &[3]));
        for src in [
            // Linear, quadratic and mutual recursion.
            "TC(x,y) <- E(x,y)\nTC(x,y) <- E(x,z), TC(z,y)",
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)",
            "A(x) <- V(x)\nA(y) <- B(x), E(x,y)\nB(y) <- A(x), E(x,y)",
            // Stratified negation over `ADom`, inequalities, constants.
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)\n\
             OUT(x,y) <- ADom(x), ADom(y), not TC(x,y), x != y",
            "R(x) <- E(0,x)\nR(y) <- R(x), E(x,y), y != 4",
            // Self-join with a repeated variable; a cyclic rule (`Wcoj`
            // under `Auto`) sharing a stratum with acyclic ones.
            "P(x,z) <- E(x,y), E(y,z), E(x,x)\nP(x,z) <- P(x,y), P(y,z)",
            "P(x,y) <- E(x,y)\nP(x,y) <- P(x,z), E(z,y)\nP(x,y) <- E(x,y), P(y,z), P(z,x)",
        ] {
            assert_matches_model(&parse_program(src).unwrap(), &cyclic);
        }
    }

    /// Clock-free guard against per-round rebuilding coming back: a Δ
    /// round binds each recursive occurrence at most once, and the
    /// working copies' trie builds do not grow with the input — the
    /// database's tries are built once and the found facts' tries advance
    /// by one run a round.
    #[test]
    fn a_fixpoint_binds_each_delta_occurrence_once_per_round() {
        use crate::delta_rule::BINDS;
        let reach = parse_program("R(x) <- E(0,x)\nR(y) <- R(x), E(x,y)").unwrap();
        let tc = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        for (p, n, occurrences) in [(&reach, 200, 1), (&tc, 48, 2)] {
            let mut builds = Vec::new();
            for n in [n, 2 * n] {
                BINDS.with(|c| c.set(0));
                ROUNDS.with(|c| c.set(0));
                TRIE_BUILDS.with(|c| c.set(0));
                eval_program_scratch(p, &chain(n), EvalStrategy::Indexed).unwrap();
                let (binds, rounds) = (BINDS.with(Cell::get), ROUNDS.with(Cell::get));
                assert!(
                    binds <= occurrences * rounds,
                    "{binds} binds in {rounds} rounds"
                );
                builds.push(TRIE_BUILDS.with(Cell::get));
            }
            assert_eq!(builds[0], builds[1], "trie builds at n and 2n");
        }
    }

    /// A scratch fixpoint of a program that never reads `ADom` neither
    /// inserts nor leaves an `ADom` fact, and under every strategy the
    /// working copy is written the derived facts only: its delta log and
    /// its epoch grow by one per derived fact, none for a Δ helper.
    #[test]
    fn scratch_fixpoint_without_adom_never_materialises_it() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- E(x,z), TC(z,y)").unwrap();
        let edb = chain(10);
        for s in STRATEGIES {
            let out = eval_program_scratch(&p, &edb, s).unwrap();
            assert_eq!(out.relation_len(adom_id()), 0, "{s:?}");
            assert_eq!(out.relation_len(rel("TC")), 55, "{s:?}");
            assert_eq!(out.delta_log_len() - edb.delta_log_len(), 55, "{s:?}");
            assert_eq!(out.epoch() - edb.epoch(), 55, "{s:?}");
        }
        // A program that reads `ADom` still gets it, and still strips it.
        let reads = parse_program("N(x,y) <- ADom(x), ADom(y), not E(x,y)").unwrap();
        let out = eval_program_scratch(&reads, &edb, EvalStrategy::Indexed).unwrap();
        assert_eq!(out.relation_len(adom_id()), 0);
        assert_eq!(out.relation_len(rel("N")), 11 * 11 - 10);
        // The maintained state keeps it.
        let kept = fixpoint(&p, &edb, EvalStrategy::Indexed, true).unwrap();
        assert_eq!(kept.relation_len(adom_id()), 11);
    }

    /// `Naive` picks the naive engine for each stratum's first round,
    /// which counts no evaluator step; the Δ rounds run the same
    /// occurrence plans under every strategy, so `Naive` costs exactly
    /// what `Indexed` costs beyond its first round.
    #[test]
    fn naive_fixpoints_run_the_naive_engine() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let mut db = chain(5);
        db.insert(fact("E", &[5, 2]));
        let (naive, naive_ops) = counted(|| eval_program_scratch(&p, &db, EvalStrategy::Naive));
        let (indexed, indexed_ops) =
            counted(|| eval_program_scratch(&p, &db, EvalStrategy::Indexed));
        let first = QueryPlan::new(&p.rules, EvalStrategy::Indexed).unwrap();
        let (_, first_ops) = counted(|| first.eval(&db));
        assert_eq!(naive.unwrap(), indexed.unwrap());
        assert!(first_ops > 0);
        assert_eq!(naive_ops, indexed_ops - first_ops);
        // A program without recursion is its first round.
        let flat = parse_program("P(x,z) <- E(x,y), E(y,z)").unwrap();
        assert_eq!(
            counted(|| eval_program_scratch(&flat, &db, EvalStrategy::Naive)).1,
            0
        );
    }

    #[test]
    fn transitive_closure() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let out = eval_program(&p, &chain(5), EvalStrategy::Indexed).unwrap();
        // 5+4+3+2+1 = 15 TC facts.
        assert_eq!(out.relation_len(rel("TC")), 15);
        assert!(out.contains(&fact("TC", &[0, 5])));
        assert!(!out.contains(&fact("TC", &[5, 0])));
    }

    #[test]
    fn linear_vs_quadratic_tc_agree() {
        let quad = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let lin = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- E(x,z), TC(z,y)").unwrap();
        let db = {
            let mut d = chain(4);
            d.insert(fact("E", &[2, 0])); // add a cycle
            d
        };
        assert_eq!(
            eval_program(&quad, &db, EvalStrategy::Indexed).unwrap(),
            eval_program(&lin, &db, EvalStrategy::Indexed).unwrap()
        );
    }

    #[test]
    fn semi_naive_matches_naive() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), E(z,y)
             Reach(x) <- TC(0, x)",
        )
        .unwrap();
        let mut db = chain(6);
        db.insert(fact("E", &[6, 2]));
        assert_eq!(
            eval_program(&p, &db, EvalStrategy::Indexed).unwrap(),
            eval_program_naive(&p, &db).unwrap()
        );
    }

    /// Example 5.13: the complement of transitive closure, a
    /// semi-connected stratified program.
    #[test]
    fn complement_of_tc() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             OUT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let out = eval_program(&p, &chain(2), EvalStrategy::Indexed).unwrap();
        // Domain {0,1,2}: 9 pairs, TC = {(0,1),(1,2),(0,2)} → 6 remain.
        assert_eq!(out.relation(rel("OUT")).count(), 6);
        assert!(out.contains(&fact("OUT", &[2, 0])));
        assert!(out.contains(&fact("OUT", &[0, 0])));
        assert!(!out.contains(&fact("OUT", &[0, 2])));
    }

    #[test]
    fn stratified_negation_chain() {
        let p = parse_program(
            "A(x) <- V(x), E(x, x)
             B(x) <- V(x), not A(x)
             C(x) <- V(x), not B(x)",
        )
        .unwrap();
        let db = Instance::from_facts([fact("V", &[1]), fact("V", &[2]), fact("E", &[1, 1])]);
        let out = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        assert!(out.contains(&fact("A", &[1])));
        assert!(out.contains(&fact("B", &[2])));
        assert!(out.contains(&fact("C", &[1])));
        assert!(!out.contains(&fact("C", &[2])));
    }

    #[test]
    fn inequalities_in_rules() {
        let p = parse_program("NEQ(x,y) <- ADom(x), ADom(y), x != y").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2])]);
        let out = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        assert_eq!(out.relation(rel("NEQ")).count(), 2); // (1,2) and (2,1)
    }

    #[test]
    fn empty_edb() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let out = eval_program(&p, &Instance::new(), EvalStrategy::Indexed).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn result_contains_edb() {
        let p = parse_program("T(x) <- E(x, y)").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2])]);
        let out = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        assert!(out.contains(&fact("E", &[1, 2])));
        assert!(out.contains(&fact("T", &[1])));
        // Helper relations are cleaned up.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn mutual_recursion() {
        let p = parse_program(
            "Even(x) <- Zero(x)
             Even(y) <- Odd(x), Succ(x, y)
             Odd(y) <- Even(x), Succ(x, y)",
        )
        .unwrap();
        let mut db = Instance::from_facts([fact("Zero", &[0])]);
        for i in 0..6u64 {
            db.insert(fact("Succ", &[i, i + 1]));
        }
        let out = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        assert!(out.contains(&fact("Even", &[4])));
        assert!(out.contains(&fact("Odd", &[5])));
        assert!(!out.contains(&fact("Even", &[5])));
    }

    #[test]
    fn strategies_agree_on_transitive_closure() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let mut db = chain(6);
        db.insert(fact("E", &[6, 2])); // cycle
        let reference = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        for s in [
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            assert_eq!(eval_program(&p, &db, s).unwrap(), reference, "{s:?}");
        }
        assert_eq!(eval_program_naive(&p, &db).unwrap(), reference);
    }

    #[test]
    fn strategies_agree_on_self_join_rule() {
        // Self-joins were a latent-bug site for the shared index (PR 3);
        // pin the Wcoj path on them too, including a repeated variable.
        let p = parse_program(
            "P(x,z) <- E(x,y), E(y,z), E(x,x)
             P(x,z) <- P(x,y), P(y,z)",
        )
        .unwrap();
        let db = Instance::from_facts([
            fact("E", &[1, 1]),
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 3]),
            fact("E", &[3, 1]),
        ]);
        let reference = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        for s in [EvalStrategy::Wcoj, EvalStrategy::Auto] {
            assert_eq!(eval_program(&p, &db, s).unwrap(), reference, "{s:?}");
        }
    }

    #[test]
    fn strategies_agree_under_stratified_negation() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             OUT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let db = chain(3);
        let reference = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        for s in [EvalStrategy::Wcoj, EvalStrategy::Auto] {
            assert_eq!(eval_program(&p, &db, s).unwrap(), reference, "{s:?}");
        }
    }

    #[test]
    fn same_generation() {
        let p = parse_program(
            "SG(x,y) <- Flat(x,y)
             SG(x,y) <- Up(x,a), SG(a,b), Down(b,y)",
        )
        .unwrap();
        let db = Instance::from_facts([
            fact("Flat", &[10, 20]),
            fact("Up", &[1, 10]),
            fact("Up", &[2, 10]),
            fact("Down", &[20, 5]),
        ]);
        let out = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        assert!(out.contains(&fact("SG", &[1, 5])));
        assert!(out.contains(&fact("SG", &[2, 5])));
    }
}
