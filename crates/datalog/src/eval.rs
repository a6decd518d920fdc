//! Bottom-up evaluation of stratified Datalog: naive and semi-naive.
//!
//! Evaluation proceeds stratum by stratum; within a stratum the
//! **semi-naive** strategy re-derives only from the facts that are new
//! since the previous iteration (one "delta" version of each recursive
//! predicate), which is the standard optimization the ablation bench
//! `datalog_ablation` quantifies against the naive fixpoint.

use crate::program::{Program, ProgramError, ADOM};
use parlog_relal::eval::{EvalStrategy, Indexed, QueryPlan};
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::{fxset, FxMap};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::{rel, RelId};

/// Add the built-in `ADom` facts: one per active-domain value of the EDB
/// plus every constant in the program.
fn add_adom(db: &mut Instance, p: &Program) {
    let adom_rel = rel(ADOM);
    let mut values = db.adom_sorted();
    for r in &p.rules {
        values.extend(r.constants());
    }
    values.sort_unstable();
    values.dedup();
    for v in values {
        db.insert(Fact::new(adom_rel, [v]));
    }
}

/// Does `p` read the built-in `ADom` relation? Only such a program pays
/// for it: a pass over the EDB and an insert per value from scratch, and
/// reference counts in a maintained view.
pub(crate) fn reads_adom(p: &Program) -> bool {
    p.predicates().contains(&rel(ADOM))
}

/// Strip the `ADom` helper facts from a result by reading that one
/// relation — never a scan of the whole database.
pub(crate) fn strip_adom(db: &mut Instance) {
    let facts: Vec<Fact> = db.relation(rel(ADOM)).cloned().collect();
    for f in &facts {
        db.remove(f);
    }
}

/// The facts `plans` derive from the union of `layers` that the
/// database — the first layer — does not hold yet, each once, in
/// derivation order. Backtracker plans read `index`, which covers their
/// [`QueryPlan::index_rels`] — the stratum's relations and its Δ
/// relations.
fn new_facts<'p>(
    plans: impl IntoIterator<Item = &'p QueryPlan>,
    layers: &[&Instance],
    index: Option<&Indexed>,
) -> Vec<Fact> {
    let mut pending = fxset();
    let mut out = Vec::new();
    let mut keep = |f: Fact| {
        if !layers[0].contains(&f) && pending.insert(f.clone()) {
            out.push(f);
        }
    };
    for plan in plans {
        plan.run(layers, index, &mut keep);
    }
    out
}

/// Evaluate `p` on `edb` with stratified semi-naive evaluation. The result
/// contains the EDB and all derived IDB facts.
pub fn eval_program(p: &Program, edb: &Instance) -> Result<Instance, ProgramError> {
    eval_program_with(p, edb, EvalStrategy::Indexed)
}

/// [`eval_program`] with an explicit local-join [`EvalStrategy`]: the
/// from-scratch fixpoint. Every rule and every delta rewrite is compiled
/// into a [`QueryPlan`] once per stratum; the Wcoj path evaluates each
/// delta variant with the delta atom's variables as the outermost trie
/// levels. All strategies produce the same fixpoint. It reads `edb` and
/// nothing else: no lock, no view state — a fixpoint maintained across
/// mutations is a [`crate::maintain::MaterializedView`] its owner holds.
pub fn eval_program_with(
    p: &Program,
    edb: &Instance,
    strategy: EvalStrategy,
) -> Result<Instance, ProgramError> {
    let mut db = fixpoint(p, edb, strategy, reads_adom(p))?;
    strip_adom(&mut db);
    Ok(db)
}

/// The from-scratch fixpoint under the name the benchmark harness calls
/// it by: [`eval_program_with`].
pub use self::eval_program_with as eval_program_scratch;

/// The stratified semi-naive fixpoint, `ADom` helper facts included when
/// `with_adom` (when the program [`reads_adom`]). A round
/// costs its delta: the rule plans are compiled and the positional index
/// is built once per stratum, every accepted fact is appended to it, so
/// nothing inside the `while` is proportional to `db`. The only facts
/// written to `db` are the ones the fixpoint accepts: a round's Δ lives
/// in the index for the backtracker and in an overlay beside `db` for the
/// trie and naive engines.
pub(crate) fn fixpoint(
    p: &Program,
    edb: &Instance,
    strategy: EvalStrategy,
    with_adom: bool,
) -> Result<Instance, ProgramError> {
    let strat = p.stratify()?;
    let compile = |q: &ConjunctiveQuery, prefix: &[_]| {
        QueryPlan::new(std::slice::from_ref(q), strategy, prefix).map_err(ProgramError::UnsafeRule)
    };
    let mut db = edb.clone();
    if with_adom {
        add_adom(&mut db, p);
    }

    for stratum in &strat.rule_strata {
        let rules: Vec<&ConjunctiveQuery> = stratum.iter().map(|&i| &p.rules[i]).collect();
        let initial: Vec<QueryPlan> = rules
            .iter()
            .map(|r| compile(r, &[]))
            .collect::<Result<_, _>>()?;
        let mut recursive: Vec<RelId> = rules.iter().map(|r| r.head.rel).collect();
        recursive.sort_unstable();
        recursive.dedup();
        // Interning goes through a global `RwLock` (plus a `format!` per
        // call) — fine at stratum setup, poison in the per-fact renaming
        // loop below. Resolve each recursive relation's delta id once.
        let delta_ids: FxMap<RelId, RelId> = recursive
            .iter()
            .map(|&r| (r, rel(&format!("Δ{r}"))))
            .collect();
        let delta_of = |r: RelId| delta_ids[&r];

        // The delta variants of each rule, compiled once per stratum (one
        // rewrite per recursive body atom), each with its delta atom's
        // variables as the Wcoj outermost levels. The rewrite only
        // renames a body relation, so a variant resolves (acyclicity,
        // `Auto`) exactly like its source rule.
        let mut variants: Vec<QueryPlan> = Vec::new();
        for r in &rules {
            for (j, atom) in r.body.iter().enumerate() {
                if recursive.contains(&atom.rel) {
                    let mut variant = (*r).clone();
                    variant.body[j].rel = delta_of(atom.rel);
                    variants.push(compile(&variant, &variant.body[j].variables())?);
                }
            }
        }

        // Where the stratum's deltas live: backtracker plans read them
        // from one shared index, which covers every relation those plans
        // read, delta relations included; trie and naive plans read them
        // from an overlay beside `db`, built only when such a plan runs.
        let plans = || initial.iter().chain(&variants);
        let overlays = plans().any(QueryPlan::reads_instance);
        let index_rels: Vec<RelId> = plans().flat_map(|p| p.index_rels()).copied().collect();
        let mut index = (!index_rels.is_empty()).then(|| Indexed::build(&db, &index_rels));
        // Accepted facts join `db` and the index only after their pass,
        // which is fixpoint-safe: a derivation that would have used a
        // same-pass fact fires in the next round via that fact's delta,
        // and negation only sees lower strata.
        let accept = |db: &mut Instance, index: &mut Option<Indexed>, facts: &[Fact]| {
            db.insert_all(facts, |_| {});
            if let Some(ix) = index {
                facts.iter().for_each(|f| ix.push(f));
            }
        };

        // Initial round: full evaluation of every rule.
        let mut delta = new_facts(&initial, &[&db], index.as_ref());
        accept(&mut db, &mut index, &delta);

        // Semi-naive iterations.
        while !delta.is_empty() {
            let renamed: Vec<Fact> = delta
                .iter()
                .map(|f| Fact::new(delta_of(f.rel), f.args.clone()))
                .collect();
            if let Some(ix) = &mut index {
                renamed.iter().for_each(|f| ix.push(f));
            }
            let next = match overlays.then(|| Instance::from_facts(renamed)) {
                Some(overlay) => new_facts(&variants, &[&db, &overlay], index.as_ref()),
                None => new_facts(&variants, &[&db], index.as_ref()),
            };
            accept(&mut db, &mut index, &next);
            // No delta outlives its round in the index.
            if let Some(ix) = &mut index {
                recursive.iter().for_each(|&r| ix.clear(delta_of(r)));
            }
            delta = next;
        }
        #[cfg(test)]
        tests::INDEX_WRITES.with(|c| c.set(c.get() + index.map_or(0, |ix| ix.entries_written())));
    }
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
            QueryPlan::new(&rules, EvalStrategy::Indexed, &[]).map_err(ProgramError::UnsafeRule)?;
        loop {
            let mut derived: Vec<Fact> = Vec::new();
            plan.run(&[&db], None, &mut |f| derived.push(f));
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
    strip_adom(&mut db);
    Ok(db)
}

/// Evaluate and project to one predicate's facts.
pub fn eval_predicate(p: &Program, edb: &Instance, pred: &str) -> Result<Instance, ProgramError> {
    let out = eval_program(p, edb)?;
    let target = rel(pred);
    Ok(Instance::from_facts(
        out.relation(target).cloned().collect::<Vec<_>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;
    use parlog_relal::atom::Var;
    use parlog_relal::fact::fact;

    use parlog_relal::opcount;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Positional-index entries written by this thread's fixpoints
        /// (the loop adds each stratum's index, the model each rebuild).
        pub(super) static INDEX_WRITES: Cell<usize> = const { Cell::new(0) };
    }

    fn chain(n: u64) -> Instance {
        Instance::from_facts((0..n).map(|i| fact("E", &[i, i + 1])))
    }

    /// The loop this module used to run, kept as the model: every round
    /// re-indexes every body relation of the stratum from scratch and
    /// re-compiles the delta variants. It gets Δ the way the loop does —
    /// pushed into its per-round index for the backtracker, an overlay
    /// beside `db` for the trie and naive engines — so what it pins is
    /// the per-round re-indexing and re-compiling. `ADom` stays, as in
    /// `fixpoint(.., true)`.
    fn rebuild_per_round_model(p: &Program, edb: &Instance, strategy: EvalStrategy) -> Instance {
        let strat = p.stratify().unwrap();
        let mut db = edb.clone();
        add_adom(&mut db, p);
        for stratum in &strat.rule_strata {
            let rules: Vec<&ConjunctiveQuery> = stratum.iter().map(|&i| &p.rules[i]).collect();
            let mut recursive: Vec<RelId> = rules.iter().map(|r| r.head.rel).collect();
            recursive.sort_unstable();
            recursive.dedup();
            let delta_of = |r: RelId| rel(&format!("Δ{r}"));
            let mut body_rels: Vec<RelId> = rules
                .iter()
                .flat_map(|r| r.body.iter().map(|a| a.rel))
                .chain(recursive.iter().map(|&r| delta_of(r)))
                .collect();
            body_rels.sort_unstable();
            body_rels.dedup();
            let mut variants: Vec<(ConjunctiveQuery, Vec<Var>)> = Vec::new();
            for r in &rules {
                for (j, atom) in r.body.iter().enumerate() {
                    if recursive.contains(&atom.rel) {
                        let mut variant = (*r).clone();
                        variant.body[j].rel = delta_of(atom.rel);
                        let prefix = variant.body[j].variables();
                        variants.push((variant, prefix));
                    }
                }
            }
            let resolved = || rules.iter().map(|r| strategy.resolve(r));
            let needs_index = resolved().any(|s| s == EvalStrategy::Indexed);
            let overlays = resolved().any(|s| s != EvalStrategy::Indexed);
            let compile = |q: &ConjunctiveQuery, prefix: &[Var]| {
                QueryPlan::new(std::slice::from_ref(q), strategy, prefix).unwrap()
            };
            let rebuild = |db: &Instance, delta: &[Fact]| {
                needs_index.then(|| {
                    let mut index = Indexed::build(db, &body_rels);
                    delta.iter().for_each(|f| index.push(f));
                    INDEX_WRITES.with(|c| c.set(c.get() + index.entries_written()));
                    index
                })
            };

            let index = rebuild(&db, &[]);
            let initial: Vec<QueryPlan> = rules.iter().map(|r| compile(r, &[])).collect();
            let mut delta = new_facts(&initial, &[&db], index.as_ref());
            db.insert_all(&delta, |_| {});
            while !delta.is_empty() {
                let renamed: Vec<Fact> = delta
                    .iter()
                    .map(|f| Fact::new(delta_of(f.rel), f.args.clone()))
                    .collect();
                let index = rebuild(&db, &renamed);
                let rewrites: Vec<QueryPlan> = variants
                    .iter()
                    .map(|(v, prefix)| compile(v, prefix))
                    .collect();
                let next = match overlays.then(|| Instance::from_facts(renamed)) {
                    Some(overlay) => new_facts(&rewrites, &[&db, &overlay], index.as_ref()),
                    None => new_facts(&rewrites, &[&db], index.as_ref()),
                };
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

    /// Run `f` with zeroed counters; return its result, the evaluator
    /// steps and the index entries it wrote.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
        opcount::reset();
        INDEX_WRITES.with(|c| c.set(0));
        let out = f();
        (out, opcount::read(), INDEX_WRITES.with(|c| c.get()))
    }

    /// The new loop against the model under every strategy: equal
    /// fixpoints and equal `opcount`, with and without the `ADom` facts.
    fn assert_matches_model(p: &Program, edb: &Instance) {
        for s in STRATEGIES {
            let (model, model_ops, _) = counted(|| rebuild_per_round_model(p, edb, s));
            let (kept, kept_ops, _) = counted(|| fixpoint(p, edb, s, true).unwrap());
            assert_eq!(kept, model, "{s:?} fixpoint with ADom\n{p:?}");
            assert_eq!(kept_ops, model_ops, "{s:?} opcount with ADom\n{p:?}");
            let (scratch, scratch_ops, _) = counted(|| eval_program_scratch(p, edb, s).unwrap());
            let mut stripped = model;
            strip_adom(&mut stripped);
            assert_eq!(scratch, stripped, "{s:?} scratch fixpoint\n{p:?}");
            assert_eq!(scratch_ops, model_ops, "{s:?} scratch opcount\n{p:?}");
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

    /// Clock-free guard against the per-round rebuild coming back: one
    /// fixpoint writes each fact's index entries once as a database row
    /// and once as a delta row, so at most `2 · arity · (|db| + Σ|Δ|)`
    /// where `|db|` is the final size and every derived fact is in exactly
    /// one delta. The model re-indexes the stratum every round.
    #[test]
    fn a_fixpoint_writes_each_index_entry_at_most_twice() {
        let reach = parse_program("R(x) <- E(0,x)\nR(y) <- R(x), E(x,y)").unwrap();
        let tc = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        for (p, edb, arity, model_factor) in [(&reach, chain(200), 2, 50), (&tc, chain(48), 2, 2)] {
            let (out, _, written) =
                counted(|| eval_program_scratch(p, &edb, EvalStrategy::Indexed).unwrap());
            let derived = out.len() - edb.len();
            let bound = 2 * arity * (out.len() + derived);
            assert!(written <= bound, "{written} index entries > {bound}");
            let (_, _, model) = counted(|| rebuild_per_round_model(p, &edb, EvalStrategy::Indexed));
            assert!(
                model > model_factor * written,
                "model {model} vs loop {written}"
            );
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
            assert_eq!(out.relation_len(rel(ADOM)), 0, "{s:?}");
            assert_eq!(out.relation_len(rel("TC")), 55, "{s:?}");
            assert_eq!(out.delta_log_len() - edb.delta_log_len(), 55, "{s:?}");
            assert_eq!(out.epoch() - edb.epoch(), 55, "{s:?}");
        }
        // A program that reads `ADom` still gets it, and still strips it.
        let reads = parse_program("N(x,y) <- ADom(x), ADom(y), not E(x,y)").unwrap();
        let out = eval_program_scratch(&reads, &edb, EvalStrategy::Indexed).unwrap();
        assert_eq!(out.relation_len(rel(ADOM)), 0);
        assert_eq!(out.relation_len(rel("N")), 11 * 11 - 10);
        // The maintained state keeps it.
        let kept = fixpoint(&p, &edb, EvalStrategy::Indexed, true).unwrap();
        assert_eq!(kept.relation_len(rel(ADOM)), 11);
    }

    /// `Naive` compiles every round for the naive engine, which counts
    /// no evaluator step; `Indexed` reaches the same fixpoint through the
    /// backtracker, which does.
    #[test]
    fn naive_fixpoints_run_the_naive_engine() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let mut db = chain(5);
        db.insert(fact("E", &[5, 2]));
        let (naive, naive_ops, _) = counted(|| eval_program_scratch(&p, &db, EvalStrategy::Naive));
        let (indexed, indexed_ops, _) =
            counted(|| eval_program_scratch(&p, &db, EvalStrategy::Indexed));
        assert_eq!(naive.unwrap(), indexed.unwrap());
        assert_eq!(naive_ops, 0);
        assert!(indexed_ops > 0);
    }

    #[test]
    fn transitive_closure() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let out = eval_program(&p, &chain(5)).unwrap();
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
            eval_program(&quad, &db).unwrap(),
            eval_program(&lin, &db).unwrap()
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
            eval_program(&p, &db).unwrap(),
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
        let out = eval_predicate(&p, &chain(2), "OUT").unwrap();
        // Domain {0,1,2}: 9 pairs, TC = {(0,1),(1,2),(0,2)} → 6 remain.
        assert_eq!(out.len(), 6);
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
        let out = eval_program(&p, &db).unwrap();
        assert!(out.contains(&fact("A", &[1])));
        assert!(out.contains(&fact("B", &[2])));
        assert!(out.contains(&fact("C", &[1])));
        assert!(!out.contains(&fact("C", &[2])));
    }

    #[test]
    fn inequalities_in_rules() {
        let p = parse_program("NEQ(x,y) <- ADom(x), ADom(y), x != y").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2])]);
        let out = eval_predicate(&p, &db, "NEQ").unwrap();
        assert_eq!(out.len(), 2); // (1,2) and (2,1)
    }

    #[test]
    fn empty_edb() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let out = eval_program(&p, &Instance::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn result_contains_edb() {
        let p = parse_program("T(x) <- E(x, y)").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2])]);
        let out = eval_program(&p, &db).unwrap();
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
        let out = eval_program(&p, &db).unwrap();
        assert!(out.contains(&fact("Even", &[4])));
        assert!(out.contains(&fact("Odd", &[5])));
        assert!(!out.contains(&fact("Even", &[5])));
    }

    #[test]
    fn strategies_agree_on_transitive_closure() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let mut db = chain(6);
        db.insert(fact("E", &[6, 2])); // cycle
        let reference = eval_program(&p, &db).unwrap();
        for s in [
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            assert_eq!(eval_program_with(&p, &db, s).unwrap(), reference, "{s:?}");
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
        let reference = eval_program(&p, &db).unwrap();
        for s in [EvalStrategy::Wcoj, EvalStrategy::Auto] {
            assert_eq!(eval_program_with(&p, &db, s).unwrap(), reference, "{s:?}");
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
        let reference = eval_program(&p, &db).unwrap();
        for s in [EvalStrategy::Wcoj, EvalStrategy::Auto] {
            assert_eq!(eval_program_with(&p, &db, s).unwrap(), reference, "{s:?}");
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
        let out = eval_program(&p, &db).unwrap();
        assert!(out.contains(&fact("SG", &[1, 5])));
        assert!(out.contains(&fact("SG", &[2, 5])));
    }
}
