//! Property-based tests (proptest) for the workspace's core invariants.

use proptest::prelude::*;

use parlog::mpc::prelude::*;
use parlog::prelude::*;
use parlog::relal::policy::DistributionPolicy;

/// Strategy: a small random instance over binary relations R, S (and E).
fn small_instance(max_facts: usize, domain: u64) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0..3u8, 0..domain, 0..domain), 0..max_facts).prop_map(|triples| {
        Instance::from_facts(triples.into_iter().map(|(r, a, b)| {
            let name = match r {
                0 => "R",
                1 => "S",
                _ => "E",
            };
            parlog::relal::fact::fact(name, &[a, b])
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed evaluator agrees with the naive all-valuations one.
    #[test]
    fn eval_matches_naive(db in small_instance(14, 5)) {
        for src in [
            "H(x,z) <- R(x,y), S(y,z)",
            "H(x) <- R(x,y), E(y,x)",
            "H(x,y) <- R(x,y), R(y,x), x != y",
            "H(x) <- R(x,x), not S(x,x)",
        ] {
            let q = parse_query(src).unwrap();
            prop_assert_eq!(
                eval_query(&q, &db),
                parlog::relal::eval::eval_query_naive(&q, &db)
            );
        }
    }

    /// [Q,P](I) ⊆ Q(I) for plain CQs under any partitioning policy
    /// (monotonicity of CQs: local results are always globally valid).
    #[test]
    fn distributed_result_is_sound(db in small_instance(14, 5), seed in 0u64..100) {
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let policy = parlog::relal::policy::HashPolicy::new(3, seed);
        let dist = parlog::pc::parallel_result(&q, &policy, &db);
        prop_assert!(dist.is_subset_of(&eval_query(&q, &db)));
    }

    /// HyperCube computes every query correctly on random data.
    #[test]
    fn hypercube_is_correct(db in small_instance(20, 6), p in 2usize..20) {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let hc = HypercubeAlgorithm::new(&q, p).unwrap();
        prop_assert_eq!(hc.run(&db).output, eval_query(&q, &db));
    }

    /// The grouped join is correct and its load never exceeds what a
    /// single server would receive (m).
    #[test]
    fn grouped_join_correct_and_bounded(db in small_instance(24, 4), p in 4usize..26) {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let r = GroupedJoin::new(&q, p, 3).run(&db);
        prop_assert_eq!(r.output, eval_query(&q, &db));
        prop_assert!(r.stats.max_load <= db.len());
    }

    /// Semi-naive Datalog equals naive Datalog.
    #[test]
    fn semi_naive_equals_naive(db in small_instance(12, 4)) {
        let p = parlog::datalog::program::parse_program(
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)\nBoth(x,y) <- TC(x,y), R(x,y)",
        ).unwrap();
        prop_assert_eq!(
            parlog::datalog::eval_program(&p, &db, EvalStrategy::Indexed).unwrap(),
            parlog::datalog::eval_program_naive(&p, &db).unwrap()
        );
    }

    /// Components partition the instance and are pairwise domain-disjoint.
    #[test]
    fn components_partition(db in small_instance(16, 6)) {
        let comps = db.components();
        let mut union = Instance::new();
        for c in &comps {
            prop_assert!(!c.is_empty());
            let rest = db.difference(c);
            prop_assert!(rest.is_domain_disjoint_extension(c));
            union.extend_from(c);
        }
        prop_assert_eq!(union, db);
    }

    /// Fractional edge packing and vertex cover have equal value (LP
    /// duality) on random-ish acyclic and cyclic query shapes.
    #[test]
    fn packing_duality(n_atoms in 1usize..5) {
        // Build a chain query with n_atoms atoms.
        let body: Vec<String> = (0..n_atoms)
            .map(|i| format!("R{i}(v{i}, v{})", i + 1))
            .collect();
        let head_vars: Vec<String> = (0..=n_atoms).map(|i| format!("v{i}")).collect();
        let src = format!("H({}) <- {}", head_vars.join(","), body.join(", "));
        let q = parse_query(&src).unwrap();
        let p = parlog::relal::packing::fractional_edge_packing(&q).unwrap();
        let c = parlog::relal::packing::fractional_vertex_cover(&q).unwrap();
        prop_assert!((p.value - c.value).abs() < 1e-6);
        // Chain of n atoms: τ* = ⌈n/2⌉ (matching number of a path).
        prop_assert!((p.value - (n_atoms as f64 / 2.0).ceil()).abs() < 1e-6);
    }

    /// Monotone broadcast computes a monotone query on random instances,
    /// networks and schedules — a randomized slice of Theorem 5.3.
    #[test]
    fn monotone_broadcast_consistent(
        db in small_instance(10, 4),
        n in 1usize..4,
        seed in 0u64..50,
    ) {
        use parlog::transducer::prelude::*;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = eval_query(&q, &db);
        let program = MonotoneBroadcast::new(q);
        let shards = hash_distribution(&db, n, seed);
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed));
        prop_assert_eq!(run(&program, &shards, &rc).output, expected);
    }

    /// Minimal valuations derive the same outputs as all valuations:
    /// Q(I) = {V(head) : V minimal and satisfied on I}.
    #[test]
    fn minimal_valuations_suffice(db in small_instance(10, 4)) {
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let full = eval_query(&q, &db);
        let via_minimal = Instance::from_facts(
            parlog::relal::minimal::minimal_valuations(&q, &db)
                .iter()
                .map(|v| v.derived_fact(&q)),
        );
        prop_assert_eq!(full, via_minimal);
    }

    /// Distributed relational algebra equals centralized evaluation on
    /// random instances and expressions from a small pool.
    #[test]
    fn distributed_ra_matches_centralized(db in small_instance(16, 5), p in 2usize..10) {
        use parlog::relal::algebra::{eval_ra, Condition, RaExpr};
        let exprs = [
            RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![(1, 0)]),
            RaExpr::rel("R", 2).semijoin(RaExpr::rel("S", 2), vec![(1, 0)]),
            RaExpr::rel("R", 2).antijoin(RaExpr::rel("S", 2), vec![(0, 0)]),
            RaExpr::rel("R", 2).difference(RaExpr::rel("S", 2)),
            RaExpr::rel("R", 2)
                .union(RaExpr::rel("S", 2))
                .select(vec![Condition::Neq(0, 1)])
                .project(vec![1, 0]),
        ];
        for (i, e) in exprs.iter().enumerate() {
            let central = eval_ra(e, &db).unwrap();
            let report = parlog::mpc::ra_distributed::DistributedRa::new(p, 3)
                .run(e, &db, "Out")
                .unwrap();
            let got: std::collections::BTreeSet<Vec<parlog::relal::fact::Val>> = report
                .output
                .iter()
                .map(|f| f.args.to_vec())
                .collect();
            let want: std::collections::BTreeSet<Vec<parlog::relal::fact::Val>> =
                central.into_iter().collect();
            prop_assert_eq!(got, want, "expression {}", i);
        }
    }

    /// The MapReduce embedding of the repartition join equals both the
    /// native MPC algorithm and the centralized evaluation.
    #[test]
    fn mapreduce_matches_mpc(db in small_instance(16, 5), p in 2usize..8) {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let expected = eval_query(&q, &db);
        let mr = parlog::mpc::mapreduce::repartition_join_program().run(&db, p, 1);
        prop_assert_eq!(&mr.output, &expected);
        let native = RepartitionJoin::new(&q, p, 1).run(&db);
        prop_assert_eq!(&native.output, &expected);
    }

    /// SharesSkew — the skew engine's one-wave plan — is correct for any
    /// threshold (including ones that make everything heavy or
    /// everything light).
    #[test]
    fn shares_skew_correct_for_any_threshold(
        db in small_instance(20, 4),
        threshold in 1usize..20,
    ) {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let cfg = parlog::mpc::SkewConfig {
            threshold: Some(threshold),
            max_heavy_per_var: 3,
            max_rounds: 1,
            seed: 5,
        };
        let alg = parlog::mpc::SkewAdaptiveJoin::from_stats(&q, &db, 16, cfg);
        prop_assert_eq!(alg.run(&db).output, eval_query(&q, &db));
    }

    /// Scale independence: when a bounded plan exists, bounded evaluation
    /// agrees with the full evaluator.
    #[test]
    fn bounded_eval_matches_full_eval(db in small_instance(14, 4)) {
        use parlog::scale::{bounded_plan, eval_bounded, AccessConstraint, AccessSchema};
        let q = parse_query("H(y, z) <- R(1, y), S(y, z)").unwrap();
        let schema = AccessSchema::new(vec![
            AccessConstraint::new("R", vec![0], 20),
            AccessConstraint::new("S", vec![0], 20),
        ]);
        if let Some(plan) = bounded_plan(&q, &schema) {
            let r = eval_bounded(&q, &db, &plan);
            prop_assert_eq!(r.output, eval_query(&q, &db));
        }
    }

    /// `Shares::optimal` invariants on random conjunctive queries and any
    /// p ∈ {1..64}: product ≤ p, every share ≥ 1, and `servers()` is the
    /// product of the shares.
    #[test]
    fn optimal_shares_invariants(
        atoms in prop::collection::vec((0..3u8, 0..4u8, 0..4u8), 1..4),
        p in 1usize..64,
    ) {
        use parlog::mpc::shares::Shares;
        let body: Vec<String> = atoms
            .iter()
            .map(|&(r, a, b)| {
                let rel = ["R", "S", "T"][r as usize];
                format!("{rel}(v{a}, v{b})")
            })
            .collect();
        let mut head: Vec<String> = atoms
            .iter()
            .flat_map(|&(_, a, b)| [format!("v{a}"), format!("v{b}")])
            .collect();
        head.sort();
        head.dedup();
        let q = parse_query(&format!("H({}) <- {}", head.join(","), body.join(", "))).unwrap();
        let s = Shares::optimal(&q, p).unwrap();
        let product: usize = s.shares.iter().product();
        prop_assert!(s.shares.iter().all(|&x| x >= 1), "shares {:?}", s.shares);
        prop_assert!(product <= p, "product {} > p {} for {:?}", product, p, s.shares);
        prop_assert_eq!(s.servers(), product);
        // The uniform baseline obeys the same envelope.
        let u = Shares::uniform(&q, p);
        prop_assert!(u.servers() <= p || u.shares.iter().all(|&x| x == 1));
        prop_assert!(u.shares.iter().all(|&x| x >= 1));
    }

    /// The parallel round engine is unobservable: for any worker count the
    /// output and the serialized `RunStats` are byte-equal to the
    /// sequential engine's, on fault-free and on crash+straggler runs.
    #[test]
    fn parallel_engine_matches_sequential(
        db in small_instance(20, 6),
        p in 2usize..10,
        threads in 2usize..9,
        crash in 0usize..10,
    ) {
        use parlog::faults::{FaultPlan, SpeculationPolicy};
        use parlog::mpc::cluster::Cluster;
        use parlog::mpc::report::RunReport;
        let q = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
        let run = |threads: usize, faulty: bool| {
            let mut c = Cluster::new(p).with_parallelism(threads);
            if faulty {
                c = c.with_faults(
                    FaultPlan::crash_stop(0, crash % p, 0)
                        .with_straggler((crash + 1) % p, 3.0)
                        .with_speculation(SpeculationPolicy::default()),
                );
            }
            for s in 0..p {
                c.place(s, db.iter().skip(s).step_by(p).cloned());
            }
            c.communicate(|f| vec![(f.args[0].0 as usize) % p]);
            c.compute_query(&q, EvalStrategy::Indexed);
            let stats = RunReport::from_cluster("prop", &c, db.len()).stats;
            (c.union_all(), serde_json::to_string(&stats).unwrap())
        };
        for faulty in [false, true] {
            let (seq_out, seq_stats) = run(1, faulty);
            let (par_out, par_stats) = run(threads, faulty);
            prop_assert_eq!(&seq_out, &par_out, "faulty={}", faulty);
            prop_assert_eq!(&seq_stats, &par_stats, "faulty={}", faulty);
        }
    }

    /// Policies distribute soundly: local instances contain only facts the
    /// node is responsible for, and a ReplicateAll policy reproduces I.
    #[test]
    fn policy_distribution_is_sound(db in small_instance(12, 5), seed in 0u64..20) {
        let hash = parlog::relal::policy::HashPolicy::new(4, seed);
        for node in 0..4 {
            for f in hash.local_instance(node, &db).iter() {
                prop_assert!(hash.responsible(node, f));
            }
        }
        let all = parlog::relal::policy::ReplicateAll { num_nodes: 2 };
        prop_assert_eq!(all.local_instance(0, &db), db.clone());
    }
}

/// Strategy: a random conjunctive query over binary atoms of R, S, E —
/// cyclic and acyclic shapes, self-joins, repeated variables and
/// constants all arise — with up to two inequalities, constant–constant
/// pairs included. The head is every body variable; one body in three
/// has none (a Boolean head), the shape on which the trie engine once
/// dropped a false constant pair.
fn random_cq() -> impl Strategy<Value = parlog::relal::query::ConjunctiveQuery> {
    (
        prop::collection::vec((0..3u8, 0..6u8, 0..6u8), 1..4),
        prop::collection::vec((0..6u8, 0..6u8), 0..3),
        0..3u8,
    )
        .prop_map(|(mut atoms, inequalities, ground)| {
            if ground == 0 {
                for (_, a, b) in &mut atoms {
                    (*a, *b) = (4 + *a % 2, 4 + *b % 2);
                }
            }
            let term = |t: u8| -> String {
                match t {
                    0 => "x".into(),
                    1 => "y".into(),
                    2 => "z".into(),
                    3 => "w".into(),
                    other => format!("{}", other - 4), // a constant: 0 or 1
                }
            };
            let mut literals: Vec<String> = atoms
                .iter()
                .map(|&(r, a, b)| {
                    format!("{}({}, {})", ["R", "S", "E"][r as usize], term(a), term(b))
                })
                .collect();
            let mut head: Vec<String> = atoms
                .iter()
                .flat_map(|&(_, a, b)| [a, b])
                .filter(|&t| t < 4)
                .map(term)
                .collect();
            head.sort();
            head.dedup();
            // An inequality's variable must occur in the body: else a
            // constant stands in.
            let side = |t: u8| match term(t) {
                v if t < 4 && !head.contains(&v) => term(4 + t % 2),
                v => v,
            };
            literals.extend(
                inequalities
                    .iter()
                    .map(|&(s, t)| format!("{} != {}", side(s), side(t))),
            );
            let src = format!("H({}) <- {}", head.join(","), literals.join(", "));
            parse_query(&src).unwrap()
        })
}

/// Strategy: a random plain conjunctive query (no inequalities) of one to
/// six binary atoms of R, S, E over five variables and the constants 0
/// and 1 — paths, stars, cycles, cliques, disconnected and ground bodies
/// all arise — whose head keeps the body variables that `mask` selects.
fn random_plain_cq() -> impl Strategy<Value = parlog::relal::query::ConjunctiveQuery> {
    (
        prop::collection::vec((0..3u8, 0..7u8, 0..7u8), 1..7),
        0..32u8,
    )
        .prop_map(|(atoms, mask)| {
            let term = |t: u8| match t {
                0..=4 => ["x", "y", "z", "w", "v"][t as usize].to_string(),
                other => format!("{}", other - 5),
            };
            let body: Vec<String> = atoms
                .iter()
                .map(|&(r, a, b)| {
                    format!("{}({}, {})", ["R", "S", "E"][r as usize], term(a), term(b))
                })
                .collect();
            let mut head: Vec<u8> = atoms
                .iter()
                .flat_map(|&(_, a, b)| [a, b])
                .filter(|&t| t < 5 && mask & (1 << t) != 0)
                .collect();
            head.sort();
            head.dedup();
            let head: Vec<String> = head.into_iter().map(term).collect();
            parse_query(&format!("H({}) <- {}", head.join(","), body.join(", "))).unwrap()
        })
}

/// The width of the min-fill elimination that `tree_decomposition`
/// starts from, before it merges any bag: the largest elimination bag
/// − 1. Eliminates the least-fill, then least-degree, then smallest
/// variable first, as the decomposition does.
fn min_fill_width(q: &parlog::relal::query::ConjunctiveQuery) -> usize {
    use parlog::relal::hypergraph::Hypergraph;
    use std::collections::{BTreeMap, BTreeSet};
    let hg = Hypergraph::of_query(q);
    let mut adj: BTreeMap<Var, BTreeSet<Var>> = hg
        .vertices
        .iter()
        .map(|v| (v.clone(), BTreeSet::new()))
        .collect();
    for e in &hg.edges {
        for a in e {
            adj.get_mut(a)
                .unwrap()
                .extend(e.iter().filter(|b| *b != a).cloned());
        }
    }
    let mut width = 0;
    while let Some(v) = adj
        .keys()
        .min_by_key(|v| {
            let nb = &adj[*v];
            let fill: usize = nb
                .iter()
                .map(|a| nb.iter().filter(|b| a < *b && !adj[a].contains(*b)).count())
                .sum();
            (fill, nb.len())
        })
        .cloned()
    {
        let nb = adj.remove(&v).unwrap();
        width = width.max(nb.len());
        for a in &nb {
            let next = adj.get_mut(a).unwrap();
            next.remove(&v);
            next.extend(nb.iter().filter(|b| *b != a).cloned());
        }
    }
    width
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `tree_decomposition` is a valid, reduced tree — no bag is a subset
    /// of its parent or of a child — no wider than the min-fill
    /// elimination it starts from, and GYM over it computes the query at
    /// every cluster size.
    #[test]
    fn reduced_decompositions_drive_gym(
        q in random_plain_cq(),
        db in small_instance(24, 3),
        seed in 0..1000u64,
    ) {
        let td = parlog::relal::hypergraph::tree_decomposition(&q);
        prop_assert_eq!(td.validate(&q), Ok(()), "{}", q);
        let n = td.bags.len();
        prop_assert_eq!(td.parent[td.root], td.root);
        for i in 0..n {
            // Every bag reaches the root: the parents form one tree.
            let mut j = i;
            for _ in 0..n {
                j = td.parent[j];
            }
            prop_assert_eq!(j, td.root, "{}", q);
            let p = td.parent[i];
            if p != i {
                prop_assert!(!td.bags[i].is_subset(&td.bags[p]), "bag {} ⊆ its parent in {}", i, q);
                prop_assert!(!td.bags[p].is_subset(&td.bags[i]), "bag {} ⊆ a child in {}", p, q);
            }
        }
        prop_assert!(td.width() <= min_fill_width(&q), "{}", q);
        let expected = eval_query(&q, &db);
        for p in [1, 5, 16] {
            prop_assert_eq!(Gym::new(&q, p, seed).run(&db).output, expected.clone(), "p = {} on {}", p, q);
        }
    }
}

/// `H() <- R(1,2), 3 != 3` on `{R(1,2)}`: a false constant–constant
/// inequality empties the answer under every strategy — the trie engine
/// included, though it enumerates no variable to check the pair at — and
/// a true one is no constraint.
#[test]
fn ground_inequalities_decide_every_engine() {
    use parlog::relal::eval::{eval_query_with, EvalStrategy};
    let db = Instance::from_facts([parlog::relal::fact::fact("R", &[1, 2])]);
    for (src, rows) in [
        ("H() <- R(1,2), 3 != 3", 0),
        ("H() <- R(1,2), 3 != 4", 1),
        ("H(x) <- R(x,2), 3 != 3", 0),
        ("H(x) <- R(x,2), 3 != 4", 1),
    ] {
        let q = parse_query(src).unwrap();
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            assert_eq!(
                eval_query_with(&q, &db, strategy).len(),
                rows,
                "{strategy:?} on {src}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential test of the three evaluators: on random conjunctive
    /// queries (cyclic, acyclic, self-joins, repeated variables,
    /// constants, variable-free bodies, inequalities) × random instances,
    /// the naive, hash-indexed and
    /// worst-case-optimal (LeapFrog TrieJoin) strategies all produce the
    /// same output.
    #[test]
    fn strategies_agree_on_random_cqs(q in random_cq(), db in small_instance(24, 3)) {
        use parlog::relal::eval::{eval_query_naive, eval_query_with, EvalStrategy};
        let reference = eval_query_naive(&q, &db);
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            prop_assert_eq!(
                eval_query_with(&q, &db, strategy),
                reference.clone(),
                "strategy {:?} on {}",
                strategy,
                q
            );
        }
    }

    /// One compiled `QueryPlan` — of a random CQ or a UCQ of two, ground
    /// bodies included — answers a sequence of instances that grow trie
    /// runs and tombstones between evaluations, then disjoint shards of
    /// the last one: on each, the naive answer, with exactly the seeks
    /// and candidates of a plan compiled fresh for that instance.
    #[test]
    fn one_compiled_plan_answers_every_instance(
        disjuncts in prop::collection::vec(random_cq(), 1..3),
        db in small_instance(24, 3),
        edits in prop::collection::vec((0..3u8, 0..3u64, 0..3u64), 0..12),
    ) {
        use parlog::relal::eval::{eval_query_naive, EvalStrategy, QueryPlan};
        use parlog::relal::opcount;
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            let plan = QueryPlan::new(&disjuncts, strategy).unwrap();
            let check = |inst: &Instance| {
                let mut want = Instance::new();
                for d in &disjuncts {
                    want.extend_from(&eval_query_naive(d, inst));
                }
                opcount::reset();
                let got = plan.eval(inst);
                let ops = opcount::reset();
                let fresh = QueryPlan::new(&disjuncts, strategy).unwrap().eval(inst);
                prop_assert_eq!(opcount::reset(), ops, "{:?} on {:?}", strategy, disjuncts);
                prop_assert_eq!(&got, &want, "{:?} on {:?}", strategy, disjuncts);
                prop_assert_eq!(fresh, want);
            };
            let mut db = db.clone();
            for batch in edits.chunks(3) {
                check(&db);
                for &(r, a, b) in batch {
                    let f = parlog::relal::fact::fact(["R", "S", "E"][r as usize], &[a, b]);
                    if !db.remove(&f) {
                        db.insert(f);
                    }
                }
            }
            check(&db);
            for k in 0..3 {
                check(&Instance::from_facts(db.sorted_facts().into_iter().skip(k).step_by(3)));
            }
        }
    }

    /// Semi-naive Datalog fixpoints agree across local-join strategies on
    /// random EDBs — recursion (transitive closure), a cyclic rule body
    /// (triangles) and a self-join rule all included.
    #[test]
    fn datalog_fixpoints_agree_across_strategies(db in small_instance(12, 4)) {
        use parlog::relal::eval::EvalStrategy;
        let p = parlog::datalog::program::parse_program(
            "TC(x,y) <- E(x,y)\n\
             TC(x,y) <- TC(x,z), E(z,y)\n\
             Tri(x,y,z) <- E(x,y), E(y,z), E(z,x)\n\
             Hop(x,z) <- R(x,y), R(y,z)\n\
             Loop(x) <- E(x,x)",
        )
        .unwrap();
        let reference = parlog::datalog::eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
        for strategy in [EvalStrategy::Naive, EvalStrategy::Wcoj, EvalStrategy::Auto] {
            prop_assert_eq!(
                parlog::datalog::eval_program(&p, &db, strategy).unwrap(),
                reference.clone(),
                "strategy {:?}",
                strategy
            );
        }
    }

    /// Differential test of incremental view maintenance: a maintained
    /// fixpoint (delete–rederive for every stratum, recursive or not),
    /// refreshed from the delta log after random batches of inserts and
    /// deletes, is identical to from-scratch evaluation — for every
    /// local-join strategy, on programs covering
    /// recursion (linear, and quadratic: two premises from the recursive
    /// stratum, both possibly retracted), mutual recursion, stratified
    /// negation over `ADom` complements, recursion through negation of a
    /// base relation (an insertion into `R` retracts through a negated
    /// occurrence), and nonrecursive negation with inequalities. A
    /// refresh settles its whole batch at once, so batches mix several
    /// mutations, including a fact inserted then deleted and one deleted
    /// then reinserted before the view sees either. The views must stay
    /// incremental: zero full rebuilds across the whole mutation run.
    #[test]
    fn maintained_views_match_scratch_eval(
        prog_idx in 0usize..7,
        init in prop::collection::vec((0..2u8, 0..4u64, 0..4u64), 0..10),
        ops in prop::collection::vec((0..2u8, 0..4u8, 0..4u64, 0..4u64, 0..3u8), 1..16),
    ) {
        use parlog::datalog::{eval_program, MaterializedView};
        use parlog::relal::eval::EvalStrategy;
        let programs = [
            // Transitive closure: one recursive stratum (DRed).
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)",
            // Complement of TC: negation + ADom above the recursion.
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)\n\
             NT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
            // Stratified negation chain, recursion-free.
            "A(x) <- E(x,y)\nB(x) <- R(x,y), not A(x)\nC(x) <- A(x), not B(x)",
            // Mutual recursion (one cyclic stratum).
            "P(x,y) <- E(x,y)\nQ(x,y) <- P(x,z), E(z,y)\nP(x,y) <- Q(x,z), E(z,y)",
            // Nonrecursive join with negation and an inequality.
            "H(x,z) <- E(x,y), R(y,z), x != z, not E(z,x)",
            // Quadratic transitive closure: both premises recursive.
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)",
            // Recursion with negation on a base relation.
            "P(x,y) <- E(x,y), not R(x,y)\nP(x,z) <- P(x,y), E(y,z), not R(x,z)",
        ];
        let p = parlog::datalog::program::parse_program(programs[prog_idx]).unwrap();
        let mut db = Instance::new();
        for (r, a, b) in init {
            db.insert(fact(if r == 0 { "E" } else { "R" }, &[a, b]));
        }
        let strategies = [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ];
        let mut views: Vec<MaterializedView> = strategies
            .iter()
            .map(|&s| MaterializedView::new(&p, &db, s).unwrap())
            .collect();
        let last = ops.len() - 1;
        for (i, (r, op, a, b, cut)) in ops.into_iter().enumerate() {
            let f = fact(if r == 0 { "E" } else { "R" }, &[a, b]);
            match op {
                0 => {
                    db.insert(f);
                }
                1 => {
                    db.remove(&f);
                }
                2 => {
                    db.insert(f.clone());
                    db.remove(&f);
                }
                _ => {
                    db.remove(&f);
                    db.insert(f);
                }
            }
            // One op in three closes the batch; the last one always does.
            if cut != 0 && i != last {
                continue;
            }
            let scratch = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
            for (view, s) in views.iter_mut().zip(strategies) {
                prop_assert_eq!(
                    view.refresh(&db),
                    scratch.clone(),
                    "maintained view diverged: program {} strategy {:?}",
                    prog_idx,
                    s
                );
            }
        }
        for (view, s) in views.iter().zip(strategies) {
            let stats = view.stats();
            prop_assert_eq!(stats.full_rebuilds, 0, "view fell back to rebuilds: {:?}", s);
        }
    }

    /// Instance bookkeeping under dual storage (fact set + LSM trie
    /// cache): `insert`/`remove` return values, `len`, `contains`, the
    /// epoch counter and the delta log all agree with a naive set model.
    /// Mutations never evict cache entries — stale entries replay the
    /// delta log on the next read and keep answering exactly the live
    /// tuple set (a no-op mutation changes nothing at all).
    #[test]
    fn instance_bookkeeping_matches_set_model(
        ops in prop::collection::vec((0..2u8, 0..3u8, 0..4u64, 0..4u64), 0..40),
    ) {
        use std::collections::BTreeSet;
        use parlog::relal::fact::{fact, Fact};
        let mut inst = Instance::new();
        let mut model: BTreeSet<Fact> = BTreeSet::new();
        for (op, r, a, b) in ops {
            let rel = ["R", "S", "E"][r as usize];
            let f = fact(rel, &[a, b]);
            // Touch the trie cache so refresh-on-read is observable: the
            // (possibly delta-refreshed) layers' live rows always match the
            // model.
            let live_rows =
                |inst: &Instance| inst.trie_layers(f.rel, &[0, 1]).merged().runs()[0].rows();
            let rel_count = model.iter().filter(|g| g.rel == f.rel).count();
            prop_assert_eq!(live_rows(&inst), rel_count);
            prop_assert!(inst.cached_tries() > 0);
            let epoch_before = inst.epoch();
            let log_before = inst.delta_log_len();
            let tries_before = inst.cached_tries();
            let changed = if op == 0 {
                let c = inst.insert(f.clone());
                prop_assert_eq!(c, model.insert(f.clone()));
                c
            } else {
                let c = inst.remove(&f);
                prop_assert_eq!(c, model.remove(&f));
                c
            };
            if changed {
                // Mutation bumps the epoch and logs exactly one delta;
                // cached tries survive (they refresh on next read).
                prop_assert!(inst.epoch() > epoch_before);
                prop_assert_eq!(inst.delta_log_len(), log_before + 1);
                prop_assert_eq!(inst.rel_epoch(f.rel), inst.epoch());
            } else {
                // A no-op (duplicate insert / absent remove) must not
                // desync anything: same epoch, same log, caches intact.
                prop_assert_eq!(inst.epoch(), epoch_before);
                prop_assert_eq!(inst.delta_log_len(), log_before);
            }
            prop_assert_eq!(inst.cached_tries(), tries_before);
            // The refreshed layers track the model immediately.
            let rel_count = model.iter().filter(|g| g.rel == f.rel).count();
            prop_assert_eq!(live_rows(&inst), rel_count);
            prop_assert_eq!(inst.len(), model.len());
            prop_assert_eq!(inst.contains(&f), model.contains(&f));
        }
        let facts: BTreeSet<Fact> = inst.iter().cloned().collect();
        prop_assert_eq!(facts, model);
    }

    /// Publications share the writer's relation sets, and each frozen
    /// view output shares its view's: whatever the writer and the views
    /// then write is copied first. Random `mutate`/`publish` sequences,
    /// pinning the snapshot after every publication, never change a
    /// pinned snapshot's facts or the facts of its frozen view outputs —
    /// for a view that keeps no `ADom` facts and one that reads `ADom`
    /// and has its helper facts stripped from its output.
    #[test]
    fn publications_never_change_pinned_snapshots(
        init in prop::collection::vec((0..5u64, 0..5u64), 0..8),
        ops in prop::collection::vec((0..3u8, 0..5u64, 0..5u64), 1..24),
    ) {
        use parlog::datalog::maintain::{publish_views, ViewWriter};
        use parlog::relal::eval::EvalStrategy;
        use parlog::relal::fact::{fact, Fact};
        use parlog::relal::snapshot::{Snapshot, SnapshotStore};
        use std::sync::Arc;
        let parse = parlog::datalog::program::parse_program;
        let views = [
            (parse("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)").unwrap(), EvalStrategy::Auto),
            (
                parse("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)\n\
                       NT(x,y) <- ADom(x), ADom(y), not TC(x,y)").unwrap(),
                EvalStrategy::Wcoj,
            ),
        ];
        let base = Instance::from_facts(init.into_iter().map(|(a, b)| fact("E", &[a, b])));
        let store = SnapshotStore::new(ViewWriter::new(base));
        // A pinned snapshot and what it held when it was pinned: its facts
        // and each frozen output's facts, by key.
        let seen = |snap: &Arc<Snapshot>| {
            let outputs: Vec<Vec<Fact>> = (views.iter())
                .map(|(p, s)| {
                    let source = parlog::datalog::view_key_source(p, *s);
                    let key = parlog::datalog::view_key(&source);
                    (snap.view_output_exact(key, &source)).map_or_else(Vec::new, |out| out.sorted_facts())
                })
                .collect();
            (snap.instance().sorted_facts(), outputs)
        };
        let mut pinned = vec![(store.pin(), seen(&store.pin()))];
        for (op, a, b) in ops {
            let f = fact("E", &[a, b]);
            match op {
                0 => {
                    store.mutate(|w| w.insert(f));
                }
                1 => {
                    store.mutate(|w| w.remove(&f));
                }
                _ => {
                    let snap = store.publish_with(|w| publish_views(w, &views).unwrap());
                    prop_assert_eq!(snap.view_count(), 2);
                    let held = seen(&snap);
                    prop_assert!(!held.1.iter().flatten().any(|f| f.rel == parlog::relal::symbols::rel("ADom")));
                    pinned.push((snap, held));
                }
            }
            for (snap, held) in &pinned {
                prop_assert_eq!(&seen(snap), held, "generation {}", snap.generation());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CALM under chaos: an F0 (monotone-broadcast) program is immune to
    /// every fault the asynchronous model quantifies over. Random
    /// reorder/duplicate/delay plans across several seeds always yield
    /// exactly the centralized answer.
    #[test]
    fn f0_output_invariant_under_within_model_faults(
        db in small_instance(12, 5),
        reorder in 0.0f64..0.9,
        dup in 0.0f64..0.6,
        delay in 0.0f64..0.6,
        plan_seed in 0u64..50,
    ) {
        use parlog::faults::FaultPlan;
        use parlog::transducer::prelude::*;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = eval_query(&q, &db);
        let p = MonotoneBroadcast::new(q);
        let shards = hash_distribution(&db, 3, 7);
        for seed in [plan_seed, plan_seed + 1, plan_seed + 2] {
            let mut plan = FaultPlan::reordering(seed, reorder);
            plan.dup_prob = dup;
            plan.delay_prob = delay;
            plan.max_delay = 6;
            let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed));
            let out = run(&p, &shards, &rc.with_faults(&plan)).output;
            prop_assert_eq!(&out, &expected, "seed {}", seed);
        }
    }

    /// Lossy runs are always sound: dropped messages can only shrink the
    /// output, never let the monotone program invent a fact outside Q(I).
    #[test]
    fn lossy_runs_are_sound(
        db in small_instance(12, 5),
        drop_prob in 0.05f64..0.95,
        seed in 0u64..50,
    ) {
        use parlog::faults::FaultPlan;
        use parlog::transducer::prelude::*;
        let q = parse_query("H(x,z) <- E(x,y), E(y,z)").unwrap();
        let expected = eval_query(&q, &db);
        let p = MonotoneBroadcast::new(q);
        let shards = hash_distribution(&db, 3, 7);
        let plan = FaultPlan::lossy(seed, drop_prob);
        let rc = RunCtx::simulated(Ctx::oblivious(), Schedule::Random(seed));
        let lossy = run(&p, &shards, &rc.clone().with_faults(&plan));
        prop_assert!(lossy.output.is_subset_of(&expected));
        // And reliability restores completeness whenever anything dropped.
        if lossy.stats.dropped > 0 {
            let reliable = plan.with_retransmit(Default::default());
            let out = run(&p, &shards, &rc.with_faults(&reliable));
            prop_assert_eq!(&out.output, &expected);
            prop_assert!(out.stats.coordination_messages() > 0);
        }
    }
}

/// DRed's hard case for a one-pass rederive: a chord `E(6,8)` around the
/// deleted edge `E(6,7)` on a 12-chain keeps every `TC(x,y)` with
/// `x ≤ 6 < 8 ≤ y` derivable, but for `x < 6` the only alternative runs
/// through `TC(x+1,y)`, itself overdeleted — up to six rederivation steps
/// deep. One existence probe per overdeleted fact rederives `TC(6,·)`;
/// the insertion rounds it seeds must bring back the rest. The batch also
/// carries a spur inserted then deleted and a chain edge deleted then
/// reinserted. All four strategies, no full rebuild.
#[test]
fn dred_rederives_alternatives_several_steps_deep() {
    use parlog::datalog::{eval_program, MaterializedView};
    use parlog::relal::eval::EvalStrategy;
    use parlog::relal::fact::fact;
    let p =
        parlog::datalog::program::parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- E(x,z), TC(z,y)")
            .unwrap();
    let mut db = Instance::from_facts((0..12u64).map(|i| fact("E", &[i, i + 1])));
    db.insert(fact("E", &[6, 8]));
    let strategies = [
        EvalStrategy::Naive,
        EvalStrategy::Indexed,
        EvalStrategy::Wcoj,
        EvalStrategy::Auto,
    ];
    let mut views: Vec<MaterializedView> = strategies
        .iter()
        .map(|&s| MaterializedView::new(&p, &db, s).unwrap())
        .collect();
    db.insert(fact("E", &[3, 100]));
    db.remove(&fact("E", &[6, 7]));
    db.remove(&fact("E", &[3, 100]));
    db.remove(&fact("E", &[9, 10]));
    db.insert(fact("E", &[9, 10]));
    let scratch = eval_program(&p, &db, EvalStrategy::Indexed).unwrap();
    assert!(scratch.contains(&fact("TC", &[0, 12])));
    assert!(!scratch.contains(&fact("TC", &[0, 7])));
    for (view, s) in views.iter_mut().zip(strategies) {
        assert_eq!(view.refresh(&db), scratch, "{s:?}");
        let stats = view.stats();
        assert_eq!(stats.full_rebuilds, 0, "{s:?}");
        assert_eq!(stats.incremental_applied, 5, "{s:?}");
    }
}

/// The parser's tokens, for building hostile query text.
const QUERY_TOKENS: [&str; 26] = [
    "H", "G", "R", "x", "y", "z_1", "TC", "ADom", "0", "42", "'", "(", ")", ",", "<-", ";", "not ",
    "!", "!=", "¬", "≠", ".", "%", "\n", " ", "(x,y)",
];

/// Valid texts the fuzzer edits, so that mutations reach past the first
/// token: a union, a program and a query with negation and inequalities.
const QUERY_BASES: [&str; 3] = [
    "H(x) <- R(x,y); H(x) <- S(x), not R(x,x)",
    "TC(x,y) <- R(x,y). TC(x,z) <- TC(x,y), R(y,z), x != z\n% done",
    "H(x,y) <- R(x,y), ¬S(y,'a'), y ≠ 42",
];

/// `QUERY_BASES[base]` (or the empty text when `base` is past the end)
/// after `edits`: each inserts a token before, replaces, or deletes the
/// character at a position.
fn edited_text(base: usize, edits: Vec<(usize, usize, u8)>) -> String {
    let mut text: Vec<char> = QUERY_BASES
        .get(base)
        .copied()
        .unwrap_or("")
        .chars()
        .collect();
    for (at, token, op) in edits {
        let at = at % (text.len() + 1);
        let token = QUERY_TOKENS[token].chars();
        match op {
            0 => drop(text.splice(at..at, token)),
            1 if at < text.len() => drop(text.splice(at..=at, token)),
            _ if at < text.len() => drop(text.remove(at)),
            _ => {}
        }
    }
    text.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The front door never panics: edited queries, unions and programs,
    /// and strings of bare tokens, are each parsed or refused with a
    /// typed error.
    #[test]
    fn parsers_never_panic(
        base in 0..QUERY_BASES.len() + 1,
        edits in prop::collection::vec((0..64usize, 0..QUERY_TOKENS.len(), 0..3u8), 0..8),
    ) {
        let text = edited_text(base, edits);
        let _ = parse_query(&text);
        let _ = parlog::relal::parser::parse_union(&text);
        let _ = parlog::datalog::program::parse_program(&text);
    }
}
