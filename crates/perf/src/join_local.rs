//! `join_local` — large single-instance evaluation, nothing else.
//!
//! One operation is one `eval_query_with` on a pre-loaded instance,
//! cycling a fixed case list. No serving, Datalog or MPC code runs:
//! `relal::{instance, trie, lsm, eval}` only. Bulk load and first-touch
//! trie builds are this workload's **set-up**, so `setup_s` isolates
//! insert and trie build while the operation stream separates
//! enumeration (seeks: the output-light cases) from output
//! materialisation (`Instance::insert` of result rows: the output-heavy
//! cases).

use crate::api::{self, ConjunctiveQuery, EvalStrategy, Instance};
use crate::gen::{self, Rng, Tuple};
use crate::stats::percentile;
use crate::trace::{durations, total_ns, Tracer};
use crate::{Counts, Cx, Outcome, Size, Workload};

/// The six cases.
pub const CASES: [&str; 6] = [
    "tri_adv",
    "tri_rand",
    "square_rand",
    "path2_rand",
    "path2_wcoj",
    "star_zipf",
];

const CASE_SPANS: [&str; 6] = [
    "relal.eval.case.tri_adv",
    "relal.eval.case.tri_rand",
    "relal.eval.case.square_rand",
    "relal.eval.case.path2_rand",
    "relal.eval.case.path2_wcoj",
    "relal.eval.case.star_zipf",
];

/// Triangles planted in the adversarial instance (E22: 3).
const PLANTED: u64 = 3;

/// Which cases are output-light (time ÷ seeks) and which output-heavy
/// (time ÷ rows out).
const LIGHT: [usize; 3] = [0, 1, 2];
const HEAVY: [usize; 3] = [3, 4, 5];

/// One cycle, as indices into [`CASES`]: four output-light operations
/// and three output-heavy ones. Seven, not six, so that the median
/// falls *inside* the block of the costliest light case (ranks 3/7 to
/// 4/7) instead of on the light/heavy boundary, and the 90th percentile
/// inside the costliest heavy case (ranks 6/7 to 1).
const CYCLE: [u8; 7] = [0, 3, 1, 4, 2, 5, 1];

struct Spec {
    /// Spokes per hub of E22's adversarial triangle (6n facts): every
    /// pairwise join has n² tuples, the output has three rows, so the
    /// case is pure seeking.
    adv_n: u64,
    /// Facts per relation of the random R/S/T database, and its domain:
    /// average degree `rand_m / rand_domain`, so `R⋈S` has about
    /// `rand_m²/rand_domain` rows — the output-heavy path cases.
    rand_m: usize,
    rand_domain: u64,
    /// The Zipf-degree star: `star_m` edges over `star_hubs` hubs with
    /// exact Zipf(1.0) degrees; the 2-star's output is Σ degree² ≈ 19 k
    /// rows — deliberately past the 16 384-entry delta log of the result
    /// instance, where every further `Instance::insert` shifts the whole
    /// log (the path cases, ≈ 13 k rows, stay below it): the two regimes
    /// of output materialisation.
    star_m: usize,
    star_hubs: usize,
    /// `n` of the small adversarial triangle the WCOJ-vs-Indexed ratio
    /// probe evaluates under both strategies.
    probe_n: u64,
}

impl Spec {
    fn of(size: Size) -> Spec {
        match size {
            Size::Full => Spec {
                adv_n: 8192,
                rand_m: 20_000,
                rand_domain: 30_000,
                star_m: 560,
                star_hubs: 100,
                probe_n: 1024,
            },
            Size::Small => Spec {
                adv_n: 64,
                rand_m: 300,
                rand_domain: 100,
                star_m: 200,
                star_hubs: 40,
                probe_n: 32,
            },
        }
    }
}

struct Case {
    query: ConjunctiveQuery,
    db: usize,
    strategy: EvalStrategy,
}

/// The workload's state.
pub struct JoinLocal {
    spec: Spec,
    dbs: Vec<Instance>,
    cases: Vec<Case>,
    /// Facts loaded and facts under a first-touch trie build, for the
    /// per-fact set-up metrics.
    loaded: usize,
    trie_facts: usize,
    /// Checked pass: the agreed answer per case.
    memo: Vec<Option<Instance>>,
    /// Seeks (light cases) and rows out (heavy cases) over the traced
    /// pass, parallel to [`CASES`].
    traced_seeks: [u64; 6],
    traced_rows: [u64; 6],
}

/// Set the workload up and hand it to `f`.
pub fn run<R>(
    seed: u64,
    size: Size,
    cx: &mut Cx,
    f: impl FnOnce(&mut dyn Workload, &mut Cx) -> R,
) -> R {
    let spec = Spec::of(size);
    let t = &mut cx.tracer;
    let adv = gen::hub_triangle("R", "S", "T", spec.adv_n, PLANTED);
    let mut rand: Vec<Tuple> = Vec::new();
    for (k, r) in ["R", "S", "T"].into_iter().enumerate() {
        let rng = &mut Rng::new(seed, 10 + k as u64);
        rand.extend(gen::random_pairs(r, spec.rand_m, spec.rand_domain, rng));
    }
    let star = gen::zipf_column(
        "Z",
        spec.star_m,
        spec.star_hubs,
        1.0,
        0,
        1_000_000,
        &mut Rng::new(seed, 20),
    );

    let mut loaded = 0;
    let mut trie_facts = 0;
    let dbs: Vec<Instance> = [
        (&adv, &["R", "S", "T"][..]),
        (&rand, &["R", "S", "T"]),
        (&star, &["Z"]),
    ]
    .into_iter()
    .map(|(tuples, rels)| {
        loaded += tuples.len();
        let inst = api::load(t, api::facts(tuples));
        // First touch of both column orders of every relation: the
        // trie builds the WCOJ cases would otherwise pay on their
        // first operation.
        for r in rels {
            for perm in [[0usize, 1], [1, 0]] {
                api::build_trie(t, &inst, r, &perm);
                trie_facts += api::relation_len(&inst, r);
            }
        }
        inst
    })
    .collect();

    let triangle = api::parse_query(t, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    let path2 = api::parse_query(t, "H(x,y,z) <- R(x,y), S(y,z)");
    let case = |query: &ConjunctiveQuery, db, strategy| Case {
        query: query.clone(),
        db,
        strategy,
    };
    let cases = vec![
        case(&triangle, 0, EvalStrategy::Auto),
        case(&triangle, 1, EvalStrategy::Auto),
        case(
            &api::parse_query(t, "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), R(w,x)"),
            1,
            EvalStrategy::Auto,
        ),
        case(&path2, 1, EvalStrategy::Auto),
        case(&path2, 1, EvalStrategy::Wcoj),
        case(
            &api::parse_query(t, "H(a,b) <- Z(x,a), Z(x,b)"),
            2,
            EvalStrategy::Auto,
        ),
    ];
    let mut w = JoinLocal {
        memo: vec![None; cases.len()],
        spec,
        dbs,
        cases,
        loaded,
        trie_facts,
        traced_seeks: [0; 6],
        traced_rows: [0; 6],
    };
    // Warm-up: every case once (builds the hash indexes and any trie
    // order the first touches above did not cover).
    for c in 0..CASES.len() {
        w.eval(c, &mut Tracer::off());
    }
    f(&mut w, cx)
}

impl JoinLocal {
    fn eval(&self, c: usize, t: &mut Tracer) -> Instance {
        let case = &self.cases[c];
        api::eval_query(
            t,
            CASE_SPANS[c],
            &case.query,
            &self.dbs[case.db],
            case.strategy,
        )
    }

    /// Checked pass: `Auto`, `Wcoj` and `Indexed` agree on the case (the
    /// instance never changes, so once per case), and the timed strategy
    /// gives that answer. On the adversarial triangle `Indexed` is the
    /// Θ(n²) side of E22 — half a minute at this size — so there the
    /// third opinion is the generator's: the planted triangles are the
    /// whole answer by construction.
    fn verify(&mut self, c: usize, got: &Instance) -> bool {
        if self.memo[c].is_none() {
            let case = &self.cases[c];
            let off = &mut Tracer::off();
            let db = &self.dbs[case.db];
            let wcoj = api::eval_query(off, "", &case.query, db, EvalStrategy::Wcoj);
            let third = if c == 0 {
                let planted = gen::planted_triangles("H", self.spec.adv_n, PLANTED);
                api::load(off, api::facts(&planted))
            } else {
                api::eval_query(off, "", &case.query, db, EvalStrategy::Indexed)
            };
            let auto = api::eval_query(off, "", &case.query, db, EvalStrategy::Auto);
            if !(api::same(&wcoj, &third) && api::same(&wcoj, &auto)) {
                return false;
            }
            self.memo[c] = Some(wcoj);
        }
        self.memo[c]
            .as_ref()
            .is_some_and(|want| api::same(want, got))
    }
}

impl Workload for JoinLocal {
    fn cycle_len(&self) -> u64 {
        CYCLE.len() as u64
    }

    fn step(&mut self, i: u64, cx: &mut Cx) -> Outcome {
        let c = CYCLE[(i % CYCLE.len() as u64) as usize] as usize;
        let counting = cx.check || cx.tracer.is_on();
        if counting {
            api::ops_reset();
        }
        let out = self.eval(c, &mut cx.tracer);
        let rows = api::rows(&out);
        if cx.tracer.is_on() {
            self.traced_seeks[c] += api::ops_read();
            self.traced_rows[c] += rows;
        }
        let mut ok = true;
        if cx.check {
            if c == 0 {
                cx.counts.set("relal.eval.wcoj.ops", api::ops_read());
            }
            cx.counts.add("join_local.rows_out", rows);
            ok = self.verify(c, &out);
        }
        Outcome {
            kind: c as u8,
            lag: 0,
            rows,
            ok,
        }
    }

    fn levels(&self, _levels: &mut Counts) {}

    fn layer_metrics(&mut self, cx: &mut Cx) -> Vec<(String, f64)> {
        // Probe: the small adversarial triangle under both strategies
        // (best of three each) — the ratio E22 asserts, on the wall.
        let tuples = gen::hub_triangle("R", "S", "T", self.spec.probe_n, PLANTED);
        let off = &mut Tracer::off();
        let small = api::load(off, api::facts(&tuples));
        let q = &self.cases[0].query;
        let best = |s: EvalStrategy| {
            (0..4)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(api::eval_query(&mut Tracer::off(), "", q, &small, s));
                    t.elapsed().as_secs_f64()
                })
                .skip(1) // the first evaluation builds tries and indexes
                .fold(f64::INFINITY, f64::min)
        };
        let ratio = best(EvalStrategy::Wcoj) / best(EvalStrategy::Indexed).max(1e-12);

        let spans = cx.tracer.spans();
        let mut out: Vec<(String, f64)> = Vec::new();
        for (c, name) in CASES.iter().enumerate() {
            let p50 =
                percentile(&durations(spans, CASE_SPANS[c]), 500).map_or(0.0, |v| v as f64 / 1e3);
            out.push((format!("relal.case.{name}.p50_us"), p50));
        }
        let per = |cases: &[usize], work: &[u64; 6]| {
            let ns: u64 = cases.iter().map(|&c| total_ns(spans, CASE_SPANS[c])).sum();
            let units: u64 = cases.iter().map(|&c| work[c]).sum();
            ns as f64 / 1e3 / units.max(1) as f64
        };
        let adv_m = api::rows(&self.dbs[0]) as usize / 3;
        let wcoj_ops = cx.counts.get("relal.eval.wcoj.ops") as f64;
        out.extend(
            [
                (
                    "relal.instance.insert_us_per_fact",
                    total_ns(spans, "relal.instance.insert") as f64
                        / 1e3
                        / self.loaded.max(1) as f64,
                ),
                (
                    "relal.trie.build_us_per_fact",
                    total_ns(spans, "relal.trie.build") as f64
                        / 1e3
                        / self.trie_facts.max(1) as f64,
                ),
                ("relal.eval.us_per_seek", per(&LIGHT, &self.traced_seeks)),
                ("relal.eval.us_per_row_out", per(&HEAVY, &self.traced_rows)),
                ("relal.eval.wcoj.ops", wcoj_ops),
                // ops ÷ m^{ρ*} on the adversarial triangle, m facts per relation.
                (
                    "relal.eval.wcoj.ops_vs_agm",
                    wcoj_ops / api::agm_bound(q, adv_m),
                ),
                ("relal.eval.wcoj_vs_indexed_ratio", ratio),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
        out
    }
}
