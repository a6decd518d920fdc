//! `mpc_shuffle` — MPC jobs from statistics to unioned output.
//!
//! One operation is one job on a sequential cluster
//! (`with_parallelism(1)`), cycling four kinds. `mpc::{shares,
//! partition, cluster, skew_rounds, algorithms::gym}` and `verify` do
//! the work. It uses `relal` the opposite way to `join_local`:
//! thousands of small **cold** instances built from routed facts, so
//! insert and trie build sit on the operation path here and off it
//! there.

use crate::api::{self, ConjunctiveQuery, Instance, Job};
use crate::gen::{self, Rng, Tuple};
use crate::stats::percentile;
use crate::trace::{durations, total_ns, Span, Tracer};
use crate::{Counts, Cx, Outcome, Size, Workload};

/// The four job kinds.
pub const KINDS: [&str; 4] = [
    "hc_triangle",
    "skew_join",
    "gym_path",
    "hc_triangle_verified",
];

const JOB_SPANS: [&str; 4] = [
    "mpc.job.hc_triangle",
    "mpc.job.skew_join",
    "mpc.job.gym_path",
    "mpc.job.hc_triangle_verified",
];

/// One cycle, as indices into [`KINDS`]. Five, not four, so the median
/// and the 90th percentile each fall inside one kind's block of ranks
/// rather than between two kinds.
const CYCLE: [u8; 5] = [0, 1, 2, 1, 3];

struct Spec {
    /// `hc_triangle`: facts per relation of a skew-free triangle input
    /// and the server count. p = 64 = 4³ gives integer shares; the job
    /// is routing-bound (each fact is replicated 4×, then 64 cold
    /// instances are built from what arrives).
    hc_m: usize,
    hc_p: usize,
    /// `skew_join`: E26's grid point — facts per relation, Zipf domain
    /// and exponent of the join attribute, servers. Many small local
    /// joins, output-bound.
    skew_m: usize,
    skew_domain: usize,
    skew_s: f64,
    skew_p: usize,
    /// `gym_path`: facts per relation of the acyclic 4-path and servers.
    gym_m: usize,
    gym_p: usize,
    /// `hc_triangle_verified`: a smaller triangle (the checker re-
    /// enumerates every shard) and its servers.
    ver_m: usize,
    ver_p: usize,
    /// Repetitions of the two-thread probe's job (the routing-growth
    /// probe runs its `4 × hc_m` job once).
    growth_reps: usize,
}

impl Spec {
    fn of(size: Size) -> Spec {
        match size {
            Size::Full => Spec {
                hc_m: 8000,
                hc_p: 64,
                skew_m: 1000,
                skew_domain: 1000,
                skew_s: 1.0,
                skew_p: 27,
                gym_m: 1500,
                gym_p: 16,
                ver_m: 450,
                ver_p: 27,
                growth_reps: 2,
            },
            Size::Small => Spec {
                hc_m: 120,
                hc_p: 8,
                skew_m: 100,
                skew_domain: 40,
                skew_s: 1.0,
                skew_p: 8,
                gym_m: 80,
                gym_p: 8,
                ver_m: 60,
                ver_p: 8,
                growth_reps: 1,
            },
        }
    }
}

/// The workload's state.
pub struct MpcShuffle {
    spec: Spec,
    seed: u64,
    queries: [ConjunctiveQuery; 4],
    dbs: [Instance; 4],
    /// Checked pass: the centralized answer per kind.
    memo: Vec<Option<Instance>>,
}

/// A skew-free triangle input: `m` random pairs per relation over a
/// domain of `m` values (degrees ~ Poisson(1), no heavy hitter).
fn triangle_db(m: usize, seed: u64, salt: u64) -> Vec<Tuple> {
    let mut out = Vec::new();
    for (k, r) in ["R", "S", "T"].into_iter().enumerate() {
        let rng = &mut Rng::new(seed, salt + k as u64);
        out.extend(gen::random_pairs(r, m, m as u64, rng));
    }
    out
}

/// Set the workload up and hand it to `f`.
pub fn run<R>(
    seed: u64,
    size: Size,
    cx: &mut Cx,
    f: impl FnOnce(&mut dyn Workload, &mut Cx) -> R,
) -> R {
    let spec = Spec::of(size);
    let t = &mut Tracer::off();
    let triangle = api::parse_query(t, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    let join = api::parse_query(t, "H(x,y,z) <- R(x,y), S(y,z)");
    let path = api::parse_query(t, "H(x,w) <- R(x,y), S(y,z), T(z,w)");

    // E26's input: the join attribute y Zipf-distributed on both sides
    // over a shared domain (exact frequencies; the seed picks which
    // value is heavy).
    let mut skew = gen::zipf_column(
        "R",
        spec.skew_m,
        spec.skew_domain,
        spec.skew_s,
        1,
        1_000_000,
        &mut Rng::new(seed, 30),
    );
    skew.extend(gen::zipf_column(
        "S",
        spec.skew_m,
        spec.skew_domain,
        spec.skew_s,
        0,
        2_000_000,
        &mut Rng::new(seed, 31),
    ));
    // The 4-path over a domain of m/2: average degree 2, so the join
    // neither dies out nor explodes.
    let mut gym: Vec<Tuple> = Vec::new();
    for (k, r) in ["R", "S", "T"].into_iter().enumerate() {
        let rng = &mut Rng::new(seed, 40 + k as u64);
        gym.extend(gen::random_pairs(
            r,
            spec.gym_m,
            (spec.gym_m / 2) as u64,
            rng,
        ));
    }
    let load = |ts: &[Tuple]| api::load(&mut Tracer::off(), api::facts(ts));
    let mut w = MpcShuffle {
        dbs: [
            load(&triangle_db(spec.hc_m, seed, 50)),
            load(&skew),
            load(&gym),
            load(&triangle_db(spec.ver_m, seed, 60)),
        ],
        queries: [triangle.clone(), join, path, triangle],
        memo: vec![None; KINDS.len()],
        spec,
        seed,
    };
    // Warm-up: one job of every kind.
    for k in 0..KINDS.len() {
        w.job(k, 1, &mut Tracer::off());
    }
    f(&mut w, cx)
}

impl MpcShuffle {
    /// Run one job of kind `k`; also whether its checker (if it has one)
    /// accepted, and the certificate bytes.
    fn job(&self, k: usize, threads: usize, t: &mut Tracer) -> (Job, bool, u64) {
        let (q, db, s) = (&self.queries[k], &self.dbs[k], &self.spec);
        t.span(JOB_SPANS[k], |t| match k {
            0 => (api::hypercube_job(t, q, db, s.hc_p, threads), true, 0),
            1 => (api::skew_job(t, q, db, s.skew_p), true, 0),
            2 => (api::gym_job(t, q, db, s.gym_p, self.seed), true, 0),
            _ => {
                let (job, bytes, accepted) = api::verified_hypercube_job(t, q, db, s.ver_p);
                (job, accepted, bytes)
            }
        })
    }

    /// Checked pass: the job's output equals centralized evaluation of
    /// the query on the input (computed once per kind).
    fn verify(&mut self, k: usize, got: &Instance) -> bool {
        let want = self.memo[k].get_or_insert_with(|| {
            api::eval_query(
                &mut Tracer::off(),
                "",
                &self.queries[k],
                &self.dbs[k],
                api::EvalStrategy::Auto,
            )
        });
        api::same(want, got)
    }
}

impl Workload for MpcShuffle {
    fn cycle_len(&self) -> u64 {
        CYCLE.len() as u64
    }

    fn step(&mut self, i: u64, cx: &mut Cx) -> Outcome {
        let k = CYCLE[(i % CYCLE.len() as u64) as usize] as usize;
        let (job, accepted, cert_bytes) = self.job(k, 1, &mut cx.tracer);
        let rows = api::rows(&job.output);
        let mut ok = accepted;
        if cx.check {
            ok &= self.verify(k, &job.output);
            let c = &mut cx.counts;
            // Loads in thousandths of the predicted bound, so the exact
            // ratio survives in an integer counter.
            let ratio = (job.max_load as f64 / job.predicted_load * 1000.0).round() as u64;
            c.max("mpc.load_ratio_max.milli", ratio);
            c.add("mpc_shuffle.rows_out", rows);
            match k {
                0 => {
                    c.set("mpc.cluster.total_comm", job.total_comm);
                    c.set("mpc.cluster.max_load", job.max_load);
                    c.set("mpc.hypercube.load_ratio.milli", ratio);
                }
                1 => c.set("mpc.skew_rounds.load_ratio.milli", ratio),
                2 => c.set("mpc.gym.rounds", job.rounds),
                _ => {
                    c.set("verify.certificate.bytes", cert_bytes);
                    c.set("verify.certificate.rows", rows);
                }
            }
        }
        Outcome {
            kind: k as u8,
            lag: 0,
            rows,
            ok,
        }
    }

    fn levels(&self, _levels: &mut Counts) {}

    fn layer_metrics(&mut self, cx: &mut Cx) -> Vec<(String, f64)> {
        // Probe: `communicate` time at m and 4m facts per relation, fixed
        // p. BKS predict routing cost linear in the load, exponent ≈ 1.
        let big = api::load(
            &mut Tracer::off(),
            api::facts(&triangle_db(4 * self.spec.hc_m, self.seed, 70)),
        );
        let mut big_trace = Tracer::on();
        api::hypercube_job(&mut big_trace, &self.queries[0], &big, self.spec.hc_p, 1);
        let big_ns = total_ns(big_trace.spans(), "mpc.cluster.communicate") as f64;
        let reps = self.spec.growth_reps;
        // Probe: the same job with two worker threads per phase.
        let wall = |threads: usize| {
            let t = std::time::Instant::now();
            for _ in 0..reps {
                self.job(0, threads, &mut Tracer::off());
            }
            t.elapsed().as_secs_f64()
        };
        let par2 = wall(1) / wall(2).max(1e-12);

        let spans = cx.tracer.spans();
        let mean_us = |d: &[u64]| {
            if d.is_empty() {
                0.0
            } else {
                d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3
            }
        };
        // Spans named `name` directly under a `hc_triangle` job.
        let under_hc = |name: &str| -> Vec<u64> {
            spans
                .iter()
                .filter(|s: &&Span| {
                    s.name == name
                        && spans
                            .get(s.parent as usize)
                            .is_some_and(|p| p.name == JOB_SPANS[0])
                })
                .map(Span::dur_ns)
                .collect()
        };
        let hc_ns = total_ns(spans, JOB_SPANS[0]).max(1) as f64;
        let comm = under_hc("mpc.cluster.communicate");
        let growth = (big_ns / (mean_us(&comm) * 1e3).max(1.0)).ln() / 4f64.ln();
        let compute = under_hc("mpc.cluster.compute");
        let c = &cx.counts;
        let total_comm = c.get("mpc.cluster.total_comm") as f64;
        let hc_facts = api::rows(&self.dbs[0]) as f64;

        let mut out: Vec<(String, f64)> = Vec::new();
        for (k, name) in KINDS.iter().enumerate() {
            let p50 =
                percentile(&durations(spans, JOB_SPANS[k]), 500).map_or(0.0, |v| v as f64 / 1e3);
            out.push((format!("mpc.job.{name}.p50_us"), p50));
        }
        out.extend(
            [
                (
                    "mpc.partition.seed_us_per_fact",
                    mean_us(&under_hc("mpc.partition.seed")) / hc_facts.max(1.0),
                ),
                (
                    "mpc.cluster.communicate_us_per_delivery",
                    mean_us(&comm) / total_comm.max(1.0),
                ),
                (
                    "mpc.cluster.communicate_share",
                    comm.iter().sum::<u64>() as f64 / hc_ns,
                ),
                ("mpc.cluster.total_comm", total_comm),
                ("mpc.cluster.max_load", c.get("mpc.cluster.max_load") as f64),
                ("mpc.cluster.replication", total_comm / hc_facts.max(1.0)),
                ("mpc.cluster.comm_us_growth_exponent", growth),
                ("mpc.cluster.compute_us", mean_us(&compute)),
                (
                    "mpc.cluster.compute_share",
                    compute.iter().sum::<u64>() as f64 / hc_ns,
                ),
                ("mpc.cluster.par2_speedup", par2),
                (
                    "mpc.skew_rounds.load_ratio",
                    c.get("mpc.skew_rounds.load_ratio.milli") as f64 / 1e3,
                ),
                (
                    "mpc.hypercube.load_ratio",
                    c.get("mpc.hypercube.load_ratio.milli") as f64 / 1e3,
                ),
                ("mpc.gym.rounds", c.get("mpc.gym.rounds") as f64),
                (
                    "mpc.load_ratio_max",
                    c.get("mpc.load_ratio_max.milli") as f64 / 1e3,
                ),
                (
                    "verify.certificate.bytes_per_row",
                    c.get("verify.certificate.bytes") as f64
                        / c.get("verify.certificate.rows").max(1) as f64,
                ),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
        out
    }
}
