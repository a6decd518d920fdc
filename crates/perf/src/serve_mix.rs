//! `serve_mix` — read-dominated serving on a small, warm, pinned instance.
//!
//! One operation is one `Session::execute_pinned` (every 32nd request
//! `Session::execute`, i.e. a re-pin) drawn from E27's nine-kind request
//! catalog in Zipf(1.1) proportion; every 800 requests the driver thread
//! applies a 4-mutation batch, publishes (refreshing the registered TC
//! view) and runs one compactor cycle, inline. `serve::{server, plan,
//! admission}`, `relal::snapshot` pins, `relal::eval` on warm tries and
//! `datalog::eval` scratch fixpoints do the work; bulk insert, trie
//! build, MPC and view maintenance do almost none.

use crate::api::{self, EvalStrategy, Fact, Program, Request, Server, Session, Snapshot};
use crate::gen::{self, Rng, Zipf};
use crate::stats::percentile;
use crate::trace::{durations, mean_us, total_ns, Tracer};
use crate::{Counts, Cx, Outcome, Size, Workload};
use std::sync::Arc;

/// The nine request kinds, hottest Zipf rank first (E27's order).
pub const KINDS: [&str; 9] = [
    "path2",
    "lookup_batch",
    "triangle_wcoj",
    "tc_view",
    "ucq",
    "star",
    "square_wcoj",
    "reach_scratch",
    "triangle_auto",
];

/// Span names of the real `execute*` call, one per kind, so the trace
/// file alone attributes time to kinds.
const EXEC_SPANS: [&str; 9] = [
    "serve.session.execute.path2",
    "serve.session.execute.lookup_batch",
    "serve.session.execute.triangle_wcoj",
    "serve.session.execute.tc_view",
    "serve.session.execute.ucq",
    "serve.session.execute.star",
    "serve.session.execute.square_wcoj",
    "serve.session.execute.reach_scratch",
    "serve.session.execute.triangle_auto",
];

const PROBE_SPANS: [&str; 9] = [
    "serve.admission.admit",
    "relal.snapshot.pin_if_newer",
    "relal.snapshot.pin",
    "serve.plan.hit",
    "serve.plan.miss",
    "relal.eval.query",
    "serve.view.frozen_hit",
    "datalog.eval.scratch",
    "relal.instance.contains",
];

const MAINTENANCE_SPANS: [&str; 4] = [
    "relal.snapshot.mutate",
    "relal.snapshot.publish_with",
    "serve.compact.merge",
    "serve.compact.install",
];

/// The fixed stream that shapes the `R`/`S`/`T` structure.
const SHAPE: u64 = 0xE27;

const TC: &str = "TC(x,y) <- E(x,y). TC(x,z) <- E(x,y), TC(y,z).";
const TRIANGLE: &str = "H(x,y,z) <- R(x,y), S(y,z), T(z,x)";

struct Spec {
    /// Path length of `E`. 160 is E27's size: the TC view holds ~13 k
    /// facts and a `reach` fixpoint takes 160 semi-naive rounds, so the
    /// instance stays cache-resident and evaluation, not memory, is
    /// what is timed.
    nodes: u64,
    /// Requests between publications (E27: 800). Also the deck size:
    /// each window holds every kind in exact Zipf proportion.
    window: u64,
    /// Every `repin`-th request re-pins (E27: 32), so most requests are
    /// served one or more generations behind the writer.
    repin: u64,
    /// Mutation groups; the writer's state repeats every `period`
    /// windows, which makes one cycle `period × window` requests.
    period: u64,
    /// Requests the 1-vs-2-reader probe gives each reader.
    scaling_requests: usize,
}

impl Spec {
    fn of(size: Size) -> Spec {
        match size {
            Size::Full => Spec {
                nodes: 160,
                window: 800,
                repin: 32,
                period: 4,
                scaling_requests: 1600,
            },
            Size::Small => Spec {
                nodes: 24,
                window: 60,
                repin: 8,
                period: 4,
                scaling_requests: 60,
            },
        }
    }
}

/// The workload's state.
pub struct ServeMix<'a> {
    spec: Spec,
    server: &'a Server,
    session: Session<'a>,
    views: Vec<(Program, EvalStrategy)>,
    catalog: Vec<Request>,
    /// One cycle of request kinds: `period` windows, each an exact-
    /// proportion Zipf deck in seeded order.
    deck: Vec<u8>,
    /// Mutation group `g`: two joining facts over `R`/`S`/`T`.
    groups: Vec<Vec<Fact>>,
    compactor: api::Compactor,
    /// Generation of the first publish; the logical state of generation
    /// `g` is `(g − base_generation) % period`.
    base_generation: u64,
    shadow: api::Shadow,
    /// Checked pass: oracle answers by `(kind, logical state)`.
    memo: Vec<Option<api::Answer>>,
    /// Checked pass: the isolation audit's pin and its triangle answer.
    audit: Option<(Arc<Snapshot>, Vec<Fact>)>,
    audit_query: api::ConjunctiveQuery,
    /// `Response::ops` and requests summed over the traced pass.
    traced_ops: u64,
}

fn catalog(cx: &mut Cx, nodes: u64) -> Vec<Request> {
    let t = &mut cx.tracer;
    // Even slots hit path edges, odd slots miss — half the bits are set.
    let lookups: Vec<gen::Tuple> = (0..8u64)
        .map(|k| {
            if k % 2 == 0 {
                ("E", vec![k, k + 1])
            } else {
                ("E", vec![k + nodes, k])
            }
        })
        .collect();
    let triangle = api::parse_query(t, TRIANGLE);
    vec![
        Request::Query(
            api::parse_query(t, "H(x,z) <- R(x,y), S(y,z)"),
            EvalStrategy::Auto,
        ),
        Request::Lookup(api::facts(&lookups)),
        Request::Query(triangle.clone(), EvalStrategy::Wcoj),
        Request::Program(api::parse_program(t, TC), EvalStrategy::Auto),
        Request::Union(
            api::parse_union(t, "H(x,z) <- R(x,y), S(y,z); H(x,z) <- E(x,y), E(y,z)"),
            EvalStrategy::Auto,
        ),
        Request::Query(
            api::parse_query(t, "H(a,b,c) <- E(x,a), E(x,b), E(x,c)"),
            EvalStrategy::Auto,
        ),
        Request::Query(
            api::parse_query(t, "H(x,y,z,w) <- E(x,y), E(y,z), E(z,w), E(w,x)"),
            EvalStrategy::Wcoj,
        ),
        Request::Program(
            api::parse_program(t, "Rch(x) <- Src(x). Rch(y) <- Rch(x), E(x,y)."),
            EvalStrategy::Auto,
        ),
        Request::Query(triangle, EvalStrategy::Auto),
    ]
}

/// Set the workload up and hand it to `f`.
pub fn run<R>(
    seed: u64,
    size: Size,
    cx: &mut Cx,
    f: impl FnOnce(&mut dyn Workload, &mut Cx) -> R,
) -> R {
    let spec = Spec::of(size);
    let n = spec.nodes;
    // The R/S/T structure (and the writer's facts below) is drawn from a
    // fixed stream and only *named* by the seed: every seed serves an
    // isomorphic instance, so join sizes — and with them the median
    // request's cost — do not move with the seed, while values, hash
    // and sort orders and the request order do.
    let shape = &mut Rng::new(SHAPE, 1);
    let labels = gen::permutation(n, &mut Rng::new(seed, 1));
    let base = gen::serving_base(n, shape, &labels);
    let catalog = catalog(cx, n);
    let views = vec![(api::parse_program(&mut cx.tracer, TC), EvalStrategy::Auto)];

    // Group g: two facts that join through a shared value, rotating
    // through (R,S), (S,T), (T,R), so path, triangle and union answers
    // move with the writer. `E` is never touched: retracting an edge
    // makes the TC view's DRed refresh cost hundreds of milliseconds,
    // which is `view_churn`'s subject — here publications must stay a
    // few percent of the wall time, as in E27.
    let groups: Vec<Vec<Fact>> = (0..spec.period)
        .map(|g| {
            let rels = ["R", "S", "T", "R"];
            let mut node = || labels[shape.below(n) as usize];
            let (a, b, c) = (node(), node(), node());
            let k = g as usize % 3;
            api::facts(&[(rels[k], vec![a, b]), (rels[k + 1], vec![b, c])])
        })
        .collect();

    // Exact Zipf(1.1) proportions per window (every kind at least twice,
    // so each is sampled in every window), order shuffled by the seed.
    let per_window = Zipf::new(KINDS.len(), 1.1).apportion(spec.window as usize, 2);
    let mut drng = Rng::new(seed, 3);
    let deck: Vec<u8> = (0..spec.period)
        .flat_map(|_| gen::deck(&per_window, &mut drng))
        .map(|k| k as u8)
        .collect();

    // The second half of the groups is present before batch 0 (see
    // `writer_batch`), so the state is already periodic at request 0.
    let mut initial = api::facts(&base);
    for g in &groups[spec.period as usize / 2..] {
        initial.extend(g.iter().cloned());
    }
    let warm: Vec<(&str, &[usize])> = ["E", "R", "S", "T"]
        .iter()
        .flat_map(|r| [(*r, &[0usize, 1][..]), (*r, &[1usize, 0][..])])
        .chain([("Src", &[0usize][..])])
        .collect();
    let inst = api::load(&mut cx.tracer, initial);
    let server = api::server(inst, 64, &views, &warm);
    if cx.tracer.is_on() {
        for req in &catalog {
            api::analyze_cold(&mut cx.tracer, req);
        }
    }

    let mut w = ServeMix {
        session: api::session(&server),
        base_generation: api::generation(&server),
        shadow: api::Shadow::new(&server),
        memo: vec![None; KINDS.len() * spec.period as usize],
        audit: None,
        audit_query: api::parse_query(&mut Tracer::off(), TRIANGLE),
        compactor: api::compactor(),
        server: &server,
        views,
        catalog,
        deck,
        groups,
        spec,
        traced_ops: 0,
    };
    // Warm-up: one request of every kind. Every cold analysis of the
    // run happens here (requests carry parsed queries, a new generation
    // re-prepares from the memoized analysis), so the count is exact.
    for k in 0..KINDS.len() {
        let req = w.catalog[k].clone();
        api::execute(&mut Tracer::off(), "", &mut w.session, &req, false);
    }
    cx.counts
        .set("serve.plan.analysis_misses", api::plan_stats(&w.session).2);
    f(&mut w, cx)
}

impl ServeMix<'_> {
    /// Batch `j`, applied before window `j`: insert group `j % period`,
    /// retract group `(j + period/2) % period` — 2 inserts and 2
    /// retracts, E27's 4-mutation batch. The groups present after batch
    /// `j` are the `period/2` most recent, so the writer's logical state
    /// depends only on `j % period` and the instance never grows.
    fn writer_batch(&mut self, j: u64, cx: &mut Cx) {
        let p = self.spec.period;
        let (add, gone) = ((j % p) as usize, ((j + p / 2) % p) as usize);
        let t = &mut cx.tracer;
        let changed = api::mutate(t, self.server, &self.groups[add], &self.groups[gone]);
        api::publish(
            t,
            "datalog.maintain.publish_views",
            self.server,
            &self.views,
        );
        api::compact(t, &mut self.compactor, self.server);
        if cx.check {
            cx.counts.add("serve_mix.mutations", changed);
            cx.counts.add("serve_mix.publications", 1);
        }
    }

    fn state_of(&self, generation: u64) -> usize {
        ((generation - self.base_generation) % self.spec.period) as usize
    }

    /// Checked pass: compare with the oracle's answer on the same pinned
    /// generation (memoized per kind and logical state).
    fn verify(&mut self, kind: usize, served: &api::Served) -> bool {
        let pin = api::pinned(&self.session);
        if pin.generation() != served.generation {
            return false;
        }
        let slot = kind * self.spec.period as usize + self.state_of(served.generation);
        let expected =
            self.memo[slot].get_or_insert_with(|| api::oracle(&self.catalog[kind], &pin));
        api::same_answer(&served.answer, expected)
    }

    /// E27's isolation audit: the triangle answer of a pin taken at the
    /// first checked request must be byte-identical whenever it is
    /// re-evaluated at the end of a window, after later publications.
    fn audit(&mut self, i: u64) -> bool {
        let answer = |snap: &Snapshot, q: &api::ConjunctiveQuery| {
            let inst = api::snapshot_instance(snap);
            let t = &mut Tracer::off();
            api::sorted_facts(&api::eval_query(t, "", q, inst, EvalStrategy::Wcoj))
        };
        match &self.audit {
            None => {
                let pin = api::pin(self.server);
                let before = answer(&pin, &self.audit_query);
                self.audit = Some((pin, before));
                true
            }
            Some((pin, before)) if i % self.spec.window == self.spec.window - 1 => {
                answer(pin, &self.audit_query) == *before
            }
            Some(_) => true,
        }
    }
}

impl Workload for ServeMix<'_> {
    fn cycle_len(&self) -> u64 {
        self.spec.period * self.spec.window
    }

    fn step(&mut self, i: u64, cx: &mut Cx) -> Outcome {
        if i % self.spec.window == 0 {
            self.writer_batch(i / self.spec.window, cx);
        }
        let pos = i % self.cycle_len();
        let kind = self.deck[pos as usize] as usize;
        let repin = i % self.spec.repin == self.spec.repin - 1;
        let of = cx.tracer.next_id();
        let served = api::execute(
            &mut cx.tracer,
            EXEC_SPANS[kind],
            &mut self.session,
            &self.catalog[kind],
            repin,
        );
        let Some(served) = served else {
            return Outcome {
                kind: kind as u8,
                lag: 0,
                rows: 0,
                ok: false,
            };
        };
        if cx.tracer.is_on() {
            self.traced_ops += served.ops;
            let req = &self.catalog[kind];
            api::probe_request(
                &mut cx.tracer,
                of,
                self.server,
                &mut self.shadow,
                req,
                repin,
            );
        }
        let mut ok = true;
        if cx.check {
            ok = self.verify(kind, &served) & self.audit(i);
            cx.counts.add("serve_mix.requests", 1);
            cx.counts.add("relal.eval.ops", served.ops);
        }
        Outcome {
            kind: kind as u8,
            lag: api::generation(self.server) - served.generation,
            rows: api::answer_rows(&served.answer),
            ok,
        }
    }

    fn slice_len(&self) -> u64 {
        self.spec.window
    }

    fn levels(&self, levels: &mut Counts) {
        let (hits, misses, _) = api::plan_stats(&self.session);
        levels.set("serve.plan.hits", hits);
        levels.set("serve.plan.misses", misses);
        levels.set("serve.server.refusals", api::refusals(self.server));
        let (installed, discarded) = api::compaction_stats(&self.compactor);
        levels.set("serve.compact.installed", installed);
        levels.set("serve.compact.discarded", discarded);
    }

    fn layer_metrics(&mut self, cx: &mut Cx) -> Vec<(String, f64)> {
        let scaling = self.reader_scaling();
        let spans = cx.tracer.spans();
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        let ratio = |a: &str, b: &str| mean_us(spans, a) / mean_us(spans, b).max(1e-9);
        put(
            "serve.plan.miss_vs_hit_ratio",
            ratio("serve.plan.miss", "serve.plan.hit"),
        );
        put(
            "serve.view.scratch_vs_frozen_ratio",
            ratio("datalog.eval.scratch", "serve.view.frozen_hit"),
        );
        put("serve.reader_scaling_2", scaling);

        // Per kind: median latency, and share of the attributed wall
        // time (all requests plus the inline maintenance).
        let exec: Vec<Vec<u64>> = EXEC_SPANS.iter().map(|n| durations(spans, n)).collect();
        let exec_ns: u64 = exec.iter().flatten().sum();
        let requests: usize = exec.iter().map(Vec::len).sum();
        let wall_ns = exec_ns
            + MAINTENANCE_SPANS
                .iter()
                .map(|n| total_ns(spans, n))
                .sum::<u64>();
        for (k, d) in KINDS.iter().zip(&exec) {
            let p50 = percentile(d, 500).map_or(0.0, |v| v as f64 / 1e3);
            put(&format!("serve.kind.{k}.p50_us"), p50);
            put(
                &format!("serve.kind.{k}.time_share"),
                d.iter().sum::<u64>() as f64 / wall_ns.max(1) as f64,
            );
        }
        let mut all: Vec<u64> = exec.into_iter().flatten().collect();
        all.sort_unstable();
        put(
            "serve.latency_p99_us",
            percentile(&all, 990).map_or(0.0, |v| v as f64 / 1e3),
        );
        // What `execute*` costs beyond the layers it calls: its span
        // minus the probes that repeat those calls, per request.
        let probe_ns: u64 = PROBE_SPANS.iter().map(|n| total_ns(spans, n)).sum();
        put(
            "serve.server.self_us",
            (exec_ns as f64 - probe_ns as f64) / requests.max(1) as f64 / 1e3,
        );
        put(
            "relal.eval.us_per_kop",
            exec_ns as f64 / 1e3 / (self.traced_ops.max(1) as f64 / 1e3),
        );

        // Exact counters of the checked pass.
        let c = &cx.counts;
        let reqs = c.get("serve_mix.requests").max(1) as f64;
        put(
            "relal.eval.ops_per_req",
            c.get("relal.eval.ops") as f64 / reqs,
        );
        put(
            "serve.plan.analysis_misses",
            c.get("serve.plan.analysis_misses") as f64,
        );
        put(
            "serve.server.refusals",
            c.get("serve.server.refusals") as f64,
        );
        let (h, m) = (
            c.get("serve.plan.hits") as f64,
            c.get("serve.plan.misses") as f64,
        );
        put("serve.plan.hit_rate", h / (h + m).max(1.0));
        out
    }
}

impl ServeMix<'_> {
    /// The lock-free-reads guard: the same requests on one session, then
    /// on two sessions on two threads, no writer. Returns aggregate
    /// throughput of two readers over one (≈ 2 on two free cores).
    fn reader_scaling(&self) -> f64 {
        let n = self.spec.scaling_requests.min(self.deck.len());
        let reader = || {
            let mut s = api::session(self.server);
            let t = &mut Tracer::off();
            let start = std::time::Instant::now();
            for &k in &self.deck[..n] {
                std::hint::black_box(api::execute(
                    t,
                    "",
                    &mut s,
                    &self.catalog[k as usize],
                    false,
                ));
            }
            start.elapsed().as_secs_f64()
        };
        let one = reader();
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            let a = scope.spawn(reader);
            let b = scope.spawn(reader);
            a.join().expect("reader thread");
            b.join().expect("reader thread");
        });
        let two = start.elapsed().as_secs_f64();
        2.0 * one / two.max(1e-9)
    }
}
