//! Every call the benchmark makes into a `parlog-*` crate, in one place.
//!
//! This module is the API surface the benchmark pins (listed in
//! `README.md`): a refactoring PR that moves one of these functions sees
//! here exactly what must keep working. Each wrapper is one public call
//! of the program plus, when the [`Tracer`] is on, the span around it —
//! layers are measured from outside, never from spans inside the program.
//! The workload modules handle the re-exported types as opaque values and
//! call nothing on them directly.

use crate::gen::Tuple;
use crate::trace::Tracer;
use parlog_datalog::eval::{eval_program_naive as datalog_naive, eval_program_scratch};
use parlog_datalog::maintain::{publish_views, view_key_for, view_stats};
use parlog_mpc::algorithms::gym::Gym;
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_mpc::{Cluster, HypercubeAlgorithm, SkewAdaptiveJoin, SkewConfig};
use parlog_relal::eval::{eval_query_with, eval_union_with};
use parlog_relal::packing::{fractional_edge_cover, fractional_edge_packing};
use parlog_relal::symbols::rel;
use parlog_serve::plan::analyze;
use parlog_serve::PlanCache;
use parlog_trace::LoadBound;
use parlog_verify::checker::check_cluster;
use parlog_verify::prove_ucq;
use std::sync::Arc;

pub use parlog_datalog::program::Program;
pub use parlog_relal::eval::EvalStrategy;
pub use parlog_relal::{ConjunctiveQuery, Fact, Instance, Snapshot, UnionQuery};
pub use parlog_serve::VirtualCompactor as Compactor;
pub use parlog_serve::{Answer, Request, Server, Session};

// ---------------------------------------------------------------- relal

/// A generated tuple as a program fact.
pub fn fact(t: &Tuple) -> Fact {
    parlog_relal::fact::fact(t.0, &t.1)
}

/// Generated tuples as program facts.
pub fn facts(ts: &[Tuple]) -> Vec<Fact> {
    ts.iter().map(fact).collect()
}

/// `Instance::from_facts` — span `relal.instance.insert`.
pub fn load(t: &mut Tracer, fs: Vec<Fact>) -> Instance {
    t.leaf("relal.instance.insert", || Instance::from_facts(fs))
}

/// First-touch `Instance::trie_layers(rel, perm)` — span
/// `relal.trie.build`.
pub fn build_trie(t: &mut Tracer, inst: &Instance, name: &str, perm: &[usize]) {
    let r = rel(name);
    t.leaf("relal.trie.build", || {
        std::hint::black_box(inst.trie_layers(r, perm));
    });
}

/// `Instance::relation_len`.
pub fn relation_len(inst: &Instance, name: &str) -> usize {
    inst.relation_len(rel(name))
}

/// `Instance::len`.
pub fn rows(inst: &Instance) -> u64 {
    inst.len() as u64
}

/// `Instance == Instance`.
pub fn same(a: &Instance, b: &Instance) -> bool {
    a == b
}

/// `Instance::sorted_facts`.
pub fn sorted_facts(inst: &Instance) -> Vec<Fact> {
    inst.sorted_facts()
}

/// `parse_query` — span `relal.parser.parse`.
pub fn parse_query(t: &mut Tracer, src: &str) -> ConjunctiveQuery {
    t.leaf("relal.parser.parse", || {
        parlog_relal::parser::parse_query(src).expect("benchmark query parses")
    })
}

/// `parse_union` — span `relal.parser.parse`.
pub fn parse_union(t: &mut Tracer, src: &str) -> UnionQuery {
    t.leaf("relal.parser.parse", || {
        parlog_relal::parser::parse_union(src).expect("benchmark union parses")
    })
}

/// `parse_program` — span `relal.parser.parse`.
pub fn parse_program(t: &mut Tracer, src: &str) -> Program {
    t.leaf("relal.parser.parse", || {
        parlog_datalog::program::parse_program(src).expect("benchmark program parses")
    })
}

/// `eval_query_with` — span `name`.
pub fn eval_query(
    t: &mut Tracer,
    name: &'static str,
    q: &ConjunctiveQuery,
    inst: &Instance,
    strategy: EvalStrategy,
) -> Instance {
    t.leaf(name, || eval_query_with(q, inst, strategy))
}

/// `opcount::reset`.
pub fn ops_reset() {
    parlog_relal::opcount::reset();
}

/// `opcount::read`.
pub fn ops_read() -> u64 {
    parlog_relal::opcount::read()
}

/// `m^{ρ*}` with `ρ*` from `fractional_edge_cover` — the AGM bound.
pub fn agm_bound(q: &ConjunctiveQuery, m: usize) -> f64 {
    let rho = fractional_edge_cover(q).expect("edge cover LP").value;
    (m as f64).powf(rho)
}

// -------------------------------------------------------------- datalog

/// `eval_program_scratch` — span `datalog.eval.scratch`.
pub fn eval_scratch(t: &mut Tracer, p: &Program, inst: &Instance, s: EvalStrategy) -> Instance {
    t.leaf("datalog.eval.scratch", || {
        eval_program_scratch(p, inst, s).expect("benchmark program stratifies")
    })
}

// ---------------------------------------------------------------- serve

/// `Server::new`, then `register_view` for each view, `SnapshotStore::
/// warm` for each `(relation, permutation)`, and the first publish.
pub fn server(
    base: Instance,
    capacity: usize,
    views: &[(Program, EvalStrategy)],
    warm: &[(&str, &[usize])],
) -> Server {
    let server = Server::new(base, capacity);
    for (p, s) in views {
        server.register_view(p.clone(), *s);
    }
    for (name, perm) in warm {
        server.store().warm(rel(name), perm);
    }
    server.publish().expect("benchmark views stratify");
    server
}

/// `Server::session`.
pub fn session(server: &Server) -> Session<'_> {
    server.session()
}

/// `Session::execute` (`repin`) or `Session::execute_pinned` — span
/// `name`. `None` for a refusal or a serving error.
pub fn execute(
    t: &mut Tracer,
    name: &'static str,
    session: &mut Session<'_>,
    req: &Request,
    repin: bool,
) -> Option<Served> {
    let r = t.leaf(name, || {
        if repin {
            session.execute(req)
        } else {
            session.execute_pinned(req)
        }
    });
    r.ok().map(|r| Served {
        answer: r.answer,
        generation: r.generation,
        ops: r.ops,
    })
}

/// The parts of a `Response` the benchmark reads.
#[derive(Debug, Clone)]
pub struct Served {
    /// The payload.
    pub answer: Answer,
    /// The snapshot generation it was answered against.
    pub generation: u64,
    /// `Response::ops`.
    pub ops: u64,
}

/// Rows of a relational answer, set bits of a lookup answer.
pub fn answer_rows(a: &Answer) -> u64 {
    match a {
        Answer::Relation(r) => r.len() as u64,
        Answer::Bits(b) => b.iter().filter(|&&x| x).count() as u64,
    }
}

/// `Session::pinned`.
pub fn pinned(session: &Session<'_>) -> Arc<Snapshot> {
    Arc::clone(session.pinned())
}

/// `Snapshot::instance`.
pub fn snapshot_instance(snap: &Snapshot) -> &Instance {
    snap.instance()
}

/// `Session::plan_stats` as `(hits, misses, analysis_misses)`.
pub fn plan_stats(session: &Session<'_>) -> (u64, u64, u64) {
    let s = session.plan_stats();
    (s.hits, s.misses, s.analysis_misses)
}

/// `SnapshotStore::generation`.
pub fn generation(server: &Server) -> u64 {
    server.store().generation()
}

/// `SnapshotStore::pin`.
pub fn pin(server: &Server) -> Arc<Snapshot> {
    server.store().pin()
}

/// `AdmissionGate::refused`.
pub fn refusals(server: &Server) -> u64 {
    server.gate().refused()
}

/// `SnapshotStore::mutate` applying `Instance::insert` / `Instance::
/// remove` — span `relal.snapshot.mutate`. Returns how many facts
/// actually changed.
pub fn mutate(t: &mut Tracer, server: &Server, insert: &[Fact], remove: &[Fact]) -> u64 {
    t.leaf("relal.snapshot.mutate", || {
        server.store().mutate(|w| {
            let mut changed = 0;
            for f in insert {
                changed += w.insert(f.clone()) as u64;
            }
            for f in remove {
                changed += w.remove(f) as u64;
            }
            changed
        })
    })
}

/// `Server::publish`. With the tracer on, the same two steps
/// `Server::publish` takes are made from here so that the view refresh
/// gets its own span: `SnapshotStore::publish_with` (span
/// `relal.snapshot.publish_with`) around `publish_views` (span
/// `refresh_span`). Returns the new generation.
pub fn publish(
    t: &mut Tracer,
    refresh_span: &'static str,
    server: &Server,
    views: &[(Program, EvalStrategy)],
) -> u64 {
    if !t.is_on() {
        return server
            .publish()
            .expect("benchmark views stratify")
            .generation();
    }
    t.span("relal.snapshot.publish_with", |t| {
        server
            .store()
            .publish_with(|w| {
                t.leaf(refresh_span, || {
                    publish_views(w, views).expect("benchmark views stratify")
                })
            })
            .generation()
    })
}

/// `VirtualCompactor::new`.
pub fn compactor() -> Compactor {
    Compactor::new()
}

/// One compactor cycle: `tick_merge` (span `serve.compact.merge`) then
/// `tick_install` (span `serve.compact.install`).
pub fn compact(t: &mut Tracer, c: &mut Compactor, server: &Server) {
    t.leaf("serve.compact.merge", || c.tick_merge(server.store()));
    t.leaf("serve.compact.install", || c.tick_install(server.store()));
}

/// `VirtualCompactor::stats` as `(installed, discarded)`.
pub fn compaction_stats(c: &Compactor) -> (u64, u64) {
    let s = c.stats();
    (s.installed, s.discarded)
}

/// Deepest run stack and largest tombstone set among the writer's
/// `Instance::compaction_candidates`, and its `Instance::trie_builds`.
pub fn lsm_depth(server: &Server) -> (u64, u64, u64) {
    server.store().with_writer(|w| {
        let cands = w.compaction_candidates();
        let runs = cands.iter().map(|c| c.2.run_count()).max().unwrap_or(1);
        let tombs = cands.iter().map(|c| c.2.tombstone_count()).max();
        (runs as u64, tombs.unwrap_or(0) as u64, w.trie_builds())
    })
}

/// `view_stats(..).full_rebuilds` of a registered view on the writer.
pub fn view_full_rebuilds(server: &Server, p: &Program, s: EvalStrategy) -> u64 {
    server
        .store()
        .with_writer(|w| view_stats(p, w, s).map_or(0, |v| v.full_rebuilds))
}

/// `plan::analyze` on a relational request (GYO, ρ*/τ*, share LP, WCOJ
/// order) — span `serve.plan.analyze`. Nothing for other requests.
pub fn analyze_cold(t: &mut Tracer, req: &Request) {
    let (disjuncts, s) = match req {
        Request::Query(q, s) => (std::slice::from_ref(q), *s),
        Request::Union(u, s) => (&u.disjuncts[..], *s),
        _ => return,
    };
    t.leaf("serve.plan.analyze", || {
        std::hint::black_box(analyze(disjuncts, s));
    });
}

/// The harness's own plan cache and pin, mirroring a session's, for the
/// per-request probes.
#[derive(Debug)]
pub struct Shadow {
    plans: PlanCache,
    pin: Arc<Snapshot>,
}

impl Shadow {
    /// `PlanCache::new` and `SnapshotStore::pin`.
    pub fn new(server: &Server) -> Shadow {
        Shadow {
            plans: PlanCache::new(),
            pin: server.store().pin(),
        }
    }
}

/// Repeat, as probes of span `of`, the public calls `Session::execute*`
/// makes for `req`: `AdmissionGate::try_admit`; on a re-pinning request
/// `SnapshotStore::pin_if_newer` and `SnapshotStore::pin`; `PlanCache::
/// prepare_*` on the shadow cache (span `serve.plan.hit` or
/// `serve.plan.miss`); then the evaluation against the pin —
/// `eval_query_with` / `eval_union_with` (span `relal.eval.query`),
/// `Snapshot::view_output` (span `serve.view.frozen_hit`) or
/// `eval_program_scratch` (span `datalog.eval.scratch`), or
/// `Instance::contains` per fact (span `relal.instance.contains`).
pub fn probe_request(
    t: &mut Tracer,
    of: u32,
    server: &Server,
    shadow: &mut Shadow,
    req: &Request,
    repin: bool,
) {
    drop(t.probe(of, "serve.admission.admit", || server.gate().try_admit()));
    if repin {
        let pin = &mut shadow.pin;
        t.probe(of, "relal.snapshot.pin_if_newer", || {
            server.store().pin_if_newer(pin)
        });
        drop(t.probe(of, "relal.snapshot.pin", || server.store().pin()));
    }
    let Shadow { plans, pin } = shadow;
    let generation = pin.generation();
    let inst = pin.instance();
    let named = |hit: bool| {
        if hit {
            "serve.plan.hit"
        } else {
            "serve.plan.miss"
        }
    };
    match req {
        Request::Query(q, s) => {
            t.probe_as(of, || {
                let (_, hit) = plans.prepare_relational(std::slice::from_ref(q), *s, generation);
                (named(hit), ())
            });
            t.probe(of, "relal.eval.query", || {
                std::hint::black_box(eval_query_with(q, inst, *s));
            });
        }
        Request::Union(u, s) => {
            t.probe_as(of, || {
                let (_, hit) = plans.prepare_relational(&u.disjuncts, *s, generation);
                (named(hit), ())
            });
            t.probe(of, "relal.eval.query", || {
                std::hint::black_box(eval_union_with(u, inst, *s));
            });
        }
        Request::Program(p, s) => {
            t.probe_as(of, || {
                let (_, hit) = plans.prepare_program(p, *s, pin);
                (named(hit), ())
            });
            let key = view_key_for(p, *s);
            let frozen = t.probe(of, "serve.view.frozen_hit", || pin.view_output(key));
            if frozen.is_none() {
                t.probe(of, "datalog.eval.scratch", || {
                    std::hint::black_box(eval_program_scratch(p, inst, *s).ok());
                });
            }
        }
        Request::Lookup(batch) => {
            t.probe(of, "relal.instance.contains", || {
                for f in batch {
                    std::hint::black_box(inst.contains(f));
                }
            });
        }
    }
}

/// The oracle's answer to `req` on the pinned snapshot, computed by a
/// *different* evaluator than the one the request exercises: a query
/// that resolves to WCOJ is checked by the indexed backtracker and vice
/// versa; a program answered from a frozen, incrementally maintained
/// view by the from-scratch semi-naive fixpoint, and a program answered
/// by that fixpoint by the naive one; a lookup by a relation scan.
/// (`EvalStrategy::Naive` enumerates `adom^vars` valuations — hours for
/// the four-variable requests — and the naive fixpoint of a 13 k-fact
/// closure takes a second per generation, so the differential pairs are
/// the oracle.)
pub fn oracle(req: &Request, snap: &Snapshot) -> Answer {
    let inst = snap.instance();
    let flip = |q: &ConjunctiveQuery, s: EvalStrategy| match s.resolve(q) {
        EvalStrategy::Wcoj => EvalStrategy::Indexed,
        _ => EvalStrategy::Wcoj,
    };
    match req {
        Request::Query(q, s) => Answer::Relation(Arc::new(eval_query_with(q, inst, flip(q, *s)))),
        Request::Union(u, s) => {
            let mut out = Instance::new();
            for d in &u.disjuncts {
                out.extend_from(&eval_query_with(d, inst, flip(d, *s)));
            }
            Answer::Relation(Arc::new(out))
        }
        Request::Program(p, s) => {
            let out = if snap.view_output(view_key_for(p, *s)).is_some() {
                eval_program_scratch(p, inst, *s).expect("benchmark program stratifies")
            } else {
                datalog_naive(p, inst).expect("benchmark program stratifies")
            };
            Answer::Relation(Arc::new(out))
        }
        Request::Lookup(batch) => Answer::Bits(
            batch
                .iter()
                .map(|f| inst.relation(f.rel).any(|g| g == f))
                .collect(),
        ),
    }
}

/// Do two answers carry the same rows / bits?
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Relation(x), Answer::Relation(y)) => x == y,
        (Answer::Bits(x), Answer::Bits(y)) => x == y,
        _ => false,
    }
}

// ------------------------------------------------------------------ mpc

/// What one MPC job produced and cost in the model's own currency.
#[derive(Debug, Clone)]
pub struct Job {
    /// Union of the servers' outputs.
    pub output: Instance,
    /// `Cluster::max_load` / `RunStats::max_load`.
    pub max_load: u64,
    /// `Cluster::total_comm` / `RunStats::total_comm`.
    pub total_comm: u64,
    /// Communication rounds.
    pub rounds: u64,
    /// The load the theory predicts for this job.
    pub predicted_load: f64,
}

/// `LoadBound::new(m, p, 1/τ*).predicted` with `τ*` from
/// `fractional_edge_packing`.
pub fn load_bound(q: &ConjunctiveQuery, m: usize, p: usize) -> f64 {
    let tau = fractional_edge_packing(q).expect("edge packing LP").value;
    LoadBound::new(m, p, 1.0 / tau).predicted
}

/// `Cluster::new(p).with_parallelism(threads)` and `seed_cluster(..,
/// RoundRobin)` — span `mpc.partition.seed`.
fn seeded(t: &mut Tracer, db: &Instance, p: usize, threads: usize) -> Cluster {
    t.leaf("mpc.partition.seed", || {
        let mut c = Cluster::new(p).with_parallelism(threads);
        seed_cluster(&mut c, db, InitialPartition::RoundRobin);
        c
    })
}

/// One HyperCube job from statistics to unioned output:
/// `HypercubeAlgorithm::new` (span `mpc.shares.plan`), seed, `Cluster::
/// communicate` over `HypercubeAlgorithm::destinations` (span
/// `mpc.cluster.communicate`), `Cluster::compute_query` (span
/// `mpc.cluster.compute`), `Cluster::union_all` (span
/// `mpc.cluster.union`).
pub fn hypercube_job(
    t: &mut Tracer,
    q: &ConjunctiveQuery,
    db: &Instance,
    p: usize,
    threads: usize,
) -> Job {
    let hc = t.leaf("mpc.shares.plan", || {
        HypercubeAlgorithm::new(q, p).expect("share LP")
    });
    let mut c = seeded(t, db, hc.servers(), threads);
    t.leaf("mpc.cluster.communicate", || {
        c.communicate(|f| hc.destinations(f));
    });
    t.leaf("mpc.cluster.compute", || {
        c.compute_query(q, EvalStrategy::Auto)
    });
    let output = t.leaf("mpc.cluster.union", || c.union_all());
    Job {
        output,
        max_load: c.max_load() as u64,
        total_comm: c.total_comm() as u64,
        rounds: c.round_count() as u64,
        predicted_load: load_bound(q, db.len(), hc.servers()),
    }
}

/// A HyperCube job whose computation phase is verified: after routing,
/// every server proves its answer (`prove_ucq`, span
/// `verify.certificate.prove` around all servers) and the trusted
/// checker validates the round (`check_cluster`, span
/// `verify.checker.check`). Returns the job, the certificate bytes, and
/// whether the checker accepted.
pub fn verified_hypercube_job(
    t: &mut Tracer,
    q: &ConjunctiveQuery,
    db: &Instance,
    p: usize,
) -> (Job, u64, bool) {
    let hc = t.leaf("mpc.shares.plan", || {
        HypercubeAlgorithm::new(q, p).expect("share LP")
    });
    let mut c = seeded(t, db, hc.servers(), 1);
    t.leaf("mpc.cluster.communicate", || {
        c.communicate(|f| hc.destinations(f));
    });
    let u = UnionQuery::new(vec![q.clone()]);
    let shards: Vec<Instance> = (0..c.p()).map(|s| c.local(s).clone()).collect();
    let (answers, certs): (Vec<_>, Vec<_>) = t.leaf("verify.certificate.prove", || {
        shards
            .iter()
            .enumerate()
            .map(|(s, shard)| prove_ucq(s, &u, shard, EvalStrategy::Auto))
            .unzip()
    });
    let accepted = t.leaf("verify.checker.check", || {
        check_cluster(&u, &shards, &answers, &certs).is_ok()
    });
    let bytes = certs.iter().map(|c| c.size_bytes() as u64).sum();
    let output = t.leaf("mpc.cluster.union", || {
        let mut out = Instance::new();
        for a in &answers {
            out.extend_from(a);
        }
        out
    });
    let job = Job {
        output,
        max_load: c.max_load() as u64,
        total_comm: c.total_comm() as u64,
        rounds: c.round_count() as u64,
        predicted_load: load_bound(q, db.len(), hc.servers()),
    };
    (job, bytes, accepted)
}

/// One skew-adaptive job: `SkewAdaptiveJoin::from_stats` (span
/// `mpc.skew_rounds.plan`), then `run_on` a fresh sequential cluster
/// (span `mpc.skew_rounds.run`). The predicted load is the plan's own
/// `load_bound().predicted`.
pub fn skew_job(t: &mut Tracer, q: &ConjunctiveQuery, db: &Instance, p: usize) -> Job {
    let alg = t.leaf("mpc.skew_rounds.plan", || {
        SkewAdaptiveJoin::from_stats(q, db, p, SkewConfig::default())
    });
    let r = t.leaf("mpc.skew_rounds.run", || {
        let mut c = Cluster::new(alg.servers()).with_parallelism(1);
        alg.run_on(&mut c, db)
    });
    Job {
        output: r.output,
        max_load: r.stats.max_load as u64,
        total_comm: r.stats.total_comm as u64,
        rounds: r.stats.rounds as u64,
        predicted_load: alg.load_bound().predicted,
    }
}

/// One GYM job: `Gym::new(q, p, seed).run(db)` — span `mpc.gym.run`.
pub fn gym_job(t: &mut Tracer, q: &ConjunctiveQuery, db: &Instance, p: usize, seed: u64) -> Job {
    let r = t.leaf("mpc.gym.run", || Gym::new(q, p, seed).run(db));
    Job {
        output: r.output,
        max_load: r.stats.max_load as u64,
        total_comm: r.stats.total_comm as u64,
        rounds: r.stats.rounds as u64,
        predicted_load: load_bound(q, db.len(), p),
    }
}
