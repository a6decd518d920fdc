//! The closed-loop load harness for experiment E27.
//!
//! A closed loop with `readers` logical readers: each reader keeps
//! exactly one request outstanding, drawn from a fixed catalog of
//! requests (CQs, a UCQ, Datalog programs, a point-lookup batch) by a
//! **seeded Zipf sampler** — a few hot requests dominate, a long tail
//! exercises the cold paths. A concurrent writer applies seeded
//! mutation batches and publishes a new snapshot generation on a fixed
//! cadence; a compactor merges run stacks between publications.
//! Readers re-pin on their own cadence, so at any moment most readers
//! serve generations *behind* the writer — and the harness audits that
//! this is snapshot isolation, not staleness drift: before every
//! re-pin, the reader re-evaluates its audit query against the old pin
//! and counts a violation if a single byte moved.
//!
//! [`run_virtual`] runs the loop single-threaded and fully
//! deterministic. Work is measured in relational ops
//! (`parlog_relal::opcount`); the *makespan* of a k-reader run is the
//! largest per-reader op sum, so `makespan(1 reader) / makespan(k
//! readers)` is the deterministic read-scaling ratio: it is ≈ k exactly
//! because pinned reads share the sealed snapshot lock-free and nothing
//! serializes them. Per-window read loads flow through `parlog-trace` as
//! `Loads` events. Wall-clock serving is measured by `crates/perf`'s
//! `serve_mix` workload, and isolation on real threads by
//! `tests/isolation.rs`.

use crate::compact::VirtualCompactor;
use crate::server::{Answer, Request, Server};
use parlog_datalog::program::parse_program;
use parlog_relal::eval::{eval_query_with, EvalStrategy};
use parlog_relal::fact::{fact, Fact};
use parlog_relal::instance::Instance;
use parlog_relal::parser::{parse_query, parse_union};
use parlog_relal::query::ConjunctiveQuery;
use parlog_trace::{MemSink, TraceEvent, TraceHandle};
use std::sync::Arc;

/// A deterministic splitmix64 step.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny seeded PRNG (splitmix64 stream).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A seeded Zipf(s) sampler over ranks `0..n` (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    rng: Rng,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `s`, seeded by `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfSampler {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfSampler {
            cdf,
            rng: Rng(mix(seed)),
        }
    }

    /// Draw the next rank.
    pub fn draw(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The seeded base instance: a path graph `E` of `n` nodes (so the
/// transitive-closure view grows predictably), a fabric of seeded
/// `R`/`S`/`T` triangles for the cyclic queries, and a `Src` marker for
/// the reachability program.
pub fn seed_instance(n: usize, seed: u64) -> Instance {
    let mut rng = Rng(mix(seed ^ 0xE27));
    let mut inst = Instance::new();
    for i in 0..n as u64 {
        inst.insert(fact("E", &[i, i + 1]));
    }
    for _ in 0..n / 4 {
        let a = rng.below(n as u64);
        let b = rng.below(n as u64);
        let c = rng.below(n as u64);
        inst.insert(fact("R", &[a, b]));
        inst.insert(fact("S", &[b, c]));
        inst.insert(fact("T", &[c, a]));
    }
    for _ in 0..n / 4 {
        inst.insert(fact("R", &[rng.below(n as u64), rng.below(n as u64)]));
        inst.insert(fact("S", &[rng.below(n as u64), rng.below(n as u64)]));
    }
    inst.insert(fact("Src", &[0]));
    inst
}

/// The audit query (snapshot-isolation witness): the triangle join —
/// cyclic, WCOJ-evaluated, sensitive to every `R`/`S`/`T` byte.
fn audit_query() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
}

/// The transitive-closure program the server keeps materialized.
fn tc_program() -> parlog_datalog::program::Program {
    parse_program("TC(x,y) <- E(x,y). TC(x,z) <- E(x,y), TC(y,z).").unwrap()
}

/// Warm the writer's trie cache for every permutation the catalog can
/// request (all base relations are binary, `Src` unary), so published
/// snapshots serve those tries frozen — and so the writer's cache
/// accumulates real run stacks for the compactor to merge.
fn warm_writer(server: &Server) {
    use parlog_relal::symbols::rel;
    for r in ["E", "R", "S", "T"] {
        server.store().warm(rel(r), &[0, 1]);
        server.store().warm(rel(r), &[1, 0]);
    }
    server.store().warm(rel("Src"), &[0]);
}

/// The fixed request catalog, hot ranks first (the Zipf sampler maps
/// rank 0 to the first entry).
pub fn catalog(n: usize) -> Vec<(&'static str, Request)> {
    let path = parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap();
    let lookups: Vec<Fact> = (0..8u64)
        .map(|k| {
            if k % 2 == 0 {
                fact("E", &[k, k + 1])
            } else {
                fact("E", &[k + n as u64, k])
            }
        })
        .collect();
    let triangle = audit_query();
    let ucq = parse_union("H(x,z) <- R(x,y), S(y,z); H(x,z) <- E(x,y), E(y,z)").unwrap();
    let star = parse_query("H(a,b,c) <- E(x,a), E(x,b), E(x,c)").unwrap();
    let square = parse_query("H(x,y,z,w) <- E(x,y), E(y,z), E(z,w), E(w,x)").unwrap();
    let reach = parse_program("Rch(x) <- Src(x). Rch(y) <- Rch(x), E(x,y).").unwrap();
    vec![
        ("path2_indexed", Request::Query(path, EvalStrategy::Indexed)),
        ("lookup_batch", Request::Lookup(lookups)),
        (
            "triangle_wcoj",
            Request::Query(triangle.clone(), EvalStrategy::Wcoj),
        ),
        (
            "tc_view_auto",
            Request::Program(tc_program(), EvalStrategy::Auto),
        ),
        ("ucq_auto", Request::Union(ucq, EvalStrategy::Auto)),
        ("star_auto", Request::Query(star, EvalStrategy::Auto)),
        ("square_wcoj", Request::Query(square, EvalStrategy::Wcoj)),
        ("reach_scratch", Request::Program(reach, EvalStrategy::Auto)),
        (
            "triangle_auto",
            Request::Query(triangle, EvalStrategy::Auto),
        ),
    ]
}

/// Knobs for one harness run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// PRNG seed for the request stream and writer mutations.
    pub seed: u64,
    /// Base path-graph size handed to [`seed_instance`].
    pub nodes: usize,
    /// Total requests across all readers.
    pub requests: u64,
    /// Logical readers.
    pub readers: usize,
    /// Zipf exponent of the request mix.
    pub zipf_s: f64,
    /// Publish a new generation every this many requests.
    pub publish_every: u64,
    /// Mutations applied per publication.
    pub writer_batch: usize,
    /// Admission-gate capacity.
    pub capacity: usize,
    /// Per-reader staleness-probe cadence (requests between re-pins).
    pub repin_every: u64,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            seed: 0xE27,
            nodes: 160,
            requests: 20_000,
            readers: 4,
            zipf_s: 1.1,
            publish_every: 800,
            writer_batch: 4,
            capacity: 64,
            repin_every: 32,
        }
    }
}

/// The deterministic section of one virtual run. Every field is a pure
/// function of the [`WorkloadSpec`]; two runs diff byte-identical.
#[derive(Debug, Clone, serde::Serialize)]
pub struct VirtualReport {
    /// Readers simulated.
    pub readers: usize,
    /// Requests served (admitted and answered).
    pub requests: u64,
    /// Σ ops over all requests.
    pub total_ops: u64,
    /// max over readers of that reader's op sum — the closed-loop
    /// makespan on the op clock.
    pub makespan_ops: u64,
    /// Per-reader op sums.
    pub per_reader_ops: Vec<u64>,
    /// Requests per million makespan ops — the deterministic aggregate
    /// read throughput.
    pub throughput_per_mop: f64,
    /// Median request cost in ops.
    pub latency_ops_p50: u64,
    /// 99th-percentile request cost in ops.
    pub latency_ops_p99: u64,
    /// 99.9th-percentile request cost in ops.
    pub latency_ops_p999: u64,
    /// Largest request cost in ops.
    pub latency_ops_max: u64,
    /// Plan-cache hits across all sessions.
    pub plan_hits: u64,
    /// Plan-cache misses across all sessions.
    pub plan_misses: u64,
    /// `hits / (hits + misses)`.
    pub plan_hit_rate: f64,
    /// Full analyses run (the rest were reused across generations).
    pub analysis_misses: u64,
    /// Snapshot generations published by the writer.
    pub publications: u64,
    /// Distinct generations actually served to readers.
    pub generations_served: u64,
    /// Admission refusals (0 in a closed loop within capacity).
    pub refusals: u64,
    /// Snapshot-isolation audits performed (one per re-pin).
    pub isolation_checks: u64,
    /// Audits where a pinned answer changed — must be 0.
    pub isolation_violations: u64,
    /// Program requests answered from a frozen view output (0 ops).
    pub view_hits: u64,
    /// Compaction: merged stacks accepted at install time.
    pub compactions_installed: u64,
    /// Compaction: merged stacks rejected by install-time revalidation.
    pub compactions_discarded: u64,
    /// Publication windows traced as `Loads` events.
    pub trace_windows: u64,
    /// Worst `max/mean` per-reader balance across traced windows.
    pub window_balance_max: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One writer batch: extend the path (grows the TC view) up to a cap —
/// past it the transitive closure would grow quadratically with the
/// run's length — weave one triangle, drop one chord in, and
/// periodically retract an old chord (tombstones for the compactor to
/// chew on).
fn writer_batch(
    w: &mut Instance,
    rng: &mut Rng,
    next_node: &mut u64,
    max_node: u64,
    chords: &mut Vec<Fact>,
    batch: usize,
) {
    for j in 0..batch {
        match j % 4 {
            0 if *next_node < max_node => {
                w.insert(fact("E", &[*next_node, *next_node + 1]));
                *next_node += 1;
            }
            0 => {
                w.insert(fact("E", &[rng.below(max_node), rng.below(max_node)]));
            }
            1 => {
                let a = rng.below(*next_node);
                let b = rng.below(*next_node);
                let c = rng.below(*next_node);
                w.insert(fact("R", &[a, b]));
                w.insert(fact("S", &[b, c]));
                w.insert(fact("T", &[c, a]));
            }
            2 => {
                let chord = fact("R", &[rng.below(*next_node), rng.below(*next_node)]);
                w.insert(chord.clone());
                chords.push(chord);
            }
            _ => {
                if chords.len() > 2 {
                    let gone = chords.remove(0);
                    w.remove(&gone);
                }
            }
        }
    }
}

/// Run the closed loop single-threaded on the virtual op clock.
/// Deterministic: same spec, byte-identical report.
pub fn run_virtual(spec: &WorkloadSpec) -> VirtualReport {
    let base = seed_instance(spec.nodes, spec.seed);
    let server = Server::new(base, spec.capacity);
    server.register_view(tc_program(), EvalStrategy::Auto);
    warm_writer(&server);
    server.publish().expect("TC is stratifiable");

    let catalog = catalog(spec.nodes);
    let mut zipf = ZipfSampler::new(catalog.len(), spec.zipf_s, spec.seed);
    let mut wrng = Rng(mix(spec.seed ^ 0x17E5));
    let mut next_node = spec.nodes as u64;
    let mut chords: Vec<Fact> = Vec::new();
    let mut compactor = VirtualCompactor::new();

    let sink = Arc::new(MemSink::new());
    let trace = TraceHandle::to(Arc::clone(&sink) as Arc<dyn parlog_trace::TraceSink>);

    let mut sessions: Vec<_> = (0..spec.readers).map(|_| server.session()).collect();
    let audit = audit_query();
    // Per-reader audit baseline: the triangle answer at pin time.
    let mut baselines: Vec<Vec<Fact>> = sessions
        .iter_mut()
        .map(|s| {
            s.refresh_pin();
            eval_query_with(&audit, s.pinned().instance(), EvalStrategy::Wcoj).sorted_facts()
        })
        .collect();

    let mut per_reader_ops = vec![0u64; spec.readers];
    let mut per_reader_served = vec![0u64; spec.readers];
    let mut window_served = vec![0usize; spec.readers];
    let mut latencies: Vec<u64> = Vec::with_capacity(spec.requests as usize);
    let mut generations = std::collections::BTreeSet::new();
    let mut isolation_checks = 0u64;
    let mut isolation_violations = 0u64;
    let mut view_hits = 0u64;
    let mut window = 0usize;

    for i in 0..spec.requests {
        let reader = (i % spec.readers as u64) as usize;

        // Writer + compactor interleaving slot.
        if i > 0 && i % spec.publish_every == 0 {
            server.store().mutate(|w| {
                writer_batch(
                    w,
                    &mut wrng,
                    &mut next_node,
                    2 * spec.nodes as u64,
                    &mut chords,
                    spec.writer_batch,
                );
            });
            server.publish().expect("TC refresh stays stratifiable");
            compactor.cycle(server.store());
            trace.record(TraceEvent::Loads {
                round: window,
                received: &window_served,
            });
            window += 1;
            window_served.iter_mut().for_each(|c| *c = 0);
        }

        // Staleness-probe cadence: audit the old pin, then re-pin.
        if per_reader_served[reader] % spec.repin_every == spec.repin_every - 1 {
            let now = eval_query_with(
                &audit,
                sessions[reader].pinned().instance(),
                EvalStrategy::Wcoj,
            )
            .sorted_facts();
            isolation_checks += 1;
            if now != baselines[reader] {
                isolation_violations += 1;
            }
            if sessions[reader].refresh_pin() {
                baselines[reader] = eval_query_with(
                    &audit,
                    sessions[reader].pinned().instance(),
                    EvalStrategy::Wcoj,
                )
                .sorted_facts();
            }
        }

        let (_, req) = &catalog[zipf.draw()];
        let resp = sessions[reader]
            .execute_pinned(req)
            .expect("closed loop stays within capacity");
        per_reader_ops[reader] += resp.ops;
        per_reader_served[reader] += 1;
        window_served[reader] += 1;
        latencies.push(resp.ops);
        generations.insert(resp.generation);
        if matches!(req, Request::Program(..)) && resp.ops == 0 {
            view_hits += 1;
        }
        debug_assert!(matches!(resp.answer, Answer::Relation(_) | Answer::Bits(_)));
    }
    if window_served.iter().any(|&c| c > 0) {
        trace.record(TraceEvent::Loads {
            round: window,
            received: &window_served,
        });
    }

    let mut plan_hits = 0u64;
    let mut plan_misses = 0u64;
    let mut analysis_misses = 0u64;
    for s in &sessions {
        let st = s.plan_stats();
        plan_hits += st.hits;
        plan_misses += st.misses;
        analysis_misses += st.analysis_misses;
    }
    latencies.sort_unstable();
    let total_ops: u64 = per_reader_ops.iter().sum();
    let makespan_ops = per_reader_ops.iter().copied().max().unwrap_or(0);
    let rounds = sink.rounds();
    let window_balance_max = rounds
        .iter()
        .filter(|r| r.total > 0)
        .map(|r| r.max as f64 / (r.total as f64 / r.servers as f64))
        .fold(0.0f64, f64::max);

    VirtualReport {
        readers: spec.readers,
        requests: spec.requests,
        total_ops,
        makespan_ops,
        per_reader_ops,
        throughput_per_mop: if makespan_ops == 0 {
            0.0
        } else {
            spec.requests as f64 * 1.0e6 / makespan_ops as f64
        },
        latency_ops_p50: percentile(&latencies, 0.50),
        latency_ops_p99: percentile(&latencies, 0.99),
        latency_ops_p999: percentile(&latencies, 0.999),
        latency_ops_max: latencies.last().copied().unwrap_or(0),
        plan_hits,
        plan_misses,
        plan_hit_rate: if plan_hits + plan_misses == 0 {
            1.0
        } else {
            plan_hits as f64 / (plan_hits + plan_misses) as f64
        },
        analysis_misses,
        publications: server.store().publish_count(),
        generations_served: generations.len() as u64,
        refusals: server.gate().refused(),
        isolation_checks,
        isolation_violations,
        view_hits,
        compactions_installed: compactor.stats().installed,
        compactions_discarded: compactor.stats().discarded,
        trace_windows: rounds.len() as u64,
        window_balance_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            requests: 1200,
            nodes: 48,
            publish_every: 150,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let mut a = ZipfSampler::new(8, 1.1, 7);
        let mut b = ZipfSampler::new(8, 1.1, 7);
        let draws: Vec<usize> = (0..200).map(|_| a.draw()).collect();
        assert_eq!(draws, (0..200).map(|_| b.draw()).collect::<Vec<_>>());
        let hot = draws.iter().filter(|&&r| r == 0).count();
        let cold = draws.iter().filter(|&&r| r == 7).count();
        assert!(hot > cold, "rank 0 ({hot}) should dominate rank 7 ({cold})");
    }

    #[test]
    fn virtual_run_is_deterministic() {
        let spec = small_spec();
        let a = run_virtual(&spec);
        let b = run_virtual(&spec);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.isolation_violations, 0);
        assert_eq!(a.refusals, 0);
        assert!(a.publications > 1);
        assert!(a.generations_served > 1);
        assert!(a.view_hits > 0, "TC requests should hit the frozen view");
    }

    #[test]
    fn read_scaling_is_near_linear_on_the_op_clock() {
        let one = run_virtual(&WorkloadSpec {
            readers: 1,
            ..small_spec()
        });
        let four = run_virtual(&WorkloadSpec {
            readers: 4,
            ..small_spec()
        });
        let speedup = one.makespan_ops as f64 / four.makespan_ops as f64;
        assert!(
            speedup >= 3.0,
            "expected ≥3× read scaling at 4 readers, got {speedup:.2} \
             (makespans {} vs {})",
            one.makespan_ops,
            four.makespan_ops
        );
    }
}
