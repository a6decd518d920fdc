//! `view_churn` — writes beside reads: the same snapshot, instance and
//! LSM layers as `serve_mix`, used the other way round.
//!
//! One operation is one delta batch: `SnapshotStore::mutate` →
//! `Server::publish` (which refreshes E25's two programs, registered as
//! views: transitive closure over a chain, maintained by DRed, and the
//! `J`/`K` join cascade, maintained by counting) → one compactor cycle →
//! one `execute` of the TC view and one 8-fact `Lookup`.
//! `datalog::maintain`, delta logs, the copy-on-write clone and seal in
//! `publish`, LSM runs and tombstones and `serve::compact` dominate;
//! query evaluation does almost none.

use crate::api::{self, EvalStrategy, Fact, Program, Request, Server, Session};
use crate::gen::{self, Rng, Tuple};
use crate::trace::{durations, mean_us, self_ns, total_ns, Tracer};
use crate::{Counts, Cx, Outcome, Size, Workload};

/// Operation kinds: three insert batches to every retract batch, so the
/// median operation is an insert batch and the 90th percentile a
/// retract batch, and neither percentile sits on the boundary.
pub const KINDS: [&str; 2] = ["insert_batch", "retract_batch"];

const TC: &str = "T(x,y) <- E(x,y)\nT(x,z) <- E(x,y), T(y,z)";
/// E25's cascade with its `E` renamed `A`, so both programs share one
/// instance.
const CASCADE: &str = "J(x,z) <- A(x,y), F(y,z)\nK(x,w) <- J(x,y), F(y,w)";

struct Spec {
    /// Chain length and cascade size. E25's second tier, 64: retracting
    /// a chord costs DRed tens of milliseconds there and over a second
    /// at 128 (ten times the from-scratch fixpoint), and a run needs
    /// hundreds of batches for its percentiles.
    n: u64,
    /// Groups per cycle; one group is three insert batches and the
    /// retract batch that removes the *previous* group's inserts, so
    /// retracted facts have lived through publishes and compactions.
    groups: u64,
    /// Scratch fixpoints the scratch-vs-refresh probe averages.
    scratch_reps: usize,
}

impl Spec {
    fn of(size: Size) -> Spec {
        match size {
            Size::Full => Spec {
                n: 64,
                groups: 8,
                scratch_reps: 5,
            },
            Size::Small => Spec {
                n: 24,
                groups: 3,
                scratch_reps: 1,
            },
        }
    }
}

/// One delta batch and the lookups that follow it.
struct Batch {
    insert: Vec<Fact>,
    remove: Vec<Fact>,
    lookup: Request,
}

/// The workload's state.
pub struct ViewChurn<'a> {
    spec: Spec,
    server: &'a Server,
    session: Session<'a>,
    views: Vec<(Program, EvalStrategy)>,
    tc_request: Request,
    cascade_request: Request,
    batches: Vec<Batch>,
    compactor: api::Compactor,
    shadow: api::Shadow,
    /// Facts changed by `mutate` over the traced pass.
    traced_facts: u64,
}

/// Group `g`'s three insert batches. Each adds one `E` edge and one `A`
/// fact. The `E` edges are two spurs (a fresh leaf under a chain node:
/// Θ(position) new closure facts) and one forward chord a quarter of the
/// chain long (no new closure facts, but its retraction makes DRed
/// overdelete and rederive every pair it could have supported). What a
/// refresh costs depends steeply on *where* in the chain the edge sits,
/// and on which other edges are present, so positions and order are
/// fixed — group `g` works at thirds of the `g`-th stretch — and the
/// seed decides only which cascade hubs the `A` facts feed: every seed
/// pays the same closure-maintenance bill.
fn group_inserts(g: u64, spec: &Spec, rng: &mut Rng) -> [Vec<Tuple>; 3] {
    let stretch = (spec.n / spec.groups).max(3);
    let at = |third: u64| (1 + g * stretch + third * stretch / 3).min(spec.n - 2);
    let mut a = |k: u64| ("A", vec![800_000 + 3 * g + k, rng.below(16)]);
    let spur1 = ("E", vec![at(1), 900_000 + 2 * g]);
    let spur2 = ("E", vec![at(2), 900_001 + 2 * g]);
    let chord = ("E", vec![at(0), (at(0) + spec.n / 4).min(spec.n)]);
    [vec![spur1, a(0)], vec![spur2, a(1)], vec![chord, a(2)]]
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
    let tc = api::parse_program(t, TC);
    let cascade = api::parse_program(t, CASCADE);
    let views = vec![
        (tc.clone(), EvalStrategy::Auto),
        (cascade.clone(), EvalStrategy::Auto),
    ];

    let mut rng = Rng::new(seed, 1);
    let groups: Vec<[Vec<Tuple>; 3]> = (0..spec.groups)
        .map(|g| group_inserts(g, &spec, &mut rng))
        .collect();
    // Three chain edges that are always there and three facts that never
    // are; with the batch's own delta they make the 8-fact lookup.
    let fixed: Vec<Tuple> = vec![
        ("E", vec![1, 2]),
        ("E", vec![spec.n / 2, spec.n / 2 + 1]),
        ("A", vec![1000, 0]),
        ("E", vec![2, 1]),
        ("A", vec![7, 7]),
        ("F", vec![5000, 0]),
    ];
    let mut batches = Vec::new();
    for g in 0..spec.groups as usize {
        let prev = &groups[(g + groups.len() - 1) % groups.len()];
        for ins in &groups[g] {
            let lookup: Vec<Tuple> = ins.iter().chain(&fixed).cloned().collect();
            batches.push(Batch {
                insert: api::facts(ins),
                remove: Vec::new(),
                lookup: Request::Lookup(api::facts(&lookup)),
            });
        }
        let gone: Vec<Tuple> = prev.iter().flatten().cloned().collect();
        let lookup: Vec<Tuple> = gone[..2].iter().chain(&fixed).cloned().collect();
        batches.push(Batch {
            insert: Vec::new(),
            remove: api::facts(&gone),
            lookup: Request::Lookup(api::facts(&lookup)),
        });
    }

    // The last group is present at operation 0: group 0's retract batch
    // removes it, which closes the cycle.
    let mut initial = gen::chain("E", spec.n);
    initial.extend(gen::cascade("A", "F", spec.n));
    initial.extend(groups[groups.len() - 1].iter().flatten().cloned());
    let inst = api::load(t, api::facts(&initial));
    let warm: Vec<(&str, &[usize])> = ["E", "A", "F"]
        .iter()
        .flat_map(|r| [(*r, &[0usize, 1][..]), (*r, &[1usize, 0][..])])
        .collect();
    let server = api::server(inst, 64, &views, &warm);

    let mut w = ViewChurn {
        session: api::session(&server),
        shadow: api::Shadow::new(&server),
        tc_request: Request::Program(tc, EvalStrategy::Auto),
        cascade_request: Request::Program(cascade, EvalStrategy::Auto),
        compactor: api::compactor(),
        server: &server,
        views,
        batches,
        spec,
        traced_facts: 0,
    };
    // Warm-up: one read of each view and one lookup.
    let off = &mut Tracer::off();
    api::execute(off, "", &mut w.session, &w.tc_request, true);
    api::execute(off, "", &mut w.session, &w.cascade_request, true);
    api::execute(off, "", &mut w.session, &w.batches[0].lookup, true);
    f(&mut w, cx)
}

impl ViewChurn<'_> {
    /// Checked pass: both views against the from-scratch fixpoint on the
    /// same pinned generation, the lookup against a relation scan.
    fn verify_batch(&mut self, pos: usize, tc: &api::Served, lookup: &api::Served) -> bool {
        let off = &mut Tracer::off();
        let Some(cascade) = api::execute(off, "", &mut self.session, &self.cascade_request, false)
        else {
            return false;
        };
        let pin = api::pinned(&self.session);
        let agrees = |req: &Request, got: &api::Served| {
            got.generation == pin.generation()
                && api::same_answer(&got.answer, &api::oracle(req, &pin))
        };
        agrees(&self.tc_request, tc)
            && agrees(&self.cascade_request, &cascade)
            && agrees(&self.batches[pos].lookup, lookup)
    }
}

impl Workload for ViewChurn<'_> {
    fn cycle_len(&self) -> u64 {
        self.batches.len() as u64
    }

    fn step(&mut self, i: u64, cx: &mut Cx) -> Outcome {
        let pos = (i % self.cycle_len()) as usize;
        let retract = !self.batches[pos].remove.is_empty();
        let (op_span, refresh_span) = if retract {
            (
                "view_churn.retract_batch",
                "datalog.maintain.refresh_retract",
            )
        } else {
            ("view_churn.insert_batch", "datalog.maintain.refresh_insert")
        };
        let check = cx.check;
        let (server, views) = (self.server, &self.views);
        let (tc, lookup, changed, refresh_ops, depth) = cx.tracer.span(op_span, |t| {
            let b = &self.batches[pos];
            let changed = api::mutate(t, server, &b.insert, &b.remove);
            if t.is_on() {
                self.traced_facts += changed;
            }
            if check {
                api::ops_reset();
            }
            api::publish(t, refresh_span, server, views);
            let refresh_ops = if check { api::ops_read() } else { 0 };
            let depth = check.then(|| api::lsm_depth(server));
            api::compact(t, &mut self.compactor, server);
            let tc = api::execute(
                t,
                "serve.session.execute.tc_view",
                &mut self.session,
                &self.tc_request,
                true,
            );
            let of = t.next_id();
            let lookup = api::execute(
                t,
                "serve.session.execute.lookup",
                &mut self.session,
                &b.lookup,
                false,
            );
            if t.is_on() {
                api::probe_request(t, of, server, &mut self.shadow, &b.lookup, false);
            }
            (tc, lookup, changed, refresh_ops, depth)
        });
        let (Some(tc), Some(lookup)) = (tc, lookup) else {
            return Outcome {
                kind: retract as u8,
                lag: 0,
                rows: 0,
                ok: false,
            };
        };
        let mut ok = true;
        if let Some((runs, tombstones, _)) = depth {
            let c = &mut cx.counts;
            c.add("view_churn.facts_changed", changed);
            c.add("datalog.maintain.refresh_ops", refresh_ops);
            c.max("relal.lsm.runs_max", runs);
            c.max("relal.lsm.tombstones_max", tombstones);
            ok = self.verify_batch(pos, &tc, &lookup);
        }
        Outcome {
            kind: retract as u8,
            lag: api::generation(self.server) - tc.generation,
            rows: api::answer_rows(&tc.answer) + api::answer_rows(&lookup.answer),
            ok,
        }
    }

    fn levels(&self, levels: &mut Counts) {
        let (installed, discarded) = api::compaction_stats(&self.compactor);
        levels.set("serve.compact.installed", installed);
        levels.set("serve.compact.discarded", discarded);
        levels.set("relal.trie.builds", api::lsm_depth(self.server).2);
        let rebuilds: u64 = self
            .views
            .iter()
            .map(|(p, s)| api::view_full_rebuilds(self.server, p, *s))
            .sum();
        levels.set("datalog.maintain.full_rebuilds", rebuilds);
    }

    fn layer_metrics(&mut self, cx: &mut Cx) -> Vec<(String, f64)> {
        // Probe: the from-scratch fixpoint of both views on the current
        // pin, against the mean incremental refresh.
        let pin = api::pinned(&self.session);
        let inst = api::snapshot_instance(&pin);
        let reps = self.spec.scratch_reps;
        for _ in 0..reps {
            for (p, s) in &self.views {
                std::hint::black_box(api::eval_scratch(&mut cx.tracer, p, inst, *s));
            }
        }
        let spans = cx.tracer.spans();
        let scratch_us = total_ns(spans, "datalog.eval.scratch") as f64 / 1e3 / reps as f64;
        let refreshes: Vec<u64> = [
            "datalog.maintain.refresh_insert",
            "datalog.maintain.refresh_retract",
        ]
        .iter()
        .flat_map(|n| durations(spans, n))
        .collect();
        let refresh_us = refreshes.iter().sum::<u64>() as f64 / refreshes.len().max(1) as f64 / 1e3;
        // publish minus the view refresh inside it: clone, seal, swap.
        let publishes: Vec<u64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "relal.snapshot.publish_with")
            .map(|(id, _)| self_ns(spans, id as u32))
            .collect();
        let publish_us = publishes.iter().sum::<u64>() as f64 / publishes.len().max(1) as f64 / 1e3;

        let c = &cx.counts;
        vec![
            (
                "relal.instance.mutate_us_per_fact",
                total_ns(spans, "relal.snapshot.mutate") as f64
                    / 1e3
                    / self.traced_facts.max(1) as f64,
            ),
            (
                "datalog.maintain.scratch_vs_refresh_ratio",
                scratch_us / refresh_us.max(1e-9),
            ),
            ("relal.snapshot.publish_us", publish_us),
            (
                "serve.view.read_after_publish_us",
                mean_us(spans, "serve.session.execute.tc_view"),
            ),
            (
                "datalog.maintain.refresh_ops",
                c.get("datalog.maintain.refresh_ops") as f64,
            ),
            (
                "datalog.maintain.full_rebuilds",
                c.get("datalog.maintain.full_rebuilds") as f64,
            ),
            (
                "serve.compact.installed",
                c.get("serve.compact.installed") as f64,
            ),
            (
                "serve.compact.discarded",
                c.get("serve.compact.discarded") as f64,
            ),
            ("relal.lsm.runs_max", c.get("relal.lsm.runs_max") as f64),
            (
                "relal.lsm.tombstones_max",
                c.get("relal.lsm.tombstones_max") as f64,
            ),
            ("relal.trie.builds", c.get("relal.trie.builds") as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}
