//! Skew-adaptive multi-round joins: the heavy/light decomposition of
//! Beame–Koutris–Suciu ("Worst-Case Optimal Algorithms for Parallel
//! Query Processing", arXiv:1604.01848) and Ketsman–Suciu–Tao's
//! near-optimal binary joins (arXiv:2011.14482).
//!
//! One-round HyperCube meets the `m/p^{1/τ*}` load bound only on
//! skew-free inputs: a single join value with frequency `Θ(m)` lands on
//! a single hash bucket and the bound is blown. The fix from the papers
//! is *decomposition by heavy pattern*: detect the heavy hitters of
//! every variable from database statistics (a free statistics round in
//! the MPC model), split the valuation space into residual sub-queries —
//! one per assignment of heavy values to a variable subset — and give
//! each residual its own specialized sub-plan:
//!
//! * the **light** residual keeps every variable and runs plain
//!   HyperCube; its input has no value above the frequency threshold, so
//!   the skew-free analysis applies and its load is `m_light/B^{1/τ*}`;
//! * a **heavy** residual fixes its pattern's variables to constants.
//!   Those variables need no hash axis, so the share LP re-solved on the
//!   residual hypergraph hands their axes to the remaining variables —
//!   e.g. the binary join `R(x,y) ⋈ S(y,z)` with `y = h` becomes the
//!   cartesian product `R(x,h) × S(h,z)` whose residual `τ* = 2` gives
//!   load `m_h/B^{1/2}` instead of the one-round `m_h` pile-up.
//!
//! The engine schedules patterns across **waves** (communication
//! rounds): LPT-packed by residual input size into at most `max_rounds`
//! waves, each wave splitting the full `p` servers proportionally among
//! its patterns. With `max_rounds: 1` this is SharesSkew (Afrati,
//! Stasinopoulos, Ullman, Vasilakopoulos; §3.1: "a generalization of the
//! Shares algorithm incorporating skew by distinguishing tuples that are
//! heavy hitters"), every pattern squeezed into one round on a block of
//! its own. With more waves the per-server load of the whole run is the
//! max over waves, so every pattern gets a block close to all of `p` —
//! this is what reaches the skew-aware bound (see
//! [`SkewAdaptiveJoin::load_bound`], checked machine-side by E26).
//!
//! Execution is a fixed schedule of [`Cluster::route`] rounds
//! drawing input cohorts from per-server storage shards; head facts
//! accumulated so far ride along with load-free [`Fate::Keep`]. The
//! output is the duplicate-eliminating union of every wave's local
//! evaluation (set semantics make the union idempotent), byte-identical
//! across thread counts, and the engine composes with the existing fault
//! plans: crash checkpoint/replay and speculation are transparent, and
//! partition hold-and-flush is handled by draining held copies after a
//! dirtied pass and re-running the wave schedule once healed.

use crate::cluster::{layer, Cluster, Fate, Routing};
use crate::datagen::value_frequencies;
use crate::hypercube::HypercubeAlgorithm;
use crate::partition::deal;
use crate::report::RunReport;
use crate::shares::Shares;
use parlog_faults::PartitionPlan;
use parlog_relal::atom::{Atom, Term, Var};
use parlog_relal::fact::{Fact, Val};
use parlog_relal::fastmap::{fxmap, FxMap};
use parlog_relal::instance::Instance;
use parlog_relal::packing::fractional_edge_packing;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::shard::Shard;
use parlog_relal::symbols::RelId;
use parlog_trace::{LoadBound, LoadBoundPart};

/// A heavy pattern: an assignment of heavy values to a subset of the
/// query's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeavyPattern {
    /// `(variable, heavy value)` pairs, sorted by variable.
    bound: Vec<(Var, Val)>,
}

impl HeavyPattern {
    fn value_of(&self, v: &Var) -> Option<Val> {
        self.bound.iter().find(|(w, _)| w == v).map(|(_, val)| *val)
    }

    /// Human-readable label: `"light"` for the all-light pattern,
    /// otherwise the bound assignments, e.g. `"y=7"`.
    fn label(&self) -> String {
        if self.bound.is_empty() {
            return "light".to_string();
        }
        self.bound
            .iter()
            .map(|(v, val)| format!("{v}={val}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Tuning knobs for [`SkewAdaptiveJoin::from_stats`].
#[derive(Debug, Clone)]
pub struct SkewConfig {
    /// Frequency above which a value is heavy for a variable; `None`
    /// uses the theory default `max(m/p, 1)`.
    pub threshold: Option<usize>,
    /// Keep at most this many heavy values per variable (the *most
    /// frequent* ones), bounding the pattern count.
    pub max_heavy_per_var: usize,
    /// Pack the patterns into at most this many waves (communication
    /// rounds); stretched when `p` can't seat every pattern of a wave.
    /// `1` is SharesSkew's one-round plan.
    pub max_rounds: usize,
    /// Hash seed for the residual grids.
    pub seed: u64,
}

impl Default for SkewConfig {
    fn default() -> SkewConfig {
        SkewConfig {
            threshold: None,
            max_heavy_per_var: 4,
            max_rounds: 4,
            seed: 0xb1a5,
        }
    }
}

/// The value frequencies of every `(relation, position)` a body variable
/// occupies, each counted once: the one statistics pass the planner
/// reads, however many patterns it weighs.
type Frequencies = FxMap<(RelId, usize), FxMap<Val, usize>>;

fn position_frequencies(q: &ConjunctiveQuery, db: &Instance) -> Frequencies {
    let mut out: Frequencies = fxmap();
    for a in &q.body {
        for (pos, t) in a.terms.iter().enumerate() {
            if matches!(t, Term::Var(_)) {
                out.entry((a.rel, pos))
                    .or_insert_with(|| value_frequencies(db, a.rel, pos));
            }
        }
    }
    out
}

/// The frequency tables of every position `v` occupies in the body.
fn positions_of<'f>(
    q: &'f ConjunctiveQuery,
    freqs: &'f Frequencies,
    v: &'f Var,
) -> impl Iterator<Item = &'f FxMap<Val, usize>> {
    q.body.iter().flat_map(move |a| {
        let at = a.terms.iter().enumerate();
        at.filter(move |(_, t)| matches!(t, Term::Var(w) if w == v))
            .map(move |(pos, _)| &freqs[&(a.rel, pos)])
    })
}

/// The heavy values of every body variable, ranked by frequency: a value
/// qualifies if its frequency at *some* (atom, position) binding the
/// variable exceeds `threshold` (taking the max over positions), and the
/// per-variable cap keeps the `cap` worst offenders. The returned value
/// lists are sorted for binary search.
fn heavy_values_per_var(
    q: &ConjunctiveQuery,
    freqs: &Frequencies,
    threshold: usize,
    cap: usize,
) -> Vec<(Var, Vec<Val>)> {
    let mut out = Vec::new();
    for v in &q.body_variables() {
        let mut best: FxMap<Val, usize> = fxmap();
        for freq in positions_of(q, freqs, v) {
            for (&val, &n) in freq.iter().filter(|&(_, &n)| n > threshold) {
                let e = best.entry(val).or_insert(0);
                *e = (*e).max(n);
            }
        }
        let mut ranked: Vec<(Val, usize)> = best.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(cap);
        let mut vals: Vec<Val> = ranked.into_iter().map(|(v, _)| v).collect();
        vals.sort_unstable();
        out.push((v.clone(), vals));
    }
    out
}

/// Enumerate the heavy patterns: the cross product over variables of
/// `{light} ∪ heavy values`, the all-light pattern first.
fn enumerate_patterns(heavy: &[(Var, Vec<Val>)]) -> Vec<HeavyPattern> {
    let mut patterns: Vec<HeavyPattern> = vec![HeavyPattern { bound: Vec::new() }];
    for (v, hs) in heavy {
        let mut next = Vec::with_capacity(patterns.len() * (hs.len() + 1));
        for pat in &patterns {
            next.push(pat.clone()); // v stays light
            for &hval in hs {
                let mut bound = pat.bound.clone();
                bound.push((v.clone(), hval));
                next.push(HeavyPattern { bound });
            }
        }
        patterns = next;
    }
    patterns
}

/// The heaviest *light* frequency of every body variable: the largest
/// per-value frequency a residual leaving the variable light must
/// absorb in one hash bucket. With an uncapped heavy list this is at
/// most the detection threshold; a capped list can leave heavier values
/// light, and the ceiling reports them honestly.
fn light_ceilings(
    q: &ConjunctiveQuery,
    freqs: &Frequencies,
    heavy: &[(Var, Vec<Val>)],
) -> Vec<(Var, usize)> {
    heavy
        .iter()
        .map(|(v, hs)| {
            let light = positions_of(q, freqs, v).flat_map(|freq| freq.iter());
            let light = light.filter(|(val, _)| hs.binary_search(val).is_err());
            (v.clone(), light.map(|(_, &n)| n).max().unwrap_or(0))
        })
        .collect()
}

/// An atom's facts counted by local pattern signature: the heavy value
/// of each variable the atom binds (in binding order), or `None` where
/// the fact's value is light. A pattern is consistent with a fact
/// exactly when it agrees with the signature.
type Signatures = FxMap<Vec<Option<Val>>, usize>;

/// Per body atom, the variables it binds and its [`Signatures`].
fn atom_signatures(
    q: &ConjunctiveQuery,
    db: &Instance,
    heavy: &[(Var, Vec<Val>)],
) -> Vec<(Vec<Var>, Signatures)> {
    q.body
        .iter()
        .map(|atom| {
            let mut counts: Signatures = fxmap();
            for binding in db.relation(atom.rel).filter_map(|f| atom.binding(f)) {
                let sig = binding
                    .iter()
                    .map(|&(v, val)| is_heavy(heavy, v, val).then_some(val));
                *counts.entry(sig.collect()).or_insert(0) += 1;
            }
            (atom.variables(), counts)
        })
        .collect()
}

/// Is `val` heavy for variable `v` in the per-variable lists?
fn is_heavy(heavy: &[(Var, Vec<Val>)], v: &Var, val: Val) -> bool {
    heavy
        .iter()
        .find(|(w, _)| w == v)
        .is_some_and(|(_, hs)| hs.binary_search(&val).is_ok())
}

/// Can the fact `f`, matching `atom`, take part in a valuation of
/// signature `pat`? Every variable the atom binds that the pattern fixes
/// must agree with the pattern's value, and every one the pattern leaves
/// light must not carry a heavy value.
fn pattern_consistent(
    atom: &Atom,
    f: &Fact,
    pat: &HeavyPattern,
    heavy: &[(Var, Vec<Val>)],
) -> bool {
    let mut bound = atom.terms.iter().zip(f.args.iter());
    bound.all(|(t, &val)| match t {
        Term::Var(v) => match pat.value_of(v) {
            Some(pval) => pval == val,
            None => !is_heavy(heavy, v, val),
        },
        Term::Const(_) => true,
    })
}

/// The residual query of a pattern: bound variables substituted by
/// their heavy constants (the head is untouched — local evaluation
/// always runs the *original* query; residuals exist for the share LP
/// and routing only).
fn residual_query(q: &ConjunctiveQuery, pat: &HeavyPattern) -> ConjunctiveQuery {
    let subst = |a: &Atom| Atom {
        rel: a.rel,
        terms: a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => match pat.value_of(v) {
                    Some(val) => Term::Const(val),
                    None => t.clone(),
                },
                c => c.clone(),
            })
            .collect(),
    };
    ConjunctiveQuery {
        head: q.head.clone(),
        body: q.body.iter().map(&subst).collect(),
        negated: Vec::new(),
        inequalities: q.inequalities.clone(),
    }
}

/// One pattern's sub-plan: its residual grid over a block of servers.
struct SubPlan {
    pattern: HeavyPattern,
    residual: ConjunctiveQuery,
    hc: HypercubeAlgorithm,
    /// First server of the block; the block occupies `[offset, offset+block)`.
    offset: usize,
    block: usize,
    /// Facts consistent with the pattern, summed over matching atoms
    /// (what the block actually receives, up to residual replication).
    m_pat: usize,
    /// Residual load exponent `1/τ*` of the residual hypergraph (0 when
    /// the residual LP degenerates — then the bound is just `m_pat`).
    exponent: f64,
    /// Heaviest frequency among values this pattern leaves light (max
    /// over the residual's surviving variables).
    light_freq: usize,
}

impl SubPlan {
    /// The finite-size skew-free bound on this block's per-server load:
    /// the balanced share `m_pat / B^{1/τ*}` plus one whole light value
    /// per body atom — a hash bucket holding the heaviest light value
    /// receives its full frequency through every atom it matches.
    fn predicted(&self) -> f64 {
        self.m_pat as f64 / (self.block as f64).powf(self.exponent)
            + (self.residual.body.len() * self.light_freq) as f64
    }
}

/// The skew-adaptive multi-round join engine (see the module docs).
pub struct SkewAdaptiveJoin {
    query: ConjunctiveQuery,
    p: usize,
    m: usize,
    heavy: Vec<(Var, Vec<Val>)>,
    waves: Vec<Vec<SubPlan>>,
}

impl SkewAdaptiveJoin {
    /// Plan for `q` on `p` servers from the database's statistics (the
    /// MPC model's free statistics round).
    pub fn from_stats(
        q: &ConjunctiveQuery,
        db: &Instance,
        p: usize,
        cfg: SkewConfig,
    ) -> SkewAdaptiveJoin {
        assert!(q.is_plain_cq(), "the skew engine handles plain CQs");
        assert!(p >= 1, "at least one server");
        let threshold = cfg.threshold.unwrap_or_else(|| (db.len() / p).max(1));
        let freqs = position_frequencies(q, db);
        let heavy = heavy_values_per_var(q, &freqs, threshold, cfg.max_heavy_per_var);
        let ceilings = light_ceilings(q, &freqs, &heavy);
        let signatures = atom_signatures(q, db, &heavy);

        // Enumerate patterns and weigh each by its residual input size,
        // summed from the signature counts. Patterns no fact is
        // consistent with can produce no valuation (every valuation of
        // that signature needs |body| consistent facts) — prune them,
        // keeping the all-light pattern as the degenerate fallback.
        let mut weighted: Vec<(HeavyPattern, usize)> = enumerate_patterns(&heavy)
            .into_iter()
            .map(|pat| {
                let agrees = |vars: &[Var], sig: &[Option<Val>]| {
                    vars.iter().zip(sig).all(|(v, s)| pat.value_of(v) == *s)
                };
                let m_pat = signatures
                    .iter()
                    .flat_map(|(vars, counts)| counts.iter().filter(|(sig, _)| agrees(vars, sig)))
                    .map(|(_, n)| n)
                    .sum();
                (pat, m_pat)
            })
            .filter(|(pat, m_pat)| *m_pat > 0 || pat.bound.is_empty())
            .collect();
        assert!(
            weighted.len() <= 256,
            "{} heavy patterns; raise the threshold or lower max_heavy_per_var",
            weighted.len()
        );
        // Stable sort: descending residual size, ties in enumeration
        // order — fully deterministic scheduling input.
        weighted.sort_by_key(|&(_, w)| std::cmp::Reverse(w));

        // LPT-pack patterns into waves: each pattern goes to the least
        // loaded wave that still has a free server, so wave loads (and
        // with them the run's max load) stay balanced.
        let n = weighted.len();
        let wave_count = cfg.max_rounds.max(1).min(n).max(n.div_ceil(p));
        let mut packed: Vec<Vec<(HeavyPattern, usize)>> =
            (0..wave_count).map(|_| Vec::new()).collect();
        let mut wave_m = vec![0usize; wave_count];
        for (pat, m_pat) in weighted {
            let w = (0..wave_count)
                .filter(|&w| packed[w].len() < p)
                .min_by_key(|&w| wave_m[w])
                .expect("wave_count * p >= pattern count");
            wave_m[w] += m_pat;
            packed[w].push((pat, m_pat));
        }
        packed.retain(|w| !w.is_empty());

        // Within a wave, split the p servers into per-pattern blocks
        // proportionally to residual size (greedy largest-ratio bumps:
        // deterministic, every pattern gets at least one server, blocks
        // sum to exactly p).
        let mut waves = Vec::with_capacity(packed.len());
        for (wi, wave) in packed.into_iter().enumerate() {
            let k = wave.len();
            let mut blocks = vec![1usize; k];
            let mut used = k;
            while used < p {
                let best = (0..k)
                    .max_by(|&a, &b| {
                        let ra = wave[a].1 as f64 / blocks[a] as f64;
                        let rb = wave[b].1 as f64 / blocks[b] as f64;
                        ra.partial_cmp(&rb).expect("no NaN").then(b.cmp(&a))
                    })
                    .expect("non-empty wave");
                blocks[best] += 1;
                used += 1;
            }
            let mut offset = 0;
            let mut plans = Vec::with_capacity(k);
            for (pi, (pat, m_pat)) in wave.into_iter().enumerate() {
                let block = blocks[pi];
                let residual = residual_query(q, &pat);
                let shares = Shares::optimal(&residual, block)
                    .unwrap_or_else(|_| Shares::uniform(&residual, block));
                let plan_seed = cfg
                    .seed
                    .wrapping_add(((wi as u64) << 32 | pi as u64).wrapping_mul(0x9e37_79b9));
                let hc = HypercubeAlgorithm::with_shares(&residual, shares, plan_seed);
                let exponent = match fractional_edge_packing(&residual) {
                    Ok(pr) if pr.value > 1e-9 && !residual.body_variables().is_empty() => {
                        1.0 / pr.value
                    }
                    _ => 0.0,
                };
                // Only variables the pattern leaves light contribute
                // their ceiling — bound variables are constants in the
                // residual and their mass is m_pat itself.
                let light_freq = ceilings
                    .iter()
                    .filter(|(v, _)| pat.value_of(v).is_none())
                    .map(|(_, c)| *c)
                    .max()
                    .unwrap_or(0);
                plans.push(SubPlan {
                    pattern: pat,
                    residual,
                    hc,
                    offset,
                    block,
                    m_pat,
                    exponent,
                    light_freq,
                });
                offset += block;
            }
            waves.push(plans);
        }

        SkewAdaptiveJoin {
            query: q.clone(),
            p,
            m: db.len(),
            heavy,
            waves,
        }
    }

    /// Total servers addressed.
    pub fn servers(&self) -> usize {
        self.p
    }

    /// Number of communication waves in the schedule.
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// Number of heavy patterns scheduled (1 = no skew detected).
    pub fn pattern_count(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }

    /// The skew-aware load bound: per pattern the finite-size skew-free
    /// guarantee `m_pat / B^{1/τ*_res} + |body| · f_light` — the
    /// balanced share under the *residual* packing exponent over the
    /// pattern's block, plus one whole heaviest-light value per body
    /// atom (every frequency the pattern treats as light is at most
    /// `f_light`, so that is the worst single-bucket concentration its
    /// hashing must absorb). The run's predicted load is the worst
    /// pattern: waves run sequentially, so per-round load is a max, not
    /// a sum.
    pub fn load_bound(&self) -> LoadBound {
        let parts = self
            .waves
            .iter()
            .flat_map(|wave| {
                wave.iter().map(|pl| LoadBoundPart {
                    pattern: pl.pattern.label(),
                    m: pl.m_pat,
                    servers: pl.block,
                    exponent: pl.exponent,
                    light_freq: pl.light_freq,
                    predicted: pl.predicted(),
                })
            })
            .collect();
        LoadBound::skew(self.m, self.p, parts)
    }

    /// Destinations of `f` in wave `w`: per matching atom, every
    /// pattern of the wave the binding is consistent with routes the
    /// fact on the pattern's residual grid (heavy-bound variables are
    /// constants there — no axis), offset into the pattern's block.
    pub fn wave_destinations(&self, w: usize, f: &Fact) -> Vec<usize> {
        let mut out = Vec::new();
        self.wave_destinations_into(w, f, &mut out);
        out
    }

    /// Append [`SkewAdaptiveJoin::wave_destinations`] of `f` to `out` in
    /// ascending order, dropping adjacent repeats — the route of wave `w`.
    fn wave_destinations_into(&self, w: usize, f: &Fact, out: &mut Vec<usize>) {
        let start = out.len();
        for (ai, atom) in self.query.body.iter().enumerate() {
            if !atom.matches(f) {
                continue;
            }
            for plan in &self.waves[w] {
                if pattern_consistent(atom, f, &plan.pattern, &self.heavy) {
                    plan.hc.destinations_via(ai, f, plan.offset, out);
                }
            }
        }
        out[start..].sort_unstable();
        out.dedup();
    }

    /// Run on a fresh cluster.
    pub fn run(&self, db: &Instance) -> RunReport {
        self.run_on(&mut Cluster::new(self.p), db)
    }

    /// Run on a caller-prepared cluster (fault plans, speculation,
    /// parallelism and traces pre-installed); the report is byte-identical
    /// for every worker-thread count. The cluster must be fresh:
    /// the engine keeps the input on per-server storage shards (the
    /// model's "disk") and re-sends each wave's cohort from there.
    pub fn run_on(&self, cluster: &mut Cluster, db: &Instance) -> RunReport {
        assert_eq!(cluster.p(), self.p, "cluster sized for this plan");
        // Round-robin storage shards, mirroring `seed_cluster`'s
        // placement of the sorted input.
        let storage = deal(self.p, db, |i, _, _| i % self.p);

        let mut passes = 0usize;
        loop {
            let r0 = cluster.round_count();
            self.wave_pass(cluster, &storage);
            let r1 = cluster.round_count();
            passes += 1;
            // A pass that overlapped no open partition epoch delivered
            // every cohort where it belongs — done. Otherwise held
            // copies flushed mid-pass may have missed their wave: drain
            // to full heal and re-run the schedule (deliveries dedup,
            // set semantics make the re-evaluation idempotent).
            let dirty = cluster.held_by_partition() > 0
                || partition_overlaps(cluster.fault_plan().partition.as_ref(), r0, r1);
            if !dirty || passes >= 8 {
                break;
            }
            // `drain_to_heal` steps the cluster beside the plan, so only
            // a dirty pass copies it.
            let plan = cluster.fault_plan().partition.clone();
            if !self.drain_to_heal(cluster, plan.as_ref()) {
                // Permanent split: the held copies can never flush. The
                // union below is still a *sound subset* (monotone CQ).
                break;
            }
        }
        RunReport::from_cluster("skew-adaptive", cluster, db.len())
    }

    /// One full wave schedule: per wave, a storage-draining reshuffle
    /// routes the wave's cohort onto its pattern blocks (head facts
    /// accumulated so far ride along load-free), then the rule `H <- body`
    /// of the *original* query runs with the input relations dropped, so
    /// each server keeps the heads found so far.
    fn wave_pass(&self, cluster: &mut Cluster, storage: &[Shard]) {
        let head_rel = self.query.head.rel;
        let plan = [layer(std::slice::from_ref(&self.query))];
        let mut inputs: Vec<RelId> = self.query.body_relations();
        inputs.retain(|&r| r != head_rel);
        for w in 0..self.waves.len() {
            cluster.route(storage, |_, f, out| {
                if f.rel == head_rel {
                    return Fate::Keep;
                }
                self.wave_destinations_into(w, f, out);
                Fate::Send
            });
            cluster.compute_rules(&plan, &inputs);
        }
    }

    /// Spin load-free rounds until every held copy has flushed and no
    /// epoch is open; returns `false` if the plan can never heal.
    fn drain_to_heal(&self, cluster: &mut Cluster, plan: Option<&PartitionPlan>) -> bool {
        loop {
            let clock = cluster.round_count();
            let open = plan.is_some_and(|pl| !pl.open_at(clock).is_empty());
            if !open && cluster.held_by_partition() == 0 {
                return true;
            }
            // A closed epoch's holds flush on the very next round, so
            // only an open epoch with no transition ahead (a permanent
            // split) can never heal.
            if open && plan.and_then(|pl| pl.next_transition(clock)).is_none() {
                return false;
            }
            cluster.reshuffle(|_, _| Routing::Keep);
        }
    }
}

/// Does any partition epoch open during rounds `[r0, r1)`?
fn partition_overlaps(plan: Option<&PartitionPlan>, r0: usize, r1: usize) -> bool {
    plan.is_some_and(|pl| (r0..r1).any(|r| !pl.open_at(r).is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_faults::{CrashKind, FaultPlan, SpeculationPolicy};
    use parlog_relal::eval::eval_query;
    use parlog_relal::eval::EvalStrategy;
    use parlog_relal::parser::parse_query;

    fn join() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
    }

    /// R(x,y) ⋈ S(y,z) with the join attribute y Zipf-skewed on both
    /// sides over a shared domain.
    fn zipf_join_db(m: usize, domain: u64, s: f64, seed: u64) -> Instance {
        let mut db = datagen::zipf_relation_at("R", m, domain, s, seed, 1);
        db.extend_from(&datagen::zipf_relation_at(
            "S",
            m,
            domain,
            s,
            seed ^ 0xa5a5,
            0,
        ));
        db
    }

    /// SharesSkew's one-wave plan with the given threshold, heavy-value
    /// cap and seed.
    fn one_wave(threshold: usize, max_heavy_per_var: usize, seed: u64) -> SkewConfig {
        SkewConfig {
            threshold: Some(threshold),
            max_heavy_per_var,
            max_rounds: 1,
            seed,
        }
    }

    #[test]
    fn no_skew_degenerates_to_one_wave_plain_hypercube() {
        let q = join();
        let db = datagen::matching_relation("R", 100, 0)
            .union(&datagen::matching_relation("S", 100, 10_000));
        for cfg in [SkewConfig::default(), one_wave(10, 4, 1)] {
            let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, cfg);
            assert_eq!(alg.pattern_count(), 1);
            assert_eq!(alg.wave_count(), 1);
            let r = alg.run(&db);
            assert_eq!(r.output, eval_query(&q, &db));
            assert_eq!(r.stats.rounds, 1);
        }
    }

    #[test]
    fn skewed_join_is_correct_and_multi_wave() {
        let q = join();
        let db = zipf_join_db(400, 100, 1.5, 7);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default());
        assert!(alg.pattern_count() > 1, "the heavy y must form patterns");
        assert!(alg.wave_count() > 1, "heavy patterns get their own waves");
        let r = alg.run(&db);
        assert_eq!(r.output, eval_query(&q, &db));
    }

    #[test]
    fn triangle_with_heavy_join_value_is_correct() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = datagen::triangle_heavy_db(400, 80, 3);
        for max_rounds in [1, 4] {
            let cfg = SkewConfig {
                max_rounds,
                ..one_wave(40, 3, 9)
            };
            let r = SkewAdaptiveJoin::from_stats(&q, &db, 27, cfg).run(&db);
            assert_eq!(r.output, eval_query(&q, &db), "max_rounds={max_rounds}");
        }
    }

    #[test]
    fn threshold_zero_all_values_heavy_still_correct() {
        // Degenerate stress: every present value is heavy, so the light
        // residual is empty and everything routes through heavy blocks.
        let q = join();
        let mut db = Instance::new();
        for i in 0..6u64 {
            db.insert(parlog_relal::fact::fact("R", &[i, i % 3]));
            db.insert(parlog_relal::fact::fact("S", &[i % 3, i + 10]));
        }
        let alg = SkewAdaptiveJoin::from_stats(
            &q,
            &db,
            8,
            SkewConfig {
                threshold: Some(0),
                max_heavy_per_var: 3,
                ..SkewConfig::default()
            },
        );
        let r = alg.run(&db);
        assert_eq!(r.output, eval_query(&q, &db));
    }

    #[test]
    fn single_server_degenerates_to_local_eval() {
        let q = join();
        let db = zipf_join_db(200, 50, 1.0, 3);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 1, SkewConfig::default());
        let r = alg.run(&db);
        assert_eq!(r.output, eval_query(&q, &db));
    }

    #[test]
    fn schedule_respects_round_cap_and_server_budget() {
        let q = join();
        let db = zipf_join_db(1000, 300, 1.5, 11);
        let cfg = SkewConfig {
            max_rounds: 3,
            ..SkewConfig::default()
        };
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, cfg);
        assert!(alg.wave_count() <= 3, "waves: {}", alg.wave_count());
        for wave in &alg.waves {
            let total: usize = wave.iter().map(|pl| pl.block).sum();
            assert_eq!(total, 16, "each wave splits the full server budget");
            for pl in wave {
                assert!(pl.offset + pl.block <= 16);
            }
        }
    }

    #[test]
    fn beats_plain_hypercube_and_meets_its_bound_under_skew() {
        let q = join();
        let db = zipf_join_db(800, 200, 1.5, 5);
        let p = 64;
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, p, SkewConfig::default());
        let plain = HypercubeAlgorithm::new(&q, p).unwrap();
        let rs = alg.run(&db);
        let rp = plain.run(&db);
        assert_eq!(rs.output, rp.output);
        assert!(
            rs.stats.max_load < rp.stats.max_load,
            "skew-adaptive {} should beat plain hypercube {}",
            rs.stats.max_load,
            rp.stats.max_load
        );
        // The engine honors its own skew-aware bound (2× slack for
        // integer shares and hash variance); plain HyperCube does not.
        let bound = alg.load_bound();
        assert!(
            (rs.stats.max_load as f64) <= 2.0 * bound.predicted,
            "measured {} vs skew bound {}",
            rs.stats.max_load,
            bound.predicted
        );
        assert!(
            (rp.stats.max_load as f64) > 2.0 * bound.predicted,
            "plain hypercube {} unexpectedly meets the skew bound {}",
            rp.stats.max_load,
            bound.predicted
        );
    }

    #[test]
    fn load_bound_components_cover_every_pattern() {
        let q = join();
        let db = zipf_join_db(800, 200, 1.5, 7);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default());
        let bound = alg.load_bound();
        let parts = bound.components.as_ref().expect("skew bound");
        assert_eq!(parts.len(), alg.pattern_count());
        assert_eq!(parts.iter().filter(|c| c.pattern == "light").count(), 1);
        let worst = parts.iter().map(|c| c.predicted).fold(0.0f64, f64::max);
        assert!((bound.predicted - worst).abs() < 1e-9);
    }

    #[test]
    fn reports_identical_across_thread_counts() {
        let q = join();
        let db = zipf_join_db(300, 80, 1.5, 13);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, SkewConfig::default());
        let seq = alg.run(&db);
        for threads in [2, 4, 8] {
            let par = alg.run_on(&mut Cluster::new(16).with_parallelism(threads), &db);
            assert_eq!(par.output, seq.output);
            assert_eq!(
                serde_json::to_string(&par.stats).unwrap(),
                serde_json::to_string(&seq.stats).unwrap(),
                "threads={threads}"
            );
        }
    }

    /// The one-wave plan is one communicate/compute round, so routing by
    /// `wave_destinations(0, ·)` and evaluating under any strategy
    /// reproduces the engine's run exactly.
    #[test]
    fn strategies_agree_on_skewed_input() {
        let q = join();
        let db = zipf_join_db(300, 80, 1.5, 17);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 16, one_wave(15, 4, 17));
        assert!(alg.pattern_count() > 1);
        let base = alg.run(&db);
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            let mut cluster = Cluster::new(alg.servers());
            crate::partition::seed_cluster(
                &mut cluster,
                &db,
                crate::partition::InitialPartition::RoundRobin,
            );
            cluster.communicate(|f| alg.wave_destinations(0, f));
            cluster.compute_query(&q, strategy);
            let r = RunReport::from_cluster("skew-adaptive", &cluster, db.len());
            assert_eq!(r.output, base.output, "{strategy:?}");
            assert_eq!(
                serde_json::to_string(&r.stats).unwrap(),
                serde_json::to_string(&base.stats).unwrap(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn crash_replay_reproduces_the_fault_free_run() {
        let q = join();
        let db = zipf_join_db(300, 80, 1.5, 19);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
        let clean = alg.run(&db);
        let plan = FaultPlan::crash_stop(0, 3, 1).with_crash(5, 0, CrashKind::Stop);
        let mut cluster = Cluster::new(8).with_faults(plan);
        let faulty = alg.run_on(&mut cluster, &db);
        assert_eq!(faulty.output, clean.output);
        assert_eq!(faulty.stats.max_load, clean.stats.max_load);
    }

    #[test]
    fn speculation_changes_only_tail_time() {
        let q = join();
        let db = zipf_join_db(300, 80, 1.5, 23);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
        let clean = alg.run(&db);
        let mut cluster = Cluster::new(8).with_faults(
            FaultPlan::none(0)
                .with_straggler(2, 4.0)
                .with_speculation(SpeculationPolicy {
                    threshold: 1.5,
                    min_load: 2,
                }),
        );
        let spec = alg.run_on(&mut cluster, &db);
        assert_eq!(spec.output, clean.output);
        assert_eq!(spec.stats.max_load, clean.stats.max_load);
    }

    #[test]
    fn partition_hold_and_flush_converges_to_the_fault_free_output() {
        let q = join();
        let db = zipf_join_db(300, 80, 1.5, 29);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
        let clean = alg.run(&db);
        // A split across the engine's first waves, healing later.
        let plan = PartitionPlan::split(0, 3, &[0, 1, 2]);
        let mut cluster = Cluster::new(8).with_faults(FaultPlan::partitioned(0, plan));
        let healed = alg.run_on(&mut cluster, &db);
        assert_eq!(healed.output, clean.output);
        assert_eq!(cluster.held_by_partition(), 0, "every held copy flushed");
    }

    #[test]
    fn permanent_split_yields_a_sound_subset() {
        let q = join();
        let db = zipf_join_db(300, 80, 1.5, 31);
        let alg = SkewAdaptiveJoin::from_stats(&q, &db, 8, SkewConfig::default());
        let clean = alg.run(&db);
        let plan = PartitionPlan::permanent_split(0, &[6, 7]);
        let mut cluster = Cluster::new(8).with_faults(FaultPlan::partitioned(0, plan));
        let partial = alg.run_on(&mut cluster, &db);
        // Monotone CQ: everything produced is a true answer.
        for f in partial.output.iter() {
            assert!(clean.output.contains(f), "unsound fact {f:?}");
        }
    }

    #[test]
    fn heavy_and_light_cohorts_use_disjoint_blocks_within_a_wave() {
        let q = join();
        let db = zipf_join_db(400, 100, 1.5, 7);
        let alg = SkewAdaptiveJoin::from_stats(
            &q,
            &db,
            16,
            SkewConfig {
                // One wave: all patterns side by side on disjoint blocks.
                max_rounds: 1,
                ..SkewConfig::default()
            },
        );
        assert_eq!(alg.wave_count(), 1);
        let heavy_y = alg.heavy.iter().find(|(v, _)| v.0 == "y").unwrap().1[0];
        let heavy_f = db
            .relation(parlog_relal::symbols::rel("R"))
            .find(|f| f.args[1] == heavy_y)
            .unwrap()
            .clone();
        let light_f = db
            .relation(parlog_relal::symbols::rel("R"))
            .find(|f| !is_heavy(&alg.heavy, &Var::new("y"), f.args[1]))
            .unwrap()
            .clone();
        let dh = alg.wave_destinations(0, &heavy_f);
        let dl = alg.wave_destinations(0, &light_f);
        assert!(!dh.is_empty() && !dl.is_empty());
        assert!(dh.iter().all(|d| !dl.contains(d)), "{dh:?} vs {dl:?}");
        let r = alg.run(&db);
        assert_eq!(r.output, eval_query(&q, &db));
    }
}
