//! The plan cache: memoized query analysis + generation-keyed plans.
//!
//! Planning a query here means compiling its [`QueryPlan`] — the safety
//! check, `Auto` resolved per disjunct, the WCOJ variable order and the
//! compiled leapfrog — and running the *data-independent* analyses the
//! rest of the workspace provides: GYO acyclicity, the fractional edge
//! cover ρ* and packing τ* LPs, the HyperCube share exponents. None of
//! that depends on the database contents, so it is memoized **per query
//! text** and reused across every snapshot generation — an unsafe
//! query's refusal included. The *prepared plan* layer on top is keyed on
//! `(query, strategy, snapshot generation)`: a plan is only ever served
//! against the exact database version it was prepared for, which is what
//! lets the executor skip revalidation entirely — a new generation
//! simply misses and re-prepares (the analysis hit makes that cheap).
//!
//! Keys are Fx hashes of the request's structure — its disjuncts or
//! program and the strategy, hashed as values, never rendered — with the
//! request itself stored alongside and compared with `==` on every hit,
//! so a 64-bit collision — queries come from clients, and Fx is not
//! collision-resistant — degrades to a miss, never to serving the wrong
//! plan. A program's frozen view output is matched the same way: by the
//! view key and then by the exact key source the snapshot keeps beside
//! it.
//!
//! The cache is **per session** (thread-per-core): no locking on the
//! request hot path, and eviction is trivially generation-local — when a
//! session re-pins to a newer snapshot, plans for older generations are
//! dropped (the analyses survive).

use parlog_datalog::program::Program;
use parlog_datalog::{view_key, view_key_source};
use parlog_relal::atom::Var;
use parlog_relal::eval::{EvalStrategy, QueryPlan};
use parlog_relal::fastmap::{FxHasher, FxMap};
use parlog_relal::hypergraph::is_acyclic;
use parlog_relal::instance::Instance;
use parlog_relal::packing::{fractional_edge_cover, fractional_edge_packing, share_exponents};
use parlog_relal::query::{ConjunctiveQuery, QueryError};
use parlog_relal::snapshot::Snapshot;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A request as the cache files it: what is asked, under which strategy.
/// A lookup borrows the caller's request; an entry owns a copy, made once
/// on an analysis miss and shared by every plan prepared from it.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Asked<'a> {
    Relational(Cow<'a, [ConjunctiveQuery]>, EvalStrategy),
    Program(Cow<'a, Program>, EvalStrategy),
}

/// A request an entry owns.
type Filed = Arc<Asked<'static>>;

impl Asked<'_> {
    /// The structural hash the request is filed under.
    fn key(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }

    /// The copy an entry keeps.
    fn filed(&self) -> Filed {
        Arc::new(match self {
            Asked::Relational(d, s) => Asked::Relational(Cow::Owned(d.to_vec()), *s),
            Asked::Program(p, s) => Asked::Program(Cow::Owned(Program::clone(p)), *s),
        })
    }
}

/// The per-disjunct analysis: the data-independent quantities the
/// theory attaches to one CQ (how it is evaluated lives in the
/// [`QueryPlan`]).
#[derive(Debug, Clone)]
pub struct DisjunctPlan {
    /// GYO verdict: does the query hypergraph have a join tree?
    pub acyclic: bool,
    /// Fractional edge cover number ρ* — the AGM output-size exponent
    /// (`None` when the LP is degenerate, e.g. a nullary body).
    pub rho_star: Option<f64>,
    /// Fractional edge packing number τ* — the HyperCube load exponent.
    pub tau_star: Option<f64>,
    /// HyperCube share exponents per body variable, parallel to
    /// `share_vars`.
    pub shares: Option<Vec<f64>>,
    /// The variables the share exponents refer to.
    pub share_vars: Vec<Var>,
}

/// The full data-independent analysis of a relational request: the
/// compiled plan that evaluates it and one [`DisjunctPlan`] per disjunct
/// (a plain CQ is a one-disjunct UCQ).
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// The compiled evaluation, shared by every generation's prepared
    /// plan; [`QueryPlan::resolved`] says what `Auto` became.
    pub plan: Arc<QueryPlan>,
    /// Per-disjunct analyses, in request order.
    pub disjuncts: Vec<DisjunctPlan>,
}

/// Analyze one CQ.
pub fn analyze_cq(q: &ConjunctiveQuery) -> DisjunctPlan {
    let shares = share_exponents(q).ok();
    let (share_vars, shares) = match shares {
        Some(s) => (s.vars, Some(s.exponents)),
        None => (Vec::new(), None),
    };
    DisjunctPlan {
        acyclic: is_acyclic(q),
        rho_star: fractional_edge_cover(q).ok().map(|r| r.value),
        tau_star: fractional_edge_packing(q).ok().map(|r| r.value),
        shares,
        share_vars,
    }
}

/// Analyze a disjunct list (UCQ body, or a singleton for a CQ) under a
/// requested strategy: compile its plan, then run the LPs.
///
/// # Panics
/// Panics if a disjunct is unsafe; [`PlanCache::prepare_relational`]
/// refuses those before analyzing.
pub fn analyze(disjuncts: &[ConjunctiveQuery], strategy: EvalStrategy) -> QueryAnalysis {
    QueryAnalysis {
        plan: Arc::new(QueryPlan::new(disjuncts, strategy).expect("safe disjuncts")),
        disjuncts: disjuncts.iter().map(analyze_cq).collect(),
    }
}

/// What a prepared plan tells the executor to do.
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// Run the analysis's compiled plan.
    Relational(Arc<QueryAnalysis>),
    /// Refuse: a disjunct of the request is unsafe.
    Refused(QueryError),
    /// A Datalog program request.
    Program {
        /// The key the `(program, strategy)` view is filed under.
        view_key: u64,
        /// The pinned snapshot's frozen output for this program, if it
        /// carries one whose key source is the program's own (looked up
        /// once at prepare time; same generation ⇒ same snapshot
        /// contents, so it stays valid for the plan's lifetime). `None`:
        /// evaluate from scratch.
        frozen: Option<Arc<Instance>>,
    },
}

/// A plan prepared against one specific snapshot generation.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// The generation this plan was prepared for.
    pub generation: u64,
    /// What to execute.
    pub kind: PlanKind,
}

/// Hit/miss counters, split by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Prepared-plan hits (query, strategy, generation all matched).
    pub hits: u64,
    /// Prepared-plan misses.
    pub misses: u64,
    /// Analysis reuses on a plan miss (the common re-prepare path).
    pub analysis_hits: u64,
    /// Full analyses run.
    pub analysis_misses: u64,
    /// Plans dropped because the session moved past their generation.
    pub evictions: u64,
}

impl PlanCacheStats {
    /// Plan-cache hit rate in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-session plan cache.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// request key → (stored request, analysis or refusal).
    /// Generation-independent.
    analyses: FxMap<u64, (Filed, Result<Arc<QueryAnalysis>, QueryError>)>,
    /// request key → (stored request, (view key, view key source)).
    program_keys: FxMap<u64, (Filed, (u64, Arc<str>))>,
    /// (request key, generation) → (stored request, prepared plan).
    plans: FxMap<(u64, u64), (Filed, Arc<PreparedPlan>)>,
    newest_generation: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The cache's counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Prepared plans currently resident.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Memoized analyses currently resident.
    pub fn analysis_count(&self) -> usize {
        self.analyses.len()
    }

    /// Drop plans for generations older than `generation` once the
    /// session observes it. Sessions re-pin monotonically, so those
    /// plans can never be requested again — this bounds the cache at
    /// (catalog size × 1 generation) + analyses.
    fn roll(&mut self, generation: u64) {
        if generation > self.newest_generation {
            let before = self.plans.len();
            self.plans.retain(|&(_, g), _| g >= generation);
            self.stats.evictions += (before - self.plans.len()) as u64;
            self.newest_generation = generation;
        }
    }

    fn lookup(&mut self, key: u64, asked: &Asked, generation: u64) -> Option<Arc<PreparedPlan>> {
        self.roll(generation);
        let hit = self
            .plans
            .get(&(key, generation))
            .filter(|(a, _)| **a == *asked);
        if let Some((_, p)) = hit {
            self.stats.hits += 1;
            return Some(Arc::clone(p));
        }
        self.stats.misses += 1;
        None
    }

    /// Prepare (or fetch) the plan for a relational request — a CQ or a
    /// UCQ's disjunct list — under `strategy`, against snapshot
    /// `generation`. Returns the plan and whether it was a cache hit.
    pub fn prepare_relational(
        &mut self,
        disjuncts: &[ConjunctiveQuery],
        strategy: EvalStrategy,
        generation: u64,
    ) -> (Arc<PreparedPlan>, bool) {
        let asked = Asked::Relational(Cow::Borrowed(disjuncts), strategy);
        let key = asked.key();
        if let Some(p) = self.lookup(key, &asked, generation) {
            return (p, true);
        }
        let (filed, analysis) = match self.analyses.get(&key) {
            Some((stored, a)) if **stored == asked => {
                self.stats.analysis_hits += 1;
                (Arc::clone(stored), a.clone())
            }
            _ => {
                self.stats.analysis_misses += 1;
                let a = disjuncts
                    .iter()
                    .try_for_each(ConjunctiveQuery::validate)
                    .map(|()| Arc::new(analyze(disjuncts, strategy)));
                let filed = asked.filed();
                self.analyses.insert(key, (Arc::clone(&filed), a.clone()));
                (filed, a)
            }
        };
        let plan = Arc::new(PreparedPlan {
            generation,
            kind: match analysis {
                Ok(a) => PlanKind::Relational(a),
                Err(e) => PlanKind::Refused(e),
            },
        });
        self.plans
            .insert((key, generation), (filed, Arc::clone(&plan)));
        (plan, false)
    }

    /// Prepare (or fetch) the plan for a Datalog program request against
    /// the pinned snapshot. The part memoized across generations is the
    /// view key and its source (a debug rendering + hash of the whole
    /// program, made once per program); the per-generation part is the
    /// frozen-view lookup, which compares the source, not only the key.
    pub fn prepare_program(
        &mut self,
        p: &Program,
        strategy: EvalStrategy,
        snap: &Snapshot,
    ) -> (Arc<PreparedPlan>, bool) {
        let asked = Asked::Program(Cow::Borrowed(p), strategy);
        let key = asked.key();
        let generation = snap.generation();
        if let Some(plan) = self.lookup(key, &asked, generation) {
            return (plan, true);
        }
        let (filed, (view_key, source)) = match self.program_keys.get(&key) {
            Some((stored, view)) if **stored == asked => {
                self.stats.analysis_hits += 1;
                (Arc::clone(stored), view.clone())
            }
            _ => {
                self.stats.analysis_misses += 1;
                let source = view_key_source(p, strategy);
                let view = (view_key(&source), Arc::from(source));
                let filed = asked.filed();
                self.program_keys
                    .insert(key, (Arc::clone(&filed), view.clone()));
                (filed, view)
            }
        };
        let plan = Arc::new(PreparedPlan {
            generation,
            kind: PlanKind::Program {
                view_key,
                frozen: snap.view_output_exact(view_key, &source),
            },
        });
        self.plans
            .insert((key, generation), (filed, Arc::clone(&plan)));
        (plan, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_datalog::view_key_for;
    use parlog_relal::parser::parse_query;
    use parlog_relal::snapshot::SnapshotStore;

    fn triangle() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
    }

    fn path() -> ConjunctiveQuery {
        parse_query("H(x,z) <- R(x,y), S(y,z)").unwrap()
    }

    #[test]
    fn analysis_matches_the_theory() {
        let a = analyze(&[triangle(), path()], EvalStrategy::Auto);
        let (t, p) = (&a.disjuncts[0], &a.disjuncts[1]);
        assert!(!t.acyclic);
        assert!((t.rho_star.unwrap() - 1.5).abs() < 1e-9);
        assert!((t.tau_star.unwrap() - 1.5).abs() < 1e-9);
        assert!(p.acyclic);
        assert_eq!(
            a.plan.resolved().collect::<Vec<_>>(),
            vec![EvalStrategy::Wcoj, EvalStrategy::Indexed]
        );
    }

    #[test]
    fn an_unsafe_query_is_refused_once_per_text() {
        let unsafe_q = ConjunctiveQuery {
            head: parlog_relal::atom::Atom::vars("H", &["w"]),
            ..path()
        };
        let mut cache = PlanCache::new();
        for generation in [0, 0, 1] {
            let (plan, _) = cache.prepare_relational(
                std::slice::from_ref(&unsafe_q),
                EvalStrategy::Auto,
                generation,
            );
            match &plan.kind {
                PlanKind::Refused(e) => assert_eq!(*e, QueryError::UnsafeHeadVar(Var::new("w"))),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!((s.analysis_hits, s.analysis_misses), (1, 1));
    }

    #[test]
    fn same_generation_hits_new_generation_reanalyzes_nothing() {
        let mut cache = PlanCache::new();
        let q = [triangle()];
        let (_, hit) = cache.prepare_relational(&q, EvalStrategy::Auto, 0);
        assert!(!hit);
        let (_, hit) = cache.prepare_relational(&q, EvalStrategy::Auto, 0);
        assert!(hit);
        // New generation: plan misses, analysis is reused.
        let (_, hit) = cache.prepare_relational(&q, EvalStrategy::Auto, 1);
        assert!(!hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!((s.analysis_hits, s.analysis_misses), (1, 1));
        // The generation-0 plan was evicted on roll-forward.
        assert_eq!(s.evictions, 1);
        assert_eq!(cache.plan_count(), 1);
        assert_eq!(cache.analysis_count(), 1);
    }

    /// A prepared plan is served only for its own text: another query's
    /// plan filed under the same key — what a 64-bit collision does — is
    /// a miss, and the query gets its own plan.
    #[test]
    fn a_colliding_key_misses_the_prepared_plan() {
        let mut cache = PlanCache::new();
        let (tri, _) = cache.prepare_relational(&[triangle()], EvalStrategy::Auto, 0);
        let (path_plan, _) = cache.prepare_relational(&[path()], EvalStrategy::Auto, 0);
        let filed = |cache: &PlanCache, plan: &Arc<PreparedPlan>| {
            let mut plans = cache.plans.iter();
            let (key, entry) = plans.find(|(_, (_, p))| Arc::ptr_eq(p, plan)).unwrap();
            (*key, entry.clone())
        };
        let (tri_key, _) = filed(&cache, &tri);
        let (_, path_entry) = filed(&cache, &path_plan);
        cache.plans.insert(tri_key, path_entry);
        let (plan, hit) = cache.prepare_relational(&[triangle()], EvalStrategy::Auto, 0);
        assert!(!hit);
        match &plan.kind {
            PlanKind::Relational(a) => assert!(!a.disjuncts[0].acyclic, "the triangle's plan"),
            other => panic!("expected a relational plan, got {other:?}"),
        }
    }

    #[test]
    fn strategy_is_part_of_the_key() {
        let mut cache = PlanCache::new();
        let q = [triangle()];
        cache.prepare_relational(&q, EvalStrategy::Wcoj, 0);
        let (_, hit) = cache.prepare_relational(&q, EvalStrategy::Indexed, 0);
        assert!(!hit, "different strategy must not hit");
        assert_eq!(cache.analysis_count(), 2);
    }

    #[test]
    fn program_plan_probes_residency_once() {
        use parlog_datalog::program::parse_program;
        let p = parse_program("T(x,y) <- E(x,y). T(x,z) <- E(x,y), T(y,z).").unwrap();
        let store = SnapshotStore::new(Instance::new());
        let snap = store.pin();
        let mut cache = PlanCache::new();
        let (plan, hit) = cache.prepare_program(&p, EvalStrategy::Auto, &snap);
        assert!(!hit);
        match &plan.kind {
            PlanKind::Program { view_key, frozen } => {
                assert_eq!(*view_key, view_key_for(&p, EvalStrategy::Auto));
                assert!(frozen.is_none());
            }
            _ => panic!("expected a program plan"),
        }
        let (_, hit) = cache.prepare_program(&p, EvalStrategy::Auto, &snap);
        assert!(hit);
    }

    #[test]
    fn hit_rate_reflects_counters() {
        let mut cache = PlanCache::new();
        assert!((cache.stats().hit_rate() - 1.0).abs() < 1e-12);
        let q = [path()];
        cache.prepare_relational(&q, EvalStrategy::Auto, 0);
        for _ in 0..9 {
            cache.prepare_relational(&q, EvalStrategy::Auto, 0);
        }
        assert!((cache.stats().hit_rate() - 0.9).abs() < 1e-12);
    }
}
