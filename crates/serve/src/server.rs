//! The request loop: [`Server`], per-thread [`Session`]s, typed
//! requests and responses.
//!
//! A [`Server`] owns the [`SnapshotStore`] and the shared
//! [`AdmissionGate`]. The store's writer is a [`ViewWriter`]: the
//! instance together with the registered views, which refresh at every
//! publication (a published snapshot's views are already consistent, so
//! a reader never pays a refresh). Each serving thread opens its own
//! [`Session`] — thread-per-core discipline: the session holds the
//! pinned snapshot and the [`PlanCache`], so the request hot path
//! touches **no shared mutable state** beyond two atomic operations
//! (the admission counter and, on the re-pin cadence, the generation
//! probe).
//!
//! Request execution is entirely lock-free against the pin: sealed
//! instances serve warm tries without a mutex, CQ/UCQ evaluation runs
//! the `QueryPlan` the plan cache compiled once per query text (an
//! unsafe query is refused there, once), Datalog requests are answered
//! from the snapshot's frozen view outputs when resident (an `Arc`
//! clone — O(1)) and from a scratch evaluation otherwise, and point
//! lookups batch hash probes.

use crate::admission::{AdmissionGate, Overload, Permit};
use crate::plan::{PlanCache, PlanCacheStats, PlanKind};
use parlog_datalog::eval::eval_program;
use parlog_datalog::maintain::ViewWriter;
use parlog_datalog::program::{Program, ProgramError};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::opcount;
use parlog_relal::query::{ConjunctiveQuery, QueryError, UnionQuery};
use parlog_relal::snapshot::{Snapshot, SnapshotStore};
use std::fmt;
use std::sync::Arc;

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// A conjunctive query under a strategy.
    Query(ConjunctiveQuery, EvalStrategy),
    /// A union of conjunctive queries under a strategy.
    Union(UnionQuery, EvalStrategy),
    /// A Datalog program under a strategy (answered from the frozen
    /// view output when the snapshot carries one).
    Program(Program, EvalStrategy),
    /// A batched point-lookup: one membership bit per fact.
    Lookup(Vec<Fact>),
}

/// A request's payload.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Relational output (CQ / UCQ / program).
    Relation(Arc<Instance>),
    /// Per-fact membership bits, parallel to the lookup batch.
    Bits(Vec<bool>),
}

impl Answer {
    /// The relational output, if this answer carries one.
    pub fn relation(&self) -> Option<&Arc<Instance>> {
        match self {
            Answer::Relation(r) => Some(r),
            Answer::Bits(_) => None,
        }
    }
}

/// A served response plus its provenance.
#[derive(Debug, Clone)]
pub struct Response {
    /// The payload.
    pub answer: Answer,
    /// The snapshot generation the request was answered against.
    pub generation: u64,
    /// `Some(true)` on a plan-cache hit, `Some(false)` on a miss,
    /// `None` for plan-free requests (lookups).
    pub plan_hit: Option<bool>,
    /// Deterministic work: relational ops counted while executing.
    pub ops: u64,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission refused (typed, actionable: back off and retry).
    Overload(Overload),
    /// The submitted Datalog program was rejected (e.g. unstratifiable).
    Program(ProgramError),
    /// The submitted query was rejected: a disjunct is unsafe.
    Query(QueryError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overload(o) => write!(f, "{o}"),
            ServeError::Program(e) => write!(f, "program rejected: {e:?}"),
            ServeError::Query(e) => write!(f, "query rejected: {e}"),
        }
    }
}

impl From<Overload> for ServeError {
    fn from(o: Overload) -> ServeError {
        ServeError::Overload(o)
    }
}

/// The serving front end over one snapshot store, whose writer holds
/// the registered views.
#[derive(Debug)]
pub struct Server {
    store: Arc<SnapshotStore<ViewWriter>>,
    gate: AdmissionGate,
}

impl Server {
    /// Serve `initial`, admitting at most `capacity` concurrent
    /// requests.
    pub fn new(initial: Instance, capacity: usize) -> Server {
        Server {
            store: Arc::new(SnapshotStore::new(ViewWriter::new(initial))),
            gate: AdmissionGate::new(capacity),
        }
    }

    /// The underlying store (writer access, replication, diagnostics).
    pub fn store(&self) -> &Arc<SnapshotStore<ViewWriter>> {
        &self.store
    }

    /// The shared admission gate.
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// Register a view program on the writer, to be built at the next
    /// publication and refreshed at every one after it. Published
    /// snapshots carry its frozen output under
    /// `parlog_datalog::view_key_for(&p, strategy)`, so `Program`
    /// requests for it are answered in O(1).
    pub fn register_view(&self, p: Program, strategy: EvalStrategy) {
        self.store.mutate(|w| w.register(&p, strategy));
    }

    /// Publish the writer's state as a new snapshot, first refreshing
    /// every registered view against the writer (at publication, never
    /// on a reader). A view whose program does not stratify is dropped
    /// from the writer and reported as [`ServeError::Program`]; the
    /// snapshot is published all the same, with every other view's
    /// output.
    pub fn publish(&self) -> Result<Arc<Snapshot>, ServeError> {
        let mut err = None;
        let snap = self.store.publish_with(|w| {
            let (outputs, e) = w.refresh_views();
            err = e;
            outputs
        });
        match err {
            Some(e) => Err(ServeError::Program(e)),
            None => Ok(snap),
        }
    }

    /// Open a session for one serving thread.
    pub fn session(&self) -> Session<'_> {
        Session {
            server: self,
            pinned: self.store.pin(),
            plans: PlanCache::new(),
        }
    }
}

/// One serving thread's state: the pinned snapshot and the private
/// plan cache.
#[derive(Debug)]
pub struct Session<'a> {
    server: &'a Server,
    pinned: Arc<Snapshot>,
    plans: PlanCache,
}

impl Session<'_> {
    /// The currently pinned snapshot.
    pub fn pinned(&self) -> &Arc<Snapshot> {
        &self.pinned
    }

    /// Re-pin if a newer snapshot was published (one acquire-load in
    /// the steady state). Returns `true` iff the pin moved.
    pub fn refresh_pin(&mut self) -> bool {
        self.server.store.pin_if_newer(&mut self.pinned)
    }

    /// The session's plan-cache counters.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Admit, re-pin to the freshest snapshot, execute.
    pub fn execute(&mut self, req: &Request) -> Result<Response, ServeError> {
        let permit = self.server.gate.try_admit()?;
        self.refresh_pin();
        self.run(req, &permit)
    }

    /// Admit and execute against the *current* pin without a staleness
    /// probe — the path for readers that deliberately serve a stale
    /// generation (snapshot isolation is the product, not a bug).
    pub fn execute_pinned(&mut self, req: &Request) -> Result<Response, ServeError> {
        let permit = self.server.gate.try_admit()?;
        self.run(req, &permit)
    }

    fn run(&mut self, req: &Request, _permit: &Permit<'_>) -> Result<Response, ServeError> {
        let generation = self.pinned.generation();
        let inst = self.pinned.instance();
        opcount::reset();
        let (answer, plan_hit) = match req {
            Request::Lookup(batch) => {
                let bits = batch.iter().map(|f| inst.contains(f)).collect();
                (Answer::Bits(bits), None)
            }
            Request::Query(q, strategy) => {
                self.relational(std::slice::from_ref(q), *strategy, generation)?
            }
            Request::Union(u, strategy) => self.relational(&u.disjuncts, *strategy, generation)?,
            Request::Program(p, strategy) => {
                let (plan, hit) = self.plans.prepare_program(p, *strategy, &self.pinned);
                let PlanKind::Program { frozen, .. } = &plan.kind else {
                    unreachable!("program prepare returned a relational plan");
                };
                let out = match frozen {
                    Some(out) => Arc::clone(out),
                    None => {
                        Arc::new(eval_program(p, inst, *strategy).map_err(ServeError::Program)?)
                    }
                };
                (Answer::Relation(out), Some(hit))
            }
        };
        Ok(Response {
            answer,
            generation,
            plan_hit,
            ops: opcount::read(),
        })
    }

    /// Prepare (or fetch) the plan of a CQ or a UCQ's disjunct list and
    /// run it against the pin — or refuse, if the plan cache refused it.
    fn relational(
        &mut self,
        disjuncts: &[ConjunctiveQuery],
        strategy: EvalStrategy,
        generation: u64,
    ) -> Result<(Answer, Option<bool>), ServeError> {
        let (plan, hit) = self
            .plans
            .prepare_relational(disjuncts, strategy, generation);
        match &plan.kind {
            PlanKind::Relational(analysis) => {
                let out = analysis.plan.eval(self.pinned.instance());
                Ok((Answer::Relation(Arc::new(out)), Some(hit)))
            }
            PlanKind::Refused(e) => Err(ServeError::Query(e.clone())),
            PlanKind::Program { .. } => unreachable!("relational prepare returned a program plan"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_datalog::program::parse_program;
    use parlog_relal::eval::{eval_query_with, eval_union_with};
    use parlog_relal::fact::fact;
    use parlog_relal::parser::{parse_query, parse_union};

    fn base() -> Instance {
        Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[2, 3]),
            fact("S", &[2, 3]),
            fact("S", &[3, 1]),
            fact("T", &[3, 1]),
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
        ])
    }

    #[test]
    fn all_request_kinds_match_direct_evaluation() {
        let server = Server::new(base(), 8);
        let mut session = server.session();
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let u = parse_union("H(x,z) <- R(x,y), S(y,z); H(x,z) <- S(x,y), R(y,z)").unwrap();
        let p = parse_program("T2(x,z) <- E(x,y), E(y,z).").unwrap();

        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            let r = session
                .execute(&Request::Query(q.clone(), strategy))
                .unwrap();
            assert_eq!(
                r.answer.relation().unwrap().sorted_facts(),
                eval_query_with(&q, &base(), strategy).sorted_facts(),
                "{strategy:?}"
            );
            let r = session
                .execute(&Request::Union(u.clone(), strategy))
                .unwrap();
            assert_eq!(
                r.answer.relation().unwrap().sorted_facts(),
                eval_union_with(&u, &base(), strategy).sorted_facts()
            );
        }
        let r = session
            .execute(&Request::Program(p.clone(), EvalStrategy::Auto))
            .unwrap();
        assert!(r.answer.relation().unwrap().contains(&fact("T2", &[1, 3])));
        let r = session
            .execute(&Request::Lookup(vec![
                fact("R", &[1, 2]),
                fact("R", &[9, 9]),
            ]))
            .unwrap();
        match r.answer {
            Answer::Bits(ref b) => assert_eq!(b, &vec![true, false]),
            _ => panic!("expected bits"),
        }
        assert_eq!(r.plan_hit, None);
    }

    #[test]
    fn registered_view_is_served_frozen_after_publish() {
        let server = Server::new(base(), 8);
        let p = parse_program("TC(x,y) <- E(x,y). TC(x,z) <- E(x,y), TC(y,z).").unwrap();
        server.register_view(p.clone(), EvalStrategy::Auto);
        server.publish().unwrap();
        let mut session = server.session();
        session.refresh_pin();
        let r1 = session
            .execute(&Request::Program(p.clone(), EvalStrategy::Auto))
            .unwrap();
        // Served from the frozen output: zero relational ops.
        assert_eq!(r1.ops, 0);
        assert!(r1.answer.relation().unwrap().contains(&fact("TC", &[1, 3])));
        let frozen = session
            .pinned()
            .view_output(parlog_datalog::view_key_for(&p, EvalStrategy::Auto))
            .unwrap();
        assert!(Arc::ptr_eq(r1.answer.relation().unwrap(), &frozen));
    }

    /// A frozen output is matched by its key source, not by the 64-bit
    /// key alone: program A's output filed under program B's key — what
    /// a hash collision between the two would do — is not served for B.
    #[test]
    fn a_colliding_view_key_serves_the_programs_own_fixpoint() {
        use parlog_datalog::{view_key_for, view_key_source};
        let server = Server::new(base(), 8);
        let a = parse_program("TC(x,y) <- E(x,y). TC(x,z) <- E(x,y), TC(y,z).").unwrap();
        let b = parse_program("T2(x,z) <- E(x,y), E(y,z).").unwrap();
        let s = EvalStrategy::Auto;
        let a_out = Arc::new(eval_program(&a, &base(), s).unwrap());
        let snap = server.store().publish_with(|_| {
            let mut views = parlog_relal::fastmap::fxmap();
            let a_source = view_key_source(&a, s).into();
            views.insert(view_key_for(&b, s), (a_source, Arc::clone(&a_out)));
            views
        });
        // The hash-only lookup finds A's output under B's key…
        let under_b = snap.view_output(view_key_for(&b, s)).unwrap();
        assert!(Arc::ptr_eq(&under_b, &a_out));
        // …but B is answered with its own fixpoint.
        let mut session = server.session();
        let r = session.execute(&Request::Program(b.clone(), s)).unwrap();
        assert_eq!(r.generation, snap.generation());
        let answer = r.answer.relation().unwrap();
        assert_eq!(**answer, eval_program(&b, &base(), s).unwrap());
        assert!(answer.contains(&fact("T2", &[1, 3])));
        assert!(!answer.contains(&fact("TC", &[1, 3])));
    }

    /// One unstratifiable view does not cost the others their frozen
    /// outputs: the publication that first builds it reports it, still
    /// carries every good view's output, and drops it from the writer,
    /// so the next publication is clean.
    #[test]
    fn a_bad_view_is_reported_once_and_the_good_views_stay_frozen() {
        let server = Server::new(base(), 8);
        let good = parse_program("TC(x,y) <- E(x,y). TC(x,z) <- E(x,y), TC(y,z).").unwrap();
        let bad = parse_program("P(x) <- E(x,y), not Q(x). Q(x) <- E(x,y), not P(x).").unwrap();
        server.register_view(good.clone(), EvalStrategy::Auto);
        server.register_view(bad, EvalStrategy::Auto);
        assert!(matches!(server.publish(), Err(ServeError::Program(_))));
        let served_frozen = |edge: [u64; 2]| {
            let mut session = server.session();
            let req = Request::Program(good.clone(), EvalStrategy::Auto);
            let r = session.execute(&req).unwrap();
            assert_eq!(r.ops, 0, "answered from the frozen output");
            assert!(r.answer.relation().unwrap().contains(&fact("TC", &edge)));
        };
        assert_eq!(server.store().pin().view_count(), 1);
        served_frozen([1, 3]);
        server.store().mutate(|w| {
            w.insert(fact("E", &[3, 4]));
        });
        assert_eq!(server.publish().unwrap().view_count(), 1);
        served_frozen([1, 4]);
    }

    #[test]
    fn overload_is_a_typed_refusal() {
        let server = Server::new(base(), 1);
        let _held = server.gate().try_admit().unwrap();
        let mut session = server.session();
        let err = session
            .execute(&Request::Lookup(vec![fact("R", &[1, 2])]))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Overload(Overload::Saturated {
                in_flight: 1,
                capacity: 1
            })
        );
    }

    /// A query built in code whose head variable is missing from the
    /// positive body is refused with a typed error under every strategy,
    /// alone or as a disjunct — never evaluated — and the refusal is
    /// cached like a plan.
    #[test]
    fn unsafe_query_is_a_typed_refusal_under_every_strategy() {
        use parlog_relal::atom::{Atom, Var};
        let server = Server::new(base(), 8);
        let mut session = server.session();
        let unsafe_q = ConjunctiveQuery {
            head: Atom::vars("H", &["x", "w"]),
            body: vec![Atom::vars("R", &["x", "y"])],
            negated: Vec::new(),
            inequalities: Vec::new(),
        };
        let safe = parse_query("H(x,y) <- R(x,y)").unwrap();
        let refusal = ServeError::Query(QueryError::UnsafeHeadVar(Var::new("w")));
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Indexed,
            EvalStrategy::Wcoj,
            EvalStrategy::Auto,
        ] {
            let query = Request::Query(unsafe_q.clone(), strategy);
            let union = Request::Union(
                UnionQuery::new(vec![safe.clone(), unsafe_q.clone()]),
                strategy,
            );
            for req in [&query, &union, &query] {
                assert_eq!(session.execute(req).unwrap_err(), refusal, "{strategy:?}");
            }
        }
        let stats = session.plan_stats();
        assert_eq!((stats.hits, stats.misses), (4, 8));
        assert_eq!(stats.analysis_misses, 8);
    }

    /// A publication invalidates the prepared plan, not the compiled one:
    /// the re-prepared plan holds the very same `QueryPlan` and answers
    /// the new generation.
    #[test]
    fn republished_generation_reuses_the_compiled_plan() {
        let server = Server::new(base(), 4);
        let mut session = server.session();
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let req = Request::Query(q.clone(), EvalStrategy::Wcoj);
        let compiled = |session: &mut Session<'_>| {
            let generation = session.pinned().generation();
            let (plan, hit) = session.plans.prepare_relational(
                std::slice::from_ref(&q),
                EvalStrategy::Wcoj,
                generation,
            );
            assert!(hit, "the request just prepared it");
            match &plan.kind {
                PlanKind::Relational(analysis) => Arc::clone(&analysis.plan),
                other => panic!("expected a relational plan, got {other:?}"),
            }
        };
        let before = session.execute(&req).unwrap();
        let first = compiled(&mut session);
        server.store().mutate(|w| {
            w.insert(fact("R", &[3, 4]));
            w.insert(fact("S", &[4, 2]));
            w.insert(fact("T", &[2, 3]));
        });
        server.publish().unwrap();
        let after = session.execute(&req).unwrap();
        assert!(after.generation > before.generation);
        assert_eq!(after.plan_hit, Some(false));
        assert!(Arc::ptr_eq(&first, &compiled(&mut session)));
        assert_eq!(session.plan_stats().analysis_misses, 1);
        let answer = after.answer.relation().unwrap();
        assert_eq!(
            answer.sorted_facts(),
            eval_query_with(&q, session.pinned().instance(), EvalStrategy::Naive).sorted_facts()
        );
        assert!(answer.contains(&fact("H", &[3, 4, 2])));
        assert!(!before
            .answer
            .relation()
            .unwrap()
            .contains(&fact("H", &[3, 4, 2])));
    }

    #[test]
    fn execute_pinned_stays_on_the_old_generation() {
        let server = Server::new(base(), 4);
        let mut session = server.session();
        let q = parse_query("H(x,y) <- R(x,y)").unwrap();
        let before = session
            .execute_pinned(&Request::Query(q.clone(), EvalStrategy::Auto))
            .unwrap();
        server.store().mutate(|w| {
            w.insert(fact("R", &[7, 7]));
        });
        server.publish().unwrap();
        let stale = session
            .execute_pinned(&Request::Query(q.clone(), EvalStrategy::Auto))
            .unwrap();
        assert_eq!(stale.generation, before.generation);
        assert_eq!(
            stale.answer.relation().unwrap().sorted_facts(),
            before.answer.relation().unwrap().sorted_facts()
        );
        assert!(stale.plan_hit.unwrap(), "same generation, same plan");
        let fresh = session
            .execute(&Request::Query(q, EvalStrategy::Auto))
            .unwrap();
        assert!(fresh.generation > before.generation);
        assert!(fresh
            .answer
            .relation()
            .unwrap()
            .contains(&fact("H", &[7, 7])));
    }
}
