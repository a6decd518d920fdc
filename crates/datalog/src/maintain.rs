//! Incremental maintenance of materialized Datalog fixpoints.
//!
//! A [`MaterializedView`] is a value its owner holds, built once against
//! a base instance. Each [`MaterializedView::refresh`] replays the
//! base's delta log instead of recomputing the fixpoint, as **one
//! batch**: every logged change is applied, then the cascade settles
//! once. A serving writer, [`ViewWriter`], is an instance together with
//! the views maintained on it.
//!
//! One maintenance algorithm, **DRed** (delete–rederive,
//! Gupta–Mumick–Subrahmanian), for every stratum, recursive or not:
//! overdelete everything transitively supported by a deleted fact (or
//! blocked by an inserted fact through negation), rederive — one
//! existence probe per overdeleted fact — and run semi-naive insert
//! rounds seeded with the rederived facts too. It is sound under
//! stratified negation because negated relations always sit in strictly
//! lower strata, which settle first. Every phase decides against an
//! unchanged database — an overdeleted fact stays stored, and a
//! derivation through one counts only once it is back — and the stratum
//! then commits its net change in one batch, so a retraction writes only
//! the facts it removes and adds.
//!
//! Every probe is an occurrence plan of the Δ-rule the from-scratch
//! fixpoint runs (`crate::delta_rule`): a leapfrog plan compiled once
//! per `(rule, occurrence)` when the view is built (the occurrence's
//! variables are its parameters, the rest of the body the residual),
//! bound once per phase or insert round, and run once per fact.
//!
//! A program that reads the built-in `ADom` relation has it maintained
//! by per-value reference counts over the base facts (program constants
//! are pinned), so complement-style rules stay correct under deletion.
//! A program that does not read it keeps no `ADom` state at all: no
//! counts, no helper facts, no writes — the rule the from-scratch
//! fixpoint applies.
//!
//! A refresh falls back to a full rebuild when the delta log was
//! truncated past the view's epoch, or when the base instance mutates
//! relations the maintenance state owns (IDB heads or `ADom`).

use crate::delta_rule::{Occurrence, RulePlans, Step};
use crate::eval::{fixpoint, reads_adom};
use crate::program::{adom_id, Program, ProgramError};
use parlog_relal::delta::{DeltaEntry, DeltaOp};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::{Fact, Val};
use parlog_relal::fastmap::{fxmap, fxset, FxHasher, FxMap, FxSet};
use parlog_relal::instance::Instance;
use parlog_relal::snapshot::ViewOutputs;
use parlog_relal::symbols::RelId;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// The exact key source of the `(program, strategy)` view: the text
/// [`view_key`] hashes, kept beside each frozen output so that a lookup
/// by a colliding hash is a miss.
pub fn view_key_source(p: &Program, strategy: EvalStrategy) -> String {
    format!("{p:?}|{strategy:?}")
}

/// The 64-bit key a view with key source `source` is filed under.
pub fn view_key(source: &str) -> u64 {
    let mut h = FxHasher::default();
    source.hash(&mut h);
    h.finish()
}

/// The key of the `(program, strategy)` view: [`view_key`] of its
/// [`view_key_source`].
pub fn view_key_for(p: &Program, strategy: EvalStrategy) -> u64 {
    view_key(&view_key_source(p, strategy))
}

/// The serving writer: a base instance and the views maintained on it.
/// It derefs to the instance, which is mutated as usual; the views catch
/// up from its delta log at each [`ViewWriter::refresh_views`]. A view
/// is built by the first refresh after its registration.
#[derive(Debug)]
pub struct ViewWriter {
    base: Instance,
    views: Vec<HeldView>,
}

/// One registered view: its program, key source and key and, once
/// built, its state.
#[derive(Debug)]
struct HeldView {
    program: Program,
    strategy: EvalStrategy,
    source: Arc<str>,
    key: u64,
    view: Option<MaterializedView>,
}

impl ViewWriter {
    /// A writer over `base` holding no views.
    pub fn new(base: Instance) -> ViewWriter {
        ViewWriter {
            base,
            views: Vec::new(),
        }
    }

    /// Register the `(p, strategy)` view, unless it is already held; it
    /// is built at the next refresh. Only a new view clones `p` and
    /// renders its key source.
    pub fn register(&mut self, p: &Program, strategy: EvalStrategy) {
        if self.held(p, strategy).is_none() {
            let source: Arc<str> = view_key_source(p, strategy).into();
            self.views.push(HeldView {
                program: p.clone(),
                strategy,
                key: view_key(&source),
                source,
                view: None,
            });
        }
    }

    /// The held `(p, strategy)` view, matched exactly.
    fn held(&self, p: &Program, strategy: EvalStrategy) -> Option<&HeldView> {
        (self.views.iter()).find(|v| v.strategy == strategy && v.program == *p)
    }

    /// Bring every view up to date with the base — building those
    /// registered since the last refresh — and return their outputs,
    /// keyed by [`view_key_for`]. A view whose program does not stratify
    /// is dropped from the writer; the first such error is returned
    /// beside the outputs of the others.
    pub fn refresh_views(&mut self) -> (ViewOutputs, Option<ProgramError>) {
        let (base, mut first_err) = (&self.base, None);
        let mut out = fxmap();
        self.views.retain_mut(|held| {
            // Taken out while it refreshes: a refresh that panics leaves
            // no half-updated view on the writer (whose lock recovers from
            // poisoning), and the next refresh builds it again.
            let built = match held.view.take() {
                Some(view) => Ok(view),
                None => MaterializedView::new(&held.program, base, held.strategy),
            };
            let mut view = match built {
                Ok(view) => view,
                Err(e) => {
                    first_err.get_or_insert(e);
                    return false;
                }
            };
            let output = Arc::new(view.refresh(base));
            held.view = Some(view);
            out.insert(held.key, (Arc::clone(&held.source), output));
            true
        });
        (out, first_err)
    }
}

impl Borrow<Instance> for ViewWriter {
    fn borrow(&self) -> &Instance {
        &self.base
    }
}

impl Deref for ViewWriter {
    type Target = Instance;

    fn deref(&self) -> &Instance {
        &self.base
    }
}

impl DerefMut for ViewWriter {
    fn deref_mut(&mut self) -> &mut Instance {
        &mut self.base
    }
}

/// The publication hook handed to `SnapshotStore::publish_with`:
/// register every listed view on the writer, then refresh all its views
/// ([`ViewWriter::refresh_views`]) and return their frozen outputs, or
/// the error of a view that did not stratify. The maintained state stays
/// on the writer, so the next publication refreshes incrementally.
pub fn publish_views(
    w: &mut ViewWriter,
    programs: &[(Program, EvalStrategy)],
) -> Result<ViewOutputs, ProgramError> {
    for (p, s) in programs {
        w.register(p, *s);
    }
    match w.refresh_views() {
        (out, None) => Ok(out),
        (_, Some(e)) => Err(e),
    }
}

/// One stratum, with its relation footprint precomputed (which batch
/// changes are relevant to it).
#[derive(Debug)]
struct Stratum {
    rules: Vec<usize>,
    body_rels: FxSet<RelId>,
    neg_rels: FxSet<RelId>,
}

/// The membership changes of one refresh, in the order they were
/// applied: the batch's own, then each settled stratum's net change.
type BatchLog = Vec<(DeltaOp, Fact)>;

/// Diagnostics of an installed view, for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewStats {
    /// Delta-log entries applied incrementally over the view's lifetime.
    pub incremental_applied: u64,
    /// Full from-scratch rebuilds (the initial build not included).
    pub full_rebuilds: u64,
    /// Strata maintained, each by delete–rederive.
    pub strata: usize,
}

/// A maintained stratified fixpoint: the full database (EDB ∪ IDB, and
/// `ADom` when the program reads it) and `ADom` reference counts when
/// the program reads `ADom`. Its owner builds it against a base instance
/// and refreshes it against the same instance as that instance mutates.
#[derive(Debug)]
pub struct MaterializedView {
    program: Program,
    strategy: EvalStrategy,
    applied_epoch: u64,
    db: Instance,
    /// `ADom`'s id when the program reads it: only then is it
    /// materialized and reference-counted.
    adom: Option<RelId>,
    adom_refs: FxMap<Val, i64>,
    /// The strata, bottom-up.
    strata: Vec<Stratum>,
    /// Per rule, its prepared occurrences.
    plans: Vec<RulePlans>,
    /// The relations the maintenance state owns: the IDB heads and `ADom`.
    owned: FxSet<RelId>,
    /// The base overlapped IDB/`ADom` relations at build time; every
    /// refresh degrades to a full rebuild (still correct, never fast).
    degraded: bool,
    full_rebuilds: u64,
    incremental_applied: u64,
}

impl MaterializedView {
    /// Evaluate `p` on `base` under `strategy` and keep the state that
    /// later [`MaterializedView::refresh`] calls maintain. Fails when `p`
    /// does not stratify.
    pub fn new(
        p: &Program,
        base: &Instance,
        strategy: EvalStrategy,
    ) -> Result<MaterializedView, ProgramError> {
        let strat = p.stratify()?;
        let mut rec: Vec<FxSet<RelId>> = vec![fxset(); p.rules.len()];
        let mut strata: Vec<Stratum> = Vec::new();
        for stratum in &strat.rule_strata {
            let heads: FxSet<RelId> = stratum.iter().map(|&i| p.rules[i].head.rel).collect();
            let (mut body_rels, mut neg_rels) = (fxset(), fxset());
            for &ri in stratum {
                body_rels.extend(p.rules[ri].body.iter().map(|a| a.rel));
                neg_rels.extend(p.rules[ri].negated.iter().map(|a| a.rel));
                rec[ri] = heads.clone();
            }
            strata.push(Stratum {
                rules: stratum.clone(),
                body_rels,
                neg_rels,
            });
        }
        let adom = adom_id();
        let mut view = MaterializedView {
            program: p.clone(),
            strategy,
            applied_epoch: 0,
            db: Instance::new(),
            adom: reads_adom(p).then_some(adom),
            adom_refs: fxmap(),
            strata,
            plans: (p.rules.iter().zip(&rec))
                .map(|(r, rec)| RulePlans::new(r, rec))
                .collect(),
            owned: p.idb().into_iter().chain([adom]).collect(),
            degraded: false,
            full_rebuilds: 0,
            incremental_applied: 0,
        };
        view.rebuild(base);
        view.full_rebuilds = 0;
        Ok(view)
    }

    /// Recompute everything from scratch against the current base. The
    /// database's cached tries are brought current at the fixpoint's
    /// final epoch: a fixpoint that writes more facts than the delta log
    /// keeps would otherwise leave them to be rebuilt whole by the first
    /// refresh that reads them.
    fn rebuild(&mut self, base: &Instance) {
        self.applied_epoch = base.epoch();
        self.degraded = base.iter().any(|f| self.owned.contains(&f.rel));
        self.db = fixpoint(&self.program, base, self.strategy, self.adom.is_some())
            .expect("program stratified when the view was built");
        self.db.refresh_tries();
        self.adom_refs.clear();
        if self.adom.is_some() {
            for f in base.iter() {
                for &v in &f.args {
                    *self.adom_refs.entry(v).or_insert(0) += 1;
                }
            }
            for r in &self.program.rules {
                for c in r.constants() {
                    *self.adom_refs.entry(c).or_insert(0) += 1;
                }
            }
        }
        self.full_rebuilds += 1;
    }

    /// Bring the view up to date with `base` — the instance it was built
    /// against, since mutated — and return the query result (the
    /// maintained database minus any `ADom` facts), a copy that shares
    /// the database's relation sets. The same fixpoint
    /// [`crate::eval::eval_program`] computes from scratch.
    pub fn refresh(&mut self, base: &Instance) -> Instance {
        if base.epoch() != self.applied_epoch {
            let replayable = base.delta_since(self.applied_epoch).filter(|es| {
                !self.degraded && es.iter().all(|e| !self.owned.contains(&e.fact.rel))
            });
            match replayable {
                Some(es) => {
                    self.apply_entries(es);
                    self.applied_epoch = base.epoch();
                    self.incremental_applied += es.len() as u64;
                }
                None => self.rebuild(base),
            }
        }
        self.output()
    }

    fn output(&self) -> Instance {
        let mut out = self.db.clone_without_log();
        if let Some(adom) = self.adom {
            out.drop_relation(adom);
        }
        out
    }

    /// Replay base-instance delta-log entries as one batch: each entry is
    /// expanded into the fact change itself plus, for a program that
    /// reads `ADom`, its reference-count consequences; then the cascade
    /// settles once.
    fn apply_entries(&mut self, entries: &[DeltaEntry]) {
        #[cfg(test)]
        let epoch = self.db.epoch();
        let mut log = Vec::new();
        for e in entries {
            match e.op {
                DeltaOp::Insert => {
                    self.count_adom(&mut log, &e.fact, 1);
                    self.push(&mut log, DeltaOp::Insert, e.fact.clone());
                }
                DeltaOp::Delete => {
                    self.push(&mut log, DeltaOp::Delete, e.fact.clone());
                    self.count_adom(&mut log, &e.fact, -1);
                }
            }
        }
        self.settle(&mut log);
        #[cfg(test)]
        tests::VIEW_WRITES.with(|c| c.set(c.get() + self.db.epoch() - epoch));
    }

    /// Move the `ADom` reference counts of `f`'s values by `by`, pushing
    /// the `ADom` fact of each value that enters or leaves the active
    /// domain. Nothing for a program that does not read `ADom`.
    fn count_adom(&mut self, log: &mut BatchLog, f: &Fact, by: i64) {
        let Some(adom) = self.adom else {
            return;
        };
        for &v in &f.args {
            let c = self.adom_refs.entry(v).or_insert(0);
            *c += by;
            let op = if by > 0 && *c == 1 {
                DeltaOp::Insert
            } else if *c <= 0 {
                self.adom_refs.remove(&v);
                DeltaOp::Delete
            } else {
                continue;
            };
            self.push(log, op, Fact::new(adom, [v]));
        }
    }

    /// Apply one membership change to the database and record it in the
    /// batch log.
    fn push(&mut self, log: &mut BatchLog, op: DeltaOp, f: Fact) {
        let changed = match op {
            DeltaOp::Insert => self.db.insert(f.clone()),
            DeltaOp::Delete => self.db.remove(&f),
        };
        debug_assert!(changed, "delta entries are real membership changes");
        log.push((op, f));
    }

    /// Run the cascade to quiescence: each stratum, bottom-up, settles
    /// every change logged before it — the batch's own and the lower
    /// strata's — and logs its net change for the strata above.
    /// Dependencies only point upward, so one sweep settles.
    fn settle(&mut self, log: &mut BatchLog) {
        let strata = std::mem::take(&mut self.strata);
        for stratum in &strata {
            self.dred_stratum(log, stratum);
        }
        self.strata = strata;
    }

    /// Delete–rederive for `stratum`, given the batch log so far: three
    /// phases decide what changes against the unchanged database, then
    /// one commit writes the net change.
    fn dred_stratum(&mut self, log: &mut BatchLog, stratum: &Stratum) {
        let relevant =
            |f: &Fact| stratum.body_rels.contains(&f.rel) || stratum.neg_rels.contains(&f.rel);
        // Net change per relevant fact across the log: the first op tells
        // presence before the batch, the last op presence now; transients
        // (insert+delete) cancel.
        let mut first: FxMap<Fact, DeltaOp> = fxmap();
        let mut last: FxMap<Fact, DeltaOp> = fxmap();
        for (op, f) in log.iter() {
            if relevant(f) {
                first.entry(f.clone()).or_insert(*op);
                last.insert(f.clone(), *op);
            }
        }
        let mut ins: Vec<Fact> = Vec::new();
        let mut del: Vec<Fact> = Vec::new();
        for (f, lop) in last {
            let present_before = first[&f] == DeltaOp::Delete;
            let present_after = lop == DeltaOp::Insert;
            if present_before == present_after {
                continue;
            }
            if present_after {
                ins.push(f);
            } else {
                del.push(f);
            }
        }
        if ins.is_empty() && del.is_empty() {
            return;
        }
        ins.sort_unstable();
        del.sort_unstable();

        // Phase 1 — overdelete, against the unchanged database: close the
        // set of stratum facts reachable from a deletion (positive
        // occurrence) or an insertion (negated occurrence), skipping
        // negation checks: a sound over-approximation of lost support. A
        // probe from a changed fact reads the database beside `gone`, the
        // deleted support, so a derivation that used two deleted facts is
        // still found; one from an overdeleted fact reads the database,
        // which still holds it, alone.
        let gone = Instance::from_facts(del.iter().cloned());
        let (db, with_gone) = ([&self.db], [&self.db, &gone]);
        let mut over: FxSet<Fact> = fxset();
        {
            let mut steps = [
                Step::new(self.occurrences(stratum, |p| &p.pos[..]), false, &with_gone),
                Step::new(self.occurrences(stratum, |p| &p.neg[..]), false, &with_gone),
                Step::new(self.occurrences(stratum, |p| &p.pos[..]), false, &db),
            ];
            let blocked = ins.iter().filter(|i| stratum.neg_rels.contains(&i.rel));
            let mut work: Vec<(Fact, usize)> = (del.iter().map(|d| (d.clone(), 0)))
                .chain(blocked.map(|i| (i.clone(), 1)))
                .collect();
            let mut heads: Vec<Fact> = Vec::new();
            while let Some((x, k)) = work.pop() {
                steps[k].run(&x, &mut |o, vals| heads.push(o.ground(vals)));
                for h in heads.drain(..) {
                    if self.db.contains(&h) && over.insert(h.clone()) {
                        work.push((h, 2));
                    }
                }
            }
        }
        let mut over_sorted: Vec<Fact> = over.iter().cloned().collect();
        over_sorted.sort_unstable();
        #[cfg(test)]
        tests::OVERDELETED.with(|c| c.set(c.get() + over_sorted.len() as u64));

        // Phase 2 — rederive, against the unchanged database: one
        // existence probe per overdeleted fact (full semantics, lower
        // strata final). A derivation counts only when none of its
        // premises is overdeleted; a fact whose only alternative
        // derivations run through other overdeleted facts is left to
        // phase 3, which the facts that pass here seed.
        let mut alive: FxSet<Fact> = {
            let mut heads = Step::new(
                self.occurrences(stratum, |p| std::slice::from_ref(&p.head)),
                true,
                &db,
            );
            let dead = |f: &Fact| over.contains(f);
            let mut derivable = |h: &Fact| {
                #[cfg(test)]
                tests::REDERIVE_PROBES.with(|c| c.set(c.get() + 1));
                heads.any(h, &|o, vals| o.avoids(vals, &dead))
            };
            (over_sorted.iter())
                .filter(|h| derivable(h))
                .cloned()
                .collect()
        };

        // Phase 3 — insert, against the unchanged database: semi-naive
        // rounds over the database beside `fresh`, the facts new in
        // earlier rounds, each round's occurrences bound once. The first
        // round starts from the inserted support (positive occurrences),
        // the deleted support (negated occurrences) and the rederived
        // facts, each later one from the facts the round before found. A
        // derivation counts when none of its premises is overdeleted and
        // not yet back; an overdeleted head it finds is back (alive), any
        // other head not yet stored is fresh.
        let mut fresh = Instance::new();
        let revived = (over_sorted.iter()).filter(|h| alive.contains(*h)).cloned();
        let unblocked = (del.into_iter()).filter(|d| stratum.neg_rels.contains(&d.rel));
        let mut seeds: Vec<(Fact, usize)> = (ins.into_iter().chain(revived).map(|f| (f, 0)))
            .chain(unblocked.map(|d| (d, 1)))
            .collect();
        while !seeds.is_empty() {
            #[cfg(test)]
            tests::INSERT_ROUNDS.with(|c| c.set(c.get() + 1));
            let mut found: Vec<Fact> = Vec::new();
            {
                let union = [&self.db, &fresh];
                let mut steps = [
                    Step::new(self.occurrences(stratum, |p| &p.pos[..]), true, &union),
                    Step::new(self.occurrences(stratum, |p| &p.neg[..]), true, &union),
                ];
                let dead = |f: &Fact| over.contains(f) && !alive.contains(f);
                for (x, k) in &seeds {
                    steps[*k].run(x, &mut |o, vals| {
                        if o.avoids(vals, &dead) {
                            found.push(o.ground(vals));
                        }
                    });
                }
            }
            found.sort_unstable();
            found.dedup();
            found.retain(|h| match over.contains(h) {
                true => alive.insert(h.clone()),
                false => !self.db.contains(h) && !fresh.contains(h),
            });
            fresh.insert_all(found.iter().filter(|h| !over.contains(*h)), |_| {});
            seeds = found.into_iter().map(|h| (h, 0)).collect();
        }

        // Commit the stratum's net change, in deterministic order:
        // overdeleted facts that stayed out, then genuinely new facts.
        let mut net_ins: Vec<Fact> = fresh.iter().cloned().collect();
        net_ins.sort_unstable();
        for f in over_sorted.into_iter().filter(|h| !alive.contains(h)) {
            self.push(log, DeltaOp::Delete, f);
        }
        for f in net_ins {
            self.push(log, DeltaOp::Insert, f);
        }
    }

    /// The occurrences `pick` takes from each of `stratum`'s rules.
    fn occurrences<'a>(
        &'a self,
        stratum: &'a Stratum,
        pick: fn(&RulePlans) -> &[Occurrence],
    ) -> impl Iterator<Item = &'a Occurrence> {
        (stratum.rules.iter()).flat_map(move |&ri| pick(&self.plans[ri]))
    }

    /// The view's maintenance counters.
    pub fn stats(&self) -> ViewStats {
        ViewStats {
            incremental_applied: self.incremental_applied,
            full_rebuilds: self.full_rebuilds,
            strata: self.strata.len(),
        }
    }
}

/// Diagnostics of the writer's built view for `(p, strategy)`, without
/// refreshing it.
pub fn view_stats(p: &Program, w: &ViewWriter, strategy: EvalStrategy) -> Option<ViewStats> {
    w.held(p, strategy)?
        .view
        .as_ref()
        .map(MaterializedView::stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_rule::BINDS;
    use crate::eval::eval_program;
    use crate::program::parse_program;
    use parlog_relal::atom::{Atom, Term};
    use parlog_relal::fact::fact;
    use parlog_relal::query::ConjunctiveQuery;
    use parlog_relal::symbols::rel;
    use parlog_relal::trie::{wcoj_variable_order, LeapfrogPlan};
    use std::cell::Cell;

    thread_local! {
        /// Rederive-phase existence probes made on this thread.
        pub(super) static REDERIVE_PROBES: Cell<u64> = const { Cell::new(0) };
        /// Facts overdeleted by DRed on this thread.
        pub(super) static OVERDELETED: Cell<u64> = const { Cell::new(0) };
        /// Semi-naive rounds run by DRed's insert phase.
        pub(super) static INSERT_ROUNDS: Cell<u64> = const { Cell::new(0) };
        /// Mutations of a view's database made by incremental refreshes.
        pub(super) static VIEW_WRITES: Cell<u64> = const { Cell::new(0) };
    }

    fn take(counter: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
        counter.with(|c| c.replace(0))
    }

    /// Refresh `view` against `base` and hold it to the from-scratch
    /// fixpoint of its program under its strategy. The scratch fixpoint
    /// binds occurrence plans too; the count is left as the refresh made
    /// it.
    fn assert_matches_scratch(view: &mut MaterializedView, base: &Instance) {
        let via_view = view.refresh(base);
        let binds = take(&BINDS);
        let scratch = eval_program(&view.program, base, view.strategy).unwrap();
        BINDS.with(|c| c.set(binds));
        assert_eq!(via_view.sorted_facts(), scratch.sorted_facts());
    }

    /// A view output is a read-only copy: it carries the facts, not the
    /// derivation history of the maintained database (which doubled it).
    /// A program that does not read `ADom` keeps no `ADom` facts to strip;
    /// one that does has them dropped whole, without a log entry each.
    #[test]
    fn view_outputs_carry_no_derivation_log() {
        let p = parse_program("T(x,y) <- E(x,y)\nT(x,z) <- E(x,y), T(y,z)").unwrap();
        let mut db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Indexed).unwrap();
        let out = view.refresh(&db);
        assert_eq!(out.relation_len(rel("T")), 210);
        assert_eq!(out.relation_len(adom_id()), 0);
        assert_eq!(out.delta_log_len(), 0);
        db.insert(fact("E", &[21, 22]));
        let refreshed = view.refresh(&db);
        assert_eq!(refreshed.relation_len(rel("T")), 211);
        assert_eq!(refreshed.delta_log_len(), 0);

        let reads = parse_program("N(x) <- ADom(x), not E(x,x)").unwrap();
        let mut view = MaterializedView::new(&reads, &db, EvalStrategy::Indexed).unwrap();
        for values in [23, 24] {
            let out = view.refresh(&db);
            assert_eq!(out.relation_len(rel("N")), values);
            assert_eq!(out.relation_len(adom_id()), 0);
            assert_eq!(out.delta_log_len(), 0);
            assert_eq!(out.trie_layers(adom_id(), &[0]).runs()[0].rows(), 0);
            db.insert(fact("E", &[22, 23]));
        }
    }

    /// A view on a base built whole (no history) is materialized at the
    /// base's epoch, so the base's later mutations replay from its log:
    /// no refresh rebuilds.
    #[test]
    fn view_on_a_built_base_refreshes_incrementally() {
        let p = parse_program("T(x,y) <- E(x,y)\nT(x,z) <- E(x,y), T(y,z)").unwrap();
        let mut db = Instance::from_facts((0..20u64).map(|i| fact("E", &[i, i + 1])));
        assert_eq!(db.delta_log_len(), 0);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Indexed).unwrap();
        db.insert(fact("E", &[20, 21]));
        assert_matches_scratch(&mut view, &db);
        db.remove(&fact("E", &[0, 1]));
        assert_matches_scratch(&mut view, &db);
        let stats = view.stats();
        assert_eq!(stats.full_rebuilds, 0);
        assert_eq!(stats.incremental_applied, 2);
    }

    /// A recursion-free program is maintained like any other: one DRed
    /// pass per stratum, here a join below a negation.
    #[test]
    fn nonrecursive_strata_are_maintained_by_dred() {
        let p = parse_program(
            "J(x,z) <- R(x,y), S(y,z)
             K(x) <- J(x,x), not T(x)",
        )
        .unwrap();
        let mut db = Instance::from_facts([fact("R", &[1, 2]), fact("S", &[2, 1])]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        assert!(view.refresh(&db).contains(&fact("K", &[1])));
        assert_eq!(view.stats().strata, 2);

        // Negation flip: inserting T(1) retracts K(1).
        db.insert(fact("T", &[1]));
        assert_matches_scratch(&mut view, &db);
        db.remove(&fact("T", &[1]));
        assert_matches_scratch(&mut view, &db);
        // Losing the join support retracts J and K.
        db.remove(&fact("S", &[2, 1]));
        assert_matches_scratch(&mut view, &db);
        let stats = view.stats();
        assert_eq!(stats.full_rebuilds, 0);
        assert!(stats.incremental_applied >= 3);
    }

    /// The writer's views refresh at epoch publication — against the
    /// writer — so a published snapshot's views are already consistent
    /// and a cold reader pays neither the refresh nor any lock beyond
    /// the `Arc` clone.
    #[test]
    fn publish_views_makes_snapshot_reads_free() {
        use parlog_relal::snapshot::SnapshotStore;

        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,z) <- TC(x,y), E(y,z)",
        )
        .unwrap();
        let programs = vec![(p.clone(), EvalStrategy::Auto)];
        let store = SnapshotStore::new(ViewWriter::new(Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
        ])));
        let snap = store.publish_with(|w| publish_views(w, &programs).unwrap());
        assert_eq!(snap.view_count(), 1);

        // The cold read is an O(1) frozen lookup: the returned Arc is
        // the very object frozen at publication, no trie was built and
        // no evaluator op ran.
        let source = view_key_source(&p, EvalStrategy::Auto);
        let key = view_key(&source);
        parlog_relal::opcount::reset();
        let out = snap.view_output_exact(key, &source).unwrap();
        assert_eq!(parlog_relal::opcount::reset(), 0);
        assert!(Arc::ptr_eq(&out, &snap.view_output(key).unwrap()));
        assert_eq!(snap.instance().trie_builds(), 0);
        assert!(out.contains(&fact("TC", &[1, 3])));

        // The maintained state stayed on the writer: the next publish
        // refreshes incrementally (no full rebuild) and readers of the
        // new snapshot see the updated fixpoint, again for free.
        store.mutate(|w| {
            w.insert(fact("E", &[3, 4]));
        });
        let snap2 = store.publish_with(|w| publish_views(w, &programs).unwrap());
        let stats = store
            .with_writer(|w| view_stats(&p, w, EvalStrategy::Auto))
            .unwrap();
        assert_eq!(stats.full_rebuilds, 0);
        assert!(stats.incremental_applied >= 1);
        let out2 = snap2.view_output_exact(key, &source).unwrap();
        assert!(out2.contains(&fact("TC", &[1, 4])));
        // The old pinned snapshot still serves its frozen output.
        let old = snap.view_output_exact(key, &source).unwrap();
        assert!(!old.contains(&fact("TC", &[1, 4])));
    }

    #[test]
    fn dred_maintains_transitive_closure() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,z) <- TC(x,y), E(y,z)",
        )
        .unwrap();
        let mut db =
            Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[3, 4])]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        assert_eq!(view.stats().strata, 1);

        // Cutting the middle edge splits the chain; DRed must retract
        // every path through it but keep 1→2 and 3→4.
        db.remove(&fact("E", &[2, 3]));
        let out = view.refresh(&db);
        assert!(out.contains(&fact("TC", &[1, 2])));
        assert!(!out.contains(&fact("TC", &[1, 4])));
        assert_matches_scratch(&mut view, &db);

        // An alternative path keeps facts alive through a deletion.
        db.insert(fact("E", &[2, 3]));
        db.insert(fact("E", &[1, 3]));
        assert_matches_scratch(&mut view, &db);
        db.remove(&fact("E", &[1, 2]));
        let out = view.refresh(&db);
        assert!(out.contains(&fact("TC", &[1, 4])));
        assert_matches_scratch(&mut view, &db);
        assert_eq!(view.stats().full_rebuilds, 0);
    }

    #[test]
    fn adom_refcounts_keep_complement_rules_correct() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,z) <- TC(x,y), E(y,z)
             NT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let mut db = Instance::from_facts([fact("E", &[1, 2])]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        // A brand-new value enters the active domain…
        db.insert(fact("E", &[3, 3]));
        assert_matches_scratch(&mut view, &db);
        // …and leaves it again when its last occurrence dies.
        db.remove(&fact("E", &[3, 3]));
        assert_matches_scratch(&mut view, &db);
        assert_eq!(view.stats().full_rebuilds, 0);
    }

    #[test]
    fn idb_mutation_on_base_forces_full_rebuild() {
        let p = parse_program("TC(x,y) <- E(x,y)").unwrap();
        let mut db = Instance::from_facts([fact("E", &[1, 2])]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        // Poking an IDB relation into the base invalidates the
        // maintenance invariants; the view must notice and rebuild.
        db.insert(fact("TC", &[7, 7]));
        assert_matches_scratch(&mut view, &db);
        assert_eq!(view.stats().full_rebuilds, 1);
    }

    #[test]
    fn truncated_delta_log_forces_full_rebuild() {
        let p = parse_program("TC(x,y) <- E(x,y)").unwrap();
        let mut db = Instance::new();
        db.insert(fact("E", &[0, 0]));
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        // Push far more mutations than the delta log retains.
        let cap = parlog_relal::delta::DEFAULT_LOG_CAPACITY as u64;
        for k in 1..=(cap + 10) {
            db.insert(fact("E", &[k, k]));
        }
        assert_matches_scratch(&mut view, &db);
        assert_eq!(view.stats().full_rebuilds, 1);
        // Post-rebuild the view is incremental again.
        db.insert(fact("E", &[0, 1]));
        assert_matches_scratch(&mut view, &db);
        assert_eq!(view.stats().full_rebuilds, 1);
    }

    /// Views live on the writer, one per `(program, strategy)`: a second
    /// registration is a no-op, and the instance the writer derefs to —
    /// and every clone of it — carries no view state.
    #[test]
    fn views_live_on_the_writer_not_on_the_instance() {
        let p = parse_program("TC(x,y) <- E(x,y)").unwrap();
        let mut w = ViewWriter::new(Instance::from_facts([fact("E", &[1, 2])]));
        w.register(&p, EvalStrategy::Auto);
        w.register(&p, EvalStrategy::Auto);
        // Registered, not yet built: nothing to report until a refresh.
        assert!(view_stats(&p, &w, EvalStrategy::Auto).is_none());
        let (out, err) = w.refresh_views();
        assert!(err.is_none());
        assert_eq!(out.len(), 1, "one view per (program, strategy)");
        assert!(view_stats(&p, &w, EvalStrategy::Auto).is_some());
        let fork: Instance = (*w).clone();
        assert_eq!(fork, *w);
        assert!(view_stats(&p, &ViewWriter::new(fork), EvalStrategy::Auto).is_none());
    }

    /// A view whose program does not stratify is reported by the refresh
    /// that first builds it and dropped from the writer; the other views'
    /// outputs are still returned, and the next refresh is clean.
    #[test]
    fn an_unstratifiable_view_is_reported_once_and_dropped() {
        let good = parse_program("TC(x,y) <- E(x,y)").unwrap();
        let bad = parse_program("P(x) <- E(x,y), not Q(x)\nQ(x) <- E(x,y), not P(x)").unwrap();
        let mut w = ViewWriter::new(Instance::from_facts([fact("E", &[1, 2])]));
        w.register(&good, EvalStrategy::Auto);
        w.register(&bad, EvalStrategy::Auto);
        let (out, err) = w.refresh_views();
        assert!(err.is_some());
        assert_eq!(out.len(), 1);
        assert!(out.contains_key(&view_key_for(&good, EvalStrategy::Auto)));
        let (out, err) = w.refresh_views();
        assert!(err.is_none());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn distinct_strategies_install_distinct_views() {
        let p = parse_program("TC(x,y) <- E(x,y)").unwrap();
        let mut w = ViewWriter::new(Instance::from_facts([fact("E", &[1, 2])]));
        let programs = [
            (p.clone(), EvalStrategy::Indexed),
            (p.clone(), EvalStrategy::Wcoj),
        ];
        let out = publish_views(&mut w, &programs).unwrap();
        assert_eq!(out.len(), 2);
        assert!(view_stats(&p, &w, EvalStrategy::Indexed).is_some());
        assert!(view_stats(&p, &w, EvalStrategy::Wcoj).is_some());
        assert!(view_stats(&p, &w, EvalStrategy::Auto).is_none());
    }

    #[test]
    fn strata_settle_bottom_up_across_negation() {
        // Stratum tower: a join (J) feeds recursion (TC) feeds a
        // complement through negation (Iso) — the settle loop must hand
        // each stratum's net change to the strata above it.
        let p = parse_program(
            "J(x,y) <- R(x,y), S(y)
             TC(x,y) <- J(x,y)
             TC(x,z) <- TC(x,y), J(y,z)
             Iso(x) <- ADom(x), not TC(x,x)",
        )
        .unwrap();
        let mut db = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[2, 1]),
            fact("S", &[1]),
            fact("S", &[2]),
        ]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        // Longest-path stratification pulls the (nonrecursive) J rule
        // into the recursive stratum; the Iso rule sits above the
        // negation, in a stratum of its own.
        assert_eq!(view.stats().strata, 2);
        // Deleting S(2) kills J(1,2), the 1↔2 cycle, and resurrects Iso.
        db.remove(&fact("S", &[2]));
        assert_matches_scratch(&mut view, &db);
        db.insert(fact("S", &[2]));
        assert_matches_scratch(&mut view, &db);
        assert_eq!(view.stats().full_rebuilds, 0);
    }

    #[test]
    fn multi_fact_batches_with_interleaved_ops_settle_correctly() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,z) <- TC(x,y), E(y,z)",
        )
        .unwrap();
        let mut db = Instance::from_facts((0..5u64).map(|k| fact("E", &[k, k + 1])));
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        // One refresh covering deletes of two chain edges plus inserts
        // that bridge one of the gaps — derivations lost through *pairs*
        // of deleted facts must still be found.
        db.remove(&fact("E", &[1, 2]));
        db.remove(&fact("E", &[3, 4]));
        db.insert(fact("E", &[1, 3]));
        assert_matches_scratch(&mut view, &db);
        let stats = view.stats();
        assert_eq!(stats.full_rebuilds, 0);
        assert_eq!(stats.incremental_applied, 3);
    }

    /// Clock-free guard on the retract path `view_churn` times: a chord
    /// and two spurs retracted from a 64-chain in one batch (its fourth
    /// group's). Rederive is one probe per overdeleted fact — the
    /// iterate-to-fixpoint loop re-probed the set once per chain step
    /// the alternatives lay behind (1 774 probes for 178 facts on one
    /// such batch) — and DRed writes the database only to commit the net
    /// change.
    #[test]
    fn chord_retraction_probes_each_overdeleted_fact_once() {
        let p = parse_program("T(x,y) <- E(x,y)\nT(x,z) <- E(x,y), T(y,z)").unwrap();
        let mut db = Instance::from_facts((1..64u64).map(|i| fact("E", &[i, i + 1])));
        let extra = [
            fact("E", &[27, 900_006]),
            fact("E", &[30, 900_007]),
            fact("E", &[25, 41]),
        ];
        for f in &extra {
            db.insert(f.clone());
        }
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        for f in &extra {
            db.remove(f);
        }
        take(&REDERIVE_PROBES);
        take(&OVERDELETED);
        take(&BINDS);
        take(&VIEW_WRITES);
        take(&INSERT_ROUNDS);
        assert_matches_scratch(&mut view, &db);
        let (probes, over) = (take(&REDERIVE_PROBES), take(&OVERDELETED));
        // T(x,y) for x ≤ 25 < 41 ≤ y, and everything below a spur.
        assert_eq!(over, 25 * 24 + 27 + 30);
        assert!(probes <= over, "{probes} rederive probes for {over} facts");
        // Each occurrence binds at most once per phase and once per
        // insert round: three positive body occurrences in the
        // overdelete, two heads in the rederive, and per round the one
        // occurrence a revived `T` fact matches. The revival walks down
        // the chain from `T(25,·)`, one step a round, and a last round
        // finds nothing.
        let (binds, rounds) = (take(&BINDS), take(&INSERT_ROUNDS));
        assert_eq!(rounds, 25);
        assert!(
            binds <= 3 + 2 + rounds,
            "{binds} binds in {rounds} insert rounds"
        );
        // The view's database takes only the net change: three edges and
        // 57 paths to a spur out (1 268 writes when DRed removed the
        // overdeleted set and put 600 back). The program does not read
        // `ADom`, so no `ADom` value is written.
        assert_eq!(take(&VIEW_WRITES), 3 + 27 + 30);
        let stats = view.stats();
        assert_eq!((stats.full_rebuilds, stats.incremental_applied), (0, 3));
        // An insert-only batch writes exactly its new facts: putting the
        // edges back adds the same 60.
        for f in &extra {
            db.insert(f.clone());
        }
        assert_matches_scratch(&mut view, &db);
        assert_eq!(take(&VIEW_WRITES), 3 + 27 + 30);
    }

    /// The overdelete reads the refresh's deleted facts beside the
    /// database instead of re-adding them: a batch that deletes both
    /// supports of a join still retracts its head, and the refresh's only
    /// writes are the two base deletions and the retracted heads.
    #[test]
    fn counting_finds_heads_whose_supports_died_together() {
        let p = parse_program("J(x,z) <- R(x,y), S(y,z)").unwrap();
        let mut db =
            Instance::from_facts([fact("R", &[1, 2]), fact("S", &[2, 3]), fact("R", &[4, 2])]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        db.remove(&fact("R", &[1, 2]));
        db.remove(&fact("S", &[2, 3]));
        take(&VIEW_WRITES);
        let out = view.refresh(&db);
        assert!(!out.contains(&fact("J", &[1, 3])) && !out.contains(&fact("J", &[4, 3])));
        assert_matches_scratch(&mut view, &db);
        // R(1,2) and S(2,3) out, then J(1,3) and J(4,3): no other write.
        assert_eq!(take(&VIEW_WRITES), 2 + 2);
    }

    /// Two rules in one recursion-free stratum, the second reading the
    /// first's head: retracting one of `J(1,4)`'s two witnesses
    /// overdeletes it and the `K` facts above it, rederives `J(1,4)` from
    /// the other witness, and the insert phase brings the `K` facts back.
    /// Only the base deletion is written.
    #[test]
    fn a_second_witness_keeps_a_nonrecursive_stratum() {
        let p = parse_program(
            "J(x,z) <- R(x,y), S(y,z)
             K(x,w) <- J(x,y), S(y,w)",
        )
        .unwrap();
        let mut db = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[1, 3]),
            fact("S", &[2, 4]),
            fact("S", &[3, 4]),
            fact("S", &[4, 5]),
            fact("S", &[4, 6]),
        ]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Auto).unwrap();
        assert_eq!(view.stats().strata, 1);
        db.remove(&fact("R", &[1, 2]));
        take(&OVERDELETED);
        take(&REDERIVE_PROBES);
        take(&VIEW_WRITES);
        let out = view.refresh(&db);
        for f in [fact("J", &[1, 4]), fact("K", &[1, 5]), fact("K", &[1, 6])] {
            assert!(out.contains(&f), "{f} must survive");
        }
        assert_matches_scratch(&mut view, &db);
        assert_eq!(take(&OVERDELETED), 3);
        assert_eq!(take(&REDERIVE_PROBES), 3);
        assert_eq!(take(&VIEW_WRITES), 1);
        assert_eq!(view.stats().full_rebuilds, 0);
    }

    /// A constant inequality is decided on entry to every probe, even
    /// through an occurrence whose every variable is a parameter (one
    /// that binds no variable).
    #[test]
    fn constant_inequalities_are_decided_on_entry() {
        let p = parse_program("H(x) <- R(x), 1 != 1\nG(x) <- R(x), 1 != 2").unwrap();
        let mut db = Instance::from_facts([fact("R", &[1])]);
        let mut view = MaterializedView::new(&p, &db, EvalStrategy::Indexed).unwrap();
        db.insert(fact("R", &[2]));
        db.remove(&fact("R", &[1]));
        let out = view.refresh(&db);
        assert!(out.contains(&fact("G", &[2])) && !out.contains(&fact("H", &[2])));
        assert_eq!(out.len(), 2);
        assert_matches_scratch(&mut view, &db);
    }

    /// Occurrence plans agree with the residual evaluator they replaced
    /// — substitute the occurrence's bindings, decide the ground
    /// inequalities, run the leapfrog on the residual query in its own
    /// order — in heads, multiplicity and seeks, on every occurrence of
    /// rules with constants, repeated variables, negation and
    /// inequalities.
    #[test]
    fn occurrence_plans_match_the_substituted_residual() {
        use parlog_relal::opcount;
        use parlog_relal::valuation::Valuation;

        fn unify(atom: &Atom, f: &Fact) -> Option<Valuation> {
            if atom.rel != f.rel || atom.terms.len() != f.args.len() {
                return None;
            }
            let mut sig = Valuation::new();
            for (t, &val) in atom.terms.iter().zip(&f.args) {
                match t {
                    Term::Const(c) if *c != val => return None,
                    Term::Const(_) => {}
                    Term::Var(x) => match sig.get(x) {
                        Some(prev) if prev != val => return None,
                        Some(_) => {}
                        None => {
                            sig.bind(x.clone(), val);
                        }
                    },
                }
            }
            Some(sig)
        }

        fn substituted(
            r: &ConjunctiveQuery,
            skip: Option<usize>,
            sig: &Valuation,
            full: bool,
        ) -> Option<ConjunctiveQuery> {
            let subst = |t: &Term| match t {
                Term::Var(x) => sig.get(x).map_or_else(|| t.clone(), Term::Const),
                Term::Const(_) => t.clone(),
            };
            let atom = |a: &Atom| Atom::new(a.rel, a.terms.iter().map(subst).collect());
            let mut inequalities = Vec::new();
            for (s, t) in &r.inequalities {
                let (s, t) = (subst(s), subst(t));
                match (s.as_const(), t.as_const()) {
                    (Some(a), Some(b)) if a == b => return None,
                    (Some(_), Some(_)) => {}
                    _ => inequalities.push((s, t)),
                }
            }
            Some(ConjunctiveQuery {
                head: atom(&r.head),
                body: (0..r.body.len())
                    .filter(|&k| Some(k) != skip)
                    .map(|k| atom(&r.body[k]))
                    .collect(),
                negated: if full {
                    r.negated.iter().map(atom).collect()
                } else {
                    Vec::new()
                },
                inequalities,
            })
        }

        let p = parse_program(
            "H(x,z) <- R(x,y), S(y,z), x != z, not T(z,x)
             G(x) <- R(x,x), S(x,5), not T(x,1)
             K(x,w) <- R(x,y), R(y,z), S(z,w), y != 3",
        )
        .unwrap();
        let mut db = Instance::new();
        for i in 0..6u64 {
            for j in 0..6u64 {
                if (i * 7 + j * 3) % 4 != 0 {
                    db.insert(fact("R", &[i, j]));
                }
                if (i + 2 * j) % 3 != 1 {
                    db.insert(fact("S", &[i, j]));
                }
                if (i * j) % 5 == 1 {
                    db.insert(fact("T", &[i, j]));
                }
            }
        }
        // Layered stacks: a tail run and tombstones under every relation.
        let _ = eval_program(&p, &db.clone(), EvalStrategy::Wcoj);
        db.remove(&fact("R", &[1, 2]));
        db.insert(fact("S", &[9, 5]));
        db.remove(&fact("T", &[1, 1]));
        let probes: Vec<Fact> = db.iter().cloned().collect();
        for r in &p.rules {
            let plans = RulePlans::new(r, &fxset());
            let occurrences = std::iter::once((&plans.head, &r.head, None))
                .chain(
                    plans
                        .pos
                        .iter()
                        .zip(&r.body)
                        .enumerate()
                        .map(|(j, (o, a))| (o, a, Some(j))),
                )
                .chain(plans.neg.iter().zip(&r.negated).map(|(o, a)| (o, a, None)));
            for (o, at, skip) in occurrences {
                for f in probes.iter().chain(std::iter::once(&fact("H", &[2, 4]))) {
                    for full in [false, true] {
                        opcount::reset();
                        let mut got = Vec::new();
                        Step::new([o], full, &[&db]).run(f, &mut |o, v| got.push(o.ground(v)));
                        let got_ops = opcount::reset();
                        let sig = unify(at, f);
                        let want = sig
                            .as_ref()
                            .and_then(|sig| substituted(r, skip, sig, full).map(|q| (q, sig)))
                            .map_or_else(Vec::new, |(q, sig)| {
                                let order = wcoj_variable_order(&q, &[]);
                                let mut heads = Vec::new();
                                let plan = LeapfrogPlan::new(&q, &order, 0);
                                plan.run(&[&db], &[], &mut |vals| {
                                    let mut all = sig.clone();
                                    order.iter().zip(vals).for_each(|(x, &val)| {
                                        all.bind(x.clone(), val);
                                    });
                                    heads.push(all.derived_fact(r));
                                });
                                heads
                            });
                        let want_ops = opcount::reset();
                        assert_eq!(got, want, "{r} via {at} from {f} full={full}");
                        assert_eq!(got_ops, want_ops, "{r} via {at} from {f} full={full}");
                    }
                }
            }
        }
    }
}
