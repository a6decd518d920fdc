//! The one semi-naive Δ-rule, shared by the from-scratch fixpoint
//! ([`crate::eval`]) and view maintenance ([`crate::maintain`]).
//!
//! A rule is prepared once per occurrence — a positive body atom, a
//! negated one, or its head — as an [`Occurrence`]: a [`LeapfrogPlan`]
//! whose parameters are the occurrence's variables and whose residual is
//! the rest of the body. A fact that matches the occurrence binds the
//! parameters, and one run of the plan enumerates every derivation
//! through it. A [`Step`] binds occurrences to one list of layers — the
//! database, then the facts new since — for a round or a phase that
//! writes none of them, runs facts through them, binding each occurrence
//! at most once, and hands every derivation to the caller's filter: the
//! fixpoint's "not yet found", DRed's "uses no dead premise".

use parlog_relal::atom::{Atom, Term};
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::fastmap::FxSet;
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::RelId;
use parlog_relal::trie::{wcoj_variable_order, BoundPlan, LeapfrogPlan, Slot};

/// A rule body prepared for probing from one occurrence. The
/// occurrence's variables are the leapfrog parameters (first
/// occurrences, in order) and the rest of the body is the residual,
/// enumerated in the order [`wcoj_variable_order`] gives it with the
/// parameters bound. `derive` checks negation (real derivations);
/// `candidates`, compiled only for a rule with negated atoms, skips it
/// (an over-approximation; the caller decides membership exactly).
#[derive(Debug)]
pub(crate) struct Occurrence {
    rel: RelId,
    /// The occurrence atom's terms, resolved against the order.
    terms: Vec<Slot>,
    head_rel: RelId,
    /// The rule head's terms, resolved against the order.
    head: Vec<Slot>,
    /// The residual's positive atoms over the relations in `rec` (the
    /// rule's own stratum heads), resolved against the order: the only
    /// premises DRed may still retract or revive mid-refresh.
    premises: Vec<(RelId, Vec<Slot>)>,
    derive: LeapfrogPlan,
    candidates: Option<LeapfrogPlan>,
}

impl Occurrence {
    /// Prepare rule `r` for probes through `at`, with the positive body
    /// atom `skip` (the occurrence itself, if positive) left out.
    pub(crate) fn new(
        r: &ConjunctiveQuery,
        at: &Atom,
        skip: Option<usize>,
        rec: &FxSet<RelId>,
    ) -> Occurrence {
        let params = at.variables();
        let body: Vec<Atom> = (0..r.body.len())
            .filter(|&k| Some(k) != skip)
            .map(|k| r.body[k].clone())
            .collect();
        // The parameters play constants to the order heuristic.
        let bound = |t: &Term| match t {
            Term::Var(v) if params.contains(v) => Term::val(0),
            _ => t.clone(),
        };
        let shape = ConjunctiveQuery {
            head: r.head.clone(),
            body: body
                .iter()
                .map(|a| Atom::new(a.rel, a.terms.iter().map(bound).collect()))
                .collect(),
            negated: Vec::new(),
            inequalities: Vec::new(),
        };
        let mut order = params.clone();
        order.extend(wcoj_variable_order(&shape, &[]));
        let mut residual = ConjunctiveQuery {
            head: r.head.clone(),
            body,
            negated: r.negated.clone(),
            inequalities: r.inequalities.clone(),
        };
        let derive = LeapfrogPlan::new(&residual, &order, params.len());
        let candidates = (!residual.negated.is_empty()).then(|| {
            residual.negated.clear();
            LeapfrogPlan::new(&residual, &order, params.len())
        });
        let slots = |a: &Atom| a.terms.iter().map(|t| Slot::of(t, &order)).collect();
        Occurrence {
            rel: at.rel,
            terms: slots(at),
            head_rel: r.head.rel,
            head: slots(&r.head),
            premises: (residual.body.iter())
                .filter(|a| rec.contains(&a.rel))
                .map(|a| (a.rel, slots(a)))
                .collect(),
            derive,
            candidates,
        }
    }

    /// The plan a probe runs: `full` checks negation.
    fn plan(&self, full: bool) -> &LeapfrogPlan {
        match &self.candidates {
            Some(candidates) if !full => candidates,
            _ => &self.derive,
        }
    }

    /// The parameters `f` binds (its values where the occurrence's
    /// variables first occur), inline, or `None` if it does not match.
    fn params(&self, f: &Fact) -> Option<Args> {
        if f.rel != self.rel || f.args.len() != self.terms.len() {
            return None;
        }
        let mut n = 0;
        let params: Args = (self.terms.iter().zip(&f.args))
            .filter_map(|(s, &v)| {
                // A variable's first position binds the next parameter.
                let first = *s == Slot::Var(n);
                n += usize::from(first);
                first.then_some(v)
            })
            .collect();
        let matches = (self.terms.iter().zip(&f.args)).all(|(s, &v)| s.value(&params) == v);
        matches.then_some(params)
    }

    /// The derived head of a binding vector.
    pub(crate) fn ground(&self, vals: &[Val]) -> Fact {
        instantiate(self.head_rel, &self.head, vals)
    }

    /// Does the binding vector `vals` use no `dead` fact as a premise?
    /// Lower-stratum premises and negated atoms are final, so only the
    /// stratum's own heads are looked at.
    pub(crate) fn avoids(&self, vals: &[Val], dead: &dyn Fn(&Fact) -> bool) -> bool {
        (self.premises.iter()).all(|(rel, terms)| !dead(&instantiate(*rel, terms, vals)))
    }
}

/// The `rel` fact with `terms` under the binding vector `vals`.
fn instantiate(rel: RelId, terms: &[Slot], vals: &[Val]) -> Fact {
    Fact::new(rel, terms.iter().map(|s| s.value(vals)).collect::<Args>())
}

/// One rule's occurrences: its head, its positive and its negated atoms.
#[derive(Debug)]
pub(crate) struct RulePlans {
    pub(crate) head: Occurrence,
    pub(crate) pos: Vec<Occurrence>,
    pub(crate) neg: Vec<Occurrence>,
}

impl RulePlans {
    /// `rec` holds the heads of `r`'s stratum.
    pub(crate) fn new(r: &ConjunctiveQuery, rec: &FxSet<RelId>) -> RulePlans {
        RulePlans {
            head: Occurrence::new(r, &r.head, None, rec),
            pos: (0..r.body.len())
                .map(|j| Occurrence::new(r, &r.body[j], Some(j), rec))
                .collect(),
            neg: (r.negated.iter())
                .map(|a| Occurrence::new(r, a, None, rec))
                .collect(),
        }
    }
}

/// Occurrences bound to one list of layers, which stay unchanged while
/// the step lives — a round or a phase: each occurrence is bound on the
/// first fact that matches it and reused by every later one.
pub(crate) struct Step<'a> {
    probes: Vec<(&'a Occurrence, Option<BoundPlan<'a>>)>,
    full: bool,
    layers: &'a [&'a Instance],
}

impl<'a> Step<'a> {
    /// A step through `occurrences` over the union of `layers`; `full`
    /// checks negation.
    pub(crate) fn new(
        occurrences: impl IntoIterator<Item = &'a Occurrence>,
        full: bool,
        layers: &'a [&'a Instance],
    ) -> Step<'a> {
        Step {
            probes: occurrences.into_iter().map(|o| (o, None)).collect(),
            full,
            layers,
        }
    }

    /// Run `f` through every occurrence it matches, handing each
    /// derivation — the occurrence and its binding vector — to `keep`.
    pub(crate) fn run(&mut self, f: &Fact, keep: &mut dyn FnMut(&Occurrence, &[Val])) {
        for k in 0..self.probes.len() {
            self.run_one(k, f, &mut *keep);
        }
    }

    /// Does some occurrence derive from `f` a binding vector `accept`
    /// takes? The occurrences after the first that does are not run.
    pub(crate) fn any(&mut self, f: &Fact, accept: &dyn Fn(&Occurrence, &[Val]) -> bool) -> bool {
        (0..self.probes.len()).any(|k| {
            let mut found = false;
            self.run_one(k, f, &mut |o, vals| found = found || accept(o, vals));
            found
        })
    }

    /// Run `f` through the `k`th occurrence, if it matches.
    fn run_one(&mut self, k: usize, f: &Fact, keep: &mut dyn FnMut(&Occurrence, &[Val])) {
        let (o, bound) = &mut self.probes[k];
        let o: &'a Occurrence = o;
        if let Some(params) = o.params(f) {
            let (plan, layers) = (o.plan(self.full), self.layers);
            let bound = bound.get_or_insert_with(|| {
                #[cfg(test)]
                BINDS.with(|c| c.set(c.get() + 1));
                plan.bind(layers)
            });
            bound.run(&params, &mut |vals| keep(o, vals));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Occurrence plans bound by this thread's steps.
    pub(crate) static BINDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
