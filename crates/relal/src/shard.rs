//! Frozen shards: a fact set held only as sorted trie runs.
//!
//! A [`Shard`] is what an MPC server holds between rounds: per relation
//! and arity, one sorted, deduplicated [`TrieRel`] run in identity column
//! order, shared by `Arc`. It has no hash set, lock, delta log or
//! epoch — it is built whole and never mutated, so a next
//! state that keeps a relation shares its run. Membership is a trie
//! descent, and iteration yields facts in `(relation, arity, row)` order,
//! which is sorted fact order whenever each relation has one arity.
//!
//! A computation phase reads other column orders of the same runs;
//! [`Shard::prepare`] builds the ones its plans ask for, once, on the
//! phase's own copy of the shard.
//!
//! [`Relations`] is the one read interface local evaluation needs — trie
//! runs, membership and fact scans — implemented by the writer
//! [`Instance`] and by [`Shard`].

use crate::fact::{Args, Fact, Val};
use crate::instance::Instance;
use crate::symbols::RelId;
use crate::trie::TrieRel;
use std::borrow::{Borrow, Cow};
use std::sync::Arc;

/// What a local evaluation reads from a fact set.
pub trait Relations {
    /// Number of facts of `rel`, all arities.
    fn relation_len(&self, rel: RelId) -> usize;

    /// Hand `each` every sorted run of `rel`'s facts of arity
    /// `perm.len()` under the column permutation `perm`, oldest first.
    /// Returns whether dead tuples may linger in them, so that membership
    /// must be checked at the leaves.
    fn trie_runs(&self, rel: RelId, perm: &[usize], each: impl FnMut(&Arc<TrieRel>)) -> bool;

    /// Does the set hold `f`?
    fn contains(&self, f: &Fact) -> bool;

    /// Hand `each` every fact of `rel`.
    fn for_each_fact(&self, rel: RelId, each: impl FnMut(&Fact));

    /// The set as an [`Instance`], materialized if it is not one — what
    /// the naive oracle enumerates.
    fn as_instance(&self) -> Cow<'_, Instance>;
}

impl Relations for Instance {
    fn relation_len(&self, rel: RelId) -> usize {
        Instance::relation_len(self, rel)
    }

    fn trie_runs(&self, rel: RelId, perm: &[usize], each: impl FnMut(&Arc<TrieRel>)) -> bool {
        let layers = self.trie_layers(rel, perm);
        layers.runs().iter().for_each(each);
        layers.has_tombstones()
    }

    fn contains(&self, f: &Fact) -> bool {
        Instance::contains(self, f)
    }

    fn for_each_fact(&self, rel: RelId, each: impl FnMut(&Fact)) {
        self.relation(rel).for_each(each);
    }

    fn as_instance(&self) -> Cow<'_, Instance> {
        Cow::Borrowed(self)
    }
}

/// A fact set stored as sorted trie runs (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// One identity-order run per `(relation, arity)`, none empty, sorted
    /// by relation and arity.
    runs: Vec<(RelId, Arc<TrieRel>)>,
    /// Other column orders of those runs, built by [`Shard::prepare`].
    orders: Vec<(RelId, Arc<TrieRel>)>,
}

/// Rows bound for one shard in arrival order, grouped by relation and
/// arity: each group's row-major values, and whether each arrival is
/// charged (a delivery counted as load) or free.
#[derive(Debug, Default)]
pub struct Arrivals(Vec<(RelId, usize, Vec<Val>, Vec<bool>)>);

impl Arrivals {
    /// One arrival of the fact `rel(args)`.
    pub fn push(&mut self, rel: RelId, args: &[Val], charged: bool) {
        let key = (rel, args.len());
        let at = match self.0.iter().position(|g| (g.0, g.1) == key) {
            Some(at) => at,
            None => {
                self.0.push((rel, key.1, Vec::new(), Vec::new()));
                self.0.len() - 1
            }
        };
        self.0[at].2.extend_from_slice(args);
        self.0[at].3.push(charged);
    }

    /// Add `later`'s arrivals after these.
    pub fn append(&mut self, later: Arrivals) {
        for (rel, k, vals, charged) in later.0 {
            match self.0.iter_mut().find(|g| (g.0, g.1) == (rel, k)) {
                Some(g) => {
                    g.2.extend(vals);
                    g.3.extend(charged);
                }
                None => self.0.push((rel, k, vals, charged)),
            }
        }
    }

    /// Number of arrivals.
    pub fn count(&self) -> usize {
        self.0.iter().map(|g| g.3.len()).sum()
    }

    /// The shard of the distinct rows, each group sorted and deduplicated
    /// once, with the number of distinct rows whose first arrival is
    /// charged and their cost, `cost(arity)` each.
    pub fn build(&self, cost: impl Fn(usize) -> u64) -> (Shard, usize, u64) {
        let (mut got, mut bytes) = (0, 0);
        let runs = self.0.iter().map(|(rel, k, vals, charged)| {
            let (perm, n) = ((0..*k).collect(), charged.len());
            let mut first_charged = 0;
            let run = if charged.iter().all(|&c| c) || !charged.contains(&true) {
                let run = TrieRel::from_rows(perm, vals, n);
                first_charged = if charged[0] { run.rows() } else { 0 };
                run
            } else {
                TrieRel::from_rows_first(perm, vals, n, |i| first_charged += charged[i] as usize)
            };
            got += first_charged;
            bytes += first_charged as u64 * cost(*k);
            (*rel, run)
        });
        (Shard::from_runs(runs.collect::<Vec<_>>()), got, bytes)
    }
}

impl Shard {
    /// The empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// A shard of identity-order runs, at most one per `(relation,
    /// arity)`; empty runs are skipped.
    fn from_runs(runs: impl IntoIterator<Item = (RelId, TrieRel)>) -> Shard {
        let runs = runs.into_iter().filter(|(_, t)| t.rows() > 0);
        let mut runs: Vec<_> = runs.map(|(rel, t)| (rel, Arc::new(t))).collect();
        runs.sort_unstable_by_key(run_key);
        debug_assert!(runs.iter().all(|(_, t)| is_identity(&t.perm)));
        Shard {
            runs,
            orders: Vec::new(),
        }
    }

    /// The shard of `facts`, each relation and arity sorted and
    /// deduplicated once.
    pub fn from_facts<F: Borrow<Fact>>(facts: impl IntoIterator<Item = F>) -> Shard {
        Shard::new().with_facts(facts)
    }

    /// This shard plus `facts`: a run no fact lands in is shared, and one
    /// that gains facts is rebuilt once, its relation's other column
    /// orders dropped.
    pub fn with_facts<F: Borrow<Fact>>(&self, facts: impl IntoIterator<Item = F>) -> Shard {
        let mut new = Arrivals::default();
        for f in facts {
            new.push(f.borrow().rel, &f.borrow().args, false);
        }
        for (rel, k, vals, charged) in &mut new.0 {
            if let Some(t) = self.run(*rel, *k) {
                (0..t.rows()).for_each(|r| t.push_row(r, vals));
                charged.resize(charged.len() + t.rows(), false);
            }
        }
        let mut out = new.build(|_| 0).0;
        let gains = |rel: RelId, k: Option<usize>| {
            new.0
                .iter()
                .any(|g| g.0 == rel && k.is_none_or(|k| g.1 == k))
        };
        let kept = self
            .runs
            .iter()
            .filter(|(rel, t)| !gains(*rel, Some(t.depth())));
        out.runs.extend(kept.cloned());
        out.runs.sort_unstable_by_key(run_key);
        let orders = self.orders.iter().filter(|(rel, _)| !gains(*rel, None));
        out.orders = orders.cloned().collect();
        out
    }

    /// This shard without the relations in `drop`; every other run is
    /// shared.
    pub fn without(&self, drop: &[RelId]) -> Shard {
        let keep = |(rel, _): &&(RelId, Arc<TrieRel>)| !drop.contains(rel);
        Shard {
            runs: self.runs.iter().filter(keep).cloned().collect(),
            orders: self.orders.iter().filter(keep).cloned().collect(),
        }
    }

    /// Build every column order in `orders` that is not identity and not
    /// built yet, from the identity run of its relation and arity.
    pub fn prepare<'p>(&mut self, orders: impl IntoIterator<Item = (RelId, &'p [usize])>) {
        for (rel, perm) in orders {
            if is_identity(perm) || self.order(rel, perm).is_some() {
                continue;
            }
            if let Some(run) = self.run(rel, perm.len()) {
                let run = Arc::new(permuted(run, perm));
                self.orders.push((rel, run));
            }
        }
    }

    /// The identity-order run of `rel` at arity `k`.
    fn run(&self, rel: RelId, k: usize) -> Option<&Arc<TrieRel>> {
        let at = self.runs.binary_search_by_key(&(rel, k), run_key);
        at.ok().map(|i| &self.runs[i].1)
    }

    /// The prepared run of `rel` under `perm`.
    fn order(&self, rel: RelId, perm: &[usize]) -> Option<&Arc<TrieRel>> {
        let mut orders = self.orders.iter();
        orders
            .find(|(r, t)| *r == rel && t.perm == perm)
            .map(|(_, t)| t)
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|(_, t)| t.rows()).sum()
    }

    /// Is the shard empty?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every fact, by relation, arity and row.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        let runs = self.runs.iter();
        runs.flat_map(|(rel, t)| (0..t.rows()).map(move |r| row_fact(*rel, t, r)))
    }

    /// The facts as an [`Instance`] built whole.
    pub fn to_instance(&self) -> Instance {
        Instance::from_facts(self.iter())
    }
}

/// Two shards are equal when they hold the same facts.
impl PartialEq for Shard {
    fn eq(&self, other: &Shard) -> bool {
        self.runs == other.runs
    }
}

impl Relations for Shard {
    fn relation_len(&self, rel: RelId) -> usize {
        let runs = self.runs.iter().filter(|(r, _)| *r == rel);
        runs.map(|(_, t)| t.rows()).sum()
    }

    fn trie_runs(&self, rel: RelId, perm: &[usize], mut each: impl FnMut(&Arc<TrieRel>)) -> bool {
        if is_identity(perm) {
            self.run(rel, perm.len()).into_iter().for_each(each);
        } else if let Some(t) = self.order(rel, perm) {
            each(t);
        } else if let Some(run) = self.run(rel, perm.len()) {
            each(&Arc::new(permuted(run, perm)));
        }
        false
    }

    fn contains(&self, f: &Fact) -> bool {
        let Some(t) = self.run(f.rel, f.args.len()) else {
            return false;
        };
        let mut range = (0, t.rows());
        for (d, &v) in f.args.iter().enumerate() {
            range = t.descend(d, range.0, range.1, v);
        }
        range.0 < range.1
    }

    fn for_each_fact(&self, rel: RelId, mut each: impl FnMut(&Fact)) {
        for (_, t) in self.runs.iter().filter(|(r, _)| *r == rel) {
            (0..t.rows()).for_each(|r| each(&row_fact(rel, t, r)));
        }
    }

    fn as_instance(&self) -> Cow<'_, Instance> {
        Cow::Owned(self.to_instance())
    }
}

/// The order of [`Shard`]'s runs: by relation, then arity.
fn run_key((rel, t): &(RelId, Arc<TrieRel>)) -> (RelId, usize) {
    (*rel, t.depth())
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().copied().eq(0..perm.len())
}

/// Row `r` of the identity-order run `t` of `rel`, as a fact.
fn row_fact(rel: RelId, t: &TrieRel, r: usize) -> Fact {
    Fact::new(rel, (0..t.depth()).map(|d| t.value(d, r)).collect::<Args>())
}

/// The identity-order run `t` under the column permutation `perm`.
fn permuted(t: &TrieRel, perm: &[usize]) -> TrieRel {
    let mut flat = Vec::with_capacity(t.rows() * perm.len());
    for r in 0..t.rows() {
        flat.extend(perm.iter().map(|&p| t.value(p, r)));
    }
    TrieRel::from_rows(perm.to_vec(), &flat, t.rows())
}
