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

/// Rows bound for one run of one shard, in arrival order: their
/// row-major values, how many arrivals are charged (a delivery counted as
/// load) and how many free, and — only once both kinds have arrived —
/// which is which.
#[derive(Debug, Default)]
struct Bucket {
    vals: Vec<Val>,
    charged: usize,
    free: usize,
    /// Per-arrival charged flags; empty while every arrival is one kind.
    flags: Vec<bool>,
}

impl Bucket {
    #[inline]
    fn push(&mut self, row: &[Val], charged: bool) {
        self.vals.extend(row.iter().copied());
        let other = if charged { self.free } else { self.charged };
        if other > 0 {
            if self.flags.is_empty() {
                self.flags.resize(other, !charged);
            }
            self.flags.push(charged);
        }
        *if charged {
            &mut self.charged
        } else {
            &mut self.free
        } += 1;
    }

    fn arrivals(&self) -> usize {
        self.charged + self.free
    }

    /// Spell out the flags of a bucket whose arrivals are all one kind.
    fn flag_each(&mut self) {
        if self.flags.is_empty() {
            self.flags = vec![self.charged > 0; self.arrivals()];
        }
    }

    /// Add `later`'s arrivals after these: moved into an empty bucket.
    fn append(&mut self, mut later: Bucket) {
        if self.arrivals() == 0 {
            *self = later;
            return;
        }
        if self.charged + later.charged > 0 && self.free + later.free > 0 {
            self.flag_each();
            later.flag_each();
            self.flags.append(&mut later.flags);
        }
        self.vals.append(&mut later.vals);
        self.charged += later.charged;
        self.free += later.free;
    }

    /// The run of the distinct rows, `k` values wide, sorted in place,
    /// and how many of them first arrived charged.
    fn into_run(mut self, k: usize) -> (TrieRel, usize) {
        let (perm, n) = ((0..k).collect(), self.arrivals());
        if self.flags.is_empty() {
            let run = TrieRel::from_row_buffer(perm, &mut self.vals, n);
            let got = if self.charged > 0 { run.rows() } else { 0 };
            return (run, got);
        }
        let mut got = 0;
        let run = TrieRel::from_rows_first(perm, &self.vals, n, |i| got += self.flags[i] as usize);
        (run, got)
    }
}

/// Rows bound for `p` shards, one buffer per shard and run key. The keys
/// are one sorted `(relation, arity)` list every shard shares — the order
/// a [`Shard`] lists its runs in — so a sender resolves a run's
/// [`Arrivals::group`] once, and an arrival is a row append.
#[derive(Debug)]
pub struct Arrivals {
    keys: Vec<(RelId, usize)>,
    /// `buckets[s][g]`: what shard `s` receives under `keys[g]`.
    buckets: Vec<Vec<Bucket>>,
}

impl Arrivals {
    /// Empty buffers for `p` shards.
    pub fn new(p: usize) -> Arrivals {
        let buckets = (0..p).map(|_| Vec::new()).collect();
        let keys = Vec::new();
        Arrivals { keys, buckets }
    }

    /// The group of the run key `(rel, k)`, added if new.
    pub fn group(&mut self, rel: RelId, k: usize) -> usize {
        self.keys.binary_search(&(rel, k)).unwrap_or_else(|g| {
            self.keys.insert(g, (rel, k));
            self.buckets
                .iter_mut()
                .for_each(|b| b.insert(g, Bucket::default()));
            g
        })
    }

    /// One arrival at shard `s` of the row `row` of group `g`.
    #[inline]
    pub fn push(&mut self, s: usize, g: usize, row: &[Val], charged: bool) {
        self.buckets[s][g].push(row, charged);
    }

    /// Add `later`'s arrivals after these, key by key: a buffer this
    /// side lacks is moved, not copied.
    pub fn append(&mut self, later: Arrivals) {
        let groups: Vec<usize> = later.keys.iter().map(|&(r, k)| self.group(r, k)).collect();
        for (mine, theirs) in self.buckets.iter_mut().zip(later.buckets) {
            groups
                .iter()
                .zip(theirs)
                .for_each(|(&g, b)| mine[g].append(b));
        }
    }

    /// Number of arrivals.
    pub fn count(&self) -> usize {
        self.buckets.iter().flatten().map(Bucket::arrivals).sum()
    }

    /// One [`Inbox`] per shard, in shard order, to build apart.
    pub fn inboxes(&mut self) -> Vec<Inbox<'_>> {
        let keys = &self.keys;
        let each = self.buckets.iter_mut();
        each.map(|buckets| Inbox { keys, buckets }).collect()
    }
}

/// What one shard of an [`Arrivals`] received.
#[derive(Debug)]
pub struct Inbox<'a> {
    keys: &'a [(RelId, usize)],
    buckets: &'a mut Vec<Bucket>,
}

impl Inbox<'_> {
    /// The shard of the distinct rows, each run sorted and deduplicated
    /// once in its own buffer, with the number of distinct rows whose
    /// first arrival is charged and their cost, `cost(arity)` each. The
    /// buffers are consumed.
    pub fn build(&mut self, cost: impl Fn(usize) -> u64) -> (Shard, usize, u64) {
        let (mut got, mut bytes) = (0, 0);
        let mut runs = Vec::new();
        for (&(rel, k), b) in self.keys.iter().zip(self.buckets.iter_mut()) {
            if b.arrivals() > 0 {
                let (run, first) = std::mem::take(b).into_run(k);
                got += first;
                bytes += first as u64 * cost(k);
                runs.push((rel, run));
            }
        }
        (Shard::from_runs(runs), got, bytes)
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
        let mut new = Arrivals::new(1);
        for f in facts {
            let f = f.borrow();
            let g = new.group(f.rel, f.args.len());
            new.push(0, g, &f.args, false);
        }
        for (&(rel, k), b) in new.keys.iter().zip(&mut new.buckets[0]) {
            if let Some(t) = self.run(rel, k) {
                (0..t.rows()).for_each(|r| t.push_row(r, &mut b.vals));
                b.free += t.rows();
            }
        }
        let gains = |rel: RelId, k: Option<usize>| {
            let mut keys = new.keys.iter();
            keys.any(|&(r, kk)| r == rel && k.is_none_or(|k| kk == k))
        };
        let kept = self
            .runs
            .iter()
            .filter(|(rel, t)| !gains(*rel, Some(t.depth())));
        let kept: Vec<_> = kept.cloned().collect();
        let orders = self.orders.iter().filter(|(rel, _)| !gains(*rel, None));
        let orders = orders.cloned().collect();
        let mut out = new.inboxes().swap_remove(0).build(|_| 0).0;
        out.runs.extend(kept);
        out.runs.sort_unstable_by_key(run_key);
        out.orders = orders;
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
        self.runs().flat_map(|(_, facts)| facts)
    }

    /// Every run's key `(relation, arity)`, in key order, with its facts
    /// in row order.
    pub fn runs(&self) -> impl Iterator<Item = ((RelId, usize), impl Iterator<Item = Fact> + '_)> {
        let runs = self.runs.iter();
        runs.map(|(rel, t)| {
            let facts = (0..t.rows()).map(move |r| row_fact(*rel, t, r));
            ((*rel, t.depth()), facts)
        })
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
    TrieRel::from_row_buffer(perm.to_vec(), &mut flat, t.rows())
}
