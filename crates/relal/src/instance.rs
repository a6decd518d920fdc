//! Database instances: finite sets of facts, indexed by relation.
//!
//! Beyond the basic set operations, this module implements the
//! instance-level notions of Section 5.2.2 of the survey: induced
//! subinstances `I|C` (Lemma 5.7), domain-distinct/disjoint extensions, and
//! connected **components** (Lemma 5.11: an instance decomposes into
//! subinstances with pairwise disjoint active domains).
//!
//! ## Incremental bookkeeping
//!
//! Every successful mutation bumps the global **epoch**, records the
//! mutated relation's **per-relation epoch**, and appends an entry to the
//! bounded [`DeltaLog`]. Derived state keyed by an epoch (the LSM trie
//! cache here, maintained Datalog fixpoints in `parlog-datalog`) catches
//! up by replaying
//! [`Instance::delta_since`] instead of rebuilding from scratch; a
//! truncated log (`None`) is the signal to fall back to a full rebuild.
//!
//! **An instance built whole has no history; an instance that is mutated
//! is logged.** An instance built from a collection of facts —
//! [`Instance::from_facts`] — comes out of one bulk build that counts the
//! facts per relation, allocates each relation's set once at that size,
//! hashes each fact once and writes no log. It has the facts, epoch and
//! per-relation epochs that inserting the facts one by one would give it,
//! and a log already forgotten up to that epoch: `delta_since(e)` is
//! `None` for `e < epoch` (a consumer behind it rebuilds) and empty at
//! `epoch`. [`Instance::insert`], [`Instance::insert_all`] and
//! [`Instance::remove`] on an existing instance log every mutation.
//!
//! ## Shared relation sets
//!
//! Each relation's fact set sits behind an `Arc` and is copied only when
//! it is first written: a clone — a snapshot's fork, a frozen view
//! output, a scratch fixpoint's working copy — costs O(relations), and a
//! writer pays for a copy of exactly the relations it then changes. A
//! write that changes nothing (a duplicate insert, an absent remove)
//! copies nothing.

use crate::delta::{DeltaEntry, DeltaLog, DeltaOp};
use crate::fact::{Fact, Val};
use crate::fastmap::{fxmap, fxset, FxMap, FxSet};
use crate::lsm::TrieLayers;
use crate::symbols::RelId;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The trie cache: `relation → column permutation → LSM layers`. Nested
/// so that a probe borrows the caller's `&[usize]` instead of allocating
/// a `(RelId, Vec<usize>)` key. Entries are `Arc`s, handed out whole.
///
/// Held behind `Arc` for copy-on-write sharing: a clone of the instance
/// shares the whole map O(1) (not just the runs inside each entry), and
/// a **sealed** instance exposes the same `Arc` lock-free to concurrent
/// readers (see [`Instance::seal`]).
type TrieCache = FxMap<RelId, FxMap<Vec<usize>, Arc<TrieLayers>>>;

/// The cache entry of `(rel, perm)`, if any — allocation-free.
fn cached<'c>(cache: &'c TrieCache, rel: RelId, perm: &[usize]) -> Option<&'c Arc<TrieLayers>> {
    cache.get(&rel)?.get(perm)
}

/// Every `(rel, perm)` key of the cache, sorted.
fn cache_keys(cache: &TrieCache) -> Vec<(RelId, Vec<usize>)> {
    let mut keys: Vec<(RelId, Vec<usize>)> = cache
        .iter()
        .flat_map(|(&rel, perms)| perms.keys().map(move |perm| (rel, perm.clone())))
        .collect();
    keys.sort();
    keys
}

/// Lock a mutex, recovering from poisoning. A trie cache holds only
/// rebuildable derived state, so a panic mid-update at worst leaves a
/// stale entry behind — which the epoch check then refreshes; a snapshot
/// store's writer and current pointer are replaced whole. Either way a
/// panicked peer must not wedge every later caller.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A finite set of facts, indexed by relation for efficient evaluation.
///
/// Alongside the hash-set storage, the instance lazily builds and caches
/// sorted columnar tries ([`crate::trie::TrieRel`], as [`TrieLayers`] LSM
/// stacks, one per `(relation, column permutation)`) for the worst-case-optimal
/// evaluator ([`crate::trie::LeapfrogPlan`]). Mutations never evict
/// cache entries: each entry remembers the epoch it is current as of, and
/// a read of a stale entry replays the delta log (`TrieLayers::advance`)
/// — appending a small run / tombstones — instead of rebuilding. Entries
/// of relations other than the mutated one stay valid verbatim. The
/// cache is invisible to equality and serialization, and clones share the
/// (immutable, `Arc`'d) runs, as they share each relation's fact set
/// until one side writes it (see the module docs).
#[derive(Default)]
pub struct Instance {
    /// Per relation its fact set, shared copy-on-write with clones.
    by_rel: FxMap<RelId, Arc<FxSet<Fact>>>,
    len: usize,
    /// Bumped on every *successful* insert/remove (duplicate inserts and
    /// absent removes leave it unchanged, like `len`).
    epoch: u64,
    /// Per-relation last-mutation epoch: a cache entry for `r` built at
    /// epoch `e` is current iff `rel_epochs[r] <= e`.
    rel_epochs: FxMap<RelId, u64>,
    /// Bounded ordered log of successful mutations.
    log: DeltaLog,
    /// Cached trie layers, refreshed on read via the delta log. The map
    /// itself is copy-on-write (`Arc::make_mut` before any cache edit),
    /// so clones share it O(1) until one side's cache actually diverges.
    tries: Mutex<Arc<TrieCache>>,
    /// Set by [`Instance::seal`]: an immutable alias of the trie cache
    /// that [`Instance::trie_layers`] reads **without locking**. Cleared
    /// by any mutation; `None` on every clone.
    frozen_tries: Option<Arc<TrieCache>>,
    /// Number of full trie builds performed by this instance (diagnostic:
    /// incremental refreshes and warm clones keep this flat).
    builds: AtomicU64,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Build an instance whole from `facts`. It has no history (see the
    /// module docs): its facts, epoch and per-relation epochs are those of
    /// inserting `facts` in order into an empty instance, but its delta log
    /// is empty and forgotten up to that epoch — a consumer catching up
    /// from an earlier epoch rebuilds, one at the epoch is current, and
    /// mutations from here on are logged.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(facts: I) -> Instance {
        let facts: Vec<Fact> = facts.into_iter().collect();
        let sizes = sizes(&facts);
        Instance::default().build(sizes, facts)
    }

    /// The one bulk build (see the module docs): add `facts`, in order, to
    /// `self` — an instance under construction that no one else has seen.
    /// Each relation's set is reserved once, at its count in `sizes`
    /// (duplicates included), and each fact is hashed once; the epochs
    /// move as the insert loop would move them, but no log is written —
    /// it is forgotten up to the final epoch. A relation whose facts were
    /// mostly duplicates is shrunk to fit, so a projection's answer does
    /// not keep the footprint of its valuations.
    fn build(mut self, sizes: FxMap<RelId, usize>, facts: Vec<Fact>) -> Instance {
        for (&rel, &n) in &sizes {
            Arc::make_mut(self.by_rel.entry(rel).or_default()).reserve(n);
        }
        let mut facts = facts.into_iter().peekable();
        while let Some(first) = facts.peek() {
            let rel = first.rel;
            let set = Arc::make_mut(self.by_rel.get_mut(&rel).expect("every relation is sized"));
            let before = self.epoch;
            while let Some(f) = facts.next_if(|f| f.rel == rel) {
                if set.insert(f) {
                    self.epoch += 1;
                }
            }
            if self.epoch > before {
                self.len += (self.epoch - before) as usize;
                self.rel_epochs.insert(rel, self.epoch);
            }
        }
        for (rel, n) in sizes {
            let set = self.by_rel.get_mut(&rel).expect("sized above");
            if 2 * set.len() < n {
                Arc::make_mut(set).shrink_to_fit();
            }
        }
        self.log = DeltaLog::forgotten_to(self.epoch, self.log.capacity());
        self
    }

    /// Insert a fact; returns `true` if it was not already present.
    pub fn insert(&mut self, f: Fact) -> bool {
        let before = self.len;
        self.ingest(std::iter::once(Cow::Owned(f)), |_| {});
        self.len > before
    }

    /// Bulk insert by reference: exactly the effect of calling
    /// [`Instance::insert`] on a clone of every fact in order — one epoch
    /// bump and one delta-log entry per *new* fact — but duplicates are
    /// never cloned. `on_new` sees each fact that was new, in order.
    pub fn insert_all<'a, I, F>(&mut self, facts: I, on_new: F)
    where
        I: IntoIterator<Item = &'a Fact>,
        F: FnMut(&Fact),
    {
        self.ingest(facts.into_iter().map(Cow::Borrowed), on_new);
    }

    /// The one insertion path of an existing instance. Bookkeeping that
    /// is per relation rather than per fact — the `by_rel` lookup, the
    /// copy-on-write claim of the set, the relation-epoch stamp — is done
    /// once per run of consecutive facts of one relation, and a new fact
    /// is copied exactly once more than its caller already had to (the
    /// set and the delta log each own one). A run's leading duplicates
    /// are read through the shared set: a run with no new fact claims
    /// nothing.
    fn ingest<'a, I, F>(&mut self, facts: I, mut on_new: F)
    where
        I: Iterator<Item = Cow<'a, Fact>>,
        F: FnMut(&Fact),
    {
        self.log.reserve(facts.size_hint().0);
        let mut facts = facts.peekable();
        while let Some(first) = facts.peek() {
            let rel = first.rel;
            let shared = self.by_rel.entry(rel).or_default();
            let Some(new) = std::iter::from_fn(|| facts.next_if(|f| f.rel == rel))
                .find(|f| !shared.contains(&**f))
            else {
                continue;
            };
            let set = Arc::make_mut(shared);
            let before = self.epoch;
            let run =
                std::iter::once(new).chain(std::iter::from_fn(|| facts.next_if(|f| f.rel == rel)));
            for f in run {
                if set.contains(&*f) {
                    continue;
                }
                let f = f.into_owned();
                on_new(&f);
                set.insert(f.clone());
                self.epoch += 1;
                self.log.push(self.epoch, DeltaOp::Insert, f);
            }
            if self.epoch > before {
                self.len += (self.epoch - before) as usize;
                self.note_mutation(rel);
            }
        }
    }

    /// Remove a fact; returns `true` if it was present. An absent remove
    /// is a no-op: epoch and delta log are untouched.
    pub fn remove(&mut self, f: &Fact) -> bool {
        let removed = match self.by_rel.get_mut(&f.rel) {
            Some(set) if set.contains(f) => Arc::make_mut(set).remove(f),
            _ => false,
        };
        if removed {
            self.len -= 1;
            self.epoch += 1;
            self.log.push(self.epoch, DeltaOp::Delete, f.clone());
            self.note_mutation(f.rel);
        }
        removed
    }

    /// Drop every fact of `rel` at once: its set goes whole, without a
    /// log entry per fact. The epoch moves by one and the delta log is
    /// forgotten up to it, so a consumer behind it — a cached trie of
    /// `rel` among them — rebuilds instead of replaying. A relation
    /// with no facts is left alone.
    pub fn drop_relation(&mut self, rel: RelId) {
        let Some(set) = self.by_rel.remove(&rel).filter(|s| !s.is_empty()) else {
            return;
        };
        self.len -= set.len();
        self.epoch += 1;
        self.log = DeltaLog::forgotten_to(self.epoch, self.log.capacity());
        self.note_mutation(rel);
    }

    /// A clone (see `impl Clone`) with `log` as its delta log.
    fn fork(&self, log: DeltaLog) -> Instance {
        Instance {
            by_rel: self.by_rel.clone(),
            len: self.len,
            epoch: self.epoch,
            rel_epochs: self.rel_epochs.clone(),
            log,
            tries: Mutex::new(Arc::clone(&lock_recover(&self.tries))),
            frozen_tries: None,
            builds: AtomicU64::new(0),
        }
    }

    /// A clone that keeps no mutation history: same facts, epochs and
    /// warm tries, but an empty delta log truncated to the current epoch
    /// (a consumer behind it rebuilds, as after any truncation). For
    /// read-only copies — a frozen view output is its database again in
    /// facts, and its log doubled that.
    pub fn clone_without_log(&self) -> Instance {
        self.fork(DeltaLog::forgotten_to(self.epoch, self.log.capacity()))
    }

    /// The mutation epoch: bumped exactly when the fact set changes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of `rel`'s most recent mutation (0 if never mutated).
    pub fn rel_epoch(&self, rel: RelId) -> u64 {
        self.rel_epochs.get(&rel).copied().unwrap_or(0)
    }

    /// All successful mutations after epoch `e`, oldest first — `None` if
    /// the bounded log has truncated past `e` (fall back to a rebuild).
    pub fn delta_since(&self, e: u64) -> Option<&[DeltaEntry]> {
        self.log.since(e)
    }

    /// Number of entries currently retained in the delta log.
    pub fn delta_log_len(&self) -> usize {
        self.log.len()
    }

    /// Close a run of successful mutations of `rel`, the last of which
    /// moved the instance to the current epoch: stamp the relation's
    /// epoch. Cached tries are *not* dropped — stale entries replay the
    /// log on next read, and entries of other relations remain exactly
    /// valid.
    fn note_mutation(&mut self, rel: RelId) {
        self.rel_epochs.insert(rel, self.epoch);
        // A mutated instance is no longer a consistent frozen snapshot.
        self.frozen_tries = None;
    }

    /// Refresh (or create) the cache entry for `(rel, perm)` inside an
    /// already-locked cache, replaying the delta log if stale.
    fn refresh_entry<'c>(
        &self,
        cache: &'c mut TrieCache,
        rel: RelId,
        perm: &[usize],
    ) -> &'c Arc<TrieLayers> {
        let perms = cache.entry(rel).or_default();
        if !perms.contains_key(perm) {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let built = TrieLayers::build_full(self, rel, perm, self.epoch);
            return perms.entry(perm.to_vec()).or_insert(Arc::new(built));
        }
        let layers = perms.get_mut(perm).expect("checked above");
        if layers.built_epoch < self.rel_epoch(rel) {
            match self.log.since(layers.built_epoch) {
                Some(deltas) => {
                    if Arc::make_mut(layers).advance(deltas, self, rel, perm, self.epoch) {
                        self.builds.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    *layers = Arc::new(TrieLayers::build_full(self, rel, perm, self.epoch));
                    self.builds.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else if layers.built_epoch < self.epoch {
            // Entry is current for `rel`; stamp it forward so later
            // refreshes replay only genuinely new deltas.
            Arc::make_mut(layers).built_epoch = self.epoch;
        }
        layers
    }

    /// The LSM trie layers of `rel` under the column permutation `perm`,
    /// built on first use and incrementally refreshed from the delta log
    /// on later mutations, and handed out as the cache's own `Arc`.
    ///
    /// On a **sealed** instance a warm entry is served from the frozen
    /// alias without taking any lock — this is the hot path concurrent
    /// snapshot readers hit (see [`Instance::seal`]). Cold entries (and
    /// every read on an unsealed instance) go through the cache mutex.
    pub fn trie_layers(&self, rel: RelId, perm: &[usize]) -> Arc<TrieLayers> {
        if let Some(frozen) = &self.frozen_tries {
            if let Some(layers) = cached(frozen, rel, perm) {
                return Arc::clone(layers);
            }
        }
        let mut cache = lock_recover(&self.tries);
        // Read-only fast path: an entry that is current for `rel` is
        // served without editing the map, so a fresh clone keeps
        // sharing the cache spine with its origin.
        if let Some(layers) = cached(&cache, rel, perm) {
            if layers.built_epoch >= self.rel_epoch(rel) {
                return Arc::clone(layers);
            }
        }
        Arc::clone(self.refresh_entry(Arc::make_mut(&mut cache), rel, perm))
    }

    /// Bring every cached trie entry up to the current epoch, in place:
    /// stale entries replay the delta log (or rebuild, if it was
    /// truncated past them), current ones are stamped forward. Touches
    /// the copy-on-write cache map only when some entry is behind, so an
    /// instance whose cache is already current keeps sharing it with the
    /// forks taken from it. Call it after a burst of writes longer than
    /// the log window, so that the next reader advances from the log
    /// instead of rebuilding.
    pub fn refresh_tries(&self) {
        let mut guard = lock_recover(&self.tries);
        let keys: Vec<(RelId, Vec<usize>)> = cache_keys(&guard)
            .into_iter()
            .filter(|(rel, perm)| {
                cached(&guard, *rel, perm).is_some_and(|l| l.built_epoch < self.epoch)
            })
            .collect();
        if keys.is_empty() {
            return;
        }
        let cache = Arc::make_mut(&mut guard);
        for (rel, perm) in keys {
            self.refresh_entry(cache, rel, &perm);
        }
    }

    /// Seal the instance for concurrent lock-free reads: refresh every
    /// cached trie entry to the current epoch (`refresh_tries`), then
    /// publish the cache `Arc` as an immutable alias that
    /// [`Instance::trie_layers`] reads without locking. Any later mutation
    /// unseals automatically.
    ///
    /// Sealing is what [`crate::snapshot::SnapshotStore::publish_with`]
    /// does to the log-less fork it is about to expose as a snapshot
    /// (after refreshing the writer's own cache, so the fork's is already
    /// current): after `seal`, arbitrarily many threads can evaluate
    /// against the instance and the only synchronization they ever
    /// execute is the `Arc` refcount — no mutex, no rebuild, no delta
    /// replay.
    pub fn seal(&mut self) {
        self.frozen_tries = None;
        self.refresh_tries();
        self.frozen_tries = Some(Arc::clone(&lock_recover(&self.tries)));
    }

    /// Is the instance sealed for lock-free reads (see [`Instance::seal`])?
    pub fn is_sealed(&self) -> bool {
        self.frozen_tries.is_some()
    }

    /// Do `self` and `other` share the same copy-on-write trie-cache
    /// storage (diagnostic: true right after a clone, false once either
    /// side's cache has diverged)?
    pub fn shares_trie_storage(&self, other: &Instance) -> bool {
        let a = Arc::clone(&lock_recover(&self.tries));
        let b = Arc::clone(&lock_recover(&other.tries));
        Arc::ptr_eq(&a, &b)
    }

    /// Cache entries worth compacting off-thread: every cached trie —
    /// refreshed to the current epoch first — whose run stack or
    /// tombstone set is non-trivial. Returned sorted by `(rel, perm)` so
    /// compaction scheduling is deterministic; the layers are clones
    /// (the runs inside are `Arc`-shared), so merging them on another
    /// thread never blocks this instance.
    pub fn compaction_candidates(&self) -> Vec<(RelId, Vec<usize>, TrieLayers)> {
        self.refresh_tries();
        let guard = lock_recover(&self.tries);
        cache_keys(&guard)
            .into_iter()
            .filter_map(|(rel, perm)| {
                let layers = cached(&guard, rel, &perm).expect("key of this cache");
                (layers.run_count() > 1 || layers.has_tombstones())
                    .then(|| (rel, perm, TrieLayers::clone(layers)))
            })
            .collect()
    }

    /// Install an off-thread-compacted entry, iff it is still current:
    /// the merge is valid exactly when `rel` has not been mutated past
    /// the epoch the layers were taken at. Returns `false` (discarding
    /// the merge) when the writer raced ahead or the instance is sealed.
    pub fn install_layers(&self, rel: RelId, perm: &[usize], mut layers: TrieLayers) -> bool {
        if self.frozen_tries.is_some() || self.rel_epoch(rel) > layers.built_epoch {
            return false;
        }
        // Content is current for `rel`; stamp forward so the next
        // refresh replays only genuinely new deltas.
        layers.built_epoch = self.epoch;
        let mut guard = lock_recover(&self.tries);
        let perms = Arc::make_mut(&mut guard).entry(rel).or_default();
        perms.insert(perm.to_vec(), Arc::new(layers));
        true
    }

    /// Number of tries currently cached (test/diagnostic hook).
    pub fn cached_tries(&self) -> usize {
        lock_recover(&self.tries).values().map(|p| p.len()).sum()
    }

    /// Number of full trie builds this instance has performed
    /// (test/diagnostic hook; warm clones and delta refreshes stay flat).
    pub fn trie_builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Does the instance contain the fact?
    pub fn contains(&self, f: &Fact) -> bool {
        self.by_rel.get(&f.rel).is_some_and(|s| s.contains(f))
    }

    /// Number of facts (`m` in the survey's load bounds).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over all facts.
    pub fn iter(&self) -> impl Iterator<Item = &Fact> + Clone {
        self.by_rel.values().flat_map(|s| s.iter())
    }

    /// Iterate over the facts of one relation.
    pub fn relation(&self, rel: RelId) -> impl Iterator<Item = &Fact> {
        self.by_rel.get(&rel).into_iter().flat_map(|s| s.iter())
    }

    /// Number of facts in one relation.
    pub fn relation_len(&self, rel: RelId) -> usize {
        self.by_rel.get(&rel).map_or(0, |s| s.len())
    }

    /// The relations with at least one fact.
    pub fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.by_rel
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(&r, _)| r)
    }

    /// The active domain `adom(I)`: all values occurring in some fact.
    pub fn adom(&self) -> FxSet<Val> {
        let mut dom = fxset();
        for f in self.iter() {
            dom.extend(f.args.iter().copied());
        }
        dom
    }

    /// The active domain as a sorted vec (deterministic iteration order).
    pub fn adom_sorted(&self) -> Vec<Val> {
        let mut vs: Vec<Val> = self.adom().into_iter().collect();
        vs.sort_unstable();
        vs
    }

    /// Set union (`I ∪ J`).
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// In-place union; returns the number of newly added facts.
    pub fn extend_from(&mut self, other: &Instance) -> usize {
        let before = self.len;
        self.insert_all(other.iter(), |_| {});
        self.len - before
    }

    /// Set intersection (`I ∩ J`).
    pub fn intersection(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.iter().filter(|f| other.contains(f)).cloned())
    }

    /// Set difference (`I \ J`).
    pub fn difference(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.iter().filter(|f| !other.contains(f)).cloned())
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.iter().all(|f| other.contains(f))
    }

    /// The induced subinstance `I|C = {f ∈ I | adom(f) ⊆ C}` (Lemma 5.7).
    pub fn restrict_to(&self, dom: &FxSet<Val>) -> Instance {
        Instance::from_facts(
            self.iter()
                .filter(|f| f.args.iter().all(|a| dom.contains(a)))
                .cloned(),
        )
    }

    /// Is `other` **domain distinct** from `self`: does every fact of
    /// `other` contain at least one value outside `adom(self)`?
    pub fn is_domain_distinct_extension(&self, other: &Instance) -> bool {
        let dom = self.adom();
        other.iter().all(|f| f.domain_distinct_from(&dom))
    }

    /// Is `other` **domain disjoint** from `self`: does no fact of `other`
    /// mention any value of `adom(self)`?
    pub fn is_domain_disjoint_extension(&self, other: &Instance) -> bool {
        let dom = self.adom();
        other.iter().all(|f| f.domain_disjoint_from(&dom))
    }

    /// Decompose the instance into its **components**: minimal nonempty
    /// subinstances `J ⊆ I` with `adom(J) ∩ adom(I∖J) = ∅` (Section 5.2.2).
    ///
    /// Computed as connected components of the graph on facts where two
    /// facts are adjacent when they share a value. Facts with empty active
    /// domain (nullary facts) each form their own component.
    pub fn components(&self) -> Vec<Instance> {
        // Union-find over facts via shared values.
        let facts: Vec<&Fact> = self.iter().collect();
        let mut parent: Vec<usize> = (0..facts.len()).collect();
        // Iterative find with path halving — immune to stack overflow on
        // adversarially long union chains.
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut owner: FxMap<Val, usize> = fxmap();
        for (i, f) in facts.iter().enumerate() {
            for &a in &f.args {
                match owner.get(&a) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                    None => {
                        owner.insert(a, i);
                    }
                }
            }
        }
        let mut groups: FxMap<usize, Vec<Fact>> = fxmap();
        for (i, f) in facts.iter().enumerate() {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push((*f).clone());
        }
        let mut out: Vec<Instance> = groups.into_values().map(Instance::from_facts).collect();
        // Deterministic order: by smallest fact.
        out.sort_by_key(|inst| inst.iter().min().cloned());
        out
    }

    /// All facts, sorted — handy for deterministic assertions and reports.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.iter().cloned().collect();
        v.sort();
        v
    }
}

/// Each relation's fact count in `facts`, duplicates included: the sizes
/// a bulk build allocates at.
fn sizes<'a>(facts: impl IntoIterator<Item = &'a Fact>) -> FxMap<RelId, usize> {
    let mut sizes = fxmap();
    for f in facts {
        *sizes.entry(f.rel).or_insert(0) += 1;
    }
    sizes
}

/// Clones carry the facts, the epochs, the delta log **and the trie
/// cache**. Each relation's fact set is shared copy-on-write, so the
/// facts cost O(relations) to clone and a relation is copied by the
/// first write to it on either side. The whole cache map is shared the
/// same way, so the clone is O(1) in the number of cached tries (no
/// per-entry copy, no run duplication) and answers WCOJ queries warm.
/// The first cache edit on either side copies just the map spine; the
/// immutable runs inside stay shared forever. A clone is never sealed —
/// it is a mutable fork.
impl Clone for Instance {
    fn clone(&self) -> Instance {
        self.fork(self.log.clone())
    }
}

/// Serialized as the sorted fact list — deterministic (hash-map iteration
/// order never leaks) and oblivious to the trie cache, delta log and
/// epochs, which are process-local bookkeeping.
impl serde::Serialize for Instance {
    fn json(&self, out: &mut String) {
        self.sorted_facts().json(out);
    }
}

impl<'de> serde::Deserialize<'de> for Instance {}

impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        self.len == other.len && self.is_subset_of(other)
    }
}

impl Eq for Instance {}

impl FromIterator<Fact> for Instance {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Instance {
        Instance::from_facts(iter)
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.sorted_facts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::symbols::rel;

    fn abc() -> Instance {
        Instance::from_facts([fact("R", &[1, 2]), fact("R", &[2, 3]), fact("S", &[7, 7])])
    }

    #[test]
    fn insert_dedups_and_counts() {
        let mut i = Instance::new();
        assert!(i.insert(fact("R", &[1, 2])));
        assert!(!i.insert(fact("R", &[1, 2])));
        assert_eq!(i.len(), 1);
        assert!(i.contains(&fact("R", &[1, 2])));
        assert!(i.remove(&fact("R", &[1, 2])));
        assert!(i.is_empty());
    }

    #[test]
    fn adom_and_restrict() {
        let i = abc();
        let mut dom = fxset();
        dom.insert(Val(1));
        dom.insert(Val(2));
        let r = i.restrict_to(&dom);
        assert_eq!(r.sorted_facts(), vec![fact("R", &[1, 2])]);
        assert_eq!(i.adom().len(), 4);
    }

    #[test]
    fn set_algebra() {
        let i = abc();
        let j = Instance::from_facts([fact("R", &[1, 2]), fact("T", &[9])]);
        assert_eq!(i.union(&j).len(), 4);
        assert_eq!(i.intersection(&j).sorted_facts(), vec![fact("R", &[1, 2])]);
        assert_eq!(i.difference(&j).len(), 2);
        assert!(i.intersection(&j).is_subset_of(&i));
    }

    #[test]
    fn equality_is_set_equality() {
        let i = abc();
        let mut j = Instance::new();
        // Insert in a different order.
        j.insert(fact("S", &[7, 7]));
        j.insert(fact("R", &[2, 3]));
        j.insert(fact("R", &[1, 2]));
        assert_eq!(i, j);
    }

    #[test]
    fn domain_distinct_and_disjoint_extensions() {
        let i = Instance::from_facts([fact("E", &[1, 2])]);
        let distinct = Instance::from_facts([fact("E", &[2, 5])]);
        let disjoint = Instance::from_facts([fact("E", &[8, 9])]);
        let neither = Instance::from_facts([fact("E", &[2, 1])]);
        assert!(i.is_domain_distinct_extension(&distinct));
        assert!(!i.is_domain_disjoint_extension(&distinct));
        assert!(i.is_domain_distinct_extension(&disjoint));
        assert!(i.is_domain_disjoint_extension(&disjoint));
        assert!(!i.is_domain_distinct_extension(&neither));
    }

    #[test]
    fn components_split_on_disjoint_adoms() {
        let i = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[10, 11]),
            fact("F", &[11, 12]),
            fact("G", &[20]),
        ]);
        let comps = i.components();
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert!(sizes.contains(&2)); // {E(1,2), E(2,3)}
        assert!(sizes.contains(&1)); // {G(20)}
                                     // Every component is domain disjoint from the rest of the instance.
        for c in &comps {
            let rest = i.difference(c);
            assert!(rest.is_domain_disjoint_extension(c));
        }
    }

    #[test]
    fn components_of_connected_instance_is_single() {
        let i = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3]), fact("E", &[3, 1])]);
        assert_eq!(i.components().len(), 1);
    }

    /// The single run of `name`'s `[0, 1]` trie, which must not be
    /// layered: the runs a read shares with the cache.
    fn only_run(i: &Instance, name: &str) -> Arc<crate::trie::TrieRel> {
        let layers = i.trie_layers(rel(name), &[0, 1]);
        assert_eq!(layers.run_count(), 1);
        assert!(!layers.has_tombstones());
        Arc::clone(&layers.runs()[0])
    }

    /// Regression (over-broad invalidation): mutating relation `R` must
    /// not evict the cached trie of untouched relation `S`.
    #[test]
    fn foreign_insert_leaves_other_relations_tries_cached() {
        let mut i = abc();
        let s_trie = only_run(&i, "S");
        assert_eq!(i.cached_tries(), 1);
        let builds_before = i.trie_builds();
        i.insert(fact("R", &[9, 9]));
        // The cache entry survives the foreign mutation...
        assert_eq!(i.cached_tries(), 1);
        // ...and re-reading S costs no rebuild and yields the same run.
        let s_again = only_run(&i, "S");
        assert!(Arc::ptr_eq(&s_trie, &s_again));
        assert_eq!(i.trie_builds(), builds_before);
    }

    /// The mutated relation's own entry refreshes via the delta log: an
    /// insert appends a tail run instead of forcing a full rebuild.
    #[test]
    fn own_relation_refreshes_incrementally() {
        let mut i = abc();
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        let builds_before = i.trie_builds();
        i.insert(fact("R", &[3, 4]));
        let layers = i.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(layers.run_count(), 2);
        assert_eq!(i.trie_builds(), builds_before);
        i.remove(&fact("R", &[1, 2]));
        let layers = i.trie_layers(rel("R"), &[0, 1]);
        assert!(layers.has_tombstones());
    }

    /// A trie built on an instance built whole is current at the build's
    /// epoch, so the mutations after it advance the trie from the log —
    /// the history before the build is never needed.
    #[test]
    fn trie_on_a_built_instance_advances_from_the_log() {
        let mut i = Instance::from_facts((0..50u64).map(|k| fact("R", &[k, k + 1])));
        assert_eq!(i.delta_log_len(), 0);
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(i.trie_builds(), 1);
        i.insert(fact("R", &[7, 7]));
        i.remove(&fact("R", &[0, 1]));
        let layers = i.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(i.trie_builds(), 1);
        assert_eq!(layers.run_count(), 2);
        assert!(layers.has_tombstones());
    }

    /// Regression (poisoned trie cache aborted all callers): a caught
    /// panic while the cache lock is held must leave the instance usable.
    #[test]
    fn poisoned_trie_cache_recovers() {
        let i = abc();
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = i.tries.lock().unwrap();
            panic!("simulated panic mid-build");
        }));
        assert!(r.is_err());
        // Every cache entry is still readable and refreshable.
        assert_eq!(i.cached_tries(), 1);
        assert_eq!(only_run(&i, "R").rows(), 2);
        let _ = i.trie_layers(rel("S"), &[0, 1]);
        assert_eq!(i.cached_tries(), 2);
    }

    /// Regression (cold clones): a clone shares the Arc'd runs and
    /// answers trie reads without a single rebuild.
    #[test]
    fn clone_shares_cached_tries() {
        let mut i = abc();
        let orig = only_run(&i, "R");
        let c = i.clone();
        assert!(c.cached_tries() > 0);
        let cloned = only_run(&c, "R");
        assert!(Arc::ptr_eq(&orig, &cloned));
        assert_eq!(c.trie_builds(), 0);
        // Divergence after the clone stays independent.
        i.insert(fact("R", &[8, 8]));
        assert_eq!(only_run(&c, "R").rows(), 2);
        assert_eq!(i.trie_layers(rel("R"), &[0, 1]).run_count(), 2);
    }

    /// Regression (clone cost): a clone shares the *whole* trie-cache
    /// map O(1) — same `Arc`, same run pointers — and only diverges when
    /// one side's cache is actually edited. Before the copy-on-write
    /// cache, every clone deep-copied the map spine per entry.
    #[test]
    fn clone_shares_trie_storage_o1() {
        let mut i = abc();
        let r_run = only_run(&i, "R");
        let _ = i.trie_layers(rel("S"), &[0, 1]);
        let c = i.clone();
        // O(1) share: both instances point at the same cache map...
        assert!(i.shares_trie_storage(&c));
        // ...and the entries inside are the very same runs.
        let r_again = only_run(&c, "R");
        assert!(Arc::ptr_eq(&r_run, &r_again));
        assert_eq!(c.trie_builds(), 0);
        // Mutating the original leaves the cache shared (refreshes are
        // lazy); the next trie *read* on the mutated side copies the
        // map spine — and only then do the two caches diverge.
        i.insert(fact("R", &[9, 9]));
        assert!(i.shares_trie_storage(&c));
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        assert!(!i.shares_trie_storage(&c));
        // The clone still serves the pre-divergence run untouched.
        assert!(Arc::ptr_eq(&r_run, &only_run(&c, "R")));
    }

    /// A log-less clone is the same instance with its history already
    /// truncated: equal facts and epoch, shared warm tries, no delta
    /// entries, and a trie that was stale at the fork rebuilds (the
    /// truncation fallback) instead of replaying.
    #[test]
    fn clone_without_log_forgets_history_only() {
        let mut i = abc();
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        i.insert(fact("R", &[9, 9])); // the cached R trie is now stale
        let c = i.clone_without_log();
        assert_eq!(c, i);
        assert_eq!(c.epoch(), i.epoch());
        assert!(c.shares_trie_storage(&i));
        assert_eq!(c.delta_log_len(), 0);
        assert!(c.delta_since(i.epoch() - 1).is_none());
        assert_eq!(c.delta_since(c.epoch()).map(<[_]>::len), Some(0));
        let layers = c.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(layers.run_count(), 1);
        assert_eq!(layers.total_rows(), 3);
        assert_eq!(c.trie_builds(), 1);
        // It is still a mutable fork: new mutations are logged from here.
        let mut c = c;
        c.insert(fact("R", &[5, 5]));
        assert_eq!(c.delta_since(i.epoch()).map(<[_]>::len), Some(1));
        assert_eq!(c.trie_layers(rel("R"), &[0, 1]).total_rows(), 4);
    }

    /// A sealed instance serves warm tries lock-free from the frozen
    /// alias; mutation unseals it.
    #[test]
    fn seal_freezes_and_mutation_unseals() {
        let mut i = abc();
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        i.insert(fact("R", &[5, 6]));
        i.seal();
        assert!(i.is_sealed());
        // Sealing refreshed the stale entry: reads see the new fact.
        let layers = i.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(layers.runs().iter().map(|r| r.rows()).sum::<usize>(), 3);
        let builds = i.trie_builds();
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(i.trie_builds(), builds);
        i.insert(fact("R", &[7, 8]));
        assert!(!i.is_sealed());
        let layers = i.trie_layers(rel("R"), &[0, 1]);
        assert_eq!(layers.runs().iter().map(|r| r.rows()).sum::<usize>(), 4);
    }

    /// Off-thread compaction contract: candidates are stable-sorted,
    /// merges install only when the relation has not moved on, and a
    /// stale merge is discarded.
    #[test]
    fn compaction_candidates_and_install() {
        let mut i = abc();
        let _ = i.trie_layers(rel("R"), &[0, 1]);
        i.insert(fact("R", &[3, 4]));
        let cands = i.compaction_candidates();
        assert_eq!(cands.len(), 1);
        let (r, perm, layers) = cands.into_iter().next().unwrap();
        assert_eq!(layers.run_count(), 2);
        // Merge "off-thread" (pure), then install: accepted.
        let merged = layers.merged();
        assert!(i.install_layers(r, &perm, merged));
        assert_eq!(i.trie_layers(r, &perm).run_count(), 1);
        // A merge taken before another mutation of R is stale: rejected.
        let stale = i.trie_layers(r, &perm);
        i.insert(fact("R", &[8, 8]));
        assert!(!i.install_layers(r, &perm, stale.merged()));
        assert_eq!(i.trie_layers(r, &perm).run_count(), 2);
    }

    /// The nested cache counts and orders entries as the flat
    /// `(rel, perm)`-keyed one did: one entry per pair, candidates sorted
    /// by relation, then permutation.
    #[test]
    fn cache_entries_are_per_rel_and_perm_and_candidates_sorted() {
        let mut i = abc();
        for (name, perm) in [("S", [1, 0]), ("R", [1, 0]), ("R", [0, 1]), ("S", [1, 0])] {
            let _ = i.trie_layers(rel(name), &perm);
        }
        assert_eq!(i.cached_tries(), 3);
        assert_eq!(i.trie_builds(), 3);
        i.insert(fact("R", &[3, 4]));
        i.insert(fact("S", &[8, 8]));
        let keys: Vec<(RelId, Vec<usize>)> = i
            .compaction_candidates()
            .into_iter()
            .map(|(r, perm, _)| (r, perm))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 3);
        // Installing over an existing entry replaces it, never adds one.
        let (r, perm, layers) = i.compaction_candidates().swap_remove(0);
        assert!(i.install_layers(r, &perm, layers.merged()));
        assert_eq!(i.cached_tries(), 3);
    }

    /// What a loop of single inserts does to the observable bookkeeping,
    /// written without any of the instance's machinery: the reference
    /// the bulk builds and ingests are checked against.
    #[derive(Default)]
    struct InsertLoop {
        facts: std::collections::BTreeSet<Fact>,
        epoch: u64,
        rel_epochs: std::collections::BTreeMap<RelId, u64>,
        log: Vec<DeltaEntry>,
        /// The epoch of the last whole build: history before it is gone.
        forgotten: u64,
    }

    impl InsertLoop {
        /// The loop over `facts`, then the whole build's contract: the
        /// same facts and epochs, and no history.
        fn built_whole<'a>(facts: impl IntoIterator<Item = &'a Fact>) -> InsertLoop {
            let mut model = InsertLoop::default();
            for f in facts {
                model.insert(f);
            }
            model.log.clear();
            model.forgotten = model.epoch;
            model
        }

        fn insert(&mut self, f: &Fact) -> bool {
            let fresh = self.facts.insert(f.clone());
            if fresh {
                self.epoch += 1;
                self.rel_epochs.insert(f.rel, self.epoch);
                self.log.push(DeltaEntry {
                    epoch: self.epoch,
                    op: DeltaOp::Insert,
                    fact: f.clone(),
                });
            }
            fresh
        }

        fn assert_matches(&self, inst: &Instance) {
            assert_eq!(inst.len(), self.facts.len());
            assert_eq!(inst.epoch(), self.epoch);
            assert_eq!(
                inst.sorted_facts(),
                self.facts.iter().cloned().collect::<Vec<_>>()
            );
            for name in ["R", "S", "T", "U"] {
                let want = self.rel_epochs.get(&rel(name)).copied().unwrap_or(0);
                assert_eq!(inst.rel_epoch(rel(name)), want, "rel_epoch({name})");
            }
            assert_eq!(inst.delta_log_len(), self.log.len());
            for e in 0..=self.epoch + 1 {
                let want = (e >= self.forgotten)
                    .then(|| &self.log[self.log.partition_point(|d| d.epoch <= e)..]);
                assert_eq!(inst.delta_since(e), want, "delta_since({e})");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `from_facts` builds an instance whole: the
        /// facts and epochs of the insert loop, and no history
        /// (`delta_log_len() == 0`, `delta_since(e)` `None` below the
        /// epoch and empty at it). `insert_all`, `extend_from` and
        /// `insert`, mixed over the rest of one stream with duplicates,
        /// interleaved relations and mixed arities, then log exactly what
        /// the loop logs from that epoch on — and `insert_all` reports
        /// exactly the new facts.
        #[test]
        fn bulk_ingest_matches_the_insert_loop(
            stream in prop::collection::vec((0..4usize, 0..4u64, 0..3u64, 0..4usize), 0..60),
        ) {
            let facts: Vec<(Fact, usize)> = stream
                .into_iter()
                .map(|(r, a, b, how)| {
                    let name = ["R", "S", "T", "U"][r];
                    // `U` carries both unary and binary facts.
                    let f = if r == 3 && a % 2 == 0 { fact(name, &[a]) } else { fact(name, &[a, b]) };
                    (f, how)
                })
                .collect();
            // The stream is cut wherever the ingest method changes.
            let mut chunks = facts.chunk_by(|a, b| a.1 == b.1);
            let first: Vec<Fact> = chunks
                .next()
                .map_or(Vec::new(), |c| c.iter().map(|(f, _)| f.clone()).collect());
            let mut model = InsertLoop::built_whole(&first);
            let mut inst = Instance::from_facts(first);
            model.assert_matches(&inst);
            for chunk in chunks {
                let chunk_facts: Vec<&Fact> = chunk.iter().map(|(f, _)| f).collect();
                match chunk[0].1 {
                    0 | 1 => {
                        let mut seen = Vec::new();
                        inst.insert_all(chunk_facts.iter().copied(), |f| seen.push(f.clone()));
                        let want: Vec<Fact> = chunk_facts
                            .iter()
                            .filter(|f| model.insert(f))
                            .map(|f| (*f).clone())
                            .collect();
                        prop_assert_eq!(seen, want);
                    }
                    2 => {
                        let other = Instance::from_facts(chunk_facts.iter().copied().cloned());
                        InsertLoop::built_whole(chunk_facts.iter().copied()).assert_matches(&other);
                        // The model follows the iteration order the
                        // union actually sees.
                        let added = other.iter().filter(|f| model.insert(f)).count();
                        prop_assert_eq!(inst.extend_from(&other), added);
                    }
                    _ => {
                        for f in chunk_facts {
                            prop_assert_eq!(inst.insert(f.clone()), model.insert(f));
                        }
                    }
                }
                model.assert_matches(&inst);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Forks share relation sets copy-on-write and never see each
        /// other's writes: random interleavings of `insert`,
        /// `insert_all`, `remove`, `clone` and `clone_without_log` on an
        /// instance and its forks leave every side equal to its own set
        /// model in contents, `len` and `relation_len`, and a side's
        /// epoch moves exactly when its set changes — by one per fact.
        #[test]
        fn forks_match_their_own_set_models(
            init in prop::collection::vec((0..3usize, 0..4u64, 0..3u64), 0..12),
            ops in prop::collection::vec((0..5u8, 0..8usize, 0..3usize, 0..4u64, 0..3u64), 0..48),
        ) {
            use std::collections::BTreeSet;
            const RELS: [&str; 3] = ["R", "S", "T"];
            let f = |r: usize, a: u64, b: u64| fact(RELS[r], &[a, b]);
            let first: Vec<Fact> = init.iter().map(|&(r, a, b)| f(r, a, b)).collect();
            let mut sides = vec![(
                Instance::from_facts(first.iter().cloned()),
                first.into_iter().collect::<BTreeSet<Fact>>(),
            )];
            for (op, who, r, a, b) in ops {
                let who = who % sides.len();
                let (inst, model) = &mut sides[who];
                let epoch = inst.epoch();
                let changed = match op {
                    0 => {
                        let x = f(r, a, b);
                        let new = inst.insert(x.clone());
                        prop_assert_eq!(new, model.insert(x));
                        u64::from(new)
                    }
                    1 => {
                        // A run of one relation with a duplicate inside,
                        // then a fact of the next relation.
                        let batch = [f(r, a, b), f(r, b, a), f(r, a, b), f((r + 1) % 3, a, a)];
                        let mut seen = 0u64;
                        inst.insert_all(&batch, |_| seen += 1);
                        let want = batch.iter().filter(|x| model.insert((*x).clone())).count();
                        prop_assert_eq!(seen, want as u64);
                        seen
                    }
                    2 => {
                        let x = f(r, a, b);
                        let gone = inst.remove(&x);
                        prop_assert_eq!(gone, model.remove(&x));
                        u64::from(gone)
                    }
                    3 | 4 => {
                        let fork = if op == 3 { inst.clone() } else { inst.clone_without_log() };
                        prop_assert_eq!(fork.epoch(), epoch);
                        let model = model.clone();
                        sides.push((fork, model));
                        0
                    }
                    _ => unreachable!(),
                };
                prop_assert_eq!(sides[who].0.epoch(), epoch + changed);
                for (inst, model) in &sides {
                    prop_assert_eq!(inst.len(), model.len());
                    prop_assert_eq!(inst.sorted_facts(), model.iter().cloned().collect::<Vec<_>>());
                    for name in RELS {
                        let n = model.iter().filter(|x| x.rel == rel(name)).count();
                        prop_assert_eq!(inst.relation_len(rel(name)), n, "{}", name);
                    }
                }
            }
        }
    }

    /// Past the log capacity a bulk build still writes no log, where the
    /// loop keeps its last `capacity` entries: same facts and epoch, the
    /// history forgotten up to that epoch, and from there on both log
    /// the same mutations.
    #[test]
    fn bulk_ingest_truncates_like_the_insert_loop() {
        let n = crate::delta::DEFAULT_LOG_CAPACITY as u64 + 10;
        let facts: Vec<Fact> = (0..n).map(|i| fact("R", &[i, i % 7])).collect();
        let mut bulk = Instance::from_facts(facts.clone());
        let mut looped = Instance::new();
        for f in facts {
            looped.insert(f);
        }
        assert_eq!(bulk, looped);
        assert_eq!(bulk.epoch(), looped.epoch());
        assert_eq!(bulk.rel_epoch(rel("R")), n);
        assert_eq!(bulk.delta_log_len(), 0);
        assert_eq!(looped.delta_log_len(), crate::delta::DEFAULT_LOG_CAPACITY);
        for e in [0, 9, 10, 11, n - 1] {
            assert!(bulk.delta_since(e).is_none(), "delta_since({e})");
        }
        assert_eq!(bulk.delta_since(n), Some(&[][..]));
        bulk.insert(fact("S", &[1]));
        looped.insert(fact("S", &[1]));
        assert_eq!(bulk.delta_since(n), looped.delta_since(n));
        assert_eq!(bulk.delta_log_len(), 1);
    }

    /// Absent removes are complete no-ops: epoch and delta log stay
    /// untouched.
    #[test]
    fn absent_remove_touches_nothing() {
        let mut i = abc();
        let (e, n) = (i.epoch(), i.delta_log_len());
        assert!(!i.remove(&fact("R", &[99, 99])));
        assert!(!i.remove(&fact("Z", &[1])));
        assert_eq!(i.epoch(), e);
        assert_eq!(i.delta_log_len(), n);
        // A present remove logs exactly one delete entry.
        assert!(i.remove(&fact("S", &[7, 7])));
        assert_eq!(i.epoch(), e + 1);
        assert_eq!(i.delta_log_len(), n + 1);
        let d = i.delta_since(e).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].op, DeltaOp::Delete);
        assert_eq!(d[0].fact, fact("S", &[7, 7]));
    }
}
