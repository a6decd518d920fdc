//! MVCC snapshot store: immutable published snapshots, copy-on-write
//! writer deltas, lock-free pinned reads.
//!
//! The serving story the survey's results license: parallel-correctness
//! and transferability are statements about a query against a *fixed*
//! instance, so a server can freeze the instance it is about to answer
//! from, share that frozen state with arbitrarily many readers, and keep
//! mutating a private copy on the side. This module provides exactly
//! that discipline:
//!
//! * a [`Snapshot`] is an immutable, `Arc`-shared, **sealed**
//!   [`Instance`] ([`Instance::seal`]) — warm tries are served without a
//!   lock — plus the frozen outputs of any materialized views that were
//!   refreshed at publication ([`ViewOutputs`]: each filed under the
//!   hash of its view's key source, kept beside it);
//! * a [`SnapshotStore`] owns the mutable **writer** and the current
//!   snapshot. The writer is any type that borrows as an [`Instance`]:
//!   the instance itself by default, or a writer that also holds state
//!   maintained on it (`parlog-datalog`'s `ViewWriter` holds the
//!   materialized views). [`SnapshotStore::publish`] brings the
//!   writer's cached tries up to date in place, forks a **log-less**
//!   copy of its instance (facts and the copy-on-write trie cache, none
//!   of the writer's delta history), seals the fork, swaps it in as the
//!   new current snapshot and *then* bumps the generation counter with
//!   a single release-store — the linearization point.
//!
//! A snapshot carries no delta log because nothing reads one: readers
//! evaluate against facts and sealed tries, and a replica catches up by
//! replaying the *writer's* log. Refreshing the tries on the writer,
//! not on the fork, is what lets the fork go without the log — a stale
//! entry on a log-less instance could only be rebuilt — and lets the
//! next publication replay only the deltas since this one.
//!
//! Readers [`pin`](SnapshotStore::pin) a snapshot once and evaluate
//! against it for as long as they like; concurrent publications never
//! mutate pinned state, only replace which snapshot *new* pins observe.
//! The cheap staleness probe [`SnapshotStore::pin_if_newer`] is a single
//! acquire-load on the generation counter, so a read loop's steady state
//! touches no lock at all.

use crate::fastmap::{fxmap, FxMap};
use crate::instance::Instance;
use crate::symbols::RelId;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock recovering from poisoning (same contract as the instance's
/// internal caches: the guarded state is replaceable, a panicked peer
/// must not wedge every later caller).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The snapshot instance of `writer`: its cached tries refreshed in
/// place, then a log-less fork of it, sealed.
fn freeze<W: Borrow<Instance>>(writer: &W) -> Instance {
    let writer = writer.borrow();
    writer.refresh_tries();
    let mut frozen = writer.clone_without_log();
    frozen.seal();
    frozen
}

/// The view outputs frozen into one snapshot: the hash of a view's key
/// source → (that source, the output). The source is client text and
/// its 64-bit hash may collide, so a reader holding the source compares
/// it on a hit ([`Snapshot::view_output_exact`]).
pub type ViewOutputs = FxMap<u64, (Arc<str>, Arc<Instance>)>;

/// One immutable published version of the database: a sealed instance
/// plus the view outputs frozen at publication.
#[derive(Debug)]
pub struct Snapshot {
    generation: u64,
    instance: Instance,
    views: ViewOutputs,
}

impl Snapshot {
    /// The publication generation (0 for the store's initial snapshot;
    /// strictly increasing afterwards).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying sealed instance. Evaluate queries directly against
    /// it: every read path (facts, warm tries, indexes) is lock-free.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The writer epoch this snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.instance.epoch()
    }

    /// The frozen output filed under `key` at publication time, if any,
    /// matched by the hash alone. Lock-free. A key computed from client
    /// text is looked up with [`Snapshot::view_output_exact`] instead.
    pub fn view_output(&self, key: u64) -> Option<Arc<Instance>> {
        self.views.get(&key).map(|(_, out)| Arc::clone(out))
    }

    /// The frozen output filed under `key` whose key source is exactly
    /// `source`: a hash collision with another view is a miss. Lock-free.
    pub fn view_output_exact(&self, key: u64, source: &str) -> Option<Arc<Instance>> {
        let (stored, out) = self.views.get(&key)?;
        (**stored == *source).then(|| Arc::clone(out))
    }

    /// Number of view outputs frozen into this snapshot.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }
}

/// The MVCC store: one mutable writer, one current snapshot, and the
/// generation counter whose release-store linearizes publication.
///
/// The writer `W` is the [`Instance`] itself by default; a store whose
/// writer also maintains derived state (views) names that type, which
/// borrows as its instance.
///
/// Writer-side calls ([`mutate`](SnapshotStore::mutate),
/// [`publish`](SnapshotStore::publish)) serialize on the writer mutex;
/// reader-side calls ([`pin`](SnapshotStore::pin),
/// [`generation`](SnapshotStore::generation),
/// [`pin_if_newer`](SnapshotStore::pin_if_newer)) touch at most the
/// short `current` mutex, and only when the generation actually moved.
#[derive(Debug)]
pub struct SnapshotStore<W = Instance> {
    writer: Mutex<W>,
    current: Mutex<Arc<Snapshot>>,
    generation: AtomicU64,
    publishes: AtomicU64,
}

impl<W: Borrow<Instance>> SnapshotStore<W> {
    /// Open a store over the writer `initial`, publishing its instance
    /// as generation 0.
    pub fn new(initial: W) -> SnapshotStore<W> {
        SnapshotStore {
            current: Mutex::new(Arc::new(Snapshot {
                generation: 0,
                instance: freeze(&initial),
                views: fxmap(),
            })),
            writer: Mutex::new(initial),
            generation: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        }
    }

    /// The current publication generation (acquire-load; pairs with the
    /// release-store in [`publish`](SnapshotStore::publish)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of publications performed (diagnostic).
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Pin the current snapshot: an `Arc` clone the caller keeps for as
    /// long as it wants a stable view of the database.
    pub fn pin(&self) -> Arc<Snapshot> {
        Arc::clone(&lock_recover(&self.current))
    }

    /// Re-pin only if a newer snapshot has been published since `pinned`
    /// was taken. The steady-state path is one acquire-load and no lock;
    /// returns `true` iff `pinned` was replaced.
    pub fn pin_if_newer(&self, pinned: &mut Arc<Snapshot>) -> bool {
        if self.generation() == pinned.generation {
            return false;
        }
        *pinned = self.pin();
        true
    }

    /// Run `f` against the mutable writer (the copy-on-write delta under
    /// construction). Nothing becomes visible to readers until the next
    /// [`publish`](SnapshotStore::publish).
    pub fn mutate<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        f(&mut lock_recover(&self.writer))
    }

    /// Run `f` against the writer read-only (e.g. to scan for compaction
    /// candidates or compute a content root).
    pub fn with_writer<R>(&self, f: impl FnOnce(&W) -> R) -> R {
        f(&lock_recover(&self.writer))
    }

    /// Warm the writer's trie cache for `(rel, perm)` so snapshots
    /// sealed from it serve that permutation lock-free from the first
    /// read.
    pub fn warm(&self, rel: RelId, perm: &[usize]) {
        self.with_writer(|w| drop(w.borrow().trie_layers(rel, perm)));
    }

    /// Publish the writer's current state as a new snapshot.
    ///
    /// If the writer's mutation epoch is unchanged since the current
    /// snapshot was frozen — a **content-preserving** publication, e.g.
    /// a compactor installing merged runs — the previous snapshot's
    /// frozen view outputs are carried forward: they were derived from
    /// the same fact set, so they are still exact. Any real mutation
    /// bumps the epoch and the views are dropped (use
    /// [`publish_with`](SnapshotStore::publish_with) to re-derive them).
    pub fn publish(&self) -> Arc<Snapshot> {
        let prev = self.pin();
        self.publish_with(move |w| {
            if W::borrow(w).epoch() == prev.epoch() {
                prev.views.clone()
            } else {
                fxmap()
            }
        })
    }

    /// Publish, first deriving the frozen view outputs from the writer
    /// (the hook `parlog-datalog`'s `publish_views` plugs into: the
    /// writer's views refresh here, so a published snapshot's views are
    /// already consistent and no reader ever pays the refresh).
    ///
    /// The steps, in order: (1) refresh the writer's cached tries in
    /// place, replaying only the deltas since the last publication; (2)
    /// fork the writer's instance without its delta log and seal the
    /// fork — its trie cache is the writer's, shared copy-on-write and
    /// already current, so sealing only aliases it; (3) swap the
    /// `current` pointer; (4) **release-store the new generation** — the
    /// single store that makes the snapshot observable to the lock-free
    /// staleness probe, and hence the publication's linearization
    /// point. Readers pinned to older generations are untouched. The
    /// writer itself stays unsealed: compactors install merged runs
    /// into it, which a sealed instance refuses.
    pub fn publish_with<F>(&self, views: F) -> Arc<Snapshot>
    where
        F: FnOnce(&mut W) -> ViewOutputs,
    {
        let mut writer = lock_recover(&self.writer);
        let views = views(&mut writer);
        let frozen = freeze(&*writer);
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let snap = Arc::new(Snapshot {
            generation,
            instance: frozen,
            views,
        });
        *lock_recover(&self.current) = Arc::clone(&snap);
        self.generation.store(generation, Ordering::Release);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        drop(writer);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_query_with, EvalStrategy};
    use crate::fact::fact;
    use crate::parser::parse_query;
    use crate::symbols::rel;

    fn triangle_store() -> SnapshotStore {
        SnapshotStore::new(Instance::from_facts([
            fact("R", &[1, 2]),
            fact("S", &[2, 3]),
            fact("T", &[3, 1]),
        ]))
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_publications() {
        let store = triangle_store();
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let pinned = store.pin();
        let before = eval_query_with(&q, pinned.instance(), EvalStrategy::Wcoj);
        for k in 10..15u64 {
            store.mutate(|w| {
                w.insert(fact("R", &[k, k]));
            });
            store.publish();
        }
        // The pinned snapshot still answers exactly as at pin time.
        let after = eval_query_with(&q, pinned.instance(), EvalStrategy::Wcoj);
        assert_eq!(before, after);
        assert_eq!(pinned.generation(), 0);
        // A fresh pin sees the new state.
        let fresh = store.pin();
        assert_eq!(fresh.generation(), 5);
        assert_eq!(fresh.instance().len(), 8);
    }

    #[test]
    fn pin_if_newer_is_a_noop_until_publication() {
        let store = triangle_store();
        let mut pinned = store.pin();
        assert!(!store.pin_if_newer(&mut pinned));
        store.mutate(|w| {
            w.insert(fact("R", &[9, 9]));
        });
        // Mutation alone is invisible: only publish moves the generation.
        assert!(!store.pin_if_newer(&mut pinned));
        assert_eq!(pinned.instance().len(), 3);
        store.publish();
        assert!(store.pin_if_newer(&mut pinned));
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pinned.instance().len(), 4);
        assert!(!store.pin_if_newer(&mut pinned));
    }

    #[test]
    fn published_snapshots_are_sealed_and_warm() {
        let store = triangle_store();
        store.warm(rel("R"), &[0, 1]);
        store.mutate(|w| {
            w.insert(fact("R", &[4, 5]));
        });
        let snap = store.publish();
        assert!(snap.instance().is_sealed());
        // The warm perm is served frozen — no builds on the snapshot.
        let layers = snap.instance().trie_layers(rel("R"), &[0, 1]);
        assert_eq!(layers.runs().iter().map(|r| r.rows()).sum::<usize>(), 2);
        assert_eq!(snap.instance().trie_builds(), 0);
    }

    /// A snapshot carries none of the writer's history, and its warm
    /// tries were refreshed before the fork: the first read of a warm
    /// permutation builds nothing, although a log-less instance could
    /// only rebuild a stale entry.
    #[test]
    fn published_snapshots_carry_no_log_and_build_nothing() {
        let store = triangle_store();
        store.warm(rel("R"), &[0, 1]);
        assert_eq!(store.pin().instance().delta_log_len(), 0);
        for k in 10..14u64 {
            store.mutate(|w| {
                w.insert(fact("R", &[k, k + 1]));
                w.remove(&fact("R", &[k, k + 1]));
                w.insert(fact("R", &[k, k]));
            });
            let snap = store.publish();
            assert_eq!(snap.instance().delta_log_len(), 0);
            let layers = snap.instance().trie_layers(rel("R"), &[0, 1]);
            assert_eq!(layers.built_epoch(), snap.epoch());
            assert_eq!(snap.instance().trie_builds(), 0);
        }
        assert!(store.with_writer(|w| w.delta_log_len()) >= 12);
    }

    /// The tries are refreshed on the writer, which stays unsealed: after
    /// any number of publications with no compactor in between, every
    /// warm entry is current as of the writer's epoch — the next
    /// publication replays only the deltas since this one.
    #[test]
    fn publishing_keeps_the_writers_warm_entries_current() {
        let store = triangle_store();
        store.warm(rel("R"), &[0, 1]);
        store.warm(rel("S"), &[1, 0]);
        for k in 0..5u64 {
            store.mutate(|w| {
                w.insert(fact("R", &[20 + k, k]));
            });
            store.publish();
            store.with_writer(|w| {
                assert!(!w.is_sealed());
                for (r, perm) in [("R", [0, 1]), ("S", [1, 0])] {
                    let layers = w.trie_layers(rel(r), &perm);
                    assert_eq!(layers.built_epoch(), w.epoch(), "{r} after {k}");
                }
            });
        }
    }

    #[test]
    fn view_outputs_are_frozen_at_publication() {
        let store = triangle_store();
        let out = Arc::new(Instance::from_facts([fact("V", &[1])]));
        let snap = store.publish_with(|_| {
            let mut m = fxmap();
            m.insert(42u64, (Arc::from("V"), Arc::clone(&out)));
            m
        });
        assert_eq!(snap.view_count(), 1);
        assert!(Arc::ptr_eq(&snap.view_output(42).unwrap(), &out));
        assert!(snap.view_output(7).is_none());
        // The exact lookup compares the key source: another source
        // filed under the same hash is a miss.
        assert!(Arc::ptr_eq(&snap.view_output_exact(42, "V").unwrap(), &out));
        assert!(snap.view_output_exact(42, "W").is_none());
        // A content-preserving publish (no mutation since the freeze)
        // carries the frozen views forward — they are still exact.
        let snap2 = store.publish();
        assert_eq!(snap2.view_count(), 1);
        assert!(Arc::ptr_eq(&snap2.view_output(42).unwrap(), &out));
        // A mutation bumps the epoch: the next plain publish drops the
        // now-stale views.
        store.mutate(|w| {
            w.insert(fact("R", &[9, 9]));
        });
        let snap3 = store.publish();
        assert_eq!(snap3.view_count(), 0);
    }

    #[test]
    fn generation_is_monotonic_and_matches_publish_count() {
        let store = triangle_store();
        assert_eq!(store.generation(), 0);
        for i in 1..=4u64 {
            let s = store.publish();
            assert_eq!(s.generation(), i);
            assert_eq!(store.generation(), i);
        }
        assert_eq!(store.publish_count(), 4);
    }
}
