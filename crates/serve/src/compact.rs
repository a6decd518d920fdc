//! Background LSM compaction: merge off-thread, install-if-current.
//!
//! Every trie-cache entry is an LSM stack of immutable `Arc`'d runs
//! plus a tombstone set (`parlog_relal::lsm::TrieLayers`). Reads absorb
//! the stack (k-way leapfrog over runs, tombstone filtering), so a
//! deep stack taxes every read until someone merges it. Merging is
//! **pure** — `TrieLayers::merged` touches only the immutable runs —
//! which makes it safe to run anywhere, including a thread that holds
//! no lock on the instance. The loop is therefore:
//!
//! 1. **collect** — snapshot the writer's compaction candidates
//!    (`Instance::compaction_candidates`): cheap clones of `Arc`'d run
//!    stacks, taken under the writer lock but O(entries), not O(data);
//! 2. **merge** — off the writer entirely: collapse each stack to a
//!    single run. Mutators proceed concurrently;
//! 3. **install** — offer each merged stack back
//!    (`Instance::install_layers`): the instance revalidates that the
//!    entry is still current (`built_epoch` covers the relation's
//!    epoch) and rejects stale merges. A mutation that raced the merge
//!    simply wins; the merge is discarded and retried next cycle.
//!
//! Two drivers share that loop: [`VirtualCompactor`] steps it
//! explicitly on the virtual clock — fully deterministic, the test
//! mode — and [`BackgroundCompactor`] runs it on a real thread against
//! a live [`SnapshotStore`], publishing the merged state so new pins
//! serve single-run stacks.

use parlog_relal::instance::Instance;
use parlog_relal::lsm::TrieLayers;
use parlog_relal::snapshot::SnapshotStore;
use parlog_relal::symbols::RelId;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One candidate entry, carried between the collect and install steps.
#[derive(Debug, Clone)]
pub struct CompactionJob {
    /// The relation.
    pub rel: RelId,
    /// The trie's column permutation.
    pub perm: Vec<usize>,
    /// The (merged, after [`tick_merge`](VirtualCompactor::tick_merge)) stack.
    pub layers: TrieLayers,
}

/// Counters for one compactor's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Candidate entries collected.
    pub collected: u64,
    /// Stacks merged (pure off-thread work).
    pub merged: u64,
    /// Merged stacks accepted at install time.
    pub installed: u64,
    /// Merged stacks rejected because a mutation raced the merge.
    pub discarded: u64,
}

fn collect(inst: &Instance) -> Vec<CompactionJob> {
    inst.compaction_candidates()
        .into_iter()
        .map(|(rel, perm, layers)| CompactionJob { rel, perm, layers })
        .collect()
}

fn install(inst: &Instance, jobs: Vec<CompactionJob>, stats: &mut CompactionStats) {
    for job in jobs {
        if inst.install_layers(job.rel, &job.perm, job.layers) {
            stats.installed += 1;
        } else {
            stats.discarded += 1;
        }
    }
}

/// The deterministic, virtual-clock driver: the test mode, and the mode
/// the closed-loop harness uses so compaction interleaves with reads
/// and publications at *chosen* points instead of wall-clock ones.
#[derive(Debug, Default)]
pub struct VirtualCompactor {
    pending: Vec<CompactionJob>,
    stats: CompactionStats,
}

impl VirtualCompactor {
    /// A compactor with no pending work.
    pub fn new() -> VirtualCompactor {
        VirtualCompactor::default()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CompactionStats {
        self.stats
    }

    /// Merged jobs awaiting install.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Step 1+2 on the virtual clock: collect the writer's candidates
    /// and merge them. The writer lock is held only for the collect;
    /// the merge runs on cloned `Arc` stacks — a mutator in another
    /// interleaving slot is never blocked by it.
    pub fn tick_merge<W: Borrow<Instance>>(&mut self, store: &SnapshotStore<W>) {
        let jobs = store.with_writer(|w| collect(w.borrow()));
        self.stats.collected += jobs.len() as u64;
        for mut job in jobs {
            job.layers = job.layers.merged();
            self.stats.merged += 1;
            self.pending.push(job);
        }
    }

    /// Step 3 on the virtual clock: offer every pending merge back to
    /// the writer; stale ones (the entry moved since the merge) are
    /// discarded by install-time revalidation.
    pub fn tick_install<W: Borrow<Instance>>(&mut self, store: &SnapshotStore<W>) {
        let jobs = std::mem::take(&mut self.pending);
        store.with_writer(|w| install(w.borrow(), jobs, &mut self.stats));
    }

    /// A full cycle (merge then install) with nothing interleaved.
    pub fn cycle<W: Borrow<Instance>>(&mut self, store: &SnapshotStore<W>) {
        self.tick_merge(store);
        self.tick_install(store);
    }
}

/// The wall-clock driver: a real background thread cycling
/// collect→merge→install against a live store, publishing after
/// installs so fresh pins see single-run stacks. Stop it to join the
/// thread and read the final counters.
#[derive(Debug)]
pub struct BackgroundCompactor {
    handle: std::thread::JoinHandle<CompactionStats>,
    stop: Arc<AtomicBool>,
    cycles: Arc<AtomicU64>,
}

impl BackgroundCompactor {
    /// Spawn the compaction thread over `store`.
    pub fn spawn<W>(store: Arc<SnapshotStore<W>>) -> BackgroundCompactor
    where
        W: Borrow<Instance> + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let cycles = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_cycles = Arc::clone(&cycles);
        let handle = std::thread::spawn(move || {
            let mut inner = VirtualCompactor::new();
            while !thread_stop.load(Ordering::Relaxed) {
                inner.tick_merge(&store);
                let had_work = inner.pending() > 0;
                inner.tick_install(&store);
                if had_work && inner.stats().installed > 0 {
                    // Publish only when content-preserving: `publish`
                    // then carries the current snapshot's frozen views
                    // forward. If a mutation snuck in, skip — the
                    // writer's own publish surfaces the merged runs
                    // (and re-derives its views) anyway.
                    if store.with_writer(|w| w.borrow().epoch()) == store.pin().epoch() {
                        store.publish();
                    }
                }
                thread_cycles.fetch_add(1, Ordering::Relaxed);
                if !had_work {
                    // Nothing to merge: yield instead of spinning.
                    std::thread::yield_now();
                }
            }
            inner.stats()
        });
        BackgroundCompactor {
            handle,
            stop,
            cycles,
        }
    }

    /// Cycles completed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Signal the thread, join it, return its counters.
    pub fn stop(self) -> CompactionStats {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;
    use parlog_relal::symbols::rel;

    fn store_with_stack() -> Arc<SnapshotStore> {
        let store = Arc::new(SnapshotStore::new(Instance::from_facts([fact(
            "E",
            &[0, 1],
        )])));
        store.warm(rel("E"), &[0, 1]);
        // Each batch of inserts after a build lands as a fresh run.
        for k in 1..4u64 {
            store.mutate(|w| {
                w.insert(fact("E", &[k, k + 1]));
            });
            store.warm(rel("E"), &[0, 1]);
        }
        store
    }

    #[test]
    fn virtual_cycle_merges_to_a_single_run() {
        let store = store_with_stack();
        let deep = store.with_writer(|w| w.trie_layers(rel("E"), &[0, 1]).run_count());
        assert!(deep > 1, "setup should leave a multi-run stack, got {deep}");
        let mut c = VirtualCompactor::new();
        c.cycle(&store);
        let s = c.stats();
        assert!(s.installed >= 1);
        assert_eq!(s.discarded, 0);
        let after = store.with_writer(|w| w.trie_layers(rel("E"), &[0, 1]));
        assert_eq!(after.run_count(), 1);
        assert!(!after.has_tombstones());
        // Contents unchanged.
        assert_eq!(after.runs().iter().map(|r| r.rows()).sum::<usize>(), 4);
    }

    /// Publication refreshes the writer's tries and leaves it unsealed,
    /// so a compaction cycle right after a publish finds current stacks
    /// and installs every merge.
    #[test]
    fn cycle_right_after_publish_installs_and_discards_nothing() {
        let store = SnapshotStore::new(Instance::from_facts([fact("E", &[0, 1])]));
        store.warm(rel("E"), &[0, 1]);
        for k in 10..16u64 {
            store.mutate(|w| {
                w.insert(fact("E", &[k, k + 1]));
            });
            store.publish();
            let mut c = VirtualCompactor::new();
            c.cycle(&store);
            let s = c.stats();
            assert!(s.installed >= 1, "after publish {k}: {s:?}");
            assert_eq!(s.discarded, 0);
            let layers = store.with_writer(|w| w.trie_layers(rel("E"), &[0, 1]));
            assert_eq!(layers.run_count(), 1);
        }
    }

    #[test]
    fn raced_merge_is_discarded_not_installed() {
        let store = store_with_stack();
        let mut c = VirtualCompactor::new();
        c.tick_merge(&store);
        assert!(c.pending() > 0);
        // A mutation lands between merge and install: the merged stack
        // is now stale and must be rejected, never silently installed.
        store.mutate(|w| {
            w.insert(fact("E", &[99, 100]));
        });
        c.tick_install(&store);
        let s = c.stats();
        assert_eq!(s.installed, 0);
        assert!(s.discarded >= 1);
        // The next full cycle (no race) succeeds on a fresh two-run
        // stack (base rebuild + one delta run).
        store.warm(rel("E"), &[0, 1]);
        store.mutate(|w| {
            w.insert(fact("E", &[100, 101]));
        });
        store.warm(rel("E"), &[0, 1]);
        c.cycle(&store);
        assert!(c.stats().installed >= 1);
        let after = store.with_writer(|w| w.trie_layers(rel("E"), &[0, 1]));
        assert_eq!(after.run_count(), 1);
    }

    #[test]
    fn virtual_mode_is_deterministic() {
        let run = || {
            let store = store_with_stack();
            let mut c = VirtualCompactor::new();
            c.tick_merge(&store);
            store.mutate(|w| {
                w.insert(fact("E", &[50, 51]));
            });
            c.tick_install(&store);
            store.warm(rel("E"), &[0, 1]);
            c.cycle(&store);
            (
                c.stats(),
                store.with_writer(|w| w.trie_layers(rel("E"), &[0, 1]).run_count()),
            )
        };
        assert_eq!(run(), run(), "same interleaving, same counters");
    }

    #[test]
    fn compaction_never_blocks_or_loses_mutations() {
        let store = store_with_stack();
        let mut c = VirtualCompactor::new();
        c.tick_merge(&store);
        // Mutator proceeds while merges are "in flight".
        store.mutate(|w| {
            w.insert(fact("E", &[7, 8]));
        });
        c.tick_install(&store);
        let snap = store.publish();
        assert!(snap.instance().contains(&fact("E", &[7, 8])));
        assert_eq!(snap.instance().len(), 5);
    }

    #[test]
    fn background_compactor_converges_a_live_store() {
        let store = store_with_stack();
        let bg = BackgroundCompactor::spawn(Arc::clone(&store));
        // Writer keeps publishing while the compactor runs.
        for k in 10..20u64 {
            store.mutate(|w| {
                w.insert(fact("E", &[k, k + 1]));
            });
            store.warm(rel("E"), &[0, 1]);
            store.publish();
        }
        // Wait until the compactor has had at least a few cycles after
        // the last mutation, then stop it.
        let target = bg.cycles() + 3;
        while bg.cycles() < target {
            std::thread::yield_now();
        }
        let stats = bg.stop();
        // One more offer in case the very last merge raced the writer.
        let mut fin = VirtualCompactor::new();
        fin.cycle(&store);
        let after = store.with_writer(|w| w.trie_layers(rel("E"), &[0, 1]));
        assert_eq!(after.run_count(), 1);
        assert_eq!(after.runs().iter().map(|r| r.rows()).sum::<usize>(), 14);
        assert!(stats.merged >= stats.installed);
    }
}
