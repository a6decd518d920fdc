//! LSM-of-tries: merge-on-read trie storage for incremental instances.
//!
//! A [`TrieLayers`] is the cached trie state of one `(relation, column
//! permutation)` pair: a stack of **immutable sorted runs** (each a
//! [`TrieRel`]) plus a set of **tombstones** (permuted tuples deleted since
//! the oldest run was built). Mutating the instance never rebuilds a trie;
//! instead the per-relation delta log is replayed on next read —
//! insertions become a small new run appended to the stack, deletions
//! become tombstones — and the LeapFrog TrieJoin descends all runs of an
//! atom simultaneously (a k-way merge cursor, see
//! [`crate::trie::LeapfrogPlan`]). Tombstoned tuples may linger inside old
//! runs; they are filtered at the leaves, where the atom is fully ground
//! and membership is authoritative.
//!
//! A deterministic **full compaction** bounds read amplification: when
//! the stack holds more than [`MAX_RUNS`] runs, or the tombstones reach
//! half the stored rows, the whole stack collapses to one freshly built
//! run (runs are never merged tier by tier). The trigger depends only on
//! run/tombstone counts, so identical
//! mutation sequences compact identically on every machine and thread
//! count.

use crate::delta::{DeltaEntry, DeltaOp};
use crate::fact::Val;
use crate::fastmap::{fxmap, fxset, FxSet};
use crate::instance::Instance;
use crate::symbols::RelId;
use crate::trie::TrieRel;
use std::sync::Arc;

/// Maximum run-stack depth before a deterministic full compaction.
pub const MAX_RUNS: usize = 4;

/// The layered trie state of one `(relation, permutation)` cache entry.
#[derive(Debug, Clone)]
pub struct TrieLayers {
    /// The instance epoch this entry is current as of.
    pub(crate) built_epoch: u64,
    /// Immutable sorted runs, oldest first. Tuples may repeat across
    /// runs; the merge cursor enumerates distinct values, so duplicates
    /// are harmless.
    runs: Vec<Arc<TrieRel>>,
    /// Permuted tuples deleted since the oldest run was built. May name
    /// tuples that still sit inside some run; leaf-level membership
    /// checks make them invisible to query results.
    tombstones: Arc<FxSet<Vec<Val>>>,
}

impl TrieLayers {
    /// Build a single-run, tombstone-free entry from the live fact set.
    pub(crate) fn build_full(
        instance: &Instance,
        rel: RelId,
        perm: &[usize],
        epoch: u64,
    ) -> TrieLayers {
        TrieLayers {
            built_epoch: epoch,
            runs: vec![Arc::new(TrieRel::build(instance, rel, perm))],
            tombstones: Arc::new(fxset()),
        }
    }

    /// The immutable runs, oldest first.
    pub fn runs(&self) -> &[Arc<TrieRel>] {
        &self.runs
    }

    /// The instance epoch this entry is current as of.
    pub fn built_epoch(&self) -> u64 {
        self.built_epoch
    }

    /// Would compacting this entry reduce read amplification (more than
    /// one run, or dead tuples lingering in the runs)?
    pub fn needs_compaction(&self) -> bool {
        self.runs.len() > 1 || !self.tombstones.is_empty()
    }

    /// Collapse the layers to a single tombstone-free run **without an
    /// instance**: the k-way merge of the immutable runs minus the
    /// tombstones. Because the inputs are all immutable `Arc`s, this is
    /// pure and safe to execute on a background thread while the owning
    /// instance keeps mutating — the caller revalidates against the
    /// relation epoch at install time ([`Instance::install_layers`]).
    ///
    /// For layers that are *current* (refreshed to their instance's
    /// epoch) the merge equals a full rebuild: `advance` tombstones
    /// every deletion since the oldest run, so `⋃runs ∖ tombstones` is
    /// exactly the live permuted-tuple set.
    pub fn merged(&self) -> TrieLayers {
        let Some(first) = self.runs.first() else {
            return self.clone();
        };
        let mut flat: Vec<Val> = Vec::with_capacity(self.total_rows() * first.depth());
        let mut rows = 0;
        for run in &self.runs {
            for r in 0..run.rows() {
                let start = flat.len();
                run.push_row(r, &mut flat);
                if self.tombstones.contains(&flat[start..]) {
                    flat.truncate(start);
                } else {
                    rows += 1;
                }
            }
        }
        TrieLayers {
            built_epoch: self.built_epoch,
            runs: vec![Arc::new(TrieRel::from_rows(
                first.perm.clone(),
                &flat,
                rows,
            ))],
            tombstones: Arc::new(fxset()),
        }
    }

    /// Number of runs in the stack.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Are there outstanding tombstones (dead tuples inside the runs)?
    pub fn has_tombstones(&self) -> bool {
        !self.tombstones.is_empty()
    }

    /// Number of outstanding tombstones.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Total stored rows across all runs (counts duplicates and dead
    /// tuples — the read-amplification figure, not the live cardinality).
    pub fn total_rows(&self) -> usize {
        self.runs.iter().map(|r| r.rows()).sum()
    }

    /// Replay `entries` (the instance delta log since `built_epoch`; all
    /// relations — filtered here) onto the layers, then compact if the
    /// deterministic size/tombstone triggers fire. Returns `true` iff a
    /// full rebuild (compaction) happened.
    pub(crate) fn advance(
        &mut self,
        entries: &[DeltaEntry],
        instance: &Instance,
        rel: RelId,
        perm: &[usize],
        now_epoch: u64,
    ) -> bool {
        // Net effect per permuted tuple: the last op wins (an
        // insert-then-delete is a pure tombstone, delete-then-reinsert a
        // pure insert).
        let mut net: crate::fastmap::FxMap<Vec<Val>, DeltaOp> = fxmap();
        for e in entries {
            if e.fact.rel != rel || e.fact.args.len() != perm.len() {
                continue;
            }
            let tuple: Vec<Val> = perm.iter().map(|&p| e.fact.args[p]).collect();
            net.insert(tuple, e.op);
        }
        let mut inserted: Vec<Vec<Val>> = Vec::new();
        let mut deleted: Vec<Vec<Val>> = Vec::new();
        for (tuple, op) in net {
            match op {
                DeltaOp::Insert => inserted.push(tuple),
                DeltaOp::Delete => deleted.push(tuple),
            }
        }
        if !inserted.is_empty() || !deleted.is_empty() {
            let tombs = Arc::make_mut(&mut self.tombstones);
            for t in &inserted {
                tombs.remove(t);
            }
            for t in deleted {
                tombs.insert(t);
            }
            if !inserted.is_empty() {
                self.runs.push(Arc::new(TrieRel::from_rows(
                    perm.to_vec(),
                    &inserted.concat(),
                    inserted.len(),
                )));
            }
        }
        self.built_epoch = now_epoch;
        if self.runs.len() > MAX_RUNS
            || (!self.tombstones.is_empty() && 2 * self.tombstones.len() >= self.total_rows())
        {
            *self = TrieLayers::build_full(instance, rel, perm, now_epoch);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::symbols::rel;

    #[test]
    fn advance_appends_runs_and_tombstones() {
        let mut db = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[2, 3])]);
        let e0 = db.epoch();
        let mut layers = TrieLayers::build_full(&db, rel("R"), &[0, 1], e0);
        assert_eq!(layers.run_count(), 1);
        db.insert(fact("R", &[3, 4]));
        db.remove(&fact("R", &[1, 2]));
        let deltas = db.delta_since(e0).unwrap().to_vec();
        let compacted = layers.advance(&deltas, &db, rel("R"), &[0, 1], db.epoch());
        // 1 insert → one tail run; 1 delete → one tombstone. With 3 total
        // rows and 1 tombstone the compaction trigger stays quiet.
        assert!(!compacted);
        assert_eq!(layers.run_count(), 2);
        assert_eq!(layers.tombstone_count(), 1);
    }

    #[test]
    fn compaction_trigger_is_size_tiered_and_deterministic() {
        let mut db = Instance::from_facts((0..8u64).map(|k| fact("R", &[k, k + 1])));
        let mut layers = TrieLayers::build_full(&db, rel("R"), &[0, 1], db.epoch());
        // Four separate single-insert advances stack four tail runs on
        // the base run → exceeds MAX_RUNS → full compaction.
        let mut compactions = 0;
        for k in 100..104u64 {
            let e = db.epoch();
            db.insert(fact("R", &[k, k]));
            let deltas = db.delta_since(e).unwrap().to_vec();
            if layers.advance(&deltas, &db, rel("R"), &[0, 1], db.epoch()) {
                compactions += 1;
            }
        }
        assert_eq!(compactions, 1);
        assert_eq!(layers.run_count(), 1);
        assert!(!layers.has_tombstones());
        assert_eq!(layers.runs()[0].rows(), 12);
    }

    #[test]
    fn heavy_deletion_compacts_away_tombstones() {
        let mut db = Instance::from_facts((0..6u64).map(|k| fact("R", &[k, k])));
        let mut layers = TrieLayers::build_full(&db, rel("R"), &[0, 1], db.epoch());
        let e = db.epoch();
        for k in 0..3u64 {
            db.remove(&fact("R", &[k, k]));
        }
        let deltas = db.delta_since(e).unwrap().to_vec();
        // 3 tombstones vs 6 rows hits the ≥ half trigger.
        assert!(layers.advance(&deltas, &db, rel("R"), &[0, 1], db.epoch()));
        assert_eq!(layers.run_count(), 1);
        assert_eq!(layers.runs()[0].rows(), 3);
        assert!(!layers.has_tombstones());
    }

    #[test]
    fn merged_equals_full_rebuild() {
        let mut db = Instance::from_facts((0..6u64).map(|k| fact("R", &[k, k + 1])));
        let e0 = db.epoch();
        let mut layers = TrieLayers::build_full(&db, rel("R"), &[0, 1], e0);
        db.insert(fact("R", &[9, 9]));
        db.remove(&fact("R", &[0, 1]));
        let deltas = db.delta_since(e0).unwrap().to_vec();
        layers.advance(&deltas, &db, rel("R"), &[0, 1], db.epoch());
        assert!(layers.needs_compaction());
        let merged = layers.merged();
        assert_eq!(merged.run_count(), 1);
        assert!(!merged.has_tombstones());
        let full = TrieLayers::build_full(&db, rel("R"), &[0, 1], db.epoch());
        let a: Vec<_> = merged.runs()[0].tuples().collect();
        let b: Vec<_> = full.runs()[0].tuples().collect();
        assert_eq!(a, b);
        assert_eq!(merged.built_epoch(), db.epoch());
    }

    #[test]
    fn delete_then_reinsert_cancels_the_tombstone() {
        let mut db = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[5, 6])]);
        let e = db.epoch();
        let mut layers = TrieLayers::build_full(&db, rel("R"), &[0, 1], e);
        db.remove(&fact("R", &[1, 2]));
        db.insert(fact("R", &[1, 2]));
        let deltas = db.delta_since(e).unwrap().to_vec();
        layers.advance(&deltas, &db, rel("R"), &[0, 1], db.epoch());
        assert!(!layers.has_tombstones());
    }
}
