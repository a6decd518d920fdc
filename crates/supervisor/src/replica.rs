//! Read-replica catch-up: the serving layer's replication path.
//!
//! A read replica is a second [`Instance`] that trails a primary
//! writer, catching up on a cadence and serving pinned snapshots of its
//! own through a local `SnapshotStore`. Catch-up has exactly the two
//! modes the rest of the control plane already uses for state transfer:
//!
//! * **Delta replay** — the common case: replay
//!   [`Instance::delta_since`] from the last applied primary epoch.
//!   Cost proportional to the writer's recent churn, independent of
//!   database size.
//! * **Full adoption** — the fallback when the bounded delta log has
//!   truncated past the replica's epoch (the replica fell too far
//!   behind, or is brand new): adopt the primary's full durable state,
//!   the same move `SimRun::adopt_shard` performs when a survivor
//!   adopts a dead node's shard ([`crate::supervise()`] uses it as the
//!   heal action; here it is the bootstrap/resync action).
//!
//! Equality of replica and primary after catch-up is checkable for free
//! via the content-addressed snapshot id (`parlog_verify::snapshot_id`):
//! both sides hash to the same Merkle root exactly when they converged.

use parlog_relal::delta::DeltaOp;
use parlog_relal::instance::Instance;
use parlog_relal::snapshot::SnapshotStore;

/// How one catch-up round brought the replica current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUp {
    /// Nothing to do: the replica already mirrors the primary's epoch.
    AlreadyCurrent,
    /// Replayed this many delta-log entries.
    Delta {
        /// Entries applied (inserts + deletes).
        applied: usize,
    },
    /// The log had truncated past the replica's epoch: adopted the
    /// primary's full state (the `adopt_shard` move).
    FullAdopt {
        /// Facts in the adopted state.
        facts: usize,
    },
}

/// A read replica of a primary writer instance.
#[derive(Debug)]
pub struct ReadReplica {
    local: Instance,
    applied_epoch: u64,
    delta_catchups: u64,
    full_adoptions: u64,
}

impl ReadReplica {
    /// Bootstrap a replica by full adoption of the primary's state.
    pub fn adopt(primary: &Instance) -> ReadReplica {
        ReadReplica {
            local: primary.clone(),
            applied_epoch: primary.epoch(),
            delta_catchups: 0,
            full_adoptions: 1,
        }
    }

    /// Bootstrap a replica by adopting a cluster's durable shards (the
    /// multi-shard form of [`ReadReplica::adopt`]): the union of the
    /// per-server shard instances, exactly the state a survivor
    /// re-derives shard by shard via `SimRun::adopt_shard`.
    pub fn adopt_shards(shards: &[Instance]) -> ReadReplica {
        let mut local = Instance::new();
        for s in shards {
            local.extend_from(s);
        }
        ReadReplica {
            local,
            applied_epoch: 0,
            delta_catchups: 0,
            full_adoptions: 1,
        }
    }

    /// The replica's local instance (serve reads from it, or hand it to
    /// a local `SnapshotStore`).
    pub fn instance(&self) -> &Instance {
        &self.local
    }

    /// The primary epoch the replica has applied through.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch
    }

    /// Catch-up rounds that replayed deltas.
    pub fn delta_catchups(&self) -> u64 {
        self.delta_catchups
    }

    /// Catch-up rounds that fell back to full adoption (bootstrap
    /// included).
    pub fn full_adoptions(&self) -> u64 {
        self.full_adoptions
    }

    /// Bring the replica current with `primary`: delta replay when the
    /// log still covers the gap, full adoption otherwise.
    pub fn catch_up(&mut self, primary: &Instance) -> CatchUp {
        if primary.epoch() == self.applied_epoch {
            return CatchUp::AlreadyCurrent;
        }
        match primary.delta_since(self.applied_epoch) {
            Some(deltas) => {
                let applied = deltas.len();
                for e in deltas {
                    match e.op {
                        DeltaOp::Insert => {
                            self.local.insert(e.fact.clone());
                        }
                        DeltaOp::Delete => {
                            self.local.remove(&e.fact);
                        }
                    }
                }
                self.applied_epoch = primary.epoch();
                self.delta_catchups += 1;
                CatchUp::Delta { applied }
            }
            None => {
                self.local = primary.clone();
                self.applied_epoch = primary.epoch();
                self.full_adoptions += 1;
                CatchUp::FullAdopt {
                    facts: self.local.len(),
                }
            }
        }
    }

    /// Catch up against the primary `SnapshotStore`'s writer and
    /// publish the result through the replica's own `store` — the
    /// serving-layer replication round: after it returns, readers
    /// pinning from `store` see exactly the primary writer's state.
    pub fn catch_up_and_publish(
        &mut self,
        primary: &SnapshotStore,
        store: &SnapshotStore,
    ) -> CatchUp {
        let outcome = primary.with_writer(|w| self.catch_up(w));
        if outcome != CatchUp::AlreadyCurrent {
            let local = self.local.clone();
            store.mutate(move |w| {
                // Converge the replica store's writer to the replica
                // state (cheap diff via set ops on small divergence).
                let gone: Vec<_> = w.iter().filter(|f| !local.contains(f)).cloned().collect();
                for f in gone {
                    w.remove(&f);
                }
                w.extend_from(&local);
            });
            store.publish();
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;

    #[test]
    fn delta_catch_up_converges() {
        let mut primary = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[2, 3])]);
        let mut replica = ReadReplica::adopt(&primary);
        assert_eq!(replica.catch_up(&primary), CatchUp::AlreadyCurrent);
        primary.insert(fact("R", &[3, 4]));
        primary.remove(&fact("R", &[1, 2]));
        let outcome = replica.catch_up(&primary);
        assert_eq!(outcome, CatchUp::Delta { applied: 2 });
        assert_eq!(*replica.instance(), primary);
        assert_eq!(replica.delta_catchups(), 1);
        // Content roots agree — the free consistency check.
        assert_eq!(
            parlog_verify::snapshot::snapshot(replica.instance()),
            parlog_verify::snapshot::snapshot(&primary)
        );
    }

    #[test]
    fn truncated_log_falls_back_to_full_adoption() {
        let mut primary = Instance::from_facts([fact("R", &[0, 0])]);
        let mut replica = ReadReplica::adopt(&primary);
        // Push the bounded delta log far past its capacity so the
        // replica's epoch falls off the retained window.
        let cap = parlog_relal::delta::DEFAULT_LOG_CAPACITY;
        for k in 0..(cap as u64 + 10) {
            primary.insert(fact("R", &[k + 1, k + 1]));
        }
        let outcome = replica.catch_up(&primary);
        assert!(matches!(outcome, CatchUp::FullAdopt { facts } if facts == primary.len()));
        assert_eq!(*replica.instance(), primary);
        assert_eq!(replica.full_adoptions(), 2); // bootstrap + resync
    }

    /// A primary built whole has no history to replay: an empty replica
    /// catches up to it by one full adoption, and to its later mutations
    /// by deltas.
    #[test]
    fn built_primary_is_adopted_once_then_replayed() {
        let mut primary = Instance::from_facts((0..5u64).map(|k| fact("R", &[k, k + 1])));
        let mut replica = ReadReplica::adopt(&Instance::new());
        assert_eq!(replica.catch_up(&primary), CatchUp::FullAdopt { facts: 5 });
        assert_eq!(replica.full_adoptions(), 2); // bootstrap + the adoption
        for k in 5..8u64 {
            primary.insert(fact("R", &[k, k + 1]));
            assert_eq!(replica.catch_up(&primary), CatchUp::Delta { applied: 1 });
        }
        primary.remove(&fact("R", &[0, 1]));
        assert_eq!(replica.catch_up(&primary), CatchUp::Delta { applied: 1 });
        assert_eq!(replica.full_adoptions(), 2);
        assert_eq!(replica.delta_catchups(), 4);
        assert_eq!(*replica.instance(), primary);
    }

    #[test]
    fn adopt_shards_unions_durable_state() {
        let shards = vec![
            Instance::from_facts([fact("R", &[1, 2])]),
            Instance::from_facts([fact("R", &[2, 3]), fact("S", &[1, 1])]),
        ];
        let replica = ReadReplica::adopt_shards(&shards);
        assert_eq!(replica.instance().len(), 3);
        assert_eq!(replica.full_adoptions(), 1);
    }

    #[test]
    fn replica_store_serves_the_primary_state() {
        let primary = SnapshotStore::new(Instance::from_facts([fact("R", &[1, 2])]));
        let mut replica = primary.with_writer(ReadReplica::adopt);
        let store = SnapshotStore::new(replica.instance().clone());

        primary.mutate(|w| {
            w.insert(fact("R", &[5, 6]));
            w.remove(&fact("R", &[1, 2]));
        });
        primary.publish();
        let outcome = replica.catch_up_and_publish(&primary, &store);
        assert_eq!(outcome, CatchUp::Delta { applied: 2 });
        let snap = store.pin();
        assert!(snap.instance().contains(&fact("R", &[5, 6])));
        assert!(!snap.instance().contains(&fact("R", &[1, 2])));
        assert_eq!(
            primary.with_writer(parlog_verify::snapshot::snapshot),
            parlog_verify::snapshot::snapshot(snap.instance())
        );
    }
}
