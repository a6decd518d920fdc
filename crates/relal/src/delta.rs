//! Per-instance delta logs: the ordered record of every successful
//! insert/delete, keyed by the mutation epoch.
//!
//! The log is what turns the instance from a batch store into an
//! incremental one: consumers that cached derived state (tries, maintained
//! Datalog fixpoints, routed MPC shards) remember the epoch they last saw
//! and ask [`DeltaLog::since`] for exactly the mutations that happened
//! after it, instead of re-reading the world. The log is bounded — once a
//! consumer falls further behind than [`DeltaLog::capacity`] entries, it
//! gets `None` and must fall back to a full rebuild, which is always
//! correct (the log is an optimization channel, never the source of
//! truth).
//!
//! Only mutation is logged. An instance built whole — from a collection
//! of facts, in one bulk build — has no history: its log starts empty and
//! already truncated up to the epoch it was built at.

use crate::fact::Fact;

/// The two kinds of instance mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// The fact was inserted (it was not previously present).
    Insert,
    /// The fact was removed (it was previously present).
    Delete,
}

/// One successful mutation: the epoch the instance moved *to*, the
/// operation, and the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// The instance epoch immediately after this mutation was applied.
    pub epoch: u64,
    /// Insert or delete.
    pub op: DeltaOp,
    /// The mutated fact.
    pub fact: Fact,
}

/// A bounded, ordered log of [`DeltaEntry`]s.
///
/// The rule an instance keeps it by: an instance built whole has no
/// history, an instance that is mutated is logged. A bulk build writes
/// no entry and leaves the log forgotten up to the build's epoch
/// (`since(e)` is `None` for every earlier `e`, so a consumer behind it
/// rebuilds, and empty at the epoch); every later insert or delete is
/// pushed here.
///
/// The **logical window** is the last `capacity` entries pushed; it is
/// what [`DeltaLog::len`] and [`DeltaLog::since`] describe. Physically
/// the window is the tail `entries[head..]` of one vector: truncating an
/// entry advances `head` (O(1)) instead of shifting the window, and the
/// dead prefix is reclaimed in one move once it exceeds `capacity / 4`
/// entries — so a push moves at most four live entries amortised, and the
/// vector never holds more than `capacity + capacity / 4 + 1` entries.
#[derive(Debug)]
pub struct DeltaLog {
    entries: Vec<DeltaEntry>,
    /// Start of the logical window inside `entries`.
    head: usize,
    /// Highest epoch whose entry has been truncated away (0 = nothing
    /// truncated). `since(e)` is answerable iff `e >= truncated_to`.
    truncated_to: u64,
    capacity: usize,
    /// Live entries shifted by prefix reclamation so far (the guard
    /// against the per-push memmove this layout replaced).
    #[cfg(test)]
    moved: usize,
}

/// Default number of retained entries — enough for every realistic
/// refresh cadence while keeping the log's memory bounded.
pub const DEFAULT_LOG_CAPACITY: usize = 1 << 14;

impl Default for DeltaLog {
    fn default() -> DeltaLog {
        DeltaLog::with_capacity(DEFAULT_LOG_CAPACITY)
    }
}

/// A clone carries the logical window only, never the dead prefix.
impl Clone for DeltaLog {
    fn clone(&self) -> DeltaLog {
        DeltaLog {
            entries: self.window().to_vec(),
            head: 0,
            truncated_to: self.truncated_to,
            capacity: self.capacity,
            #[cfg(test)]
            moved: 0,
        }
    }
}

impl DeltaLog {
    /// An empty log retaining at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> DeltaLog {
        DeltaLog {
            entries: Vec::new(),
            head: 0,
            truncated_to: 0,
            capacity: capacity.max(1),
            #[cfg(test)]
            moved: 0,
        }
    }

    /// An empty log that has already forgotten everything up to `epoch`:
    /// `since(e)` is `None` for `e < epoch` (rebuild, always correct) and
    /// empty at `epoch` — the log of an instance built whole, or of a copy
    /// that keeps no history.
    pub(crate) fn forgotten_to(epoch: u64, capacity: usize) -> DeltaLog {
        DeltaLog {
            truncated_to: epoch,
            ..DeltaLog::with_capacity(capacity)
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.head
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained entries, oldest first.
    fn window(&self) -> &[DeltaEntry] {
        &self.entries[self.head..]
    }

    /// Make room for `additional` more pushes without reallocating, as
    /// far as the window can use it (a bulk ingest knows its size).
    pub(crate) fn reserve(&mut self, additional: usize) {
        let room = (self.capacity + self.capacity / 4 + 1).saturating_sub(self.entries.len());
        self.entries.reserve(additional.min(room));
    }

    /// Record a mutation that moved the instance to `epoch`. Entries must
    /// be appended in strictly increasing epoch order.
    pub fn push(&mut self, epoch: u64, op: DeltaOp, fact: Fact) {
        debug_assert!(self.entries.last().is_none_or(|e| e.epoch < epoch));
        self.entries.push(DeltaEntry { epoch, op, fact });
        if self.len() > self.capacity {
            self.truncated_to = self.entries[self.head].epoch;
            self.head += 1;
            if self.head > self.capacity / 4 {
                #[cfg(test)]
                {
                    self.moved += self.len();
                }
                self.entries.drain(..self.head);
                self.head = 0;
            }
        }
    }

    /// All mutations after epoch `e`, oldest first — or `None` if the log
    /// has truncated past `e` (the caller must fall back to a full
    /// rebuild). `Some(&[])` means the caller is already current.
    pub fn since(&self, e: u64) -> Option<&[DeltaEntry]> {
        if e < self.truncated_to {
            return None;
        }
        let window = self.window();
        Some(&window[window.partition_point(|d| d.epoch <= e)..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use proptest::prelude::*;

    /// The log as it was before the head index: the window *is* the
    /// vector, and every truncation shifts it (`drain(..1)`, one memmove
    /// of the whole window per push at capacity). Kept as the model the
    /// current layout is checked against.
    struct ShiftingLog {
        entries: Vec<DeltaEntry>,
        truncated_to: u64,
        capacity: usize,
    }

    impl ShiftingLog {
        fn with_capacity(capacity: usize) -> ShiftingLog {
            ShiftingLog {
                entries: Vec::new(),
                truncated_to: 0,
                capacity: capacity.max(1),
            }
        }

        fn push(&mut self, epoch: u64, op: DeltaOp, fact: Fact) {
            self.entries.push(DeltaEntry { epoch, op, fact });
            if self.entries.len() > self.capacity {
                let drop = self.entries.len() - self.capacity;
                self.truncated_to = self.entries[drop - 1].epoch;
                self.entries.drain(..drop);
            }
        }

        fn since(&self, e: u64) -> Option<&[DeltaEntry]> {
            if e < self.truncated_to {
                return None;
            }
            let start = self.entries.partition_point(|d| d.epoch <= e);
            Some(&self.entries[start..])
        }
    }

    /// Push `n` entries (epochs `1 + gap`, `1 + 2·gap`, … so that some
    /// epochs fall between entries) into both logs, comparing every
    /// observable after every push when `every_push`, else at the end.
    fn check_against_model(capacity: usize, n: usize, gap: u64, every_push: bool) {
        let mut log = DeltaLog::with_capacity(capacity);
        let mut model = ShiftingLog::with_capacity(capacity);
        assert_eq!(log.capacity(), model.capacity);
        for i in 0..n {
            let epoch = 1 + gap * (i as u64 + 1);
            let op = if i % 3 == 2 {
                DeltaOp::Delete
            } else {
                DeltaOp::Insert
            };
            log.push(epoch, op, fact("R", &[i as u64]));
            model.push(epoch, op, fact("R", &[i as u64]));
            if every_push || i + 1 == n {
                assert_eq!(log.len(), model.entries.len());
                assert_eq!(log.is_empty(), model.entries.is_empty());
                assert_eq!(log.truncated_to, model.truncated_to);
                assert!(log.entries.len() <= log.capacity + log.capacity / 4);
                // The whole window once, then `since` for every epoch
                // it can tell apart plus two on each side — each answer
                // is a suffix of the window, so its length and first
                // entry pin it down.
                assert_eq!(log.window(), &model.entries[..]);
                let suffix = |s: Option<&[DeltaEntry]>| s.map(|s| (s.len(), s.first().cloned()));
                let lo = model.truncated_to.saturating_sub(2);
                for e in lo..=epoch + 2 {
                    assert_eq!(
                        suffix(log.since(e)),
                        suffix(model.since(e)),
                        "since({e}) after push {i}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Small capacities, every observable after every push.
        #[test]
        fn head_index_log_matches_shifting_model(
            capacity in 1..24usize,
            multiple in 0..5usize,
            extra in 0..30usize,
            gap in 1..4u64,
        ) {
            // Lengths around exact multiples of the capacity, where the
            // truncation and reclamation edges are.
            check_against_model(capacity, capacity * multiple + extra, gap, true);
            check_against_model(capacity, capacity * multiple, gap, true);
        }
    }

    /// The default capacity and its neighbours (2¹⁴ ± 1), up to the cap,
    /// across it, and across the first reclamation of the dead prefix.
    /// (The model shifts its whole window on every push past the cap, so
    /// the runs stop soon after.)
    #[test]
    fn default_capacity_edges_match_the_model() {
        let cap = DEFAULT_LOG_CAPACITY;
        for n in [cap - 1, cap, cap + 1, cap + cap / 4 + 2] {
            check_against_model(cap, n, 1, false);
        }
        check_against_model(cap - 1, cap + 1, 1, false);
        check_against_model(cap + 1, cap + 2, 1, false);
        // And once with every push compared, on a capacity big enough to
        // reclaim a multi-entry prefix several times.
        check_against_model(64, 64 * 5 + 3, 2, true);
    }

    /// Clock-free guard against the per-push memmove coming back: the
    /// log counts the live entries its reclamations shift. A window of
    /// `capacity` entries in a vector of at most `1.25 · capacity` can
    /// slide `capacity / 4` pushes before it must be moved back, so the
    /// bound this layout can meet is 4 shifted entries per push — the
    /// shifting model pays `capacity` per push.
    #[test]
    fn reclamation_moves_at_most_four_entries_per_push() {
        for capacity in [1, 2, 3, 4, 7, 64, 1000, DEFAULT_LOG_CAPACITY] {
            let mut log = DeltaLog::with_capacity(capacity);
            let n = 5 * capacity + 3;
            for i in 0..n {
                log.push(i as u64 + 1, DeltaOp::Insert, fact("R", &[i as u64]));
                assert!(log.moved <= 4 * (i + 1), "capacity {capacity}, push {i}");
                assert!(
                    4 * log.entries.len() <= 5 * capacity.max(4),
                    "physical length {} at capacity {capacity}",
                    log.entries.len()
                );
            }
            assert_eq!(log.len(), capacity);
        }
    }

    /// A clone is the window alone, whatever dead prefix the original
    /// was carrying.
    #[test]
    fn clone_carries_the_window_only() {
        let mut log = DeltaLog::with_capacity(8);
        for i in 0..10u64 {
            log.push(i + 1, DeltaOp::Insert, fact("R", &[i]));
        }
        assert_eq!(log.head, 2, "a dead prefix is pending");
        let copy = log.clone();
        assert_eq!(copy.entries.len(), 8);
        for e in 0..12 {
            assert_eq!(copy.since(e), log.since(e));
        }
    }

    #[test]
    fn since_slices_by_epoch() {
        let mut log = DeltaLog::default();
        log.push(1, DeltaOp::Insert, fact("R", &[1]));
        log.push(2, DeltaOp::Insert, fact("R", &[2]));
        log.push(3, DeltaOp::Delete, fact("R", &[1]));
        assert_eq!(log.since(0).unwrap().len(), 3);
        assert_eq!(log.since(2).unwrap().len(), 1);
        assert_eq!(log.since(2).unwrap()[0].op, DeltaOp::Delete);
        assert_eq!(log.since(3).unwrap().len(), 0);
        assert_eq!(log.since(99).unwrap().len(), 0);
    }

    #[test]
    fn truncation_forces_full_rebuild() {
        let mut log = DeltaLog::with_capacity(2);
        log.push(1, DeltaOp::Insert, fact("R", &[1]));
        log.push(2, DeltaOp::Insert, fact("R", &[2]));
        log.push(3, DeltaOp::Insert, fact("R", &[3]));
        // Epoch-1 entry was dropped: a reader at epoch 0 can no longer
        // catch up from the log.
        assert!(log.since(0).is_none());
        assert!(log.since(1).is_some());
        assert_eq!(log.since(1).unwrap().len(), 2);
    }
}
