//! Handcrafted publish/pin interleavings (PR 10, satellite 5).
//!
//! Publication is linearized by a single release-store of the
//! generation counter, *after* the current-snapshot pointer swap. These
//! tests pin that ordering down from the reader's side:
//!
//! * at every point a reader can interleave with a publication —
//!   before the writer mutates, after it mutates but before publish,
//!   inside the view-refresh closure (writer lock held, swap not yet
//!   done), and after publish returns — `pin()` yields a **sealed,
//!   internally consistent** snapshot;
//! * the generation counter never runs ahead of the snapshot pointer:
//!   a reader that first observes generation `g` and then pins gets a
//!   snapshot of generation ≥ `g` (the swap happens before the store);
//! * a full two-thread stress run: every pinned snapshot's fact count
//!   equals exactly `base + generation` (one insert per publication),
//!   so any torn or out-of-order publication is caught arithmetically.

use parlog_relal::fact::fact;
use parlog_relal::fastmap::fxmap;
use parlog_relal::instance::Instance;
use parlog_relal::snapshot::SnapshotStore;
use std::sync::atomic::{AtomicU64, Ordering};

fn base(n: u64) -> Instance {
    Instance::from_facts((0..n).map(|k| fact("E", &[k, k + 1])))
}

/// The reader-side invariant checked at every interleaving point.
fn check_pin(store: &SnapshotStore, base_len: usize) {
    let observed_gen = store.generation();
    let snap = store.pin();
    // The counter is stored *after* the pointer swap, so a pin taken
    // after observing generation g can never be older than g.
    assert!(
        snap.generation() >= observed_gen,
        "pin (gen {}) older than observed generation {observed_gen}",
        snap.generation()
    );
    assert!(
        snap.instance().is_sealed(),
        "published snapshots are sealed"
    );
    // One insert per publication: size is an arithmetic function of the
    // generation, so a torn snapshot (pointer/contents mismatch) fails.
    assert_eq!(
        snap.instance().len(),
        base_len + snap.generation() as usize,
        "snapshot contents disagree with its generation"
    );
}

#[test]
fn reader_steps_interleaved_at_every_publication_point() {
    let store = SnapshotStore::new(base(4));
    let base_len = 4;
    for round in 0..6u64 {
        // Point 1: quiescent.
        check_pin(&store, base_len);
        // Point 2: after the writer mutates, before publish — the
        // mutation must be invisible to pins.
        store.mutate(|w| {
            w.insert(fact("W", &[round, round]));
        });
        let before = store.pin();
        assert_eq!(before.generation(), round);
        check_pin(&store, base_len);
        // Point 3: inside the publication's view-refresh closure — the
        // writer lock is held, the swap has not happened yet; readers
        // must still see the previous snapshot, fully formed.
        store.publish_with(|_| {
            check_pin(&store, base_len);
            assert_eq!(
                store.generation(),
                round,
                "swap must not precede the closure"
            );
            fxmap()
        });
        // Point 4: after publish returns.
        let after = store.pin();
        assert_eq!(after.generation(), round + 1);
        check_pin(&store, base_len);
        // The pre-publish pin was untouched by the swap.
        assert_eq!(before.instance().len(), base_len + round as usize);
    }
}

#[test]
fn generation_probe_then_pin_never_goes_backwards() {
    let store = SnapshotStore::new(base(4));
    // Interleave a probe between every pair of publication steps.
    for round in 0..8u64 {
        let g0 = store.generation();
        store.mutate(|w| {
            w.insert(fact("W", &[round, round]));
        });
        let g1 = store.generation();
        assert_eq!(g0, g1, "mutation must not move the generation");
        store.publish();
        let g2 = store.generation();
        assert_eq!(g2, g1 + 1);
        // A pin taken now reflects at least g2.
        assert!(store.pin().generation() >= g2);
    }
}

#[test]
fn pin_if_newer_is_exact_across_publications() {
    let store = SnapshotStore::new(base(4));
    let mut pinned = store.pin();
    for round in 0..5u64 {
        assert!(
            !store.pin_if_newer(&mut pinned),
            "no publication, no re-pin"
        );
        store.mutate(|w| {
            w.insert(fact("W", &[round, round]));
        });
        assert!(
            !store.pin_if_newer(&mut pinned),
            "mutation alone must not re-pin"
        );
        store.publish();
        assert!(store.pin_if_newer(&mut pinned));
        assert_eq!(pinned.generation(), round + 1);
        assert_eq!(pinned.instance().len(), 4 + round as usize + 1);
    }
}

#[test]
fn two_thread_publish_pin_stress() {
    let store = SnapshotStore::new(base(4));
    let base_len = 4;
    let publications = 200u64;
    let checks = AtomicU64::new(0);
    // The readers pin generation 0 before the writer starts, so each one
    // checks at least once however the threads are scheduled: 200
    // publications take ≈ 3 ms in a debug build, less than a late
    // reader's first time slice on a busy two-core host.
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for k in 0..publications {
                store.mutate(|w| {
                    w.insert(fact("W", &[k, k]));
                });
                store.publish();
            }
        });
        for _ in 0..2 {
            scope.spawn(|| {
                let mut last_gen = 0u64;
                let mut pinned = store.pin();
                start.wait();
                while pinned.generation() < publications {
                    check_pin(&store, base_len);
                    store.pin_if_newer(&mut pinned);
                    assert!(
                        pinned.generation() >= last_gen,
                        "a reader's pin went backwards"
                    );
                    last_gen = pinned.generation();
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert!(checks.load(Ordering::Relaxed) > 0);
    assert_eq!(store.generation(), publications);
    assert_eq!(
        store.pin().instance().len(),
        base_len + publications as usize
    );
}
