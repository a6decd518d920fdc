//! A clock-free guard on a communication round's allocation profile.
//!
//! A round appends each routed row to its destination's buffer for the
//! row's relation, and routes write destinations into one reused buffer,
//! so routing allocates for the buffers' growth — a number of blocks set
//! by the servers and relations, not by the facts. Routing four times the
//! facts may take a few more blocks for that growth, never one per fact.
//!
//! Counted with a per-thread counting allocator on sequential clusters,
//! so every block a round takes is the calling thread's.

use parlog_mpc::cluster::Cluster;
use parlog_mpc::hypercube::HypercubeAlgorithm;
use parlog_mpc::partition::{route_by_key, seed_cluster, HashPartitioner, InitialPartition};
use parlog_relal::fact::fact;
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::symbols::rel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the blocks each thread asks for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// `const`-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds (`try_with` turns a torn-down slot into a no-op).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks this thread allocated (or grew) while `f` ran.
fn blocks_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// `m` facts of each of `R`, `S`, `T` over a domain of `m` values.
fn triangle_db(m: u64) -> Instance {
    let rels = ["R", "S", "T"].into_iter().enumerate();
    Instance::from_facts(
        rels.flat_map(|(k, r)| (0..m).map(move |i| fact(r, &[i, (i * 7 + k as u64 * 13) % m]))),
    )
}

#[test]
fn a_hypercube_round_allocates_per_buffer_not_per_fact() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
    let measure = |m: u64| {
        let db = triangle_db(m);
        db.trie_layers(rel("R"), &[0, 1]);
        let mut cluster = Cluster::new(hc.servers());
        let (report, blocks) = blocks_during(|| hc.run_on(&mut cluster, &db));
        assert_eq!(report.stats.total_comm, 3 * 3 * m as usize);
        blocks
    };
    let (small, large) = (measure(2000), measure(8000));
    assert!(
        large < small + 500,
        "{small} blocks at m = 2000, {large} at m = 8000"
    );
}

#[test]
fn a_key_round_allocates_per_buffer_not_per_fact() {
    let measure = |m: u64| {
        let mut cluster = Cluster::new(16);
        let db = Instance::from_facts((0..m).map(|i| fact("R", &[i % 97, i])));
        seed_cluster(&mut cluster, &db, InitialPartition::RoundRobin);
        let routes = [(rel("R"), vec![0], HashPartitioner::new(5, 16))];
        let (stats, blocks) = blocks_during(|| route_by_key(&mut cluster, &routes).clone());
        assert_eq!(stats.total_comm, m as usize);
        blocks
    };
    let (small, large) = (measure(4000), measure(16_000));
    assert!(
        large < small + 100,
        "{small} blocks at m = 4000, {large} at m = 16000"
    );
}
