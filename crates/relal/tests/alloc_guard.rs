//! A clock-free guard on the evaluators' allocation profile.
//!
//! A leapfrog seek must cost a seek: once the plan is compiled and the
//! cursors are allocated, enumerating allocates nothing, so the number of
//! heap blocks one enumeration takes depends on the query, not on the
//! data. Likewise the positional index threads its rows through flat
//! arrays, so building it allocates for the maps' and arrays' growth —
//! logarithmically many blocks — not once per distinct value. A fact is a
//! fixed-size value, so storing one allocates nothing of its own. And an
//! instance shares its relation sets with its forks, so a fork allocates
//! per relation, not per fact, and a first write copies only the relation
//! it writes.
//!
//! Counted with a per-thread counting allocator, so the tests (and the
//! harness's own threads) do not see each other.

use parlog_relal::atom::Var;
use parlog_relal::eval::Indexed;
use parlog_relal::fact::{fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::parser::parse_query;
use parlog_relal::symbols::rel;
use parlog_relal::trie::{wcoj_variable_order, LeapfrogPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one block of `size` bytes against this thread.
fn count(size: usize) {
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

/// The system allocator, counting the blocks (and their bytes) each
/// thread asks for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of two
// `const`-initialised, destructor-free thread-local `Cell`s, which neither
// allocates nor unwinds (`try_with` turns a torn-down slot into a no-op).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes this thread allocated (or grew to) while `f` ran.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// E22's adversarial triangle: three hub-and-spoke relations whose
/// pairwise joins have `n²` tuples while one triangle exists.
fn hub_triangle(n: u64) -> Instance {
    let (x0, y0, z0, p) = (100, 100 + n, 100 + 2 * n, 100 + 3 * n);
    let spokes = (0..n).flat_map(|i| {
        [
            fact("R", &[x0 + i, 2]),
            fact("R", &[1, y0 + i]),
            fact("S", &[y0 + i, 3]),
            fact("S", &[2, z0 + i]),
            fact("T", &[z0 + i, 1]),
            fact("T", &[3, x0 + i]),
        ]
    });
    let planted = [
        fact("R", &[p, p + 1]),
        fact("S", &[p + 1, p + 2]),
        fact("T", &[p + 2, p]),
    ];
    Instance::from_facts(spokes.chain(planted))
}

#[test]
fn leapfrog_allocates_per_query_not_per_seek() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let order = wcoj_variable_order(&q, &[]);
    let measure = |n: u64| {
        let db = hub_triangle(n);
        let leapfrog = |sink: &mut dyn FnMut(&[_])| {
            LeapfrogPlan::new(&q, &order, 0).run(&[&db], &[], sink);
        };
        // Warm the tries: the measured enumeration builds nothing.
        leapfrog(&mut |_| {});
        parlog_relal::opcount::reset();
        let mut rows = 0;
        let ((), blocks) = blocks_during(|| leapfrog(&mut |_| rows += 1));
        assert_eq!(rows, 1, "the planted triangle");
        (blocks, parlog_relal::opcount::read())
    };
    let (small, small_ops) = measure(64);
    let (large, large_ops) = measure(512);
    assert!(
        large_ops > 6 * small_ops,
        "the work grows with n: {small_ops} → {large_ops} seeks"
    );
    assert_eq!(
        small, large,
        "blocks allocated by one enumeration, n = 64 vs n = 512"
    );
}

/// Binding resolves the tries and allocates the cursors once, so a bound
/// plan probes any number of times without allocating — here over a
/// tombstoned two-run stack, whose leaves check membership — and a warm
/// trie fetch hands out the cache's own entry.
#[test]
fn bound_probes_and_warm_trie_fetches_allocate_nothing() {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
    let order = wcoj_variable_order(&q, &[Var::new("x")]);
    let plan = LeapfrogPlan::new(&q, &order, 1);
    let mut db = hub_triangle(64);
    plan.run(&[&db], &[Val(0)], &mut |_| {});
    db.remove(&fact("R", &[100, 2]));
    db.insert(fact("R", &[292, 2]));
    let instances = [&db];
    let mut bound = plan.bind(&instances);
    let mut rows = 0;
    let ((), blocks) = blocks_during(|| {
        for x in 0..1000 {
            bound.run(&[Val(x)], &mut |_| rows += 1);
        }
    });
    assert_eq!(rows, 1, "the planted triangle, x = 292");
    assert_eq!(blocks, 0, "blocks allocated by 1000 bound probes");

    let r = rel("R");
    let (layers, blocks) = blocks_during(|| db.trie_layers(r, &[0, 1]));
    assert!(layers.has_tombstones() && layers.run_count() == 2);
    assert_eq!(blocks, 0, "blocks allocated by a warm trie fetch");
}

/// Storing a fact copies it into the relation's hash set and the delta
/// log. Both copies are inline values, so ingesting `m` routed facts
/// allocates only for the set's and the log's growth — logarithmically
/// many blocks — never one per fact.
#[test]
fn ingest_allocates_no_block_per_fact() {
    assert!(std::mem::size_of::<parlog_relal::Fact>() <= 48);
    let measure = |m: u64| {
        let routed: Vec<_> = (0..m).map(|i| fact("R", &[i, i % 97])).collect();
        let mut inst = Instance::new();
        let ((), blocks) = blocks_during(|| inst.insert_all(&routed, |_| {}));
        assert_eq!(inst.len(), m as usize);
        blocks
    };
    let (small, large) = (measure(4096), measure(32_768));
    assert!(small < 64, "{small} blocks for 4096 facts");
    assert!(
        large < 2 * small,
        "blocks grow with the fact count: {small} at m = 4096, {large} at m = 32768"
    );
}

#[test]
fn positional_index_allocates_no_block_per_value() {
    let q = parse_query("H(x,y) <- R(x,y)").unwrap();
    let m = 4096u64;
    // Every value distinct: 2m `(position, value)` keys.
    let db = Instance::from_facts((0..m).map(|i| fact("R", &[i, m + i])));
    let (index, blocks) = blocks_during(|| Indexed::build(&db, &q.body_relations()));
    assert_eq!(index.len(q.body[0].rel), m as usize);
    assert!(
        blocks < m / 8,
        "{blocks} blocks for {m} rows of distinct values"
    );
}

/// A fork shares every relation's fact set, so it allocates the same
/// blocks — in number and in bytes — at any fact count. Its first write to a relation
/// copies that relation alone — the same bytes whether or not a relation
/// eight times larger sits beside it — and a second write copies nothing.
#[test]
fn a_fork_allocates_per_relation_and_a_write_copies_its_relation() {
    let instance = |m: u64, beside: u64| {
        let r = (0..m).map(|i| fact("R", &[i, i % 97]));
        Instance::from_facts(r.chain((0..beside).map(|i| fact("S", &[i, i]))))
    };
    let fork = |m: u64| {
        let db = instance(m, m);
        let ((_, blocks), bytes) = bytes_during(|| blocks_during(|| db.clone()));
        (blocks, bytes)
    };
    let (small, large) = (fork(1024), fork(16_384));
    assert_eq!(
        small, large,
        "(blocks, bytes) per fork, m = 1024 vs m = 16384"
    );

    let m = 4096;
    let first_write = |beside: u64| {
        let db = instance(m, beside);
        let mut fork = db.clone_without_log();
        let (new, first) = bytes_during(|| fork.insert(fact("R", &[m, 0])));
        let (again, second) = bytes_during(|| fork.insert(fact("R", &[m + 1, 0])));
        assert!(new && again);
        assert_eq!(
            db.relation_len(rel("R")),
            m as usize,
            "the origin is untouched"
        );
        (first, second)
    };
    let (alone, second) = first_write(0);
    let (beside, _) = first_write(8 * m);
    let r_facts = m * std::mem::size_of::<parlog_relal::Fact>() as u64;
    assert!(
        alone >= r_facts,
        "{alone} B: the first write copies R's {m} facts"
    );
    assert_eq!(
        alone, beside,
        "bytes of R's first write, with and without S beside it"
    );
    assert!(
        second < r_facts / 8,
        "{second} B: a second write copies nothing"
    );
}
