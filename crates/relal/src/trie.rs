//! Sorted columnar tries and the LeapFrog TrieJoin evaluator.
//!
//! The survey's one-round HyperCube analysis (Section 3.1) bounds
//! *communication* by the fractional edge packing `τ*`; the *local
//! computation* each server performs afterwards is bounded — when done
//! right — by the AGM inequality `|Q(I)| ≤ m^{ρ*}` with `ρ*` the
//! fractional edge **cover** (Atserias–Grohe–Marx). Worst-case-optimal
//! join algorithms (Ngo–Porat–Ré–Rudra; Veldhuizen's LeapFrog TrieJoin)
//! run in time `Õ(m^{ρ*})`, whereas any binary-join plan is `Ω(m²)` on
//! the triangle query's hard instances even though `ρ* = 3/2`.
//!
//! This module provides the storage layer and evaluator:
//!
//! * [`TrieRel`] — one relation, stored as the sorted set of its tuples
//!   under a fixed column permutation, column-major. A trie node at depth
//!   `d` is a contiguous row range `[lo, hi)`; its children are the
//!   distinct values of column `d` within that range, found by galloping
//!   / binary-search [`TrieRel::seek_ge`]. Cached per `(relation,
//!   permutation)` as an LSM stack of immutable runs (see
//!   [`crate::lsm::TrieLayers`] and [`Instance::trie_layers`]) that is
//!   refreshed from the delta log instead of rebuilt on mutation.
//! * [`wcoj_variable_order`] — a variable-elimination order over the
//!   query hypergraph (highest atom-degree first, connectivity-greedy),
//!   optionally forced to start with a caller-supplied prefix (the
//!   Datalog semi-naive loop puts the delta atom's variables outermost).
//! * [`LeapfrogPlan`] — the LeapFrog TrieJoin itself, compiled once per
//!   query and order, bound once per instance state: per-variable leapfrog intersection across all atoms containing the variable,
//!   descending **every run** of each atom's trie stack one level per
//!   variable (a k-way merge cursor: the candidate value at a level is
//!   the leapfrogged minimum over live runs, so the LSM layering is
//!   invisible to the join). Variables are bound to **slots** — their
//!   positions in the order — and every satisfying binding vector is
//!   handed to a sink; a [`crate::eval::QueryPlan`] projects it onto the
//!   head. Tombstoned tuples lingering in old runs are filtered at the leaves, where atoms
//!   are fully ground and instance membership is authoritative. Negated
//!   atoms are checked at the leaves, inequalities as soon as both
//!   endpoints are bound — exactly the contract of the backtracking
//!   evaluator in [`crate::eval`], so the two agree fact-for-fact.

use crate::atom::{Term, Var};
use crate::fact::{Args, Fact, Val};
use crate::instance::Instance;
use crate::query::ConjunctiveQuery;
use crate::shard::Relations;
use crate::symbols::RelId;
use std::sync::Arc;

/// A relation stored as a sorted columnar trie for one column permutation.
///
/// Column `d` holds the depth-`d` value of every tuple in sorted order;
/// tuples are deduplicated, so for binary `R` under the identity
/// permutation the rows are exactly the sorted distinct pairs of `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieRel {
    /// `perm[d]` = the fact argument position stored at trie depth `d`.
    pub perm: Vec<usize>,
    /// Column-major tuple storage in one allocation: column `d` is
    /// `vals[d·rows..][..rows]`, aligned by row index.
    vals: Vec<Val>,
    /// Number of stored (distinct, permuted) tuples.
    rows: usize,
}

impl TrieRel {
    /// Build the trie of `rel`'s facts in `instance` under `perm`. Facts
    /// whose arity differs from `perm.len()` cannot match the atom the
    /// permutation came from and are skipped.
    pub fn build(instance: &Instance, rel: crate::symbols::RelId, perm: &[usize]) -> TrieRel {
        let mut flat = Vec::with_capacity(instance.relation_len(rel) * perm.len());
        let mut rows = 0;
        for f in instance.relation(rel) {
            if f.args.len() == perm.len() {
                flat.extend(perm.iter().map(|&p| f.args[p]));
                rows += 1;
            }
        }
        TrieRel::from_rows(perm.to_vec(), &flat, rows)
    }

    /// Build a trie run from `rows` already-permuted tuples laid out
    /// row-major in `flat` (stride `perm.len()`), in any order and with
    /// duplicates allowed: [`TrieRel::from_row_buffer`] on a copy — no
    /// allocation per tuple.
    pub fn from_rows(perm: Vec<usize>, flat: &[Val], rows: usize) -> TrieRel {
        TrieRel::from_row_buffer(perm, &mut flat.to_vec(), rows)
    }

    /// Sort and deduplicate like [`TrieRel::from_rows`], at any width
    /// (including 0, where every row is the one empty tuple), and hand
    /// `first` the index in `flat` of each distinct row's first copy, in
    /// sorted order — what a server that charges a delivery by its first
    /// arrival needs.
    pub(crate) fn from_rows_first(
        perm: Vec<usize>,
        flat: &[Val],
        rows: usize,
        mut first: impl FnMut(usize),
    ) -> TrieRel {
        let k = perm.len();
        assert_eq!(flat.len(), rows * k, "row-major, one stride");
        let row = |i: usize| &flat[i * k..(i + 1) * k];
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)).then(a.cmp(&b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        order.iter().for_each(|&i| first(i));
        let mut vals = Vec::with_capacity(k * order.len());
        (0..k).for_each(|d| vals.extend(order.iter().map(|&i| flat[i * k + d])));
        TrieRel {
            perm,
            vals,
            rows: order.len(),
        }
    }

    /// Build a trie run from a row-major buffer the caller gives up. When
    /// a row's values fit one `u64` side by side (each column as wide as
    /// its largest value), each row is packed into one word in place and
    /// the words are sorted and deduplicated in place, so the scatter into
    /// the columns is the only copy. Otherwise pairs are sorted as arrays
    /// and other widths sort row indices over the buffer.
    pub fn from_row_buffer(perm: Vec<usize>, flat: &mut Vec<Val>, rows: usize) -> TrieRel {
        let k = perm.len();
        assert_eq!(flat.len(), rows * k, "row-major, one stride");
        let (vals, rows) = match (packing(flat, k), k) {
            (Some(widths), _) => packed_columns(flat, rows, &widths[..k]),
            (None, 2) => sorted_columns::<2>(flat),
            _ => return TrieRel::from_rows_first(perm, flat, rows, |_| {}),
        };
        TrieRel { perm, vals, rows }
    }

    /// Number of stored tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of trie levels (the arity of the permutation).
    pub fn depth(&self) -> usize {
        self.perm.len()
    }

    /// Column `d`, sorted within every depth-`d` trie node.
    #[inline]
    fn col(&self, d: usize) -> &[Val] {
        &self.vals[d * self.rows..][..self.rows]
    }

    /// The value at `(depth, row)`.
    #[inline]
    pub fn value(&self, depth: usize, row: usize) -> Val {
        self.col(depth)[row]
    }

    /// Append the (permuted) tuple at `row` to `out` — the LSM
    /// compactor's input when merging runs off-thread.
    pub fn push_row(&self, row: usize, out: &mut Vec<Val>) {
        out.extend((0..self.depth()).map(|d| self.value(d, row)));
    }

    /// First row in `[lo, hi)` whose depth-`d` value is `≥ v`, or `hi`.
    ///
    /// Gallops from `lo` (the leapfrog cursor advances in small steps far
    /// more often than it jumps), then binary-searches the bracketed run —
    /// `O(log gap)` rather than `O(log (hi−lo))`.
    pub fn seek_ge(&self, d: usize, lo: usize, hi: usize, v: Val) -> usize {
        gallop(self.col(d), lo, hi, |x| x >= v)
    }

    /// First row in `[lo, hi)` whose depth-`d` value is `> v`, or `hi` —
    /// i.e. the end of `v`'s run starting at `lo`.
    pub fn seek_gt(&self, d: usize, lo: usize, hi: usize, v: Val) -> usize {
        gallop(self.col(d), lo, hi, |x| x > v)
    }

    /// Narrow `[lo, hi)` at depth `d` to the rows whose value equals `v`
    /// (possibly empty).
    pub fn descend(&self, d: usize, lo: usize, hi: usize, v: Val) -> (usize, usize) {
        let start = self.seek_ge(d, lo, hi, v);
        if start == hi || self.value(d, start) != v {
            return (start, start);
        }
        (start, self.seek_gt(d, start, hi, v))
    }
}

/// The bit width of each of the `k` columns of `flat` when the widths
/// add up to at most 64 — a row then packs into one word whose order is
/// the row order; `None` when they do not, or `k` is 0 or above 8.
fn packing(flat: &[Val], k: usize) -> Option<[u32; 8]> {
    if !(1..=8).contains(&k) {
        return None;
    }
    let mut any = [0u64; 8];
    for row in flat.chunks_exact(k) {
        any.iter_mut().zip(row).for_each(|(a, v)| *a |= v.0);
    }
    let widths = any.map(|a| u64::BITS - a.leading_zeros());
    (widths.iter().sum::<u32>() <= u64::BITS).then_some(widths)
}

/// Pack each `widths.len()`-wide row of `flat` into one word, in place
/// (row `i`'s word goes to slot `i`, which no unread row holds), sort and
/// dedup the words, and unpack the distinct rows column-major.
fn packed_columns(flat: &mut Vec<Val>, rows: usize, widths: &[u32]) -> (Vec<Val>, usize) {
    let k = widths.len();
    for i in 0..rows {
        let row = widths.iter().zip(&flat[i * k..(i + 1) * k]);
        flat[i] = Val(row.fold(0u128, |w, (&b, v)| w << b | v.0 as u128) as u64);
    }
    flat.truncate(rows);
    flat.sort_unstable();
    flat.dedup();
    let mut vals = Vec::with_capacity(k * flat.len());
    let mut shift: u32 = widths.iter().sum();
    for &b in widths {
        shift -= b;
        let mask = (1u128 << b) - 1;
        let column = flat
            .iter()
            .map(|w| Val((w.0 as u128 >> shift & mask) as u64));
        vals.extend(column);
    }
    (vals, flat.len())
}

/// Sort and dedup the `N`-wide rows of `flat` as arrays (compared in
/// place, no indirection) and scatter them column-major.
fn sorted_columns<const N: usize>(flat: &[Val]) -> (Vec<Val>, usize) {
    let mut rows: Vec<[Val; N]> = flat
        .chunks_exact(N)
        .map(|r| r.try_into().expect("chunk is N wide"))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let mut vals = Vec::with_capacity(N * rows.len());
    (0..N).for_each(|d| vals.extend(rows.iter().map(|r| r[d])));
    (vals, rows.len())
}

/// First index `i` in `[lo, hi)` with `pred(col[i])`, or `hi` — `pred`
/// must be monotone over the sorted column. Exponential probe from `lo`
/// followed by a binary search of the bracketed run: `O(log gap)`.
fn gallop(col: &[Val], lo: usize, hi: usize, pred: impl Fn(Val) -> bool) -> usize {
    crate::opcount::bump();
    if lo >= hi || pred(col[lo]) {
        return lo;
    }
    let mut step = 1usize;
    let mut prev = lo; // invariant: !pred(col[prev])
    let bracket = loop {
        let probe = match prev.checked_add(step) {
            Some(p) if p < hi => p,
            _ => break hi,
        };
        if pred(col[probe]) {
            break probe + 1;
        }
        prev = probe;
        step <<= 1;
    };
    // Binary search (prev, bracket): first index satisfying pred.
    prev + 1 + col[prev + 1..bracket].partition_point(|&x| !pred(x))
}

/// A variable-elimination order for LeapFrog TrieJoin, derived from the
/// query hypergraph: variables of `prefix` first (in the given order, for
/// delta-outermost Datalog evaluation), then greedily the remaining
/// variable with (a) the most atoms already "touched" by placed variables
/// and (b) the highest atom degree — keeping the intersection levels busy
/// and the search space connected. Constants play no role (they are
/// descended before any variable level).
pub fn wcoj_variable_order(q: &ConjunctiveQuery, prefix: &[Var]) -> Vec<Var> {
    let all = q.body_variables();
    let mut order: Vec<Var> = prefix.iter().filter(|v| all.contains(v)).cloned().collect();
    let atom_vars: Vec<Vec<Var>> = q.body.iter().map(|a| a.variables()).collect();
    while order.len() < all.len() {
        let best = all
            .iter()
            .filter(|v| !order.contains(v))
            .max_by_key(|v| {
                let touched = atom_vars
                    .iter()
                    .filter(|av| av.contains(v) && av.iter().any(|w| order.contains(w)))
                    .count();
                let degree = atom_vars.iter().filter(|av| av.contains(v)).count();
                // Ties broken by *reverse* first-occurrence position so
                // `max_by_key` (which keeps the last max) settles on the
                // earliest variable — deterministic across runs.
                let pos = all.iter().position(|w| w == *v).unwrap();
                (touched, degree, usize::MAX - pos)
            })
            .cloned()
            .expect("unplaced variable exists");
        order.push(best);
    }
    order
}

/// A query term resolved against the variable order: a constant, or the
/// slot of its variable (its index in `order`, and in the binding vector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// A constant.
    Const(Val),
    /// The variable at this index of the order.
    Var(usize),
}

impl Slot {
    /// Resolve `t` against `order`; every variable must be in it.
    pub fn of(t: &Term, order: &[Var]) -> Slot {
        match t {
            Term::Const(c) => Slot::Const(*c),
            Term::Var(v) => Slot::Var(
                order
                    .iter()
                    .position(|w| w == v)
                    .expect("safe query: every variable occurs in the positive body"),
            ),
        }
    }

    /// The slot's value under the binding vector `vals`.
    #[inline]
    pub fn value(self, vals: &[Val]) -> Val {
        match self {
            Slot::Const(c) => c,
            Slot::Var(oi) => vals[oi],
        }
    }
}

/// One positive body atom, compiled against the order: its trie's column
/// permutation — fixed columns (constants and parameters) first by
/// position, then variables by their place in the order, a repeated
/// variable's columns adjacent — and the fixed columns' values, descended
/// on entry.
#[derive(Debug)]
struct AtomPlan {
    rel: RelId,
    terms: Vec<Slot>,
    cols: Vec<usize>,
    fixed: Vec<Slot>,
}

/// A LeapFrog TrieJoin plan, **compiled** once ([`LeapfrogPlan::new`]):
/// variable → slot, each atom's trie permutation and variable segments,
/// the inequalities decidable at each level, the negated atoms' leaf
/// probes. It is **bound** to an instance state ([`LeapfrogPlan::bind`]:
/// each atom's runs and the cursors) and **run** once per parameter
/// vector ([`BoundPlan::run`]). Its valuations are exactly those of
/// [`crate::eval::satisfying_valuations`]; on a single-run, tombstone-free
/// stack its seeks are the classic single-trie LFTJ's.
///
/// The first `params` variables of the order are **parameters**: bound by
/// the caller on every run and descended like constants, never
/// enumerated. That is the shape of an occurrence probe in view
/// maintenance, where a changed fact binds some of a rule's variables and
/// the rest of the body is the residual to enumerate; planning it once
/// per occurrence, not once per changed fact, is what the parameters are
/// for. A run with parameter values `p` makes exactly the seeks of the
/// parameter-free plan of the query with `p` substituted for them, once
/// the inequalities that makes ground are decided (here: on entry).
#[derive(Debug)]
pub struct LeapfrogPlan {
    params: usize,
    width: usize,
    atoms: Vec<AtomPlan>,
    /// One `(atom, level, first depth, end depth)` per variable of each
    /// atom, in body order.
    segments: Vec<(usize, usize, usize, usize)>,
    negated: Vec<(RelId, Vec<Slot>)>,
    /// Per level, the inequalities decidable once its variable binds.
    ineqs: Vec<Vec<(Slot, Slot)>>,
    /// Inequalities between parameters and constants, decided on entry
    /// (a false constant–constant pair ends every run before a seek).
    entry_ineqs: Vec<(Slot, Slot)>,
}

impl LeapfrogPlan {
    /// Compile `q`'s body for enumeration in `order`, whose first `params`
    /// variables are parameters. Every body variable must be in `order`,
    /// and every variable after the parameters in the body.
    pub fn new(q: &ConjunctiveQuery, order: &[Var], params: usize) -> LeapfrogPlan {
        debug_assert!(
            {
                let body = q.body_variables();
                let mut o: Vec<&Var> = order.iter().collect();
                o.sort();
                o.dedup();
                o.len() == order.len()
                    && order[params..].iter().all(|v| body.contains(v))
                    && body.iter().all(|v| order.contains(v))
            },
            "order must cover the body variables exactly once"
        );
        let mut segments = Vec::new();
        let atoms = q
            .body
            .iter()
            .enumerate()
            .map(|(ai, atom)| {
                let terms: Vec<Slot> = atom.terms.iter().map(|t| Slot::of(t, order)).collect();
                let mut cols: Vec<usize> = (0..terms.len()).collect();
                cols.sort_by_key(|&j| match terms[j] {
                    Slot::Var(oi) if oi >= params => (1 + oi, j),
                    _ => (0, j),
                });
                let mut fixed = Vec::new();
                let mut d = 0;
                while d < cols.len() {
                    match terms[cols[d]] {
                        Slot::Var(oi) if oi >= params => {
                            let first = d;
                            while d < cols.len() && terms[cols[d]] == Slot::Var(oi) {
                                d += 1;
                            }
                            segments.push((ai, oi, first, d));
                        }
                        s => {
                            fixed.push(s);
                            d += 1;
                        }
                    }
                }
                AtomPlan {
                    rel: atom.rel,
                    terms,
                    cols,
                    fixed,
                }
            })
            .collect();
        let negated = q
            .negated
            .iter()
            .map(|a| (a.rel, a.terms.iter().map(|t| Slot::of(t, order)).collect()))
            .collect();
        let mut ineqs = vec![Vec::new(); order.len()];
        let mut entry_ineqs = Vec::new();
        for (s, t) in &q.inequalities {
            // Decidable at the deeper of its endpoints' levels; between
            // parameters and constants only, on entry.
            let pair = (Slot::of(s, order), Slot::of(t, order));
            let level = |s: Slot| match s {
                Slot::Const(_) => None,
                Slot::Var(oi) => Some(oi),
            };
            match level(pair.0).max(level(pair.1)) {
                Some(l) if l >= params => ineqs[l].push(pair),
                _ => entry_ineqs.push(pair),
            }
        }
        LeapfrogPlan {
            params,
            width: order.len(),
            atoms,
            segments,
            negated,
            ineqs,
            entry_ineqs,
        }
    }

    /// Enumerate the plan over the union of `instances` with the
    /// parameters bound to `params`, handing every satisfying binding
    /// vector (indexed like the order, parameters first) to `sink`: a bind
    /// and one run, unless an inequality decided on entry fails first.
    pub fn run<S: Relations + ?Sized>(
        &self,
        instances: &[&S],
        params: &[Val],
        sink: &mut dyn FnMut(&[Val]),
    ) {
        if self.entry_holds(params) {
            self.bind(instances).run(params, sink);
        }
    }

    /// Do the inequalities decided on entry hold under `params`?
    fn entry_holds(&self, params: &[Val]) -> bool {
        debug_assert_eq!(params.len(), self.params, "one value per parameter");
        let differ = |(s, t): &(Slot, Slot)| s.value(params) != t.value(params);
        self.entry_ineqs.iter().all(differ)
    }

    /// Every positive atom's relation and the column order its trie runs
    /// must have — what a reader holding only some orders builds first.
    pub fn orders(&self) -> impl Iterator<Item = (RelId, &[usize])> {
        self.atoms.iter().map(|a| (a.rel, &a.cols[..]))
    }

    /// Bind the plan to `instances` for any number of runs.
    ///
    /// The first instance is the database; any further one is an
    /// **overlay** read as extra LSM runs of the relations it holds — the
    /// k-way merge cursor already treats a tuple repeated across runs as
    /// one — and leaf membership (tombstones, negation) is decided against
    /// the union. Every atom's trie runs, the per-level cursors and the
    /// leaf probes are resolved and allocated here, once; the instances
    /// stay borrowed, so no run of the bound plan can see them change.
    /// The readers are monomorphized: no seek and no leaf probe goes
    /// through a virtual call.
    pub fn bind<'a, S: Relations + ?Sized>(&'a self, instances: &'a [&'a S]) -> BoundPlan<'a, S> {
        // Sized for two runs per atom, the steady state under a compactor.
        let depths: usize = self.atoms.iter().map(|a| a.cols.len() + 1).sum();
        let mut plan = Plan {
            instances,
            runs: Vec::with_capacity(2 * self.atoms.len()),
            levels: (0..self.width).map(|_| Vec::new()).collect(),
            ineqs: &self.ineqs,
        };
        let mut cur = Cursors {
            ranges: Vec::with_capacity(2 * depths),
            slots: Vec::with_capacity(2 * self.segments.len()),
            vals: vec![Val(0); self.width],
            probes: Vec::new(),
        };
        let mut atom_runs = Vec::with_capacity(self.atoms.len());
        for atom in &self.atoms {
            let first_run = plan.runs.len();
            let mut tombstoned = false;
            for (k, instance) in instances.iter().enumerate() {
                if k > 0 && instance.relation_len(atom.rel) == 0 {
                    continue;
                }
                tombstoned |= instance.trie_runs(atom.rel, &atom.cols, |trie| {
                    let base = cur.ranges.len();
                    cur.ranges.resize(base + atom.cols.len() + 1, (0, 0));
                    cur.ranges[base] = (0, trie.rows());
                    plan.runs.push(Run {
                        trie: Arc::clone(trie),
                        base,
                    });
                });
            }
            if tombstoned {
                cur.probes.push(Probe::new(atom.rel, &atom.terms, true));
            }
            atom_runs.push(first_run..plan.runs.len());
        }
        for &(ai, oi, first, end) in &self.segments {
            let runs = atom_runs[ai].clone();
            let slots = cur.slots.len();
            cur.slots.resize(slots + runs.len(), (0, 0));
            plan.levels[oi].push(Part {
                runs,
                first,
                end,
                slots,
            });
        }
        for (rel, terms) in &self.negated {
            cur.probes.push(Probe::new(*rel, terms, false));
        }
        BoundPlan {
            plan: self,
            atom_runs,
            tries: plan,
            cur,
        }
    }
}

/// A [`LeapfrogPlan`] bound to its instances ([`LeapfrogPlan::bind`]):
/// each [`BoundPlan::run`] only binds the parameters, descends the fixed
/// columns and enumerates, taking no lock and allocating nothing.
pub struct BoundPlan<'a, S: ?Sized = Instance> {
    plan: &'a LeapfrogPlan,
    /// Per body atom, its runs in `tries.runs`.
    atom_runs: Vec<std::ops::Range<usize>>,
    tries: Plan<'a, S>,
    cur: Cursors<'a>,
}

impl<S: Relations + ?Sized> BoundPlan<'_, S> {
    /// [`LeapfrogPlan::run`] on the bound instances: the same bindings,
    /// in the same order, with the same seeks.
    pub fn run(&mut self, params: &[Val], sink: &mut dyn FnMut(&[Val])) {
        let plan = self.plan;
        if !plan.entry_holds(params) {
            return;
        }
        let cur = &mut self.cur;
        cur.vals[..plan.params].copy_from_slice(params);
        // Descend every fixed column up front, in every run; an atom whose
        // runs are all empty proves the query unsatisfiable on this
        // instance (tombstones only ever shrink the answer further).
        for (atom, runs) in plan.atoms.iter().zip(&self.atom_runs) {
            let mut alive = false;
            for run in &self.tries.runs[runs.clone()] {
                let mut range = cur.ranges[run.base];
                for (d, s) in atom.fixed.iter().enumerate() {
                    range = run.trie.descend(d, range.0, range.1, s.value(&cur.vals));
                    cur.ranges[run.base + d + 1] = range;
                }
                alive |= range.0 < range.1;
            }
            if !alive {
                return;
            }
        }
        intersect(&self.tries, cur, plan.params, sink);
    }
}

/// One immutable run of a body atom's LSM trie stack. The row range the
/// run has been narrowed to *before* trie depth `d` lives at
/// `Cursors::ranges[base + d]` (entry `depth` is the leaf range); an
/// empty range stays empty below, so every run stays depth-aligned.
struct Run {
    trie: Arc<TrieRel>,
    base: usize,
}

/// A body atom at the level of one of its variables: its runs (oldest
/// first — the k-way merge cursor), the adjacent trie depths
/// `first..end` the variable occupies (more than one when it repeats
/// inside the atom) and where its per-run `(pos, hi)` cursors for this
/// level start in `Cursors::slots`.
struct Part {
    runs: std::ops::Range<usize>,
    first: usize,
    end: usize,
    slots: usize,
}

/// An atom probed against the instances at the leaves, where it is
/// ground: a body atom whose layers carry tombstones must be present (a
/// dead tuple may linger in an old run), a negated atom absent. One
/// scratch fact is refilled for every probe.
struct Probe<'a> {
    terms: &'a [Slot],
    fact: Fact,
    present: bool,
}

impl<'a> Probe<'a> {
    fn new(rel: RelId, terms: &'a [Slot], present: bool) -> Probe<'a> {
        Probe {
            terms,
            fact: Fact::new(rel, terms.iter().map(|_| Val(0)).collect::<Args>()),
            present,
        }
    }

    fn holds<S: Relations + ?Sized>(&mut self, vals: &[Val], instances: &[&S]) -> bool {
        for (arg, t) in self.fact.args.iter_mut().zip(self.terms) {
            *arg = t.value(vals);
        }
        instances.iter().any(|i| i.contains(&self.fact)) == self.present
    }
}

/// The instance-bound side of a plan: the trie runs of every atom and,
/// per variable level, the atoms containing the variable in body order.
struct Plan<'a, S: ?Sized> {
    instances: &'a [&'a S],
    runs: Vec<Run>,
    levels: Vec<Vec<Part>>,
    ineqs: &'a [Vec<(Slot, Slot)>],
}

/// Everything the enumeration writes, allocated at bind.
struct Cursors<'a> {
    ranges: Vec<(usize, usize)>,
    slots: Vec<(usize, usize)>,
    /// The binding vector, indexed like the variable order.
    vals: Vec<Val>,
    probes: Vec<Probe<'a>>,
}

/// Minimum depth-`d` value over the live runs of one participant (a run
/// is live while its slot has `pos < hi`). Must only be called with at
/// least one live slot.
#[inline]
fn min_live(runs: &[Run], slots: &[(usize, usize)], d: usize) -> Val {
    let live = runs.iter().zip(slots).filter(|(_, s)| s.0 < s.1);
    live.map(|(run, s)| run.trie.value(d, s.0))
        .min()
        .unwrap_or(Val(u64::MAX))
}

/// One leapfrog level: intersect the candidate values of every atom
/// containing `order[oi]` — taking each atom's value as the minimum over
/// its live runs — and for each common value descend all of its columns
/// in every run of every participating atom, recursing to the next level.
fn intersect<S: Relations + ?Sized>(
    plan: &Plan<S>,
    cur: &mut Cursors,
    oi: usize,
    sink: &mut dyn FnMut(&[Val]),
) {
    let Some(parts) = plan.levels.get(oi) else {
        // Leaf: every positive atom fully descended and non-empty in some
        // run; inequalities were checked on the way down.
        let vals = &cur.vals;
        if cur.probes.iter_mut().all(|p| p.holds(vals, plan.instances)) {
            sink(vals);
        }
        return;
    };
    debug_assert!(!parts.is_empty(), "safety: every variable is in an atom");
    // Per participant, per run: the (pos, hi) cursor within the run's
    // current range at this level. A run with `pos == hi` is exhausted
    // (or was already empty at this subtree) and is skipped.
    for part in parts {
        let mut alive = false;
        for (run, slot) in plan.runs[part.runs.clone()]
            .iter()
            .zip(&mut cur.slots[part.slots..])
        {
            *slot = cur.ranges[run.base + part.first];
            alive |= slot.0 < slot.1;
        }
        if !alive {
            return;
        }
    }
    loop {
        // The leapfrog: raise every run of every participant to the
        // current maximum value until all participants' minima agree (a
        // candidate) or one participant runs off every run's range.
        let mut max = Val(0);
        for part in parts {
            let runs = &plan.runs[part.runs.clone()];
            max = max.max(min_live(runs, &cur.slots[part.slots..], part.first));
        }
        loop {
            let mut all_equal = true;
            for part in parts {
                let runs = &plan.runs[part.runs.clone()];
                let slots = &mut cur.slots[part.slots..][..runs.len()];
                let mut any_live = false;
                for (run, slot) in runs.iter().zip(slots.iter_mut()) {
                    if slot.0 < slot.1 && run.trie.value(part.first, slot.0) < max {
                        slot.0 = run.trie.seek_ge(part.first, slot.0, slot.1, max);
                    }
                    any_live |= slot.0 < slot.1;
                }
                if !any_live {
                    return;
                }
                let v = min_live(runs, slots, part.first);
                if v > max {
                    max = v;
                    all_equal = false;
                }
            }
            if all_equal {
                break;
            }
        }
        let x = max;

        // Candidate value x: descend every column of this variable in
        // every run of every participant (repeated columns must also
        // equal x). Runs positioned past x get depth-aligned empty
        // ranges; the atom survives if any run still has rows.
        let ok = parts.iter().all(|part| {
            let mut atom_alive = false;
            for (run, &(p, h)) in plan.runs[part.runs.clone()]
                .iter()
                .zip(&cur.slots[part.slots..])
            {
                let mut range = if p < h && run.trie.value(part.first, p) == x {
                    (p, run.trie.seek_gt(part.first, p, h, x))
                } else {
                    (p, p)
                };
                cur.ranges[run.base + part.first + 1] = range;
                for d in part.first + 1..part.end {
                    range = if range.0 < range.1 {
                        run.trie.descend(d, range.0, range.1, x)
                    } else {
                        (range.0, range.0)
                    };
                    cur.ranges[run.base + d + 1] = range;
                }
                atom_alive |= range.0 < range.1;
            }
            atom_alive
        });
        if ok {
            cur.vals[oi] = x;
            let differ = |(s, t): &(Slot, Slot)| s.value(&cur.vals) != t.value(&cur.vals);
            if plan.ineqs[oi].iter().all(differ) {
                intersect(plan, cur, oi + 1, sink);
            }
        }

        // Advance every run positioned at x past x's run; a participant
        // with no live runs left ends the level.
        for part in parts {
            let mut any_live = false;
            for (run, slot) in plan.runs[part.runs.clone()]
                .iter()
                .zip(&mut cur.slots[part.slots..])
            {
                if slot.0 < slot.1 && run.trie.value(part.first, slot.0) == x {
                    slot.0 = run.trie.seek_gt(part.first, slot.0, slot.1, x);
                }
                any_live |= slot.0 < slot.1;
            }
            if !any_live {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::eval::{eval_query, eval_query_naive, eval_query_with, EvalStrategy};
    use crate::fact::fact;
    use crate::parser::parse_query;
    use crate::symbols::rel;
    use crate::valuation::Valuation;

    fn eval_query_wcoj(q: &ConjunctiveQuery, instance: &Instance) -> Instance {
        eval_query_with(q, instance, EvalStrategy::Wcoj)
    }

    /// Compile `q` for `order` and run it on `instance`.
    fn leapfrog(
        q: &ConjunctiveQuery,
        instance: &Instance,
        order: &[Var],
        sink: &mut dyn FnMut(&[Val]),
    ) {
        LeapfrogPlan::new(q, order, 0).run(&[instance], &[], sink);
    }

    /// [`leapfrog`] projected onto the head, one fact per valuation.
    fn wcoj_heads(q: &ConjunctiveQuery, instance: &Instance, order: &[Var]) -> Vec<Fact> {
        let head: Vec<Slot> = q.head.terms.iter().map(|t| Slot::of(t, order)).collect();
        let mut out = Vec::new();
        leapfrog(q, instance, order, &mut |vals| {
            out.push(Fact::new(
                q.head.rel,
                head.iter().map(|s| s.value(vals)).collect::<Args>(),
            ))
        });
        out
    }

    /// [`leapfrog`] collected as [`Valuation`]s.
    fn satisfying_valuations_wcoj_ordered(
        q: &ConjunctiveQuery,
        instance: &Instance,
        order: &[Var],
    ) -> Vec<Valuation> {
        let mut out = Vec::new();
        leapfrog(q, instance, order, &mut |vals| {
            out.push(order.iter().cloned().zip(vals.iter().copied()).collect());
        });
        out
    }

    impl TrieRel {
        /// The stored (permuted) tuples in sorted row order.
        pub(crate) fn tuples(&self) -> impl Iterator<Item = Vec<Val>> + '_ {
            (0..self.rows).map(move |r| (0..self.depth()).map(|d| self.value(d, r)).collect())
        }
    }

    fn db_triangle() -> Instance {
        Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[4, 5]),
            fact("S", &[2, 3]),
            fact("S", &[5, 6]),
            fact("T", &[3, 1]),
        ])
    }

    #[test]
    fn trie_layout_is_sorted_and_deduped() {
        let i = Instance::from_facts([
            fact("R", &[3, 1]),
            fact("R", &[1, 2]),
            fact("R", &[1, 1]),
            fact("R", &[3, 1]),
        ]);
        let t = TrieRel::build(&i, rel("R"), &[0, 1]);
        assert_eq!(t.rows(), 3);
        assert_eq!(
            (0..3)
                .map(|r| (t.value(0, r), t.value(1, r)))
                .collect::<Vec<_>>(),
            vec![(Val(1), Val(1)), (Val(1), Val(2)), (Val(3), Val(1))]
        );
        // Reversed permutation sorts by the second argument first.
        let rt = TrieRel::build(&i, rel("R"), &[1, 0]);
        assert_eq!(rt.value(0, 0), Val(1));
        assert_eq!(rt.value(1, 0), Val(1));
        assert_eq!(rt.value(0, 2), Val(2));
    }

    /// The build as it was before the flat one: one heap `Vec<Val>` per
    /// tuple, sorted and deduplicated as a `Vec<Vec<Val>>`, then copied
    /// into the columns. Kept as the reference for the flat build.
    fn build_by_tuple_vectors(
        instance: &Instance,
        rel: crate::symbols::RelId,
        perm: &[usize],
    ) -> TrieRel {
        let mut tuples: Vec<Vec<Val>> = instance
            .relation(rel)
            .filter(|f| f.args.len() == perm.len())
            .map(|f| perm.iter().map(|&p| f.args[p]).collect())
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        let rows = tuples.len();
        let vals = (0..perm.len()).flat_map(|d| tuples.iter().map(move |t| t[d]));
        TrieRel {
            perm: perm.to_vec(),
            vals: vals.collect(),
            rows,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The flat build equals the tuple-vector build, column for
        /// column, on relations of arity 0 to 4 with repeated values and
        /// with facts of other arities mixed in (skipped by both).
        #[test]
        fn flat_build_matches_tuple_vector_build(
            arity in 0..5usize,
            rows in proptest::prop::collection::vec(
                (0..4u64, 0..3u64, 0..4u64, 0..2u64, 0..6usize), 0..40),
            rotate in 0..4usize,
        ) {
            let mut db = Instance::new();
            for (a, b, c, d, width) in rows {
                // Most facts have the relation's arity; some are wider
                // or narrower and must be ignored.
                let width = if width == 5 { (arity + 1) % 5 } else { arity };
                let args: Vec<Val> = [a, b, c, d][..width].iter().map(|&v| Val(v)).collect();
                db.insert(Fact::new(rel("M"), args));
            }
            let mut perm: Vec<usize> = (0..arity).collect();
            perm.rotate_left(rotate % arity.max(1));
            let flat = TrieRel::build(&db, rel("M"), &perm);
            let reference = build_by_tuple_vectors(&db, rel("M"), &perm);
            proptest::prop_assert_eq!(flat.rows(), reference.rows());
            proptest::prop_assert_eq!(&flat.perm, &reference.perm);
            proptest::prop_assert_eq!(&flat.vals, &reference.vals);
        }
    }

    /// `from_rows` takes unsorted rows with duplicates — what an LSM
    /// merge of overlapping runs hands it.
    #[test]
    fn from_rows_sorts_and_dedups() {
        let flat: Vec<Val> = [3, 1, 1, 2, 3, 1, 1, 1].iter().map(|&v| Val(v)).collect();
        let t = TrieRel::from_rows(vec![0, 1], &flat, 4);
        let rows: Vec<Vec<Val>> = t.tuples().collect();
        assert_eq!(
            rows,
            vec![
                vec![Val(1), Val(1)],
                vec![Val(1), Val(2)],
                vec![Val(3), Val(1)]
            ]
        );
        // Arity 0: any number of empty tuples is the one empty tuple.
        assert_eq!(TrieRel::from_rows(vec![], &[], 3).rows(), 1);
        assert_eq!(TrieRel::from_rows(vec![], &[], 0).rows(), 0);
    }

    proptest::proptest! {
        /// A buffer sorted in place holds the sorted distinct rows, at
        /// widths 0 to 6, packed into words (small values) or not (values
        /// of 23 or 43 bits make rows too wide for one word).
        #[test]
        fn row_buffers_hold_the_sorted_distinct_rows(
            k in 0..7usize,
            rows in proptest::prop::collection::vec(proptest::prop::collection::vec(0..6u64, 6..7), 0..40),
            wide in 0..3u32,
        ) {
            let row = |r: &Vec<u64>| r[..k].iter().map(|&v| Val(v << (20 * wide))).collect::<Vec<_>>();
            let want: std::collections::BTreeSet<Vec<Val>> = rows.iter().map(row).collect();
            let mut flat: Vec<Val> = rows.iter().flat_map(row).collect();
            let got = TrieRel::from_row_buffer((0..k).collect(), &mut flat, rows.len());
            proptest::prop_assert_eq!(got.rows(), want.len());
            proptest::prop_assert_eq!(got.tuples().collect::<Vec<_>>(), want.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn seek_gallops_to_the_right_row() {
        let i = Instance::from_facts((0..100u64).map(|k| fact("R", &[2 * k, k])));
        let t = TrieRel::build(&i, rel("R"), &[0, 1]);
        assert_eq!(t.seek_ge(0, 0, 100, Val(0)), 0);
        assert_eq!(t.seek_ge(0, 0, 100, Val(1)), 1); // first ≥1 is 2 at row 1
        assert_eq!(t.seek_ge(0, 0, 100, Val(50)), 25);
        assert_eq!(t.seek_ge(0, 0, 100, Val(51)), 26);
        assert_eq!(t.seek_ge(0, 0, 100, Val(1000)), 100);
        assert_eq!(t.seek_ge(0, 97, 100, Val(198)), 99);
        let (lo, hi) = t.descend(0, 0, 100, Val(120));
        assert_eq!((lo, hi), (60, 61));
        let (lo, hi) = t.descend(0, 0, 100, Val(121));
        assert_eq!(lo, hi);
    }

    #[test]
    fn variable_order_prefers_high_degree_and_respects_prefix() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let o = wcoj_variable_order(&q, &[]);
        assert_eq!(o.len(), 3);
        let q2 = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), U(y,w)").unwrap();
        let o2 = wcoj_variable_order(&q2, &[]);
        assert_eq!(o2[0], Var::new("y")); // degree 3 beats everything
        let o3 = wcoj_variable_order(&q2, &[Var::new("w")]);
        assert_eq!(o3[0], Var::new("w"));
        assert_eq!(o3[1], Var::new("y"));
    }

    #[test]
    fn triangle_query_matches_backtracking() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = db_triangle();
        assert_eq!(eval_query_wcoj(&q, &db), eval_query(&q, &db));
        assert_eq!(
            eval_query_wcoj(&q, &db).sorted_facts(),
            vec![fact("H", &[1, 2, 3])]
        );
    }

    #[test]
    fn self_join_with_repeated_vars_matches() {
        let q = parse_query("H(x,z) <- R(x,y), R(y,z), R(x,x)").unwrap();
        let i = Instance::from_facts([fact("R", &[1, 1]), fact("R", &[1, 2])]);
        assert_eq!(eval_query_wcoj(&q, &i), eval_query(&q, &i));
        assert_eq!(eval_query_wcoj(&q, &i).len(), 2);
    }

    #[test]
    fn repeated_variable_inside_one_atom() {
        let q = parse_query("H(x,y) <- R(x,x,y)").unwrap();
        let i = Instance::from_facts([
            Fact::new(rel("R"), vec![Val(1), Val(1), Val(5)]),
            Fact::new(rel("R"), vec![Val(1), Val(2), Val(6)]),
            Fact::new(rel("R"), vec![Val(2), Val(2), Val(7)]),
        ]);
        let out = eval_query_wcoj(&q, &i);
        assert_eq!(out, eval_query(&q, &i));
        assert_eq!(out.len(), 2);
    }
    use crate::fact::Fact;

    #[test]
    fn constants_descend_before_variables() {
        let q = parse_query("H(x) <- R(1, x), S(x, 2)").unwrap();
        let i = Instance::from_facts([
            fact("R", &[1, 7]),
            fact("R", &[1, 8]),
            fact("R", &[2, 8]),
            fact("S", &[7, 2]),
            fact("S", &[8, 3]),
        ]);
        let out = eval_query_wcoj(&q, &i);
        assert_eq!(out, eval_query(&q, &i));
        assert_eq!(out.sorted_facts(), vec![fact("H", &[7])]);
    }

    #[test]
    fn negation_and_inequalities_match_backtracking() {
        let q = parse_query("H(x,y,z) <- E(x,y), E(y,z), not E(z,x), x != z").unwrap();
        let i = Instance::from_facts([
            fact("E", &[1, 2]),
            fact("E", &[2, 3]),
            fact("E", &[3, 1]),
            fact("E", &[2, 4]),
        ]);
        assert_eq!(eval_query_wcoj(&q, &i), eval_query(&q, &i));
    }

    #[test]
    fn boolean_and_empty_cases() {
        let q = parse_query("H() <- R(x,x)").unwrap();
        let yes = Instance::from_facts([fact("R", &[3, 3])]);
        let no = Instance::from_facts([fact("R", &[3, 4])]);
        assert_eq!(eval_query_wcoj(&q, &yes).len(), 1);
        assert_eq!(eval_query_wcoj(&q, &no).len(), 0);
        assert!(eval_query_wcoj(&q, &Instance::new()).is_empty());
    }

    #[test]
    fn ground_query_no_variables() {
        let q = parse_query("H() <- R(1, 2)").unwrap();
        let yes = Instance::from_facts([fact("R", &[1, 2])]);
        let no = Instance::from_facts([fact("R", &[2, 1])]);
        assert_eq!(eval_query_wcoj(&q, &yes).len(), 1);
        assert!(eval_query_wcoj(&q, &no).is_empty());
    }

    #[test]
    fn agrees_with_naive_on_survey_example() {
        use crate::fact::fact_syms;
        let q = parse_query("H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1)").unwrap();
        let ie = Instance::from_facts([
            fact_syms("R", &["a", "b"]),
            fact_syms("R", &["b", "a"]),
            fact_syms("R", &["b", "c"]),
            fact_syms("S", &["a", "a"]),
            fact_syms("S", &["c", "a"]),
        ]);
        assert_eq!(eval_query_wcoj(&q, &ie), eval_query_naive(&q, &ie));
    }

    #[test]
    fn four_cycle_matches() {
        let q = parse_query("H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)").unwrap();
        let mut i = Instance::new();
        for k in 0..6u64 {
            i.insert(fact("R", &[k, k + 1]));
            i.insert(fact("S", &[k + 1, k + 2]));
            i.insert(fact("T", &[k + 2, k + 3]));
            i.insert(fact("U", &[k + 3, k]));
        }
        i.insert(fact("U", &[9, 9]));
        assert_eq!(eval_query_wcoj(&q, &i), eval_query(&q, &i));
    }

    /// The k-way merge cursor: query answers over a multi-run,
    /// tombstoned LSM stack are identical to a freshly built instance.
    #[test]
    fn layered_tries_answer_like_fresh_instances() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), not T(z,x), x != z").unwrap();
        let mut db = db_triangle();
        // Warm the cache, then mutate so the entries accumulate tail runs
        // and tombstones (no compaction for small deltas).
        let _ = eval_query_wcoj(&q, &db);
        db.insert(fact("R", &[7, 2]));
        db.insert(fact("S", &[2, 9]));
        db.remove(&fact("R", &[1, 2]));
        db.insert(fact("T", &[9, 7]));
        let layered = eval_query_wcoj(&q, &db);
        let fresh_db = Instance::from_facts(db.iter().cloned());
        assert_eq!(layered, eval_query_wcoj(&q, &fresh_db));
        assert_eq!(layered, eval_query(&q, &db));
        // The stack really was layered when we asked.
        assert!(db.trie_layers(rel("R"), &[0, 1]).run_count() >= 1);
    }

    /// Tombstoned tuples lingering in old runs are invisible: a deleted
    /// fact stops matching even though its run still stores it.
    #[test]
    fn tombstones_hide_deleted_tuples_without_rebuild() {
        let q = parse_query("H(x,y) <- R(x,y)").unwrap();
        let mut db = Instance::from_facts([
            fact("R", &[1, 2]),
            fact("R", &[3, 4]),
            fact("R", &[5, 6]),
            fact("R", &[7, 8]),
        ]);
        let _ = eval_query_wcoj(&q, &db);
        let builds = db.trie_builds();
        db.remove(&fact("R", &[3, 4]));
        let out = eval_query_wcoj(&q, &db);
        assert_eq!(
            out.sorted_facts(),
            vec![fact("H", &[1, 2]), fact("H", &[5, 6]), fact("H", &[7, 8])]
        );
        // Served from the tombstoned layer, not a rebuild.
        assert_eq!(db.trie_builds(), builds);
        assert!(db.trie_layers(rel("R"), &[0, 1]).has_tombstones());
    }

    /// Differential check across a random-ish mutation schedule: WCOJ
    /// over the evolving LSM stack tracks the backtracking evaluator.
    #[test]
    fn evolving_instance_stays_consistent_with_backtracker() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let mut db = db_triangle();
        let mut k = 0u64;
        for step in 0..40u64 {
            // Deterministic mixed workload: mostly inserts, some deletes.
            let v = (step * 7 + 3) % 11;
            if step % 5 == 4 {
                let f = fact("R", &[v, (v + 1) % 11]);
                db.remove(&f);
            } else {
                let relname = ["R", "S", "T"][(step % 3) as usize];
                db.insert(fact(relname, &[v, (v + 1) % 11]));
                k += 1;
            }
            assert_eq!(eval_query_wcoj(&q, &db), eval_query(&q, &db), "step {step}");
        }
        assert!(k > 0);
    }

    /// The engine this module had before the slot-bound core: a
    /// `Valuation` bound and unbound per candidate value, fresh cursor
    /// vectors per level entered. Kept as the reference the core is
    /// tested against — same bindings, same order, same seeks.
    mod model {
        use super::super::*;
        use crate::eval::inequalities_ok_so_far;
        use crate::valuation::Valuation;

        /// One immutable run of an atom's LSM trie stack, with the stack of row
        /// ranges descended so far (one entry per trie level; empty ranges are
        /// padded so every run's stack stays depth-aligned).
        struct RunCursor {
            trie: Arc<TrieRel>,
            ranges: Vec<(usize, usize)>,
        }

        /// The per-atom state of the LeapFrog TrieJoin: every run of its layered
        /// trie, descended in lockstep — the k-way merge cursor.
        struct AtomCursor {
            /// The runs of the atom's [`crate::lsm::TrieLayers`], oldest first.
            runs: Vec<RunCursor>,
            /// `levels[l]` = the variable-order index of the variable at trie
            /// depth `l`, or `None` for a constant column (descended at init).
            levels: Vec<Option<usize>>,
            /// Constant columns, as `(depth, value)` in depth order.
            consts: Vec<(usize, Val)>,
            /// The layers carried tombstones: verify ground facts at the leaves
            /// (old runs may still contain deleted tuples).
            live_check: bool,
        }

        /// All trie depths bound to variable-order index `oi` in `levels`
        /// (repeated variables occupy several adjacent depths).
        fn depths_of(levels: &[Option<usize>], oi: usize) -> std::ops::Range<usize> {
            let start = levels.iter().position(|l| *l == Some(oi));
            match start {
                None => 0..0,
                Some(s) => {
                    let mut e = s;
                    while e < levels.len() && levels[e] == Some(oi) {
                        e += 1;
                    }
                    s..e
                }
            }
        }

        /// Minimum depth-`d` value over the live runs of one participant
        /// (`slots[r] = (pos, hi)`; a run is live while `pos < hi`). Must only be
        /// called with at least one live slot.
        fn min_live(cur: &AtomCursor, slots: &[(usize, usize)], d: usize) -> Val {
            let mut m = Val(u64::MAX);
            for (r, &(p, h)) in slots.iter().enumerate() {
                if p < h {
                    let v = cur.runs[r].trie.value(d, p);
                    if v < m {
                        m = v;
                    }
                }
            }
            m
        }

        /// The satisfying valuations of `q` on `instance`, visiting variables
        /// in `order`.
        pub(super) fn valuations(
            q: &ConjunctiveQuery,
            instance: &Instance,
            order: &[Var],
        ) -> Vec<Valuation> {
            debug_assert_eq!(
                {
                    let mut o: Vec<&Var> = order.iter().collect();
                    o.sort();
                    o.dedup();
                    o.len()
                },
                q.body_variables().len(),
                "order must cover the body variables exactly once"
            );
            // A false constant–constant inequality: nothing, before any seek.
            if !inequalities_ok_so_far(q, &Valuation::new()) {
                return Vec::new();
            }
            let mut cursors: Vec<AtomCursor> = Vec::with_capacity(q.body.len());
            for atom in &q.body {
                // Column permutation: constants first (by position), then
                // variables by their place in the global order; equal keys (a
                // repeated variable) stay in position order, making its columns
                // adjacent trie depths.
                let mut cols: Vec<usize> = (0..atom.terms.len()).collect();
                let key = |j: usize| match &atom.terms[j] {
                    Term::Const(_) => (0usize, j),
                    Term::Var(v) => (
                        1 + order.iter().position(|w| w == v).expect("var in order"),
                        j,
                    ),
                };
                cols.sort_by_key(|&j| key(j));
                let layers = instance.trie_layers(atom.rel, &cols);
                let mut levels = Vec::with_capacity(cols.len());
                let mut consts = Vec::new();
                for (d, &j) in cols.iter().enumerate() {
                    match &atom.terms[j] {
                        Term::Const(c) => {
                            levels.push(None);
                            consts.push((d, *c));
                        }
                        Term::Var(v) => {
                            levels.push(Some(order.iter().position(|w| w == v).unwrap()));
                        }
                    }
                }
                let runs = layers
                    .runs()
                    .iter()
                    .map(|t| RunCursor {
                        ranges: vec![(0, t.rows())],
                        trie: Arc::clone(t),
                    })
                    .collect();
                cursors.push(AtomCursor {
                    runs,
                    levels,
                    consts,
                    live_check: layers.has_tombstones(),
                });
            }

            // Descend every constant column up front, in every run; an atom whose
            // runs are all empty proves the query unsatisfiable on this instance
            // (tombstones only ever shrink the answer further).
            for cur in &mut cursors {
                let mut alive = false;
                for rc in &mut cur.runs {
                    let mut range = rc.ranges[0];
                    for &(d, v) in &cur.consts {
                        range = rc.trie.descend(d, range.0, range.1, v);
                        rc.ranges.push(range);
                    }
                    if range.0 < range.1 {
                        alive = true;
                    }
                }
                if !alive {
                    return Vec::new();
                }
            }

            // Atoms participating at each variable level, and pure membership
            // checks (repeated-variable-only atoms never participate — they are
            // fully descended once all their variables are bound).
            let participants: Vec<Vec<usize>> = (0..order.len())
                .map(|oi| {
                    (0..cursors.len())
                        .filter(|&k| !depths_of(&cursors[k].levels, oi).is_empty())
                        .collect()
                })
                .collect();

            let mut out = Vec::new();
            let mut val = Valuation::new();
            lftj(
                q,
                instance,
                order,
                &participants,
                &mut cursors,
                0,
                &mut val,
                &mut out,
            );
            out
        }

        /// One leapfrog level: intersect the candidate values of every atom
        /// containing `order[oi]` — taking each atom's value as the minimum over
        /// its live runs — and for each common value descend all of its columns
        /// in every run of every participating atom, recursing to the next level.
        #[allow(clippy::too_many_arguments)]
        fn lftj(
            q: &ConjunctiveQuery,
            instance: &Instance,
            order: &[Var],
            participants: &[Vec<usize>],
            cursors: &mut [AtomCursor],
            oi: usize,
            val: &mut Valuation,
            out: &mut Vec<Valuation>,
        ) {
            if oi == order.len() {
                // Leaf: every positive atom fully descended and non-empty in some
                // run. Atoms whose layers carry tombstones verify the ground fact
                // against the instance (a dead tuple may linger in an old run);
                // then check negation (inequalities were checked incrementally).
                for (k, cur) in cursors.iter().enumerate() {
                    if cur.live_check {
                        match val.apply(&q.body[k]) {
                            Some(f) if instance.contains(&f) => {}
                            _ => return,
                        }
                    }
                }
                for a in &q.negated {
                    match val.apply(a) {
                        Some(f) if !instance.contains(&f) => {}
                        _ => return,
                    }
                }
                out.push(val.clone());
                return;
            }
            let parts = &participants[oi];
            debug_assert!(!parts.is_empty(), "safety: every variable is in an atom");

            // First column of this variable per participant; extra (repeated)
            // columns are descended only on a candidate match.
            let firsts: Vec<usize> = parts
                .iter()
                .map(|&k| depths_of(&cursors[k].levels, oi).start)
                .collect();
            // Per participant, per run: the (pos, hi) cursor within the run's
            // current range at this level. A run with `pos == hi` is exhausted
            // (or was already empty at this subtree) and is skipped.
            let mut slots: Vec<Vec<(usize, usize)>> = Vec::with_capacity(parts.len());
            for (i, &k) in parts.iter().enumerate() {
                let mut s = Vec::with_capacity(cursors[k].runs.len());
                let mut alive = false;
                for rc in &cursors[k].runs {
                    let &(lo, hi) = rc.ranges.last().unwrap();
                    debug_assert_eq!(rc.ranges.len() - 1, firsts[i]);
                    if lo < hi {
                        alive = true;
                    }
                    s.push((lo, hi));
                }
                if !alive {
                    return;
                }
                slots.push(s);
            }

            'leapfrog: loop {
                // The leapfrog: raise every run of every participant to the
                // current maximum value until all participants' minima agree (a
                // candidate) or one participant runs off every run's range.
                let mut max = Val(0);
                for (i, &k) in parts.iter().enumerate() {
                    let v = min_live(&cursors[k], &slots[i], firsts[i]);
                    if v > max {
                        max = v;
                    }
                }
                loop {
                    let mut all_equal = true;
                    for (i, &k) in parts.iter().enumerate() {
                        let d = firsts[i];
                        let cur = &cursors[k];
                        let mut any_live = false;
                        for (r, slot) in slots[i].iter_mut().enumerate() {
                            if slot.0 < slot.1 && cur.runs[r].trie.value(d, slot.0) < max {
                                slot.0 = cur.runs[r].trie.seek_ge(d, slot.0, slot.1, max);
                            }
                            if slot.0 < slot.1 {
                                any_live = true;
                            }
                        }
                        if !any_live {
                            return;
                        }
                        let v = min_live(cur, &slots[i], d);
                        if v > max {
                            max = v;
                            all_equal = false;
                        }
                    }
                    if all_equal {
                        break;
                    }
                }
                let x = max;

                // Candidate value x: descend every column of this variable in
                // every run of every participant (repeated columns must also
                // equal x). Runs positioned past x get depth-aligned empty
                // ranges; the atom survives if any run still has rows.
                let mut ok = true;
                let mut pushed: Vec<(usize, usize)> = Vec::with_capacity(parts.len());
                for (i, &k) in parts.iter().enumerate() {
                    let cur = &mut cursors[k];
                    let depths = depths_of(&cur.levels, oi);
                    let mut atom_alive = false;
                    for (r, &(p, h)) in slots[i].iter().enumerate() {
                        let rc = &mut cur.runs[r];
                        let mut range = if p < h && rc.trie.value(depths.start, p) == x {
                            (p, rc.trie.seek_gt(depths.start, p, h, x))
                        } else {
                            (p, p)
                        };
                        rc.ranges.push(range);
                        for d in depths.start + 1..depths.end {
                            if range.0 < range.1 {
                                range = rc.trie.descend(d, range.0, range.1, x);
                            } else {
                                range = (range.0, range.0);
                            }
                            rc.ranges.push(range);
                        }
                        if range.0 < range.1 {
                            atom_alive = true;
                        }
                    }
                    pushed.push((k, depths.len()));
                    if !atom_alive {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    val.bind(order[oi].clone(), x);
                    if inequalities_ok_so_far(q, val) {
                        lftj(q, instance, order, participants, cursors, oi + 1, val, out);
                    }
                    val.unbind(&order[oi]);
                }
                for &(k, n) in &pushed {
                    for rc in &mut cursors[k].runs {
                        for _ in 0..n {
                            rc.ranges.pop();
                        }
                    }
                }

                // Advance every run positioned at x past x's run; a participant
                // with no live runs left ends the level.
                for (i, &k) in parts.iter().enumerate() {
                    let cur = &cursors[k];
                    let d = firsts[i];
                    let mut any_live = false;
                    for (r, slot) in slots[i].iter_mut().enumerate() {
                        if slot.0 < slot.1 && cur.runs[r].trie.value(d, slot.0) == x {
                            slot.0 = cur.runs[r].trie.seek_gt(d, slot.0, slot.1, x);
                        }
                        if slot.0 < slot.1 {
                            any_live = true;
                        }
                    }
                    if !any_live {
                        break 'leapfrog;
                    }
                }
            }
        }
    }

    mod core_vs_model {
        use super::*;
        use crate::opcount;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const RELS: [(&str, usize); 5] = [("R", 2), ("S", 2), ("T", 3), ("U", 1), ("Z", 0)];
        const DOM: u64 = 4;

        fn random_fact(rng: &mut StdRng, (name, arity): (&str, usize)) -> Fact {
            let args: Vec<u64> = (0..arity).map(|_| rng.gen_range(0..DOM)).collect();
            fact(name, &args)
        }

        /// A variable of `vars` three times out of four, else a constant
        /// (always a constant when there is no variable to pick).
        fn random_term(rng: &mut StdRng, vars: &[Var]) -> Term {
            if vars.is_empty() || rng.gen_range(0..4) == 0 {
                Term::val(rng.gen_range(0..DOM))
            } else {
                Term::Var(vars[rng.gen_range(0..vars.len())].clone())
            }
        }

        /// A safe random `CQ¬`/`CQ≠`: one to four body atoms over a pool
        /// of four variables (so self-joins and a variable repeated inside
        /// one atom are common), constants anywhere, at most one negated
        /// atom, up to two var–var / var–const / const–const
        /// inequalities, and a head of zero to three terms (Boolean,
        /// ground and repeated-variable heads included).
        fn random_query(rng: &mut StdRng) -> ConjunctiveQuery {
            let pool: Vec<Var> = ["x", "y", "z", "w"].into_iter().map(Var::new).collect();
            let atom = |rng: &mut StdRng, vars: &[Var]| {
                let (name, arity) = RELS[rng.gen_range(0..RELS.len())];
                Atom::new(
                    rel(name),
                    (0..arity).map(|_| random_term(rng, vars)).collect(),
                )
            };
            let body: Vec<Atom> = (0..rng.gen_range(1..5)).map(|_| atom(rng, &pool)).collect();
            let mut bound: Vec<Var> = body.iter().flat_map(|a| a.variables()).collect();
            bound.sort();
            bound.dedup();
            let negated = (0..rng.gen_range(0..2))
                .map(|_| atom(rng, &bound))
                .collect();
            let inequalities = (0..rng.gen_range(0..3))
                .map(|_| (random_term(rng, &bound), random_term(rng, &bound)))
                .collect();
            let head = (0..rng.gen_range(0..4))
                .map(|_| random_term(rng, &bound))
                .collect();
            ConjunctiveQuery::with_extras(Atom::new(rel("H"), head), body, negated, inequalities)
                .expect("safe by construction")
        }

        /// The binding vectors `engine` enumerates, in order, and the
        /// seeks it made.
        fn counted(engine: impl FnOnce() -> Vec<Vec<Val>>) -> (Vec<Vec<Val>>, u64) {
            opcount::reset();
            let rows = engine();
            (rows, opcount::read())
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(256))]

            /// The slot-bound core against the valuation-based engine it
            /// replaced, on trie stacks that grow runs and tombstones
            /// between evaluations: the same bindings in the same order,
            /// the same head facts and valuations through the two
            /// projections, and **the same number of seeks**.
            #[test]
            fn core_matches_the_valuation_engine(seed in 0..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let q = random_query(&mut rng);
                // A random order prefix, as the semi-naive loop supplies.
                let mut prefix = q.body_variables();
                for i in (1..prefix.len()).rev() {
                    prefix.swap(i, rng.gen_range(0..i + 1));
                }
                prefix.truncate(rng.gen_range(0..prefix.len() + 1));
                let order = wcoj_variable_order(&q, &prefix);

                // Every relation starts with eight distinct facts, so the
                // single mutations below never trip a compaction by
                // themselves (tombstones stay under half the rows).
                let mut db = Instance::new();
                for r in RELS {
                    while db.relation_len(rel(r.0)) < 8.min(DOM.pow(r.1 as u32) as usize) {
                        db.insert(random_fact(&mut rng, r));
                    }
                }
                let first = RELS.iter().find(|r| rel(r.0) == q.body[0].rel).unwrap();
                // A false constant–constant inequality ends every run
                // before a trie is read, so no stack ever grows a run.
                let reads_tries = crate::eval::inequalities_ok_so_far(&q, &Valuation::new());
                for step in 0..6 {
                    let old = counted(|| {
                        model::valuations(&q, &db, &order)
                            .iter()
                            .map(|v| order.iter().map(|x| v.get(x).unwrap()).collect())
                            .collect()
                    });
                    let new = counted(|| {
                        let mut rows = Vec::new();
                        leapfrog(&q, &db, &order, &mut |vals| rows.push(vals.to_vec()));
                        rows
                    });
                    proptest::prop_assert_eq!(&new, &old, "step {} of {}", step, q);
                    if step == 1 && first.1 > 1 && reads_tries {
                        // The first atom's stack really was layered: one
                        // new run, at most four tombstones on nine rows.
                        proptest::prop_assert!(!db.compaction_candidates().is_empty());
                    }
                    let heads = wcoj_heads(&q, &db, &order);
                    let valuations = satisfying_valuations_wcoj_ordered(&q, &db, &order);
                    proptest::prop_assert_eq!(&valuations, &model::valuations(&q, &db, &order));
                    let derived: Vec<Fact> = valuations.iter().map(|v| v.derived_fact(&q)).collect();
                    proptest::prop_assert_eq!(heads, derived);

                    // Grow a run and a tombstone under the first atom,
                    // and churn the other relations at random.
                    let gone = db.relation(q.body[0].rel).next().cloned();
                    gone.iter().for_each(|f| { db.remove(f); });
                    while !db.insert(random_fact(&mut rng, *first)) && first.1 > 1 {}
                    for _ in 0..rng.gen_range(0..4) {
                        let r = RELS[rng.gen_range(0..RELS.len())];
                        let f = random_fact(&mut rng, r);
                        if rng.gen_range(0..3) == 0 {
                            db.remove(&f);
                        } else {
                            db.insert(f);
                        }
                    }
                }
            }

            /// A parameterised plan against the parameter-free plan of the
            /// query with the parameter values substituted (and the
            /// inequalities that makes ground decided first, as view
            /// maintenance always did): the same bindings after the
            /// parameters, in the same order, and the same seeks.
            #[test]
            fn parameters_run_like_substituted_constants(seed in 0..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let q = random_query(&mut rng);
                let mut prefix = q.body_variables();
                for i in (1..prefix.len()).rev() {
                    prefix.swap(i, rng.gen_range(0..i + 1));
                }
                let order = wcoj_variable_order(&q, &prefix);
                let k = rng.gen_range(0..order.len() + 1);
                let params: Vec<Val> = (0..k).map(|_| Val(rng.gen_range(0..DOM))).collect();
                let mut db = Instance::new();
                for r in RELS {
                    for _ in 0..8 {
                        db.insert(random_fact(&mut rng, r));
                    }
                }
                // A second run and a tombstone under every relation.
                let _ = eval_query_wcoj(&q, &db);
                for r in RELS {
                    let gone = db.relation(rel(r.0)).next().cloned();
                    gone.iter().for_each(|f| { db.remove(f); });
                    db.insert(random_fact(&mut rng, r));
                }

                let subst = |t: &Term| match t {
                    Term::Var(v) => order[..k]
                        .iter()
                        .position(|w| w == v)
                        .map_or_else(|| t.clone(), |i| Term::Const(params[i])),
                    Term::Const(_) => t.clone(),
                };
                let atom = |a: &Atom| Atom::new(a.rel, a.terms.iter().map(subst).collect());
                let bound = |t: &Term| matches!(t, Term::Var(v) if order[..k].contains(v));
                let mut decided = true;
                let mut inequalities = Vec::new();
                for (s, t) in &q.inequalities {
                    let (s2, t2) = (subst(s), subst(t));
                    match (s2.as_const(), t2.as_const()) {
                        (Some(a), Some(b)) if bound(s) || bound(t) => decided &= a != b,
                        _ => inequalities.push((s2, t2)),
                    }
                }
                let substituted = ConjunctiveQuery {
                    head: q.head.clone(),
                    body: q.body.iter().map(atom).collect(),
                    negated: q.negated.iter().map(atom).collect(),
                    inequalities,
                };
                let want = counted(|| {
                    let mut rows = Vec::new();
                    if decided {
                        leapfrog(&substituted, &db, &order[k..], &mut |vals| rows.push(vals.to_vec()));
                    }
                    rows
                });
                let plan = LeapfrogPlan::new(&q, &order, k);
                let got = counted(|| {
                    let mut rows = Vec::new();
                    plan.run(&[&db], &params, &mut |vals| {
                        assert_eq!(&vals[..k], &params[..]);
                        rows.push(vals[k..].to_vec());
                    });
                    rows
                });
                proptest::prop_assert_eq!(got, want, "{} with {} parameters", q, k);
            }

            /// One plan bound once and run with fresh random parameters
            /// against as many unbound runs, over tombstoned multi-run
            /// stacks and an overlay instance: the same bindings, in the
            /// same order, with the same seeks.
            #[test]
            fn a_bound_plan_runs_like_fresh_runs(seed in 0..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let q = random_query(&mut rng);
                let mut prefix = q.body_variables();
                for i in (1..prefix.len()).rev() {
                    prefix.swap(i, rng.gen_range(0..i + 1));
                }
                let order = wcoj_variable_order(&q, &prefix);
                let k = rng.gen_range(0..order.len() + 1);
                let mut db = Instance::new();
                for r in RELS {
                    for _ in 0..8 {
                        db.insert(random_fact(&mut rng, r));
                    }
                }
                // A second run and a tombstone under every relation.
                let _ = eval_query_wcoj(&q, &db);
                for r in RELS {
                    let gone = db.relation(rel(r.0)).next().cloned();
                    gone.iter().for_each(|f| { db.remove(f); });
                    db.insert(random_fact(&mut rng, r));
                }
                let overlay: Vec<Fact> = (0..4)
                    .map(|_| {
                        let r = RELS[rng.gen_range(0..RELS.len())];
                        random_fact(&mut rng, r)
                    })
                    .collect();
                let overlay = Instance::from_facts(overlay);
                let instances = [&db, &overlay];
                let plan = LeapfrogPlan::new(&q, &order, k);
                let mut bound = plan.bind(&instances);
                for run in 0..4 {
                    let params: Vec<Val> = (0..k).map(|_| Val(rng.gen_range(0..DOM))).collect();
                    let fresh = counted(|| {
                        let mut rows = Vec::new();
                        plan.run(&instances, &params, &mut |vals| rows.push(vals.to_vec()));
                        rows
                    });
                    let reused = counted(|| {
                        let mut rows = Vec::new();
                        bound.run(&params, &mut |vals| rows.push(vals.to_vec()));
                        rows
                    });
                    proptest::prop_assert_eq!(reused, fresh, "run {} of {} with {:?}", run, q, params);
                }
            }
        }
    }
}
