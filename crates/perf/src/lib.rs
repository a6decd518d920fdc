//! # `parlog-perf` — the repo's wall-clock benchmark
//!
//! Four seeded closed-loop workloads ([`serve_mix`], [`view_churn`],
//! [`join_local`], [`mpc_shuffle`]) driven by one thread, measured from
//! outside the program: every call into a `parlog-*` crate goes through
//! [`api`], which is also where the spans of the traced pass are
//! recorded. See `README.md` for the command, the workload rationale and
//! the metric glossary.
//!
//! One run of one workload is: set-up (timed, repeated, median), a
//! **checked pass** over exactly one cycle of the operation stream (every
//! answer compared with an independent evaluator, exact counters
//! collected), then either the **timed pass** (tracing off; end-to-end
//! metrics) or the **traced pass** (spans and probes; per-layer metrics).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod driver;
pub mod gen;
pub mod join_local;
pub mod metrics;
pub mod mpc_shuffle;
pub mod serve_mix;
pub mod stats;
pub mod trace;
pub mod view_churn;

use std::collections::BTreeMap;
use trace::Tracer;

/// What one operation observably did. The timed pass must reproduce the
/// checked pass's outcome at the same position of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Index into the workload's `KINDS` (or `CASES`).
    pub kind: u8,
    /// How many generations the answering snapshot lagged the store
    /// (0 where the workload has no snapshots).
    pub lag: u64,
    /// Rows (or set bits) in the answer.
    pub rows: u64,
    /// `false` for a refusal, a serving error, or — in the checked pass —
    /// an answer the oracle disagrees with.
    pub ok: bool,
}

/// Exact counters, collected during the checked pass only: it runs a
/// fixed number of operations, so with a fixed seed these are
/// byte-identical from run to run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    /// Add `n` to `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    /// Raise `name` to at least `n`.
    pub fn max(&mut self, name: &'static str, n: u64) {
        let e = self.0.entry(name).or_insert(0);
        *e = (*e).max(n);
    }

    /// Overwrite `name` with a level read from the program.
    pub fn set(&mut self, name: &'static str, n: u64) {
        self.0.insert(name, n);
    }

    /// The value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// The context handed to every operation.
#[derive(Debug)]
pub struct Cx {
    /// Span recorder (off in the checked and timed passes).
    pub tracer: Tracer,
    /// Exact counters (touched only while `check` is set).
    pub counts: Counts,
    /// Checked pass: compare every answer with the oracle.
    pub check: bool,
}

impl Cx {
    /// A context with the given tracer, not checking.
    pub fn new(tracer: Tracer) -> Cx {
        Cx {
            tracer,
            counts: Counts::default(),
            check: false,
        }
    }
}

/// Input sizes: the committed benchmark, or the scaled-down spec the
/// determinism test runs in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` was measured with.
    Full,
    /// A few hundred facts per workload.
    Small,
}

/// One benchmark workload: a cyclic, seeded operation stream over state
/// built once.
pub trait Workload {
    /// Operations per cycle. The logical state at operation `i` depends
    /// only on `i % cycle_len()`.
    fn cycle_len(&self) -> u64;

    /// Run operation `i` of the stream (0, 1, 2, … without gaps).
    fn step(&mut self, i: u64, cx: &mut Cx) -> Outcome;

    /// Operations per throughput slice: a stretch of the stream whose
    /// composition repeats exactly (a publication window, one group of
    /// batches, one cycle), so that slice times are comparable and their
    /// median is a steady throughput estimate. Divides `cycle_len()`.
    fn slice_len(&self) -> u64 {
        self.cycle_len()
    }

    /// Read the cumulative counters the program itself keeps (cache hits,
    /// compactions, trie builds, rebuilds). The driver reads them before
    /// and after the checked pass and reports the growth.
    fn levels(&self, levels: &mut Counts);

    /// After the traced pass: run the workload's ratio probes and turn
    /// spans and counters into per-layer metrics (`name → value`).
    fn layer_metrics(&mut self, cx: &mut Cx) -> Vec<(String, f64)>;
}

/// The four workload names, in reporting order.
pub const WORKLOADS: [&str; 4] = ["serve_mix", "view_churn", "join_local", "mpc_shuffle"];

/// Set up workload `name` from `seed` — generate, load, register views,
/// first publish, warm tries, one warm-up of every operation kind — and
/// hand it to `f`. The state lives on this call's stack (a serving
/// session borrows its server), hence the callback. `None` for an
/// unknown name.
pub fn with_workload<R>(
    name: &str,
    seed: u64,
    size: Size,
    cx: &mut Cx,
    f: impl FnOnce(&mut dyn Workload, &mut Cx) -> R,
) -> Option<R> {
    Some(match name {
        "serve_mix" => serve_mix::run(seed, size, cx, f),
        "view_churn" => view_churn::run(seed, size, cx, f),
        "join_local" => join_local::run(seed, size, cx, f),
        "mpc_shuffle" => mpc_shuffle::run(seed, size, cx, f),
        _ => return None,
    })
}
