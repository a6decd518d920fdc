//! E22 — worst-case-optimal local joins: LeapFrog TrieJoin vs the
//! binary-join backtracker under the AGM bound.
//!
//! The AGM bound says `|Q(I)| ≤ m^{ρ*}` with `ρ*` the fractional edge
//! cover number of the query hypergraph; a worst-case-optimal engine
//! evaluates in `Õ(m^{ρ*})`. Any plan built from *pairwise* joins cannot
//! be worst-case optimal for the triangle: on the classic adversarial
//! instance (three hub-and-spoke relations) every pairwise intermediate
//! has `Θ(n²)` tuples while the triangle output stays `O(1)`, so the
//! backtracker does `Θ(n²)` work where LFTJ's trie intersections finish
//! in `Õ(n)` — within the `n^{3/2} = m^{ρ*}` budget.
//!
//! The machine-checked claim is asymptotic: deterministic operation
//! counters (candidate facts for the backtracker, galloping seeks for
//! LFTJ — `parlog_relal::opcount`) fitted over doubling sizes give a
//! growth exponent ≥ 1.9 for Indexed and ≤ 1.7 for Wcoj. Exponents, not
//! raw counts, so the record is hardware-independent and `cargo test`
//! compares it with `BENCH_e22.json` byte for byte. The wall-clock gap
//! is `crates/perf`'s `relal.eval.wcoj_vs_indexed_ratio` (LFTJ ÷
//! backtracker time on the 1 024-spoke instance, a traced `join_local`
//! pass), which CI's perf-smoke job holds at ≤ 0.002.
//!
//! The record also tabulates `ρ*` (edge cover, AGM/WCOJ runtime) next to
//! `τ*` (edge packing, HyperCube load `m/p^{1/τ*}`) for the survey's
//! reference queries, machine-checked against the known values.
//!
//! Output: `JSON e22_wcoj {...}` (deterministic, last line; committed
//! as `BENCH_e22.json`).

use crate::{f3, json_record, section, Table};
use parlog::prelude::*;
use parlog::relal::eval::{eval_query_with, EvalStrategy};
use parlog::relal::opcount;
use parlog::relal::packing::{fractional_edge_cover, fractional_edge_packing};

/// Sizes `n` (spokes per hub); each relation has `2n` tuples.
const SIZES: [u64; 4] = [512, 1024, 2048, 4096];
/// Triangles planted on fresh vertices so the output is small but not
/// empty.
const PLANTED: u64 = 3;

/// The AGM lower-bound instance for the triangle, hubs α, β, γ:
/// `R = {(xᵢ,β)} ∪ {(α,yᵢ)}`, `S = {(yᵢ,γ)} ∪ {(β,zᵢ)}`,
/// `T = {(zᵢ,α)} ∪ {(γ,xᵢ)}`. Every pairwise join (e.g. `R ⋈ S` on the
/// shared variable) has `n²` tuples, yet the only triangles are the
/// `PLANTED` ones on disjoint fresh vertices.
fn adversarial_triangle(n: u64) -> Instance {
    let (alpha, beta, gamma) = (1u64, 2, 3);
    let (x0, y0, z0) = (100, 100 + n, 100 + 2 * n);
    let mut db = Instance::new();
    for i in 0..n {
        db.insert(parlog::relal::fact::fact("R", &[x0 + i, beta]));
        db.insert(parlog::relal::fact::fact("R", &[alpha, y0 + i]));
        db.insert(parlog::relal::fact::fact("S", &[y0 + i, gamma]));
        db.insert(parlog::relal::fact::fact("S", &[beta, z0 + i]));
        db.insert(parlog::relal::fact::fact("T", &[z0 + i, alpha]));
        db.insert(parlog::relal::fact::fact("T", &[gamma, x0 + i]));
    }
    let p0 = 100 + 3 * n;
    for j in 0..PLANTED {
        let (u, v, w) = (p0 + 3 * j, p0 + 3 * j + 1, p0 + 3 * j + 2);
        db.insert(parlog::relal::fact::fact("R", &[u, v]));
        db.insert(parlog::relal::fact::fact("S", &[v, w]));
        db.insert(parlog::relal::fact::fact("T", &[w, u]));
    }
    db
}

/// One evaluation's output and its deterministic op count.
fn counted(q: &ConjunctiveQuery, db: &Instance, strategy: EvalStrategy) -> (Instance, u64) {
    opcount::reset();
    let out = eval_query_with(q, db, strategy);
    (out, opcount::reset())
}

fn triangle() -> ConjunctiveQuery {
    parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
}

/// Growth exponent fitted between the smallest and largest size.
fn exponent(ops: &[(u64, u64)]) -> f64 {
    let (n0, c0) = ops.first().expect("nonempty");
    let (n1, c1) = ops.last().expect("nonempty");
    (*c1 as f64 / *c0 as f64).ln() / (*n1 as f64 / *n0 as f64).ln()
}

#[derive(serde::Serialize)]
struct SizeRecord {
    n: u64,
    m: usize,
    output_size: usize,
    /// `⌊m^{ρ*}⌋` for ρ* = 3/2 — the AGM output (and WCOJ runtime) budget.
    agm_bound: u64,
    indexed_ops: u64,
    wcoj_ops: u64,
    outputs_identical: bool,
}

#[derive(serde::Serialize)]
struct QueryExponents {
    query: String,
    shape: String,
    /// Fractional edge cover number (AGM exponent: `|Q(I)| ≤ m^{ρ*}`).
    rho_star: f64,
    /// Fractional edge packing number (HyperCube load `m/p^{1/τ*}`).
    tau_star: f64,
    /// `Auto` resolves to this strategy (Wcoj iff cyclic).
    auto_resolves_to: String,
}

/// The deterministic record, committed as `BENCH_e22.json`.
#[derive(serde::Serialize)]
pub struct E22 {
    sizes: Vec<SizeRecord>,
    indexed_exponent: f64,
    wcoj_exponent: f64,
    /// Asserted: indexed ≥ 1.9 (quadratic blowup), wcoj ≤ 1.7 (inside
    /// the `m^{3/2}` AGM budget).
    exponent_gap_checked: bool,
    queries: Vec<QueryExponents>,
}

/// The survey's reference shapes with their known LP exponents.
fn reference_queries() -> Vec<(&'static str, &'static str, f64, f64)> {
    vec![
        ("C3", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)", 1.5, 1.5),
        ("L2", "H(x,y,z) <- R(x,y), S(y,z)", 2.0, 1.0),
        ("star", "H(x,a,b,c) <- R(x,a), S(x,b), T(x,c)", 3.0, 1.0),
        (
            "C4",
            "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)",
            2.0,
            2.0,
        ),
    ]
}

/// Compute the record, printing its tables.
pub fn record() -> E22 {
    let q = triangle();

    section("E22 LFTJ vs backtracker on the AGM triangle instance");
    let mut t = Table::new(&["n", "m", "out", "AGM m^1.5", "indexed ops", "wcoj ops"]);
    let mut sizes = Vec::new();
    let mut indexed_ops = Vec::new();
    let mut wcoj_ops = Vec::new();
    for n in SIZES {
        let db = adversarial_triangle(n);
        let m = db.len();
        let (i_out, i_ops) = counted(&q, &db, EvalStrategy::Indexed);
        let (w_out, w_ops) = counted(&q, &db, EvalStrategy::Wcoj);
        let (a_out, _) = counted(&q, &db, EvalStrategy::Auto);
        let outputs_identical = i_out == w_out && w_out == a_out;
        assert!(outputs_identical, "strategies disagree at n = {n}");
        assert_eq!(w_out.len() as u64, PLANTED, "exactly the planted triangles");
        let agm_bound = (m as f64).powf(1.5) as u64;
        t.row(&[&n, &m, &w_out.len(), &agm_bound, &i_ops, &w_ops]);
        indexed_ops.push((n, i_ops));
        wcoj_ops.push((n, w_ops));
        sizes.push(SizeRecord {
            n,
            m,
            output_size: w_out.len(),
            agm_bound,
            indexed_ops: i_ops,
            wcoj_ops: w_ops,
            outputs_identical,
        });
    }
    t.print();

    let indexed_exponent = exponent(&indexed_ops);
    let wcoj_exponent = exponent(&wcoj_ops);
    println!(
        "growth exponents: indexed {} (pairwise joins: quadratic), wcoj {} (within m^1.5)",
        f3(indexed_exponent),
        f3(wcoj_exponent)
    );
    assert!(
        indexed_exponent >= 1.9,
        "indexed must blow up quadratically on the AGM instance: {indexed_exponent:.3}"
    );
    assert!(
        wcoj_exponent <= 1.7,
        "wcoj must stay inside the AGM budget: {wcoj_exponent:.3}"
    );

    section("ρ* (edge cover / AGM) vs τ* (edge packing / HyperCube load)");
    let mut qt = Table::new(&["shape", "ρ*", "τ*", "auto strategy"]);
    let mut queries = Vec::new();
    for (shape, src, want_rho, want_tau) in reference_queries() {
        let rq = parse_query(src).unwrap();
        let rho = fractional_edge_cover(&rq).unwrap().value;
        let tau = fractional_edge_packing(&rq).unwrap().value;
        assert!((rho - want_rho).abs() < 1e-6, "{shape}: ρ* = {rho}");
        assert!((tau - want_tau).abs() < 1e-6, "{shape}: τ* = {tau}");
        let auto = format!("{:?}", EvalStrategy::Auto.resolve(&rq));
        qt.row(&[&shape, &f3(rho), &f3(tau), &auto]);
        queries.push(QueryExponents {
            query: src.to_string(),
            shape: shape.to_string(),
            rho_star: rho,
            tau_star: tau,
            auto_resolves_to: auto,
        });
    }
    qt.print();

    E22 {
        sizes,
        indexed_exponent,
        wcoj_exponent,
        exponent_gap_checked: true,
        queries,
    }
}

pub fn run() {
    json_record("e22_wcoj", &record());
}
