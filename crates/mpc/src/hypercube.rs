//! The HyperCube distribution and one-round evaluation (Example 3.2,
//! Beame–Koutris–Suciu).
//!
//! Servers are identified with points of the grid
//! `[0,α₁) × … × [0,αₖ)` (one axis per query variable, `αᵢ` the shares).
//! A fact matching a body atom is sent to every server whose coordinates
//! agree with the hashes of the values the atom binds; the unbound axes
//! range over their whole extent (that's the replication). The algorithm
//! is correct because for every valuation `V` the facts `V(body_Q)` all
//! meet at the server with coordinates `(h₁(V(x₁)), …, hₖ(V(xₖ)))` —
//! the HyperCube distribution **strongly saturates** every CQ
//! (Section 4.1).

use crate::cluster::{Cluster, Fate};
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use crate::report::RunReport;
use crate::shares::Shares;
use parlog_relal::atom::{Atom, Term};
use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::{Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::simplex::LpError;
use parlog_relal::symbols::RelId;

/// How one body atom routes a fact, compiled once per algorithm: what a
/// fact must satisfy to match the atom, and which of its positions binds
/// each share axis.
#[derive(Debug, Clone)]
struct AtomRoute {
    rel: RelId,
    arity: usize,
    /// Positions holding a constant, with the constant.
    consts: Vec<(usize, Val)>,
    /// Positions repeating a variable, with the variable's first position.
    repeats: Vec<(usize, usize)>,
    /// Per share axis, the first position of the axis's variable — `None`
    /// for an axis the atom leaves free.
    axes: Vec<Option<usize>>,
}

impl AtomRoute {
    fn compile(atom: &Atom, vars: &[String]) -> AtomRoute {
        let first = |name: &str| {
            atom.terms
                .iter()
                .position(|t| matches!(t, Term::Var(v) if v.0 == name))
        };
        let (mut consts, mut repeats) = (Vec::new(), Vec::new());
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(c) => consts.push((i, *c)),
                Term::Var(v) => match first(&v.0) {
                    Some(j) if j < i => repeats.push((i, j)),
                    _ => {}
                },
            }
        }
        AtomRoute {
            rel: atom.rel,
            arity: atom.arity(),
            consts,
            repeats,
            axes: vars.iter().map(|name| first(name)).collect(),
        }
    }

    /// [`Atom::matches`], without comparing a variable name.
    fn matches(&self, f: &Fact) -> bool {
        f.rel == self.rel
            && f.args.len() == self.arity
            && self.consts.iter().all(|&(i, c)| f.args[i] == c)
            && self.repeats.iter().all(|&(i, j)| f.args[i] == f.args[j])
    }
}

/// The one-round HyperCube algorithm for a conjunctive query.
#[derive(Debug, Clone)]
pub struct HypercubeAlgorithm {
    query: ConjunctiveQuery,
    shares: Shares,
    /// Per-variable hash functions `h_c` (independent via distinct seeds).
    hashers: Vec<HashPartitioner>,
    /// Per share axis, the weight of one coordinate in a flat server id
    /// (the product of the later shares, as in `Shares::flatten`).
    strides: Vec<usize>,
    /// Per body atom, its compiled route.
    routes: Vec<AtomRoute>,
}

impl HypercubeAlgorithm {
    /// Build with optimal shares for `p` servers.
    pub fn new(q: &ConjunctiveQuery, p: usize) -> Result<HypercubeAlgorithm, LpError> {
        let shares = Shares::optimal(q, p)?;
        Ok(HypercubeAlgorithm::with_shares(q, shares, 0x9c0_ffee))
    }

    /// Build with explicit shares and hash seed.
    pub fn with_shares(q: &ConjunctiveQuery, shares: Shares, seed: u64) -> HypercubeAlgorithm {
        let hashers = shares
            .shares
            .iter()
            .enumerate()
            .map(|(i, &s)| HashPartitioner::new(seed.wrapping_add(i as u64 * 0x9e37), s))
            .collect();
        let mut strides = vec![1; shares.shares.len()];
        for i in (1..strides.len()).rev() {
            strides[i - 1] = strides[i] * shares.shares[i];
        }
        let routes = q
            .body
            .iter()
            .map(|a| AtomRoute::compile(a, &shares.vars))
            .collect();
        HypercubeAlgorithm {
            query: q.clone(),
            shares,
            hashers,
            strides,
            routes,
        }
    }

    /// The shares in use.
    pub fn shares(&self) -> &Shares {
        &self.shares
    }

    /// Number of servers addressed.
    pub fn servers(&self) -> usize {
        self.shares.servers()
    }

    /// Append to `out` the destination servers of `f` *through body atom
    /// `atom`*, each plus `offset`, in ascending order; `false` (nothing
    /// appended) if `f` does not match the atom. The skew engine routes
    /// per atom (a fact may be pattern-consistent through one atom and not
    /// another), onto a block of servers starting at `offset`.
    pub(crate) fn destinations_via(
        &self,
        atom: usize,
        f: &Fact,
        offset: usize,
        out: &mut Vec<usize>,
    ) -> bool {
        let route = &self.routes[atom];
        if !route.matches(f) {
            return false;
        }
        // The bound axes fix one flat id (mixed radix, as
        // `Shares::flatten`); each free axis then adds every multiple of
        // its stride — least significant axis first, so the ids stay
        // ascending.
        let axes = || route.axes.iter().zip(&self.hashers).zip(&self.strides);
        let (mut base, mut count) = (offset, 1);
        for ((pos, h), stride) in axes() {
            match pos {
                Some(i) => base += h.bucket(f.args[*i]) * stride,
                None => count *= h.buckets,
            }
        }
        let start = out.len();
        out.reserve(count);
        out.push(base);
        for ((_, h), &stride) in axes().rev().filter(|((pos, _), _)| pos.is_none()) {
            let ids = out.len() - start;
            for c in 1..h.buckets {
                for k in start..start + ids {
                    out.push(out[k] + c * stride);
                }
            }
        }
        true
    }

    /// All destination servers of a fact (union over matching atoms —
    /// self-joins route through every atom of the relation), ascending.
    /// When one atom matches and at most one of its free axes has more
    /// than one coordinate, they form a progression read without a heap
    /// block.
    pub fn destinations(&self, f: &Fact) -> Destinations {
        let mut matching = self.routes.iter().filter(|r| r.matches(f));
        if let (Some(route), None) = (matching.next(), matching.next()) {
            if let Some(ids) = self.progression(route, f) {
                return Destinations(ids);
            }
        }
        let mut out = Vec::new();
        self.destinations_into(f, 0, &mut out);
        Destinations(Ids::List(out.into_iter()))
    }

    /// `route`'s servers for `f` as a progression: the bound axes' flat
    /// id, then one step per coordinate of the one free axis that has
    /// more than one; `None` if two have.
    fn progression(&self, route: &AtomRoute, f: &Fact) -> Option<Ids> {
        let (mut next, mut step, mut left) = (0, 1, 1);
        let axes = route.axes.iter().zip(&self.hashers).zip(&self.strides);
        for ((pos, h), &stride) in axes {
            match pos {
                Some(i) => next += h.bucket(f.args[*i]) * stride,
                None if h.buckets == 1 => {}
                None if left == 1 => (step, left) = (stride, h.buckets),
                None => return None,
            }
        }
        Some(Ids::Step { next, step, left })
    }

    /// Append [`HypercubeAlgorithm::destinations`] of `f`, each plus
    /// `offset`, to `out` in ascending order, dropping adjacent repeats —
    /// the route of [`HypercubeAlgorithm::run_on`] and of GYM's bag round.
    pub fn destinations_into(&self, f: &Fact, offset: usize, out: &mut Vec<usize>) {
        let start = out.len();
        let mut matched = 0;
        for atom in 0..self.routes.len() {
            matched += usize::from(self.destinations_via(atom, f, offset, out));
        }
        if matched > 1 {
            out[start..].sort_unstable();
            out.dedup();
        }
    }

    /// Run the one-round algorithm on `db` on a fresh cluster, starting
    /// from a round-robin initial partition. Returns the output and the
    /// load report.
    pub fn run(&self, db: &Instance) -> RunReport {
        self.run_on(&mut Cluster::new(self.servers()), db)
    }

    /// [`HypercubeAlgorithm::run`] on a caller-prepared fresh cluster of
    /// [`HypercubeAlgorithm::servers`] servers (parallelism, trace and
    /// fault plans pre-installed). The report is byte-identical for every
    /// worker-thread count.
    pub fn run_on(&self, cluster: &mut Cluster, db: &Instance) -> RunReport {
        assert_eq!(cluster.p(), self.servers(), "cluster sized for the shares");
        seed_cluster(cluster, db, InitialPartition::RoundRobin);
        cluster.route(&[], |_, f, out| {
            self.destinations_into(f, 0, out);
            Fate::Send
        });
        cluster.compute_query(&self.query, EvalStrategy::Auto);
        RunReport::from_cluster("hypercube", cluster, db.len())
    }
}

/// The destination servers of one fact, ascending (see
/// [`HypercubeAlgorithm::destinations`]).
#[derive(Debug, Clone)]
pub struct Destinations(Ids);

#[derive(Debug, Clone)]
enum Ids {
    /// `left` servers from `next`, `step` apart.
    Step {
        next: usize,
        step: usize,
        left: usize,
    },
    List(std::vec::IntoIter<usize>),
}

impl Iterator for Destinations {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.0 {
            Ids::Step { left: 0, .. } => None,
            Ids::Step { next, step, left } => {
                *left -= 1;
                *next += *step;
                Some(*next - *step)
            }
            Ids::List(ids) => ids.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            Ids::Step { left, .. } => *left,
            Ids::List(ids) => ids.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Destinations {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::parser::parse_query;

    fn triangle() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
    }

    #[test]
    fn example_3_2_replication() {
        // p = 27, shares 3×3×3: every R-tuple is replicated αz = 3 times.
        let q = triangle();
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        assert_eq!(hc.servers(), 27);
        let f = parlog_relal::fact::fact("R", &[10, 20]);
        assert_eq!(hc.destinations(&f).len(), 3);
    }

    #[test]
    fn triangle_output_is_correct() {
        let q = triangle();
        let db = datagen::triangle_db(200, 40, 7);
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        let report = hc.run(&db);
        assert_eq!(report.output, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn triangle_load_is_sublinear_on_skew_free_data() {
        let q = triangle();
        // Matching relations: perfectly skew-free.
        let mut db = datagen::matching_relation("R", 600, 0);
        db.extend_from(&datagen::matching_relation("S", 600, 2000));
        db.extend_from(&datagen::matching_relation("T", 600, 4000));
        let hc = HypercubeAlgorithm::new(&q, 64).unwrap();
        let report = hc.run(&db);
        let m = db.len();
        // Theory: per-relation load ≈ m_R/p^{2/3} · 3 relations; allow slack.
        let bound = 3 * (600.0 / 16.0_f64).ceil() as usize * 3;
        assert!(
            report.stats.max_load < bound,
            "load {} ≥ bound {bound} (m = {m})",
            report.stats.max_load
        );
    }

    #[test]
    fn self_join_routes_through_both_atoms() {
        let q = parse_query("H(x,y,z) <- R(x,y), R(y,z)").unwrap();
        let hc = HypercubeAlgorithm::with_shares(
            &q,
            Shares::manual(vec!["x".into(), "y".into(), "z".into()], vec![2, 2, 2]),
            99,
        );
        let f = parlog_relal::fact::fact("R", &[1, 2]);
        // Through atom R(x,y): z free → 2 servers; through atom R(y,z):
        // x free → 2 servers. Up to overlap: between 2 and 4 distinct.
        let d = hc.destinations(&f);
        assert!(d.len() >= 2 && d.len() <= 4, "{d:?}");
        // Output correctness on a small path graph.
        let db = Instance::from_facts([
            parlog_relal::fact::fact("R", &[1, 2]),
            parlog_relal::fact::fact("R", &[2, 3]),
            parlog_relal::fact::fact("R", &[3, 4]),
        ]);
        let out = hc.run(&db).output;
        assert_eq!(out, parlog_relal::eval::eval_query(&q, &db));
    }

    #[test]
    fn constants_restrict_matching() {
        let q = parse_query("H(x) <- R(x, 5)").unwrap();
        let hc = HypercubeAlgorithm::with_shares(&q, Shares::manual(vec!["x".into()], vec![4]), 1);
        assert_eq!(
            hc.destinations(&parlog_relal::fact::fact("R", &[1, 5]))
                .len(),
            1
        );
        assert_eq!(
            hc.destinations(&parlog_relal::fact::fact("R", &[1, 6]))
                .len(),
            0
        );
    }

    #[test]
    fn valuation_meeting_property() {
        // For every satisfying valuation, all required facts share a
        // destination — the strong-saturation property that makes
        // HyperCube correct (Section 4.1).
        let q = triangle();
        let db = datagen::triangle_db(80, 20, 5);
        let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
        for v in parlog_relal::eval::satisfying_valuations(&q, &db) {
            let req = v.required_facts(&q);
            let mut meet: Option<Vec<usize>> = None;
            for f in req.iter() {
                let d: Vec<usize> = hc.destinations(f).collect();
                meet = Some(match meet {
                    None => d,
                    Some(prev) => prev.into_iter().filter(|s| d.contains(s)).collect(),
                });
            }
            assert!(
                meet.is_some_and(|m| !m.is_empty()),
                "valuation {v} does not meet"
            );
        }
    }

    #[test]
    fn parallel_run_report_is_identical() {
        let q = triangle();
        let db = datagen::triangle_db(300, 50, 11);
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        let seq = hc.run(&db);
        for threads in [2, 4, 16] {
            let par = hc.run_on(&mut Cluster::new(27).with_parallelism(threads), &db);
            assert_eq!(par.output, seq.output);
            assert_eq!(
                serde_json::to_string(&par.stats).unwrap(),
                serde_json::to_string(&seq.stats).unwrap(),
                "threads={threads}"
            );
        }
    }

    /// A routed fact is stored once, in its server's shard, which has no
    /// delta log by type: a job — routing, then the local evaluation —
    /// delivers each fact to its three cells and answers exactly.
    #[test]
    fn servers_keep_no_delta_log() {
        let q = triangle();
        let db = datagen::triangle_db(300, 50, 11);
        let hc = HypercubeAlgorithm::new(&q, 27).unwrap();
        let mut c = Cluster::new(27);
        seed_cluster(&mut c, &db, InitialPartition::RoundRobin);
        c.communicate(|f| hc.destinations(f));
        assert_eq!(c.total_comm(), 3 * db.len());
        c.compute_query(&q, EvalStrategy::Auto);
        let output = c.union_all();
        assert_eq!(output, parlog_relal::eval::eval_query(&q, &db));
        assert_eq!(output.delta_log_len(), 0);
    }

    use proptest::prelude::*;

    /// Terms a random atom draws from: four variables and three small
    /// constants, so constants match and variables repeat often.
    const TERMS: [&str; 7] = ["x", "y", "z", "w", "0", "1", "2"];

    /// `H(vars) <- atoms` over `R` (binary) and `S` (ternary), atoms
    /// given as term indices into [`TERMS`]; `None` when no atom binds a
    /// variable.
    fn random_query(atoms: &[(bool, [usize; 3])]) -> Option<ConjunctiveQuery> {
        let body: Vec<String> = atoms
            .iter()
            .map(|&(binary, t)| {
                let terms: Vec<&str> = t[..if binary { 2 } else { 3 }]
                    .iter()
                    .map(|&i| TERMS[i])
                    .collect();
                format!("{}({})", if binary { "R" } else { "S" }, terms.join(","))
            })
            .collect();
        let vars: Vec<&str> = TERMS[..4]
            .iter()
            .copied()
            .filter(|v| atoms.iter().any(|(_, t)| t.iter().any(|&i| TERMS[i] == *v)))
            .collect();
        let q = parse_query(&format!("H({}) <- {}", vars.join(","), body.join(", ")));
        q.ok().filter(|q| !q.body_variables().is_empty())
    }

    /// Does server `s` receive `f` through `atom` by the definition: `f`
    /// matches the atom, and every share axis whose variable the atom
    /// binds has the hash of the bound value as `s`'s coordinate?
    fn receives_via(hc: &HypercubeAlgorithm, atom: &Atom, f: &Fact, s: usize) -> bool {
        let coords = hc.shares.unflatten(s);
        atom.matches(f)
            && atom.terms.iter().zip(f.args.iter()).all(|(t, &v)| match t {
                Term::Var(x) => match hc.shares.vars.iter().position(|n| *n == x.0) {
                    Some(i) => coords[i] == hc.hashers[i].bucket(v),
                    None => true,
                },
                Term::Const(_) => true,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The compiled route against the definition, on every server:
        /// `s ∈ destinations(f)` iff some atom matching `f` hashes its
        /// bound values to `s`'s mixed-radix coordinates; and through
        /// each atom alone, `destinations_via` appends exactly the
        /// servers that atom sends `f` to, offset and ascending, or
        /// nothing (returning `false`) when `f` does not match it.
        /// Queries have self-joins, repeated variables and constants.
        #[test]
        fn compiled_route_matches_the_definition(
            atoms in prop::collection::vec((0..2u8, (0..7usize, 0..7usize, 0..7usize)), 1..4),
            raw_shares in prop::collection::vec(1..4usize, 4..5),
            seed in 0..1000u64,
            facts in prop::collection::vec((0..3u8, (0..3u64, 0..3u64, 0..3u64)), 1..12),
        ) {
            let atoms: Vec<(bool, [usize; 3])> =
                atoms.into_iter().map(|(b, (i, j, k))| (b == 0, [i, j, k])).collect();
            let Some(q) = random_query(&atoms) else { return };
            let vars: Vec<String> = q.body_variables().into_iter().map(|v| v.0).collect();
            let shares = raw_shares[..vars.len()].to_vec();
            let hc = HypercubeAlgorithm::with_shares(&q, Shares::manual(vars, shares), seed);
            let p = hc.servers();
            for (r, (a, b, c)) in facts {
                let f = match r {
                    0 => parlog_relal::fact::fact("R", &[a, b]),
                    1 => parlog_relal::fact::fact("S", &[a, b, c]),
                    _ => parlog_relal::fact::fact("T", &[a, b]),
                };
                let want: Vec<usize> =
                    (0..p).filter(|&s| q.body.iter().any(|a| receives_via(&hc, a, &f, s))).collect();
                let got: Vec<usize> = hc.destinations(&f).collect();
                prop_assert_eq!(got, want.clone(), "{:?} for {}", &q, &f);
                let mut out = vec![usize::MAX];
                hc.destinations_into(&f, 7, &mut out);
                let shifted = want.iter().map(|s| s + 7);
                prop_assert_eq!(out, std::iter::once(usize::MAX).chain(shifted).collect::<Vec<_>>());
                for (ai, atom) in q.body.iter().enumerate() {
                    let offset = 100 * ai;
                    let mut out = vec![usize::MAX];
                    let matched = hc.destinations_via(ai, &f, offset, &mut out);
                    prop_assert_eq!(matched, atom.matches(&f));
                    let want: Vec<usize> = std::iter::once(usize::MAX)
                        .chain((0..p).filter(|&s| receives_via(&hc, atom, &f, s)).map(|s| s + offset))
                        .collect();
                    prop_assert_eq!(out, want, "atom {} of {:?} for {}", ai, &q, &f);
                }
            }
        }
    }

    #[test]
    fn nonmatching_relation_goes_nowhere() {
        let q = triangle();
        let hc = HypercubeAlgorithm::new(&q, 8).unwrap();
        assert_eq!(
            hc.destinations(&parlog_relal::fact::fact("Z", &[1, 2]))
                .len(),
            0
        );
    }
}
