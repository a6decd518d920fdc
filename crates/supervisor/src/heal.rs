//! Crash recovery on the MPC substrate: HyperCube shard re-replication.
//!
//! A HyperCube server's working set is its grid cell — the facts hashed
//! to its coordinates. When the server is lost after the communication
//! phase, the cell is gone from volatile memory, but the cell is
//! *reconstructible*: routing is deterministic, so the supervisor can
//! re-replicate the exact shard to a survivor, which then computes the
//! dead server's task on top of its own. Correctness is preserved
//! because strong saturation is per-cell: every valuation that met at
//! the dead server's coordinates now meets at the survivor, and local
//! join evaluation is sound on any subset of the real input, so the
//! union over survivors equals the fault-free output.
//!
//! The *cost* of the heal is the theory's own quantity: the adopted
//! shard is one server's load, which the Shares LP bounds by
//! `O(m / p^{1/τ*})` with `τ*` the optimal fractional edge packing
//! (Section 3.1). [`heal_hypercube_crash`] measures the adopted load and
//! checks it against that bound — recovery costs one unit of the
//! algorithm's per-server load, not a full recomputation.

use parlog_mpc::cluster::Cluster;
use parlog_mpc::hypercube::HypercubeAlgorithm;
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_relal::eval::eval_query;
use parlog_relal::instance::Instance;
use parlog_relal::packing::hypercube_load_exponent;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::simplex::LpError;

/// Why a requested heal could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealError {
    /// The query has no fractional-cover LP solution (no shares to
    /// build the grid from).
    Lp(LpError),
    /// The cluster has no survivor to adopt the shard — healing a
    /// 1-server (or all-dead) cluster is a refusal, not a panic.
    NoSurvivor {
        /// Servers the algorithm actually addressed.
        p_eff: usize,
    },
    /// The crashed-server index is outside the effective grid — the
    /// caller named a server that does not exist.
    DeadOutOfRange {
        /// The requested crash index.
        dead: usize,
        /// Servers the algorithm actually addressed.
        p_eff: usize,
    },
}

impl std::fmt::Display for HealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealError::Lp(e) => write!(f, "no shares to heal with: {e:?}"),
            HealError::NoSurvivor { p_eff } => {
                write!(f, "healing needs at least one survivor (p_eff = {p_eff})")
            }
            HealError::DeadOutOfRange { dead, p_eff } => {
                write!(f, "crashed server {dead} out of range (p_eff = {p_eff})")
            }
        }
    }
}

impl std::error::Error for HealError {}

impl From<LpError> for HealError {
    fn from(e: LpError) -> HealError {
        HealError::Lp(e)
    }
}

/// What one HyperCube shard re-replication did and cost.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MpcHealReport {
    /// Servers the algorithm actually addressed (shares may round `p`
    /// down).
    pub p: usize,
    /// Input size.
    pub m: usize,
    /// The crashed server.
    pub dead: usize,
    /// The survivor that adopted the shard (the least-loaded one).
    pub survivor: usize,
    /// Facts re-replicated — the extra load the heal placed on the
    /// survivor.
    pub extra_load: usize,
    /// The fault-free run's maximum per-server load, for comparison.
    pub fault_free_max_load: usize,
    /// `1/τ*` from the optimal fractional edge packing.
    pub load_exponent: f64,
    /// The theoretical per-server load `m / p^{1/τ*}`.
    pub predicted_load: f64,
    /// `extra_load ≤ slack · predicted_load + 1` — the heal stayed
    /// within the one-server-load bound.
    pub within_bound: bool,
    /// The healed union over survivors equals the fault-free output.
    pub output_matches: bool,
}

/// Crash server `dead` after the HyperCube communication phase of `q`
/// over `db` on (up to) `p` servers, re-replicate its shard to the
/// least-loaded survivor and recompute. `slack` is the constant allowed
/// over the `m/p^{1/τ*}` bound (hash imbalance on finite data; 2–3 is
/// ample for skew-free inputs).
///
/// Returns [`HealError::Lp`] when the query has no fractional-cover LP
/// solution (no shares to build the grid from),
/// [`HealError::NoSurvivor`] when the effective grid has a single
/// server (nobody left to adopt the shard), and
/// [`HealError::DeadOutOfRange`] when `dead` names a server outside the
/// effective grid — shares may round `p` down, and silently wrapping
/// the index healed a *different* server than the caller asked about.
pub fn heal_hypercube_crash(
    q: &ConjunctiveQuery,
    db: &Instance,
    p: usize,
    dead: usize,
    slack: f64,
) -> Result<MpcHealReport, HealError> {
    let algo = HypercubeAlgorithm::new(q, p)?;
    let p_eff = algo.servers();
    if p_eff <= 1 {
        return Err(HealError::NoSurvivor { p_eff });
    }
    if dead >= p_eff {
        return Err(HealError::DeadOutOfRange { dead, p_eff });
    }
    // The fault-free baseline: output and loads.
    let clean = algo.run(db);
    // The crashed run: same distribution, then the dead server's cell is
    // re-replicated to the least-loaded survivor before computation.
    let mut cluster = Cluster::new(p_eff);
    seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
    cluster.communicate(|f| algo.destinations(f));
    let shard = cluster.shard(dead).clone();
    let survivor = (0..p_eff)
        .filter(|&s| s != dead)
        .min_by_key(|&s| cluster.rounds()[0].received[s])
        .ok_or(HealError::NoSurvivor { p_eff })?;
    cluster.place(survivor, shard.iter());
    let mut healed_output = Instance::new();
    for s in (0..p_eff).filter(|&s| s != dead) {
        healed_output.extend_from(&eval_query(q, &cluster.local(s)));
    }
    let load_exponent = hypercube_load_exponent(q)?;
    let m = db.len();
    let predicted_load = m as f64 / (p_eff as f64).powf(load_exponent);
    Ok(MpcHealReport {
        p: p_eff,
        m,
        dead,
        survivor,
        extra_load: shard.len(),
        fault_free_max_load: clean.stats.max_load,
        load_exponent,
        predicted_load,
        within_bound: (shard.len() as f64) <= slack * predicted_load + 1.0,
        output_matches: healed_output == clean.output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_mpc::datagen;
    use parlog_relal::parser::parse_query;

    fn triangle() -> ConjunctiveQuery {
        parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap()
    }

    #[test]
    fn skew_free_triangle_heal_stays_within_the_packing_bound() {
        let q = triangle();
        let mut db = datagen::matching_relation("R", 600, 0);
        db.extend_from(&datagen::matching_relation("S", 600, 2000));
        db.extend_from(&datagen::matching_relation("T", 600, 4000));
        let r = heal_hypercube_crash(&q, &db, 27, 5, 3.0).unwrap();
        assert_eq!(r.p, 27);
        assert!(r.output_matches, "healed union must equal the clean output");
        assert!((r.load_exponent - 2.0 / 3.0).abs() < 1e-9, "τ* = 3/2");
        assert!(
            r.within_bound,
            "extra load {} vs predicted {:.1}",
            r.extra_load, r.predicted_load
        );
        assert!(r.extra_load > 0, "the dead cell was not empty");
        assert_ne!(r.survivor, r.dead);
    }

    #[test]
    fn every_crash_position_heals_correctly_on_real_data() {
        let q = triangle();
        let db = datagen::triangle_db(120, 30, 7);
        for dead in 0..8 {
            let r = heal_hypercube_crash(&q, &db, 8, dead, 3.0).unwrap();
            assert!(r.output_matches, "dead server {dead}");
        }
    }

    #[test]
    fn one_server_cluster_refuses_to_heal_instead_of_panicking() {
        // A single-variable query on p = 1 leaves nobody to adopt the
        // shard: the old code hit `assert!(p_eff > 1)`.
        let q = parse_query("H(x) <- R(x)").unwrap();
        let db = datagen::matching_relation("R", 10, 0);
        let err = heal_hypercube_crash(&q, &db, 1, 0, 3.0).unwrap_err();
        assert_eq!(err, HealError::NoSurvivor { p_eff: 1 });
        assert!(err.to_string().contains("survivor"));
    }

    #[test]
    fn dead_index_outside_the_effective_grid_is_an_error_not_a_wrap() {
        // Triangle shares on p = 8 address exactly 8 servers; asking
        // about server 8 used to silently wrap to server 0 and report a
        // heal of the wrong cell.
        let q = triangle();
        let db = datagen::triangle_db(60, 20, 3);
        let err = heal_hypercube_crash(&q, &db, 8, 8, 3.0).unwrap_err();
        assert_eq!(err, HealError::DeadOutOfRange { dead: 8, p_eff: 8 });
    }

    #[test]
    fn heal_cost_is_one_server_load_not_a_recomputation() {
        let q = triangle();
        let mut db = datagen::matching_relation("R", 400, 0);
        db.extend_from(&datagen::matching_relation("S", 400, 2000));
        db.extend_from(&datagen::matching_relation("T", 400, 4000));
        let r = heal_hypercube_crash(&q, &db, 8, 1, 3.0).unwrap();
        // Re-replication moves ~max_load facts, far below m.
        assert!(r.extra_load <= 3 * r.fault_free_max_load);
        assert!(r.extra_load < r.m / 2);
    }
}
