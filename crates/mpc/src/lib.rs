//! # `parlog-mpc` — the Massively Parallel Communication model, simulated
//!
//! Section 3 of Neven's PODS'16 survey presents the MPC model of Koutris
//! and Suciu: `p` servers connected by a complete network compute in
//! *rounds*, each round being a **communication phase** (servers exchange
//! data) followed by a **computation phase** (local computation only). The
//! quantity of interest is the **load** — the amount of data a server
//! receives in a round — which for a database of `m` facts always lies in
//! `[m/p, m]` and is written `m/p^{1−ε}`.
//!
//! The paper's claims are about communication loads, not wall-clock time on
//! a particular cluster, so this crate *simulates* the model in-process and
//! measures loads exactly. The simulation itself can still run servers in
//! parallel — [`cluster::Cluster::with_parallelism`] executes both phases
//! on scoped worker threads with a deterministic in-order merge, so
//! outputs and statistics are byte-identical to the sequential engine
//! (see experiment E20):
//!
//! * [`cluster`] — servers, rounds, exact per-round load accounting;
//! * [`partition`] — hash partitioners and initial data placement;
//! * [`datagen`] — skew-free, Zipf-skewed, heavy-hitter and matching
//!   databases used by the survey's examples and bounds;
//! * [`shares`] — integer share allocation from the LP exponents of
//!   `parlog_relal::packing` (the Shares algorithm of Afrati–Ullman);
//! * [`hypercube`] — the HyperCube distribution and one-round evaluation
//!   (Example 3.2, Beame–Koutris–Suciu);
//! * [`algorithms`] — the survey's one- and multi-round algorithms:
//!   repartition join (Ex. 3.1(1a)), the skew-resilient grouped join
//!   (Ex. 3.1(1b)), cascaded binary joins (Ex. 3.1(2)), the two-round
//!   skew-resilient triangle (§3.2), distributed Yannakakis and GYM.
//!
//! ## Example
//!
//! ```
//! use parlog_mpc::prelude::*;
//! use parlog_relal::prelude::*;
//!
//! let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
//! let db = parlog_mpc::datagen::triangle_heavy_db(300, 40, 7);
//! let report = HypercubeAlgorithm::new(&q, 64).unwrap().run(&db);
//! assert_eq!(report.output, eval_query(&q, &db));
//! // Skew-free triangle: max load ≈ m / p^{2/3}.
//! assert!(report.stats.max_load < db.len());
//! ```

pub mod algorithms;
pub mod cluster;
pub mod datagen;
pub mod hypercube;
pub mod mapreduce;
pub mod partition;
pub mod quorum;
pub mod ra_distributed;
pub mod report;
pub mod shares;
pub mod shares_skew;
pub mod skew_rounds;
pub mod streaming;
pub mod verified;

pub use cluster::{Cluster, RoundStats};
pub use hypercube::HypercubeAlgorithm;
pub use quorum::{coordination_barrier, BarrierOutcome};
pub use report::RunReport;
pub use shares::Shares;
pub use skew_rounds::{SkewAdaptiveJoin, SkewConfig};
pub use verified::VerifiedRound;

/// Commonly used items.
pub mod prelude {
    pub use crate::algorithms::cascade::CascadeJoin;
    pub use crate::algorithms::grouped::GroupedJoin;
    pub use crate::algorithms::gym::Gym;
    pub use crate::algorithms::repartition::RepartitionJoin;
    pub use crate::algorithms::two_round_triangle::TwoRoundTriangle;
    pub use crate::algorithms::yannakakis::DistributedYannakakis;
    pub use crate::cluster::{Cluster, RoundStats};
    pub use crate::hypercube::HypercubeAlgorithm;
    pub use crate::quorum::{coordination_barrier, BarrierOutcome};
    pub use crate::report::RunReport;
    pub use crate::shares::Shares;
    pub use crate::shares_skew::SharesSkewAlgorithm;
    pub use crate::skew_rounds::{SkewAdaptiveJoin, SkewConfig};
}
