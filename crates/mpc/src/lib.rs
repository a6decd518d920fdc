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
//! * [`skew_rounds`] — heavy/light residual grids packed into waves;
//!   its one-wave plan is SharesSkew (§3.1);
//! * [`algorithms`] — the survey's one- and multi-round algorithms:
//!   repartition join (Ex. 3.1(1a)), the skew-resilient grouped join
//!   (Ex. 3.1(1b)), the two-round skew-resilient triangle (§3.2),
//!   distributed transitive closure, and one tree-join executor
//!   ([`algorithms::treejoin`]) running cascaded binary joins
//!   (Ex. 3.1(2)), distributed Yannakakis and GYM;
//! * [`ra_distributed`], [`mapreduce`], [`streaming`] — the relational
//!   algebra, MapReduce jobs and bounded-memory reducers, on rounds;
//! * [`quorum`], [`verified`], [`report`] — a quorum-gated barrier,
//!   verify-then-commit computation phases, and run reports.
//!
//! One local step under MPC: a multi-round algorithm's computation phase
//! is a layered set of rules run through `QueryPlan`
//! ([`cluster::Cluster::compute_rules`]), and its hash-on-key reshuffles
//! are [`partition::route_by_key`]. The one-round algorithms evaluate
//! their query under `EvalStrategy::Auto`
//! ([`cluster::Cluster::compute_query`]).
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
    pub use crate::skew_rounds::{SkewAdaptiveJoin, SkewConfig};
}

/// SharesSkew (Afrati et al., survey §3.1) is [`skew_rounds`]'s one-wave
/// plan (`max_rounds: 1`); its checks live here.
#[cfg(test)]
mod shares_skew {
    #[cfg(test)]
    mod tests {
        use crate::datagen;
        use crate::{HypercubeAlgorithm, SkewAdaptiveJoin, SkewConfig};
        use parlog_relal::eval::eval_query;
        use parlog_relal::fact::Val;
        use parlog_relal::instance::Instance;
        use parlog_relal::parser::parse_query;
        use parlog_relal::query::ConjunctiveQuery;
        use parlog_relal::symbols::rel;

        fn join() -> ConjunctiveQuery {
            parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap()
        }

        fn skewed_join_db(m: usize) -> Instance {
            let mut db = datagen::heavy_hitter_relation("R", m, 0.4, 7, 1, 0);
            db.extend_from(&datagen::heavy_hitter_relation("S", m, 0.4, 7, 0, 50_000));
            db
        }

        fn shares_skew(
            q: &ConjunctiveQuery,
            db: &Instance,
            p: usize,
            threshold: usize,
            max_heavy_per_var: usize,
            seed: u64,
        ) -> SkewAdaptiveJoin {
            let cfg = SkewConfig {
                threshold: Some(threshold),
                max_heavy_per_var,
                max_rounds: 1,
                seed,
            };
            let alg = SkewAdaptiveJoin::from_stats(q, db, p, cfg);
            assert_eq!(alg.wave_count(), 1);
            alg
        }

        #[test]
        fn no_skew_degenerates_to_plain_shares() {
            let q = join();
            let db = datagen::matching_relation("R", 100, 0)
                .union(&datagen::matching_relation("S", 100, 10_000));
            let alg = shares_skew(&q, &db, 16, 10, 4, 1);
            assert_eq!(alg.pattern_count(), 1);
            let r = alg.run(&db);
            assert_eq!(r.output, eval_query(&q, &db));
        }

        #[test]
        fn detects_heavy_hitters_and_stays_correct() {
            let q = join();
            let db = skewed_join_db(400);
            let alg = shares_skew(&q, &db, 16, 50, 4, 2);
            assert!(alg.pattern_count() > 1, "the heavy y must form a pattern");
            let r = alg.run(&db);
            assert_eq!(r.output, eval_query(&q, &db));
        }

        /// E14: on a 40 %-heavy join the one-wave plan cuts plain
        /// HyperCube's max load 1 638 to 348; the default wave schedule
        /// reaches 205 in two rounds.
        #[test]
        fn beats_plain_hypercube_under_skew() {
            let q = join();
            let db = skewed_join_db(2000);
            let plain = HypercubeAlgorithm::new(&q, 64).unwrap().run(&db);
            let alg = shares_skew(&q, &db, 64, 100, 4, 3);
            assert_eq!(alg.pattern_count(), 2);
            let r = alg.run(&db);
            assert_eq!(r.output, plain.output);
            assert_eq!(plain.stats.max_load, 1_638);
            assert_eq!(
                (r.stats.rounds, r.stats.max_load, r.stats.total_comm),
                (1, 348, 10_400)
            );
            let waves = SkewAdaptiveJoin::from_stats(&q, &db, 64, SkewConfig::default()).run(&db);
            assert_eq!(waves.output, plain.output);
            assert_eq!((waves.stats.rounds, waves.stats.max_load), (2, 205));
        }

        #[test]
        fn triangle_with_heavy_join_value() {
            let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
            let db = datagen::triangle_heavy_db(400, 80, 3);
            let r = shares_skew(&q, &db, 27, 40, 3, 9).run(&db);
            assert_eq!(r.output, eval_query(&q, &db));
        }

        #[test]
        fn heavy_and_light_facts_route_disjointly_by_pattern() {
            let q = join();
            let db = skewed_join_db(400);
            let alg = shares_skew(&q, &db, 16, 50, 4, 2);
            // A heavy-y R fact and a light-y R fact must use different
            // pattern blocks.
            let heavy_f = db.relation(rel("R")).find(|f| f.args[1] == Val(7)).unwrap();
            let light_f = db.relation(rel("R")).find(|f| f.args[1] != Val(7)).unwrap();
            let dh = alg.wave_destinations(0, heavy_f);
            let dl = alg.wave_destinations(0, light_f);
            assert!(!dh.is_empty() && !dl.is_empty());
            assert!(dh.iter().all(|d| !dl.contains(d)), "{dh:?} vs {dl:?}");
        }
    }
}
