//! The one- and multi-round MPC algorithms surveyed in Section 3.
//!
//! | Module | Survey source | Load (skew-free) | Load (skewed) | Rounds |
//! |---|---|---|---|---|
//! | [`repartition`] | Ex. 3.1(1a) | `O(m/p)` | up to `Θ(m)` | 1 |
//! | [`grouped`] | Ex. 3.1(1b), Ullman's drug interactions | `O(m/√p)` | `O(m/√p)` | 1 |
//! | [`cascade`] | Ex. 3.1(2) | per-join `O(m'/p)` | degrades | k−1 |
//! | [`balanced_cascade`] | §3.2 (decomposition depth) | per-level `O(m'/p)` | degrades | ⌈log₂ k⌉ |
//! | [`two_round_triangle`] | §3.2 (Beame–Koutris–Suciu) | `O(m/p^{2/3})` | `O(m/p^{2/3})` | 2 |
//! | [`yannakakis`] | §3.2 (Yannakakis) | semijoin-bounded | — | `O(depth)` |
//! | [`gym`] | §3.2 (Afrati et al.) | decomposition-bounded | skew-resilient | `O(depth)` |
//!
//! Both cascades, Yannakakis and GYM run their rounds on the one
//! [`treejoin`] executor. (The one-round HyperCube algorithm lives in
//! [`crate::hypercube`], SharesSkew and the skew waves in
//! [`crate::skew_rounds`].)

pub mod balanced_cascade;
pub mod cascade;
pub mod datalog_mr;
pub mod grouped;
pub mod gym;
pub mod repartition;
pub mod treejoin;
pub mod two_round_triangle;
pub mod yannakakis;
