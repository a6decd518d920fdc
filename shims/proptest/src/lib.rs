//! Offline stand-in for `proptest`.
//!
//! Provides the subset the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, range (`a..b` and `a..=b`) and
//! tuple strategies,
//! `prop::collection::vec`, the `proptest!` macro (with an optional
//! `#![proptest_config(...)]` header) and `prop_assert!`/`prop_assert_eq!`.
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! sampled from a deterministic per-case seed (derived from the macro
//! invocation line and the case index) rather than an entropy source, and
//! there is **no shrinking** — a failing case panics with its seed so it
//! can be replayed, but is not minimized.

#![forbid(unsafe_code)]
#![deny(warnings)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// A generator of values for property tests.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($range:ident: $($t:ty),*) => {$(
        impl Strategy for $range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(Range: u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);
// Inclusive ranges reach the type's maximum (`0..=u64::MAX`, `250..=u8::MAX`).
// `rand` samples them for the integer types only.
impl_range_strategy!(RangeInclusive: u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($t:ident . $n:tt),+))+) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Collection strategies (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;
        use std::ops::Range;

        /// Strategy for `Vec`s with element strategy `S` and a length
        /// drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// A vector of `size.len()`-bounded length with elements from
        /// `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let n = if self.size.is_empty() {
                    self.size.start
                } else {
                    rng.gen_range(self.size.clone())
                };
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Runner configuration: only the case count is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases sampled per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 48 }
    }
}

/// Sample a strategy from an explicit seed (used by the `proptest!`
/// expansion; exposed for replaying failures).
pub fn sample_with_seed<S: Strategy>(strategy: &S, seed: u64) -> S::Value {
    strategy.sample(&mut StdRng::seed_from_u64(seed))
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a property (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` sampled cases. The case
/// seed is printed on entry to a failing case via the panic payload of
/// the inner assertion plus the seed bound below.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident
        ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    // Distinct stream per macro line and case.
                    let __seed = 0x9e3779b97f4a7c15u64
                        .wrapping_mul(line!() as u64 + 1)
                        .wrapping_add(__case as u64);
                    let __run = || {
                        let mut __offset = 0u64;
                        $(
                            __offset += 1;
                            let $arg = $crate::sample_with_seed(
                                &$strat,
                                __seed.wrapping_add(__offset << 32),
                            );
                        )*
                        $body
                    };
                    if let Err(payload) =
                        ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run))
                    {
                        eprintln!(
                            "proptest shim: case {__case} failed (seed {__seed:#x})"
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3..10u64, y in 0..5usize) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec((0..3u8, 0..4u8), 0..6).prop_map(|p| p.len())
        ) {
            prop_assert!(v < 6);
        }
    }

    #[test]
    fn inclusive_ranges_reach_their_end() {
        let top = (0..64u64).find(|&seed| super::sample_with_seed(&(250..=u8::MAX), seed) == 255);
        assert!(top.is_some(), "255 never drawn from 250..=255 in 64 draws");
        for seed in 0..64 {
            assert!(super::sample_with_seed(&(250..=u8::MAX), seed) >= 250);
            assert_eq!(super::sample_with_seed(&(7..=7i32), seed), 7);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = prop::collection::vec(0..100u64, 1..10);
        assert_eq!(
            super::sample_with_seed(&s, 42),
            super::sample_with_seed(&s, 42)
        );
    }
}
