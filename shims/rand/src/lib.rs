//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no registry cache, so
//! the real `rand` cannot be fetched. This shim implements the (small)
//! API surface the workspace actually uses — `StdRng::seed_from_u64`,
//! `gen_range` over integer ranges, `gen_bool`, and `gen::<f64>()` — on
//! top of xoshiro256++ seeded via SplitMix64. Streams are deterministic
//! and stable across runs, which is all the simulators require; the
//! concrete values differ from upstream `rand`'s ChaCha-based `StdRng`
//! (no test in this workspace depends on specific draws).

#![forbid(unsafe_code)]
#![deny(warnings)]

use std::ops::{Range, RangeInclusive};

/// Core RNG interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// The next uniform 32-bit word.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding interface (only `seed_from_u64` is provided).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64 key expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types sampleable from the "standard" (uniform) distribution.
pub trait StandardSample {
    /// Draw one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly (the `gen_range` argument).
pub trait SampleRange<T> {
    /// Sample one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                // Multiply-shift rejection-free mapping; bias is < 2^-64
                // per draw, far below anything these simulators can see.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(hi as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range in gen_range");
                if s == <$t>::MIN && e == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                // `e + 1` overflows when `e` is the type's maximum: take
                // the span in u128, as `Range` does.
                let span = (e as u128).wrapping_sub(s as u128).wrapping_add(1) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                s.wrapping_add(hi as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + f64::standard_sample(rng) * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p == 0.0 {
            return false;
        }
        if p == 1.0 {
            return true;
        }
        f64::standard_sample(self) < p
    }

    /// Draw from the standard (uniform) distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard_sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The provided generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the workspace's deterministic default generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// Same generator under the `SmallRng` name.
    pub type SmallRng = StdRng;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // All-zero state would be a fixed point; splitmix64 cannot
            // produce four zero words from any seed, but keep the guard.
            if s == [0; 4] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000u64), b.gen_range(0..1000u64));
        }
        let mut c = StdRng::seed_from_u64(43);
        let same = (0..64).all(|_| a.gen_range(0..2u32) == c.gen_range(0..2u32));
        assert!(!same, "different seeds should diverge");
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0..=5u8);
            assert!(w <= 5);
            // Inclusive ranges ending at the type's maximum.
            assert!(rng.gen_range(250..=u8::MAX) >= 250);
            assert!(rng.gen_range(i64::MAX - 3..=i64::MAX) >= i64::MAX - 3);
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
