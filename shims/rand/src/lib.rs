//! Offline shim for the parts of `rand` 0.8 this workspace uses.
//!
//! The build environment has no crates.io access, so this crate provides
//! an API-compatible subset: [`rngs::SmallRng`] (xoshiro256++ seeded via
//! SplitMix64, like the real `small_rng` feature), the [`Rng`] /
//! [`SeedableRng`] traits with `gen`, `gen_range` over (inclusive) int
//! and float ranges, and [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//! Everything is deterministic per seed, which is all the simulation
//! relies on — no cryptographic or statistical-test claims.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core RNG interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Next uniform 32-bit value.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let unit = <$t as Standard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
float_range!(f32, f64);

/// The user-facing sampling interface (`rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform value of a [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Uniform value in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_range(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seeds (`rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (the only constructor this workspace uses).
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Named RNG implementations.

    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic RNG — xoshiro256++, seeded through
    /// SplitMix64 exactly like `rand`'s `SmallRng` on 64-bit targets.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence-related sampling (`rand::seq`).

    use super::Rng;

    /// Slice extensions (`rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// In-place Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element (`None` on an empty slice).
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod prelude {
    //! The usual glob-import surface.
    pub use crate::rngs::SmallRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(va[0], c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(5usize..=6);
            assert!(i == 5 || i == 6);
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn choose_and_gen_bool() {
        let mut rng = SmallRng::seed_from_u64(4);
        let v = [1, 2, 3];
        assert!(v.contains(v.as_slice().choose(&mut rng).unwrap()));
        let empty: [u8; 0] = [];
        assert!(empty.as_slice().choose(&mut rng).is_none());
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
