//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal, deterministic implementation instead: [`StdRng`](rngs::StdRng) is
//! a SplitMix64 generator (not ChaCha12 like upstream), which is more
//! than adequate for synthetic-graph generation, neighbor sampling, and
//! weight initialization in this reproduction, and keeps every stream
//! reproducible from a `u64` seed on every platform.
//!
//! Only the API surface actually exercised by the workspace is provided:
//! [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`],
//! [`SeedableRng::seed_from_u64`], and [`rngs::StdRng`].

// Test modules assert by panicking; the workspace panic-family denies
// (see [workspace.lints] in Cargo.toml) apply to library code only.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]

/// A source of random `u64`s. Object-safe core trait, mirroring
/// `rand_core::RngCore` in spirit.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an RNG via [`Rng::gen`]
/// (the shim's analogue of sampling from the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u8 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for u16 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

mod sealed_range {
    /// Range types accepted by [`crate::Rng::gen_range`].
    pub trait SampleRange<T> {
        fn sample_single<R: crate::RngCore + ?Sized>(self, rng: &mut R) -> T;
    }
}
pub use sealed_range::SampleRange;

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + (reduce(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every value is valid.
                    return <$t as Standard>::sample_standard(rng);
                }
                lo + (reduce(rng.next_u64(), span) as $t)
            }
        }
    )*};
}
int_range_impl!(u8, u16, u32, u64, usize);

macro_rules! float_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as Standard>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}
float_range_impl!(f32, f64);

macro_rules! signed_range_impl {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(reduce(rng.next_u64(), span) as $t)
            }
        }
    )*};
}
signed_range_impl!(i32 => u32, i64 => u64, isize => usize);

/// Maps a random `u64` into `[0, span)` via 128-bit multiply (Lemire's
/// unbiased-enough fast reduction; the tiny modulo bias of the plain
/// `%` alternative would also have been fine for simulation use).
#[inline]
fn reduce(x: u64, span: u64) -> u64 {
    ((x as u128 * span as u128) >> 64) as u64
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generator types.

    use super::{RngCore, SeedableRng};

    /// Deterministic workspace RNG: SplitMix64.
    ///
    /// Not the ChaCha12 generator of upstream `rand`; streams are *not*
    /// bit-compatible with upstream, but are deterministic for a given
    /// seed, which is all the workspace relies on.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Pre-mix so that small consecutive seeds give unrelated streams.
            let mut s = Self {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            };
            s.next_u64();
            s
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = r.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(0u32..=5);
            assert!(y <= 5);
            let z = r.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&z));
        }
    }

    #[test]
    fn gen_range_hits_all_buckets() {
        let mut r = StdRng::seed_from_u64(11);
        let mut hits = [0usize; 8];
        for _ in 0..8000 {
            hits[r.gen_range(0usize..8)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 500), "skewed: {hits:?}");
    }

    #[test]
    fn works_through_mut_ref() {
        fn draw<R: super::RngCore>(rng: &mut R) -> u64 {
            use super::Rng;
            rng.gen()
        }
        let mut r = StdRng::seed_from_u64(3);
        let _ = draw(&mut r);
    }
}
