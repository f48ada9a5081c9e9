//! Offline, generation-only stand-in for the subset of `proptest` this
//! workspace uses.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a minimal property-testing harness with the same surface
//! grammar: the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`,
//! range/`Just`/tuple/`prop::collection::vec` strategies, and the
//! `prop_map`/`prop_flat_map` combinators.
//!
//! Deliberate differences from upstream:
//! - **No shrinking.** A failing case reports its case index and seed;
//!   cases are fully deterministic (fixed base seed per case index), so
//!   a failure reproduces on every run.
//! - **Default case count is 64** (upstream: 256) to keep offline CI
//!   fast; tests override it with `ProptestConfig::with_cases` anyway.

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

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f`
        /// builds from it (dependent generation).
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Discards generated values failing the predicate by retrying
        /// (up to an internal cap, then panics).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            // Upstream proptest also aborts the test case here; a filter
            // that rejects every generated value is a test-author bug.
            #[allow(
                clippy::panic,
                reason = "emulates upstream proptest, which aborts the test case here"
            )]
            {
                panic!("prop_filter exhausted retries: {}", self.whence);
            }
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i32, i64, isize, f32, f64);

    macro_rules! range_inclusive_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_inclusive_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+ );)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    arb_prim!(u8, u16, u32, u64, usize, bool, f32, f64);

    /// Strategy generating any value of `T`.
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Returns the full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Length specifications accepted by [`vec`]: an exact `usize` or a
    /// `Range<usize>`.
    pub trait IntoSizeRange {
        /// Picks a concrete length.
        fn pick_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn pick_len(&self, rng: &mut TestRng) -> usize {
            if self.is_empty() {
                self.start
            } else {
                rng.gen_range(self.clone())
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `L`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length comes from `len`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Runner configuration and per-case RNG.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Runner configuration (only `cases` is honored).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic per-case RNG handed to strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// RNG for case number `case`; fixed base seed keeps every run
        /// of the suite identical.
        pub fn for_case(case: u64) -> Self {
            Self(StdRng::seed_from_u64(
                0x5bb2_04d5 ^ case.wrapping_mul(0x9E37_79B9),
            ))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Failure raised by `prop_assert!`-style macros.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespace alias so `prop::collection::vec` resolves as upstream.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (@impl $cfg:expr;
        $($(#[$attr:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..cfg.cases as u64 {
                    let mut __rng = $crate::test_runner::TestRng::for_case(__case);
                    let ($($arg,)+) = (
                        $($crate::strategy::Strategy::generate(&($strat), &mut __rng),)+
                    );
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = __result {
                        // Emulates upstream proptest's test-case abort.
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name), __case, cfg.cases, e
                        );
                    }
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @impl ::core::default::Default::default();
            $($rest)*
        );
    };
}

/// Asserts inside a `proptest!` body; failure aborts only this case's
/// closure via `return Err(..)` so the runner can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 0.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn flat_map_dependency_holds(
            (n, v) in (1usize..8).prop_flat_map(|n| {
                (Just(n), prop::collection::vec(0..n as u32, n))
            })
        ) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| (x as usize) < n));
        }

        #[test]
        fn map_applies(s in (0u32..5).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0 && s < 10);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let s = 0u64..1_000_000;
        let a: Vec<u64> = (0..10)
            .map(|c| s.generate(&mut crate::test_runner::TestRng::for_case(c)))
            .collect();
        let b: Vec<u64> = (0..10)
            .map(|c| s.generate(&mut crate::test_runner::TestRng::for_case(c)))
            .collect();
        assert_eq!(a, b);
    }
}
