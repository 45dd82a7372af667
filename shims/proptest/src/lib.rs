//! Offline shim for the parts of `proptest` this workspace uses.
//!
//! The build environment has no crates.io access, so this crate provides
//! the same macro surface (`proptest!`, `prop_assert!`, `prop_assert_eq!`,
//! `#![proptest_config(...)]`) backed by a plain deterministic loop: each
//! generated `#[test]` samples its strategies `cases` times from a fixed
//! seed. There is no shrinking and no failure persistence — a failing
//! case reports the sampled inputs and panics — which is enough for the
//! property tests here, whose inputs are small and printable.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Runner configuration and the RNG behind strategy sampling.

    use rand::prelude::*;

    /// Subset of proptest's config: only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest's default case count.
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic RNG used to sample strategies.
    pub struct TestRng {
        pub(crate) rng: SmallRng,
    }

    impl TestRng {
        /// Fixed-seed RNG so every run explores the same cases.
        pub fn deterministic() -> Self {
            TestRng {
                rng: SmallRng::seed_from_u64(0x70726f70_74657374), // "proptest"
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait: something that can generate values.

    use super::test_runner::TestRng;

    /// A generator of random values (no shrinking in this shim).
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }
}

use strategy::Strategy;
use test_runner::TestRng;

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(&mut rng.rng, self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(&mut rng.rng, self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i32, i64, isize, f32, f64);

/// Strategy producing any value of `T` (see [`any`]).
pub struct Any<T>(std::marker::PhantomData<T>);

/// The `any::<T>()` strategy: uniform over all of `T`.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_standard(&mut rng.rng)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::{vec, hash_set}`).

    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for a `Vec` with random length in a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec<S::Value>` whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start + 1 == self.size.end {
                self.size.start
            } else {
                self.size.clone().sample(rng)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for a `HashSet` with random cardinality in a range.
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `HashSet<S::Value>` whose cardinality is drawn from `size`.
    /// The element strategy's domain must be comfortably larger than
    /// the requested size or sampling may fail.
    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy { element, size }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.clone().sample(rng);
            let mut set = HashSet::with_capacity(target);
            let mut attempts = 0usize;
            while set.len() < target {
                set.insert(self.element.sample(rng));
                attempts += 1;
                assert!(
                    attempts < 100 * target + 1000,
                    "hash_set strategy could not reach {target} distinct elements"
                );
            }
            set
        }
    }
}

pub mod prelude {
    //! The usual glob-import surface (`use proptest::prelude::*`).

    pub use crate::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    pub mod prop {
        //! Module alias so `prop::collection::...` resolves after a glob
        //! import, matching real proptest's prelude.
        pub use crate::collection;
    }
}

/// Define property tests. Supports an optional
/// `#![proptest_config(expr)]` header followed by `#[test]` functions
/// whose arguments are drawn from strategies (`arg in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]: one looping test per function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic();
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                let __outcome = (|| -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}",
                        __case + 1,
                        __cfg.cases,
                        __msg,
                        __inputs
                    );
                }
            }
        }
    )*};
}

/// Assert inside a `proptest!` body; failure fails only this case's
/// closure (then the harness panics with the sampled inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Skip the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples_stay_in_bounds(
            a in 3u64..17,
            b in 0.0f64..1.0,
            pair in (0u32..5, 10usize..=12),
        ) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert!(pair.0 < 5);
            prop_assert!((10..=12).contains(&pair.1));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(0u32..100, 1..50),
            s in prop::collection::hash_set(0u64..500, 1..40),
            x in any::<u64>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 50);
            prop_assert!(v.iter().all(|&e| e < 100));
            prop_assert!(!s.is_empty() && s.len() < 40);
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            let cfg = crate::test_runner::ProptestConfig::with_cases(4);
            let mut rng = crate::test_runner::TestRng::deterministic();
            for _ in 0..cfg.cases {
                let a = crate::strategy::Strategy::sample(&(0u32..10), &mut rng);
                let check = (|| -> Result<(), String> {
                    prop_assert!(a > 100, "a was {}", a);
                    Ok(())
                })();
                if let Err(msg) = check {
                    panic!("case failed: {msg}");
                }
            }
        });
        let err = result.expect_err("property should have failed");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("a was"), "unexpected message: {msg}");
    }
}
