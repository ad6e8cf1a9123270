//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate reimplements
//! the subset of proptest's API the workspace uses: the [`Strategy`](strategy::Strategy) trait
//! with `Just` / integer ranges / tuples / `prop_map` / `prop_oneof!` /
//! `collection::vec` / `any::<T>()` / string-pattern strategies, plus the
//! `proptest!`, `prop_assert!`, `prop_assert_eq!` and `prop_assert_ne!`
//! macros and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, deliberately accepted:
//! - no shrinking — a failing case reports the panic message only;
//! - generation is deterministic per test (seeded from the test name), so
//!   failures reproduce across runs;
//! - string patterns are not full regexes: any pattern produces printable
//!   strings (with occasional `/` and NUL-free unicode), which is what the
//!   path-validation property here actually needs.

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// A strategy producing `Vec`s of `element` with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Returns the canonical strategy for `T` (`any::<u8>()` etc.).
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    ArbitraryStrategy(std::marker::PhantomData)
}

/// Types with a canonical strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut test_runner::TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct ArbitraryStrategy<T>(std::marker::PhantomData<T>);

impl<T> Clone for ArbitraryStrategy<T> {
    fn clone(&self) -> Self {
        ArbitraryStrategy(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> strategy::Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Everything a property-test file needs, in one glob import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, Arbitrary};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Derives a deterministic per-test seed from the test's name (FNV-1a).
#[doc(hidden)]
pub fn __seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a test that runs the body over `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let mut __rng = $crate::test_runner::TestRng::from_seed(
                $crate::__seed_from_name(concat!(module_path!(), "::", stringify!($name))),
            );
            for __case in 0..__config.cases {
                let ($($arg,)*) = (
                    $($crate::strategy::Strategy::generate(&($strat), &mut __rng),)*
                );
                let __run = || -> () { $body };
                __run();
                let _ = __case;
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Builds a strategy choosing uniformly among the given strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Union::arm($strat)),+
        ])
    };
}

/// Asserts a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_small() -> impl Strategy<Value = u64> {
        prop_oneof![Just(1u64), Just(2), Just(3)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 0u8..4, b in 10u64..20, c in 0usize..=3) {
            prop_assert!(a < 4);
            prop_assert!((10..20).contains(&b));
            prop_assert!(c <= 3);
        }

        #[test]
        fn tuples_maps_and_vecs(
            pair in (0u8..4, arb_small()).prop_map(|(a, b)| (a as u64) + b),
            xs in prop::collection::vec(any::<u8>(), 1..25),
        ) {
            prop_assert!(pair <= 3 + 3);
            prop_assert!(!xs.is_empty() && xs.len() < 25);
        }

        #[test]
        fn string_patterns_produce_strings(s in "\\PC*") {
            // Pattern strategies only promise printable, NUL-free text.
            prop_assert!(!s.contains('\u{0}'));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = prop::collection::vec(0u32..1000, 1..10);
        let mut r1 = crate::test_runner::TestRng::from_seed(9);
        let mut r2 = crate::test_runner::TestRng::from_seed(9);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
        }
    }

    #[test]
    fn union_is_roughly_uniform() {
        use crate::strategy::Strategy;
        let strat = arb_small();
        let mut rng = crate::test_runner::TestRng::from_seed(3);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[(strat.generate(&mut rng) - 1) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "counts {counts:?}");
    }
}
