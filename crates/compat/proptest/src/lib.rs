//! Offline `proptest` shim: deterministic random-input testing with
//! proptest's macro surface, minus shrinking.
//!
//! Each `proptest!`-generated test runs its body for
//! [`ProptestConfig::cases`] deterministic cases; the per-case RNG is
//! derived from the test's module path and case index, so failures are
//! reproducible run over run.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Test-loop configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! numeric_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
numeric_range_strategies!(f64, i64, u64, i32, u32, usize);

/// A fixed value as a degenerate strategy (proptest's `Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Strategy namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;
        use std::ops::Range;

        /// `Vec` strategy: length drawn from `size`, elements from
        /// `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// See [`fn@vec`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let len = rng.gen_range(self.size.clone());
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Derive the deterministic RNG for one test case.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = StdRng::seed_from_u64(h ^ (u64::from(case) << 32) ^ u64::from(case));
    // Decorrelate neighboring cases.
    let _ = rng.next_u64();
    rng
}

/// Everything a proptest file usually imports.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

/// Define property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs its body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr) #[test] fn $name:ident $args:tt $body:block $($rest:tt)*) => {
        #[test]
        fn $name() {
            let __config = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::case_rng(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $crate::__prop_bind!{ __rng $args }
                $body
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_bind {
    ($rng:ident ()) => {};
    ($rng:ident ($arg:ident in $strat:expr)) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident ($arg:ident in $strat:expr, $($rest:tt)*)) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__prop_bind!{ $rng ($($rest)*) }
    };
}

/// Assert within a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (f64, u64)> {
        (-1.0f64..1.0, 0u64..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_hold(x in -5.0f64..5.0, n in 1usize..8) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((1..8).contains(&n));
        }

        #[test]
        fn vecs_have_sized_lengths(
            v in prop::collection::vec(0i64..100, 2..9),
        ) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }

        #[test]
        fn tuples_compose(p in pair()) {
            let (x, n) = p;
            prop_assert!((-1.0..1.0).contains(&x));
            prop_assert!(n < 10);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use rand::RngCore;
        let mut a = crate::case_rng("t", 0);
        let mut b = crate::case_rng("t", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::case_rng("t", 1);
        assert_ne!(crate::case_rng("t", 0).next_u64(), c.next_u64());
    }
}
