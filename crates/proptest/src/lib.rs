//! A self-contained property-testing shim.
//!
//! This workspace must build in fully offline environments, so instead of
//! pulling the real `proptest` crate from a registry it vendors this shim,
//! which implements the (small) subset of the proptest API the test suites
//! actually use:
//!
//! * the [`proptest!`] macro, with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header and both
//!   `arg in strategy` and `arg: Type` parameter forms,
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * range strategies (`0u64..100`, `1u32..=108`, `0.0f64..1.0`), tuple
//!   strategies, [`collection::vec`], [`option::of`], and
//!   [`prelude::any`].
//!
//! Generation is **deterministic**: every test case `i` derives its inputs
//! from a fixed SplitMix64 stream seeded by `i`, so failures reproduce
//! exactly across runs and machines. There is no shrinking — the failing
//! case's inputs are printed verbatim instead.
//!
//! The `PROPTEST_CASES` environment variable, when set to a number,
//! replaces every property's case count, including one set with
//! `with_cases`; cases `0..n` extend the default run's cases.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type `Value`.
    ///
    /// Unlike the real proptest there is no shrink tree: a strategy is just
    /// a deterministic function of the per-case RNG.
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value: Debug;
        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Types with a canonical "any value" strategy (see [`any`]).
    pub trait Arbitrary: Sized + Debug {
        /// Draws an arbitrary value of this type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// A strategy for any value of type `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite values only; the sims under test assume no NaN/inf.
            (rng.next_f64() - 0.5) * 2e6
        }
    }

    macro_rules! int_impls {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_impls {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.next_f64() as $t) * (self.end - self.start)
                }
            }
        )*};
    }
    float_impls!(f32, f64);

    macro_rules! tuple_impls {
        ($(($($S:ident $idx:tt),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_impls! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A strategy for `Vec`s whose length falls in `size` and whose
    /// elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy produced by [`of`].
    pub struct OptionStrategy<S>(S);

    /// A strategy for `Option`s: `Some` three times out of four.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 != 0 {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod test_runner {
    /// Per-run configuration (only the case count is honoured; see
    /// [`ProptestConfig::effective_cases`]).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// The number of cases to run: `PROPTEST_CASES` when it is set to
        /// a number, otherwise `cases`.
        pub fn effective_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// A failed `prop_assert!` from inside a property body.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic SplitMix64 stream; one per test case, seeded by the
    /// case index so failures reproduce bit-identically everywhere.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The RNG for case `case` of a property.
        pub fn for_case(case: u32) -> Self {
            TestRng {
                state: (case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ 0xD1B5_4A32_D192_ED03,
            }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests. Mirrors the real macro's surface: an optional
/// `#![proptest_config(..)]` header followed by `fn` items whose arguments
/// are either `name in strategy` or `name: Type` (shorthand for
/// `name in any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__pt_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__pt_fns! { cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __pt_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr); $(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::__pt_args!(cfg = ($cfg); body = ($body); parsed = []; $($args)*);
        }
        $crate::__pt_fns! { cfg = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __pt_args {
    (cfg = ($cfg:expr); body = ($body:block); parsed = [$($p:tt)*];) => {
        $crate::__pt_run!(cfg = ($cfg); body = ($body); $($p)*);
    };
    (cfg = ($cfg:expr); body = ($body:block); parsed = [$($p:tt)*]; $arg:ident in $strat:expr, $($rest:tt)*) => {
        $crate::__pt_args!(cfg = ($cfg); body = ($body); parsed = [$($p)* ($arg, $strat)]; $($rest)*);
    };
    (cfg = ($cfg:expr); body = ($body:block); parsed = [$($p:tt)*]; $arg:ident in $strat:expr) => {
        $crate::__pt_args!(cfg = ($cfg); body = ($body); parsed = [$($p)* ($arg, $strat)];);
    };
    (cfg = ($cfg:expr); body = ($body:block); parsed = [$($p:tt)*]; $arg:ident : $ty:ty, $($rest:tt)*) => {
        $crate::__pt_args!(cfg = ($cfg); body = ($body); parsed = [$($p)* ($arg, $crate::strategy::any::<$ty>())]; $($rest)*);
    };
    (cfg = ($cfg:expr); body = ($body:block); parsed = [$($p:tt)*]; $arg:ident : $ty:ty) => {
        $crate::__pt_args!(cfg = ($cfg); body = ($body); parsed = [$($p)* ($arg, $crate::strategy::any::<$ty>())];);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __pt_run {
    (cfg = ($cfg:expr); body = ($body:block); $(($arg:ident, $strat:expr))*) => {{
        let __cfg: $crate::test_runner::ProptestConfig = $cfg;
        for __case in 0..__cfg.effective_cases() {
            let mut __rng = $crate::test_runner::TestRng::for_case(__case);
            $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
            let __inputs = format!("{:?}", ($(&$arg,)*));
            let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
            if let ::std::result::Result::Err(__e) = __result {
                panic!("proptest case {} failed: {}\ninputs: {}", __case, __e, __inputs);
            }
        }
    }};
}

/// Asserts inside a property body, failing the case (with its inputs
/// printed) rather than unwinding directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// (The real proptest resamples; this shim simply counts the case as
/// passed, which is equivalent for deterministic generation.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: {:?} != {:?}", format!($($fmt)*), l, r);
    }};
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{}: both {:?}", format!($($fmt)*), l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::for_case(7);
        let mut b = crate::test_runner::TestRng::for_case(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let f = a.next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 5u64..500, y in 1u32..=108, z in 0.0f64..1.0) {
            prop_assert!((5..500).contains(&x));
            prop_assert!((1..=108).contains(&y));
            prop_assert!((0.0..1.0).contains(&z));
        }

        #[test]
        fn typed_args_generate(seed: u64, flag: bool) {
            let _ = (seed, flag);
            prop_assert_eq!(seed, seed);
            prop_assert_ne!(flag, !flag);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn collections_and_options(
            v in crate::collection::vec((0usize..4, 1u32..=10), 1..8),
            o in crate::collection::vec(crate::option::of(1.0f64..120.0), 6),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert_eq!(o.len(), 6);
            for (a, b) in &v {
                prop_assert!(*a < 4 && (1..=10).contains(b));
            }
        }
    }
}
