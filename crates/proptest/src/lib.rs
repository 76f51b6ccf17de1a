//! Offline stand-in for the crates.io `proptest` property-testing crate.
//!
//! The build environment for this workspace has no network access, so the
//! real `proptest` cannot be fetched. This crate reimplements the API
//! surface the workspace's test modules use — the [`Strategy`] trait with
//! `prop_map` / `prop_flat_map` / `prop_filter_map`, range and tuple
//! strategies, [`prelude::any`], [`prelude::Just`], `proptest::collection::vec`,
//! and the `proptest!` / `prop_oneof!` / `prop_assert*!` / `prop_assume!`
//! macros — as a plain randomized test runner.
//!
//! Differences from the real crate, deliberately accepted for offline use:
//!
//! * **No shrinking.** A failing case reports the assertion message (which
//!   in this workspace's tests interpolates the offending values) but does
//!   not minimize the input.
//! * **Fixed deterministic seeding.** Each test derives its RNG seed from
//!   the test name, so runs are reproducible; `PROPTEST_CASES` still
//!   overrides the case count (default 256).
//!
//! Swapping back to the real crate is a one-line change in the workspace
//! manifest; no test source needs to change.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic RNG driving value generation (SplitMix64; self-contained so
/// this crate has no dependencies, not even on `pp-rand`).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw below `bound` (`bound > 0`). Modulo bias is irrelevant
    /// at test-generation scale.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform double in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a generated case did not run to completion.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected (`prop_assume!` failed); it does not count
    /// toward the case budget.
    Reject,
    /// An assertion failed; the runner panics with this message.
    Fail(String),
}

/// A generator of test values; mirrors `proptest::strategy::Strategy`.
///
/// `generate` returns `None` when a strategy-level filter rejects the draw
/// (the runner retries with fresh randomness).
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Draw one value, or `None` if this draw was filtered out.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate an intermediate value, then generate from the strategy `f`
    /// builds out of it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Map generated values through `f`, rejecting draws where it returns
    /// `None`. `whence` labels the filter in rejection diagnostics.
    fn prop_filter_map<O, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap {
            inner: self,
            f,
            _whence: whence,
        }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy, as produced by [`Strategy::boxed`].
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> Option<S2::Value> {
        let mid = self.inner.generate(rng)?;
        (self.f)(mid).generate(rng)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    _whence: &'static str,
}

impl<S, O, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<O>,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// Strategy that always yields a clone of one value; mirrors
/// `proptest::strategy::Just`.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Types with a canonical strategy, used by [`prelude::any`]; mirrors
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draw a canonical "any value of this type".
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy form of [`Arbitrary`]; returned by [`prelude::any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                Some((self.start as i128 + rng.below(span) as i128) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                // A full 64-bit domain wraps `hi - lo + 1` to 0; any u64
                // draw is then in range.
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    return Some(rng.next_u64() as $t);
                }
                Some((lo as i128 + rng.below(span) as i128) as $t)
            }
        }
    )*};
}

range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> Option<f64> {
        assert!(self.start < self.end, "empty range strategy");
        Some(self.start + rng.unit() * (self.end - self.start))
    }
}

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($s,)+) = self;
                $(let $v = $s.generate(rng)?;)+
                Some(($($v,)+))
            }
        }
    };
}

tuple_strategy!(A / a);
tuple_strategy!(A / a, B / b);
tuple_strategy!(A / a, B / b, C / c);
tuple_strategy!(A / a, B / b, C / c, D / d);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g);

/// Collection strategies; mirrors `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from `len` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let n = self.len.clone().generate(rng)?;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

#[doc(hidden)]
pub fn run_cases<S, F>(name: &str, strategy: S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    // FNV-1a over the test name: distinct, reproducible per-test streams.
    let seed = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let mut rng = TestRng::new(seed);
    let mut completed = 0u64;
    let mut rejected = 0u64;
    while completed < cases {
        if rejected > 65_536 {
            panic!("proptest stub: test `{name}` rejected too many cases ({rejected}); loosen the filters");
        }
        let Some(value) = strategy.generate(&mut rng) else {
            rejected += 1;
            continue;
        };
        match test(value) {
            Ok(()) => completed += 1,
            Err(TestCaseError::Reject) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest stub: test `{name}` failed at case {completed}: {msg}")
            }
        }
    }
}

/// The usual imports; mirrors `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy, TestCaseError,
    };

    /// Canonical strategy for "any value of `T`"; mirrors
    /// `proptest::prelude::any`.
    pub fn any<T: crate::Arbitrary>() -> crate::Any<T> {
        crate::Any {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Define property tests; mirrors `proptest::proptest!`.
///
/// Each `fn name(arg in strategy, ...) { body }` item expands to a plain
/// `#[test]`-attributed function running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(
                    stringify!($name),
                    ($($strat,)+),
                    |($($arg,)+)| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Choose uniformly among several strategies for the same value type;
/// mirrors `proptest::prop_oneof!`. Arms are boxed, so heterogeneous
/// strategy types are fine as long as the value types agree.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let arms: ::std::vec::Vec<$crate::BoxedStrategy<_>> =
            vec![$($crate::Strategy::boxed($strat)),+];
        $crate::OneOf { arms }
    }};
}

/// See [`prop_oneof!`].
pub struct OneOf<T> {
    /// The boxed alternatives; one is drawn uniformly per generation.
    pub arms: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Fallible assertion inside `proptest!` bodies; mirrors
/// `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fallible equality assertion; mirrors `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs,
            rhs
        );
    }};
}

/// Fallible inequality assertion; mirrors `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
}

/// Reject the current case without failing; mirrors
/// `proptest::prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{Strategy, TestRng};

    proptest! {
        #[test]
        fn full_domain_inclusive_ranges_do_not_panic(
            a in 0u64..=u64::MAX,
            b in i64::MIN..=i64::MAX,
            c in 0usize..=usize::MAX,
        ) {
            // Any draw is in range by construction; the property under test
            // is that span arithmetic does not wrap to a zero divisor.
            let _ = (a, b, c);
        }

        #[test]
        fn bounded_ranges_respect_bounds(x in 10u32..20, y in -5i64..=5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }
    }

    #[test]
    fn filtered_strategies_retry_until_accepted() {
        let strat = (0u32..100).prop_filter_map("evens", |v| (v % 2 == 0).then_some(v));
        let mut rng = TestRng::new(7);
        for _ in 0..100 {
            let mut v = None;
            while v.is_none() {
                v = strat.generate(&mut rng);
            }
            assert_eq!(v.expect("accepted") % 2, 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = (0u32..1000, any::<bool>());
        let draw = |seed| {
            let mut rng = TestRng::new(seed);
            (0..32)
                .map(|_| strat.generate(&mut rng).expect("unfiltered"))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
