//! Offline stand-in for `proptest`.
//!
//! Implements the subset of proptest this workspace's property tests use:
//!
//! * the [`Strategy`] trait with `prop_map`, `boxed`, and implementations
//!   for integer/float `Range`/`RangeInclusive`, tuples (arity 2–8),
//!   [`Just`], `any::<bool>()`, and `prop::collection::vec`;
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//!   `prop_assert!`/`prop_assert_eq!`, and `prop_oneof!`;
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate: no shrinking (a failing case reports
//! its seed and iteration index instead of a minimized input), and value
//! generation is a simple seeded xorshift rather than a recursive tree.
//! Determinism: every test function derives its seed from the test name,
//! or from `PROPTEST_SEED` if set, so failures replay exactly.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// Runner configuration. Only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test function.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Failure value for the `Result` context property-test bodies run in.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property does not hold.
    Fail(String),
    /// The generated input should be skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failed property with an explanation.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (skipped) input.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Deterministic generator handed to strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x5bf0_3635_16f5_5a4d,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
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
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A reference-counted type-erased strategy; cheap to clone.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Uniform choice among equally-weighted strategies (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Always generates (a clone of) one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (rng.unit_f64() as $t) * (hi - lo)
            }
        }
    )*};
}
float_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

/// Whole-`bool` strategy.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// The canonical strategy for `T`'s whole domain.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `prop::` namespace, mirroring the real crate's layout.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Derives the per-test seed: `PROPTEST_SEED` env override, else a stable
/// hash of the test function's name.
pub fn seed_for(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(n) = s.trim().parse::<u64>() {
            return n;
        }
    }
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `body` for `config.cases` seeded cases, labeling any panic with
/// the case index and seed so it can be replayed.
pub fn run_cases(test_name: &str, config: &ProptestConfig, mut body: impl FnMut(&mut TestRng)) {
    let seed = seed_for(test_name);
    for case in 0..config.cases.max(1) {
        let mut rng = TestRng::new(seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "proptest case failed: test={test_name} case={case} seed={seed} \
                 (set PROPTEST_SEED={seed} to replay)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Defines property tests: seeded random inputs drawn from strategies.
#[macro_export]
macro_rules! proptest {
    // With a config attribute.
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    // Without: default config.
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$attr:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            #[allow(unused_imports)]
            use $crate::Strategy as _;
            let config: $crate::ProptestConfig = $config;
            $crate::run_cases(concat!(module_path!(), "::", stringify!($name)), &config, |rng| {
                $(let $arg = ($strat).generate(rng);)+
                // Real proptest bodies run in a Result context so they may
                // `return Ok(())` to reject a case early.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("property failed: {e}");
                }
            });
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Asserts inside a property test (plain `assert!` under the hood).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($arm:expr),+ $(,)? ) => {{
        #[allow(unused_imports)]
        use $crate::Strategy as _;
        $crate::Union::new(vec![ $( ($arm).boxed() ),+ ])
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = i64> {
        (0i64..50).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in -7i64..9, b in 1u8..4, f in 0.5f64..1.5) {
            prop_assert!((-7..9).contains(&a));
            prop_assert!((1..4).contains(&b));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec((small_even(), any::<bool>()), 1..5),
            pick in prop_oneof![Just(1u32), Just(2), Just(3)],
        ) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            for (e, _) in &v {
                prop_assert_eq!(e % 2, 0);
            }
            prop_assert!((1..=3).contains(&pick));
        }
    }

    #[test]
    fn seeds_are_stable_per_name() {
        assert_eq!(crate::seed_for("a::b"), crate::seed_for("a::b"));
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
    }
}
