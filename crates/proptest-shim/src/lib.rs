//! A small, dependency-free property-testing shim.
//!
//! This workspace builds in offline environments where the real
//! [`proptest`](https://crates.io/crates/proptest) crate cannot be
//! downloaded, so this crate vendors the *subset* of its API the
//! workspace's tests use: the [`proptest!`] macro, `prop_assert*`
//! macros, [`Strategy`] with `prop_map`/`prop_filter`, ranges and
//! `any::<T>()` as strategies, [`Just`], `prop_oneof!`, and
//! [`collection::vec`].
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the generated inputs and
//!   the per-test deterministic seed instead of a minimized example.
//! * **Deterministic by default.** Each test function derives its seed
//!   from its own name (override with the `PROPTEST_SEED` environment
//!   variable), so runs are reproducible in CI.

use std::fmt;

/// Runner configuration: how many passing cases each property needs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the property to pass.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` successful cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` and is not counted.
    Reject(String),
    /// An assertion failed: the property is falsified.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> Self {
        Self::Fail(msg.into())
    }

    /// A rejection (assumption unmet) with the given reason.
    #[must_use]
    pub fn reject(msg: impl Into<String>) -> Self {
        Self::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Reject(m) => write!(f, "rejected: {m}"),
            Self::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// The result of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic random source driving generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for test generation.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Derives the deterministic seed for a named test, honouring the
/// `PROPTEST_SEED` environment override.
#[must_use]
pub fn seed_for(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(v) = s.parse::<u64>() {
            return v;
        }
    }
    // FNV-1a over the test path.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A value generator. The shim's strategies are plain generators: no
/// shrinking, `generate` produces one value from the random stream.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Discards generated values failing `pred`, retrying (bounded).
    fn prop_filter<F>(self, whence: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            pred,
        }
    }

    /// Erases the strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn ErasedStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

trait ErasedStrategy<T> {
    fn erased_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn erased_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.erased_generate(rng)
    }
}

/// The [`Strategy::prop_map`] combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// The [`Strategy::prop_filter`] combinator.
pub struct Filter<S, F> {
    inner: S,
    whence: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..100_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected every candidate: {}", self.whence);
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A uniform choice among same-typed strategies (`prop_oneof!`).
pub struct Union<S> {
    options: Vec<S>,
}

impl<S: Strategy> Union<S> {
    /// A union over the given options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    #[must_use]
    pub fn new(options: Vec<S>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<S: Strategy> Strategy for Union<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let k = rng.below(self.options.len() as u64) as usize;
        self.options[k].generate(rng)
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy.
    #[must_use]
    fn arbitrary() -> ArbitraryStrategy<Self>;
}

/// The strategy returned by [`any`].
pub struct ArbitraryStrategy<T> {
    gen_fn: fn(&mut TestRng) -> T,
}

impl<T> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen_fn)(rng)
    }
}

/// The whole-domain strategy for `T` — `any::<u64>()` etc.
#[must_use]
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    T::arbitrary()
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary() -> ArbitraryStrategy<Self> {
                ArbitraryStrategy {
                    gen_fn: |rng| rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary() -> ArbitraryStrategy<Self> {
        ArbitraryStrategy {
            gen_fn: |rng| rng.next_u64() & 1 == 1,
        }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident/$idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A / 0);
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive length window for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    /// The vec strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let len = self.size.lo + rng.below(span as u64 + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and
    /// whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof,
        proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
        TestCaseResult, Union,
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// process) so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Asserts inequality inside a property; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Rejects the current case (it is regenerated, not counted).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// A uniform choice among strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($strategy),+])
    };
}

/// Declares property test functions:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn it_holds(x in 0usize..10, seed in any::<u64>()) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let test_path = concat!(module_path!(), "::", stringify!($name));
            let seed = $crate::seed_for(test_path);
            let mut rng = $crate::TestRng::new(seed);
            let strategy = ($($strategy,)+);
            let mut passed: u32 = 0;
            let mut rejected: u64 = 0;
            while passed < config.cases {
                let case_rng_snapshot = rng.clone();
                let ($($arg,)+) = $crate::Strategy::generate(&strategy, &mut rng);
                let result: $crate::TestCaseResult = (|| {
                    { $body }
                    ::std::result::Result::Ok(())
                })();
                match result {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        assert!(
                            rejected < 65_536,
                            "{test_path}: too many prop_assume! rejections"
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        let _ = case_rng_snapshot;
                        panic!(
                            "{test_path}: property falsified at case {} (seed {seed}):\n{msg}",
                            passed + 1
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(1u16..=2), &mut rng);
            assert!((1..=2).contains(&w));
        }
    }

    #[test]
    fn vec_strategy_respects_length_window() {
        let mut rng = crate::TestRng::new(2);
        let s = collection::vec(0u16..256, 2..5);
        for _ in 0..200 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 256));
        }
    }

    #[test]
    fn map_filter_and_oneof_compose() {
        let mut rng = crate::TestRng::new(3);
        let s = prop_oneof![Just(1u16), Just(2), Just(3)]
            .prop_map(|v| v * 10)
            .prop_filter("even only", |v| v % 20 == 0);
        for _ in 0..50 {
            assert_eq!(Strategy::generate(&s, &mut rng), 20);
        }
    }

    #[test]
    fn deterministic_per_name() {
        assert_eq!(crate::seed_for("a::b"), crate::seed_for("a::b"));
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_runs(x in 0usize..100, flag in any::<bool>()) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            if flag {
                prop_assert_ne!(x, 13);
            }
            prop_assert_eq!(x, x);
        }
    }
}
