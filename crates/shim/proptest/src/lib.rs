//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build environment has no registry access, so this workspace
//! ships a miniature property-testing engine implementing the subset of
//! the `proptest` API its test suites use: [`Strategy`] with
//! `prop_map`, range and tuple strategies, [`any`], collection/option
//! strategies, [`sample::Index`], and the [`proptest!`]/[`prop_compose!`]
//! macros. Cases are generated from a deterministic per-test seed
//! (override with `PROPTEST_SEED`); failures report the case number but
//! are **not shrunk** — rerun with the printed seed to reproduce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name, or from `PROPTEST_SEED` when set.
    pub fn deterministic(name: &str) -> Self {
        if let Ok(seed) = std::env::var("PROPTEST_SEED") {
            if let Ok(seed) = seed.parse::<u64>() {
                return TestRng { state: seed };
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How many cases each property runs.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Clone, Debug)]
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

/// A strategy built from a generation closure (used by
/// [`prop_compose!`]).
pub struct FnStrategy<F>(pub F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The [`any`] strategy for an [`Arbitrary`] type.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Types that can be drawn uniformly from a range strategy.
pub trait RangeValue: Copy {
    /// Uniform draw from `[low, high)`, or from `[low, high]` when
    /// `inclusive`.
    fn draw(rng: &mut TestRng, low: Self, high: Self, inclusive: bool) -> Self;
}

macro_rules! impl_range_value {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn draw(rng: &mut TestRng, low: Self, high: Self, inclusive: bool) -> Self {
                let span = (high as i128) - (low as i128) + inclusive as i128;
                assert!(span > 0, "empty range strategy");
                let offset = (rng.next_u64() as u128 % span as u128) as i128;
                (low as i128 + offset) as $t
            }
        }
    )*};
}

impl_range_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl RangeValue for f64 {
    /// `low..=high` over floats: the upper bound is dense enough that
    /// including it uniformly is indistinguishable, so `inclusive` is
    /// ignored.
    fn draw(rng: &mut TestRng, low: Self, high: Self, _inclusive: bool) -> Self {
        assert!(high > low, "empty range strategy");
        let frac = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + frac * (high - low)
    }
}

impl RangeValue for f32 {
    fn draw(rng: &mut TestRng, low: Self, high: Self, inclusive: bool) -> Self {
        f64::draw(rng, low as f64, high as f64, inclusive) as f32
    }
}

impl<T: RangeValue> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::draw(rng, self.start, self.end, false)
    }
}

impl<T: RangeValue> Strategy for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::draw(rng, *self.start(), *self.end(), true)
    }
}

macro_rules! impl_tuple_strategy {
    ($($S:ident . $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// A size window for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        low: usize,
        high: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange { low: r.start, high: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { low: *r.start(), high: r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { low: n, high: n + 1 }
        }
    }

    /// Generates `Vec`s whose length falls in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.high.saturating_sub(self.size.low).max(1);
            let len = self.size.low + (rng.next_u64() as usize % span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Generates `Some` roughly half the time.
    pub struct OptionStrategy<S>(S);

    /// A strategy for `Option<S::Value>`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Sampling helpers.
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An abstract index into a collection of as-yet-unknown size.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a concrete collection size (panics on 0,
        /// like the real crate).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// Umbrella module mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, proptest, Any, Just,
        ProptestConfig, Strategy, TestRng,
    };
    /// Mirror of `proptest::prelude::prop` (module aliases).
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

/// Asserts a condition inside a property (no shrinking: plain assert).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Declares property tests: each `fn` runs `cases` times over freshly
/// generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr); $(
        $(#[$meta:meta])+
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                let __rng_before = rng.clone();
                let run = |rng: &mut $crate::TestRng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), rng);)*
                    $body
                };
                if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&mut rng)
                })) {
                    eprintln!(
                        "proptest (offline shim): case {}/{} of `{}` failed; no shrinking — \
                         rerun this test alone to reproduce deterministically",
                        __case + 1,
                        config.cases,
                        stringify!($name),
                    );
                    let _ = __rng_before;
                    std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
}

/// Composes named sub-strategies into a derived strategy, mirroring
/// `proptest::prop_compose!`.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($outer:tt)*)($($pat:pat in $strat:expr),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($outer)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy(move |rng: &mut $crate::TestRng| {
                $(let $pat = $crate::Strategy::generate(&($strat), rng);)*
                $body
            })
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples() {
        let mut rng = TestRng::deterministic("ranges_and_tuples");
        let s = (0u8..4, 10u32..=20, any::<bool>());
        for _ in 0..200 {
            let (a, b, _c) = s.generate(&mut rng);
            assert!(a < 4);
            assert!((10..=20).contains(&b));
        }
    }

    #[test]
    fn inclusive_ranges_reach_the_type_maximum() {
        let mut rng = TestRng::deterministic("inclusive_ranges");
        let (mut top_u8, mut top_u64) = (false, false);
        for _ in 0..400 {
            let a = (252u8..=255).generate(&mut rng);
            let b = (u64::MAX - 2..=u64::MAX).generate(&mut rng);
            assert!(a >= 252);
            assert!(b >= u64::MAX - 2);
            top_u8 |= a == u8::MAX;
            top_u64 |= b == u64::MAX;
        }
        assert!(top_u8 && top_u64, "the upper bound is drawn");
    }

    #[test]
    fn vec_sizes_respect_bounds() {
        let mut rng = TestRng::deterministic("vec_sizes");
        let s = crate::collection::vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_end_to_end(x in 0u32..100, flag in any::<bool>(), v in crate::collection::vec(0u8..3, 0..4)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 4, "len {}", v.len());
            let _ = flag;
        }
    }

    prop_compose! {
        fn arb_pair()(a in 0u8..10, b in 0u8..10) -> (u8, u8) {
            (a, b)
        }
    }

    proptest! {
        #[test]
        fn composed_strategy(p in arb_pair()) {
            prop_assert!(p.0 < 10 && p.1 < 10);
        }
    }
}
