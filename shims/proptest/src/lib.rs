//! Offline proptest shim.
//!
//! Deterministic random-input property testing: the `proptest!` macro runs
//! each property over `ProptestConfig::cases` inputs drawn from composable
//! [`Strategy`] values, seeded per test name, so failures reproduce exactly.
//! There is no shrinking — a failing case panics with the assertion message
//! directly. Supports the API subset the workspace uses: range and tuple
//! strategies, `any`, `Just`, `prop_oneof!`, `prop_map`,
//! `collection::{vec, btree_set}`, and `option::of`.

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A source of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred` (bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, pred }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy returning a constant.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// [`Strategy::prop_filter`] adapter.
pub struct Filter<S, F> {
    inner: S,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive candidates");
    }
}

/// Union of same-valued strategies (the `prop_oneof!` backing type).
pub struct Union<T> {
    items: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Build from boxed alternatives.
    pub fn new(items: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!items.is_empty(), "prop_oneof! needs at least one arm");
        Union { items }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        let i = (rng.next_u64() % self.items.len() as u64) as usize;
        self.items[i].generate(rng)
    }
}

// --- ranges --------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t { rng.gen_range(self.clone()) }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t { rng.gen_range(self.clone()) }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// --- any -----------------------------------------------------------------

/// Full-domain generation.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self { rng.next_u64() as $t }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // Wide but finite: magnitudes spanning ~1e-3..1e6, signed.
        let mag = rng.gen_range(-3.0f64..6.0);
        let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
        sign * 10f64.powf(mag)
    }
}

/// Strategy for [`Arbitrary`] types.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Generate any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// --- tuples --------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

// --- collections ---------------------------------------------------------

/// Size specification for collection strategies.
#[derive(Debug, Clone)]
pub struct SizeRange(Range<usize>);

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange(r)
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange(*r.start()..r.end() + 1)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange(n..n + 1)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, StdRng, Strategy};
    use rand::Rng;

    /// Vector of values from `element`, size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Set of values from `element`; sizes may fall short of the draw when
    /// duplicates collide (matches proptest's best-effort behavior).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = sample_size(&self.size, rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = sample_size(&self.size, rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    fn sample_size(size: &SizeRange, rng: &mut StdRng) -> usize {
        if size.0.is_empty() {
            size.0.start
        } else {
            rng.gen_range(size.0.clone())
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{StdRng, Strategy};
    use rand::RngCore;

    /// `Some` ~80% of the time (proptest's default weighting), else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(5) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// --- runner --------------------------------------------------------------

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 128 }
    }
}

/// Test-runner internals used by the `proptest!` macro.
pub mod test_runner {
    use super::{SeedableRng, StdRng};

    /// Deterministic per-test generator: seeded from the test's full path so
    /// every run (and every machine) draws identical cases.
    pub fn rng_for(test_name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Run a block of property functions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::rng_for(
                    ::std::concat!(::std::module_path!(), "::", ::std::stringify!($name)),
                );
                for __case in 0..cfg.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

/// Uniformly select among strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let items: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            ::std::vec![$(::std::boxed::Box::new($s)),+];
        $crate::Union::new(items)
    }};
}

/// Property assertion (no shrinking: delegates to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { ::std::assert!($($t)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { ::std::assert_eq!($($t)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { ::std::assert_ne!($($t)*) };
}

/// Skip the current case when the assumption does not hold. Expands to
/// `continue` against the runner's case loop; skipped cases are not
/// regenerated, so heavy use thins effective coverage (as in real proptest
/// when rejects pile up).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// The usual imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = crate::test_runner::rng_for("shim_self_test");
        let s = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::test_runner::rng_for("x");
        let mut b = crate::test_runner::rng_for("x");
        let s = crate::collection::vec(0u8..255, 0..32);
        assert_eq!(
            crate::Strategy::generate(&s, &mut a),
            crate::Strategy::generate(&s, &mut b)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_shape_works(x in 0u16..100, (a, b) in (0u8..4, 0u8..4)) {
            prop_assert!(x < 100);
            prop_assert!(a < 4 && b < 4, "a={a} b={b}");
        }

        #[test]
        fn oneof_and_collections(v in crate::collection::vec(prop_oneof![Just(1u8), Just(2u8)], 0..8)) {
            prop_assert!(v.iter().all(|&x| x == 1 || x == 2));
        }
    }
}
