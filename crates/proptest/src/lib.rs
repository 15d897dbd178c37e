//! Minimal, dependency-free, generation-only stand-in for `proptest`.
//!
//! The build environment has no network access to a crates.io mirror, so the
//! workspace vendors the slice of the proptest API its property tests use:
//! the [`strategy::Strategy`] trait with `prop_map`/`prop_recursive`/`boxed`,
//! range and tuple strategies, [`collection::vec`], [`sample::select`],
//! [`arbitrary::any`], and the `proptest!`/`prop_compose!`/`prop_oneof!`/
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros.
//!
//! Differences from real proptest: inputs are drawn from a deterministic
//! per-test RNG (seeded from the test's module path and name, so failures
//! reproduce across runs) and failing cases are reported but **not shrunk**.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration, case errors, and the deterministic RNG.

    /// Per-test configuration. Only `cases` is meaningful here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — not a failure.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }

        /// A rejection (filtered input) with the given message.
        pub fn reject(msg: String) -> Self {
            TestCaseError::Reject(msg)
        }
    }

    /// Deterministic splitmix64 RNG driving input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// An RNG seeded directly.
        pub fn from_seed(seed: u64) -> Self {
            Self { state: seed }
        }

        /// The deterministic RNG for one named test.
        pub fn for_test(module: &str, name: &str) -> Self {
            // FNV-1a over the fully qualified test name.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in module.bytes().chain([b':', b':']).chain(name.bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// The next 32 random bits.
        pub fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Uniform in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of [`Strategy::Value`].
    ///
    /// Generation-only: `sample` draws one value; there is no shrinking.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Recursive strategies: alternates between `self` (the leaf) and
        /// `recurse` applied to the strategy built so far, `depth` times.
        /// `_desired_size` and `_expected_branch_size` are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(strat).boxed();
                let base = leaf.clone();
                strat = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                    if rng.next_u64() & 1 == 0 {
                        base.sample(rng)
                    } else {
                        deeper.sample(rng)
                    }
                }));
            }
            strat
        }

        /// Type-erases this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.sample(rng)))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
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
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// A strategy built from a sampling closure (used by `prop_compose!`).
    pub struct FnStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> FnStrategy<T> {
        /// Wraps a sampling closure.
        pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
            FnStrategy(Rc::new(f))
        }
    }

    impl<T> Clone for FnStrategy<T> {
        fn clone(&self) -> Self {
            FnStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for FnStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    #[derive(Clone)]
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over the given alternatives. Panics if empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].sample(rng)
        }
    }

    macro_rules! impl_range_strategy_uint {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    impl_range_strategy_uint!(u8, u16, u32, u64, usize);

    macro_rules! impl_range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64 - self.start as i64) as u64;
                    (self.start as i64 + rng.below(span) as i64) as $t
                }
            }
        )*};
    }
    impl_range_strategy_int!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F);
        (A, B, C, D, E, F, G);
        (A, B, C, D, E, F, G, H);
    }

    /// Marker for strategies produced by [`crate::arbitrary::any`].
    pub struct AnyStrategy<T>(pub(crate) PhantomData<fn() -> T>);

    impl<T> Clone for AnyStrategy<T> {
        fn clone(&self) -> Self {
            AnyStrategy(PhantomData)
        }
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! Default strategies per type ([`any`]).

    use crate::strategy::AnyStrategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range generation strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
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

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Full bit-pattern coverage: includes subnormals, infs, NaNs.
            f32::from_bits(rng.next_u32())
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            f64::from_bits(rng.next_u64())
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies ([`vec()`]).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// An inclusive-exclusive size specification for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self { lo: r.start, hi: r.end }
        }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length comes from `size` (a `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod sample {
    //! Sampling from explicit value lists ([`select`]).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The result of [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.items.len() as u64) as usize;
            self.items[idx].clone()
        }
    }

    /// A strategy yielding a uniformly chosen element of `items`.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select over empty list");
        Select { items }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_compose, prop_oneof, proptest};

    /// Namespaced access to strategy modules (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Defines `#[test]` functions that run a body over generated inputs.
///
/// Supports an optional `#![proptest_config(...)]` header, doc comments and
/// attributes on each test, and `pattern in strategy` argument lists.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal: expands each `fn` inside a `proptest!` block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                ::core::module_path!(),
                ::core::stringify!($name),
            );
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                let __outcome = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                })();
                match __outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!("proptest case {}/{} failed: {}", __case + 1, __config.cases, __msg);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Defines a named strategy function from inner strategies and a body.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $aty:ty),* $(,)?)
     ($($pat:pat in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $aty),*) -> impl $crate::strategy::Strategy<Value = $ret> + Clone {
            $crate::strategy::FnStrategy::new(move |__rng: &mut $crate::test_runner::TestRng| {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), __rng);)+
                $body
            })
        }
    };
}

/// Uniform choice among heterogeneous strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Like `assert!`, but fails the current generated case instead of panicking
/// directly (usable only inside `proptest!` bodies).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Like `assert_eq!`, but fails the current generated case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` != `{:?}`: {}", __l, __r, format!($($fmt)*)
        );
    }};
}

/// Rejects the current generated case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_stay_in_bounds() {
        let mut rng = TestRng::from_seed(42);
        let s = prop::collection::vec(3u32..10, 2..5);
        for _ in 0..256 {
            let v = s.sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| (3..10).contains(&x)));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = TestRng::from_seed(1);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..128 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro surface itself: patterns, assume, assert.
        #[test]
        fn macro_surface_works((a, b) in (0u32..100, 0u32..100), v in prop::collection::vec(any::<bool>(), 4)) {
            prop_assume!(a != 99);
            prop_assert!(a < 100, "a = {}", a);
            prop_assert_eq!(v.len(), 4);
            prop_assert_eq!(a + b, b + a, "commutes for {} {}", a, b);
        }
    }

    prop_compose! {
        fn doubled()(v in 0i32..50) -> i32 { v * 2 }
    }

    proptest! {
        /// prop_compose output feeds back into proptest args.
        #[test]
        fn composed_strategy_samples(d in doubled()) {
            prop_assert!(d % 2 == 0 && (0..100).contains(&d));
        }
    }
}
