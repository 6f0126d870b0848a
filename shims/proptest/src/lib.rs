//! Vendored stand-in for the `proptest` crate (offline build).
//!
//! Implements the subset of the proptest 1.x API this workspace uses:
//! the [`Strategy`] trait with `prop_map` / `prop_recursive` / `boxed`,
//! [`Just`](strategy::Just), `any::<T>()`, integer-range and regex-literal strategies,
//! tuple strategies, `collection::{vec, btree_set}`, the `prop_oneof!`
//! union macro, and the `proptest!` test macro with `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` and `ProptestConfig::with_cases`.
//!
//! Differences from upstream, deliberately accepted:
//! * generation is driven by a fixed-seed deterministic RNG, so failures
//!   reproduce across runs without a persistence file;
//! * there is no shrinking — a failing case reports the assertion message
//!   and its case index instead of a minimized input;
//! * `prop_recursive` unrolls recursion eagerly to the requested depth
//!   rather than tracking a size budget.

use std::sync::Arc;

pub mod test_runner {
    //! Config, error type, RNG, and the case-running loop.

    /// Deterministic 64-bit generator (SplitMix64) driving all strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Unbiased uniform sample in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            let zone = u64::MAX - (u64::MAX % n);
            loop {
                let x = self.next_u64();
                if x < zone {
                    return x % n;
                }
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the whole test fails.
        Fail(String),
        /// A `prop_assume!` precondition did not hold; the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration. Only `cases` is consulted; the other knobs
    /// exist so `..ProptestConfig::default()` spreads keep compiling.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Upper bound on skipped (`prop_assume!`) cases before giving up.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig {
                cases,
                ..ProptestConfig::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    /// Runs one closure per generated case until `config.cases` pass.
    pub struct TestRunner {
        config: ProptestConfig,
        rng: TestRng,
    }

    impl TestRunner {
        pub fn new(config: ProptestConfig) -> TestRunner {
            // Fixed seed: deterministic runs, reproducible failures.
            TestRunner {
                config,
                rng: TestRng::new(0xC0FF_EE11_D15E_A5E5),
            }
        }

        /// `body` generates its inputs from the provided RNG and returns
        /// `Err(Fail)` to fail the test or `Err(Reject)` to discard the case.
        pub fn run<F>(&mut self, mut body: F)
        where
            F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        {
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < self.config.cases {
                match body(&mut self.rng) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject(_)) => {
                        rejected += 1;
                        if rejected > self.config.max_global_rejects {
                            panic!(
                                "proptest: too many rejected cases ({rejected}) \
                                 after {passed} passes"
                            );
                        }
                    }
                    Err(TestCaseError::Fail(msg)) => {
                        panic!("proptest case {} failed: {msg}", passed + rejected);
                    }
                }
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and the combinators built on it.

    use super::test_runner::TestRng;
    use std::sync::Arc;

    /// A recipe for generating values of type `Self::Value`.
    ///
    /// Object-safe core (`generate`) plus sized combinators, so trait
    /// objects behind [`BoxedStrategy`] keep working.
    pub trait Strategy {
        type Value;

        /// Produce one value from the RNG stream.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Build a recursive strategy: `recurse` receives a strategy for
        /// the previous level and wraps it one level deeper. Upstream
        /// tracks a size budget; this shim unrolls `depth` levels eagerly,
        /// unioning each level with the leaf so shallow values stay common.
        /// `_desired_size` and `_expected_branch` are accepted for
        /// signature compatibility only.
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Clone + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let mut level: BoxedStrategy<Self::Value> = self.clone().boxed();
            for _ in 0..depth {
                let deeper = recurse(level).boxed();
                level = Union::new(vec![self.clone().boxed(), deeper]).boxed();
            }
            level
        }

        /// Type-erase behind a cheaply clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A clonable, type-erased strategy handle.
    pub struct BoxedStrategy<T>(pub(crate) Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `s.prop_map(f)`.
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among alternatives (backs `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    // Integer range strategies: `0i64..8`, `1usize..4`, ...
    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.abs_diff(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_range_strategy_signed {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.start.abs_diff(self.end);
                    self.start.wrapping_add(rng.below(span as u64) as $t)
                }
            }
        )*};
    }

    impl_range_strategy_signed!(i8, i16, i32, i64, isize);

    // Tuple strategies: `(0i64..8, 0i64..8)`.
    macro_rules! impl_tuple_strategy {
        ($($S:ident/$v:ident),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($S,)+) = self;
                    $(let $v = $S.generate(rng);)+
                    ($($v,)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);

    /// Strategy for string literals: a small regex subset of the form
    /// `[class]{m,n}` where `class` is literal chars and `x-y` ranges
    /// (unicode escapes are already resolved by the Rust literal).
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let (alphabet, min, max) = parse_char_class_pattern(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }
    }

    /// Parses `[class]{m,n}` into (expanded alphabet, m, n). Panics on
    /// anything outside that subset — this shim is not a regex engine.
    fn parse_char_class_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
        let bad =
            |why: &str| -> ! { panic!("unsupported string strategy pattern {pattern:?}: {why}") };
        let mut chars = pattern.chars().peekable();
        if chars.next() != Some('[') {
            bad("expected leading '['");
        }
        // Collect the raw class body so `x-y` can be disambiguated from a
        // literal '-' (proptest's own classes put literal '-' first/last;
        // our greedy scan treats 'a-b' as a range whenever it appears).
        let mut body: Vec<char> = Vec::new();
        loop {
            match chars.next() {
                Some(']') => break,
                Some('\\') => body.push(chars.next().unwrap_or_else(|| bad("dangling escape"))),
                Some(c) => body.push(c),
                None => bad("unterminated character class"),
            }
        }
        let mut alphabet: Vec<char> = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                let (lo, hi) = (body[i] as u32, body[i + 2] as u32);
                if lo > hi {
                    bad("descending range");
                }
                alphabet.extend((lo..=hi).filter_map(char::from_u32));
                i += 3;
            } else {
                alphabet.push(body[i]);
                i += 1;
            }
        }
        if alphabet.is_empty() {
            bad("empty character class");
        }
        if chars.next() != Some('{') {
            bad("expected '{m,n}' repetition");
        }
        let rest: String = chars.collect();
        let rest = rest.strip_suffix('}').unwrap_or_else(|| bad("missing '}'"));
        let (m, n) = match rest.split_once(',') {
            Some((m, n)) => (
                m.trim().parse().unwrap_or_else(|_| bad("bad min")),
                n.trim().parse().unwrap_or_else(|_| bad("bad max")),
            ),
            None => {
                let k = rest.trim().parse().unwrap_or_else(|_| bad("bad count"));
                (k, k)
            }
        };
        if m > n {
            bad("min > max");
        }
        (alphabet, m, n)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn char_class_parsing() {
            let (alpha, m, n) = parse_char_class_pattern("[a-z]{0,6}");
            assert_eq!(alpha.len(), 26);
            assert_eq!((m, n), (0, 6));
            let (alpha, m, n) = parse_char_class_pattern("[ -~\u{e0}-\u{ff}]{0,12}");
            assert_eq!(alpha.len(), 95 + 32);
            assert_eq!((m, n), (0, 12));
        }

        #[test]
        fn string_strategy_respects_bounds() {
            let mut rng = TestRng::new(1);
            for _ in 0..100 {
                let s = "[a-z]{2,4}".generate(&mut rng);
                assert!((2..=4).contains(&s.chars().count()), "{s:?}");
                assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            }
        }
    }
}

/// `any::<T>()` — whole-domain generation with a bias toward boundary
/// values, mirroring upstream's edge-case weighting for integers.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // 1-in-4 draws come from the boundary set.
                    if rng.below(4) == 0 {
                        const EDGES: [$t; 5] =
                            [0, 1, <$t>::MAX, <$t>::MIN, <$t>::MAX - 1];
                        EDGES[rng.below(EDGES.len() as u64) as usize]
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! `proptest::collection::{vec, btree_set}`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `BTreeSet` aiming for a cardinality drawn from `size`; duplicate
    /// draws may leave it smaller, as with upstream's implementation.
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        assert!(size.start < size.end, "empty size range");
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let target = self.size.start + rng.below(span) as usize;
            let mut out = BTreeSet::new();
            // Bounded attempts: small domains may not reach `target`.
            for _ in 0..target.saturating_mul(4).max(8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

pub mod prelude {
    //! `use proptest::prelude::*;` — everything the test macros reference.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

pub use strategy::{BoxedStrategy, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError};

// Re-exported so `BoxedStrategy` construction in `prop_recursive` has a
// stable path from the macros below.
#[doc(hidden)]
pub fn __boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
    BoxedStrategy(Arc::new(s))
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::__boxed($arm)),+])
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!(
                    "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}",
                    left, right
                )),
            );
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!(
                    "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}\n{}",
                    left, right, format!($($fmt)+)
                )),
            );
        }
    }};
}

/// Discard the current case (does not count toward `cases`) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// The test-defining macro. Mirrors upstream syntax: an optional
/// `#![proptest_config(...)]` header, then `fn` items whose arguments are
/// `pattern in strategy` pairs; attributes (including `#[test]`) pass
/// through untouched.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($parm:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($config);
            runner.run(|__proptest_rng| {
                $(
                    let $parm =
                        $crate::strategy::Strategy::generate(&($strategy), __proptest_rng);
                )+
                let __proptest_body =
                    || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                __proptest_body()
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 0i64..10, (a, b) in (0u64..5, 1usize..3)) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(a < 5);
            prop_assert_eq!(b.min(2), b);
        }

        #[test]
        fn assume_rejects(x in 0i64..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }

    proptest! {
        #[test]
        fn recursion_terminates(v in arb_nested()) {
            prop_assert!(depth(&v) <= 4, "depth {} too deep", depth(&v));
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Nested {
        Leaf(i64),
        Node(Vec<Nested>),
    }

    fn depth(v: &Nested) -> usize {
        match v {
            Nested::Leaf(_) => 1,
            Nested::Node(vs) => 1 + vs.iter().map(depth).max().unwrap_or(0),
        }
    }

    fn arb_nested() -> impl Strategy<Value = Nested> {
        let leaf = prop_oneof![any::<i64>().prop_map(Nested::Leaf), Just(Nested::Leaf(0)),];
        leaf.prop_recursive(3, 24, 4, |inner| {
            crate::collection::vec(inner, 0..4).prop_map(Nested::Node)
        })
    }
}
