//! Minimal offline replacement for `proptest`.
//!
//! Keeps the API shape the workspace's property tests use — the
//! `proptest!` macro, range/tuple/collection/sample/string strategies,
//! `prop_assert*`, `prop_assume!`, `ProptestConfig::with_cases` — while
//! simplifying the machinery: cases are generated from a deterministic
//! per-test seed and failures are reported with the failing case index
//! (no shrinking).

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
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

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// `any::<T>()` support: full-domain uniform generation.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    /// Strategy produced by [`crate::any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Uniform full-domain strategy for `T`.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any::default()
}

/// Namespaced strategy constructors (`prop::collection::vec`, ...).
pub mod prop {
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::Range;

        /// Vectors with strategy-driven elements and uniform length in
        /// `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty vec size range");
            VecStrategy { element, size }
        }

        /// Output of [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let len = self.size.start + (rng.next_u64() % span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    pub mod sample {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Uniformly choose one element of a non-empty vector.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select requires options");
            Select { options }
        }

        /// Output of [`select`].
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                let i = (rng.next_u64() % self.options.len() as u64) as usize;
                self.options[i].clone()
            }
        }
    }

    pub mod string {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strings matching a restricted regex dialect: a single
        /// character class with a `{min,max}` repetition, e.g.
        /// `[A-Za-z0-9_.|-]{1,20}`. That is the only form the
        /// workspace's tests use; anything else is an `Err`.
        pub fn string_regex(pattern: &str) -> Result<RegexStrategy, Error> {
            let rest = pattern
                .strip_prefix('[')
                .ok_or_else(|| Error(format!("unsupported pattern {pattern:?}")))?;
            let (class, rep) = rest
                .split_once(']')
                .ok_or_else(|| Error(format!("unterminated class in {pattern:?}")))?;

            let mut alphabet: Vec<char> = Vec::new();
            let chars: Vec<char> = class.chars().collect();
            let mut i = 0;
            while i < chars.len() {
                if i + 2 < chars.len() && chars[i + 1] == '-' {
                    let (lo, hi) = (chars[i], chars[i + 2]);
                    if lo > hi {
                        return Err(Error(format!("bad range {lo}-{hi}")));
                    }
                    for c in lo..=hi {
                        alphabet.push(c);
                    }
                    i += 3;
                } else {
                    alphabet.push(chars[i]);
                    i += 1;
                }
            }
            if alphabet.is_empty() {
                return Err(Error(format!("empty class in {pattern:?}")));
            }

            let rep = rep
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .ok_or_else(|| Error(format!("missing repetition in {pattern:?}")))?;
            let (min, max) = rep
                .split_once(',')
                .ok_or_else(|| Error(format!("bad repetition in {pattern:?}")))?;
            let min: usize = min
                .trim()
                .parse()
                .map_err(|_| Error(format!("bad repetition min in {pattern:?}")))?;
            let max: usize = max
                .trim()
                .parse()
                .map_err(|_| Error(format!("bad repetition max in {pattern:?}")))?;
            if min > max {
                return Err(Error(format!("inverted repetition in {pattern:?}")));
            }
            Ok(RegexStrategy { alphabet, min, max })
        }

        /// Error from an unsupported or malformed pattern.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Error(String);

        impl std::fmt::Display for Error {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl std::error::Error for Error {}

        /// Output of [`string_regex`].
        pub struct RegexStrategy {
            alphabet: Vec<char>,
            min: usize,
            max: usize,
        }

        impl Strategy for RegexStrategy {
            type Value = String;

            fn generate(&self, rng: &mut TestRng) -> String {
                let span = (self.max - self.min + 1) as u64;
                let len = self.min + (rng.next_u64() % span) as usize;
                (0..len)
                    .map(|_| {
                        let i = (rng.next_u64() % self.alphabet.len() as u64) as usize;
                        self.alphabet[i]
                    })
                    .collect()
            }
        }
    }
}

pub mod test_runner {
    /// Deterministic xoshiro256** generator for case generation.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seed from one 64-bit value (SplitMix64 expansion).
        pub fn seed_from_u64(seed: u64) -> TestRng {
            let mut sm = seed;
            let mut next = move || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Per-proptest configuration.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of random cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// Assertion failure: fails the test.
        Fail(String),
        /// `prop_assume!` rejection: skip the case.
        Reject,
    }

    /// Drive one property: `cases` random cases with seeds derived from
    /// the test name, stopping at the first failure.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        // FNV-1a over the test name: stable per-test seed base.
        let mut base: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            base ^= b as u64;
            base = base.wrapping_mul(0x0000_0100_0000_01B3);
        }

        let mut rejects = 0u64;
        let max_rejects = config.cases as u64 * 16;
        let mut executed = 0u32;
        let mut attempt = 0u64;
        while executed < config.cases {
            let mut rng =
                TestRng::seed_from_u64(base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            match case(&mut rng) {
                Ok(()) => executed += 1,
                Err(TestCaseError::Reject) => {
                    rejects += 1;
                    assert!(
                        rejects <= max_rejects,
                        "proptest '{name}': too many prop_assume! rejections \
                         ({rejects})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest '{name}' failed at case {executed} \
                         (attempt {attempt}):\n{msg}"
                    );
                }
            }
            attempt += 1;
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(...)]` followed by `#[test] fn name(bindings)`
/// items whose arguments are `ident in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            (<$crate::test_runner::ProptestConfig as ::std::default::Default>::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), __rng);)+
                (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Assert inside a property body; failure reports the case inputs'
/// seed context instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`: {}",
            __l,
            __r,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Reject the current case (it is regenerated, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 5u8..10, y in -3i32..3, f in 0.25f64..0.75) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-3..3).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0u8..4, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn prop_map_applies(doubled in (0u32..50).prop_map(|x| x * 2)) {
            prop_assert!(doubled % 2 == 0);
            prop_assert!(doubled < 100);
        }

        #[test]
        fn select_draws_from_options(c in prop::sample::select(vec![1u8, 3, 5])) {
            prop_assert!([1, 3, 5].contains(&c), "got {}", c);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u8..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn regex_strings_match_class(s in prop::string::string_regex("[a-c0-1]{2,5}").unwrap()) {
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.chars().all(|c| "abc01".contains(c)));
        }

        #[test]
        fn tuples_and_any(pair in (any::<u8>(), 1u64..4), seed in any::<u64>()) {
            let (b, n) = pair;
            prop_assert!(u64::from(b) <= 255);
            prop_assert!((1..4).contains(&n));
            let _ = seed;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let s = 0u64..1000;
        let mut a = crate::test_runner::TestRng::seed_from_u64(99);
        let mut b = crate::test_runner::TestRng::seed_from_u64(99);
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        crate::test_runner::run(&ProptestConfig::with_cases(8), "always_fails", |_rng| {
            Err(crate::test_runner::TestCaseError::Fail("nope".into()))
        });
    }
}
