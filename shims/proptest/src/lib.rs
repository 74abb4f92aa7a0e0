//! Offline shim for `proptest`: a miniature property-testing engine.
//!
//! Implements the API surface this workspace uses — `proptest!`,
//! `prop_oneof!`, `prop_assert!`/`prop_assert_eq!`, `Just`, `any`,
//! integer/float ranges, regex-subset string strategies, tuples,
//! `collection::vec`, `option::of`, `prop_map`, and `prop_recursive` —
//! with random generation but no shrinking. Failures report the failing
//! inputs and the case seed so a run can be reproduced by fixing
//! `PROPTEST_CASES`/seed arithmetic (cases are deterministic per test).

use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

// ------------------------------------------------------------------ RNG

/// Deterministic test RNG (xoshiro256** seeded via splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

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

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) < n.wrapping_neg() % n {
                continue;
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ------------------------------------------------------------- Strategy

/// A generator of values of one type.
pub trait Strategy {
    type Value: fmt::Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase this strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }

    /// Build recursive values: `branch` receives a strategy for the
    /// sub-value and returns the composite strategy. `depth` bounds the
    /// recursion depth; the remaining size hints are accepted for API
    /// compatibility but unused.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _branch_size: u32,
        branch: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        let base = self.boxed();
        Recursive {
            base,
            depth,
            branch: Rc::new(move |inner| branch(inner).boxed()),
        }
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: self.inner.clone(),
        }
    }
}

impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    depth: u32,
    branch: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
}

impl<T> Clone for Recursive<T> {
    fn clone(&self) -> Self {
        Recursive {
            base: self.base.clone(),
            depth: self.depth,
            branch: self.branch.clone(),
        }
    }
}

impl<T: fmt::Debug + 'static> Strategy for Recursive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let levels = rng.below(u64::from(self.depth) + 1) as u32;
        let mut strat = self.base.clone();
        for _ in 0..levels {
            strat = (self.branch)(strat);
        }
        strat.generate(rng)
    }
}

/// Weighted union of strategies; built by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! weights must not all be zero");
        Union { arms, total }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < u64::from(*w) {
                return s.generate(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weights summed")
    }
}

// ----------------------------------------------------------- primitives

/// A type with a default generation strategy; see [`any`].
pub trait Arbitrary: fmt::Debug + Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for any value of `T` (edge-biased for integers).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                // Bias toward boundary values, like real proptest's
                // binary-search-shrunk distributions tend to surface.
                match rng.below(8) {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    3 => 1 as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite values only (NaN breaks round-trip equality laws that
        // the real crate's default `any::<f64>()` also avoids by default).
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.0,
            4 => f64::MAX,
            5 => f64::MIN_POSITIVE,
            _ => loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    return v;
                }
            },
        }
    }
}

macro_rules! range_strategy {
    ($($t:ty => $wide:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(rng.below(span) as $wide) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(rng.below(span + 1) as $wide) as $t
            }
        }
    )*};
}
range_strategy!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// --------------------------------------------------- string strategies

/// `&str` patterns act as regex-subset string strategies, supporting
/// literals, `.`, character classes (`[a-c x]`, ranges and literals),
/// and the quantifiers `{m}`, `{m,n}`, `?`, `*`, `+` (star/plus capped
/// at 8 repetitions).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

#[derive(Debug, Clone)]
enum Atom {
    Literal(char),
    AnyChar,
    Class(Vec<(char, char)>),
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let atom = match c {
            '.' => Atom::AnyChar,
            '[' => {
                let mut set = Vec::new();
                loop {
                    let c = chars.next().unwrap_or_else(|| {
                        panic!("unterminated character class in pattern `{pattern}`")
                    });
                    if c == ']' {
                        break;
                    }
                    let lo = if c == '\\' {
                        chars.next().expect("escape in class")
                    } else {
                        c
                    };
                    if chars.peek() == Some(&'-') {
                        chars.next();
                        let hi = match chars.next() {
                            Some(']') => {
                                // Trailing `-` is a literal.
                                set.push((lo, lo));
                                set.push(('-', '-'));
                                break;
                            }
                            Some(h) => h,
                            None => panic!("unterminated range in pattern `{pattern}`"),
                        };
                        set.push((lo, hi));
                    } else {
                        set.push((lo, lo));
                    }
                }
                Atom::Class(set)
            }
            '\\' => Atom::Literal(chars.next().expect("dangling escape")),
            c => Atom::Literal(c),
        };
        // Quantifier?
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse::<usize>().expect("quantifier min"),
                        n.trim().parse::<usize>().expect("quantifier max"),
                    ),
                    None => {
                        let n = spec.trim().parse::<usize>().expect("quantifier");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            _ => (1, 1),
        };
        let count = min + rng.below((max - min + 1) as u64) as usize;
        for _ in 0..count {
            out.push(sample_atom(&atom, rng));
        }
    }
    out
}

fn sample_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Literal(c) => *c,
        // `.`: mostly printable ASCII, occasionally an arbitrary scalar
        // (exercises multi-byte encodings without drowning in them).
        Atom::AnyChar => {
            if rng.below(10) == 0 {
                loop {
                    if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                        if c != '\u{0}' {
                            return c;
                        }
                    }
                }
            } else {
                char::from_u32(0x20 + rng.below(0x5F) as u32).expect("printable ascii")
            }
        }
        Atom::Class(set) => {
            let total: u64 = set
                .iter()
                .map(|(lo, hi)| (*hi as u64) - (*lo as u64) + 1)
                .sum();
            let mut pick = rng.below(total);
            for (lo, hi) in set {
                let span = (*hi as u64) - (*lo as u64) + 1;
                if pick < span {
                    return char::from_u32(*lo as u32 + pick as u32).expect("class char");
                }
                pick -= span;
            }
            unreachable!("class spans summed")
        }
    }
}

// ---------------------------------------------------------- containers

pub mod collection {
    use super::*;

    /// Bounds for collection sizes; converts from ranges and constants.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        pub min: usize,
        /// Inclusive.
        pub max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Vectors of values from `elem`, sized within `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let n = self.size.min + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::*;

    /// `Some` three times out of four, like the real crate's default.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// -------------------------------------------------------------- tuples

macro_rules! tuple_strategy {
    ($(($($S:ident $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

// -------------------------------------------------------------- runner

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A rejected test case (from `prop_assert!` and friends).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

#[doc(hidden)]
pub fn __base_seed(test_name: &str) -> u64 {
    // Stable per test; overridable for reproduction.
    let env = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok());
    if let Some(s) = env {
        return s;
    }
    // FNV-1a over the test name.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[doc(hidden)]
pub fn __report_failure(test: &str, case: u32, seed: u64, inputs: &str, detail: &str) -> ! {
    panic!(
        "proptest `{test}` failed at case {case} (seed {seed}).\n\
         inputs:\n{inputs}\n{detail}\n\
         (re-run with PROPTEST_SEED={seed} to reproduce this sequence)"
    );
}

/// The proptest entry macro: wraps property functions into `#[test]`s.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let base = $crate::__base_seed(stringify!($name));
            for case in 0..config.cases {
                let seed = base.wrapping_add(u64::from(case));
                let mut rng = $crate::TestRng::seed_from_u64(seed);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                let inputs = {
                    let mut s = String::new();
                    $(s.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &$arg
                    ));)*
                    s
                };
                let outcome: ::std::thread::Result<
                    ::std::result::Result<(), $crate::TestCaseError>
                > = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    },
                ));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => $crate::__report_failure(
                        stringify!($name), case, seed, &inputs, &format!("assertion: {e}"),
                    ),
                    Err(panic) => {
                        let detail: &str = panic
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| panic.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic>");
                        $crate::__report_failure(
                            stringify!($name), case, seed, &inputs, &format!("panic: {detail}"),
                        )
                    }
                }
            }
        }
    )*};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "assertion failed: left != right")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if *__l == *__r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "{}\n  both: {:?}",
                        format!($($fmt)+),
                        __l
                    )));
                }
            }
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "assertion failed: left == right")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "{}\n  left: {:?}\n right: {:?}",
                        format!($($fmt)+),
                        __l,
                        __r
                    )));
                }
            }
        }
    };
}

/// The union-strategy macro: `prop_oneof![s1, s2]` or weighted
/// `prop_oneof![3 => s1, 1 => s2]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

pub mod prelude {
    /// The real crate exposes itself through its prelude as `proptest`;
    /// mirror that so `proptest::collection::vec(...)` resolves inside
    /// `use proptest::prelude::*;` files even without an extern line.
    pub use crate as proptest;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_maps_generate() {
        let mut rng = TestRng::seed_from_u64(1);
        let s = (0..10u64).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn union_respects_weights_roughly() {
        let mut rng = TestRng::seed_from_u64(2);
        let s = prop_oneof![3 => Just(1u8), 1 => Just(2u8)];
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!((650..900).contains(&ones), "got {ones}");
    }

    #[test]
    fn pattern_strings_match_shape() {
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = "[a-c]{1,3}".generate(&mut rng);
            assert!((1..=3).contains(&s.chars().count()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let t = ".{0,40}".generate(&mut rng);
            assert!(t.chars().count() <= 40);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            // Generated, never looked at: only the shape is checked.
            Leaf(#[allow(dead_code)] u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let s = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 4, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(depth(&s.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro machinery itself works end to end.
        #[test]
        fn addition_commutes(a in 0i64..1000, b in 0i64..1000) {
            prop_assert_eq!(a + b, b + a);
            prop_assert!(a + b >= a, "non-negative addend");
        }
    }

    #[test]
    fn vec_and_option_strategies() {
        let mut rng = TestRng::seed_from_u64(5);
        let vs = crate::collection::vec(0u8..10, 2..5);
        for _ in 0..100 {
            let v = vs.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let os = crate::option::of(Just(7u8));
        let somes = (0..1000)
            .filter(|_| os.generate(&mut rng).is_some())
            .count();
        assert!((650..850).contains(&somes));
    }
}
