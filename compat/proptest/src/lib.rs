//! Offline stand-in for `proptest`.
//!
//! Re-implements the subset of the proptest 1.x API this workspace's
//! property tests use: the [`proptest!`] macro, the `prop_assert*` /
//! [`prop_assume!`] family, range / tuple / [`prop_map`](Strategy::prop_map) /
//! [`collection::vec`] strategies, and [`any`].  Failing cases are
//! reported with their case index and a reproducible seed; there is no
//! shrinking (a failing input is printed in full via `Debug` where the
//! assertion message includes it).
//!
//! Case count defaults to 128 per property and can be overridden with
//! the `PROPTEST_CASES` environment variable, exactly like upstream.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod collection;
pub mod strategy;

pub use strategy::{any, Arbitrary, Just, Map, Strategy};

/// The RNG handed to strategies while generating a case.
pub type TestRng = StdRng;

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed — the property is violated.
    Fail(String),
    /// The generated input was rejected by `prop_assume!` — try another.
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// FNV-1a, used to derive a stable per-test master seed from its name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Number of cases to run per property.
pub fn case_count() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

/// Drive one property: run `cases` accepted inputs, tolerating
/// `prop_assume!` rejections up to a global attempt budget.
pub fn run_property(name: &str, mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
    let cases = case_count();
    let max_attempts = cases.saturating_mul(16).max(1024);
    let master = fnv1a(name.as_bytes());
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    while accepted < cases {
        if attempts >= max_attempts {
            panic!(
                "proptest '{name}': too many prop_assume rejections \
                 ({accepted}/{cases} cases after {attempts} attempts)"
            );
        }
        let seed = master ^ (attempts as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        attempts += 1;
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed at case {accepted} (attempt seed {seed:#018x}):\n{msg}");
            }
        }
    }
}

/// The entry-point macro: a block of `#[test]` functions whose
/// arguments are drawn from strategies.
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_property(
                    stringify!($name),
                    |__proptest_rng: &mut $crate::TestRng|
                        -> ::std::result::Result<(), $crate::TestCaseError> {
                        $(let $pat = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `left != right`\n  both: {:?}",
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l != *__r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{TestCaseError, TestRng};

    /// Upstream exposes strategy modules under `prop::` as well.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in -5i32..=5, f in 0.5..1.5f64) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn tuples_and_map_compose(
            v in crate::collection::vec((0u32..50, 0.0..1.0f64).prop_map(|(a, b)| a as f64 + b), 1..20)
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for x in &v {
                prop_assert!((0.0..50.0).contains(x));
            }
        }

        #[test]
        fn assume_filters_inputs(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn any_produces_both_booleans(v in crate::collection::vec(any::<bool>(), 64)) {
            prop_assert_eq!(v.len(), 64);
            prop_assert!(v.iter().any(|&b| b) && v.iter().any(|&b| !b));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_info() {
        crate::run_property("always_fails", |_rng| Err(crate::TestCaseError::fail("nope")));
    }
}
