//! Fleet-wide constants behind one shared handle.
//!
//! Every host of a fleet is usually built with the same protocol
//! constants and power profile, so a per-host row holds an 8-byte `Arc`
//! to them instead of a copy.  [`share`] points a value equal to a
//! process-wide instance at that instance and allocates for any other:
//! the instance is built once and never changes, and nothing is cached.

use std::sync::Arc;

/// `value` behind a shared handle: a clone of `common` when the two are
/// equal, a fresh allocation otherwise.
pub fn share<T: PartialEq>(value: T, common: &Arc<T>) -> Arc<T> {
    if value == **common {
        Arc::clone(common)
    } else {
        Arc::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_equal_value_shares_the_instance_and_another_does_not() {
        let common = Arc::new(5);
        assert!(Arc::ptr_eq(&share(5, &common), &common));
        let other = share(6, &common);
        assert!(!Arc::ptr_eq(&other, &common));
        assert_eq!(*other, 6);
    }
}
