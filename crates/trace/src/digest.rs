//! Canonical FNV-1a 64 digest over an event stream.
//!
//! FNV-1a is order-sensitive, which is exactly what a *replay* digest
//! needs: two runs are equal only if they produced the same events in the
//! same order.  The encoding is fixed-width little-endian per field with a
//! one-byte tag per event kind (see [`crate::event`]), so the digest is
//! independent of any textual rendering.

use std::fmt;

/// The incremental FNV-1a 64 hasher, owned by `sim_engine::rng`.
pub use sim_engine::Fnv64;

/// The digest of a finished trace.  Displays as 16 hex digits — the form
/// stored in the golden fixtures under `tests/golden/`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceDigest(pub u64);

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceDigest {
    /// Parse the 16-hex-digit form written by `Display`.
    pub fn parse(s: &str) -> Option<TraceDigest> {
        let s = s.trim();
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceDigest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values for FNV-1a 64.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h2 = Fnv64::new();
        h2.write(b"foobar");
        assert_eq!(h2.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn digest_roundtrips_through_display() {
        let d = TraceDigest(0x0123_4567_89ab_cdef);
        assert_eq!(d.to_string(), "0123456789abcdef");
        assert_eq!(TraceDigest::parse(&d.to_string()), Some(d));
        assert_eq!(TraceDigest::parse("xyz"), None);
        assert_eq!(TraceDigest::parse("0123"), None);
    }

    #[test]
    fn write_order_matters() {
        let mut a = Fnv64::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Fnv64::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }
}
