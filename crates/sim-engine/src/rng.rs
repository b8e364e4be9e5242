//! Reproducible randomness: a master seed fanned out into independent
//! streams.
//!
//! Every consumer (a node's mobility trace, the MAC backoff of node 17, the
//! traffic generator…) asks the [`RngFactory`] for a stream keyed by a
//! domain string and an index.  Streams are stable: adding a new consumer
//! or reordering draws in one stream never changes the values another
//! stream produces — the property that makes A/B protocol comparisons fair
//! (same seed ⇒ same mobility and same traffic for every protocol).

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 — tiny, high-quality 64-bit mixer used both as a standalone
/// PRNG (for tests and jitter) and as the seed-derivation hash.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // take the top 53 bits for a uniformly-spaced mantissa
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Incremental FNV-1a 64 — stable across platforms and releases.  The one
/// FNV in the workspace: seed derivation hashes domain names with it, the
/// trace digest (`trace::Fnv64` is this type) folds events with it, and the
/// sweep journal keys configurations with it.  Fields are written
/// fixed-width little-endian.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_i32(&mut self, v: i32) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hasher for maps keyed by the simulator's own dense integer ids (node
/// ids, `(node, request id)` pairs): one multiply-rotate round per integer
/// instead of SipHash, and no per-process random state, so a map behaves
/// the same in every run.  Keys must come from inside the program —
/// nothing here resists crafted collisions.  Byte strings fold through
/// the [`Fnv64`] step (from this hasher's own state, not the FNV offset).
///
/// Iteration order of such a map is still arbitrary as far as callers are
/// concerned: nothing that reaches a trace, a frame or a statistic may
/// depend on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        // the Fx round: the odd multiplier is a bijection on the low bits
        // hashbrown indexes by, and spreads into the high bits it tags by
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = Fnv64(self.0);
        h.write(bytes);
        self.0 = h.0;
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }
}

/// `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// `HashSet` over [`IdHasher`].
pub type IdSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<IdHasher>>;

/// Derive a child seed from `(master, domain, index)`.
#[inline]
pub fn derive_seed(master: u64, domain: &str, index: u64) -> u64 {
    let mut domain_hash = Fnv64::new();
    domain_hash.write(domain.as_bytes());
    let mut mix = SplitMix64::new(
        master ^ domain_hash.finish().rotate_left(17) ^ index.wrapping_mul(0x9E3779B97F4A7C15),
    );
    // a couple of rounds decorrelates adjacent indices thoroughly
    mix.next_u64();
    mix.next_u64()
}

/// One stateless draw in `[0, 1)` keyed by `(master, domain, a)` and then
/// `(sub, b)`: the same key always gives the same value and no stream
/// state is kept, so a subsystem that draws nothing perturbs nothing.
/// The fault plan and the scenario's per-host draws each key theirs with
/// a `sub` label of their own.
#[inline]
pub fn keyed_draw(master: u64, domain: &str, a: u64, sub: &str, b: u64) -> f64 {
    SplitMix64::new(derive_seed(derive_seed(master, domain, a), sub, b)).next_f64()
}

/// Factory handing out independent RNG streams from one master seed.
#[derive(Clone, Copy, Debug)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    pub fn master(&self) -> u64 {
        self.master
    }

    /// A full-strength `StdRng` stream for `(domain, index)`.
    pub fn stream(&self, domain: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.master, domain, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn id_maps_hold_dense_keys_and_repeat_exactly() {
        let build = || {
            let mut m: IdMap<(u32, u32), u32> = IdMap::default();
            for i in 0..5000u32 {
                m.insert((i, i % 7), i);
            }
            m
        };
        let (a, b) = (build(), build());
        assert_eq!(a.len(), 5000);
        assert_eq!(a.get(&(4321, 4321 % 7)), Some(&4321));
        assert_eq!(a.get(&(4321, 0)), None);
        // no per-process state: two maps built alike iterate alike
        assert!(a.iter().eq(b.iter()));
        // sequential ids spread over the low bits the table indexes by
        let low: IdSet<u64> = (0..128u32)
            .map(|i| {
                let mut h = IdHasher::default();
                std::hash::Hasher::write_u32(&mut h, i);
                std::hash::Hasher::finish(&h) & 127
            })
            .collect();
        assert_eq!(low.len(), 128);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn derive_seed_separates_domains_and_indices() {
        let s = 123;
        assert_ne!(derive_seed(s, "mobility", 0), derive_seed(s, "traffic", 0));
        assert_ne!(derive_seed(s, "mobility", 0), derive_seed(s, "mobility", 1));
        assert_eq!(derive_seed(s, "mobility", 5), derive_seed(s, "mobility", 5));
        assert_ne!(derive_seed(1, "mobility", 0), derive_seed(2, "mobility", 0));
    }

    #[test]
    fn keyed_values_match_their_known_answers() {
        // Known answers: a change to the hash, the mixer or the way a
        // literal domain label folds fails here before it moves a fixture.
        assert_eq!(derive_seed(0, "", 0), 0x2651_1044_86af_665b);
        assert_eq!(derive_seed(42, "node", 7), 0x9179_36f9_938a_88f9);
        assert_eq!(derive_seed(u64::MAX, "fault", 1 << 40), 0xba03_34cc_c97b_919c);
        assert_eq!(
            keyed_draw(42, "frame", 3, "fault.sub", 99).to_bits(),
            0x3fd4_398c_cea9_cd7a
        );
        assert_eq!(
            keyed_draw(7, "gps_r", 12, "scenario.sub", 5).to_bits(),
            0x3fd6_06c4_878f_ca00
        );
    }

    #[test]
    fn streams_are_reproducible_and_independent() {
        let f = RngFactory::new(99);
        let a: Vec<u32> = f
            .stream("mac", 3)
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        let b: Vec<u32> = f
            .stream("mac", 3)
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_eq!(a, b);
        let c: Vec<u32> = f
            .stream("mac", 4)
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn adjacent_indices_are_decorrelated() {
        // crude but effective: bitwise difference between adjacent streams'
        // first outputs should be substantial on average
        let f = RngFactory::new(1);
        let mut total = 0u32;
        for i in 0..64 {
            let a = derive_seed(f.master(), "x", i);
            let b = derive_seed(f.master(), "x", i + 1);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((20.0..44.0).contains(&avg), "avg flipped bits {avg}");
    }

    #[test]
    fn splitmix_passes_rough_uniformity() {
        let mut r = SplitMix64::new(2024);
        let mut buckets = [0u32; 16];
        for _ in 0..16_000 {
            buckets[(r.next_u64() >> 60) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket count {b} too skewed");
        }
    }
}
