//! A fast hasher for small integer keys.
//!
//! Hot simulator indexes (LLC chunk → node, NVMe `(qid, cid)` →
//! pending command) are keyed by integers the simulation itself
//! generates. They need no HashDoS resistance, so std's SipHash is pure
//! overhead there. [`IntHasher`] is one multiply by a 64-bit odd
//! constant and an xor-fold per integer written; the fold moves the
//! product's well-mixed high bits into the low bits hashbrown uses to
//! pick a bucket.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by integers (or tuples of integers) via [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Multiply-xorshift hasher for integer keys. Not collision-resistant
/// against adversarial keys — only for simulator-generated ids.
#[derive(Clone, Copy, Default, Debug)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // Page numbers arrive in runs; the low bits hashbrown indexes
        // by must still differ between neighbours.
        let low = |k: u64| {
            let mut h = IntHasher::default();
            h.write_u64(k);
            h.finish() & 0x3FF
        };
        let distinct: std::collections::BTreeSet<u64> = (0..256).map(low).collect();
        assert!(distinct.len() > 200, "{} distinct buckets", distinct.len());
    }
}
