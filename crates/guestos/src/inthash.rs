//! A small integer hasher for the guest kernel's id-keyed maps.
//!
//! Every key hashed here is a `u64` or a newtype over one (chunk indices,
//! op ids, request ids, file ids), so SipHash's DoS resistance buys
//! nothing and costs a large share of the page-cache hot path. One
//! multiply spreads the key into the high bits and a xor-shift folds them
//! back down, so both the bucket index (low bits) and the control tag
//! (top bits) of the hash table see a mixed value. None of these maps is
//! ever iterated, so the hash function cannot leak into the modelled
//! behaviour.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xorshift hasher for integer keys.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached by non-`u64` keys; fold the bytes in words.
        for word in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by integers under [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = IntHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Keys that share their low bits must still land in different
        // buckets of a small table.
        let buckets: std::collections::HashSet<u64> =
            (0..64u64).map(|i| hash_of(i << 20) & 63).collect();
        assert!(buckets.len() > 32, "{} distinct buckets", buckets.len());
    }
}
