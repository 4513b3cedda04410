//! A cheap multiply-rotate hasher for the §5 connection maps.
//!
//! The `(client, server)` connection keys and `u64` path fingerprints
//! hashed by Table 2, the alias extension and Figure 9 come from the
//! simulator, never from an adversary, so the DoS-resistant SipHash that
//! `std` defaults to buys nothing there and costs most of those stages'
//! time. Iteration order of these maps never reaches an output: every
//! consumer sorts by a total key before selecting or accumulating.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (2^64 / golden ratio).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// FxHash-style word hasher: each word is xored into the rotated state,
/// which is then multiplied by [`SEED`]. `finish` rotates the well-mixed
/// high bits down, where the table takes its bucket index.
#[derive(Default)]
pub(crate) struct MulRotHasher(u64);

impl MulRotHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for MulRotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `HashMap` keyed through [`MulRotHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotHasher>>;

/// `HashSet` keyed through [`MulRotHasher`].
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<MulRotHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<MulRotHasher>::default().hash_one(v)
    }

    #[test]
    fn connection_keys_spread_over_low_bits() {
        // Sequential client addresses against one server: the bucket
        // index (low bits) must not collapse.
        let buckets: HashSet<u64> =
            (0..4096u32).map(|c| hash_of(&(0x0a00_0000 + c, 0xc0a8_0001u32)) & 0xfff).collect();
        assert!(buckets.len() > 2_000, "only {} of 4096 buckets hit", buckets.len());
    }
}
