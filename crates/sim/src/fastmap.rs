//! Fast hashing for hot-path lookup tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! lookup — wasted work inside a simulator whose keys are small integers it
//! generated itself. This module provides the well-known Fx hash (one
//! multiply + rotate + xor per word, as used by the Rust compiler's own
//! interner tables), hand-rolled here because the build is offline and
//! cannot take the `rustc-hash` crate as a dependency.
//!
//! Determinism note: only *lookup* behavior changes. Any map whose
//! iteration order can reach scheduling, telemetry ordering, or verdict
//! output must stay `BTreeMap` (or sort before iterating) regardless of
//! hasher — see DESIGN.md §3e.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (derived from the golden ratio; the same constant
/// rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation distance between absorbed words.
const ROTATE: u32 = 5;

/// The Fx hasher: fast, deterministic, not DoS-resistant — fine for keys
/// the simulator itself mints (flow ids, node/port pairs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`]. Drop-in for `std::HashMap` on
/// hot paths whose iteration order never escapes into outputs.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// An empty [`FxHashMap`] with room for `n` entries.
pub fn map_with_capacity<K, V>(n: usize) -> FxHashMap<K, V> {
    HashMap::with_capacity_and_hasher(n, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&u64::MAX), Some(&"max"));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        // No per-instance random state: the same key always hashes the
        // same, in-process and across processes.
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn tuple_and_partial_word_keys_hash() {
        let mut m: FxHashMap<(usize, u32), u64> = FxHashMap::default();
        m.insert((3, 7), 99);
        assert_eq!(m[&(3, 7)], 99);
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]); // exercises the remainder path
        assert_ne!(h.finish(), 0);
    }
}
