//! A fast, non-cryptographic hasher for the store's internal maps.
//!
//! The interner hashes every term string on every load and ingest path;
//! the standard `SipHash` default is DoS-resistant but several times
//! slower than needed for maps that are never keyed by attacker-supplied
//! data shapes we must defend against (a snapshot is checksummed before
//! any of its terms reach a map). This is the well-known `FxHash`
//! multiply-rotate scheme: wordwise, allocation-free, and deterministic
//! within a process — but *not* stable across runs or platforms, so it
//! must never leak into on-disk formats.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash scheme (a randomish odd 64-bit constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// How far [`FxHasher::finish`] rotates the last product left. A reader
/// that wants the product's own bits back (the interner indexes by its high
/// bits) rotates right by as much.
pub(crate) const FINISH_ROTATION: u32 = 26;

/// Wordwise multiply-rotate hasher. Not cryptographic; in-memory use only.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = rest;
        }
        if let Some((chunk, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u32::from_le_bytes(*chunk) as u64);
            bytes = rest;
        }
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATION)
    }
}

/// `BuildHasher` for [`FxHasher`] maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn equal_inputs_hash_equal_and_unequal_differ() {
        assert_eq!(hash_of(b"http://x/a"), hash_of(b"http://x/a"));
        assert_ne!(hash_of(b"http://x/a"), hash_of(b"http://x/b"));
        // A prefix must not collide trivially with its extension.
        assert_ne!(hash_of(b"abc"), hash_of(b"abcd"));
    }

    /// hashbrown picks a bucket from the low bits of `finish()`: each key
    /// family an executor table sees — plain ids, ids packed high, packed
    /// pairs with either half fixed, ids spaced by a power of two — must
    /// spread over them.
    #[test]
    fn packed_id_keys_spread_over_the_low_bits() {
        const KEYS: u64 = 65_536;
        type Family = (&'static str, fn(u64) -> u64);
        let families: [Family; 5] = [
            ("i", |i| i),
            ("i << 32", |i| i << 32),
            ("i << 32 | 7", |i| i << 32 | 7),
            ("7 << 32 | i", |i| 7 << 32 | i),
            ("i * 4096", |i| i * 4096),
        ];
        for (name, key) in families {
            let mut seen = vec![false; 1 << 16];
            for i in 0..KEYS {
                let mut h = FxHasher::default();
                h.write_u64(key(i));
                seen[(h.finish() & 0xffff) as usize] = true;
            }
            let distinct = seen.iter().filter(|&&s| s).count() as u64;
            assert!(
                distinct * 2 >= KEYS,
                "{name}: {distinct} distinct low-16-bit values over {KEYS} keys"
            );
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("http://x/term{i}"), i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&format!("http://x/term{i}")), Some(&i));
        }
    }
}
