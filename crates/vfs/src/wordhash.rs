//! Word-at-a-time hashing: the integrity checksum of on-media records and
//! the deterministic hasher of per-operation maps.
//!
//! Both absorb their input as little-endian `u64` words, one FNV-style step
//! per word: xor the word into the state, multiply by an odd constant, then
//! xor-shift the high bits down. For a fixed word each step is a bijection
//! of the state, and for a fixed state it is a bijection of the word. So
//! two inputs of the same length that differ only inside one 8-byte word
//! always end in different 64-bit states: a torn or flipped byte in a
//! checksummed record is always caught, not merely with high probability.
//! A byte-serial FNV-1a gives the same guarantee per byte at eight times
//! the multiplies.
//!
//! A trailing partial word is zero-padded and carries its byte count in its
//! top byte, so inputs that differ only in trailing zero bytes hash apart.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Initial state (the 64-bit FNV offset basis).
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Odd multiplier with dense bits (2^64 / φ), so every word bit reaches the
/// high half of the state in one step.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One absorption step: a bijection in `h` for fixed `w` and in `w` for
/// fixed `h` (xor, odd multiply and xor-shift are each invertible).
#[inline]
fn step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(MUL);
    h ^ (h >> 29)
}

/// Absorbs `bytes` as little-endian words, the tail word tagged with its
/// length.
#[inline]
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

/// The integrity checksum of on-media records (ext's journal commit record,
/// JFFS2's node header).
///
/// # Examples
///
/// ```
/// use vfs::WordSum;
///
/// let a = WordSum::new().word(7).bytes(b"journaled image").finish();
/// let b = WordSum::new().word(7).bytes(b"journaled imagE").finish();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSum(u64);

impl WordSum {
    /// The checksum of nothing.
    #[inline]
    pub fn new() -> Self {
        WordSum(BASIS)
    }

    /// Absorbs one word.
    #[must_use]
    #[inline]
    pub fn word(self, w: u64) -> Self {
        WordSum(step(self.0, w))
    }

    /// Absorbs `bytes`, eight at a time.
    #[must_use]
    #[inline]
    pub fn bytes(self, bytes: &[u8]) -> Self {
        WordSum(absorb(self.0, bytes))
    }

    /// The 64-bit checksum.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The checksum folded to 32 bits (high half xored into the low half).
    /// The fold is not a bijection: a one-word change survives it except
    /// with probability about 2^-32.
    #[inline]
    pub fn finish32(self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

impl Default for WordSum {
    #[inline]
    fn default() -> Self {
        WordSum::new()
    }
}

/// A deterministic [`Hasher`] for in-memory maps keyed by block numbers,
/// inode numbers or paths: [`WordSum`]'s steps, so a key costs one multiply
/// per eight bytes instead of SipHash's rounds, and iteration order is the
/// same in every process. Not meant to resist chosen keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(WordSum);

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = self.0.bytes(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0 = self.0.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.0 = self.0.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = self.0.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = self.0.word(i as u64);
    }
}

/// [`HashMap`] hashed with [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// [`HashSet`] hashed with [`WordHasher`].
pub type WordSet<T> = HashSet<T, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The guarantee the module promises: a change confined to one
        /// 8-byte word of an equal-length input always changes the sum.
        #[test]
        fn one_word_change_always_changes_the_sum(
            bytes in prop::collection::vec(any::<u8>(), 1..300),
            pick in any::<usize>(),
            delta in 1u64..u64::MAX,
            seed in any::<u64>(),
        ) {
            let mut changed = bytes.clone();
            let word = pick % bytes.len().div_ceil(8);
            let span = word * 8..(word * 8 + 8).min(bytes.len());
            for (k, i) in span.enumerate() {
                changed[i] ^= (delta >> (8 * k)) as u8;
            }
            // A delta whose set bytes all fall past a short tail word leaves
            // the input as it was.
            if changed != bytes {
                let sum = |b: &[u8]| WordSum::new().word(seed).bytes(b).finish();
                prop_assert_ne!(sum(&bytes), sum(&changed));
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_hash_apart() {
        let sums: Vec<u64> = (0..20)
            .map(|n| WordSum::new().bytes(&vec![0u8; n]).finish())
            .collect();
        for (i, a) in sums.iter().enumerate() {
            for b in &sums[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn word_maps_iterate_in_the_same_order_every_time() {
        let fill = || {
            let mut m: WordMap<u32, u32> = WordMap::default();
            for k in (0..500).rev() {
                m.insert(k * 7, k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }
}
