//! A fixed, fast hasher for the count engine's state interning.
//!
//! [`CountSimulation`](crate::CountSimulation) interns every state it
//! meets, and `P_LL`'s `O(log n)` states keep it meeting new ones, so the
//! hash of a derived-`Hash` state sits on the compile path of every first
//! encounter of a state pair. std's SipHash-1-3 spends most of that time on
//! flood resistance the engine does not need: its keys are protocol
//! states, not outside input. [`StateHasher`] is FxHash's multiply-rotate
//! step, one multiply per word written.
//!
//! Ids are assigned in insertion order, never from a hash, and interning
//! consumes no randomness, so the hasher cannot change a trajectory.

use std::hash::Hasher;

/// FxHash's odd multiplier (⌊2^64 / φ⌋ made odd, as rustc uses it).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over the words a state's `Hash` writes; used
/// through `BuildHasherDefault`, so every map hashes alike.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StateHasher {
    hash: u64,
}

impl StateHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for StateHasher {
    /// Whole 8-byte words little-endian, then the tail (under 8 bytes) as
    /// one word with its length in the top byte, so tails that differ only
    /// by trailing zeros hash apart.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            buf[7] = tail.len() as u8;
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<StateHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_through_every_integer_write() {
        assert_eq!(hash_of(&7u8), hash_of(&7u8));
        assert_eq!(hash_of(&70_000u32), hash_of(&70_000u32));
        assert_eq!(hash_of(&u64::MAX), hash_of(&u64::MAX));
        assert_eq!(
            hash_of(&(true, 3u8, 9u32, 1u64 << 40)),
            hash_of(&(true, 3u8, 9u32, 1u64 << 40))
        );
        // Each integer write is one zero-extended word, whatever its width.
        let mut narrow = StateHasher::default();
        narrow.write_u8(200);
        let mut wide = StateHasher::default();
        wide.write_u64(200);
        assert_eq!(narrow.finish(), wide.finish());
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
    }

    #[test]
    fn byte_slices_of_every_tail_length_hash_consistently() {
        let bytes: Vec<u8> = (1..=27).collect();
        for len in 0..=bytes.len() {
            let key = bytes[..len].to_vec();
            assert_eq!(hash_of(&key), hash_of(&key.clone()), "len {len}");
            let text = String::from_utf8(key.clone()).expect("ascii");
            assert_eq!(hash_of(&text), hash_of(text.as_str()), "len {len}");
            // A raw `write` of one slice equals writing it in word-aligned
            // pieces, and a trailing zero byte changes the hash.
            let mut whole = StateHasher::default();
            whole.write(&key);
            let cut = len / 8 * 8;
            let mut split = StateHasher::default();
            split.write(&key[..cut]);
            split.write(&key[cut..]);
            assert_eq!(whole.finish(), split.finish(), "len {len}");
            let mut padded = StateHasher::default();
            padded.write(&[key.as_slice(), &[0]].concat());
            assert_ne!(whole.finish(), padded.finish(), "len {len}");
        }
    }
}
