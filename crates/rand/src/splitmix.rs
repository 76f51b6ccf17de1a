//! SplitMix64: the canonical seeding generator (Steele, Lea, Flood 2014).

use crate::Rng64;

/// SplitMix64 generator.
///
/// A tiny, very fast generator with a 64-bit state that traverses all 2⁶⁴
/// values. Statistically good enough for seeding and stream derivation; for
/// simulation use [`Xoshiro256PlusPlus`](crate::Xoshiro256PlusPlus), which is
/// seeded from this type exactly as its authors recommend.
///
/// # Example
///
/// ```
/// use pp_rand::{Rng64, SplitMix64};
///
/// let mut sm = SplitMix64::new(7);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// assert_eq!(SplitMix64::new(7).next_u64(), a); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed, including 0, is fine.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// One finalization step of SplitMix64: a strong 64-bit mix of `x`.
    ///
    /// Useful as a standalone hash for deriving seeds from coordinates, e.g.
    /// `mix64(base ^ mix64(index))`.
    pub fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The known-answer vector against the public-domain reference
    // implementation lives in tests/substrate.rs with the other generators'.

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut sm = SplitMix64::new(99);
            (0..32).map(|_| sm.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut sm = SplitMix64::new(99);
            (0..32).map(|_| sm.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn mix64_is_a_bijection_sample() {
        // Injectivity spot check over a contiguous range.
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(SplitMix64::mix64(x)));
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut sm = SplitMix64::new(0);
        assert_ne!(sm.next_u64(), 0);
    }
}
