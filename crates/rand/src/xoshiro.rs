//! Xoshiro256++: the default simulation generator (Blackman & Vigna 2019).

use crate::{Rng64, SplitMix64};

/// Xoshiro256++ generator: 256-bit state, period 2²⁵⁶ − 1, excellent
/// statistical quality, ~1 ns per draw.
///
/// This is the workhorse RNG behind the uniformly random scheduler. Seed it
/// with [`seed_from_u64`](Xoshiro256PlusPlus::seed_from_u64) (expands the seed
/// through SplitMix64, as the algorithm authors recommend) or with a full
/// 256-bit state via [`from_state`](Xoshiro256PlusPlus::from_state).
///
/// # Example
///
/// ```
/// use pp_rand::{Rng64, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(2024);
/// let x = rng.below(1_000_000);
/// assert!(x < 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seeds the full 256-bit state by running SplitMix64 on `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is the single invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Builds a generator from an explicit 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the one invalid xoshiro state).
    pub fn from_state(state: [u64; 4]) -> Self {
        assert!(state != [0, 0, 0, 0], "xoshiro256++ state must be non-zero");
        Self { s: state }
    }

    /// Advances the state by 2¹²⁸ draws ("jump"), yielding a generator whose
    /// stream is disjoint from the original for any realistic run length.
    /// Used to derive parallel sub-streams from one master seed.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut t = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    t[0] ^= self.s[0];
                    t[1] ^= self.s[1];
                    t[2] ^= self.s[2];
                    t[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = t;
    }
}

impl Rng64 for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The known-answer vector against the authors' reference C
    // implementation lives in tests/substrate.rs with the other generators'.

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(5);
        for _ in 0..128 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn jump_produces_disjoint_prefix() {
        let mut base = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut jumped = base.clone();
        jumped.jump();
        let a: Vec<u64> = (0..1024).map(|_| base.next_u64()).collect();
        let b: Vec<u64> = (0..1024).map(|_| jumped.next_u64()).collect();
        let overlap = a.iter().filter(|x| b.contains(x)).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_state_rejected() {
        Xoshiro256PlusPlus::from_state([0; 4]);
    }

    #[test]
    fn equidistribution_smoke_bytes() {
        // Count set bits over many words: should be very close to half.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let ones: u64 = (0..20_000)
            .map(|_| rng.next_u64().count_ones() as u64)
            .sum();
        let total = 20_000u64 * 64;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.005, "bit fraction {frac}");
    }
}
