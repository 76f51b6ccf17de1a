//! Uniform state export/import across the crate's generators.
//!
//! Every generator here already exposes an inherent
//! `state() -> [u64; K]` / `from_state([u64; K])` pair; this module erases
//! the per-type `K` behind one trait so checkpointing code (the engine
//! snapshot format, sweep shard journals) can persist and restore *any*
//! generator through a uniform word-vector interface.
//!
//! The contract is exact: a generator rebuilt from
//! [`RngSnapshot::export_state`] output produces the identical draw sequence
//! the original would have produced from that point on — draw-for-draw, not
//! merely in distribution. The known-answer tests below pin this mid-stream.

use crate::{SeedSequence, SplitMix64, Xoshiro256PlusPlus};

/// Checkpointable generator state: word-vector export and fallible import.
///
/// Unlike the inherent `from_state` constructors (which panic on invalid
/// states, a programmer error), [`import_state`](Self::import_state) returns
/// `None` — deserialization of external bytes must never panic.
///
/// # Example
///
/// ```
/// use pp_rand::{Rng64, RngSnapshot, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
/// rng.next_u64();
/// let words = rng.export_state();
/// let mut twin = Xoshiro256PlusPlus::import_state(&words).unwrap();
/// assert_eq!(rng.next_u64(), twin.next_u64());
/// ```
pub trait RngSnapshot: Sized {
    /// Exports the full generator state as 64-bit words.
    fn export_state(&self) -> Vec<u64>;

    /// Rebuilds a generator from exported words.
    ///
    /// Returns `None` when the word count is wrong or the words violate the
    /// generator's state invariant (the all-zero xoshiro state).
    fn import_state(words: &[u64]) -> Option<Self>;
}

impl RngSnapshot for Xoshiro256PlusPlus {
    fn export_state(&self) -> Vec<u64> {
        self.state().to_vec()
    }

    fn import_state(words: &[u64]) -> Option<Self> {
        let state: [u64; 4] = words.try_into().ok()?;
        if state == [0; 4] {
            return None;
        }
        Some(Self::from_state(state))
    }
}

impl RngSnapshot for SplitMix64 {
    fn export_state(&self) -> Vec<u64> {
        self.state().to_vec()
    }

    fn import_state(words: &[u64]) -> Option<Self> {
        Some(Self::from_state(words.try_into().ok()?))
    }
}

impl RngSnapshot for SeedSequence {
    fn export_state(&self) -> Vec<u64> {
        self.state().to_vec()
    }

    fn import_state(words: &[u64]) -> Option<Self> {
        Some(Self::from_state(words.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// Restores `G` mid-stream and checks the next draws match exactly.
    fn assert_midstream_identical<G: RngSnapshot + Rng64>(mut rng: G) {
        for _ in 0..17 {
            rng.next_u64();
        }
        let words = rng.export_state();
        let mut twin = G::import_state(&words).expect("exported state reimports");
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), twin.next_u64());
        }
    }

    #[test]
    fn xoshiro_restore_is_draw_identical() {
        assert_midstream_identical(Xoshiro256PlusPlus::seed_from_u64(42));
    }

    #[test]
    fn splitmix_restore_is_draw_identical() {
        assert_midstream_identical(SplitMix64::new(42));
    }

    #[test]
    fn seed_sequence_restore_resumes_cursor() {
        let mut seq = SeedSequence::new(123);
        seq.next_seed();
        seq.next_seed();
        let words = seq.export_state();
        let mut twin = SeedSequence::import_state(&words).unwrap();
        for _ in 0..8 {
            assert_eq!(seq.next_seed(), twin.next_seed());
        }
    }

    // Known-answer pins: exported words are the raw internal state, so these
    // fail if export/import ever reroutes through a lossy representation.

    #[test]
    fn xoshiro_export_kat() {
        let rng = Xoshiro256PlusPlus::seed_from_u64(0);
        // SplitMix64(0) first four outputs — the documented seeding scheme.
        let mut sm = SplitMix64::new(0);
        let expect: Vec<u64> = (0..4).map(|_| sm.next_u64()).collect();
        assert_eq!(rng.export_state(), expect);
    }

    #[test]
    fn splitmix_export_kat() {
        assert_eq!(SplitMix64::new(7).export_state(), vec![7]);
    }

    #[test]
    fn seed_sequence_export_kat() {
        let mut seq = SeedSequence::new(9);
        seq.next_seed();
        assert_eq!(seq.export_state(), vec![9, 1]);
    }

    #[test]
    fn import_rejects_bad_states() {
        assert!(Xoshiro256PlusPlus::import_state(&[0; 4]).is_none());
        assert!(Xoshiro256PlusPlus::import_state(&[1; 3]).is_none());
        assert!(SplitMix64::import_state(&[]).is_none());
        assert!(SeedSequence::import_state(&[1, 2, 3]).is_none());
    }
}
