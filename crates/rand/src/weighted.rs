//! Weighted index sampling: a Fenwick-tree sampler for dynamic weights, the
//! draw-for-draw reference the engine's
//! [`SumTreeSampler`](crate::SumTreeSampler) is tested against.

use crate::sumtree::TransferEffect;
use crate::Rng64;
use std::error::Error;
use std::fmt;

/// Errors from constructing or updating weighted samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightedError {
    /// The weight collection was empty.
    Empty,
    /// All weights were zero, so no index can be drawn.
    AllZero,
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Number of slots in the sampler.
        len: usize,
    },
    /// The total weight was too small for the requested draw (e.g. a
    /// distinct pair needs total ≥ 2).
    TotalTooSmall {
        /// Current total weight.
        total: u64,
        /// Minimum total required by the operation.
        required: u64,
    },
}

impl fmt::Display for WeightedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightedError::Empty => write!(f, "weight collection is empty"),
            WeightedError::AllZero => write!(f, "all weights are zero"),
            WeightedError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for sampler of size {len}")
            }
            WeightedError::TotalTooSmall { total, required } => {
                write!(f, "total weight {total} is below the required {required}")
            }
        }
    }
}

impl Error for WeightedError {}

/// One 32-bit Lemire draw in `[0, bound)` from the pre-drawn word half `x`,
/// falling back to fresh words on the (rare, probability `< bound / 2^32`)
/// rejection path.
#[inline(always)]
fn lemire32<R: Rng64 + ?Sized>(rng: &mut R, x: u32, bound: u32) -> u64 {
    debug_assert!(bound > 0);
    let m = (x as u64) * (bound as u64);
    if (m as u32) < bound {
        return lemire32_cold(rng, m, bound);
    }
    m >> 32
}

/// The rejection tail of [`lemire32`]: computes the exact threshold
/// `2^32 mod bound` (one division — why this path is kept out of line) and
/// redraws until the low half clears it.
#[cold]
#[inline(never)]
fn lemire32_cold<R: Rng64 + ?Sized>(rng: &mut R, mut m: u64, bound: u32) -> u64 {
    let threshold = bound.wrapping_neg() % bound;
    while (m as u32) < threshold {
        m = (rng.next_u64() >> 32) * (bound as u64);
    }
    m >> 32
}

/// Draws the two targets of a fused ordered-pair sample: `ta ∈ [0, total)`
/// for the initiator descent and `tb ∈ [0, total − 1)` for the renumbered
/// responder descent.
///
/// When `total` fits in 32 bits — every population-protocol configuration up
/// to `n = 2^32` agents — both targets come from a **single** 64-bit word:
/// the upper half feeds the initiator draw and the lower half the responder
/// draw, each an unbiased 32-bit Lemire multiply-shift with its own
/// rejection fallback. Halving the RNG calls and 128-bit multiplies
/// measurably shortens the serial dependency chain of the count engine's
/// interaction step. Totals above 32 bits take two independent 64-bit
/// [`Rng64::below`] draws instead.
///
/// Shared by [`FenwickSampler::sample_pair_distinct`] and
/// [`SumTreeSampler::sample_pair_distinct`](crate::SumTreeSampler::sample_pair_distinct)
/// so the two samplers stay draw-for-draw identical on the same RNG stream.
#[inline(always)]
pub(crate) fn pair_targets<R: Rng64 + ?Sized>(rng: &mut R, total: u64) -> (u64, u64) {
    debug_assert!(total >= 2);
    if total <= u32::MAX as u64 {
        let word = rng.next_u64();
        let ta = lemire32(rng, (word >> 32) as u32, total as u32);
        let tb = lemire32(rng, word as u32, (total - 1) as u32);
        (ta, tb)
    } else {
        let ta = rng.below(total);
        let tb = rng.below(total - 1);
        (ta, tb)
    }
}

/// Dynamic weighted sampler over integer weights, backed by a Fenwick
/// (binary indexed) tree.
///
/// Supports `O(log k)` weight updates and `O(log k)` draws, where `k` is the
/// number of slots. This is the sampler behind the count-based simulation
/// engine: slot = agent state, weight = number of agents in that state.
///
/// # Example
///
/// ```
/// use pp_rand::{FenwickSampler, Rng64, Xoshiro256PlusPlus};
///
/// let mut s = FenwickSampler::from_weights(&[3, 0, 7]).unwrap();
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
/// let i = s.sample(&mut rng).unwrap();
/// assert!(i == 0 || i == 2);
/// s.add(1, 5).unwrap(); // slot 1 now has weight 5
/// assert_eq!(s.total(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenwickSampler {
    /// 1-based Fenwick tree over weights, padded to `cap` (a power of two)
    /// zero-weight slots so the select descent needs no bounds branching:
    /// with `cap` a power of two, `tree[cap]` is the grand total and the
    /// descent provably never steps past index `cap`.
    tree: Vec<u64>,
    /// Raw per-slot weights, mirrored alongside the tree so point reads
    /// ([`weight`](Self::weight), the pair-sampling boundary) are `O(1)`.
    weights: Vec<u64>,
    /// Padded capacity: `len.next_power_of_two()`, minimum 1.
    cap: usize,
    total: u64,
}

impl FenwickSampler {
    /// Creates a sampler with `len` zero-weight slots.
    pub fn new(len: usize) -> Self {
        let cap = len.next_power_of_two().max(1);
        Self {
            tree: vec![0; cap + 1],
            weights: vec![0; len],
            cap,
            total: 0,
        }
    }

    /// Creates a sampler from initial weights.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::Empty`] for an empty slice.
    pub fn from_weights(weights: &[u64]) -> Result<Self, WeightedError> {
        if weights.is_empty() {
            return Err(WeightedError::Empty);
        }
        let mut s = Self::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            if w > 0 {
                s.add(i, w as i64).expect("index in range");
            }
        }
        Ok(s)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the sampler has zero slots.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current weight of `index`, in `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::IndexOutOfBounds`] if `index >= len`.
    pub fn weight(&self, index: usize) -> Result<u64, WeightedError> {
        self.weights
            .get(index)
            .copied()
            .ok_or(WeightedError::IndexOutOfBounds {
                index,
                len: self.weights.len(),
            })
    }

    /// All per-slot weights, as a slice (`O(1)` point reads for hot loops).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Adds `delta` (possibly negative) to the weight of `index`.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::IndexOutOfBounds`] if `index >= len`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the update would make the weight negative.
    #[inline]
    pub fn add(&mut self, index: usize, delta: i64) -> Result<(), WeightedError> {
        let Some(w) = self.weights.get_mut(index) else {
            return Err(WeightedError::IndexOutOfBounds {
                index,
                len: self.weights.len(),
            });
        };
        debug_assert!(
            delta >= 0 || *w as i64 >= -delta,
            "weight of slot {index} would become negative"
        );
        *w = (*w as i64 + delta) as u64;
        self.total = (self.total as i64 + delta) as u64;
        // Walk ancestors up to the padded capacity (not just `len`) so the
        // padding nodes — including the `tree[cap]` grand total the
        // branch-free select relies on — stay consistent.
        let mut i = index + 1;
        while i <= self.cap {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
        Ok(())
    }

    /// Moves one unit of weight from slot `from` to slot `to` — the count
    /// engine's "one agent changed state" update — cheaper than
    /// `add(from, -1); add(to, +1)`: the total is untouched and the two
    /// ancestor walks are fused, stopping where the chains merge (every
    /// common ancestor would receive `-1 + 1 = 0`).
    ///
    /// Returns a [`TransferEffect`] describing occupancy changes at the two
    /// endpoints (both `false` for a self-transfer).
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::IndexOutOfBounds`] if either slot is out of
    /// range.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if slot `from` is empty.
    #[inline]
    pub fn transfer(&mut self, from: usize, to: usize) -> Result<TransferEffect, WeightedError> {
        if from >= self.weights.len() || to >= self.weights.len() {
            return Err(WeightedError::IndexOutOfBounds {
                index: from.max(to),
                len: self.weights.len(),
            });
        }
        debug_assert!(self.weights[from] >= 1, "slot {from} is empty");
        if from == to {
            return Ok(TransferEffect {
                emptied: false,
                populated: false,
            });
        }
        self.weights[from] -= 1;
        self.weights[to] += 1;
        // Both ancestor chains reach the root `cap` (a power of two), so
        // advancing the smaller index until the chains meet visits exactly
        // the ancestors that receive a nonzero net update.
        let mut i = from + 1;
        let mut j = to + 1;
        while i != j {
            if i < j {
                self.tree[i] -= 1;
                i += i & i.wrapping_neg();
            } else {
                self.tree[j] += 1;
                j += j & j.wrapping_neg();
            }
        }
        Ok(TransferEffect {
            emptied: self.weights[from] == 0,
            populated: self.weights[to] == 1,
        })
    }

    /// Grows the sampler by one zero-weight slot and returns its index.
    pub fn push_slot(&mut self) -> usize {
        self.weights.push(0);
        let len = self.weights.len();
        if len > self.cap {
            // Double the padded capacity and rebuild from the raw weights.
            self.cap = len.next_power_of_two();
            self.tree = vec![0; self.cap + 1];
            for i in 0..len {
                let w = self.weights[i];
                if w > 0 {
                    let mut j = i + 1;
                    while j <= self.cap {
                        self.tree[j] += w;
                        j += j & j.wrapping_neg();
                    }
                }
            }
        }
        // Within capacity the new slot has zero weight: every ancestor
        // (padding included) already accounts for it.
        len - 1
    }

    /// Finds the smallest index whose cumulative weight exceeds `target`.
    ///
    /// `target` must be in `[0, total)`.
    ///
    /// The descent is branch-free: whether to take a node is a data-random
    /// coin, so a conditional would mispredict roughly half the time on
    /// every level. With `cap` a power of two, `tree[cap]` holds the grand
    /// total (never taken, as `target < total`), and by induction each
    /// probed index stays `<= cap` — no bounds branching needed.
    #[inline]
    fn select(&self, mut target: u64) -> usize {
        debug_assert!(target < self.total);
        let mut pos = 0usize;
        let mut mask = self.cap;
        while mask > 0 {
            let node = self.tree[pos + mask];
            let take = u64::from(node <= target);
            target -= node * take;
            pos += mask * take as usize;
            mask >>= 1;
        }
        pos // 0-based index of the selected slot
    }

    /// [`select`](Self::select) that also returns the cumulative weight
    /// *below* the selected slot (`F(pos)`), which the fused pair sampler
    /// needs to place the initiator's last unit inside the urn.
    #[inline]
    fn select_prefix(&self, target: u64) -> (usize, u64) {
        debug_assert!(target < self.total);
        let mut remaining = target;
        let mut pos = 0usize;
        let mut mask = self.cap;
        while mask > 0 {
            let node = self.tree[pos + mask];
            let take = u64::from(node <= remaining);
            remaining -= node * take;
            pos += mask * take as usize;
            mask >>= 1;
        }
        (pos, target - remaining)
    }

    /// Draws an index with probability proportional to its weight.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::AllZero`] if the total weight is zero.
    #[inline]
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Result<usize, WeightedError> {
        if self.total == 0 {
            return Err(WeightedError::AllZero);
        }
        Ok(self.select(rng.below(self.total)))
    }

    /// Draws an ordered pair of slots `(i, j)` where `i` is weighted by the
    /// current weights and `j` by the weights with one unit removed from
    /// slot `i` — the distribution of (initiator, responder) states under
    /// the uniformly random scheduler when the weights are agent counts.
    ///
    /// `i == j` is possible whenever slot `i` holds weight ≥ 2 (two distinct
    /// agents in the same state).
    ///
    /// This is the fused form of the four-operation sequence
    /// `sample(); add(i, -1); sample(); add(i, +1)`: it consumes the same
    /// two RNG draws and returns bit-identical results, but performs no tree
    /// writes, so the steady-state cost is exactly two `O(log k)` descents.
    ///
    /// The responder draw works by *renumbering the urn* instead of
    /// modifying it: removing one unit of slot `i` deletes cumulative
    /// position `F(i) + w(i) − 1` (the initiator's last unit), so a raw
    /// responder target `t` maps to position `t + 1` when
    /// `t ≥ F(i) + w(i) − 1` and is unchanged otherwise. A plain `select`
    /// on the unmodified tree then lands on exactly the slot the
    /// decremented urn would have produced.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::TotalTooSmall`] if the total weight is < 2.
    ///
    /// # Example
    ///
    /// ```
    /// use pp_rand::{FenwickSampler, Xoshiro256PlusPlus};
    ///
    /// let s = FenwickSampler::from_weights(&[1, 0, 1]).unwrap();
    /// let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    /// let (i, j) = s.sample_pair_distinct(&mut rng).unwrap();
    /// assert_ne!(i, j); // single-unit slots can never pair with themselves
    /// ```
    #[inline]
    pub fn sample_pair_distinct<R: Rng64 + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(usize, usize), WeightedError> {
        if self.total < 2 {
            return Err(WeightedError::TotalTooSmall {
                total: self.total,
                required: 2,
            });
        }
        let (ta, t) = pair_targets(rng, self.total);
        let (i, below_i) = self.select_prefix(ta);
        let removed_unit = below_i + self.weights[i] - 1;
        let j = self.select(t + u64::from(t >= removed_unit));
        Ok((i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(12345)
    }

    #[test]
    fn fenwick_matches_naive_prefix_sums() {
        let weights = [5u64, 0, 3, 9, 1, 0, 0, 2, 11];
        let s = FenwickSampler::from_weights(&weights).unwrap();
        assert_eq!(s.total(), weights.iter().sum::<u64>());
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(s.weight(i).unwrap(), w);
        }
    }

    #[test]
    fn fenwick_select_boundaries() {
        let s = FenwickSampler::from_weights(&[2, 3, 5]).unwrap();
        // Cumulative: [0,2), [2,5), [5,10).
        assert_eq!(s.select(0), 0);
        assert_eq!(s.select(1), 0);
        assert_eq!(s.select(2), 1);
        assert_eq!(s.select(4), 1);
        assert_eq!(s.select(5), 2);
        assert_eq!(s.select(9), 2);
    }

    #[test]
    fn fenwick_sampling_distribution() {
        let weights = [1u64, 2, 3, 4];
        let s = FenwickSampler::from_weights(&weights).unwrap();
        let mut r = rng();
        let mut counts = [0u32; 4];
        let draws = 100_000;
        for _ in 0..draws {
            counts[s.sample(&mut r).unwrap()] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = draws as f64 * w as f64 / 10.0;
            let dev = (counts[i] as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "slot {i} deviates {dev:.3}");
        }
    }

    #[test]
    fn fenwick_dynamic_updates() {
        let mut s = FenwickSampler::new(4);
        assert_eq!(s.total(), 0);
        assert!(matches!(s.sample(&mut rng()), Err(WeightedError::AllZero)));
        s.add(2, 10).unwrap();
        assert_eq!(s.weight(2).unwrap(), 10);
        s.add(2, -10).unwrap();
        assert_eq!(s.total(), 0);
        s.add(0, 1).unwrap();
        assert_eq!(s.sample(&mut rng()).unwrap(), 0);
        assert!(s.add(4, 1).is_err());
    }

    #[test]
    fn fenwick_push_slot_preserves_weights() {
        let mut s = FenwickSampler::from_weights(&[4, 7, 1]).unwrap();
        let idx = s.push_slot();
        assert_eq!(idx, 3);
        assert_eq!(s.weight(3).unwrap(), 0);
        assert_eq!(s.weight(0).unwrap(), 4);
        assert_eq!(s.weight(1).unwrap(), 7);
        assert_eq!(s.weight(2).unwrap(), 1);
        s.add(3, 9).unwrap();
        assert_eq!(s.total(), 21);
        // grow repeatedly and re-check integrity
        for k in 0..20 {
            let i = s.push_slot();
            s.add(i, k + 1).unwrap();
        }
        let mut expect = vec![4u64, 7, 1, 9];
        expect.extend((0..20).map(|k| k + 1));
        for (i, &w) in expect.iter().enumerate() {
            assert_eq!(s.weight(i).unwrap(), w, "slot {i}");
        }
    }

    #[test]
    fn fused_pair_matches_add_roundtrip() {
        // Given the same pair of targets, the fused sampler must agree
        // exactly with the remove-draw-restore sequence it replaces: the urn
        // renumbering is pure index arithmetic over an unmodified tree.
        // `pair_targets` is called on identical RNG states on both sides, so
        // the fused draw consumes the very targets the reference selects by.
        let weights = [5u64, 0, 3, 9, 1, 0, 0, 2, 11];
        let mut reference = FenwickSampler::from_weights(&weights).unwrap();
        let fused = reference.clone();
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..10_000 {
            let (ta, tb) = pair_targets(&mut r1, reference.total());
            let i = reference.select(ta);
            reference.add(i, -1).unwrap();
            let j = reference.select(tb);
            reference.add(i, 1).unwrap();
            assert_eq!(fused.sample_pair_distinct(&mut r2).unwrap(), (i, j));
        }
    }

    #[test]
    fn fused_pair_same_slot_needs_multiplicity() {
        // A slot with weight 1 can never be both initiator and responder.
        let s = FenwickSampler::from_weights(&[1, 1, 1]).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            let (i, j) = s.sample_pair_distinct(&mut r).unwrap();
            assert_ne!(i, j);
        }
        // With multiplicity the same slot can (and eventually does) repeat.
        let s = FenwickSampler::from_weights(&[10, 1]).unwrap();
        let mut seen_same = false;
        for _ in 0..1000 {
            let (i, j) = s.sample_pair_distinct(&mut r).unwrap();
            seen_same |= i == 0 && j == 0;
        }
        assert!(seen_same);
    }

    #[test]
    fn fused_pair_rejects_small_totals() {
        let s = FenwickSampler::new(4);
        assert!(matches!(
            s.sample_pair_distinct(&mut rng()),
            Err(WeightedError::TotalTooSmall {
                total: 0,
                required: 2
            })
        ));
        let mut s = FenwickSampler::new(4);
        s.add(1, 1).unwrap();
        assert!(matches!(
            s.sample_pair_distinct(&mut rng()),
            Err(WeightedError::TotalTooSmall {
                total: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn fenwick_empty_errors() {
        assert!(matches!(
            FenwickSampler::from_weights(&[]),
            Err(WeightedError::Empty)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WeightedError::IndexOutOfBounds { index: 9, len: 3 };
        assert!(e.to_string().contains('9'));
        assert!(WeightedError::Empty.to_string().contains("empty"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Xoshiro256PlusPlus;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn fenwick_weights_roundtrip(weights in proptest::collection::vec(0u64..1000, 1..64)) {
            let s = FenwickSampler::from_weights(&weights).unwrap();
            prop_assert_eq!(s.total(), weights.iter().sum::<u64>());
            for (i, &w) in weights.iter().enumerate() {
                prop_assert_eq!(s.weight(i).unwrap(), w);
            }
        }

        #[test]
        fn fenwick_sample_never_returns_zero_weight_slot(
            weights in proptest::collection::vec(0u64..5, 2..32),
            seed in 0u64..1000,
        ) {
            let total: u64 = weights.iter().sum();
            prop_assume!(total > 0);
            let s = FenwickSampler::from_weights(&weights).unwrap();
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            for _ in 0..64 {
                let i = s.sample(&mut rng).unwrap();
                prop_assert!(weights[i] > 0, "sampled zero-weight slot {}", i);
            }
        }

        #[test]
        fn fused_pair_agrees_with_roundtrip_for_random_weights(
            weights in proptest::collection::vec(0u64..20, 2..48),
            seed in 0u64..10_000,
        ) {
            let total: u64 = weights.iter().sum();
            prop_assume!(total >= 2);
            let mut reference = FenwickSampler::from_weights(&weights).unwrap();
            let fused = reference.clone();
            let mut r1 = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut r2 = Xoshiro256PlusPlus::seed_from_u64(seed);
            for _ in 0..64 {
                // Same scheme as `fused_pair_matches_add_roundtrip`: both
                // sides consume identical targets, the reference applies them
                // through an actual remove-draw-restore round-trip.
                let (ta, tb) = super::pair_targets(&mut r1, reference.total());
                let i = reference.select(ta);
                reference.add(i, -1).unwrap();
                let j = reference.select(tb);
                reference.add(i, 1).unwrap();
                prop_assert_eq!(fused.sample_pair_distinct(&mut r2).unwrap(), (i, j));
            }
        }

        #[test]
        fn fenwick_updates_agree_with_model(
            ops in proptest::collection::vec((0usize..16, 0i64..50), 1..100)
        ) {
            let mut model = [0i64; 16];
            let mut s = FenwickSampler::new(16);
            for (idx, delta) in ops {
                model[idx] += delta;
                s.add(idx, delta).unwrap();
            }
            for (i, &w) in model.iter().enumerate() {
                prop_assert_eq!(s.weight(i).unwrap() as i64, w);
            }
        }
    }
}
