//! A complete-binary-sum-tree weighted sampler: the branch-predictable
//! sibling of [`FenwickSampler`](crate::FenwickSampler).
//!
//! Both structures answer the same queries — `O(log k)` weight updates,
//! `O(log k)` inverse-CDF draws — and, being exact inverse-CDF samplers,
//! they return **identical slots for identical RNG draws**. The difference
//! is purely micro-architectural. The Fenwick layout walks data-dependent
//! ancestor chains of *variable* length, so its hot loops branch on data and
//! mispredict; the complete tree stores node `k`'s children at `2k` and
//! `2k + 1` with leaves (= raw weights) at `cap + slot`, making every walk a
//! fixed `log₂ cap` iterations of branch-free arithmetic:
//!
//! * [`select`](SumTreeSampler::sample): descend from the root taking the
//!   right child iff the left subtree's sum is `≤ target` (a flag-to-integer
//!   multiply, no branch);
//! * [`add`](SumTreeSampler::add): climb leaf→root via `k >>= 1`, adding the
//!   delta to every node unconditionally;
//! * [`transfer`](SumTreeSampler::transfer): climb the two leaf→root paths
//!   *in lockstep* (`-1` on one, `+1` on the other) and stop where they
//!   merge — above the lowest common ancestor the updates cancel exactly.
//!
//! The count engine's hot loop uses this sampler; `FenwickSampler` remains
//! the general-purpose structure (and the cross-check oracle in tests).

use crate::{Rng64, WeightedError};

/// What a [`SumTreeSampler::transfer`] did to the occupancy of its
/// endpoints — lets callers maintain a support-size counter without
/// re-reading any weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferEffect {
    /// The `from` slot dropped to weight 0.
    pub emptied: bool,
    /// The `to` slot rose to weight 1 (was 0).
    pub populated: bool,
}

/// Dynamic weighted sampler over integer weights, backed by a complete
/// binary sum tree, whose layout beats the Fenwick layout on branch
/// prediction.
///
/// # Example
///
/// ```
/// use pp_rand::{SumTreeSampler, Rng64, Xoshiro256PlusPlus};
///
/// let mut s = SumTreeSampler::from_weights(&[3, 0, 7]).unwrap();
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
/// let i = s.sample(&mut rng).unwrap();
/// assert!(i == 0 || i == 2);
/// s.add(1, 5).unwrap(); // slot 1 now has weight 5
/// assert_eq!(s.total(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumTreeSampler {
    /// `nodes[1]` is the root (= total); node `k` has children `2k` and
    /// `2k + 1`; the leaf of slot `x` is `nodes[cap + x]` (= its weight).
    /// `nodes[0]` is unused.
    nodes: Vec<u64>,
    /// Number of logical slots (`<= cap`).
    len: usize,
    /// Leaf capacity: a power of two, minimum 1.
    cap: usize,
    /// Tree depth: `log2(cap)`, the fixed trip count of every walk.
    levels: u32,
}

impl SumTreeSampler {
    /// Creates a sampler with `len` zero-weight slots.
    pub fn new(len: usize) -> Self {
        let cap = len.next_power_of_two().max(1);
        Self {
            nodes: vec![0; 2 * cap],
            len,
            cap,
            levels: cap.trailing_zeros(),
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
        s.nodes[s.cap..s.cap + weights.len()].copy_from_slice(weights);
        s.rebuild_sums();
        Ok(s)
    }

    /// Recomputes every internal sum from the leaves in `O(cap)`: the
    /// closing step of a run of [`transfer_leaf`](Self::transfer_leaf)
    /// updates.
    pub fn rebuild_sums(&mut self) {
        for k in (1..self.cap).rev() {
            self.nodes[k] = self.nodes[2 * k] + self.nodes[2 * k + 1];
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sampler has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all weights.
    #[inline]
    pub fn total(&self) -> u64 {
        // With cap == 1 the root *is* the single leaf; either way nodes[1]
        // carries the grand total.
        self.nodes[1]
    }

    /// Current weight of `index`, in `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::IndexOutOfBounds`] if `index >= len`.
    pub fn weight(&self, index: usize) -> Result<u64, WeightedError> {
        if index >= self.len {
            return Err(WeightedError::IndexOutOfBounds {
                index,
                len: self.len,
            });
        }
        Ok(self.nodes[self.cap + index])
    }

    /// All per-slot weights, as a slice (`O(1)` point reads for hot loops).
    pub fn weights(&self) -> &[u64] {
        &self.nodes[self.cap..self.cap + self.len]
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
        if index >= self.len {
            return Err(WeightedError::IndexOutOfBounds {
                index,
                len: self.len,
            });
        }
        debug_assert!(
            delta >= 0 || self.nodes[self.cap + index] as i64 >= -delta,
            "weight of slot {index} would become negative"
        );
        let mut k = self.cap + index;
        while k >= 1 {
            self.nodes[k] = (self.nodes[k] as i64 + delta) as u64;
            k >>= 1;
        }
        Ok(())
    }

    /// Moves one unit of weight from slot `from` to slot `to` — the count
    /// engine's "one agent changed state" update. The two leaf→root walks
    /// run in lockstep (`-1` on one side, `+1` on the other) and stop at
    /// the lowest common ancestor, above which the updates would cancel;
    /// every iteration performs the same two unconditional updates, so
    /// nothing in the loop body branches on data. A self-transfer
    /// (`from == to`) exits immediately and is a free no-op, so callers can
    /// skip their own "did anything change" branch.
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
        if from >= self.len || to >= self.len {
            return Err(WeightedError::IndexOutOfBounds {
                index: from.max(to),
                len: self.len,
            });
        }
        debug_assert!(self.nodes[self.cap + from] >= 1, "slot {from} is empty");
        let mut i = self.cap + from;
        let mut j = self.cap + to;
        while i != j {
            self.nodes[i] -= 1;
            self.nodes[j] += 1;
            i >>= 1;
            j >>= 1;
        }
        let distinct = from != to;
        Ok(TransferEffect {
            emptied: distinct && self.nodes[self.cap + from] == 0,
            populated: distinct && self.nodes[self.cap + to] == 1,
        })
    }

    /// [`transfer`](Self::transfer) on the two leaves alone: the weights
    /// (and [`total`](Self::total), which a transfer conserves) stay exact,
    /// but the internal sums go stale, so no draw may run until
    /// [`rebuild_sums`](Self::rebuild_sums). A caller that picks its pairs
    /// without the tree pays `O(1)` per move instead of two `O(log k)`
    /// climbs, then one `O(cap)` rebuild.
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
    pub fn transfer_leaf(
        &mut self,
        from: usize,
        to: usize,
    ) -> Result<TransferEffect, WeightedError> {
        if from >= self.len || to >= self.len {
            return Err(WeightedError::IndexOutOfBounds {
                index: from.max(to),
                len: self.len,
            });
        }
        debug_assert!(self.nodes[self.cap + from] >= 1, "slot {from} is empty");
        self.nodes[self.cap + from] -= 1;
        self.nodes[self.cap + to] += 1;
        let distinct = from != to;
        Ok(TransferEffect {
            emptied: distinct && self.nodes[self.cap + from] == 0,
            populated: distinct && self.nodes[self.cap + to] == 1,
        })
    }

    /// Grows the sampler by one zero-weight slot and returns its index.
    pub fn push_slot(&mut self) -> usize {
        self.len += 1;
        if self.len > self.cap {
            let cap = self.len.next_power_of_two();
            let mut nodes = vec![0; 2 * cap];
            nodes[cap..cap + self.len - 1]
                .copy_from_slice(&self.nodes[self.cap..self.cap + self.len - 1]);
            self.nodes = nodes;
            self.cap = cap;
            self.levels = cap.trailing_zeros();
            self.rebuild_sums();
        }
        // Within capacity the new slot's leaf already exists with weight 0.
        self.len - 1
    }

    /// One double-level descent step: drops from node `k` straight to one of
    /// its four grandchildren (`4k .. 4k+3`, adjacent in memory), skipping
    /// the intermediate level entirely.
    ///
    /// The four loads use addresses that depend only on `k`, so they issue
    /// before the comparisons resolve — two tree levels cost barely more
    /// latency than one. With `p_d` the prefix sums of the grandchildren,
    /// the flags `m_d = (p_d ≤ r)` are monotone, their sum is the chosen
    /// grandchild, and `Σ g_d · m_{d+1}` is exactly the weight to deduct.
    #[inline(always)]
    fn grandchild_step(nodes: &[u64], k: usize, r: u64) -> (usize, u64) {
        let base = 4 * k;
        let g = &nodes[base..base + 3];
        let g0 = g[0];
        let g1 = g[1];
        let g2 = g[2];
        let p1 = g0;
        let p2 = p1 + g1;
        let p3 = p2 + g2;
        // Straight-line conditional assignments compile to conditional
        // moves: the deduction is selected rather than reconstructed with
        // multiplies on the critical path.
        let mut deduct = 0u64;
        let mut d = 0usize;
        if p1 <= r {
            deduct = p1;
            d = 1;
        }
        if p2 <= r {
            deduct = p2;
            d = 2;
        }
        if p3 <= r {
            deduct = p3;
            d = 3;
        }
        (base + d, r - deduct)
    }

    /// Finds the smallest slot whose cumulative weight exceeds `target`
    /// (`target < total`), returning `(slot, cumulative_below_slot)`.
    #[inline]
    fn select_prefix(&self, target: u64) -> (usize, u64) {
        debug_assert!(target < self.total());
        let mut remaining = target;
        let mut k = 1usize;
        let mut lv = self.levels;
        while lv >= 2 {
            (k, remaining) = Self::grandchild_step(&self.nodes, k, remaining);
            lv -= 2;
        }
        if lv == 1 {
            let left = self.nodes[2 * k];
            let take = u64::from(left <= remaining);
            remaining -= left * take;
            k = 2 * k + take as usize;
        }
        (k - self.cap, target - remaining)
    }

    /// Draws an index with probability proportional to its weight.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::AllZero`] if the total weight is zero.
    #[inline]
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Result<usize, WeightedError> {
        let total = self.total();
        if total == 0 {
            return Err(WeightedError::AllZero);
        }
        Ok(self.select_prefix(rng.below(total)).0)
    }

    /// Draws an ordered pair of slots `(i, j)` where `i` is weighted by the
    /// current weights and `j` by the weights with one unit removed from
    /// slot `i` — identical semantics, RNG consumption, and results to
    /// [`FenwickSampler::sample_pair_distinct`](crate::FenwickSampler::sample_pair_distinct)
    /// (see there for the urn-renumbering argument).
    ///
    /// The urn-renumbering shifts the responder target by at most one, and
    /// the unshifted responder descent does not depend on the initiator at
    /// all — so this routine runs the initiator descent and the raw
    /// responder descent *interleaved* in one loop (out-of-order hardware
    /// overlaps the per-level loads, bringing the latency of the whole draw
    /// close to one descent). Shifting the target by one changes the
    /// selected slot only when the raw target hit the very last unit of its
    /// slot — probability `≈ support/total` — in which rare case a third,
    /// standalone descent resolves it.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError::TotalTooSmall`] if the total weight is < 2.
    #[inline]
    pub fn sample_pair_distinct<R: Rng64 + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(usize, usize), WeightedError> {
        let total = self.total();
        if total < 2 {
            return Err(WeightedError::TotalTooSmall { total, required: 2 });
        }
        let (ta, tb) = crate::weighted::pair_targets(rng, total);
        let (mut ka, mut ra) = (1usize, ta);
        let (mut kb, mut rb) = (1usize, tb);
        let mut lv = self.levels;
        while lv >= 2 {
            (ka, ra) = Self::grandchild_step(&self.nodes, ka, ra);
            (kb, rb) = Self::grandchild_step(&self.nodes, kb, rb);
            lv -= 2;
        }
        if lv == 1 {
            let la = self.nodes[2 * ka];
            let lb = self.nodes[2 * kb];
            let da = u64::from(la <= ra);
            let db = u64::from(lb <= rb);
            ra -= la * da;
            rb -= lb * db;
            ka = 2 * ka + da as usize;
            kb = 2 * kb + db as usize;
        }
        let i = ka - self.cap;
        let below_i = ta - ra;
        let removed_unit = below_i + self.nodes[self.cap + i] - 1;
        let mut j = kb - self.cap;
        // The renumbered target tb + 1 selects a different slot only when
        // the shift applies (tb ≥ removed_unit) AND tb pointed at the very
        // last unit of j's interval (rb == w(j) − 1). Evaluate the
        // conjunction branchlessly: its halves are each near-random, but
        // together they are true with probability ≈ support/total, so the
        // single fused branch predicts essentially always.
        let shifted = tb >= removed_unit;
        let on_last_unit = rb + 1 == self.nodes[kb];
        if shifted & on_last_unit {
            j = self.select_prefix(tb + 1).0;
        }
        Ok((i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FenwickSampler, Xoshiro256PlusPlus};

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(999)
    }

    #[test]
    fn mirrors_weights_and_total() {
        let weights = [5u64, 0, 3, 9, 1, 0, 0, 2, 11];
        let s = SumTreeSampler::from_weights(&weights).unwrap();
        assert_eq!(s.total(), weights.iter().sum::<u64>());
        assert_eq!(s.weights(), &weights);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(s.weight(i).unwrap(), w);
        }
        assert!(s.weight(9).is_err());
    }

    #[test]
    fn degenerate_single_slot() {
        let mut s = SumTreeSampler::new(1);
        assert!(matches!(s.sample(&mut rng()), Err(WeightedError::AllZero)));
        s.add(0, 4).unwrap();
        assert_eq!(s.total(), 4);
        assert_eq!(s.sample(&mut rng()).unwrap(), 0);
    }

    #[test]
    fn add_transfer_and_bounds() {
        let mut s = SumTreeSampler::from_weights(&[4, 7, 1, 0]).unwrap();
        s.transfer(0, 3).unwrap();
        assert_eq!(s.weights(), &[3, 7, 1, 1]);
        assert_eq!(s.total(), 12);
        s.transfer(1, 1).unwrap(); // self-transfer is a no-op
        assert_eq!(s.weights(), &[3, 7, 1, 1]);
        assert!(s.add(4, 1).is_err());
        assert!(s.transfer(0, 4).is_err());
        assert!(s.transfer(9, 0).is_err());
    }

    #[test]
    fn leaf_transfers_then_one_rebuild_match_tree_transfers() {
        let mut climbed = SumTreeSampler::from_weights(&[4, 7, 1, 0, 2]).unwrap();
        let mut leaves = climbed.clone();
        for (from, to) in [(0, 3), (1, 1), (1, 4), (3, 0), (2, 3)] {
            let a = climbed.transfer(from, to).unwrap();
            let b = leaves.transfer_leaf(from, to).unwrap();
            assert_eq!(a, b);
            assert_eq!(climbed.weights(), leaves.weights());
            assert_eq!(climbed.total(), leaves.total());
        }
        assert!(leaves.transfer_leaf(0, 5).is_err());
        leaves.rebuild_sums();
        assert_eq!(climbed, leaves);
    }

    #[test]
    fn push_slot_grows_and_preserves() {
        let mut s = SumTreeSampler::from_weights(&[4, 7, 1]).unwrap();
        for k in 0..20 {
            let i = s.push_slot();
            assert_eq!(i, 3 + k as usize);
            s.add(i, k + 1).unwrap();
        }
        let mut expect = vec![4u64, 7, 1];
        expect.extend((0..20).map(|k| k + 1));
        assert_eq!(s.weights(), &expect[..]);
        assert_eq!(s.total(), expect.iter().sum::<u64>());
    }

    #[test]
    fn agrees_with_fenwick_on_identical_draws() {
        // Both samplers are exact inverse-CDF draws over the same weights:
        // the same RNG stream must produce the same slots, for both single
        // draws and fused pairs.
        let weights = [5u64, 0, 3, 9, 1, 0, 0, 2, 11, 3, 3, 0, 1];
        let fen = FenwickSampler::from_weights(&weights).unwrap();
        let tree = SumTreeSampler::from_weights(&weights).unwrap();
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..5000 {
            assert_eq!(fen.sample(&mut r1).unwrap(), tree.sample(&mut r2).unwrap());
        }
        for _ in 0..5000 {
            assert_eq!(
                fen.sample_pair_distinct(&mut r1).unwrap(),
                tree.sample_pair_distinct(&mut r2).unwrap()
            );
        }
    }

    #[test]
    fn agrees_with_fenwick_under_dynamic_updates() {
        let mut fen = FenwickSampler::from_weights(&[2, 2, 2, 2, 2]).unwrap();
        let mut tree = SumTreeSampler::from_weights(&[2, 2, 2, 2, 2]).unwrap();
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..5000 {
            let (i1, j1) = fen.sample_pair_distinct(&mut r1).unwrap();
            let (i2, j2) = tree.sample_pair_distinct(&mut r2).unwrap();
            assert_eq!((i1, j1), (i2, j2));
            // Move one agent i → j, as the count engine would.
            fen.transfer(i1, j1).unwrap();
            tree.transfer(i2, j2).unwrap();
            assert_eq!(fen.weights(), tree.weights());
        }
    }

    #[test]
    fn sampling_distribution() {
        let weights = [1u64, 2, 3, 4];
        let s = SumTreeSampler::from_weights(&weights).unwrap();
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
    fn empty_input_is_rejected() {
        assert!(matches!(
            SumTreeSampler::from_weights(&[]),
            Err(WeightedError::Empty)
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{FenwickSampler, Xoshiro256PlusPlus};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_fenwick_for_random_weights_and_ops(
            weights in proptest::collection::vec(0u64..20, 2..48),
            seed in 0u64..10_000,
        ) {
            let total: u64 = weights.iter().sum();
            prop_assume!(total >= 2);
            let mut fen = FenwickSampler::from_weights(&weights).unwrap();
            let mut tree = SumTreeSampler::from_weights(&weights).unwrap();
            let mut r1 = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut r2 = Xoshiro256PlusPlus::seed_from_u64(seed);
            for _ in 0..64 {
                let p1 = fen.sample_pair_distinct(&mut r1).unwrap();
                let p2 = tree.sample_pair_distinct(&mut r2).unwrap();
                prop_assert_eq!(p1, p2);
                fen.transfer(p1.0, p1.1).unwrap();
                tree.transfer(p2.0, p2.1).unwrap();
                prop_assert_eq!(fen.weights(), tree.weights());
            }
        }
    }
}
