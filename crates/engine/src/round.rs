//! The batch tier's **collision-free round**: the urn scratch
//! ([`BatchScratch`]), the run-length inversion
//! ([`collision_free_prefix`]), the one round law ([`draw_segment`]), and
//! the descending-count order maintenance the engine uses for draw
//! decompositions and compaction alike.
//!
//! The batch tier (see [`crate::batch`] for the statistical derivation)
//! advances a simulation by whole collision-free runs: sample the run
//! length, sample *which* states interact, apply the interactions through
//! the compiled cache, resolve the terminating collision. This module owns
//! the middle step. Both multisets of a segment are drawn as sparse
//! `(state, count)` margins; then the segment is paired one of two ways:
//!
//! * **Cells** — draw the per-ordered-pair contingency table directly
//!   (nested conditional hypergeometric rows, the law of
//!   [`pp_rand::contingency_table`]) and apply each cell as one bulk count
//!   delta. Skips the `Θ(√n)` responder shuffle and the per-interaction
//!   apply loop whenever the table is much smaller than the round
//!   (two-state epidemics, Fratricide).
//! * **Sequences** — expand the margins into state sequences, Fisher–Yates
//!   the responders, and pair positionally. Taken when the table would cost
//!   more than the shuffle it replaces (see [`CELL_FALLBACK_FACTOR`]), and
//!   always for exact walks, which need an ordered interleaving.
//!
//! Both sides sample the uniformly random matching of the drawn margins, so
//! executions equal the reference tier in distribution (chi-square-pinned
//! by `tests/round_law.rs`). A sequence segment consumes the RNG exactly as
//! the historical sequence-expansion round did — margins, expansion and
//! shuffle draw the same words as two multiset expansions and a shuffle —
//! which a known-answer test pins.

use crate::batch::BatchStats;
use pp_rand::{Hypergeometric, Rng64};
use std::cmp::Reverse;

/// A segment is paired as cells only while `CELL_FALLBACK_FACTOR · table ≤
/// bulk`, where `table` is the margin-list product bounding the cells to
/// draw; otherwise it expands into sequences and shuffles.
///
/// The factor prices one conditional hypergeometric draw in sequence
/// slots. The benchmark's per-layer rows (P_LL at n = 2^20, 2-vCPU
/// container) put a draw at `rand.hypergeom_inv_ns` ≈ 63 ns
/// (`rand.hypergeom_hrua_ns` ≈ 117 ns) against `rand.shuffle_ns_per_elem`
/// ≈ 1.6 ns, a ratio of ~38 — but a sequence slot also pays its expansion
/// and its own apply (a pair-cache lookup and two urn updates), which the
/// cells side pays once per cell. Timed directly on forced-batch
/// Fratricide, the break-even sits at 8–16 slots per draw: at n = 2^14
/// (bulk ≈ 80, 4 cells) factors 4–16 run at 58–68M interactions/s and 38
/// at 36M, the all-sequences path at 32M. Eight keeps the cells path on
/// every such table and sends P_LL's wide-support segments to the
/// shuffle: over its first 40n interactions at n = 2^20, ~230 of ~65k
/// segments per election take the cells path (~5.5k draws), against ~3.9k
/// segments and ~1.1M draws at factor 1.
pub(crate) const CELL_FALLBACK_FACTOR: u64 = 8;

/// Rows with margins below this cutoff are drawn as sequential weighted
/// picks (one `O(support)` scan each) instead of a full conditional
/// hypergeometric sweep across every column — same law, fewer draws for
/// the long tail of near-empty rows.
const ROW_WEIGHTED_CUTOFF: u64 = 4;

// ---------------------------------------------------------------------------
// Descending-count order maintenance (shared by the batch scratch and
// the engine's state compaction).
// ---------------------------------------------------------------------------

/// The canonical visiting order of the engines: the total order
/// `(count desc, id asc)`. A pure function of the counts, so *how* a list
/// is brought into it can never change a draw or a compacted layout.
#[inline]
pub(crate) fn descending_key(count: u64, id: u32) -> (Reverse<u64>, u32) {
    (Reverse(count), id)
}

/// Sorts `ids` into [`descending_key`] order from scratch.
pub(crate) fn sort_descending(ids: &mut [u32], key: impl Fn(u32) -> u64) {
    ids.sort_unstable_by_key(|&id| descending_key(key(id), id));
}

/// Repairs an almost-sorted `ids` into [`descending_key`] order by
/// insertion sort — `O(len + displacements)`, the hot-path variant for
/// orders carried over between consecutive rounds. Produces exactly the
/// permutation [`sort_descending`] would (the key is a total order), which
/// the permutation-identity regression test pins.
pub(crate) fn repair_descending(ids: &mut [u32], key: impl Fn(u32) -> u64) {
    for i in 1..ids.len() {
        let id = ids[i];
        let k = descending_key(key(id), id);
        let mut j = i;
        while j > 0 {
            let prev = ids[j - 1];
            if descending_key(key(prev), prev) <= k {
                break;
            }
            ids[j] = prev;
            j -= 1;
        }
        ids[j] = id;
    }
}

// ---------------------------------------------------------------------------
// Run-length inversion.
// ---------------------------------------------------------------------------

/// Samples the length of the maximal collision-free interaction prefix,
/// capped at `budget`: returns `(min(L, budget), L < budget)` where the
/// flag says a collision interaction terminates the run inside the budget.
///
/// Exact single-uniform inversion of `P(L ≥ m) = Π_{j<m}
/// (n−2j)(n−2j−1) / (n(n−1))`: each successive interaction must avoid
/// every agent the run has already touched. The product is accumulated
/// incrementally, so the cost is `O(min(L, budget))` multiplications. The
/// first step is always collision-free (`P(L ≥ 1) = 1`), so the returned
/// length is at least 1 for any positive budget.
pub(crate) fn collision_free_prefix<R: Rng64 + ?Sized>(
    rng: &mut R,
    n: u64,
    budget: u64,
) -> (u64, bool) {
    debug_assert!(n >= 2 && budget >= 1);
    let u = rng.unit_f64();
    invert_prefix(u, n, budget)
}

/// The deterministic inversion behind [`collision_free_prefix`]: walks the
/// survival product for the single uniform `u`.
///
/// The product multiplies factors in `[0, 1]`, so it is monotone
/// non-increasing even in f64, and it reaches exact `0.0` once fewer than
/// 2 untouched agents remain — the loop terminates for any `u`, including
/// `u = 0`, after at most `n/2 + 1` steps.
fn invert_prefix(u: f64, n: u64, budget: u64) -> (u64, bool) {
    let denom = n as f64 * (n - 1) as f64;
    let mut survive = 1.0f64;
    let mut m = 0u64;
    loop {
        if m == budget {
            return (budget, false);
        }
        let fresh = n.saturating_sub(2 * m);
        let step = if fresh >= 2 {
            fresh as f64 * (fresh - 1) as f64 / denom
        } else {
            0.0
        };
        survive *= step;
        if u >= survive {
            // The first m steps are collision-free; step m+1 collides.
            return (m, true);
        }
        m += 1;
    }
}

// ---------------------------------------------------------------------------
// Urn scratch.
// ---------------------------------------------------------------------------

/// Reusable per-round urn state: the **fresh** urn (agents untouched this
/// round, initialized from the engine counts) and the **used** urn (agents
/// that already interacted this round, holding their *post*-transition
/// states), plus the expansion buffers of the initiator/responder
/// sequences and the margin/cell buffers of the contingency law.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchScratch {
    /// Per-state counts of untouched agents.
    pub fresh: Vec<u64>,
    /// Per-state counts of agents already used this round.
    pub used: Vec<u64>,
    pub fresh_total: u64,
    pub used_total: u64,
    /// Occupied state ids in descending-count order (the decomposition
    /// visiting order; any pre-round-measurable order is law-correct, and
    /// largest-first exhausts the draws soonest).
    order: Vec<u32>,
    /// Initiator state sequence of the round (expanded multiset).
    pub init_seq: Vec<u32>,
    /// Responder state sequence of the round (expanded multiset).
    pub resp_seq: Vec<u32>,
    /// Initiator margins `(state, count)` of the segment, in visiting
    /// order.
    pub init_margin: Vec<(u32, u64)>,
    /// Responder margins `(state, count)` of the segment.
    pub resp_margin: Vec<(u32, u64)>,
    /// Remaining responder margins while cells are drawn (parallel to
    /// `resp_margin`).
    resp_rem: Vec<u64>,
    /// Contingency cells `(initiator, responder, multiplicity)`.
    pub cells: Vec<(u32, u32, u64)>,
}

impl BatchScratch {
    /// Resets the urns for a new round over the given per-state counts.
    ///
    /// The visiting order is the total order `(count desc, id asc)` — a
    /// pure function of the counts, so *how* it is sorted can never change
    /// a draw. Counts move little between consecutive rounds, which makes
    /// the previous round's order an almost-sorted starting point:
    /// carrying it over and repairing with insertion sort (`O(classes +
    /// displacements)`) replaces the full re-sort on the hot path.
    pub(crate) fn begin(&mut self, counts: &[u64]) {
        self.fresh.clear();
        self.fresh.extend_from_slice(counts);
        self.used.clear();
        self.used.resize(counts.len(), 0);
        self.fresh_total = counts.iter().sum();
        self.used_total = 0;
        // Rebuild the candidate list seeded by the previous order: retain
        // its still-occupied ids, then append newly occupied ids (tracked
        // via the used urn, zeroed above, as a scratch membership flag).
        for &id in &self.order {
            if let Some(f) = self.used.get_mut(id as usize) {
                *f = 1;
            }
        }
        {
            let fresh = &self.fresh;
            self.order
                .retain(|&id| fresh.get(id as usize).copied().unwrap_or(0) > 0);
        }
        for (id, &c) in counts.iter().enumerate() {
            if c > 0 && self.used[id] == 0 {
                self.order.push(id as u32);
            }
        }
        self.used[..counts.len()].fill(0);
        let fresh = &self.fresh;
        repair_descending(&mut self.order, |id| fresh[id as usize]);
        self.init_seq.clear();
        self.resp_seq.clear();
        self.cells.clear();
    }

    /// Grows the urns after mid-round interning of fresh states.
    pub(crate) fn ensure_states(&mut self, states: usize) {
        if self.fresh.len() < states {
            self.fresh.resize(states, 0);
            self.used.resize(states, 0);
        }
    }

    /// Draws a `draws`-element multiset from the fresh urn (without
    /// replacement) by conditional hypergeometric decomposition in visiting
    /// order, recording it sparsely as `(state, count)` margins and
    /// removing the drawn agents from the urn. The margins feed
    /// [`draw_cells`](Self::draw_cells) or expand via
    /// [`expand_margins`](Self::expand_margins).
    pub(crate) fn draw_margins<R: Rng64 + ?Sized>(
        &mut self,
        rng: &mut R,
        draws: u64,
        responders: bool,
    ) {
        debug_assert!(draws <= self.fresh_total);
        let margin = if responders {
            &mut self.resp_margin
        } else {
            &mut self.init_margin
        };
        margin.clear();
        let mut remaining = draws;
        let mut pop = self.fresh_total;
        for &id in &self.order {
            if remaining == 0 {
                break;
            }
            let c = self.fresh[id as usize];
            if c == 0 {
                continue;
            }
            let x = if pop == c {
                remaining
            } else {
                Hypergeometric::new(pop, c, remaining)
                    .expect("class within remaining population")
                    .sample(rng)
            };
            if x > 0 {
                margin.push((id, x));
                self.fresh[id as usize] -= x;
                remaining -= x;
            }
            pop -= c;
        }
        debug_assert_eq!(remaining, 0, "classes must exhaust the draws");
        self.fresh_total -= draws;
    }

    /// Expands the margin lists of the current segment into `init_seq` /
    /// `resp_seq` (run-length, visiting order). The caller still owes the
    /// responder shuffle.
    pub(crate) fn expand_margins(&mut self) {
        self.init_seq.clear();
        for &(id, c) in &self.init_margin {
            self.init_seq.resize(self.init_seq.len() + c as usize, id);
        }
        self.resp_seq.clear();
        for &(id, c) in &self.resp_margin {
            self.resp_seq.resize(self.resp_seq.len() + c as usize, id);
        }
    }

    /// Pairs the drawn margins into per-ordered-pair multiplicities
    /// (`cells`) by the row-conditional decomposition of the uniform
    /// matching — the engine-side twin of [`pp_rand::contingency_table`],
    /// drawing row `i` as a conditional multivariate hypergeometric over
    /// the remaining responder margins. Near-empty rows (margin below
    /// [`ROW_WEIGHTED_CUTOFF`]) are drawn as sequential weighted picks
    /// instead — same law, `O(margin)` draws instead of `O(columns)`.
    ///
    /// Returns the number of sampler invocations (the
    /// `contingency_draws` stat).
    pub(crate) fn draw_cells<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.cells.clear();
        self.resp_rem.clear();
        self.resp_rem
            .extend(self.resp_margin.iter().map(|&(_, c)| c));
        let mut pool: u64 = self.resp_rem.iter().sum();
        let mut draws = 0u64;
        for &(s, row) in &self.init_margin {
            if row < ROW_WEIGHTED_CUTOFF && self.resp_margin.len() > 1 {
                // Match the row's few agents one at a time: each partner is
                // uniform over the remaining responder pool.
                for _ in 0..row {
                    draws += 1;
                    let mut target = rng.below(pool);
                    let j = self
                        .resp_rem
                        .iter()
                        .position(|&c| {
                            if target < c {
                                true
                            } else {
                                target -= c;
                                false
                            }
                        })
                        .expect("target below the pool total");
                    self.resp_rem[j] -= 1;
                    pool -= 1;
                    let t = self.resp_margin[j].0;
                    match self.cells.last_mut() {
                        Some(cell) if cell.0 == s && cell.1 == t => cell.2 += 1,
                        _ => self.cells.push((s, t, 1)),
                    }
                }
                continue;
            }
            let mut remaining = row;
            let mut sub_pool = pool;
            for j in 0..self.resp_rem.len() {
                if remaining == 0 {
                    break;
                }
                let c = self.resp_rem[j];
                if c == 0 {
                    continue;
                }
                let x = if sub_pool == c {
                    remaining
                } else {
                    draws += 1;
                    Hypergeometric::new(sub_pool, c, remaining)
                        .expect("column margin within remaining pool")
                        .sample(rng)
                };
                if x > 0 {
                    self.cells.push((s, self.resp_margin[j].0, x));
                    self.resp_rem[j] -= x;
                    remaining -= x;
                }
                sub_pool -= c;
            }
            debug_assert_eq!(remaining, 0, "row margin must be exhausted");
            pool -= row;
        }
        draws
    }

    /// Draws one agent's state from the fresh or used urn (uniformly over
    /// the urn's agents) and removes it. `O(live support)` scan — collision
    /// handling only, never on the bulk path.
    pub(crate) fn draw_one<R: Rng64 + ?Sized>(&mut self, rng: &mut R, from_used: bool) -> usize {
        let (urn, total) = if from_used {
            (&mut self.used, &mut self.used_total)
        } else {
            (&mut self.fresh, &mut self.fresh_total)
        };
        debug_assert!(*total > 0);
        let mut target = rng.below(*total);
        for (id, c) in urn.iter_mut().enumerate() {
            if target < *c {
                *c -= 1;
                *total -= 1;
                return id;
            }
            target -= *c;
        }
        unreachable!("target below the urn total");
    }

    /// Adds one agent in state `id` to the used urn.
    pub(crate) fn add_used(&mut self, id: usize) {
        self.used[id] += 1;
        self.used_total += 1;
    }

    /// Adds `k` agents in state `id` to the used urn at once — the bulk
    /// apply of contingency cells (`k` identical interactions collapse to
    /// one cache lookup and one urn update).
    pub(crate) fn add_used_n(&mut self, id: usize, k: u64) {
        self.used[id] += k;
        self.used_total += k;
    }

    /// Returns one reserved-but-unexecuted agent to the fresh urn (exact
    /// walks that hit convergence mid-round put the tail draws back).
    pub(crate) fn return_fresh(&mut self, id: usize) {
        self.fresh[id] += 1;
        self.fresh_total += 1;
    }
}

// ---------------------------------------------------------------------------
// The round law.
// ---------------------------------------------------------------------------

/// How a segment's interaction structure is represented for the apply
/// loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentDraw {
    /// `init_seq[i]` interacts with `resp_seq[i]`, in order — required by
    /// exact walks, which need a uniformly interleaved sequence.
    Sequences,
    /// `cells` holds `(initiator, responder, multiplicity)` aggregates;
    /// order-free bulk apply.
    Cells,
}

/// Draws one collision-free segment's interaction structure out of the
/// fresh urn (see the [module docs](self)): removes exactly `2·bulk`
/// agents and returns the representation it filled. With `walk` set the
/// host needs a uniformly interleaved pair *sequence*, so both sides are
/// shuffled and the result is always [`SegmentDraw::Sequences`]. The host
/// (`CountSimulation::batch_episode`) owns everything else: run lengths,
/// the apply loop, collision resolution, urn merging.
pub(crate) fn draw_segment<R: Rng64>(
    scratch: &mut BatchScratch,
    rng: &mut R,
    bulk: u64,
    walk: bool,
    stats: &mut BatchStats,
) -> SegmentDraw {
    scratch.draw_margins(rng, bulk, false);
    scratch.draw_margins(rng, bulk, true);
    let table = scratch.init_margin.len() as u64 * scratch.resp_margin.len() as u64;
    if !walk && CELL_FALLBACK_FACTOR.saturating_mul(table) <= bulk {
        let draws = scratch.draw_cells(rng);
        stats.contingency_draws += draws;
        stats.shuffle_skips += 1;
        return SegmentDraw::Cells;
    }
    scratch.expand_margins();
    // Pairing: a uniformly permuted responder sequence against the
    // initiators realizes the uniformly random matching.
    rng.shuffle(&mut scratch.resp_seq);
    if walk {
        // Both sequences uniformly permuted makes the segment's pair
        // sequence a uniformly random interleaving — the conditional law
        // of the true process given the drawn multisets.
        rng.shuffle(&mut scratch.init_seq);
    }
    SegmentDraw::Sequences
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_rand::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn prefix_always_at_least_one_step() {
        let mut r = rng(1);
        for n in [2u64, 3, 10, 1 << 20] {
            for budget in [1u64, 5, 1000] {
                let (len, collide) = collision_free_prefix(&mut r, n, budget);
                assert!((1..=budget).contains(&len), "n={n} budget={budget}: {len}");
                if collide {
                    assert!(len < budget);
                }
            }
        }
    }

    #[test]
    fn prefix_never_exceeds_half_the_population() {
        // With all agents used a collision is certain: L ≤ n/2.
        let mut r = rng(2);
        for _ in 0..500 {
            let (len, collide) = collision_free_prefix(&mut r, 10, 1000);
            assert!(len <= 5);
            assert!(collide);
        }
    }

    #[test]
    fn prefix_law_matches_brute_force_at_n4() {
        // P(L ≥ 2) = (2·1)/(4·3) = 1/6; budget 2 makes len ∈ {1, 2}.
        let mut r = rng(3);
        let runs = 200_000;
        let mut two = 0u64;
        for _ in 0..runs {
            let (len, _) = collision_free_prefix(&mut r, 4, 2);
            if len == 2 {
                two += 1;
            }
        }
        let p = two as f64 / runs as f64;
        assert!((p - 1.0 / 6.0).abs() < 0.005, "P(L >= 2) = {p}");
    }

    #[test]
    fn prefix_mean_matches_birthday_bound() {
        let n = 1u64 << 16;
        let mut r = rng(4);
        let runs = 2000;
        let total: u64 = (0..runs)
            .map(|_| collision_free_prefix(&mut r, n, u64::MAX).0)
            .sum();
        let mean = total as f64 / runs as f64;
        let expect = (std::f64::consts::PI * n as f64 / 8.0).sqrt();
        assert!(
            (mean / expect - 1.0).abs() < 0.1,
            "mean {mean} vs birthday {expect}"
        );
    }

    /// The `Geometric` `ln_1p` bug class: f64 accumulation in the
    /// inversion loop silently truncating run lengths at huge `n`. Pin the
    /// linear-product inversion against an independent log-space inversion
    /// at n ≥ 2^30, at crafted uniforms near both ends of the scale.
    #[test]
    fn prefix_inversion_matches_log_space_at_huge_n() {
        let n: u64 = 1 << 30;
        // Uniforms span the full range `unit_f64` can produce (granularity
        // 2^-53; smaller values never occur, so the subnormal product tail
        // is outside the sampler's contract).
        for u in [
            1.0 - f64::EPSILON,  // earliest representable stop
            0.5,                 // the median
            1e-9,                // deep tail
            f64::powi(2.0, -53), // the smallest nonzero uniform
        ] {
            let (m_lin, collide) = invert_prefix(u, n, u64::MAX);
            assert!(collide);
            // Independent inversion: accumulate ln(step) via ln_1p of the
            // per-step deficit, stopping where the log-survival crosses
            // ln(u). The two walks may disagree only where rounding moves
            // the crossing by a step or two — never by the orders of
            // magnitude an underflow truncation (the bug class) causes.
            let ln_u = u.ln();
            let denom = (n as f64).ln() + ((n - 1) as f64).ln();
            let mut log_survive = 0.0f64;
            let mut m_log = 0u64;
            loop {
                let fresh = n.saturating_sub(2 * m_log);
                if fresh < 2 {
                    break;
                }
                log_survive += (fresh as f64).ln() + ((fresh - 1) as f64).ln() - denom;
                if ln_u >= log_survive {
                    break;
                }
                m_log += 1;
            }
            let tol = 2.0 + m_log as f64 * 1e-6;
            assert!(
                (m_lin as f64 - m_log as f64).abs() <= tol,
                "n={n} u={u:e}: linear {m_lin} vs log-space {m_log}"
            );
        }
    }

    #[test]
    fn prefix_mean_matches_birthday_bound_at_2_30() {
        // The satellite regression regime: n = 2^30, where each survival
        // factor is within 4e-9 of 1 and the product crosses u only after
        // ~20k steps of accumulated rounding.
        let n = 1u64 << 30;
        let mut r = rng(7);
        let runs = 60;
        let total: u64 = (0..runs)
            .map(|_| collision_free_prefix(&mut r, n, u64::MAX).0)
            .sum();
        let mean = total as f64 / runs as f64;
        let expect = (std::f64::consts::PI * n as f64 / 8.0).sqrt();
        // σ/√runs ≈ 0.52·E/√60 ≈ 0.07·E: a 3σ-ish window.
        assert!(
            (mean / expect - 1.0).abs() < 0.2,
            "mean {mean} vs birthday {expect}"
        );
    }

    #[test]
    fn repair_matches_full_sort_permutation_identity() {
        // The satellite regression: the insertion repair and the full sort
        // must produce the identical permutation for any key assignment —
        // including heavy duplicate counts, where only the id tiebreak
        // orders entries.
        let mut r = rng(8);
        for trial in 0..200 {
            let len = 1 + (trial % 50) as usize;
            let counts: Vec<u64> = (0..len as u64).map(|_| r.below(6)).collect();
            let mut ids: Vec<u32> = (0..len as u32).collect();
            // Random starting permutation via Fisher–Yates.
            r.shuffle(&mut ids);
            let mut repaired = ids.clone();
            repair_descending(&mut repaired, |id| counts[id as usize]);
            let mut sorted = ids.clone();
            sort_descending(&mut sorted, |id| counts[id as usize]);
            assert_eq!(repaired, sorted, "trial {trial}: counts {counts:?}");
            // Idempotence: repairing sorted input is a no-op.
            let again = repaired.clone();
            repair_descending(&mut repaired, |id| counts[id as usize]);
            assert_eq!(repaired, again);
        }
    }

    #[test]
    fn multiset_draws_partition_the_round() {
        let counts = [100u64, 50, 0, 25];
        let mut s = BatchScratch::default();
        let mut r = rng(9);
        for _ in 0..200 {
            s.begin(&counts);
            s.draw_margins(&mut r, 40, false);
            s.draw_margins(&mut r, 40, true);
            s.expand_margins();
            assert_eq!(s.init_seq.len(), 40);
            assert_eq!(s.resp_seq.len(), 40);
            assert_eq!(s.fresh_total, 175 - 80);
            // Drawn + remaining reconstruct the original counts.
            let mut back = s.fresh.clone();
            for &id in s.init_seq.iter().chain(&s.resp_seq) {
                back[id as usize] += 1;
            }
            assert_eq!(&back[..], &counts[..]);
            assert!(s.init_seq.iter().all(|&id| id != 2), "empty class drawn");
        }
    }

    #[test]
    fn draw_one_moves_between_urns() {
        let mut s = BatchScratch::default();
        s.begin(&[3, 2]);
        let mut r = rng(10);
        s.draw_margins(&mut r, 2, false);
        s.add_used(0);
        s.add_used(1);
        assert_eq!(s.used_total, 2);
        assert_eq!(s.fresh_total, 3);
        let id = s.draw_one(&mut r, true);
        assert!(id < 2);
        assert_eq!(s.used_total, 1);
        let id = s.draw_one(&mut r, false);
        assert!(id < 2);
        assert_eq!(s.fresh_total, 2);
        s.return_fresh(id);
        assert_eq!(s.fresh_total, 3);
    }

    #[test]
    fn margins_match_reference_decomposition_draw_for_draw() {
        // `draw_margins` inlines (order-optimized) the conditional
        // decomposition that `pp_rand::multivariate_hypergeometric` is the
        // reference implementation of. With counts already in descending
        // order the visiting orders coincide, so the same RNG stream must
        // produce the exact same per-class counts — pinning the two
        // implementations against drifting apart.
        use pp_rand::multivariate_hypergeometric;
        let counts = [500u64, 300, 200, 200, 7, 1, 0];
        let mut s = BatchScratch::default();
        for seed in 0..50 {
            let mut r1 = rng(seed);
            let mut r2 = rng(seed);
            let draws = 1 + (seed % 200);
            s.begin(&counts);
            s.draw_margins(&mut r1, draws, false);
            let mut drawn = vec![0u64; counts.len()];
            for &(id, c) in &s.init_margin {
                drawn[id as usize] += c;
            }
            let mut reference = vec![0u64; counts.len()];
            multivariate_hypergeometric(&mut r2, &counts, draws, &mut reference);
            assert_eq!(drawn, reference, "seed {seed}");
        }
    }

    #[test]
    fn multiset_marginals_match_hypergeometric_means() {
        let counts = [500u64, 300, 200];
        let draws = 100u64;
        let mut s = BatchScratch::default();
        let mut r = rng(11);
        let runs = 5000;
        let mut sums = [0u64; 3];
        for _ in 0..runs {
            s.begin(&counts);
            s.draw_margins(&mut r, draws, false);
            for &(id, c) in &s.init_margin {
                sums[id as usize] += c;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = runs as f64 * draws as f64 * c as f64 / 1000.0;
            let got = sums[i] as f64;
            assert!(
                (got / expect - 1.0).abs() < 0.05,
                "class {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn margins_match_multiset_law() {
        // The expanded sequences are the drawn multisets: run-length blocks
        // in visiting order, one block per nonzero margin, and the urn
        // loses exactly what was drawn.
        let counts = [500u64, 300, 200, 200, 7, 1, 0];
        let mut s = BatchScratch::default();
        for seed in 0..50 {
            let mut r = rng(seed);
            let draws = 1 + (seed % 200);
            s.begin(&counts);
            s.draw_margins(&mut r, draws, false);
            s.draw_margins(&mut r, draws, true);
            s.expand_margins();
            for (margin, seq) in [(&s.init_margin, &s.init_seq), (&s.resp_margin, &s.resp_seq)] {
                let mut blocks: Vec<(u32, u64)> = Vec::new();
                for &id in seq.iter() {
                    match blocks.last_mut() {
                        Some(block) if block.0 == id => block.1 += 1,
                        _ => blocks.push((id, 1)),
                    }
                }
                assert_eq!(&blocks, margin, "seed {seed}");
            }
            let mut back = s.fresh.clone();
            for &id in s.init_seq.iter().chain(&s.resp_seq) {
                back[id as usize] += 1;
            }
            assert_eq!(&back[..], &counts[..], "seed {seed}");
        }
    }

    /// The sequence side of the round must consume the RNG exactly as the
    /// historical sequence-expansion round did (two expanded multiset
    /// draws, a responder shuffle and, for walks, an initiator shuffle).
    /// The expected sequences and the next RNG word were recorded from that
    /// round at the same seeds.
    #[test]
    fn sequence_segments_reproduce_recorded_sequence_expansion_draws() {
        let mut stats = BatchStats::default();
        // Wide support: 40 classes make a ~600-cell table against a bulk
        // of 30, so the segment falls back to sequences.
        let counts: Vec<u64> = vec![50; 40];
        let mut s = BatchScratch::default();
        let mut r = rng(15);
        s.begin(&counts);
        assert_eq!(
            draw_segment(&mut s, &mut r, 30, false, &mut stats),
            SegmentDraw::Sequences
        );
        assert_eq!(
            s.init_seq,
            [
                1, 2, 4, 7, 7, 9, 9, 10, 12, 13, 14, 14, 14, 15, 15, 21, 21, 24, 25, 25, 25, 26,
                29, 30, 34, 34, 35, 38, 39, 39
            ]
        );
        assert_eq!(
            s.resp_seq,
            [
                33, 30, 2, 12, 2, 39, 37, 35, 23, 11, 29, 38, 14, 36, 20, 35, 11, 5, 38, 7, 6, 16,
                19, 31, 28, 38, 2, 0, 10, 31
            ]
        );
        assert_eq!(r.next_u64(), 0x0693_61f5_2edd_9c23);
        // A walk segment on a two-class urn: both sides shuffled.
        let mut s = BatchScratch::default();
        let mut r = rng(16);
        s.begin(&[100, 50]);
        assert_eq!(
            draw_segment(&mut s, &mut r, 20, true, &mut stats),
            SegmentDraw::Sequences
        );
        assert_eq!(
            s.init_seq,
            [0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0]
        );
        assert_eq!(
            s.resp_seq,
            [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0]
        );
        assert_eq!(r.next_u64(), 0x3057_a9c1_dea2_cea1);
        assert_eq!(stats.shuffle_skips, 0);
    }

    #[test]
    fn cells_preserve_margins_and_partition_the_round() {
        let counts = [400u64, 250, 100, 40, 3];
        let mut s = BatchScratch::default();
        let mut r = rng(12);
        let mut stats = BatchStats::default();
        for trial in 0..300 {
            s.begin(&counts);
            let bulk = 20 + (trial % 150);
            let draw = draw_segment(&mut s, &mut r, bulk, false, &mut stats);
            let (mut init, mut resp) = (vec![0u64; 5], vec![0u64; 5]);
            match draw {
                SegmentDraw::Cells => {
                    for &(a, b, c) in &s.cells {
                        init[a as usize] += c;
                        resp[b as usize] += c;
                    }
                }
                SegmentDraw::Sequences => {
                    for &id in &s.init_seq {
                        init[id as usize] += 1;
                    }
                    for &id in &s.resp_seq {
                        resp[id as usize] += 1;
                    }
                }
            }
            assert_eq!(init.iter().sum::<u64>(), bulk, "trial {trial}");
            assert_eq!(resp.iter().sum::<u64>(), bulk, "trial {trial}");
            // Drawn + remaining fresh reconstruct the original counts.
            for id in 0..5 {
                assert_eq!(
                    s.fresh[id] + init[id] + resp[id],
                    counts[id],
                    "trial {trial} class {id}"
                );
            }
            assert_eq!(s.fresh_total + 2 * bulk, counts.iter().sum::<u64>());
        }
        assert!(stats.shuffle_skips > 0, "cells path never engaged");
    }

    #[test]
    fn cells_match_contingency_table_law_on_corner_cell() {
        // Two classes, counts [60, 40]; draw 40 initiators + 40 responders
        // (a ≤ 4-cell table, on the cells side of the cutover) and pin
        // P(cell(0,0) = k) against pp_rand::contingency_table on the same
        // margins, accumulated over the margin randomness: both
        // decompositions must agree in distribution because they sample
        // the same uniform-matching law.
        let counts = [60u64, 40];
        let bulk = 40;
        let mut s = BatchScratch::default();
        let mut r1 = rng(13);
        let mut r2 = rng(14);
        let mut stats = BatchStats::default();
        let runs = 60_000;
        let mut engine_hist = [0u64; 41];
        let mut reference_hist = [0u64; 41];
        for _ in 0..runs {
            s.begin(&counts);
            let draw = draw_segment(&mut s, &mut r1, bulk, false, &mut stats);
            assert_eq!(draw, SegmentDraw::Cells);
            let c00: u64 = s
                .cells
                .iter()
                .filter(|&&(a, b, _)| a == 0 && b == 0)
                .map(|&(_, _, c)| c)
                .sum();
            engine_hist[c00 as usize] += 1;

            // Reference: same margin law (two multiset draws from the urn)
            // paired by pp_rand's table sampler.
            s.begin(&counts);
            s.draw_margins(&mut r2, bulk, false);
            s.draw_margins(&mut r2, bulk, true);
            let mut rows = [0u64; 2];
            let mut cols = [0u64; 2];
            for &(id, c) in &s.init_margin {
                rows[id as usize] += c;
            }
            for &(id, c) in &s.resp_margin {
                cols[id as usize] += c;
            }
            let mut table = [0u64; 4];
            pp_rand::contingency_table(&mut r2, &rows, &cols, &mut table);
            reference_hist[table[0] as usize] += 1;
        }
        for k in 0..engine_hist.len() {
            let pe = engine_hist[k] as f64 / runs as f64;
            let pr = reference_hist[k] as f64 / runs as f64;
            assert!(
                (pe - pr).abs() < 0.01,
                "P(c00 = {k}): engine {pe} vs reference {pr}"
            );
        }
    }

    #[test]
    fn contingency_falls_back_on_wide_support() {
        // 40 distinct classes and a bulk of 30: the ~600-cell table loses
        // to the shuffle, so the segment must expand instead.
        let counts: Vec<u64> = (0..40).map(|_| 50u64).collect();
        let mut s = BatchScratch::default();
        let mut r = rng(15);
        let mut stats = BatchStats::default();
        s.begin(&counts);
        let draw = draw_segment(&mut s, &mut r, 30, false, &mut stats);
        assert_eq!(draw, SegmentDraw::Sequences);
        assert_eq!(s.init_seq.len(), 30);
        assert_eq!(s.resp_seq.len(), 30);
        assert_eq!(stats.shuffle_skips, 0);
    }

    #[test]
    fn walk_segments_always_produce_sequences() {
        let counts = [100u64, 50];
        let mut s = BatchScratch::default();
        let mut r = rng(16);
        let mut stats = BatchStats::default();
        s.begin(&counts);
        let draw = draw_segment(&mut s, &mut r, 20, true, &mut stats);
        assert_eq!(draw, SegmentDraw::Sequences);
        assert_eq!(s.init_seq.len(), 20);
        assert_eq!(stats.shuffle_skips, 0);
    }
}
