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
//! the middle step. The `2·bulk` agents of a segment are a uniform
//! without-replacement sample, drawn as **one** sparse `(state, count)`
//! margin ([`BatchScratch::draw_margin`]): one hypergeometric draw per
//! heavy class and one uniform pick per light-tail draw, plus `O(support)`
//! cheap per-class work. The segment is then paired one of two ways:
//!
//! * **Cells** — split a uniform `bulk`-subset of initiators off the margin
//!   and draw the per-ordered-pair contingency table directly (nested
//!   conditional hypergeometric rows, the law of
//!   [`pp_rand::contingency_table`]); each cell applies as one bulk count
//!   delta. Skips the shuffle and the per-interaction apply loop whenever
//!   the table is much smaller than the round (Fratricide).
//! * **Sequences** — expand the margin into `2·bulk` slots, Fisher–Yates
//!   them all, and pair slot `i` with slot `bulk + i`: at once the uniform
//!   matching and a uniformly random interleaving, so exact walks take this
//!   side too. Taken when the table would cost more than the shuffle it
//!   replaces (see [`CELL_FALLBACK_FACTOR`]).
//!
//! Both sides sample the uniformly random matching of the drawn margin. The
//! unit tests judge [`draw_segment`] against exact probabilities they
//! compute themselves, `tests/round_law.rs` compares whole runs with the
//! compiled tier, and a known-answer test pins the RNG stream.

use crate::batch::BatchStats;
use pp_rand::{Hypergeometric, Rng64};
use std::cmp::Reverse;

/// A segment is paired as cells only while `CELL_FALLBACK_FACTOR · m² ≤
/// bulk`, where `m²` bounds the cells of a margin of `m` classes; otherwise
/// it expands into sequences and shuffles.
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
/// shuffle: over its first 40n interactions at n = 2^20 (batch pin, seeds
/// 1–3), ~170 of ~65k segments per run take the cells path (~4.4k draws),
/// against ~2.5k segments and ~0.57M draws at factor 1.
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
/// states), plus the slot buffer of the sequence side and the margin/cell
/// buffers of the contingency law.
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
    /// The segment's `2·bulk` participant states, uniformly shuffled: slot
    /// `i` initiates against slot `bulk + i`.
    pub seq: Vec<u32>,
    /// Initiator margins `(state, count)` of a cells segment.
    pub init_margin: Vec<(u32, u64)>,
    /// The segment's margin `(state, count)` in visiting order; the
    /// responder margins once a cells segment splits off its initiators.
    pub margin: Vec<(u32, u64)>,
    /// Remaining responder margins while cells are drawn (parallel to
    /// `margin`); the tail picker's sorted positions while the margin is
    /// drawn.
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
        self.seq.clear();
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
    /// replacement) into `margin`, removing the drawn agents from the urn.
    ///
    /// Classes in visiting order take one conditional hypergeometric draw
    /// each while the conditional mean `remaining · c / pop` is at least 1.
    /// From the first class below that, the light tail (exactly `pop`
    /// agents) gets the `remaining` draws as uniform without-replacement
    /// picks ([`pick_tail`](Self::pick_tail)). By sequential conditioning
    /// this is the same multivariate hypergeometric law, and the switch
    /// point is a stopping time, so choosing it adaptively is exact.
    pub(crate) fn draw_margin<R: Rng64 + ?Sized>(&mut self, rng: &mut R, draws: u64) {
        debug_assert!(draws <= self.fresh_total);
        self.margin.clear();
        let mut remaining = draws;
        let mut pop = self.fresh_total;
        let mut k = 0;
        while remaining > 0 && k < self.order.len() {
            let id = self.order[k];
            let c = self.fresh[id as usize];
            if remaining.saturating_mul(c) < pop {
                self.pick_tail(rng, k, pop, remaining);
                break;
            }
            let x = Hypergeometric::new(pop, c, remaining)
                .expect("class within remaining population")
                .sample(rng);
            if x > 0 {
                self.margin.push((id, x));
                self.fresh[id as usize] -= x;
                remaining -= x;
            }
            pop -= c;
            k += 1;
        }
        self.fresh_total -= draws;
    }

    /// Places `picks` uniform without-replacement draws among the `pop`
    /// agents of the classes `order[start..]`, appending their margins.
    /// Floyd's method draws a uniform `picks`-subset of the tail's agent
    /// positions (one `below` call each), kept sorted in `resp_rem`; one
    /// pass over the tail's running counts then tallies the positions each
    /// class holds. Cost: `O(t log t)` comparisons and `O(t²)` word moves
    /// for `t = picks`, plus the classes scanned; `t` is below the tail's
    /// support.
    fn pick_tail<R: Rng64 + ?Sized>(&mut self, rng: &mut R, start: usize, pop: u64, picks: u64) {
        let picked = &mut self.resp_rem;
        picked.clear();
        for j in pop - picks..pop {
            let t = rng.below(j + 1);
            match picked.binary_search(&t) {
                Ok(_) => picked.push(j),
                Err(at) => picked.insert(at, t),
            }
        }
        let (mut end, mut next) = (0, 0);
        for &id in &self.order[start..] {
            if next == picked.len() {
                break;
            }
            let c = &mut self.fresh[id as usize];
            end += *c;
            let x = picked[next..].iter().take_while(|&&p| p < end).count();
            if x > 0 {
                self.margin.push((id, x as u64));
                *c -= x as u64;
                next += x;
            }
        }
    }

    /// Splits a uniform `bulk`-subset of initiators off the `2·bulk`-agent
    /// margin into `init_margin`, leaving the responders in `margin`.
    /// Returns the number of sampler invocations.
    fn split_initiators<R: Rng64 + ?Sized>(&mut self, rng: &mut R, bulk: u64) -> u64 {
        self.init_margin.clear();
        let (mut remaining, mut pop, mut draws) = (bulk, 2 * bulk, 0);
        for (id, c) in self.margin.iter_mut() {
            if remaining == 0 {
                break;
            }
            draws += u64::from(pop != *c);
            let x = Hypergeometric::new(pop, *c, remaining)
                .expect("class within the margin")
                .sample(rng);
            pop -= *c;
            if x > 0 {
                self.init_margin.push((*id, x));
                *c -= x;
                remaining -= x;
            }
        }
        self.margin.retain(|&(_, c)| c > 0);
        draws
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
        self.resp_rem.extend(self.margin.iter().map(|&(_, c)| c));
        let mut pool: u64 = self.resp_rem.iter().sum();
        let mut draws = 0u64;
        for &(s, row) in &self.init_margin {
            if row < ROW_WEIGHTED_CUTOFF && self.margin.len() > 1 {
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
                    let t = self.margin[j].0;
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
                    self.cells.push((s, self.margin[j].0, x));
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
    /// `seq[i]` interacts with `seq[bulk + i]`, in order of `i` — the
    /// uniformly interleaved pair sequence exact walks need.
    Sequences,
    /// `cells` holds `(initiator, responder, multiplicity)` aggregates;
    /// order-free bulk apply.
    Cells,
}

/// Draws one collision-free segment's interaction structure out of the
/// fresh urn (see the [module docs](self)): removes exactly `2·bulk`
/// agents and returns the representation it filled. With `walk` set the
/// host needs the pair *sequence*, so the result is always
/// [`SegmentDraw::Sequences`]. The host (`CountSimulation::batch_episode`)
/// owns everything else: run lengths, the apply loop, collision
/// resolution, urn merging.
pub(crate) fn draw_segment<R: Rng64>(
    scratch: &mut BatchScratch,
    rng: &mut R,
    bulk: u64,
    walk: bool,
    stats: &mut BatchStats,
) -> SegmentDraw {
    scratch.draw_margin(rng, 2 * bulk);
    let m = scratch.margin.len() as u64;
    if !walk && CELL_FALLBACK_FACTOR.saturating_mul(m * m) <= bulk {
        let split = scratch.split_initiators(rng, bulk);
        stats.contingency_draws += split + scratch.draw_cells(rng);
        stats.shuffle_skips += 1;
        return SegmentDraw::Cells;
    }
    // A uniformly shuffled participant sequence, paired slot `i` with slot
    // `bulk + i`, is at once the uniformly random matching and a uniformly
    // random interleaving of it — the conditional law of the true process
    // given the drawn multiset.
    for &(id, c) in &scratch.margin {
        scratch.seq.resize(scratch.seq.len() + c as usize, id);
    }
    rng.shuffle(&mut scratch.seq);
    SegmentDraw::Sequences
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_rand::Xoshiro256PlusPlus;
    use std::collections::HashMap;

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

    /// Per-class totals of the segment's participants, whichever side it
    /// took, split into `(initiators, responders)`.
    fn segment_margins(s: &BatchScratch, draw: SegmentDraw, bulk: u64, k: usize) -> [Vec<u64>; 2] {
        let (mut init, mut resp) = (vec![0u64; k], vec![0u64; k]);
        match draw {
            SegmentDraw::Cells => {
                for &(a, b, c) in &s.cells {
                    init[a as usize] += c;
                    resp[b as usize] += c;
                }
            }
            SegmentDraw::Sequences => {
                let (front, back) = s.seq.split_at(bulk as usize);
                front.iter().for_each(|&id| init[id as usize] += 1);
                back.iter().for_each(|&id| resp[id as usize] += 1);
            }
        }
        [init, resp]
    }

    #[test]
    fn multiset_draws_partition_the_round() {
        // Drawn + remaining reconstruct the original counts, the margin is
        // in visiting order with no empty entry, and no empty class is
        // drawn — across heavy-only, tail-only and mixed draws.
        let counts = [500u64, 300, 200, 200, 7, 1, 0, 1];
        let mut s = BatchScratch::default();
        let mut r = rng(9);
        for draws in 1..=400 {
            s.begin(&counts);
            s.draw_margin(&mut r, draws);
            assert_eq!(s.fresh_total, 1209 - draws);
            assert!(s.margin.iter().all(|&(id, c)| c > 0 && id != 6));
            let mut back = s.fresh.clone();
            for &(id, c) in &s.margin {
                back[id as usize] += c;
            }
            assert_eq!(&back[..], &counts[..], "draws {draws}");
            let key = |&(id, _): &(u32, u64)| descending_key(counts[id as usize], id);
            assert!(s.margin.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        }
    }

    #[test]
    fn draw_one_moves_between_urns() {
        let mut s = BatchScratch::default();
        s.begin(&[3, 2]);
        let mut r = rng(10);
        s.draw_margin(&mut r, 2);
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
    fn multiset_marginals_match_hypergeometric_means() {
        let counts = [500u64, 300, 200];
        let draws = 100u64;
        let mut s = BatchScratch::default();
        let mut r = rng(11);
        let runs = 5000;
        let mut sums = [0u64; 3];
        for _ in 0..runs {
            s.begin(&counts);
            s.draw_margin(&mut r, draws);
            for &(id, c) in &s.margin {
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

    /// Known answer for the round's RNG stream: one margin for all `2·bulk`
    /// participants (heavy prefix, then tail picks), expanded and shuffled
    /// as one sequence. Recorded from this implementation at fixed seeds, so
    /// any change to the draw order shows up here; the law itself is judged
    /// by the exact-law tests below.
    #[test]
    fn sequence_segments_reproduce_recorded_single_margin_draws() {
        let mut stats = BatchStats::default();
        // Wide support: 41 classes against a bulk of 30, so the segment
        // falls back to sequences. The one heavy class takes a
        // hypergeometric draw; the 40 classes of 10 behind it are light, so
        // the rest of the 60 draws are tail picks.
        let mut counts: Vec<u64> = vec![10; 41];
        counts[0] = 1000;
        let mut s = BatchScratch::default();
        let mut r = rng(15);
        s.begin(&counts);
        assert_eq!(
            draw_segment(&mut s, &mut r, 30, false, &mut stats),
            SegmentDraw::Sequences
        );
        assert_eq!(s.margin[0], (0, 43));
        assert_eq!(
            s.seq,
            [
                0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 14, 0, 0, 0, 20, 0, 0, 0, 8, 0, 38,
                0, 0, 0, 21, 0, 20, 0, 40, 0, 8, 28, 0, 3, 0, 0, 37, 19, 0, 14, 0, 0, 0, 0, 0, 0,
                0, 0, 34, 0, 40, 0, 0, 0, 30
            ]
        );
        assert_eq!(r.next_u64(), 0x01d4_50e1_ab52_073e);
        // A walk segment on a two-class urn (heavy only).
        let mut s = BatchScratch::default();
        let mut r = rng(16);
        s.begin(&[100, 50]);
        assert_eq!(
            draw_segment(&mut s, &mut r, 20, true, &mut stats),
            SegmentDraw::Sequences
        );
        assert_eq!(
            s.seq,
            [
                1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0
            ]
        );
        assert_eq!(r.next_u64(), 0x0a81_7e0a_0cd3_b7ef);
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
            let [init, resp] = segment_margins(&s, draw, bulk, 5);
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
    fn margins_match_multiset_law() {
        // The sequence side expands the margin: the shuffled slots hold
        // exactly the drawn multiset, and the urn loses exactly what was
        // drawn.
        let counts = [500u64, 300, 200, 200, 7, 1, 0];
        let mut s = BatchScratch::default();
        let mut stats = BatchStats::default();
        for seed in 0..50 {
            let mut r = rng(seed);
            let bulk = 1 + (seed % 200);
            s.begin(&counts);
            let draw = draw_segment(&mut s, &mut r, bulk, true, &mut stats);
            assert_eq!(draw, SegmentDraw::Sequences);
            assert_eq!(s.seq.len() as u64, 2 * bulk, "seed {seed}");
            let mut drawn = vec![0u64; counts.len()];
            s.seq.iter().for_each(|&id| drawn[id as usize] += 1);
            let mut margin = vec![0u64; counts.len()];
            s.margin
                .iter()
                .for_each(|&(id, c)| margin[id as usize] += c);
            assert_eq!(drawn, margin, "seed {seed}");
            let back: Vec<u64> = s.fresh.iter().zip(&drawn).map(|(f, d)| f + d).collect();
            assert_eq!(&back[..], &counts[..], "seed {seed}");
        }
    }

    #[test]
    fn cells_match_contingency_table_law_on_corner_cell() {
        // Two classes, counts [60, 40]; draw 40 initiators + 40 responders
        // (two margin classes, on the cells side of the cutover) and pin
        // P(cell(0,0) = k) against pp_rand's reference samplers: two
        // multiset draws paired by `contingency_table`. Both sample the
        // uniform-matching law of the round.
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

            let mut rows = [0u64; 2];
            pp_rand::multivariate_hypergeometric(&mut r2, &counts, bulk, &mut rows);
            let rest = [counts[0] - rows[0], counts[1] - rows[1]];
            let mut cols = [0u64; 2];
            pp_rand::multivariate_hypergeometric(&mut r2, &rest, bulk, &mut cols);
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
        // 40 distinct classes and a bulk of 30: the table loses to the
        // shuffle, so the segment must expand instead.
        let counts: Vec<u64> = (0..40).map(|_| 50u64).collect();
        let mut s = BatchScratch::default();
        let mut r = rng(15);
        let mut stats = BatchStats::default();
        s.begin(&counts);
        let draw = draw_segment(&mut s, &mut r, 30, false, &mut stats);
        assert_eq!(draw, SegmentDraw::Sequences);
        assert_eq!(s.seq.len(), 60);
        assert_eq!(stats.shuffle_skips, 0);
    }

    #[test]
    fn walk_segments_always_produce_sequences() {
        // Two classes and a bulk of 40 would take the cells side, but a
        // walk needs the pair sequence.
        let counts = [100u64, 50];
        let mut s = BatchScratch::default();
        let mut r = rng(16);
        let mut stats = BatchStats::default();
        s.begin(&counts);
        let draw = draw_segment(&mut s, &mut r, 40, true, &mut stats);
        assert_eq!(draw, SegmentDraw::Sequences);
        assert_eq!(s.seq.len(), 80);
        assert_eq!(stats.shuffle_skips, 0);
    }

    // -----------------------------------------------------------------------
    // Exact-law oracle: `draw_segment` against probabilities these tests
    // compute themselves, by enumeration or exact integer binomials, with no
    // use of `pp_rand`'s samplers. Pearson chi-square at α = 0.001 over the
    // outcomes whose expected count is at least 5; rarer outcomes are pooled
    // into one bin.
    // -----------------------------------------------------------------------

    /// `C(n, k)` in exact integer arithmetic.
    fn choose(n: u64, k: u64) -> u128 {
        if k > n {
            return 0;
        }
        (0..k.min(n - k)).fold(1u128, |acc, i| acc * u128::from(n - i) / u128::from(i + 1))
    }

    /// Pearson's test of observed outcome counts against exact
    /// probabilities (which must sum to 1 over `exact`'s keys).
    fn assert_exact_law(
        what: &str,
        observed: &HashMap<Vec<u64>, u64>,
        exact: &[(Vec<u64>, f64)],
        runs: u64,
    ) {
        let total: f64 = exact.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{what}: probabilities sum to {total}"
        );
        for key in observed.keys() {
            assert!(
                exact.iter().any(|(k, _)| k == key),
                "{what}: impossible outcome {key:?}"
            );
        }
        let (mut stat, mut bins) = (0.0, 0usize);
        let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
        for (key, p) in exact {
            let obs = observed.get(key).copied().unwrap_or(0) as f64;
            let exp = p * runs as f64;
            if exp >= 5.0 {
                stat += (obs - exp).powi(2) / exp;
                bins += 1;
            } else {
                pooled_obs += obs;
                pooled_exp += exp;
            }
        }
        if pooled_exp >= 5.0 {
            stat += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
            bins += 1;
        }
        assert!(bins >= 3, "{what}: only {bins} bins");
        let critical = pp_stats::chi_square_critical(bins - 1, 0.001);
        assert!(
            stat <= critical,
            "{what}: chi2 = {stat:.2} > {critical:.2} over {bins} bins"
        );
    }

    /// Every per-class count vector `x ≤ counts` with `Σx = draws`, with its
    /// multivariate hypergeometric probability `Π C(c_i, x_i) / C(N, draws)`.
    fn multiset_law(counts: &[u64], draws: u64) -> Vec<(Vec<u64>, f64)> {
        let denom = choose(counts.iter().sum(), draws) as f64;
        let mut out = Vec::new();
        let mut x = vec![0u64; counts.len()];
        fn rec(
            i: usize,
            left: u64,
            counts: &[u64],
            x: &mut Vec<u64>,
            denom: f64,
            out: &mut Vec<(Vec<u64>, f64)>,
        ) {
            if i == counts.len() {
                if left == 0 {
                    let ways: u128 = counts
                        .iter()
                        .zip(x.iter())
                        .map(|(&c, &k)| choose(c, k))
                        .product();
                    out.push((x.clone(), ways as f64 / denom));
                }
                return;
            }
            for k in 0..=left.min(counts[i]) {
                x[i] = k;
                rec(i + 1, left - k, counts, x, denom, out);
            }
            x[i] = 0;
        }
        rec(0, draws, counts, &mut x, denom, &mut out);
        out
    }

    /// The segment's participant multiset (`2·bulk` draws) against the exact
    /// multivariate hypergeometric law.
    fn check_margin_law(what: &str, counts: &[u64], bulk: u64, seed: u64) {
        let runs = 20_000;
        let mut s = BatchScratch::default();
        let mut r = rng(seed);
        let mut stats = BatchStats::default();
        let mut observed = HashMap::new();
        for _ in 0..runs {
            s.begin(counts);
            let draw = draw_segment(&mut s, &mut r, bulk, false, &mut stats);
            assert_eq!(draw, SegmentDraw::Sequences, "{what}");
            let [init, resp] = segment_margins(&s, draw, bulk, counts.len());
            let total: Vec<u64> = init.iter().zip(&resp).map(|(a, b)| a + b).collect();
            *observed.entry(total).or_insert(0) += 1;
        }
        assert_exact_law(what, &observed, &multiset_law(counts, 2 * bulk), runs);
    }

    #[test]
    fn margin_law_is_exact_heavy_only() {
        // Eight draws from [4, 3, 2]: the first class takes ≥ 3 of them, so
        // the second sees ≥ 4 remaining against a population of 5 (mean
        // ≥ 2.4) and the last class is the whole remaining population —
        // every class is drawn by hypergeometric.
        check_margin_law("heavy only", &[4, 3, 2], 4, 21);
    }

    #[test]
    fn margin_law_is_exact_tail_only() {
        // Four draws from 26 agents: the largest class's mean is 20/26 < 1,
        // so every draw is a tail pick over all ten classes.
        check_margin_law("tail only", &[5, 4, 4, 3, 3, 2, 2, 1, 1, 1], 2, 22);
    }

    #[test]
    fn margin_law_is_exact_mixed() {
        // Four draws from [20, 3, 2, 2, 1]: the first class is heavy; the
        // second is heavy only when the first took at most one draw, so
        // the switch point itself is random.
        check_margin_law("mixed", &[20, 3, 2, 2, 1], 2, 23);
    }

    #[test]
    fn walk_sequence_law_is_exact_on_a_tiny_urn() {
        // Agents with states [0, 0, 0, 1, 1, 2] and bulk 2: the segment's
        // pair sequence ((seq[0], seq[2]), (seq[1], seq[3])) must be the
        // state image of a uniform injective 4-tuple of agents (360 of
        // them, enumerated here).
        let agents = [0u64, 0, 0, 1, 1, 2];
        let mut exact: HashMap<Vec<u64>, f64> = HashMap::new();
        for a in 0..6 {
            for b in (0..6).filter(|&b| b != a) {
                for c in (0..6).filter(|&c| c != a && c != b) {
                    for d in (0..6).filter(|&d| d != a && d != b && d != c) {
                        let key = vec![agents[a], agents[b], agents[c], agents[d]];
                        *exact.entry(key).or_insert(0.0) += 1.0 / 360.0;
                    }
                }
            }
        }
        let runs = 20_000;
        let mut s = BatchScratch::default();
        let mut r = rng(24);
        let mut stats = BatchStats::default();
        let mut observed = HashMap::new();
        for _ in 0..runs {
            s.begin(&[3, 2, 1]);
            let draw = draw_segment(&mut s, &mut r, 2, true, &mut stats);
            assert_eq!(draw, SegmentDraw::Sequences);
            let q = &s.seq;
            let key = vec![q[0] as u64, q[2] as u64, q[1] as u64, q[3] as u64];
            *observed.entry(key).or_insert(0) += 1;
        }
        let exact: Vec<(Vec<u64>, f64)> = exact.into_iter().collect();
        assert_exact_law("walk sequence", &observed, &exact, runs);
    }

    #[test]
    fn cells_law_is_exact_on_two_classes() {
        // Counts [60, 40] and bulk 32: both classes are always drawn, so
        // 8·2² ≤ 32 sends every segment to the cells side. The table is
        // fixed by (i0, r0, a00) — state-0 initiators, state-0 responders
        // and state-0/state-0 pairs — whose exact law is: i0 a
        // hypergeometric draw of 32 from the urn, r0 one of 32 from what
        // remains, and a00 the hypergeometric overlap of a uniform matching.
        let (c0, c1, bulk) = (60u64, 40u64, 32u64);
        let hyper = |pop0: u64, pop1: u64, draws: u64, k: u64| {
            (choose(pop0, k) * choose(pop1, draws - k)) as f64 / choose(pop0 + pop1, draws) as f64
        };
        let mut exact = Vec::new();
        for i0 in 0..=bulk {
            let p_i = hyper(c0, c1, bulk, i0);
            for r0 in 0..=bulk {
                let p_r = hyper(c0 - i0, c1 - (bulk - i0), bulk, r0);
                for a00 in 0..=i0.min(r0) {
                    let p_a = hyper(r0, bulk - r0, i0, a00);
                    if p_i * p_r * p_a > 0.0 {
                        exact.push((vec![i0, r0, a00], p_i * p_r * p_a));
                    }
                }
            }
        }
        let runs = 20_000;
        let mut s = BatchScratch::default();
        let mut r = rng(25);
        let mut stats = BatchStats::default();
        let mut observed = HashMap::new();
        for _ in 0..runs {
            s.begin(&[c0, c1]);
            let draw = draw_segment(&mut s, &mut r, bulk, false, &mut stats);
            assert_eq!(draw, SegmentDraw::Cells);
            let [init, resp] = segment_margins(&s, draw, bulk, 2);
            let a00 = s
                .cells
                .iter()
                .filter(|&&(a, b, _)| a == 0 && b == 0)
                .map(|&(_, _, c)| c)
                .sum();
            *observed.entry(vec![init[0], resp[0], a00]).or_insert(0) += 1;
        }
        assert_exact_law("cells", &observed, &exact, runs);
    }
}
