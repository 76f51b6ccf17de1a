//! Execution-tier dispatch for the count engine.
//!
//! [`CountSimulation`](crate::CountSimulation) runs every workload through
//! one of four interchangeable execution tiers — same Markov chain, different
//! cost models:
//!
//! | Tier | Mechanism | Per-interaction cost | Wins when |
//! |------|-----------|----------------------|-----------|
//! | [`Reference`](EngineTier::Reference) | hash + clone + `transition` per step | `O(1)`, large constant | never chosen; the pinned oracle baseline |
//! | [`Compiled`](EngineTier::Compiled) | [pair cache](crate::compiled) + two agent-array reads (two tree descents past 2^22 agents or 2^16 interned states), writing only the sides that change | ~18–24 ns up to 2^22 agents, ~55–70 ns on the tree | dense transitions, large live support |
//! | [`Jump`](EngineTier::Jump) | [null-run telescoping](crate::jump) | `O(1)` per *episode* | known-null pairs ≥ 7/8 of scheduler weight |
//! | [`Batch`](EngineTier::Batch) | [hypergeometric rounds](crate::batch) | `O((k + √n)/√n)` amortized; sub-constant only as cells | live support `k` with `3k ≤ E[run]` from [`AGENT_ARRAY_MAX_POPULATION`] agents up, `8k² ≤ E[run]` below |
//!
//! The tiers are selected *per workload phase*, not per simulation: reviews
//! at batch boundaries re-run the engage/exit rules against the current
//! configuration (null weight for the jump tier, live support for the batch
//! tier), with hysteresis so the engine never flaps around a threshold. The
//! thresholds are fixed constants from the cost model, not tuning knobs.
//! Tests pin one tier with the doc-hidden
//! [`CountSimulation::pin_tier`](crate::CountSimulation::pin_tier). This
//! module owns the dispatch state ([`TierController`]) and the pure rules;
//! episodes run in [`count_engine`](crate::CountSimulation) and
//! [`crate::batch`].

use crate::batch::BatchState;
use crate::jump::NullLedger;
use crate::round::CELL_FALLBACK_FACTOR;

/// The jump scheduler engages when `W_active · JUMP_ENGAGE_FACTOR ≤ W_total`:
/// each episode is then expected to telescope at least 8 raw interactions.
pub(crate) const JUMP_ENGAGE_FACTOR: u64 = 8;

/// Hysteresis: an engaged jump scheduler disengages only once
/// `W_active · JUMP_EXIT_FACTOR > W_total`.
pub(crate) const JUMP_EXIT_FACTOR: u64 = 4;

/// From [`AGENT_ARRAY_MAX_POPULATION`] agents up, the batch tier engages
/// when `support · BATCH_SUPPORT_DIVISOR ≤ E[collision-free run]` and exits
/// past twice that: a round costs one hypergeometric draw per heavy class,
/// one uniform pick per light-tail draw and `O(support + run)` cheap work,
/// so it pays only while the support is a fraction of the `Θ(√n)` run. The
/// divisor predates the light-tail picks and has not been re-priced.
const BATCH_SUPPORT_DIVISOR: u64 = 3;

/// The execution tier the count engine is currently dispatching to, chosen
/// at tier reviews from the live configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineTier {
    /// Uncached per-step fallback: hash, clone, and call
    /// [`Protocol::transition`](crate::Protocol::transition) every step.
    Reference,
    /// Compiled pair cache + an O(1) pair draw (agent array up to 2^22
    /// agents, fused sum-tree sampling above), one interaction at a time.
    Compiled,
    /// Null-run telescoping on top of the compiled cache.
    Jump,
    /// Collision-free hypergeometric batch rounds.
    Batch,
}

impl std::fmt::Display for EngineTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineTier::Reference => "reference",
            EngineTier::Compiled => "compiled",
            EngineTier::Jump => "jump",
            EngineTier::Batch => "batch",
        })
    }
}

/// Throughput counters of the jump scheduler (field `jump` of
/// [`CountSimulation::metrics`](crate::CountSimulation::metrics)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JumpStats {
    /// Jump episodes executed (each ends in one real interaction).
    pub episodes: u64,
    /// Null interactions telescoped past without being executed.
    pub skipped: u64,
}

/// Interactions executed per tier over the whole execution: pure functions
/// of the trajectory, kept with or without an observer. Wall-clock time
/// lives in the observer-only [`TierTimeline`](crate::obs::TierTimeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierUsage {
    /// Interactions executed on the uncached reference tier.
    pub reference: u64,
    /// Interactions executed on the compiled tier.
    pub compiled: u64,
    /// Interactions executed (or telescoped) by the jump scheduler.
    pub jump: u64,
    /// Interactions executed by hypergeometric batch rounds.
    pub batch: u64,
}

impl TierUsage {
    /// Accounts `interactions` interactions to `tier`.
    pub(crate) fn note(&mut self, tier: EngineTier, interactions: u64) {
        match tier {
            EngineTier::Reference => self.reference += interactions,
            EngineTier::Compiled => self.compiled += interactions,
            EngineTier::Jump => self.jump += interactions,
            EngineTier::Batch => self.batch += interactions,
        }
    }

    /// Total interactions across all tiers.
    pub fn total(&self) -> u64 {
        self.reference + self.compiled + self.jump + self.batch
    }
}

/// Jump-scheduler state riding along the count engine (see [`crate::jump`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct JumpState {
    /// Currently executing episodes instead of per-step chunks.
    pub engaged: bool,
    /// The known-null pair set with scheduler weights.
    pub ledger: NullLedger,
    pub stats: JumpStats,
}

/// The dispatch state of the count engine's batched drivers: the test pin,
/// per-tier engage state, and the step count of the next review.
#[derive(Debug, Clone, Default)]
pub(crate) struct TierController {
    /// The tier pinned by [`CountSimulation::pin_tier`]
    /// (crate::CountSimulation::pin_tier), or `None` for heuristic dispatch.
    pub pin: Option<EngineTier>,
    pub jump: JumpState,
    pub batch: BatchState,
    /// Step count of the next tier review (compaction, jump, batch rules).
    pub review_at: u64,
    /// Per-tier interaction counters over the whole execution.
    pub usage: TierUsage,
}

impl TierController {
    /// Whether compiled null pairs feed the jump ledger: under heuristic
    /// dispatch and the jump pin. The other pins keep it empty, which also
    /// keeps tier reviews on their short interval.
    pub(crate) fn tracks_nulls(&self) -> bool {
        matches!(self.pin, None | Some(EngineTier::Jump))
    }
}

/// Expected collision-free run at population `n`: the birthday bound's
/// `√(πn/8) ≈ 0.627·√n`, as the integer `5·⌊√n⌋/8` (within 1%), at least 1.
pub(crate) fn expected_run_length(n: u64) -> u64 {
    (isqrt(n) * 5 / 8).max(1)
}

/// `⌊√n⌋` (`u64::isqrt` needs a newer MSRV than 1.75): the f64 estimate is
/// exact below 2^52, and the two correction steps make it exact everywhere.
fn isqrt(n: u64) -> u64 {
    let mut root = (n as f64).sqrt() as u64;
    while root > 0 && root.checked_mul(root).map_or(true, |sq| sq > n) {
        root -= 1;
    }
    while (root + 1).checked_mul(root + 1).is_some_and(|sq| sq <= n) {
        root += 1;
    }
    root
}

/// The batch and jump tiers' population ceiling: their exact pair weights,
/// up to `n(n−1)`, must fit a `u64`. Beyond it execution stays per-step.
pub(crate) const BATCH_MAX_POPULATION: u64 = u32::MAX as u64;

/// The compiled and reference tiers step on an array of the agents'
/// interned `u16` state ids up to this population (`2n` bytes), while at
/// most 2^16 states are interned: two uniform distinct positions per step
/// instead of two sum-tree descents and climbs. It is also the batch tier's
/// crossover `N*`: below it a round must beat the array's step, which only
/// the cells path does reliably, so batch engages only while
/// `CELL_FALLBACK_FACTOR · k² ≤ E[run]` (same factor-2 exit; one class
/// counts as two, since it lasts until one non-null interaction or is
/// silent and left to the jump tier). For two states that is the old 4096
/// floor on powers of two (32 ≤ 40 at 4096, 32 > 28 at 2048); `P_LL`'s
/// support of 84–430 never qualifies. From the cap up the per-step
/// alternative is the 55–70 ns tree, and the support rule applies.
///
/// The crossover was measured on `P_LL` alone, on `pll_tail_2e20`'s
/// schedule (seed 1, 40 windows of 10n from the initial configuration,
/// live support 84–430), ns per interaction (2-vCPU Xeon, shared host):
///
/// | n | batch | `u32` array pin | `u16` array pin |
/// |---|---|---|---|
/// | 2^20 | 26.1, 26.0, 25.4, 24.7 | 20.7, 19.9 | 18.1, 17.7 |
/// | 2^21 | 24.6, 23.6 | — | 19.9, 22.5 |
/// | 2^22 | 20.8, 22.6 | — | 23.7, 24.5 |
///
/// It is a trade, not a win everywhere: a protocol whose support sits
/// between the two rules (roughly 10–300 at 2^20–2^22) and that the jump
/// tier does not take now steps on the array where it used to batch. Rows
/// for two small-support protocols, ns per interaction, same host:
///
/// | workload at n | batch pin | `u16` array pin | default, before → after |
/// |---|---|---|---|
/// | `UnboundedLottery` tail at 2^21 (from parallel time 20, support 64 → 17 over 10n) | 8.0, 7.6 | 10.5, 9.2 | jump both: 1.05, 1.10 → 1.15, 1.08 |
/// | `BoundedLottery` whole elections at 2^20, seeds 1–4 | — | — | batch 16–19 → array 17–22; 0.26–0.37 → 0.35–0.39 s |
/// | `BoundedLottery` whole elections at 2^21, seeds 1–2 | — | — | batch 17.6, 17.7 → array 26.0, 15.2; 0.70, 0.74 → 1.03, 0.82 s |
///
/// So the bounded lottery runs up to about 1.4× slower per election in
/// [2^20, 2^22). No benchmark workload runs at or above `N*`, so the batch
/// side of this selection has no end-to-end measurement.
///
/// With `u32` ids the array's cliff sat at its byte width (4 MiB at 2^20
/// against a 2 MiB L2); the compiled pin measured 32.7–49.4 ns at 2^20 and
/// 63.5–68.5 at 2^21 on `u32` ids against 26.1–34.9 and 34.0–44.2 on `u16`
/// ids, with the tree at 51.6 and 52.4. The tree's cost falls with the live
/// support and the array's does not, so a compiled *pin* on two states at
/// 2^20 used to run slower on the array. On `u16` ids it no longer does:
/// fratricide from `n` leaders at 2^20, pinned to compiled and timed over
/// parallel time `[4, 24)`, ran 10.6, 8.6, 10.7 ns per interaction on the
/// `u16` array, 10.9, 10.6, 11.5 on the `u32` array and 10.4, 10.0, 9.8 on
/// the tree (a build with this cap lowered to 2^19; alternating runs).
/// Heuristic dispatch never meets that case, because the cells rule puts
/// two states on the batch tier from 4096 agents up.
pub(crate) const AGENT_ARRAY_MAX_POPULATION: u64 = 1 << 22;

/// What the batch rules weigh against `E[run]`: the support rule from
/// [`AGENT_ARRAY_MAX_POPULATION`] agents up, the cells table below.
fn batch_cost(support: usize, n: u64) -> u64 {
    let k = support as u64;
    if n >= AGENT_ARRAY_MAX_POPULATION {
        return k.saturating_mul(BATCH_SUPPORT_DIVISOR);
    }
    CELL_FALLBACK_FACTOR.saturating_mul(k.max(2).saturating_pow(2))
}

/// Batch-tier engage rule: the cost fits one expected run.
pub(crate) fn batch_engages(support: usize, n: u64) -> bool {
    n <= BATCH_MAX_POPULATION && batch_cost(support, n) <= expected_run_length(n)
}

/// Batch-tier exit rule: the cost exceeds two expected runs.
pub(crate) fn batch_exits(support: usize, n: u64) -> bool {
    n > BATCH_MAX_POPULATION || batch_cost(support, n) > 2 * expected_run_length(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_historical_constants() {
        assert_eq!(crate::compiled::MAX_COMPILED_STATES, 4096);
        assert_eq!(JUMP_ENGAGE_FACTOR, 8);
        assert_eq!(JUMP_EXIT_FACTOR, 4);
        assert_eq!(BATCH_SUPPORT_DIVISOR, 3);
    }

    #[test]
    fn expected_run_tracks_sqrt() {
        assert_eq!(expected_run_length(1 << 20), 640);
        assert_eq!(expected_run_length(4), 1);
        // Within 2% of √(πn/8) across the practical range.
        for shift in [12u32, 16, 20, 24, 30] {
            let n = 1u64 << shift;
            let exact = (std::f64::consts::PI * n as f64 / 8.0).sqrt();
            let got = expected_run_length(n) as f64;
            assert!(
                (got / exact - 1.0).abs() < 0.02,
                "n=2^{shift}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn batch_rules_have_hysteresis() {
        let below = AGENT_ARRAY_MAX_POPULATION - 1;
        assert_eq!(expected_run_length(below), 1279);
        // (n, support, engages, exits), with E[run] and the cost weighed.
        let table = [
            // Two states: the cells rule is the old 4096-agent floor.
            (4096, 2, true, false),  // 8·2² = 32 ≤ E = 40
            (2048, 2, false, false), // 32 > E = 28, but ≤ 2E
            (4096, 1, true, false),  // one class counts as two
            (200, 1, false, true),   // 32 > 2E = 16
            (4096, 3, false, false), // 72 > 40, but ≤ 2E = 80
            (4096, 4, false, true),  // 128 > 80
            // P_LL-sized supports stay off batch below the crossover.
            (1 << 16, 40, false, true), // 12800 > 2E = 320
            (below, 40, false, true),   // 12800 > 2E = 2558
            (below, 12, true, false),   // 1152 ≤ E = 1279
            (below, 13, false, false),  // 1352 > 1279, but ≤ 2558
            (below, 17, false, false),  // 2312 ≤ 2558
            (below, 18, false, true),   // 2592 > 2558
            // From the crossover up, the support rule.
            (1 << 22, 426, true, false),  // 3·426 = 1278 ≤ E = 1280
            (1 << 22, 427, false, false), // 1281 > 1280, but ≤ 2E
            (1 << 22, 853, false, false), // 2559 ≤ 2560
            (1 << 22, 854, false, true),  // 2562 > 2560
            // Past the ceiling, never.
            (BATCH_MAX_POPULATION + 1, 1, false, true),
        ];
        for (n, support, engages, exits) in table {
            assert_eq!(
                batch_engages(support, n),
                engages,
                "engage: n={n}, support {support}"
            );
            assert_eq!(
                batch_exits(support, n),
                exits,
                "exit: n={n}, support {support}"
            );
        }
    }

    #[test]
    fn tier_names_render() {
        assert_eq!(EngineTier::Batch.to_string(), "batch");
        assert_eq!(EngineTier::Reference.to_string(), "reference");
    }
}
