//! Execution-tier dispatch for the count engine.
//!
//! [`CountSimulation`](crate::CountSimulation) runs every workload through
//! one of four interchangeable execution tiers — same Markov chain, different
//! cost models:
//!
//! | Tier | Mechanism | Per-interaction cost | Wins when |
//! |------|-----------|----------------------|-----------|
//! | [`Reference`](EngineTier::Reference) | hash + clone + `transition` per step | `O(1)`, large constant | never chosen; the pinned oracle baseline |
//! | [`Compiled`](EngineTier::Compiled) | [pair cache](crate::compiled) + two agent-array reads (two tree descents past 2^21 agents) | ~20–35 ns below 2^21 agents, ~55 ns above | dense transitions, large live support |
//! | [`Jump`](EngineTier::Jump) | [null-run telescoping](crate::jump) | `O(1)` per *episode* | known-null pairs ≥ 7/8 of scheduler weight |
//! | [`Batch`](EngineTier::Batch) | [hypergeometric rounds](crate::batch) | `O((k + √n)/√n)` amortized | small live support `k`, any null density |
//!
//! The tiers are selected *per workload phase*, not per simulation: reviews
//! at batch boundaries re-run the engage/disengage heuristics against the
//! current configuration (null weight for the jump tier, live support for
//! the batch tier), with hysteresis so the engine never flaps around a
//! threshold. The thresholds are fixed constants that follow from the cost
//! model (a collision-free run is expected to last `≈ 0.63·√n`
//! interactions; jumping pays once it telescopes ≥ 8 interactions per
//! episode), not tuning knobs. Tests pin one tier with the doc-hidden
//! [`CountSimulation::pin_tier`](crate::CountSimulation::pin_tier).
//!
//! This module owns the dispatch state ([`TierController`]) and the pure
//! decision rules; the episode/chunk execution lives in
//! [`count_engine`](crate::CountSimulation) and [`crate::batch`].

use crate::batch::BatchState;
use crate::jump::NullLedger;

/// The jump scheduler engages when `W_active · JUMP_ENGAGE_FACTOR ≤ W_total`,
/// i.e. when known-null pairs carry at least 7/8 of the scheduler weight,
/// so each episode is expected to telescope at least 8 raw interactions.
pub(crate) const JUMP_ENGAGE_FACTOR: u64 = 8;

/// Hysteresis: an engaged jump scheduler disengages only once
/// `W_active · JUMP_EXIT_FACTOR > W_total`, so the engine does not flap
/// around the engagement boundary.
pub(crate) const JUMP_EXIT_FACTOR: u64 = 4;

/// The batch tier engages when
/// `support · BATCH_SUPPORT_DIVISOR ≤ E[collision-free run]`: a round costs
/// one hypergeometric draw per heavy class (mean at least one draw), one
/// uniform pick per draw in the light tail and `O(support + run)` cheap
/// per-class and per-slot work, so it beats the compiled tier only
/// while the live support is a fraction of the expected `Θ(√n)` round
/// length. The divisor predates the light-tail picks and has not been
/// re-priced for them. It disengages (factor-2 hysteresis)
/// once the support grows past twice the engage threshold.
const BATCH_SUPPORT_DIVISOR: u64 = 3;

/// Populations below this never engage the batch tier heuristically:
/// collision-free runs of `E ≈ 0.63·√n` steps are too short to amortize a
/// round's set-up below it.
const BATCH_MIN_POPULATION: u64 = 4096;

/// The execution tier the count engine is currently dispatching to. Tier
/// reviews at batch boundaries select it from the live configuration, with
/// hysteresis around fixed thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineTier {
    /// Uncached per-step fallback: hash, clone, and call
    /// [`Protocol::transition`](crate::Protocol::transition) every step.
    Reference,
    /// Compiled pair cache + an O(1) pair draw (agent array up to 2^21
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

/// Interactions executed per tier over the whole execution, maintained at
/// dispatch boundaries regardless of whether an observer is attached (the
/// counters are pure functions of the trajectory, so attaching one cannot
/// change them). Serialized in snapshots since format v3, so they survive
/// resume; wall-clock accounting, which cannot survive a resume, lives in
/// the observer-only [`TierTimeline`](crate::obs::TierTimeline) instead.
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

/// The dispatch state shared by all of the count engine's batched drivers:
/// the test pin, per-tier engage state, and the step count of the next
/// heuristic review.
#[derive(Debug, Clone, Default)]
pub(crate) struct TierController {
    /// The tier pinned by [`CountSimulation::pin_tier`]
    /// (crate::CountSimulation::pin_tier), or `None` for heuristic dispatch.
    pub pin: Option<EngineTier>,
    pub jump: JumpState,
    pub batch: BatchState,
    /// Step count at which the next tier review (jump probe, batch
    /// engage/disengage, compaction check) runs.
    pub review_at: u64,
    /// Per-tier interaction counters (snapshot-persistent since format v3).
    pub usage: TierUsage,
}

impl TierController {
    /// Whether compiled null pairs feed the jump ledger: under heuristic
    /// dispatch and the jump pin. The compiled and batch pins keep the
    /// ledger empty (which also keeps tier reviews on their short interval);
    /// the reference pin has no compiled pairs at all.
    pub(crate) fn tracks_nulls(&self) -> bool {
        matches!(self.pin, None | Some(EngineTier::Jump))
    }
}

/// Expected length of a collision-free run at population `n`: the birthday
/// bound gives `E ≈ √(πn/8) ≈ 0.627·√n`; the integer `5·√n/8` is within 1%
/// and exact-integer cheap. Floored at 1.
pub(crate) fn expected_run_length(n: u64) -> u64 {
    (isqrt(n) * 5 / 8).max(1)
}

/// Integer square root (`⌊√n⌋`); `u64::isqrt` needs a newer MSRV than the
/// workspace's 1.75. The f64 estimate is exact for n < 2^52 and the two
/// correction steps make it exact everywhere.
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

/// The batch tier's population ceiling, shared with the jump scheduler's:
/// the collision round's exact integer category weights are bounded by
/// `n(n−1)`, which must fit a `u64`. Beyond the cap the heuristics simply
/// never engage and execution stays per-step.
pub(crate) const BATCH_MAX_POPULATION: u64 = u32::MAX as u64;

/// The compiled and reference tiers step on an array of the agents'
/// interned state ids up to this population: a step reads two uniform
/// distinct positions and writes both successors back, instead of two sum
/// tree descents and two leaf-to-root climbs. The array costs `4n` bytes,
/// and the cap sits where the per-step time of the compiled pin crosses
/// the tree's: on a 2-vCPU Xeon with 2 MiB of L2 per core, `P_LL` measured
/// 34, 51 and 72 ns per interaction on the array at 2^20, 2^21 and 2^22
/// agents, against 57–58 ns on the tree. Larger populations keep the tree
/// descent, which is also the only path past 2^32. The tree's cost falls
/// with the live support and the array's does not, so a compiled *pin* on
/// a 2-state protocol at 2^20 agents runs slower on the array (≈ 22 ns
/// against 11); heuristic dispatch never meets that case, because such
/// supports engage the batch tier from 4096 agents up.
pub(crate) const AGENT_ARRAY_MAX_POPULATION: u64 = 1 << 21;

/// Batch-tier engage rule (see [`BATCH_SUPPORT_DIVISOR`]).
pub(crate) fn batch_engages(support: usize, n: u64) -> bool {
    (BATCH_MIN_POPULATION..=BATCH_MAX_POPULATION).contains(&n)
        && (support as u64).saturating_mul(BATCH_SUPPORT_DIVISOR) <= expected_run_length(n)
}

/// Batch-tier exit rule: the engage inequality failed by more than the
/// factor-2 hysteresis band.
pub(crate) fn batch_exits(support: usize, n: u64) -> bool {
    !(BATCH_MIN_POPULATION..=BATCH_MAX_POPULATION).contains(&n)
        || (support as u64).saturating_mul(BATCH_SUPPORT_DIVISOR) > 2 * expected_run_length(n)
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
        assert_eq!(BATCH_MIN_POPULATION, 4096);
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
        let n = 1u64 << 20; // expected run 640
        assert!(batch_engages(213, n)); // 213·3 = 639 ≤ 640
        assert!(!batch_engages(214, n));
        assert!(!batch_exits(214, n)); // inside the hysteresis band
        assert!(!batch_exits(426, n)); // 426·3 = 1278 ≤ 1280
        assert!(batch_exits(427, n));
        assert!(!batch_engages(2, 1024), "below the population floor");
        assert!(batch_exits(2, 1024));
    }

    #[test]
    fn tier_names_render() {
        assert_eq!(EngineTier::Batch.to_string(), "batch");
        assert_eq!(EngineTier::Reference.to_string(), "reference");
    }
}
