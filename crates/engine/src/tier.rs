//! Execution-tier dispatch for the count engine.
//!
//! [`CountSimulation`](crate::CountSimulation) runs every workload through
//! one of four interchangeable execution tiers — same Markov chain, different
//! cost models:
//!
//! | Tier | Mechanism | Per-interaction cost | Wins when |
//! |------|-----------|----------------------|-----------|
//! | [`Reference`](EngineTier::Reference) | hash + clone + `transition` per step | `O(1)`, large constant | cache disabled (oracle baseline) |
//! | [`Compiled`](EngineTier::Compiled) | [pair cache](crate::compiled) + fused tree descents | ~100 cycles | dense transitions, large live support |
//! | [`Jump`](EngineTier::Jump) | [null-run telescoping](crate::jump) | `O(1)` per *episode* | known-null pairs ≥ `1 − 1/engage_factor` of scheduler weight |
//! | [`Batch`](EngineTier::Batch) | [hypergeometric rounds](crate::batch) | `O((k + √n)/√n)` amortized | small live support `k`, any null density |
//!
//! The tiers are selected *per workload phase*, not per simulation: reviews
//! at batch boundaries re-run the engage/disengage heuristics against the
//! current configuration (null weight for the jump tier, live support for
//! the batch tier), with hysteresis so the engine never flaps around a
//! threshold. The thresholds live in [`EngineConfig`] — promoted from
//! hard-coded constants precisely so parameter sweeps can tune them.
//!
//! This module owns the dispatch state ([`TierController`]) and the pure
//! decision rules; the episode/chunk execution lives in
//! [`count_engine`](crate::CountSimulation) and [`crate::batch`].

use crate::batch::BatchState;
use crate::compiled;
use crate::jump::NullLedger;

/// Tuning knobs of the count engine's tier heuristics.
///
/// The defaults reproduce the engine's historical behavior exactly; every
/// field is a promoted former hard-coded constant. Construct with struct
/// update syntax from [`EngineConfig::default()`] and pass to
/// [`CountSimulation::with_config`](crate::CountSimulation::with_config):
///
/// ```
/// use pp_engine::EngineConfig;
///
/// let config = EngineConfig {
///     jump_engage_factor: 16, // engage jumping only at ≥ 15/16 null weight
///     ..EngineConfig::default()
/// };
/// assert_eq!(config.max_compiled_states, 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Cap on state ids addressable by the compiled pair cache (historically
    /// the hard-coded `MAX_COMPILED_STATES = 4096`, still the default and
    /// the hard ceiling — the packed entries carry 12-bit ids). Validation
    /// rounds the cap up to a power of two, because the dense table's
    /// stride is one (the rounded value is what [`config`]
    /// (crate::CountSimulation::config) reports). Beyond the cap the cache
    /// *saturates*: higher ids fall back to per-encounter transitions until
    /// [state-id compaction](crate::CountSimulation) frees ids. The dense
    /// table costs `4·cap²` bytes worst case, grown lazily.
    pub max_compiled_states: usize,
    /// The jump scheduler engages when
    /// `W_active · jump_engage_factor ≤ W_total`, i.e. when known-null pairs
    /// carry at least `1 − 1/factor` of the scheduler weight (default 8 —
    /// the historical 7/8 threshold) so each episode is expected to
    /// telescope at least `factor` raw interactions.
    pub jump_engage_factor: u64,
    /// Hysteresis: an engaged jump scheduler disengages only once
    /// `W_active · jump_exit_factor > W_total` (default 4), so the engine
    /// does not flap around the engagement boundary.
    pub jump_exit_factor: u64,
    /// The batch tier engages when
    /// `support · batch_support_divisor ≤ E[collision-free run]` (default 3):
    /// a batch round costs `O(support)` hypergeometric draws plus `O(run)`
    /// cheap per-slot work, so it beats the compiled tier only while the
    /// live support is a fraction of the expected `Θ(√n)` round length.
    /// Disengages (with a factor-2 hysteresis band) when the support grows
    /// past `2×` the engage threshold.
    pub batch_support_divisor: u64,
    /// Populations below this never engage the batch tier (default 4096):
    /// collision-free runs of `E ≈ 0.62·√n` steps are too short to amortize
    /// a round's set-up below it.
    pub batch_min_population: u64,
    /// Whether tier reviews may compact state ids — reassigning the ids of
    /// permanently-dead states (largest live counts first) so
    /// state-unbounded protocols keep the compiled cache, the jump
    /// scheduler, and the batch tier available (default `true`).
    pub compaction: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_compiled_states: compiled::MAX_COMPILED_STATES,
            jump_engage_factor: 8,
            jump_exit_factor: 4,
            batch_support_divisor: 3,
            batch_min_population: 4096,
            compaction: true,
        }
    }
}

impl EngineConfig {
    /// Clamps every field into its valid range (the engine applies this at
    /// construction, so out-of-range sweeps degrade gracefully).
    pub(crate) fn validated(mut self) -> Self {
        // Power of two: the pair table addresses ids by stride, so that is
        // the granularity at which the cap can take effect.
        self.max_compiled_states = self
            .max_compiled_states
            .clamp(1, compiled::MAX_COMPILED_STATES)
            .next_power_of_two();
        self.jump_engage_factor = self.jump_engage_factor.max(2);
        self.jump_exit_factor = self.jump_exit_factor.clamp(1, self.jump_engage_factor);
        self.batch_support_divisor = self.batch_support_divisor.max(1);
        self.batch_min_population = self.batch_min_population.max(2);
        self
    }
}

/// The execution tier the count engine is currently dispatching to (see the
/// [module docs](self) for the selection rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineTier {
    /// Uncached per-step fallback: hash, clone, and call
    /// [`Protocol::transition`](crate::Protocol::transition) every step.
    Reference,
    /// Compiled pair cache + fused pair sampling, one interaction at a time.
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
#[derive(Debug, Clone)]
pub(crate) struct JumpState {
    /// User toggle ([`CountSimulation::set_jump_scheduler`]
    /// (crate::CountSimulation::set_jump_scheduler)); on by default.
    pub enabled: bool,
    /// Currently executing episodes instead of per-step chunks.
    pub engaged: bool,
    /// Test hook: pinned engaged regardless of the engage/exit thresholds.
    pub forced: bool,
    /// The known-null pair set with scheduler weights.
    pub ledger: NullLedger,
    pub stats: JumpStats,
}

impl JumpState {
    fn new() -> Self {
        Self {
            enabled: true,
            engaged: false,
            forced: false,
            ledger: NullLedger::new(),
            stats: JumpStats::default(),
        }
    }
}

/// The dispatch state shared by all of the count engine's batched drivers:
/// tier configuration, per-tier engage state, and the step count of the next
/// heuristic review.
#[derive(Debug, Clone)]
pub(crate) struct TierController {
    pub config: EngineConfig,
    pub jump: JumpState,
    pub batch: BatchState,
    /// Step count at which the next tier review (jump probe, batch
    /// engage/disengage, compaction check) runs.
    pub review_at: u64,
    /// Per-tier interaction counters (snapshot-persistent since format v3).
    pub usage: TierUsage,
}

impl TierController {
    pub(crate) fn new(config: EngineConfig) -> Self {
        Self {
            config: config.validated(),
            jump: JumpState::new(),
            batch: BatchState::new(),
            review_at: 0,
            usage: TierUsage::default(),
        }
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

/// Batch-tier engage rule (see [`EngineConfig::batch_support_divisor`]).
pub(crate) fn batch_engages(support: usize, n: u64, config: &EngineConfig) -> bool {
    n >= config.batch_min_population
        && n <= BATCH_MAX_POPULATION
        && (support as u64).saturating_mul(config.batch_support_divisor) <= expected_run_length(n)
}

/// Batch-tier exit rule: the engage inequality failed by more than the
/// factor-2 hysteresis band.
pub(crate) fn batch_exits(support: usize, n: u64, config: &EngineConfig) -> bool {
    n < config.batch_min_population
        || n > BATCH_MAX_POPULATION
        || (support as u64).saturating_mul(config.batch_support_divisor)
            > 2 * expected_run_length(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_historical_constants() {
        let c = EngineConfig::default();
        assert_eq!(c.max_compiled_states, 4096);
        assert_eq!(c.jump_engage_factor, 8);
        assert_eq!(c.jump_exit_factor, 4);
        assert!(c.compaction);
    }

    #[test]
    fn validation_clamps_out_of_range_fields() {
        let c = EngineConfig {
            max_compiled_states: 1 << 20,
            jump_engage_factor: 0,
            jump_exit_factor: 99,
            batch_support_divisor: 0,
            batch_min_population: 0,
            compaction: false,
        }
        .validated();
        assert_eq!(c.max_compiled_states, compiled::MAX_COMPILED_STATES);
        assert_eq!(c.jump_engage_factor, 2);
        assert_eq!(c.jump_exit_factor, 2, "exit cannot exceed engage");
        assert_eq!(c.batch_support_divisor, 1);
        assert_eq!(c.batch_min_population, 2);
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
        let c = EngineConfig::default();
        let n = 1u64 << 20; // expected run 640
        assert!(batch_engages(213, n, &c)); // 213·3 = 639 ≤ 640
        assert!(!batch_engages(214, n, &c));
        assert!(!batch_exits(214, n, &c)); // inside the hysteresis band
        assert!(!batch_exits(426, n, &c)); // 426·3 = 1278 ≤ 1280
        assert!(batch_exits(427, n, &c));
        assert!(!batch_engages(2, 1024, &c), "below the population floor");
        assert!(batch_exits(2, 1024, &c));
    }

    #[test]
    fn tier_names_render() {
        assert_eq!(EngineTier::Batch.to_string(), "batch");
        assert_eq!(EngineTier::Reference.to_string(), "reference");
    }
}
