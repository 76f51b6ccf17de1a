//! The **batch tier**: collision-free hypergeometric rounds à la Berenbrink
//! et al., *Simulating Population Protocols in Sub-Constant Time per
//! Interaction* (ESA 2020).
//!
//! The jump scheduler only helps when null interactions dominate; the batch
//! tier removes the per-interaction cost for *any* transition density. The
//! key observation: in a run of consecutive interactions in which **no agent
//! participates twice**, the interactions touch pairwise-disjoint agents, so
//! they commute — the run's effect on the configuration depends only on *how
//! many* interactions each ordered state pair received, never on their
//! order. The engine therefore processes whole runs at once:
//!
//! 1. **Run length.** The probability that the next interaction is
//!    collision-free, given `u` agents already used, is
//!    `(n−u)(n−u−1) / (n(n−1))`; the maximal collision-free prefix length is
//!    sampled exactly by inverting the running product of these ratios with
//!    a single uniform ([`crate::round::collision_free_prefix_from`]). Its
//!    expectation is the birthday bound `≈ √(πn/8)` — the `Θ(√n)` round
//!    length.
//! 2. **Who interacts.** The `2L` agents of a collision-free run of length
//!    `L` are a uniform without-replacement sample of the population. By
//!    exchangeability, the initiator states are a multivariate
//!    hypergeometric draw of `L` from the counts, the responder states an
//!    `L`-draw from what remains. *How* the two multisets pair into ordered
//!    interactions is the round law of [`crate::round`]: a direct
//!    contingency-table draw while the table is small, a permuted responder
//!    sequence otherwise.
//! 3. **Collisions, exactly.** The run ends because the *next* interaction
//!    touches a used agent. Used agents are exchangeable given their state
//!    counts, so the colliding interaction is executed individually from a
//!    two-urn (fresh/used) configuration with exact integer category
//!    weights — the sampled schedule stays distributionally identical to
//!    sequential stepping, collision included.
//!
//! Convergence detection stays **step-exact**: conditioned on the run's pair
//! multiset, the true process orders the interactions as a uniformly random
//! interleaving (sampling without replacement is exchangeable), so when the
//! leader count could touch 1 inside a round the engine shuffles the round
//! into one such interleaving and walks it interaction by interaction (the
//! "exact walk"), stopping at the precise hitting step. Rounds that provably
//! cannot touch 1 skip the walk and apply bulk count deltas.
//!
//! Like the jump scheduler, the batch tier changes no distribution — it
//! consumes the RNG stream differently, so executions are equal in law, not
//! bit-identical; the 4-tier chi-square suite (`tests/batch_equivalence.rs`)
//! and the round-law suite (`tests/round_law.rs`) pin the law.
//!
//! This module owns the tier's public stats and ride-along state; the
//! statistical machinery (urn scratch, run-length inversion, the round
//! law) lives in [`crate::round`], and the episode orchestration (which
//! needs the pair cache and interning) in
//! [`CountSimulation`](crate::CountSimulation).

use crate::round::BatchScratch;

/// Throughput counters of the batch tier (field `batch` of
/// [`CountSimulation::metrics`](crate::CountSimulation::metrics)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch episodes executed (one collision-free segment each).
    pub episodes: u64,
    /// Interactions applied through collision-free bulk rounds.
    pub bulk_interactions: u64,
    /// Collision interactions executed individually at segment boundaries.
    pub collision_interactions: u64,
    /// Segments resolved by the exact shuffled walk (leader count near 1).
    pub exact_walks: u64,
    /// Conditional draws spent pairing margins into contingency cells
    /// (margin draws are common to both sides and not counted).
    pub contingency_draws: u64,
    /// Segments whose responder shuffle was replaced by a contingency
    /// table.
    pub shuffle_skips: u64,
}

/// Batch-tier state riding along the count engine.
#[derive(Debug, Clone)]
pub(crate) struct BatchState {
    /// User toggle ([`CountSimulation::set_batch_tier`]
    /// (crate::CountSimulation::set_batch_tier)); on by default.
    pub enabled: bool,
    /// Currently executing rounds instead of per-step chunks.
    pub engaged: bool,
    /// Test hook: pinned engaged regardless of the engage/exit heuristics.
    pub forced: bool,
    pub stats: BatchStats,
    pub scratch: BatchScratch,
}

impl BatchState {
    pub(crate) fn new() -> Self {
        Self {
            enabled: true,
            engaged: false,
            forced: false,
            stats: BatchStats::default(),
            scratch: BatchScratch::default(),
        }
    }
}
