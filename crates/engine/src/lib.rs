//! The population-protocol model as an executable substrate.
//!
//! A *population* is a set of `n` anonymous finite-state agents on a complete
//! interaction graph. At every discrete step a *scheduler* selects one ordered
//! pair of distinct agents — the *initiator* and the *responder* — and both
//! update their states through the protocol's joint transition function
//! (Angluin, Aspnes, Diamadi, Fischer, Peralta, *Computation in networks of
//! passively mobile finite-state sensors*, 2006). Time is measured in
//! *parallel time* = steps / n.
//!
//! This crate provides everything the model needs to run fast and
//! reproducibly:
//!
//! * [`Protocol`] — the transition system: states, joint transition function,
//!   outputs; [`LeaderElection`] refines it for protocols whose output is a
//!   [`Role`].
//! * [`Configuration`] — a mapping from agents to states, with deterministic
//!   schedule application for unit tests and formal-definition checks.
//! * Schedulers — [`UniformScheduler`] (the uniformly random scheduler Γ of
//!   the paper), [`ReplayScheduler`] (fixed schedule), and
//!   [`RoundRobinScheduler`] (deterministic adversarial-ish sweep).
//! * [`Simulation`] — the per-agent reference engine; `O(1)` per interaction.
//! * [`CountSimulation`] — an *exact* count-based engine that interns states
//!   and samples interactions from per-state counts; it also measures how
//!   many distinct states an execution actually visits, which is the
//!   "number of states" column of the paper's Table 1. It dispatches across
//!   **four execution tiers** (see the [`tier` docs](EngineTier) and the
//!   [`count_engine` docs](CountSimulation)): the uncached reference path,
//!   the hash-free [compiled] per-step path, a null-skipping jump
//!   scheduler that telescopes runs of null interactions into single
//!   geometric draws wherever they dominate (making `Θ(n²)`-step election
//!   tails at `n = 2^28`–`2^30` seconds-scale), and a collision-free
//!   hypergeometric **batch** tier that applies `Θ(√n)`-interaction rounds
//!   in bulk for any null density. The tier heuristics' thresholds are
//!   fixed constants of the engine's cost model.
//! * [`epidemic`] — the one-way epidemic process of \[AAE08\], the workhorse of
//!   every O(log n) bound in the paper (its Lemma 2).
//!
//! # Quickstart
//!
//! ```
//! use pp_engine::prelude::*;
//!
//! /// Two-state fratricide leader election: L × L → L × F.
//! struct Fratricide;
//!
//! impl Protocol for Fratricide {
//!     type State = bool; // true = leader
//!     type Output = Role;
//!     fn initial_state(&self) -> bool { true }
//!     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
//!         if *a && *b { (true, false) } else { (*a, *b) }
//!     }
//!     fn output(&self, s: &bool) -> Role {
//!         if *s { Role::Leader } else { Role::Follower }
//!     }
//! }
//!
//! impl LeaderElection for Fratricide {
//!     fn monotone_leaders(&self) -> bool { true }
//! }
//!
//! let scheduler = UniformScheduler::seed_from_u64(1);
//! let mut sim = Simulation::new(Fratricide, 50, scheduler).unwrap();
//! let outcome = sim.run_until_single_leader(1_000_000);
//! assert!(outcome.converged);
//! assert_eq!(sim.leader_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
pub mod compiled;
mod config;
mod count_engine;
mod engine;
pub mod epidemic;
mod error;
mod jump;
pub mod obs;
mod protocol;
mod round;
mod scheduler;
pub mod snapshot;
mod tier;
mod trace;

pub use batch::BatchStats;
pub use config::Configuration;
pub use count_engine::CountSimulation;
pub use engine::{RunOutcome, Simulation};
pub use error::EngineError;
pub use obs::{EngineEvent, EngineMetrics, EngineObserver, TierTimeline, TrajectorySampler};
pub use protocol::{check_symmetry, LeaderElection, Protocol, Role};
pub use scheduler::{
    Interaction, ReplayScheduler, RoundRobinScheduler, Scheduler, UniformScheduler,
};
pub use snapshot::{SnapshotError, SnapshotState, SNAPSHOT_VERSION};
pub use tier::{EngineTier, JumpStats, TierUsage};
pub use trace::Trace;

/// How many interactions run between hoisted checks (step budget, sampled
/// debug assertions) in both engines' batched convergence loops.
pub(crate) const CONVERGENCE_BATCH: u64 = 4096;

/// Convenient glob-import of the engine's most common items.
pub mod prelude {
    pub use crate::{
        Configuration, CountSimulation, EngineError, Interaction, LeaderElection, Protocol,
        ReplayScheduler, Role, RoundRobinScheduler, RunOutcome, Scheduler, Simulation,
        UniformScheduler,
    };
    pub use pp_rand::{Rng64, SeedSequence, Xoshiro256PlusPlus};
}

/// Converts a step count into parallel time for a population of `n` agents.
///
/// Parallel time is the number of interactions divided by `n`; it normalizes
/// for the fact that `n` interactions give each agent Θ(1) expected
/// participations.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn parallel_time(steps: u64, n: usize) -> f64 {
    assert!(n > 0, "population size must be positive");
    steps as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_time_normalizes_by_population() {
        assert_eq!(parallel_time(1000, 100), 10.0);
        assert_eq!(parallel_time(0, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn parallel_time_rejects_zero_population() {
        parallel_time(1, 0);
    }
}
