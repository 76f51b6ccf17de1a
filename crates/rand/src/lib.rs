//! Deterministic pseudo-random number generation for population-protocol
//! simulation.
//!
//! The uniformly random scheduler of the population-protocol model draws one
//! ordered pair of distinct agents per step, so a simulation of `Θ(n log n)`
//! interactions over thousands of seeds needs an RNG that is
//!
//! * **fast** — a handful of arithmetic operations per draw,
//! * **deterministic** — the same seed reproduces the same execution on every
//!   machine, and
//! * **splittable** — independent streams for parallel experiment sweeps.
//!
//! This crate provides exactly that and nothing more:
//!
//! * [`SplitMix64`] — seeding generator and stream deriver,
//! * [`Xoshiro256PlusPlus`] — the default simulation RNG,
//! * the [`Rng64`] trait with unbiased bounded sampling
//!   ([`Rng64::below`], Lemire's method), fair coins, unit-interval doubles,
//!   geometric sampling, and distinct-pair sampling for interaction schedules,
//! * discrete distributions for batch simulation: [`Hypergeometric`]
//!   (inverse-CDF / HRUA) — the per-class draw behind the count engine's
//!   collision-free interaction batches — plus
//!   [`multivariate_hypergeometric`], the reference implementation of the
//!   conditional decomposition (a test oracle: the engine draws its round
//!   margins with its own heavy/light split, and its unit tests compare the
//!   law of those draws, not the draws themselves, against this one), and
//!   [`contingency_table`], the fixed-margin table law behind the count
//!   engine's contingency cells (nested conditional rows),
//! * weighted samplers: [`FenwickSampler`] (dynamic weights, `O(log k)`
//!   updates and draws), [`SumTreeSampler`] (same queries on a complete
//!   binary sum tree whose fixed-depth branch-free walks feed the count
//!   engine's per-step tiers — draw-for-draw identical to the Fenwick
//!   sampler), and [`pair_targets`], the one-word ordered-pair draw both
//!   samplers and the count engine's agent array share,
//! * [`SeedSequence`] — reproducible derivation of per-run seeds.
//!
//! # Example
//!
//! ```
//! use pp_rand::{Rng64, SeedSequence, Xoshiro256PlusPlus};
//!
//! let mut seeds = SeedSequence::new(42);
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(seeds.next_seed());
//! let (u, v) = rng.distinct_pair(10);
//! assert_ne!(u, v);
//! assert!(u < 10 && v < 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod contingency;
mod geometric;
mod hypergeom;
mod lnfact;
mod rng;
mod seq;
mod splitmix;
mod sumtree;
mod weighted;
mod xoshiro;

pub use contingency::contingency_table;
pub use geometric::Geometric;
pub use hypergeom::{multivariate_hypergeometric, Hypergeometric};
pub use rng::Rng64;
pub use seq::SeedSequence;
pub use splitmix::SplitMix64;
pub use sumtree::{SumTreeSampler, TransferEffect};
pub use weighted::{pair_targets, FenwickSampler, WeightedError};
pub use xoshiro::Xoshiro256PlusPlus;
