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
//! * [`Pcg32`] — an independent family used to cross-check statistical tests,
//! * the [`Rng64`] trait with unbiased bounded sampling
//!   ([`Rng64::below`], Lemire's method), fair coins, unit-interval doubles,
//!   geometric sampling, and distinct-pair sampling for interaction schedules,
//! * discrete distributions for batch simulation: [`Hypergeometric`]
//!   (inverse-CDF / HRUA) — the per-class draw behind the count engine's
//!   collision-free interaction batches — and its with-replacement sibling
//!   [`Binomial`] (inverse-CDF / BTRD), plus
//!   [`multivariate_hypergeometric`], the reference implementation of the
//!   conditional decomposition (the engine inlines an order-optimized copy;
//!   the two are pinned draw-for-draw equivalent by its tests), and
//!   [`contingency_table`], the fixed-margin table law behind the count
//!   engine's contingency cells (nested conditional rows),
//! * weighted samplers: [`FenwickSampler`] (dynamic weights, `O(log k)`
//!   updates and draws), [`SumTreeSampler`] (same queries on a complete
//!   binary sum tree whose fixed-depth branch-free walks feed the count
//!   engine's hot loop — draw-for-draw identical to the Fenwick sampler),
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

mod binomial;
mod contingency;
mod geometric;
mod hypergeom;
mod lnfact;
mod pcg;
mod rng;
mod seq;
mod snapshot;
mod splitmix;
mod sumtree;
mod weighted;
mod xoshiro;

pub use binomial::Binomial;
pub use contingency::contingency_table;
pub use geometric::Geometric;
pub use hypergeom::{multivariate_hypergeometric, Hypergeometric};
pub use pcg::Pcg32;
pub use rng::Rng64;
pub use seq::SeedSequence;
pub use snapshot::RngSnapshot;
pub use splitmix::SplitMix64;
pub use sumtree::{SumTreeSampler, TransferEffect};
pub use weighted::{FenwickSampler, WeightedError};
pub use xoshiro::Xoshiro256PlusPlus;
