//! The count engine's input envelope: each entry point that takes outside
//! input — the counts given to `new`/`from_counts` and a fast-tier pin at
//! the fast tiers' population cap — returns `Ok` or a typed error on every
//! input, and never panics.

use population_protocols::engine::{
    CountSimulation, EngineError, EngineTier, LeaderElection, MAX_POPULATION,
};
use population_protocols::protocols::Fratricide;
use population_protocols::rand::Xoshiro256PlusPlus;
use proptest::collection;
use proptest::prelude::*;

type Sim<P> = CountSimulation<P, Xoshiro256PlusPlus>;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

/// Agent counts across the envelope: tiny, arbitrary, straddling `2^63`,
/// and next to `u64::MAX`.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        any::<u64>(),
        (MAX_POPULATION - 8)..=(MAX_POPULATION + 8),
        (u64::MAX - 8)..=u64::MAX,
    ]
}

/// What a constructor must return for counts summing to `total`.
fn check_constructed<P: LeaderElection>(
    built: Result<Sim<P>, EngineError>,
    total: u128,
) -> Result<(), TestCaseError> {
    match built {
        Ok(mut sim) => {
            prop_assert!(total >= 2 && total <= u128::from(MAX_POPULATION));
            prop_assert_eq!(sim.population() as u128, total);
            sim.run(64);
            prop_assert_eq!(sim.steps(), 64);
            prop_assert_eq!(sim.state_counts().values().sum::<u64>() as u128, total);
        }
        Err(EngineError::PopulationTooSmall { n }) => {
            prop_assert!(total < 2);
            prop_assert_eq!(n as u128, total);
        }
        Err(EngineError::PopulationOverflow { total: reached }) => {
            prop_assert!(total > u128::from(MAX_POPULATION));
            prop_assert!(reached > u128::from(MAX_POPULATION) && reached <= total);
        }
        Err(other) => prop_assert!(false, "unexpected error {other}"),
    }
    Ok(())
}

proptest! {
    #[test]
    fn constructors_return_ok_or_a_typed_error(
        counts in collection::vec(count(), 0..5),
        n in count(),
    ) {
        let total: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        let entries = counts.iter().enumerate().map(|(i, &c)| (i % 2 == 0, c));
        check_constructed(Sim::from_counts(Fratricide, entries, rng(1)), total)?;
        check_constructed(Sim::new(Fratricide, n as usize, rng(2)), u128::from(n))?;
    }
}

#[test]
fn fast_tier_pins_stop_at_their_population_cap() {
    let cap = u64::from(u32::MAX);
    for n in [cap, cap + 1, cap + 2] {
        for tier in [EngineTier::Jump, EngineTier::Batch] {
            let mut sim = Sim::new(Fratricide, n as usize, rng(3)).unwrap();
            match sim.pin_tier(tier) {
                Ok(()) => {
                    assert_eq!(n, cap, "{tier} pinned at n = {n}");
                    sim.run(1000);
                    assert_eq!(sim.steps(), 1000);
                    assert_eq!(sim.active_tier(), tier);
                    assert_eq!(sim.population() as u64, n);
                }
                Err(e) => assert_eq!(e, EngineError::PopulationTooLarge { tier, n, max: cap }),
            }
        }
    }
}
